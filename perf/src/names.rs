//! Every name the benchmark prints, with its unit, direction and bound.
//! `BENCHMARK.json` at the root of the repository lists the same names; a
//! test below keeps the two identical.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload and why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "tcp_small",
        why: "64 B collectives over loopback TCP: net frames, writev and reader-thread wake-ups do most of the work, core dispatch almost none",
    },
    WorkloadDef {
        name: "tcp_large",
        why: "64 KiB-1 MiB collectives over loopback TCP: the same net layer paid per byte (frame allocation, socket copies) instead of per frame",
    },
    WorkloadDef {
        name: "thread_small",
        why: "64 B collectives over in-process mailboxes: bypasses net, so plan-cache hits, executor set-up and thread_rt hand-offs dominate",
    },
    WorkloadDef {
        name: "thread_large",
        why: "64 KiB-1 MiB collectives without a wire: reduce lanes and executor gather/scatter copies dominate, dispatch and net do nothing",
    },
    WorkloadDef {
        name: "plan_cold",
        why: "single-thread control plane on the miss path (lower, opt passes, verify, compile, price, select, replay) that runtime workloads only read",
    },
];

/// One metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse before a change counts as a regression. All sit at the
/// widest bound a benchmark may state: on the shared reference box ten runs
/// of one commit spread by 2-14 % of their median and two sets of runs half
/// an hour apart differ by up to 12 % (`results/calibration.json`).
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (hi("ops_per_s", "op/s"), 0.25),
    (lo("cycle_p50_us", "us"), 0.25),
    (lo("cycle_p90_us", "us"), 0.25),
    (lo("setup_s", "s"), 0.25),
    (lo("peak_rss_mb", "MiB"), 0.25),
];

/// Slot spans: the slots of cycles S and L, then the request kinds of
/// cycle P. A workload reports 0 for a slot its cycle does not hold.
pub const SLOT_NAMES: &[&str] = &[
    "ar_recmult2",
    "ar_recmult4",
    "ar_ring",
    "bc_knomial2",
    "rd_knomial4",
    "ag_kring2",
    "ba_dissem2",
    "agv_ring",
    "miss",
    "verified",
    "pricing",
    "seed_point",
    "tenants",
    "lower_v",
    "replay",
];

/// Per-layer metrics other than the slot spans. The first block is measured
/// on the workload being run; the rest are probes that do not depend on it.
pub const LAYERS: &[MetricDef] = &[
    lo("cycle_p99_us", "us"),
    hi("core.cache_hit_ratio", "ratio"),
    lo("comm.wait_share", "ratio"),
    lo("comm.ctx_switch_per_op", "1/op"),
    lo("comm.msgs_per_cycle", "count"),
    lo("comm.rss_growth_B_per_op", "B/op"),
    lo("net.threads", "count"),
    lo("net.sys_share", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    lo("host.canary_ns", "ns"),
    lo("sim_makespan_geo_us", "us"),
    lo("core.lower_us", "us"),
    lo("core.lower_v_us", "us"),
    lo("core.verify_us", "us"),
    lo("core.compile_us", "us"),
    lo("core.plan_steps", "count"),
    lo("core.cache_hit_ns", "ns"),
    lo("core.cache_miss_us", "us"),
    lo("core.dispatch_ns_64B", "ns"),
    lo("core.dispatch_us_256K", "us"),
    lo("core.execute_ns_64B", "ns"),
    lo("core.tenant_merge_us", "us"),
    lo("comm.reduce_ns_64B.f64_sum", "ns"),
    hi("comm.reduce_GBps.f64_sum", "GB/s"),
    hi("comm.reduce_GBps.f32_sum", "GB/s"),
    hi("comm.reduce_GBps.i32_sum", "GB/s"),
    hi("comm.reduce_GBps.u8_sum", "GB/s"),
    hi("comm.reduce_GBps.f64_sum_unaligned", "GB/s"),
    lo("comm.thread_pingpong_us", "us"),
    hi("comm.thread_stream_MBps", "MB/s"),
    lo("net.frame_encode_ns", "ns"),
    lo("net.frame_decode_ns", "ns"),
    hi("net.frame_decode_GBps_256K", "GB/s"),
    lo("net.loopback_rtt_us", "us"),
    lo("net.pingpong_us_64B", "us"),
    lo("net.wakeup_overhead_us", "us"),
    hi("net.stream_MBps_256K", "MB/s"),
    lo("net.join_ms", "ms"),
    lo("opt.pipeline_us", "us"),
    lo("opt.aggregate_us", "us"),
    lo("opt.remap_us", "us"),
    lo("opt.pass_manager_us", "us"),
    lo("opt.pipeline_gain", "ratio"),
    lo("opt.steps_after", "count"),
    lo("sim.cost_us", "us"),
    hi("sim.ops_per_s", "op/s"),
    lo("sim.model_gap_pct", "%"),
    lo("models.predict_us", "us"),
    lo("select.lookup_ns", "ns"),
    lo("select.observe_ns", "ns"),
    lo("select.publish_us", "us"),
    lo("select.seed_point_ms", "ms"),
    lo("replay.record_ms", "ms"),
    lo("replay.replay_ms", "ms"),
    lo("replay.parse_ms", "ms"),
    hi("json.parse_MBps", "MB/s"),
    lo("obs.timed_overhead_pct", "%"),
];

/// Name of the per-layer metric of slot `slot`.
pub fn slot_metric(slot: &str) -> String {
    format!("slot.{slot}_us")
}

/// `(name, unit, better)` of every per-layer metric, in printing order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    SLOT_NAMES
        .iter()
        .map(|s| (slot_metric(s), "us", Better::Lower))
        .chain(
            LAYERS
                .iter()
                .map(|m| (m.name.to_string(), m.unit, m.better)),
        )
        .collect()
}

/// What `perf list` prints: one line per name, the same information
/// `BENCHMARK.json` holds.
pub fn list_text() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for (m, bound) in END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} {bound}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    for (name, unit, better) in per_layer() {
        out.push_str(&format!("per_layer {name} {unit} {}\n", better.as_str()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.req(key).unwrap().as_str().unwrap()
    }

    /// `BENCHMARK.json` rendered the way `list_text` renders this module.
    fn benchmark_json_as_list() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = exacoll_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut out = String::new();
        for w in doc.req("workloads").unwrap().as_arr().unwrap() {
            out.push_str(&format!("workload {}\n", field(w, "name")));
        }
        for m in doc.req("end_to_end").unwrap().as_arr().unwrap() {
            out.push_str(&format!(
                "end_to_end {} {} {} {}\n",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.req("bound").unwrap().as_f64().unwrap()
            ));
        }
        for m in doc.req("per_layer").unwrap().as_arr().unwrap() {
            out.push_str(&format!(
                "per_layer {} {} {}\n",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            ));
        }
        out
    }

    #[test]
    fn list_output_and_benchmark_json_name_the_same_things() {
        let (ours, theirs) = (list_text(), benchmark_json_as_list());
        let only = |a: &str, b: &str| -> Vec<String> {
            let b: Vec<&str> = b.lines().collect();
            a.lines()
                .filter(|l| !b.contains(l))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(
            (only(&ours, &theirs), only(&theirs, &ours)),
            (Vec::new(), Vec::new()),
            "left: only in `perf list`; right: only in BENCHMARK.json"
        );
        assert_eq!(ours, theirs, "same lines in another order");
    }

    #[test]
    fn workload_reasons_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = exacoll_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(String, String)> = doc
            .req("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn names_and_units_fit_the_allowed_alphabets() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
        }
        for (m, bound) in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (name, unit, _) in layers {
            assert!(name_ok(&name) && unit_ok(unit), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
    }
}
