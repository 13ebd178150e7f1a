//! Cycle P: the control plane on the miss path. One operation is one plan
//! request, answered from scratch by a single thread: lowering, rewriting,
//! verifying, compiling, pricing, selecting, merging tenants, replaying.
//! Nothing here sends a message; the runtime workloads only ever read what
//! these calls write.

use crate::gen::{ragged_counts, Rng};
use exacoll_comm::{DType, ReduceOp};
use exacoll_core::registry::{lower, lower_v, Algorithm, CollArgs, CollectiveOp};
use exacoll_core::schedule::verify::{verify, verify_tenants, TenantPlans};
use exacoll_core::schedule::{compile, Schedule};
use exacoll_core::spec::{OptSpec, OPT_AGGREGATE_MAX_FUSE_BYTES};
use exacoll_core::{merge_tenants, PlanCache, PlanKey, Tenant};
use exacoll_models::{predict_from_schedule, NetParams};
use exacoll_opt::{apply_opt_spec, PassKind, PassManager};
use exacoll_replay::{record_thread_run, replay, Artifact};
use exacoll_select::{Policy, SelectionService};
use exacoll_sim::{cost, Machine};

/// World the plans are made for: two Frontier nodes of four. (At p = 16 one
/// verification alone costs milliseconds and a cycle would take 100 ms, too
/// few cycles per run for a 99th percentile.)
const NODES: usize = 2;
const PPN: usize = 4;
const WORLD: usize = NODES * PPN;

/// Chunk size handed to the pipelining pass. Below the 8 KiB requests'
/// message sizes and above the 1 KiB ones', so each cycle takes the pass's
/// rewrite path (re-verify, byte-identity, re-price) and its no-op path.
const CHUNK: usize = 4096;

const SIZES: [usize; 2] = [1 << 10, 8 << 10];

const COMBOS: [(CollectiveOp, Algorithm); 5] = [
    (
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 4 },
    ),
    (CollectiveOp::Allreduce, Algorithm::KRing { k: 4 }),
    (
        CollectiveOp::Allgather,
        Algorithm::RecursiveMultiplying { k: 2 },
    ),
    (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 4 }),
    (CollectiveOp::Reduce, Algorithm::KnomialTree { k: 4 }),
];

/// The kinds of plan request; also the slot names of this workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Runtime miss: lower the world, pipeline it, compile every rank into
    /// a fresh plan cache.
    Miss,
    /// Verified plan: the pass manager's gate around pipeline + aggregate.
    Verified,
    /// Pricing: simulator makespan and the alpha-beta-gamma prediction.
    Pricing,
    /// One bucket of selection priors priced from scratch.
    SeedPoint,
    /// Two tenants at p = 8 merged and verified.
    Tenants,
    /// A ragged allgatherv lowered and verified.
    LowerV,
    /// A recorded run replayed against its re-lowered plan.
    Replay,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Miss,
        Kind::Verified,
        Kind::Pricing,
        Kind::SeedPoint,
        Kind::Tenants,
        Kind::LowerV,
        Kind::Replay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Miss => "miss",
            Kind::Verified => "verified",
            Kind::Pricing => "pricing",
            Kind::SeedPoint => "seed_point",
            Kind::Tenants => "tenants",
            Kind::LowerV => "lower_v",
            Kind::Replay => "replay",
        }
    }
}

/// One plan request and the answer set-up got for it.
pub struct Request {
    pub kind: Kind,
    /// Index into `Planner::worlds` for the per-combination kinds.
    world: usize,
    /// What the first evaluation returned; every later one must repeat it
    /// bit for bit.
    expected: f64,
}

/// One (collective, algorithm, size) of the cycle, lowered once in set-up
/// for the requests that start from a lowered world.
struct World {
    args: CollArgs,
    n: usize,
    plans: Vec<Schedule>,
}

/// Everything cycle P needs, built from the seed.
pub struct Planner {
    machine: Machine,
    net: NetParams,
    worlds: Vec<World>,
    tenants: [Vec<Schedule>; 2],
    ragged: Vec<usize>,
    artifact: Artifact,
    pub requests: Vec<Request>,
}

/// Every rank's plan of one collective.
pub fn lower_world(args: &CollArgs, p: usize, n: usize) -> Vec<Schedule> {
    (0..p).map(|r| lower(args, p, r, n)).collect()
}

/// Two tenants of one p = 8 runtime, each plan moved into its tenant's tag
/// window: a 1 KiB allreduce and a 256 B allgather.
pub fn two_tenants() -> [Vec<Schedule>; 2] {
    let tenant = |id: usize, op, alg, n| -> Vec<Schedule> {
        lower_world(&CollArgs::new(op, alg), 8, n)
            .iter()
            .map(|s| Tenant::new(id).rewrite(s))
            .collect()
    };
    [
        tenant(
            0,
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
            1024,
        ),
        tenant(1, CollectiveOp::Allgather, Algorithm::Ring, 256),
    ]
}

/// Merge the two tenants' plans rank by rank and prove their windows
/// disjoint and each plan inside its window; returns the merged step count.
pub fn merge_and_verify(tenants: &[Vec<Schedule>; 2]) -> Result<usize, String> {
    let [a, b] = tenants;
    let steps = a
        .iter()
        .zip(b)
        .map(|(x, y)| merge_tenants(&[x.clone(), y.clone()]).steps.len())
        .sum();
    let claims = [
        TenantPlans {
            tenant: 0,
            window: Tenant::new(0).window(),
            schedules: a,
        },
        TenantPlans {
            tenant: 1,
            window: Tenant::new(1).window(),
            schedules: b,
        },
    ];
    verify_tenants(&claims).map_err(|e| e.to_string())?;
    Ok(steps)
}

impl Planner {
    /// Generate the request list from `seed` and answer every request once;
    /// those answers are the reference later cycles are checked against.
    pub fn build(seed: u64) -> Result<Planner, String> {
        let mut rng = Rng::new(seed, "plan-cold");
        let mut worlds = Vec::new();
        for (op, alg) in COMBOS {
            let rooted = matches!(op, CollectiveOp::Bcast | CollectiveOp::Reduce);
            let args = CollArgs {
                op,
                alg,
                root: if rooted { rng.below(WORLD) } else { 0 },
                dtype: DType::F64,
                rop: ReduceOp::Sum,
            };
            for n in SIZES {
                worlds.push(World {
                    args,
                    n,
                    plans: lower_world(&args, WORLD, n),
                });
            }
        }
        let tenants = two_tenants();
        let ragged = ragged_counts(&mut rng, WORLD, 16 << 10);
        let artifact = record_thread_run(
            &CollArgs::new(CollectiveOp::Allgather, Algorithm::KRing { k: 2 }),
            8,
            512,
            rng.next_u64(),
        );

        let mut requests = Vec::new();
        for world in 0..worlds.len() {
            for kind in [Kind::Miss, Kind::Verified, Kind::Pricing] {
                requests.push((kind, world));
            }
        }
        for kind in [Kind::SeedPoint, Kind::Tenants, Kind::LowerV, Kind::Replay] {
            requests.push((kind, 0));
        }
        rng.shuffle(&mut requests);

        let mut planner = Planner {
            machine: Machine::frontier(NODES, PPN),
            net: NetParams::frontier_like(),
            worlds,
            tenants,
            ragged,
            artifact,
            requests: Vec::new(),
        };
        for (kind, world) in requests {
            let expected = planner.answer(kind, world)?;
            planner.requests.push(Request {
                kind,
                world,
                expected,
            });
        }
        Ok(planner)
    }

    /// Answer request `i` again. `Ok(true)` when the answer repeats the one
    /// from set-up.
    pub fn run(&self, i: usize) -> Result<bool, String> {
        let r = &self.requests[i];
        Ok(self.answer(r.kind, r.world)?.to_bits() == r.expected.to_bits())
    }

    /// Do the work of one request and return a number that pins its result:
    /// a makespan where there is one, a step count otherwise.
    fn answer(&self, kind: Kind, world: usize) -> Result<f64, String> {
        let w = &self.worlds[world];
        match kind {
            Kind::Miss => {
                let plans = lower_world(&w.args, WORLD, w.n);
                let plans = apply_opt_spec(
                    &plans,
                    &OptSpec::PIPELINE,
                    CHUNK,
                    OPT_AGGREGATE_MAX_FUSE_BYTES,
                )
                .map_err(|e| e.to_string())?;
                let cache = PlanCache::new();
                let steps: usize = plans
                    .iter()
                    .enumerate()
                    .map(|(r, s)| {
                        let key = PlanKey::with_opt(
                            &w.args,
                            &OptSpec::PIPELINE,
                            CHUNK,
                            OPT_AGGREGATE_MAX_FUSE_BYTES,
                            WORLD,
                            r,
                            w.n,
                        );
                        cache.insert(key, compile(s)).steps().len()
                    })
                    .sum();
                Ok(steps as f64)
            }
            Kind::Verified => {
                let report = PassManager::new(self.machine.clone())
                    .with_pass(PassKind::Pipeline { chunk_bytes: CHUNK })
                    .with_pass(PassKind::Aggregate {
                        max_fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
                    })
                    .run(&w.plans)
                    .map_err(|e| e.to_string())?;
                if let Some(o) = report.outcomes.iter().find(|o| o.refused.is_some()) {
                    return Err(format!("{} refused: {:?}", o.pass, o.refused));
                }
                Ok(report.cost_final_ns)
            }
            Kind::Pricing => {
                let sim = cost(&self.machine, &w.plans).map_err(|e| e.to_string())?;
                // The prediction rides along so both pricing routes are paid
                // for; `model_gap_pct` reports how far apart they are.
                std::hint::black_box(predict_from_schedule(&self.net, &w.plans));
                Ok(sim.makespan.as_nanos())
            }
            Kind::SeedPoint => {
                // `seed_point` compiles through the process-wide cache;
                // emptied, every candidate is lowered and compiled again.
                PlanCache::global().clear();
                let priced = SelectionService::new(Policy::default()).seed_point(
                    &self.machine,
                    CollectiveOp::Allreduce,
                    1024,
                    4,
                )?;
                Ok(priced as f64)
            }
            Kind::Tenants => Ok(merge_and_verify(&self.tenants)? as f64),
            Kind::LowerV => {
                let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
                let plans: Vec<Schedule> = (0..WORLD)
                    .map(|r| lower_v(&args, r, &self.ragged))
                    .collect();
                let stats = verify(&plans).map_err(|e| e.to_string())?;
                Ok(stats.beta_bytes as f64)
            }
            Kind::Replay => {
                let report = replay(&self.artifact).map_err(|e| e.to_string())?;
                if !report.is_clean() {
                    return Err(format!("replay diverged: {}", report.render()));
                }
                Ok(1.0)
            }
        }
    }

    /// Geometric mean, in microseconds, of the simulator makespans of the
    /// plans the `Verified` requests produce (after the passes).
    pub fn sim_makespan_geo_us(&self) -> f64 {
        geo_mean(
            self.requests
                .iter()
                .filter(|r| r.kind == Kind::Verified)
                .map(|r| r.expected / 1e3),
        )
    }

    /// Geometric mean over the cycle's worlds of |prediction - simulation|
    /// as a percentage of the simulation.
    pub fn model_gap_pct(&self) -> Result<f64, String> {
        let gaps: Result<Vec<f64>, String> = self
            .worlds
            .iter()
            .map(|w| {
                let sim = cost(&self.machine, &w.plans)
                    .map_err(|e| e.to_string())?
                    .makespan
                    .as_nanos();
                let model = predict_from_schedule(&self.net, &w.plans);
                // A perfect match would zero the product; floor it at one
                // part per million.
                Ok(((model - sim).abs() / sim * 100.0).max(1e-4))
            })
            .collect();
        Ok(geo_mean(gaps?.into_iter()))
    }

    /// Digest of what the seed decided.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for w in &self.worlds {
            bytes.push(w.args.root as u8);
        }
        for c in &self.ragged {
            bytes.extend_from_slice(&(*c as u64).to_le_bytes());
        }
        for log in &self.artifact.ranks {
            bytes.extend_from_slice(&log.input);
        }
        for r in &self.requests {
            bytes.push(r.kind as u8);
            bytes.push(r.world as u8);
        }
        exacoll_comm::fnv1a(&bytes)
    }
}

fn geo_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_repeats_its_first_answer() {
        let planner = Planner::build(4).unwrap();
        assert_eq!(planner.requests.len(), 34);
        for i in 0..planner.requests.len() {
            assert!(planner.run(i).unwrap(), "{:?}", planner.requests[i].kind);
        }
        assert!(planner.sim_makespan_geo_us() > 0.0);
        assert!(planner.model_gap_pct().unwrap() > 0.0);
    }

    #[test]
    fn a_changed_answer_is_reported() {
        let mut planner = Planner::build(4).unwrap();
        planner.requests[0].expected += 1.0;
        assert!(!planner.run(0).unwrap());
    }

    #[test]
    fn seed_decides_the_request_list() {
        let digest = |seed| Planner::build(seed).unwrap().digest();
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn geo_mean_of_powers() {
        assert!((geo_mean([1.0, 100.0].into_iter()) - 10.0).abs() < 1e-9);
    }
}
