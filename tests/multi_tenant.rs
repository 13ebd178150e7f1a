//! Multi-tenant integration tests: several collectives share one
//! communicator through disjoint tag windows. Each tenant's result must be
//! byte-identical to a solo run of the same collective (zero cross-tenant
//! interference), the merged execution must record and replay cleanly, and
//! the tenancy verifier must refuse overlapping tag-window claims before
//! anything touches a wire.

use exacoll::collectives::registry::lower;
use exacoll::collectives::schedule::eval::evaluate_recorded;
use exacoll::collectives::schedule::verify::{verify, verify_tenants, TenantPlans, VerifyError};
use exacoll::collectives::schedule::{compile, execute_compiled, Schedule};
use exacoll::collectives::spec::CountsSpec;
use exacoll::collectives::{
    merge_tenants, run_tenants, Algorithm, CollArgs, CollectiveOp, Request, Tenant,
};
use exacoll::comm::{canonical, run_ranks, Comm, RecordComm, TimedEvent};
use exacoll::net::run_socket_ranks;
use exacoll::opt::plan_world;
use exacoll::replay::{record_request, replay, Artifact};
use proptest::prelude::*;

/// One tenant's workload: a single-tenant request. The mixes below run
/// *different* collectives side by side, which one `Request` (N tenants of
/// the same call) does not describe, so they are merged by hand here.
fn uniform(op: CollectiveOp, alg: Algorithm, n: usize, p: usize) -> Request {
    Request::uniform(CollArgs::new(op, alg), p, n).unwrap()
}

fn irregular(op: CollectiveOp, alg: Algorithm, counts: Vec<usize>) -> Request {
    Request::irregular(CollArgs::new(op, alg), CountsSpec::new(counts).unwrap()).unwrap()
}

/// Tag-rewritten per-tenant plans for each rank (`[rank][tenant]`), plus the
/// per-tenant inputs `[tenant][rank]` (seeded so no two tenants ever share
/// a byte pattern) in two shapes: `ref_inputs` is the full logical
/// contribution the sequential reference wants, `live_inputs` the (possibly
/// shorter) prefix the plan's input view actually consumes — a bcast plan,
/// for example, takes zero input bytes at non-root ranks.
#[allow(clippy::type_complexity)]
fn tenant_world(
    workloads: &[Request],
    p: usize,
) -> (Vec<Vec<Schedule>>, Vec<Vec<Vec<u8>>>, Vec<Vec<Vec<u8>>>) {
    let worlds: Vec<Vec<Schedule>> = workloads.iter().map(Request::lower_world).collect();
    let plans: Vec<Vec<Schedule>> = (0..p)
        .map(|r| {
            (0..worlds.len())
                .map(|t| Tenant::new(t).rewrite(&worlds[t][r]))
                .collect()
        })
        .collect();
    let ref_inputs: Vec<Vec<Vec<u8>>> = workloads
        .iter()
        .enumerate()
        .map(|(t, w)| w.inputs(100 + t as u64))
        .collect();
    let live_inputs: Vec<Vec<Vec<u8>>> = ref_inputs
        .iter()
        .enumerate()
        .map(|(t, ins)| {
            (0..p)
                .map(|r| ins[r][..plans[r][t].input.len()].to_vec())
                .collect()
        })
        .collect();
    (plans, live_inputs, ref_inputs)
}

/// Run `workloads` as tenants of one shared runtime on both backends and
/// check every tenant's output against its solo reference.
fn check_tenancy(workloads: &[Request], p: usize) {
    for w in workloads {
        assert_eq!(w.ranks(), p, "every tenant must span the shared runtime");
    }
    let (plans, live_inputs, ref_inputs) = tenant_world(workloads, p);

    // Static proof first: per-tenant windows, then the merged plan set.
    let by_tenant: Vec<Vec<Schedule>> = (0..workloads.len())
        .map(|t| (0..p).map(|r| plans[r][t].clone()).collect())
        .collect();
    let claims: Vec<TenantPlans<'_>> = by_tenant
        .iter()
        .enumerate()
        .map(|(t, schedules)| TenantPlans {
            tenant: t,
            window: Tenant::new(t).window(),
            schedules,
        })
        .collect();
    verify_tenants(&claims).expect("tenant windows verify");
    let merged: Vec<Schedule> = (0..p).map(|r| merge_tenants(&plans[r])).collect();
    verify(&merged).expect("merged plan set verifies");

    let expect: Vec<Vec<Vec<u8>>> = workloads
        .iter()
        .zip(&ref_inputs)
        .map(|(w, ins)| w.reference(ins).expect("reference computes"))
        .collect();

    let run = |outs: Vec<Vec<Vec<u8>>>, backend: &str| {
        for (t, w) in workloads.iter().enumerate() {
            for r in 0..p {
                assert_eq!(
                    outs[r][t],
                    expect[t][r],
                    "tenant {t} ({}/{}) rank {r} diverged on {backend}",
                    w.args().op,
                    w.args().alg
                );
            }
        }
    };
    run(
        run_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> = live_inputs
                .iter()
                .map(|ins| ins[c.rank()].clone())
                .collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        }),
        "threads",
    );
    run(
        run_socket_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> = live_inputs
                .iter()
                .map(|ins| ins[c.rank()].clone())
                .collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        }),
        "sockets",
    );
}

/// Two tenants with different collectives share a p=4 world without
/// interfering, on both the threaded and the socket runtime.
#[test]
fn two_tenants_share_one_runtime_without_interference() {
    check_tenancy(
        &[
            uniform(CollectiveOp::Allgather, Algorithm::Ring, 24, 4),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                16,
                4,
            ),
        ],
        4,
    );
}

/// Four tenants mixing uniform collectives with irregular v-variants —
/// including a zero-count rank — on one shared runtime.
#[test]
fn four_mixed_tenants_including_v_variants() {
    check_tenancy(
        &[
            uniform(CollectiveOp::Allreduce, Algorithm::Ring, 32, 4),
            irregular(CollectiveOp::Allgather, Algorithm::Ring, vec![40, 0, 8, 16]),
            uniform(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 12, 4),
            irregular(
                CollectiveOp::ReduceScatter,
                Algorithm::Ring,
                vec![8, 24, 0, 16],
            ),
        ],
        4,
    );
}

/// Tenants with rank-dependent phase structure: at p = 6 the recursive
/// multiplying allreduce folds two ranks into a q = 4 core, so the tenants'
/// step counts disagree across ranks. The sequential-splice merge must
/// stay deadlock-free regardless (the regression behind the merge design;
/// see `exacoll-core/src/tenant.rs`).
#[test]
fn tenants_with_rank_dependent_phases_merge_safely() {
    check_tenancy(
        &[
            uniform(CollectiveOp::Allgather, Algorithm::Ring, 12, 6),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                16,
                6,
            ),
            uniform(
                CollectiveOp::Allreduce,
                Algorithm::GeneralizedMultiplying { k: 3 },
                8,
                6,
            ),
        ],
        6,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tenant mixes on random world sizes: every tenant matches its
    /// solo reference on the threaded runtime.
    #[test]
    fn random_tenant_mixes_never_interfere(
        p_idx in 0usize..3,
        picks in collection::vec(0usize..4, 2..5),
        n in 4usize..40,
    ) {
        let p = [4, 6, 8][p_idx];
        let workloads: Vec<Request> = picks
            .iter()
            .map(|&i| match i {
                0 => uniform(CollectiveOp::Allgather, Algorithm::Ring, n, p),
                1 => uniform(
                    CollectiveOp::Allreduce,
                    Algorithm::RecursiveMultiplying { k: 2 }, n, p),
                2 => uniform(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, n, p),
                _ => irregular(
                    CollectiveOp::Allgather,
                    Algorithm::Ring,
                    (0..p).map(|r| if r % 2 == 0 { n } else { 0 }).collect(),
                ),
            })
            .collect();
        let (plans, live_inputs, ref_inputs) = tenant_world(&workloads, p);
        let merged: Vec<Schedule> = (0..p).map(|r| merge_tenants(&plans[r])).collect();
        verify(&merged).expect("merged plan set verifies");
        let expect: Vec<Vec<Vec<u8>>> = workloads
            .iter()
            .zip(&ref_inputs)
            .map(|(w, ins)| w.reference(ins).expect("reference computes"))
            .collect();
        let outs = run_ranks(p, |c| {
            let per_tenant: Vec<Vec<u8>> =
                live_inputs.iter().map(|ins| ins[c.rank()].clone()).collect();
            run_tenants(c, &plans[c.rank()], &per_tenant)
        });
        for (t, w) in workloads.iter().enumerate() {
            for r in 0..p {
                prop_assert_eq!(
                    &outs[r][t], &expect[t][r],
                    "tenant {} ({}/{}) rank {} diverged", t, w.args().op, w.args().alg, r
                );
            }
        }
    }
}

/// A multi-tenant execution records cleanly and deterministically: two
/// recordings of the same merged plan produce identical event logs, and
/// the world evaluator "replays" the merged plans to the same events and
/// the same bytes the live run produced.
#[test]
fn tenant_runs_record_and_replay_cleanly() {
    let p = 4;
    let recmult = Algorithm::RecursiveMultiplying { k: 2 };
    let workloads = [
        uniform(CollectiveOp::Allgather, Algorithm::Ring, 16, p),
        uniform(CollectiveOp::Allreduce, recmult, 16, p),
    ];
    let (plans, live_inputs, _) = tenant_world(&workloads, p);
    let merged: Vec<Schedule> = (0..p).map(|r| merge_tenants(&plans[r])).collect();
    let cat: Vec<Vec<u8>> = (0..p)
        .map(|r| {
            live_inputs
                .iter()
                .flat_map(|ins| ins[r].iter().copied())
                .collect()
        })
        .collect();

    let record = || -> Vec<(Vec<u8>, Vec<TimedEvent>)> {
        run_ranks(p, |c| {
            let r = c.rank();
            let mut rc = RecordComm::for_replay(&mut *c);
            let out = execute_compiled(&mut rc, &compile(&merged[r]), &cat[r])?;
            Ok((out, canonical(&rc.finish().events)))
        })
    };
    let first = record();
    let second = record();
    for r in 0..p {
        assert!(!first[r].1.is_empty(), "rank {r} recorded no events");
        assert_eq!(
            first[r].1, second[r].1,
            "rank {r} event log must be deterministic across recordings"
        );
    }

    // Replay through the world evaluator: no communicator, same event log
    // (posting order, payload digests) and same bytes.
    let replayed = evaluate_recorded(&merged, &cat).expect("merged plans evaluate");
    for (r, (out, events)) in first.iter().enumerate() {
        assert_eq!(
            &replayed.events[r], events,
            "rank {r} evaluated events diverged from the RecordComm log"
        );
        assert_eq!(
            &replayed.outputs[r], out,
            "rank {r} replay diverged from live run"
        );
    }

    // The same through the front door: two tenants of one call as a
    // `Request`, recorded, written out, loaded back and replayed.
    let two = workloads[1].clone().with_tenants(2).unwrap();
    let artifact = record_request(&two, 9).unwrap();
    assert_eq!(artifact.ranks[0].input.len(), 2 * 16);
    let text = artifact.to_json();
    assert!(text.contains("\"tenants\": 2"), "header names the tenants");
    let parsed = Artifact::from_json(&text).expect("tenant artifact loads");
    assert_eq!(parsed, artifact);
    let report = replay(&parsed).expect("tenant artifact replays");
    assert!(report.is_clean(), "{}", report.render());
    let merged = plan_world(&two).expect("the tenant world is proven");
    assert_eq!(merged[0].input.len(), 2 * 16);
}

/// Overlapping tag-window claims are refused outright, and a plan that
/// strays outside its tenant's window is pinned to the offending tenant,
/// rank, and tag.
#[test]
fn verifier_rejects_overlapping_tenant_windows() {
    let p = 4;
    let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let base: Vec<Schedule> = (0..p).map(|r| lower(&args, p, r, 8)).collect();
    let t1: Vec<Schedule> = base.iter().map(|s| Tenant::new(1).rewrite(s)).collect();

    // Two tenants claiming intersecting windows.
    let err = verify_tenants(&[
        TenantPlans {
            tenant: 0,
            window: Tenant::new(0).window(),
            schedules: &base,
        },
        TenantPlans {
            tenant: 1,
            window: (0x0800, 0x1800), // straddles tenant 0's upper half
            schedules: &t1,
        },
    ])
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::TenantOverlap { a: 0, b: 1, .. }),
        "got: {err}"
    );

    // A tenant whose plan uses tags outside its claimed window.
    let err = verify_tenants(&[TenantPlans {
        tenant: 1,
        window: Tenant::new(1).window(),
        schedules: &base, // still tagged in tenant 0's window
    }])
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::TagOutOfWindow { tenant: 1, .. }),
        "got: {err}"
    );
}
