//! Integration tests for the compiled-plan cache hot path: plans served
//! from the process-wide [`PlanCache`] must be indistinguishable — byte for
//! byte — from freshly lowered, freshly compiled plans across the whole
//! registry grid, and the cache itself must stay coherent under concurrent
//! readers racing an inserting writer (mirroring the selection service's
//! reader/writer stress).

mod support;

use exacoll::collectives::plan_cache::{PlanCache, PlanKey};
use exacoll::collectives::reference::expected_outputs;
use exacoll::collectives::registry::lower;
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::{compile, execute_compiled, Executor};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{run_ranks, Comm};
use proptest::prelude::*;
use std::sync::Arc;
use support::arb_config;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a random grid configuration, the cached compiled plan and an
    /// uncached `compile` of a fresh lowering execute byte-identically on
    /// the threaded runtime — and both match the sequential reference. The
    /// second part of the property runs the *same* cache entries again, so
    /// every case also exercises a genuine hit, and checks the resident
    /// plan is the plan an uncached `compile` produces.
    #[test]
    fn cached_plans_match_fresh_lowerings(
        (op, alg, p) in arb_config(&[4, 6, 8, 9], 4),
        n in 8usize..96,
    ) {
        let len = Request::uniform(CollArgs::new(op, alg), p, n).unwrap().bytes();
        let args = CollArgs::new(op, alg);
        let inputs: Vec<Vec<u8>> = (0..p).map(|r| payload(1, r, len)).collect();
        let expect = expected_outputs(op, args.root, args.dtype, args.rop, &inputs)
            .expect("reference computes");

        let fresh = run_ranks(p, |c| {
            let plan = compile(&lower(&args, p, c.rank(), len));
            execute_compiled(c, &plan, &inputs[c.rank()])
        });
        let cached = run_ranks(p, |c| {
            let plan = PlanCache::global().get_or_insert_with(
                PlanKey::plain(&args, p, c.rank(), len),
                || compile(&lower(&args, p, c.rank(), len)),
            );
            execute_compiled(c, &plan, &inputs[c.rank()])
        });
        // Round two is all hits; a persistent Executor reuses its arenas.
        let hit = run_ranks(p, |c| {
            let key = PlanKey::plain(&args, p, c.rank(), len);
            let plan = PlanCache::global().get(&key).expect("resident after round one");
            assert_eq!(*plan, compile(&lower(&args, p, c.rank(), len)));
            Executor::new().run(c, &plan, &inputs[c.rank()])
        });
        for r in 0..p {
            prop_assert_eq!(&fresh[r], &expect[r], "fresh {}/{} p={} rank {}", op, alg, p, r);
            prop_assert_eq!(&cached[r], &expect[r], "cached {}/{} p={} rank {}", op, alg, p, r);
            prop_assert_eq!(&hit[r], &expect[r], "hit {}/{} p={} rank {}", op, alg, p, r);
        }
    }
}

/// Readers hammer lookups on a hot key set while a writer keeps inserting
/// fresh shapes — every lookup must return either a miss or the one
/// resident plan for its key, and all threads asking for the same key must
/// converge on a single shared `Arc`.
#[test]
fn concurrent_readers_survive_an_inserting_writer() {
    let cache = PlanCache::new();
    let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let p = 4;
    let keys: Vec<PlanKey> = (1..=8)
        .map(|n| PlanKey::plain(&args, p, 0, n * 16))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let (cache, args, keys) = (&cache, &args, &keys);
            scope.spawn(move || {
                for i in 0..20_000usize {
                    let key = keys[(i + t) % keys.len()];
                    let got =
                        cache.get_or_insert_with(key, || compile(&lower(args, p, 0, key.nbytes)));
                    // Whatever raced us in, it must be the plan this key
                    // names.
                    assert_eq!(got.input_bytes(), key.nbytes);
                    // An immediate re-read sees a resident entry and shares
                    // the same allocation.
                    let again = cache.get(&key).expect("resident after insert");
                    assert!(Arc::ptr_eq(&got, &again), "key diverged across readers");
                }
            });
        }
        scope.spawn(|| {
            // The writer floods unrelated shapes to force shard traffic
            // (and, at scale, evictions) under the readers' feet.
            for n in 1..=2_000usize {
                let key = PlanKey::plain(&args, p, 1, n);
                cache.insert(key, compile(&lower(&args, p, 1, n)));
            }
        });
    });

    let m = cache.metrics();
    assert!(m.hits > 0, "hot keys must hit: {m:?}");
    assert!(m.entries >= keys.len(), "hot set must stay resident: {m:?}");
}

/// The global cache's metrics move the right way: a cold shape misses then
/// hits, and the hit serves the identical `Arc`.
#[test]
fn global_cache_counts_hits_and_misses() {
    let args = CollArgs::new(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 3 });
    // A size distinctive enough that no other test in this binary uses it.
    let key = PlanKey::plain(&args, 6, 2, 7 * 1013);
    let before = PlanCache::global().metrics();
    let a = PlanCache::global().get_or_insert_with(key, || compile(&lower(&args, 6, 2, 7 * 1013)));
    let b =
        PlanCache::global().get_or_insert_with(key, || panic!("second lookup must not recompile"));
    assert!(Arc::ptr_eq(&a, &b));
    let after = PlanCache::global().metrics();
    assert!(after.misses > before.misses);
    assert!(after.hits > before.hits);
}
