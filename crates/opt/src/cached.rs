//! From a [`Request`] to the plans that run, and the cache in front of that.
//!
//! Optimizer passes, tenant merging and the proofs over both are *plan-set*
//! operations: they must see every rank's schedule, so a single rank cannot
//! plan in isolation. [`plan_world`] does that whole-world work once, and
//! [`cached_plan`] / [`cached_world`] route it through the process-wide
//! [`PlanCache`]: a miss for any rank
//! plans the full communicator, compiles every rank's plan, and warms all
//! `p` entries — so a launch worker, an in-process world (thread backend,
//! profiler, recorder), the selection service's pricing pass and repeated
//! invocations of the same request all share one planning instead of each
//! re-deriving it.

use crate::{apply_opt_spec, OptError};
use exacoll_core::plan_cache::{PlanCache, PlanKey};
use exacoll_core::schedule::verify::{verify, verify_tenants, TenantPlans};
use exacoll_core::schedule::{compile, CompiledSchedule, Schedule};
use exacoll_core::spec::OptSpec;
use exacoll_core::{Request, Tenant};
use std::sync::Arc;

/// Every rank's plan for `req`, the one way a request becomes what runs:
/// lower one tenant's world, apply the request's passes (they keep tags, so
/// the one rewritten world is what every tenant's window receives), relocate
/// it into each tenant's tag window, and splice each rank's tenants into
/// one schedule. Any count-vector or multi-tenant world is proven before it
/// is returned — the per-tenant windows by `verify_tenants`, the merged
/// splice by `verify` — so every process of a launch holds the same proof
/// before its first message; a plain uniform call is returned as rewritten.
///
/// # Errors
///
/// [`OptError::BadParam`] when a pass rejects its threshold,
/// [`OptError::Verify`] with the verifier's typed error when a proof fails.
pub fn plan_world(req: &Request) -> Result<Vec<Schedule>, OptError> {
    let mut world = req.lower_world();
    if !req.opt().is_none() {
        world = apply_opt_spec(&world, req.opt(), req.chunk(), req.fuse())?;
    }
    finish_world(req, world)
}

/// The tail of [`plan_world`]: `world` is one tenant's lowered and rewritten
/// plans.
fn finish_world(req: &Request, world: Vec<Schedule>) -> Result<Vec<Schedule>, OptError> {
    if req.tenants() == 1 && req.counts().is_none() {
        return Ok(world);
    }
    merge_proved(req, req.tenant_worlds(&world))
}

/// The gate of [`plan_world`]: prove `worlds` (`[tenant][rank]`) stay inside
/// their windows, merge them, prove the merged plan set.
fn merge_proved(req: &Request, worlds: Vec<Vec<Schedule>>) -> Result<Vec<Schedule>, OptError> {
    let claims: Vec<TenantPlans<'_>> = worlds
        .iter()
        .enumerate()
        .map(|(t, schedules)| TenantPlans {
            tenant: t,
            window: Tenant::new(t).window(),
            schedules,
        })
        .collect();
    verify_tenants(&claims).map_err(OptError::Verify)?;
    let merged = req.merge(worlds);
    verify(&merged).map_err(OptError::Verify)?;
    Ok(merged)
}

/// One rank's compiled plan for `req`, served from the global
/// [`PlanCache`]. On a miss the whole world is planned and compiled,
/// warming every sibling rank's cache entry as a side effect.
///
/// # Errors
///
/// As [`plan_world`].
pub fn cached_plan(req: &Request, rank: usize) -> Result<Arc<CompiledSchedule>, OptError> {
    assert!(rank < req.ranks(), "rank {rank} out of range for {req:?}");
    if let Some(hit) = PlanCache::global().get(&PlanKey::of(req, rank)) {
        return Ok(hit);
    }
    Ok(compile_world(req)?.swap_remove(rank))
}

/// Every rank's compiled plan for `req`, served from the global
/// [`PlanCache`]. All entries hit → no lowering at all; any miss → one
/// whole-world planning refreshes the full set.
///
/// # Errors
///
/// As [`plan_world`].
pub fn cached_world(req: &Request) -> Result<CompiledWorld, OptError> {
    match resident_world(req) {
        Some(world) => Ok(world),
        None => compile_world(req),
    }
}

/// Every rank's compiled plan, in rank order.
pub type CompiledWorld = Vec<Arc<CompiledSchedule>>;

/// Every rank's resident plan for `req`, if all of them are.
fn resident_world(req: &Request) -> Option<CompiledWorld> {
    let cache = PlanCache::global();
    (0..req.ranks())
        .map(|r| cache.get(&PlanKey::of(req, r)))
        .collect()
}

/// Plan, compile and insert every rank's plan. Returns the resident entries
/// (an insert race is won by whichever plan landed first — planning is
/// deterministic, so both are identical).
fn compile_world(req: &Request) -> Result<CompiledWorld, OptError> {
    Ok(insert_world(req, plan_world(req)?.iter().map(compile)))
}

/// Make `plans` (rank order) `req`'s resident world.
fn insert_world(
    req: &Request,
    plans: impl Iterator<Item = impl Into<Arc<CompiledSchedule>>>,
) -> CompiledWorld {
    let cache = PlanCache::global();
    plans
        .enumerate()
        .map(|(r, plan)| cache.insert(PlanKey::of(req, r), plan))
        .collect()
}

/// The pass-free world of `opted` and, when `opted`'s passes change it, the
/// rewritten world — both served from the global [`PlanCache`], lowered once
/// between them. This is how a candidate is priced plain and as its `@opt`
/// variant: the variant is derived from the lowering the plain world already
/// paid for, and where the passes find nothing to do (a 1 KiB message under
/// a 1 MiB chunk threshold) the second world is `None` and costs neither a
/// compile nor a trace — the plain plans are filed under the variant's keys
/// too, so the next call finds both resident and lowers nothing.
///
/// # Errors
///
/// As [`plan_world`].
pub fn cached_variant(opted: &Request) -> Result<(CompiledWorld, Option<CompiledWorld>), OptError> {
    let plain = opted
        .clone()
        .with_opt(OptSpec::NONE, opted.chunk(), opted.fuse())
        .expect("thresholds the request already carries");
    let (plain_world, opted_world) = match (resident_world(&plain), resident_world(opted)) {
        (Some(a), Some(b)) => (a, b),
        (resident, _) => {
            let lowered = plain.lower_world();
            let rewritten = apply_opt_spec(&lowered, opted.opt(), opted.chunk(), opted.fuse())?;
            let unchanged = rewritten == lowered;
            let a = match resident {
                Some(a) => a,
                None => {
                    let world = finish_world(&plain, lowered)?;
                    insert_world(&plain, world.iter().map(compile))
                }
            };
            let b = if unchanged {
                insert_world(opted, a.iter().cloned())
            } else {
                let world = finish_world(opted, rewritten)?;
                insert_world(opted, world.iter().map(compile))
            };
            (a, b)
        }
    };
    // Shared entries are the usual sign of "unchanged"; a variant some other
    // path compiled on its own is compared step for step.
    let changed = plain_world
        .iter()
        .zip(&opted_world)
        .any(|(a, b)| !Arc::ptr_eq(a, b) && a != b);
    Ok((plain_world, changed.then_some(opted_world)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::schedule::verify::VerifyError;
    use exacoll_core::schedule::Step;
    use exacoll_core::spec::OptSpec;

    // Distinctive sizes keep these tests out of each other's (and other
    // suites') global-cache keyspace.

    fn request(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Request {
        Request::uniform(CollArgs::new(op, alg), p, n).unwrap()
    }

    #[test]
    fn repeated_lookups_share_one_compiled_plan() {
        let ring = request(CollectiveOp::Allgather, Algorithm::Ring, 4, 48 << 10);
        let piped = ring.with_opt(OptSpec::PIPELINE, 1 << 20, 1).unwrap();
        let a = cached_plan(&piped, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &cached_plan(&piped, 1).unwrap()));
        // A tenant launch plans once too: its merged plan is resident before
        // the first message, not compiled inside the timed region.
        let recmult = Algorithm::RecursiveMultiplying { k: 2 };
        let two = request(CollectiveOp::Allreduce, recmult, 4, 41 * 8)
            .with_tenants(2)
            .unwrap();
        let a = cached_plan(&two, 3).unwrap();
        assert!(Arc::ptr_eq(&a, &cached_plan(&two, 3).unwrap()));
        assert_eq!(a.input_bytes(), 2 * 41 * 8);
    }

    #[test]
    fn one_rank_miss_warms_every_sibling() {
        let recmult = Algorithm::RecursiveMultiplying { k: 2 };
        let req = request(CollectiveOp::Allreduce, recmult, 8, 37 * 8)
            .with_opt(
                OptSpec {
                    pipeline: false,
                    aggregate: true,
                },
                1,
                4096,
            )
            .unwrap();
        let mine = cached_plan(&req, 3).unwrap();
        // Every other rank is now resident: cached_world must hit all 8
        // without re-lowering, and rank 3 must be the very same plan.
        let world = cached_world(&req).unwrap();
        assert_eq!(world.len(), 8);
        assert!(Arc::ptr_eq(&mine, &world[3]));
    }

    #[test]
    fn cached_variant_matches_a_direct_rewrite() {
        let opt = OptSpec {
            pipeline: true,
            aggregate: true,
        };
        let req = request(CollectiveOp::Allgather, Algorithm::Ring, 4, 51 << 10)
            .with_opt(opt, 16 << 10, 512)
            .unwrap();
        let direct = apply_opt_spec(&req.lower_world(), &opt, 16 << 10, 512).unwrap();
        assert_ne!(direct, req.lower_world());
        assert_eq!(plan_world(&req).unwrap(), direct);
        for (r, want) in direct.iter().enumerate() {
            let got = cached_plan(&req, r).unwrap();
            assert_eq!(got.to_trace(), want.to_trace(), "rank {r} trace diverged");
        }
    }

    #[test]
    fn a_tag_outside_its_window_comes_back_as_the_typed_verifier_error() {
        let recmult = Algorithm::RecursiveMultiplying { k: 2 };
        let req = request(CollectiveOp::Allreduce, recmult, 4, 16)
            .with_tenants(2)
            .unwrap();
        let mut worlds = req.tenant_worlds(&req.lower_world());
        merge_proved(&req, worlds.clone()).expect("the untouched world is proven");
        // Move tenant 1's first send on rank 0 down into tenant 0's window.
        let moved = worlds[1][0]
            .steps
            .iter_mut()
            .find_map(|s| match s {
                Step::Send { tag, .. } | Step::SendRecv { send_tag: tag, .. } => Some(tag),
                _ => None,
            })
            .expect("an allreduce sends");
        *moved -= Tenant::new(1).window().0;
        let err = merge_proved(&req, worlds).unwrap_err();
        assert!(
            matches!(
                err,
                OptError::Verify(VerifyError::TagOutOfWindow { tenant: 1, .. })
            ),
            "got: {err}"
        );
    }
}
