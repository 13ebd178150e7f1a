//! Model prediction straight off the schedule IR.
//!
//! The closed-form models (Eqs. 1–14) were derived by hand-counting each
//! algorithm's rounds and bytes. [`predict_from_schedule`] eliminates the
//! hand: it verifies the lowered plans and prices the α/β/γ term counts the
//! static verifier extracts ([`ScheduleStats`]). For the paper's kernels the
//! two must agree *exactly* on smooth process counts — the tests below pin
//! that: same lowering, same counts.

use crate::NetParams;
use exacoll_core::schedule::verify::{verify, ScheduleStats};
use exacoll_core::schedule::Schedule;

/// Price pre-computed term counts: `rounds·α + bytes·β + reduced·γ`.
pub fn predict_from_stats(net: &NetParams, stats: &ScheduleStats) -> f64 {
    stats.alpha_rounds as f64 * net.alpha
        + stats.beta_bytes as f64 * net.beta
        + stats.gamma_bytes as f64 * net.gamma
}

/// Verify the lowered plans of all ranks and price their term counts.
///
/// # Panics
///
/// Panics if the schedules fail static verification — a plan that
/// deadlocks or drops data has no meaningful cost.
pub fn predict_from_schedule(net: &NetParams, schedules: &[Schedule]) -> f64 {
    let stats =
        verify(schedules).unwrap_or_else(|e| panic!("cannot price an invalid schedule: {e}"));
    predict_from_stats(net, &stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};

    fn net() -> NetParams {
        NetParams {
            alpha: 1000.0,
            beta: 1.0,
            gamma: 0.5,
        }
    }

    fn plans(
        op: CollectiveOp,
        alg: Algorithm,
        p: usize,
        n: usize,
    ) -> Vec<exacoll_core::schedule::Schedule> {
        let args = CollArgs::new(op, alg);
        (0..p).map(|r| lower(&args, p, r, n)).collect()
    }

    fn assert_close(ir: f64, closed: f64, what: &str) {
        let denom = closed.abs().max(1.0);
        assert!(
            (ir - closed).abs() / denom < 1e-9,
            "{what}: IR predicts {ir}, closed form says {closed}"
        );
    }

    #[test]
    fn knomial_bcast_matches_closed_form_on_powers() {
        let net = net();
        for (p, k) in [(8usize, 2usize), (16, 4), (27, 3), (16, 2)] {
            let n = 32;
            let ir = predict_from_schedule(
                &net,
                &plans(CollectiveOp::Bcast, Algorithm::KnomialTree { k }, p, n),
            );
            assert_close(ir, crate::knomial::bcast(&net, n, p, k), "knomial bcast");
        }
    }

    #[test]
    fn knomial_reduce_matches_closed_form_on_powers() {
        let net = net();
        for (p, k) in [(8usize, 2usize), (16, 4), (27, 3)] {
            let n = 32;
            let ir = predict_from_schedule(
                &net,
                &plans(CollectiveOp::Reduce, Algorithm::KnomialTree { k }, p, n),
            );
            assert_close(ir, crate::knomial::reduce(&net, n, p, k), "knomial reduce");
        }
    }

    #[test]
    fn recmult_allgather_matches_closed_form_on_powers() {
        // Exactness holds at p = k^m, where the model's continuous
        // `log_k p` equals the discrete round count.
        let net = net();
        for (p, k) in [(8usize, 2usize), (16, 4), (9, 3)] {
            let block = 8; // per-rank block; the model's n is the total
            let total = p * block;
            let ir = predict_from_schedule(
                &net,
                &plans(
                    CollectiveOp::Allgather,
                    Algorithm::RecursiveMultiplying { k },
                    p,
                    block,
                ),
            );
            assert_close(
                ir,
                crate::recursive::allgather(&net, total, p, k),
                "recmult allgather",
            );
        }
    }

    #[test]
    fn recmult_allreduce_matches_closed_form_on_powers() {
        let net = net();
        for (p, k) in [(8usize, 2usize), (16, 4), (27, 3)] {
            let n = 8;
            let ir = predict_from_schedule(
                &net,
                &plans(
                    CollectiveOp::Allreduce,
                    Algorithm::RecursiveMultiplying { k },
                    p,
                    n,
                ),
            );
            assert_close(
                ir,
                crate::recursive::allreduce(&net, n, p, k),
                "recmult allreduce",
            );
        }
    }

    #[test]
    fn ring_and_kring_allgather_match_the_homogeneous_model() {
        let net = net();
        let block = 8;
        for p in [4usize, 8, 12] {
            let total = p * block;
            let ir = predict_from_schedule(
                &net,
                &plans(CollectiveOp::Allgather, Algorithm::Ring, p, block),
            );
            assert_close(ir, crate::ring::allgather(&net, total, p), "ring allgather");
        }
        // Eq. (12): on a homogeneous network k-ring prices identically to
        // ring — same rounds, same bytes — for any group size dividing p.
        for (p, k) in [(8usize, 2usize), (8, 4), (12, 3), (12, 6)] {
            let total = p * block;
            let ir = predict_from_schedule(
                &net,
                &plans(CollectiveOp::Allgather, Algorithm::KRing { k }, p, block),
            );
            assert_close(
                ir,
                crate::kring::allgather_homogeneous(&net, total, p),
                "kring allgather",
            );
        }
    }

    #[test]
    fn generalized_allreduce_prices_log_rounds_on_smooth_counts() {
        // At p = k^m every level splits into k equal blocks with no
        // residual, so the plan is m full-vector exchange rounds, each
        // folding (k-1)·n bytes: m·α + m·(k-1)·n·β + m·(k-1)·n·γ.
        let net = net();
        for (p, k, m) in [(8usize, 2usize, 3usize), (9, 3, 2), (16, 4, 2)] {
            let n = 32;
            let ir = predict_from_schedule(
                &net,
                &plans(
                    CollectiveOp::Allreduce,
                    Algorithm::GeneralizedMultiplying { k },
                    p,
                    n,
                ),
            );
            let traffic = (m * (k - 1) * n) as f64;
            let closed = m as f64 * net.alpha + traffic * net.beta + traffic * net.gamma;
            assert_close(ir, closed, "genmult allreduce");
        }
    }

    #[test]
    fn generalized_allreduce_prices_at_awkward_counts() {
        // Non-power-of-k process counts verify and price; the residual
        // unfold hop means they can never be cheaper than the equal-block
        // plan at the next power of k below.
        let net = net();
        let n = 32;
        for (p, k, below) in [(6usize, 2usize, 4usize), (7, 2, 4), (9, 2, 8)] {
            let ir = predict_from_schedule(
                &net,
                &plans(
                    CollectiveOp::Allreduce,
                    Algorithm::GeneralizedMultiplying { k },
                    p,
                    n,
                ),
            );
            let smooth = predict_from_schedule(
                &net,
                &plans(
                    CollectiveOp::Allreduce,
                    Algorithm::GeneralizedMultiplying { k },
                    below,
                    n,
                ),
            );
            assert!(ir >= smooth, "p={p}: {ir} vs p={below}: {smooth}");
        }
    }

    #[test]
    fn skewed_v_plans_price_above_uniform_at_equal_total() {
        // β is the per-rank max of directional bytes, so concentrating the
        // same total on one rank raises the IR-derived prediction.
        let net = net();
        let price = |counts: &[usize]| {
            let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
            let plans: Vec<_> = (0..counts.len())
                .map(|r| exacoll_core::registry::lower_v(&args, r, counts))
                .collect();
            predict_from_schedule(&net, &plans)
        };
        let uniform = price(&[64, 64, 64, 64]);
        let skewed = price(&[208, 16, 16, 16]);
        assert!(skewed > uniform, "{skewed} vs {uniform}");
        // Zero-count ranks verify and price.
        assert!(price(&[128, 0, 128, 0]) > 0.0);
    }

    #[test]
    fn nonuniform_recmult_still_verifies_and_prices_above_smooth() {
        // p = 7, k = 2: the fold/unfold pre/post phases add hops and bytes
        // beyond the smooth-count closed form — the IR count is the honest
        // one; it must be at least the q = 4 core's cost.
        let net = net();
        let n = 8;
        let ir = predict_from_schedule(
            &net,
            &plans(
                CollectiveOp::Allreduce,
                Algorithm::RecursiveMultiplying { k: 2 },
                7,
                n,
            ),
        );
        let core = crate::recursive::allreduce(&net, n, 4, 2);
        assert!(ir > core, "fold phases must not be free: {ir} vs {core}");
    }
}
