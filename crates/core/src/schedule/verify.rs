//! Static schedule verification.
//!
//! [`verify`] takes the lowered plans of **all** `p` ranks and proves,
//! without moving a byte:
//!
//! * **Well-formedness** — every plan sits in its own slot, every
//!   scatter/gather list stays inside the rank's scratch buffer, the input
//!   view lands no two input bytes on one scratch byte, and peers are in
//!   range.
//! * **Matching and progress** — the plans, compiled and walked together by
//!   the world walker of [`super::eval`], run to the end: every receive
//!   meets a same-size send on its (source, destination, tag) channel in
//!   FIFO order, no send is left over, and no rank waits forever at a flush
//!   (deadlock-freedom under the buffered-send semantics both backends
//!   provide).
//! * **Data flow** — every byte is written (by the input view, a receive,
//!   or a copy) before it is sent, reduced, or returned, and no byte is
//!   written twice, so receives and copies never overwrite live data and
//!   every output byte is written exactly once. This is read off each rank's
//!   compiled plan: [`compile`]'s walk is the one definedness analysis, and
//!   the first fault it records is the error.
//! * **Tag hygiene** — no channel carries sends from two different algorithm
//!   phases, which is how cross-phase mis-matching bugs start.
//!
//! The walk is the one replay's expected run and the optimizer gate's proof
//! take, over the `CStep` stream the executor runs: where a rank waits is
//! [`compile`]'s flush placement, and which message meets which receive and
//! when a world is stuck are the walker's. Nothing here restates either; the
//! walk's memory holds no bytes, only each rank's hop depth.
//!
//! Verification also yields [`ScheduleStats`], the α/β/γ term counts of the
//! plan, so the analytical models can be checked against the IR they claim
//! to describe (`exacoll-models::predict_from_schedule`).
//!
//! # Cost
//!
//! Every check works on ranges and step counts, never on bytes: written
//! bytes are an interval set in [`compile`], and a message is its length and
//! hop depth. Verifying a plan costs O(steps · log intervals) whatever its
//! message size, and allocates nothing proportional to `buf_len`.

use super::compiled::{CompiledSchedule, Fault, Span};
use super::eval::{compiled, walk, EvalError, Memory};
use super::{ComputeKind, Schedule, SgList, Step};
use exacoll_comm::{DType, Rank, ReduceOp, Tag};
use std::fmt;

/// α/β/γ term counts of a verified schedule set.
///
/// * `alpha_rounds` — the longest dependency chain of message hops: data a
///   rank receives is one hop deeper than the deepest data its sender had
///   received when it posted the send. This is the number of α terms on
///   the critical path.
/// * `beta_bytes` — `max` over ranks of `max(bytes sent, bytes received)`:
///   sends and receives overlap on a full-duplex link, so the busier
///   direction bounds the β cost.
/// * `gamma_bytes` — `max` over ranks of bytes fed through reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Message hops on the critical path (α terms).
    pub alpha_rounds: usize,
    /// Per-rank maximum of directional traffic (β bytes).
    pub beta_bytes: usize,
    /// Per-rank maximum of reduced bytes (γ bytes).
    pub gamma_bytes: usize,
}

/// Why a schedule set failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A plan is internally inconsistent (wrong p/rank, out-of-bounds
    /// ranges, two input bytes on one scratch byte, peer out of range).
    Malformed {
        /// Offending rank.
        rank: Rank,
        /// What is wrong.
        detail: String,
    },
    /// A compiled plan has a data-flow fault (a step reads bytes nothing
    /// wrote or overwrites written ones, an output byte was never written),
    /// or the walk of the compiled plans failed: compute operands differ in
    /// length, a send met a receive of another size, a send was never
    /// received, or some rank waits forever.
    Walk(EvalError),
    /// One (source, destination, tag) channel carries sends from two
    /// different phases.
    TagCollision {
        /// Sender rank.
        from: Rank,
        /// Receiver rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// The distinct phase labels seen on the channel.
        labels: Vec<String>,
    },
    /// Two tenants sharing a runtime claim intersecting tag windows, so
    /// their messages could mis-match on a shared channel.
    TenantOverlap {
        /// First tenant id.
        a: usize,
        /// First tenant's half-open tag window.
        a_window: (Tag, Tag),
        /// Second tenant id.
        b: usize,
        /// Second tenant's half-open tag window.
        b_window: (Tag, Tag),
    },
    /// A tenant's plan uses a tag outside the window it was assigned, so
    /// disjoint windows would not actually isolate it.
    TagOutOfWindow {
        /// Offending tenant id.
        tenant: usize,
        /// Offending rank within that tenant's plan set.
        rank: Rank,
        /// The escaping tag.
        tag: Tag,
        /// The tenant's half-open tag window.
        window: (Tag, Tag),
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Malformed { rank, detail } => {
                write!(f, "rank {rank}: malformed schedule: {detail}")
            }
            VerifyError::Walk(e) => write!(f, "{e}"),
            VerifyError::TagCollision {
                from,
                to,
                tag,
                labels,
            } => write!(
                f,
                "channel {from}->{to} tag {tag:#06x} carries sends from phases {labels:?}: \
                 cross-phase messages could mis-match"
            ),
            VerifyError::TenantOverlap {
                a,
                a_window,
                b,
                b_window,
            } => write!(
                f,
                "tenant {a} window [{:#06x}, {:#06x}) intersects tenant {b} window \
                 [{:#06x}, {:#06x}): concurrent collectives could mis-match",
                a_window.0, a_window.1, b_window.0, b_window.1
            ),
            VerifyError::TagOutOfWindow {
                tenant,
                rank,
                tag,
                window,
            } => write!(
                f,
                "tenant {tenant} rank {rank} uses tag {tag:#06x} outside its window \
                 [{:#06x}, {:#06x})",
                window.0, window.1
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// One rank as the verifier walks it: how many message hops deep its data
/// is. What its bytes hold is [`compile`]'s business.
struct HopDepth(usize);

/// A message as the verifier sees it: its length, and the hop depth of the
/// data its sender held when it posted it.
struct Hop {
    len: usize,
    depth: usize,
}

/// Refuse a compute whose operands differ in length: no lowering writes one,
/// and the executor would quietly copy a prefix.
fn same_len(plan: &CompiledSchedule, src: Span, dst: Span) -> Result<(), EvalError> {
    if src.bytes() == dst.bytes() {
        return Ok(());
    }
    Err(EvalError::Compute(format!(
        "rank {}: compute operands differ: src {} bytes, dst {}",
        plan.rank,
        src.bytes(),
        dst.bytes()
    )))
}

impl Memory for HopDepth {
    type Payload = Hop;
    type Shared = ();
    /// The rank's hop depth.
    type Output = usize;

    fn payload_len(hop: &Hop) -> usize {
        hop.len
    }

    fn gather(&self, _: &CompiledSchedule, src: Span) -> Result<Hop, EvalError> {
        Ok(Hop {
            len: src.bytes(),
            depth: self.0,
        })
    }

    fn land(&mut self, _: &CompiledSchedule, _: Span, hop: &Hop) -> Result<(), EvalError> {
        self.0 = self.0.max(hop.depth + 1);
        Ok(())
    }

    fn copy(&mut self, plan: &CompiledSchedule, src: Span, dst: Span) -> Result<(), EvalError> {
        same_len(plan, src, dst)
    }

    fn reduce(
        &mut self,
        (): &mut (),
        plan: &CompiledSchedule,
        _: DType,
        _: ReduceOp,
        src: Span,
        dst: Span,
    ) -> Result<(), EvalError> {
        same_len(plan, src, dst)
    }

    fn output(&self, _: &CompiledSchedule) -> Result<usize, EvalError> {
        Ok(self.0)
    }
}

/// Every send's (source, destination, tag) channel and phase label.
type Phases = Vec<((Rank, Rank, Tag), &'static str)>;

/// Check that `s` holds slot `rank` of `p`, keeps every list inside its
/// buffer and every peer in range, and lands its input on distinct bytes;
/// add each of its sends to `phases`. Returns the rank's β bytes (its
/// busier direction) and γ bytes.
fn well_formed(
    rank: Rank,
    p: usize,
    s: &Schedule,
    phases: &mut Phases,
) -> Result<(usize, usize), VerifyError> {
    let malformed = |detail: String| VerifyError::Malformed { rank, detail };
    if (s.p, s.rank) != (p, rank) {
        return Err(malformed(format!(
            "plan says rank {}/{} but occupies slot {rank} of {p}",
            s.rank, s.p
        )));
    }
    let in_bounds = |what: &str, sg: &SgList| match sg.ranges().iter().find(|r| r.end > s.buf_len) {
        Some(r) => Err(malformed(format!(
            "{what} range {r:?} exceeds scratch buffer of {} bytes",
            s.buf_len
        ))),
        None => Ok(()),
    };
    let in_range = |peer: Rank| {
        if peer < p {
            return Ok(());
        }
        Err(malformed(format!("peer {peer} out of range for size {p}")))
    };
    in_bounds("input", &s.input)?;
    in_bounds("output", &s.output)?;
    let mut input = s.input.ranges().to_vec();
    input.sort_unstable_by_key(|r| r.start);
    if input.windows(2).any(|pair| pair[0].end > pair[1].start) {
        return Err(malformed(
            "input view maps two input bytes to the same scratch byte".into(),
        ));
    }

    let (mut sent, mut received, mut reduced) = (0, 0, 0);
    let mut send = |to: Rank, tag: Tag, src: &SgList, phase| {
        in_range(to)?;
        in_bounds("send src", src)?;
        sent += src.len();
        phases.push(((rank, to, tag), phase));
        Ok(())
    };
    let mut recv = |from: Rank, dst: &SgList| {
        in_range(from)?;
        in_bounds("recv dst", dst)?;
        received += dst.len();
        Ok(())
    };
    let mut phase = "";
    for step in &s.steps {
        match step {
            Step::RoundMark { label, .. } => phase = label,
            Step::Compute { kind, src, dst } => {
                in_bounds("compute src", src)?;
                in_bounds("compute dst", dst)?;
                if let ComputeKind::Reduce { .. } = kind {
                    reduced += dst.len();
                }
            }
            Step::Send { to, tag, src } => send(*to, *tag, src, phase)?,
            Step::Recv { from, dst, .. } => recv(*from, dst)?,
            Step::SendRecv {
                to,
                send_tag,
                src,
                from,
                dst,
                ..
            } => {
                send(*to, *send_tag, src, phase)?;
                recv(*from, dst)?;
            }
        }
    }
    Ok((sent.max(received), reduced))
}

/// Statically verify the plans of all `p` ranks together; on success return
/// the plan's α/β/γ term counts.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found; see the enum for the properties
/// checked.
pub fn verify(schedules: &[Schedule]) -> Result<ScheduleStats, VerifyError> {
    verify_compiled(schedules, &[])
}

/// [`verify`] walking `plans[r]`, the caller's `compile(&schedules[r])`,
/// for every rank it has one (none: every rank's is compiled here).
///
/// # Errors
///
/// As [`verify`].
pub fn verify_compiled(
    schedules: &[Schedule],
    plans: &[CompiledSchedule],
) -> Result<ScheduleStats, VerifyError> {
    let p = schedules.len();
    assert!(p > 0, "verify needs at least one rank's schedule");
    let mut phases = Phases::new();
    let (mut beta_bytes, mut gamma_bytes) = (0, 0);
    for (rank, s) in schedules.iter().enumerate() {
        let (beta, gamma) = well_formed(rank, p, s, &mut phases)?;
        beta_bytes = beta_bytes.max(beta);
        gamma_bytes = gamma_bytes.max(gamma);
    }
    let (depths, _) = walk::<HopDepth>(schedules, &mut (), false, |(), s| {
        let plan = compiled(plans, s);
        let rank = plan.rank;
        match plan.fault().cloned() {
            None => Ok((plan, HopDepth(0))),
            Some(Fault::Undefined(range)) => Err(EvalError::Undefined { rank, range }),
            Some(Fault::Overwrite(range)) => Err(EvalError::Overwrite { rank, range }),
            Some(Fault::Unwritten(range)) => Err(EvalError::Unwritten { rank, range }),
        }
    })
    .map_err(VerifyError::Walk)?;
    // Sorted, so the channel reported is the first in key order and its
    // labels come out sorted.
    phases.sort_unstable();
    phases.dedup();
    if let Some(pair) = phases.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        let (from, to, tag) = pair[0].0;
        let on_channel = phases.iter().filter(|(key, _)| *key == (from, to, tag));
        return Err(VerifyError::TagCollision {
            from,
            to,
            tag,
            labels: on_channel.map(|(_, label)| label.to_string()).collect(),
        });
    }
    Ok(ScheduleStats {
        alpha_rounds: depths.into_iter().max().unwrap_or(0),
        beta_bytes,
        gamma_bytes,
    })
}

/// One tenant's claim for multi-tenant verification: its id, the half-open
/// tag window `[window.0, window.1)` it was assigned, and the per-rank plans
/// it will run inside that window.
pub struct TenantPlans<'a> {
    /// The tenant's id (for error reporting; ids need not be contiguous).
    pub tenant: usize,
    /// Half-open tag window the tenant may use.
    pub window: (Tag, Tag),
    /// The tenant's per-rank schedules, one per rank of the shared runtime.
    pub schedules: &'a [Schedule],
}

/// Every tag a schedule puts on the wire (send and receive sides).
fn wire_tags(s: &Schedule) -> impl Iterator<Item = Tag> + '_ {
    s.steps.iter().flat_map(|step| match step {
        Step::Send { tag, .. } | Step::Recv { tag, .. } => vec![*tag],
        Step::SendRecv {
            send_tag, recv_tag, ..
        } => vec![*send_tag, *recv_tag],
        Step::Compute { .. } | Step::RoundMark { .. } => Vec::new(),
    })
}

/// Verify tenants sharing one runtime: prove the tag windows pairwise
/// disjoint, prove every plan stays inside its tenant's window, then run the
/// full [`verify`] pass on each tenant's plan set in isolation.
///
/// Disjoint windows plus in-window plans are exactly what makes per-tenant
/// verification sound on a shared communicator: no channel `(from, to, tag)`
/// of one tenant can ever name a message of another, so the walk of each
/// tenant composes with any interleaving of the others.
///
/// Returns one [`ScheduleStats`] per tenant, in input order.
///
/// # Errors
///
/// [`VerifyError::TenantOverlap`] / [`VerifyError::TagOutOfWindow`] for the
/// tenancy properties, or any single-tenant [`VerifyError`] from the nested
/// [`verify`] pass.
pub fn verify_tenants(tenants: &[TenantPlans<'_>]) -> Result<Vec<ScheduleStats>, VerifyError> {
    for t in tenants {
        assert!(
            t.window.0 < t.window.1,
            "tenant {} has an empty tag window",
            t.tenant
        );
    }
    for (i, a) in tenants.iter().enumerate() {
        for b in &tenants[i + 1..] {
            if a.window.0 < b.window.1 && b.window.0 < a.window.1 {
                return Err(VerifyError::TenantOverlap {
                    a: a.tenant,
                    a_window: a.window,
                    b: b.tenant,
                    b_window: b.window,
                });
            }
        }
    }
    for t in tenants {
        for (rank, s) in t.schedules.iter().enumerate() {
            if let Some(tag) = wire_tags(s).find(|&tag| tag < t.window.0 || tag >= t.window.1) {
                return Err(VerifyError::TagOutOfWindow {
                    tenant: t.tenant,
                    rank,
                    tag,
                    window: t.window,
                });
            }
        }
    }
    tenants.iter().map(|t| verify(t.schedules)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleBuilder;

    #[test]
    fn verification_cost_is_independent_of_scratch_size() {
        // An exbibyte of scratch address space, four bytes of it in use at
        // each end: ranges are all the verifier looks at.
        const TOP: usize = 1 << 60;
        let plans: Vec<Schedule> = (0..2)
            .map(|rank| Schedule {
                p: 2,
                rank,
                buf_len: TOP,
                input: SgList::from(0..4),
                output: SgList::from(TOP - 4..TOP),
                steps: vec![Step::SendRecv {
                    to: rank ^ 1,
                    send_tag: 7,
                    src: SgList::from(0..4),
                    from: rank ^ 1,
                    recv_tag: 7,
                    dst: SgList::from(TOP - 4..TOP),
                }],
            })
            .collect();
        assert_eq!(
            verify(&plans).unwrap(),
            ScheduleStats {
                alpha_rounds: 1,
                beta_bytes: 4,
                gamma_bytes: 0
            }
        );
        // Still bounds-checked at that size.
        let mut bad = plans;
        bad[0].output = SgList::from(TOP - 4..TOP + 1);
        assert!(matches!(verify(&bad), Err(VerifyError::Malformed { .. })));
    }

    /// The two-rank swap: one round, one hop.
    fn swap(rank: usize, n: usize) -> Schedule {
        let mut b = ScheduleBuilder::new(2, rank);
        let mine = b.alloc(n);
        let theirs = b.alloc(n);
        b.mark("swap", 0);
        b.sendrecv(rank ^ 1, 7, mine.clone(), rank ^ 1, 7, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn swap_verifies_with_one_alpha_round() {
        let stats = verify(&[swap(0, 4), swap(1, 4)]).unwrap();
        assert_eq!(
            stats,
            ScheduleStats {
                alpha_rounds: 1,
                beta_bytes: 4,
                gamma_bytes: 0
            }
        );
    }

    #[test]
    fn ring_pipeline_depth_is_p_minus_one() {
        // 4-rank ring allgather built from the real lowering.
        let p = 4;
        let sizes = vec![8usize; p];
        let schedules: Vec<Schedule> = (0..p)
            .map(|r| {
                let mut b = ScheduleBuilder::new(p, r);
                let own = b.alloc(8);
                let blocks = crate::allgather::build_allgather_kernel(
                    &mut b,
                    crate::allgather::AllgatherKernel::Ring,
                    own.clone(),
                    &sizes,
                );
                let out = SgList::concat(&blocks);
                b.finish(own, out)
            })
            .collect();
        let stats = verify(&schedules).unwrap();
        assert_eq!(stats.alpha_rounds, p - 1);
        assert_eq!(stats.beta_bytes, (p - 1) * 8);
    }

    #[test]
    fn detects_cyclic_deadlock() {
        // Both ranks wait for each other before sending: recv is flushed
        // (by the round mark) before the send ever posts.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.recv(r ^ 1, 9, other.clone());
                b.mark("stall", 0);
                b.send(r ^ 1, 9, own.clone());
                b.finish(own, other)
            })
            .collect();
        let err = verify(&plans).unwrap_err();
        assert_eq!(
            err,
            VerifyError::Walk(EvalError::Deadlock {
                blocked: vec![(0, 1, 9), (1, 0, 9)]
            })
        );
        assert_eq!(
            err.to_string(),
            "deadlock: rank 0 waits for a message from 1 tag 0x0009; \
             rank 1 waits for a message from 0 tag 0x0009"
        );
    }

    #[test]
    fn buffered_sends_make_the_same_shape_safe() {
        // Send first, recv second, one flush: fine with buffering.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.send(r ^ 1, 9, own.clone());
                b.recv(r ^ 1, 9, other.clone());
                b.finish(own, other)
            })
            .collect();
        assert!(verify(&plans).is_ok());
    }

    #[test]
    fn detects_unmatched_send() {
        let mut b = ScheduleBuilder::new(2, 0);
        let own = b.alloc(2);
        b.send(1, 3, own.clone());
        let s0 = b.finish(own, SgList::empty());
        let b1 = ScheduleBuilder::new(2, 1);
        let s1 = b1.finish(SgList::empty(), SgList::empty());
        assert_eq!(
            verify(&[s0, s1]),
            Err(VerifyError::Walk(EvalError::UnmatchedSend {
                from: 0,
                to: 1,
                tag: 3,
                leftover: 1
            }))
        );
    }

    #[test]
    fn detects_size_mismatch() {
        let mut b0 = ScheduleBuilder::new(2, 0);
        let own = b0.alloc(4);
        b0.send(1, 3, own.clone());
        let s0 = b0.finish(own, SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let slot = b1.alloc(2);
        b1.recv(0, 3, slot.clone());
        let s1 = b1.finish(SgList::empty(), slot);
        assert_eq!(
            verify(&[s0, s1]),
            Err(VerifyError::Walk(EvalError::SizeMismatch {
                rank: 1,
                from: 0,
                tag: 3,
                want: 2,
                got: 4
            }))
        );
    }

    #[test]
    fn detects_undefined_send_and_unwritten_output() {
        // Sending scratch bytes nothing defined.
        let mut b = ScheduleBuilder::new(1, 0);
        let hole = b.alloc(2);
        b.send(0, 1, hole.clone());
        let s = b.finish(SgList::empty(), SgList::empty());
        assert_eq!(
            verify(&[s]),
            Err(VerifyError::Walk(EvalError::Undefined {
                rank: 0,
                range: 0..2
            }))
        );

        // Output referencing bytes nothing wrote.
        let mut b = ScheduleBuilder::new(1, 0);
        let hole = b.alloc(2);
        let s = b.finish(SgList::empty(), hole);
        assert_eq!(
            verify(&[s]),
            Err(VerifyError::Walk(EvalError::Unwritten {
                rank: 0,
                range: 0..2
            }))
        );
    }

    #[test]
    fn detects_receive_overwrite() {
        let mut b0 = ScheduleBuilder::new(2, 0);
        let own = b0.alloc(2);
        b0.send(1, 3, own.clone());
        b0.send(1, 3, own.clone());
        let s0 = b0.finish(own, SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let slot = b1.alloc(2);
        b1.recv(0, 3, slot.clone());
        b1.mark("again", 0);
        b1.recv(0, 3, slot.clone());
        let s1 = b1.finish(SgList::empty(), slot);
        assert_eq!(
            verify(&[s0, s1]),
            Err(VerifyError::Walk(EvalError::Overwrite {
                rank: 1,
                range: 0..2
            }))
        );
    }

    #[test]
    fn detects_compute_operands_of_different_lengths() {
        let mut b = ScheduleBuilder::new(1, 0);
        let (x, y) = (b.alloc(4), b.alloc(2));
        let mut s = b.finish(x.clone(), y.clone());
        s.steps.push(Step::Compute {
            kind: ComputeKind::Copy,
            src: x,
            dst: y,
        });
        let err = verify(&[s]).unwrap_err();
        assert!(
            matches!(&err, VerifyError::Walk(EvalError::Compute(why)) if why.contains("differ")),
            "{err}"
        );
    }

    #[test]
    fn detects_tag_collision_across_phases() {
        // Phase "a" and phase "b" both send on tag 5 over the same channel.
        let mut b0 = ScheduleBuilder::new(2, 0);
        let x = b0.alloc(1);
        let y = b0.alloc(1);
        b0.mark("a", 0);
        b0.send(1, 5, x.clone());
        b0.mark("b", 0);
        b0.send(1, 5, y.clone());
        let s0 = b0.finish(SgList::concat([&x, &y]), SgList::empty());
        let mut b1 = ScheduleBuilder::new(2, 1);
        let u = b1.alloc(1);
        let v = b1.alloc(1);
        b1.recv(0, 5, u.clone());
        b1.mark("gap", 0);
        b1.recv(0, 5, v.clone());
        let s1 = b1.finish(SgList::empty(), SgList::concat([&u, &v]));
        assert_eq!(
            verify(&[s0, s1]),
            Err(VerifyError::TagCollision {
                from: 0,
                to: 1,
                tag: 5,
                labels: vec!["a".into(), "b".into()]
            })
        );
    }

    /// The two-rank swap on an arbitrary tag.
    fn swap_on_tag(rank: usize, tag: Tag) -> Schedule {
        let mut b = ScheduleBuilder::new(2, rank);
        let mine = b.alloc(4);
        let theirs = b.alloc(4);
        b.mark("swap", 0);
        b.sendrecv(rank ^ 1, tag, mine.clone(), rank ^ 1, tag, theirs.clone());
        b.finish(mine, theirs)
    }

    #[test]
    fn disjoint_tenants_verify_per_tenant() {
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x1010), swap_on_tag(1, 0x1010)];
        let stats = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x1000, 0x2000),
                schedules: &t1,
            },
        ])
        .unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats
            .iter()
            .all(|s| s.alpha_rounds == 1 && s.beta_bytes == 4));
    }

    #[test]
    fn detects_tenant_window_overlap() {
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x0810), swap_on_tag(1, 0x0810)];
        let err = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x0800, 0x1800),
                schedules: &t1,
            },
        ])
        .unwrap_err();
        assert!(matches!(err, VerifyError::TenantOverlap { a: 0, b: 1, .. }));
    }

    #[test]
    fn detects_tag_escaping_its_window() {
        // Tenant 1's plan uses a tag inside tenant 0's window.
        let t0 = [swap_on_tag(0, 0x0010), swap_on_tag(1, 0x0010)];
        let t1 = [swap_on_tag(0, 0x0020), swap_on_tag(1, 0x0020)];
        let err = verify_tenants(&[
            TenantPlans {
                tenant: 0,
                window: (0x0000, 0x1000),
                schedules: &t0,
            },
            TenantPlans {
                tenant: 1,
                window: (0x1000, 0x2000),
                schedules: &t1,
            },
        ])
        .unwrap_err();
        assert_eq!(
            err,
            VerifyError::TagOutOfWindow {
                tenant: 1,
                rank: 0,
                tag: 0x0020,
                window: (0x1000, 0x2000),
            }
        );
    }

    #[test]
    fn tenant_verification_still_runs_the_full_pass() {
        // A deadlocking plan inside a perfectly disjoint window still fails.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(2);
                let other = b.alloc(2);
                b.recv(r ^ 1, 0x1009, other.clone());
                b.mark("stall", 0);
                b.send(r ^ 1, 0x1009, own.clone());
                b.finish(own, other)
            })
            .collect();
        let err = verify_tenants(&[TenantPlans {
            tenant: 1,
            window: (0x1000, 0x2000),
            schedules: &plans,
        }])
        .unwrap_err();
        assert!(matches!(err, VerifyError::Walk(EvalError::Deadlock { .. })));
    }

    #[test]
    fn reduce_counts_gamma() {
        let mut b = ScheduleBuilder::new(1, 0);
        let acc = b.alloc(4);
        let src = b.alloc(4);
        b.reduce(
            exacoll_comm::DType::U8,
            exacoll_comm::ReduceOp::Sum,
            src.clone(),
            acc.clone(),
        );
        let s = b.finish(SgList::concat([&acc, &src]), acc);
        let stats = verify(&[s]).unwrap();
        assert_eq!(stats.gamma_bytes, 4);
        assert_eq!(stats.alpha_rounds, 0);
    }
}
