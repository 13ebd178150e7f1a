//! The world evaluator: every rank's plan run to completion in one thread.
//!
//! [`evaluate`] takes one [`Schedule`] per rank *as given* — stock
//! lowerings, optimizer rewrites, merged tenant plans alike — compiles each,
//! and walks the [`CStep`] streams with per-rank cursors advanced round-robin
//! over in-memory FIFO channels keyed `(from, to, tag)`, the non-overtaking
//! channel structure both live backends guarantee. A rank blocks only at a
//! [`CStep::Flush`] whose receives are not all deliverable yet, which is
//! exactly where the [`Executor`](super::Executor) blocks in `waitall`; the
//! flush placement is [`compile`]'s, and the byte movement is the
//! executor's own ([`RankMem`]), so nothing about a step's meaning is
//! restated here. Single-threaded execution over a `BTreeMap` makes the
//! result a pure function of `(schedules, inputs)`.
//!
//! It serves the optimizer's byte-identity gate, `exacoll verify`, and
//! replay. For replay, [`evaluate_recorded`] also emits each rank's
//! [`RecordedEvent`] log exactly as a `RecordComm` around a live backend
//! would: sends, receives and marks in posting order, a compute after each
//! reduction, and receive lengths/digests back-patched when the covering
//! flush completes.

use super::compiled::{CStep, CompiledSchedule, RankMem, Span};
use super::{compile, Schedule};
use exacoll_comm::{fnv1a, Rank, RecordedEvent, Tag};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Why evaluation failed. Verified plan sets with well-shaped inputs never
/// produce these; the evaluator still checks so the optimizer's gate cannot
/// be fooled by a buggy pass slipping past the static verifier, and so a
/// hostile replay artifact surfaces as an error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Per-rank shapes disagree (schedule count vs `p`, input lengths).
    Shape(String),
    /// No rank can make progress and some rank is unfinished.
    Deadlock {
        /// The ranks still blocked at a flush.
        blocked: Vec<Rank>,
    },
    /// A message's length disagrees with the posted receive.
    SizeMismatch {
        /// Receiving rank.
        rank: Rank,
        /// Sending rank.
        from: Rank,
        /// Message tag.
        tag: Tag,
        /// Posted receive length.
        want: usize,
        /// Delivered payload length.
        got: usize,
    },
    /// A reduction failed (unsupported dtype/op combination).
    Compute(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Shape(s) => write!(f, "shape error: {s}"),
            EvalError::Deadlock { blocked } => {
                write!(f, "deadlock: ranks {blocked:?} blocked mid-plan")
            }
            EvalError::SizeMismatch {
                rank,
                from,
                tag,
                want,
                got,
            } => write!(
                f,
                "size mismatch at rank {rank}: recv(from {from}, tag {tag}) \
                 posted {want} bytes but message has {got}"
            ),
            EvalError::Compute(s) => write!(f, "compute error: {s}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A completed world run: per-rank outputs and, when recorded, event logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluated {
    /// Output bytes per rank.
    pub outputs: Vec<Vec<u8>>,
    /// Event log per rank in posting order; empty logs when not recorded.
    pub events: Vec<Vec<RecordedEvent>>,
}

type Channels = BTreeMap<(Rank, Rank, Tag), VecDeque<Vec<u8>>>;

/// A receive posted since the last flush and not yet delivered.
struct PendingRecv {
    from: Rank,
    tag: Tag,
    dst: Span,
    /// Index of its `Recv` event awaiting a digest (recorded runs only).
    event: usize,
}

struct RankState {
    plan: CompiledSchedule,
    mem: RankMem,
    /// Next step to execute; `plan.steps().len()` once finished.
    pc: usize,
    pending: Vec<PendingRecv>,
    events: Vec<RecordedEvent>,
}

impl RankState {
    fn done(&self) -> bool {
        self.pc == self.plan.steps().len()
    }

    /// Run forward until blocked at an incomplete flush or finished; returns
    /// whether anything happened. The only interpretation of [`CStep`]s
    /// besides [`Executor::run`](super::Executor::run).
    fn advance(&mut self, chans: &mut Channels, record: bool) -> Result<bool, EvalError> {
        let me = self.plan.rank;
        let mut progress = false;
        while let Some(step) = self.plan.steps().get(self.pc) {
            match step {
                CStep::Flush => {
                    // Deliver what has arrived, in posting order (per
                    // channel that is FIFO order); stay here until all has.
                    let mut i = 0;
                    while i < self.pending.len() {
                        let key = (self.pending[i].from, me, self.pending[i].tag);
                        let Some(payload) = chans.get_mut(&key).and_then(|q| q.pop_front()) else {
                            i += 1;
                            continue;
                        };
                        let recv = self.pending.remove(i);
                        if payload.len() != recv.dst.bytes() {
                            return Err(EvalError::SizeMismatch {
                                rank: me,
                                from: recv.from,
                                tag: recv.tag,
                                want: recv.dst.bytes(),
                                got: payload.len(),
                            });
                        }
                        self.mem.land(&self.plan, recv.dst, &payload);
                        if record {
                            self.events[recv.event] = RecordedEvent::Recv {
                                from: recv.from,
                                tag: recv.tag,
                                bytes: payload.len(),
                                digest: Some(fnv1a(&payload)),
                            };
                        }
                        progress = true;
                    }
                    if !self.pending.is_empty() {
                        return Ok(progress);
                    }
                }
                CStep::Mark { label, round } => {
                    if record {
                        self.events.push(RecordedEvent::Mark {
                            label: label.to_string(),
                            round: *round,
                        });
                    }
                }
                CStep::Send { to, tag, src } => {
                    let payload = self.mem.view(&self.plan, *src).to_vec();
                    if record {
                        self.events.push(RecordedEvent::Send {
                            to: *to,
                            tag: *tag,
                            bytes: payload.len(),
                            digest: fnv1a(&payload),
                        });
                    }
                    chans.entry((me, *to, *tag)).or_default().push_back(payload);
                }
                CStep::Recv { from, tag, dst } => {
                    self.pending.push(PendingRecv {
                        from: *from,
                        tag: *tag,
                        dst: *dst,
                        event: self.events.len(),
                    });
                    if record {
                        self.events.push(RecordedEvent::Recv {
                            from: *from,
                            tag: *tag,
                            bytes: dst.bytes(),
                            digest: None,
                        });
                    }
                }
                CStep::Copy { src, dst } => self.mem.copy(&self.plan, *src, *dst),
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    self.mem
                        .reduce(&self.plan, *dtype, *op, *src, *dst)
                        .map_err(|e| EvalError::Compute(e.to_string()))?;
                    if record {
                        self.events
                            .push(RecordedEvent::Compute { bytes: dst.bytes() });
                    }
                }
            }
            self.pc += 1;
            progress = true;
        }
        Ok(progress)
    }
}

fn run(schedules: &[Schedule], inputs: &[Vec<u8>], record: bool) -> Result<Evaluated, EvalError> {
    let p = schedules.len();
    if inputs.len() != p {
        return Err(EvalError::Shape(format!(
            "{p} schedules but {} inputs",
            inputs.len()
        )));
    }
    let mut ranks = Vec::with_capacity(p);
    for (r, (s, input)) in schedules.iter().zip(inputs).enumerate() {
        if (s.p, s.rank) != (p, r) {
            return Err(EvalError::Shape(format!(
                "schedule at index {r} is for rank {}/{} (expected {r}/{p})",
                s.rank, s.p
            )));
        }
        // Checked before `compile` so a plan/input mismatch from outside
        // the program is an error even when the plan itself would not
        // compile (a hostile artifact naming a 4 GiB message).
        if input.len() < s.input.len() {
            return Err(EvalError::Shape(format!(
                "rank {r}: input is {} bytes but the plan consumes {}",
                input.len(),
                s.input.len()
            )));
        }
        let plan = compile(s);
        let mut mem = RankMem::default();
        mem.load(&plan, input);
        ranks.push(RankState {
            plan,
            mem,
            pc: 0,
            pending: Vec::new(),
            events: Vec::new(),
        });
    }
    let mut chans = Channels::new();
    while !ranks.iter().all(RankState::done) {
        let mut progress = false;
        for st in ranks.iter_mut() {
            progress |= st.advance(&mut chans, record)?;
        }
        if !progress {
            let blocked = ranks
                .iter()
                .filter(|st| !st.done())
                .map(|st| st.plan.rank)
                .collect();
            return Err(EvalError::Deadlock { blocked });
        }
    }
    Ok(Evaluated {
        outputs: ranks.iter().map(|st| st.mem.output(&st.plan)).collect(),
        events: ranks.into_iter().map(|st| st.events).collect(),
    })
}

/// Evaluate one schedule per rank with the given per-rank inputs (extra
/// input bytes are ignored, as the executor ignores them), returning every
/// rank's output bytes.
///
/// # Errors
///
/// [`EvalError::Shape`] on malformed inputs, [`EvalError::Deadlock`] /
/// [`EvalError::SizeMismatch`] / [`EvalError::Compute`] when the plan set
/// itself is broken (a verified set never is).
pub fn evaluate(schedules: &[Schedule], inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, EvalError> {
    run(schedules, inputs, false).map(|e| e.outputs)
}

/// [`evaluate`], also emitting each rank's event log as a `RecordComm`
/// around a fault-free live run would record it.
pub fn evaluate_recorded(
    schedules: &[Schedule],
    inputs: &[Vec<u8>],
) -> Result<Evaluated, EvalError> {
    run(schedules, inputs, true)
}

/// Deterministic rank-distinguishing probe inputs for a schedule set: rank
/// `r`'s byte `i` is a mix of both so any misrouted block, swapped rank, or
/// off-by-one slice shows up in the byte comparison.
pub fn probe_inputs(schedules: &[Schedule]) -> Vec<Vec<u8>> {
    schedules
        .iter()
        .map(|s| {
            (0..s.input.len())
                .map(|i| (s.rank.wrapping_mul(131) ^ i.wrapping_mul(29)) as u8)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::verify::verify;
    use super::super::{execute_compiled, ScheduleBuilder, SgList};
    use super::*;
    use crate::registry::{lower, Algorithm, CollArgs, CollectiveOp};
    use exacoll_comm::{run_ranks, Comm, RecordComm, ThreadComm};

    /// What `RecordComm` logs around the executor on live threads.
    fn live_recorded(plans: &[Schedule], inputs: &[Vec<u8>]) -> Evaluated {
        let runs: Vec<(Vec<u8>, Vec<RecordedEvent>)> =
            run_ranks(plans.len(), |c: &mut ThreadComm| {
                let r = c.rank();
                let mut rc = RecordComm::new(&mut *c);
                let out = execute_compiled(&mut rc, &compile(&plans[r]), &inputs[r])?;
                Ok((out, rc.finish()))
            });
        let (outputs, events) = runs.into_iter().unzip();
        Evaluated { outputs, events }
    }

    #[test]
    fn recv_before_send_flush_group_completes() {
        // Both ranks post their receive first and their send second with no
        // mark between: one flush group the engine completes (the send is
        // eager) but a blocking-receive shortcut would call stuck.
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let mine = b.alloc(3);
                let theirs = b.alloc(3);
                b.recv(1 - r, 4, theirs.clone());
                b.send(1 - r, 4, mine.clone());
                b.finish(mine, theirs)
            })
            .collect();
        verify(&plans).expect("the verifier accepts the group");
        let inputs = vec![vec![1, 2, 3], vec![7, 8, 9]];
        let live = live_recorded(&plans, &inputs);
        assert_eq!(live.outputs, vec![vec![7, 8, 9], vec![1, 2, 3]]);
        let got = evaluate_recorded(&plans, &inputs).unwrap();
        assert_eq!(got, live);
        // Program order: the receive is logged where it was posted, ahead
        // of the send, with its digest patched in at the flush.
        assert_eq!(
            got.events[0],
            vec![
                RecordedEvent::Recv {
                    from: 1,
                    tag: 4,
                    bytes: 3,
                    digest: Some(fnv1a(&[7, 8, 9])),
                },
                RecordedEvent::Send {
                    to: 1,
                    tag: 4,
                    bytes: 3,
                    digest: fnv1a(&[1, 2, 3]),
                },
            ]
        );
    }

    #[test]
    fn detects_deadlock_instead_of_hanging() {
        // Two ranks that each only receive: nothing can ever progress.
        let plans: Vec<_> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let slot = b.alloc(1);
                b.recv(1 - r, 3, slot.clone());
                b.finish(SgList::empty(), slot)
            })
            .collect();
        let err = evaluate(&plans, &vec![vec![]; 2]).unwrap_err();
        assert_eq!(
            err,
            EvalError::Deadlock {
                blocked: vec![0, 1]
            }
        );
    }

    #[test]
    fn rejects_size_mismatch() {
        let mut b = ScheduleBuilder::new(2, 0);
        let two = b.alloc(2);
        b.send(1, 3, two.clone());
        let s0 = b.finish(two, SgList::empty());
        let mut b = ScheduleBuilder::new(2, 1);
        let one = b.alloc(1);
        b.recv(0, 3, one.clone());
        let s1 = b.finish(SgList::empty(), one);
        let err = evaluate(&[s0, s1], &[vec![7, 8], vec![]]).unwrap_err();
        assert!(matches!(
            err,
            EvalError::SizeMismatch {
                want: 1,
                got: 2,
                ..
            }
        ));
    }

    #[test]
    fn malformed_shapes_are_errors_not_panics() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let plans: Vec<_> = (0..2).map(|r| lower(&args, 2, r, 4)).collect();
        for (plans, inputs) in [
            (&plans[..], vec![vec![0; 4]]),
            (&plans[..], vec![vec![0; 4], vec![]]),
            (&plans[..1], vec![vec![0; 4]]),
        ] {
            let err = evaluate(plans, &inputs).unwrap_err();
            assert!(matches!(err, EvalError::Shape(_)), "{err}");
        }
    }
}
