//! The world evaluator: every rank's plan run to completion in one thread.
//!
//! One walker takes one [`Schedule`] per rank *as given* — stock lowerings,
//! optimizer rewrites, merged tenant plans alike — compiles each, and walks
//! the [`CStep`] streams with per-rank cursors advanced round-robin over
//! in-memory FIFO channels keyed `(from, to, tag)`, the non-overtaking
//! channel structure both live backends guarantee. A rank blocks only at a
//! [`CStep::Flush`] whose receives are not all deliverable yet, which is
//! exactly where the [`Executor`](super::Executor) blocks in `waitall`; the
//! flush placement is [`compile`]'s, so nothing about where a plan waits is
//! restated here.
//!
//! What a step does to a rank's buffer is the business of a [`Memory`], and
//! there are three:
//!
//! * bytes ([`RankMem`], the executor's own): [`evaluate`] returns every
//!   rank's output bytes — replay's expected side, `exacoll verify`'s
//!   cross-check against the sequential reference, and the test oracle. For
//!   replay, [`evaluate_recorded`] also emits each rank's [`RecordedEvent`]
//!   log exactly as a `RecordComm` around a live backend would: sends,
//!   receives and marks in posting order, a compute after each reduction,
//!   and receive lengths/digests back-patched when the covering flush
//!   completes. Costs O(bytes).
//! * provenance ([`super::provenance`]): [`provenance`] returns what every
//!   rank's output *is* as expressions over the ranks' inputs — what the
//!   optimizer's gate and `exacoll verify` compare. Costs O(steps).
//! * hop depth ([`super::verify`]): no bytes, only each message's length
//!   and how many message hops deep each rank's data is — how
//!   [`verify`](super::verify::verify) proves a plan set's matching and
//!   progress and counts its α rounds (data flow it reads off [`compile`]).
//!   Costs O(steps).
//!
//! Single-threaded execution over channels numbered in a `BTreeMap` makes
//! every result a pure function of its arguments.

use super::compiled::{CStep, CompiledSchedule, RankMem, Span};
use super::provenance::{Arena, Seg, SymMem};
use super::{compile, Schedule};
use exacoll_comm::{fnv1a, DType, Rank, RecordedEvent, ReduceOp, Tag};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Range;

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
        /// Each rank still blocked at a flush, with the source and tag of
        /// the first receive it posted that nothing will ever match.
        blocked: Vec<(Rank, Rank, Tag)>,
    },
    /// Every rank finished and a channel still holds messages.
    UnmatchedSend {
        /// Sending rank.
        from: Rank,
        /// Receiving rank.
        to: Rank,
        /// Channel tag.
        tag: Tag,
        /// How many messages nobody received.
        leftover: usize,
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
    /// A step read scratch bytes nothing had defined (the symbolic walk, or
    /// [`compile`]'s data flow as the verifier reports it).
    Undefined {
        /// The reading rank.
        rank: Rank,
        /// The scratch range holding the first undefined byte.
        range: Range<usize>,
    },
    /// A receive or a copy writes over bytes already written ([`compile`]'s
    /// data flow as the verifier reports it).
    Overwrite {
        /// The writing rank.
        rank: Rank,
        /// The scratch range holding the first byte written twice.
        range: Range<usize>,
    },
    /// A rank's output view holds bytes nothing wrote ([`compile`]'s data
    /// flow as the verifier reports it).
    Unwritten {
        /// The rank.
        rank: Rank,
        /// The scratch range holding the first unwritten byte.
        range: Range<usize>,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Shape(s) => write!(f, "shape error: {s}"),
            EvalError::Deadlock { blocked } => {
                let waits: Vec<String> = blocked
                    .iter()
                    .map(|(rank, from, tag)| {
                        format!("rank {rank} waits for a message from {from} tag {tag:#06x}")
                    })
                    .collect();
                write!(f, "deadlock: {}", waits.join("; "))
            }
            EvalError::UnmatchedSend {
                from,
                to,
                tag,
                leftover,
            } => write!(
                f,
                "channel {from}->{to} tag {tag:#06x}: {leftover} send(s) never received"
            ),
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
            EvalError::Undefined { rank, range } => write!(
                f,
                "rank {rank} reads undefined bytes {}..{}",
                range.start, range.end
            ),
            EvalError::Overwrite { rank, range } => write!(
                f,
                "rank {rank} overwrites live bytes {}..{}",
                range.start, range.end
            ),
            EvalError::Unwritten { rank, range } => write!(
                f,
                "rank {rank}: output contains bytes no step ever wrote ({}..{})",
                range.start, range.end
            ),
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

/// What a rank's scratch buffer holds while the walker runs its plan. The
/// walker decides *when* a step happens; a memory decides what it does.
pub(super) trait Memory {
    /// What one message carries.
    type Payload;
    /// State shared by every rank of the walk.
    type Shared;
    /// What a finished rank's output view holds.
    type Output;

    /// Message length in bytes, checked against the posted receive.
    fn payload_len(payload: &Self::Payload) -> usize;
    /// The payload's digest for a recorded event log; only a walk over
    /// bytes is ever recorded.
    fn digest(_payload: &Self::Payload) -> u64 {
        unreachable!("only a walk over bytes is recorded")
    }
    /// What `src` holds, in payload order.
    fn gather(&self, plan: &CompiledSchedule, src: Span) -> Result<Self::Payload, EvalError>;
    /// Write `payload` into `dst`'s ranges in order.
    fn land(
        &mut self,
        plan: &CompiledSchedule,
        dst: Span,
        payload: &Self::Payload,
    ) -> Result<(), EvalError>;
    /// `dst = src`.
    fn copy(&mut self, plan: &CompiledSchedule, src: Span, dst: Span) -> Result<(), EvalError> {
        let payload = self.gather(plan, src)?;
        self.land(plan, dst, &payload)
    }
    /// `dst = dst ⊕ src` elementwise.
    fn reduce(
        &mut self,
        shared: &mut Self::Shared,
        plan: &CompiledSchedule,
        dtype: DType,
        op: ReduceOp,
        src: Span,
        dst: Span,
    ) -> Result<(), EvalError>;
    /// What the plan's output view holds.
    fn output(&self, plan: &CompiledSchedule) -> Result<Self::Output, EvalError>;
}

impl Memory for RankMem {
    type Payload = Vec<u8>;
    type Shared = ();
    type Output = Vec<u8>;

    fn payload_len(payload: &Vec<u8>) -> usize {
        payload.len()
    }

    fn digest(payload: &Vec<u8>) -> u64 {
        fnv1a(payload)
    }

    fn gather(&self, plan: &CompiledSchedule, src: Span) -> Result<Vec<u8>, EvalError> {
        Ok(self.view(plan, src).to_vec())
    }

    fn land(
        &mut self,
        plan: &CompiledSchedule,
        dst: Span,
        payload: &Vec<u8>,
    ) -> Result<(), EvalError> {
        RankMem::land(self, plan, dst, payload);
        Ok(())
    }

    fn copy(&mut self, plan: &CompiledSchedule, src: Span, dst: Span) -> Result<(), EvalError> {
        RankMem::copy(self, plan, src, dst);
        Ok(())
    }

    fn reduce(
        &mut self,
        (): &mut (),
        plan: &CompiledSchedule,
        dtype: DType,
        op: ReduceOp,
        src: Span,
        dst: Span,
    ) -> Result<(), EvalError> {
        RankMem::reduce(self, plan, dtype, op, src, dst)
            .map_err(|e| EvalError::Compute(e.to_string()))
    }

    fn output(&self, plan: &CompiledSchedule) -> Result<Vec<u8>, EvalError> {
        Ok(RankMem::output(self, plan))
    }
}

/// The world's (from, to, tag) channels, each a FIFO of messages in flight,
/// numbered densely as the ranks load so a step finds its queue by index.
struct Channels<P> {
    ids: BTreeMap<(Rank, Rank, Tag), u32>,
    queues: Vec<VecDeque<P>>,
}

impl<P> Channels<P> {
    /// The number of channel `key`, handed out on first sight.
    fn id(&mut self, key: (Rank, Rank, Tag)) -> u32 {
        let next = self.queues.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.queues.push(VecDeque::new());
        }
        id
    }

    /// The channel of each of `plan`'s steps that carries a message; other
    /// steps get 0.
    fn of_steps(&mut self, plan: &CompiledSchedule) -> Vec<u32> {
        let me = plan.rank;
        let chan = |step: &CStep| match step {
            CStep::Send { to, tag, .. } => self.id((me, *to, *tag)),
            CStep::Recv { from, tag, .. } => self.id((*from, me, *tag)),
            _ => 0,
        };
        plan.steps().iter().map(chan).collect()
    }
}

/// A receive posted since the last flush and not yet delivered.
struct PendingRecv {
    from: Rank,
    tag: Tag,
    chan: u32,
    dst: Span,
    /// Index of its `Recv` event awaiting a digest (recorded runs only).
    event: usize,
}

struct RankState<'p, M> {
    plan: Cow<'p, CompiledSchedule>,
    /// Per step, the channel of its message ([`Channels::of_steps`]).
    chans: Vec<u32>,
    mem: M,
    /// Next step to execute; `plan.steps().len()` once finished.
    pc: usize,
    pending: Vec<PendingRecv>,
    events: Vec<RecordedEvent>,
}

impl<M: Memory> RankState<'_, M> {
    fn done(&self) -> bool {
        self.pc == self.plan.steps().len()
    }

    /// Run forward until blocked at an incomplete flush or finished; returns
    /// whether anything happened. The only interpretation of [`CStep`]s for
    /// a whole world, beside [`Executor::run`](super::Executor::run) on a
    /// live backend and `to_trace` for the simulator.
    fn advance(
        &mut self,
        chans: &mut Channels<M::Payload>,
        shared: &mut M::Shared,
        record: bool,
    ) -> Result<bool, EvalError> {
        let me = self.plan.rank;
        let mut progress = false;
        while let Some(step) = self.plan.steps().get(self.pc) {
            match step {
                CStep::Flush => {
                    // Deliver what has arrived, in posting order (per
                    // channel that is FIFO order); stay here until all has.
                    let mut i = 0;
                    while i < self.pending.len() {
                        let queue = &mut chans.queues[self.pending[i].chan as usize];
                        let Some(payload) = queue.pop_front() else {
                            i += 1;
                            continue;
                        };
                        let recv = self.pending.remove(i);
                        let got = M::payload_len(&payload);
                        if got != recv.dst.bytes() {
                            return Err(EvalError::SizeMismatch {
                                rank: me,
                                from: recv.from,
                                tag: recv.tag,
                                want: recv.dst.bytes(),
                                got,
                            });
                        }
                        self.mem.land(&self.plan, recv.dst, &payload)?;
                        if record {
                            self.events[recv.event] = RecordedEvent::Recv {
                                from: recv.from,
                                tag: recv.tag,
                                bytes: got,
                                digest: Some(M::digest(&payload)),
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
                    let payload = self.mem.gather(&self.plan, *src)?;
                    if record {
                        self.events.push(RecordedEvent::Send {
                            to: *to,
                            tag: *tag,
                            bytes: M::payload_len(&payload),
                            digest: M::digest(&payload),
                        });
                    }
                    chans.queues[self.chans[self.pc] as usize].push_back(payload);
                }
                CStep::Recv { from, tag, dst } => {
                    self.pending.push(PendingRecv {
                        from: *from,
                        tag: *tag,
                        chan: self.chans[self.pc],
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
                CStep::Copy { src, dst } => self.mem.copy(&self.plan, *src, *dst)?,
                CStep::Reduce {
                    dtype,
                    op,
                    src,
                    dst,
                } => {
                    self.mem
                        .reduce(shared, &self.plan, *dtype, *op, *src, *dst)?;
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

/// Every rank's output and event log.
type Walked<O> = (Vec<O>, Vec<Vec<RecordedEvent>>);

/// Walk the world to completion over memories `load` fills from each rank's
/// plan — compiled by `load`, or one the caller compiled already; the event
/// logs stay empty unless `record`. A world is complete when every rank has
/// finished its plan and every channel is empty.
pub(super) fn walk<'p, M: Memory>(
    schedules: &[Schedule],
    shared: &mut M::Shared,
    record: bool,
    mut load: impl FnMut(&mut M::Shared, &Schedule) -> Result<(Cow<'p, CompiledSchedule>, M), EvalError>,
) -> Result<Walked<M::Output>, EvalError> {
    let p = schedules.len();
    let mut ranks = Vec::with_capacity(p);
    let mut chans = Channels {
        ids: BTreeMap::new(),
        queues: Vec::new(),
    };
    for (r, s) in schedules.iter().enumerate() {
        if (s.p, s.rank) != (p, r) {
            return Err(EvalError::Shape(format!(
                "schedule at index {r} is for rank {}/{} (expected {r}/{p})",
                s.rank, s.p
            )));
        }
        let (plan, mem) = load(shared, s)?;
        ranks.push(RankState {
            chans: chans.of_steps(&plan),
            plan,
            mem,
            pc: 0,
            pending: Vec::new(),
            events: Vec::new(),
        });
    }
    while !ranks.iter().all(RankState::done) {
        let mut progress = false;
        for st in ranks.iter_mut() {
            progress |= st.advance(&mut chans, shared, record)?;
        }
        if !progress {
            // A rank that is not done stopped at a flush with receives
            // outstanding.
            let blocked = ranks
                .iter()
                .filter(|st| !st.done())
                .map(|st| (st.plan.rank, st.pending[0].from, st.pending[0].tag))
                .collect();
            return Err(EvalError::Deadlock { blocked });
        }
    }
    // In channel key order, so the channel reported does not depend on the
    // order the ranks loaded in.
    let queue = |id: u32| &chans.queues[id as usize];
    if let Some((&(from, to, tag), &id)) = chans.ids.iter().find(|(_, &id)| !queue(id).is_empty()) {
        return Err(EvalError::UnmatchedSend {
            from,
            to,
            tag,
            leftover: queue(id).len(),
        });
    }
    let outputs: Result<_, _> = ranks.iter().map(|st| st.mem.output(&st.plan)).collect();
    Ok((outputs?, ranks.into_iter().map(|st| st.events).collect()))
}

fn run_bytes(
    schedules: &[Schedule],
    inputs: &[Vec<u8>],
    record: bool,
) -> Result<Evaluated, EvalError> {
    if inputs.len() != schedules.len() {
        return Err(EvalError::Shape(format!(
            "{} schedules but {} inputs",
            schedules.len(),
            inputs.len()
        )));
    }
    let (outputs, events) = walk::<RankMem>(schedules, &mut (), record, |(), s| {
        // Checked before `compile` so a plan/input mismatch from outside
        // the program is an error even when the plan itself would not
        // compile (a hostile artifact naming a 4 GiB message).
        let input = &inputs[s.rank];
        if input.len() < s.input.len() {
            return Err(EvalError::Shape(format!(
                "rank {}: input is {} bytes but the plan consumes {}",
                s.rank,
                input.len(),
                s.input.len()
            )));
        }
        let plan = compile(s);
        let mut mem = RankMem::default();
        mem.load(&plan, input);
        Ok((Cow::Owned(plan), mem))
    })?;
    Ok(Evaluated { outputs, events })
}

/// Evaluate one schedule per rank with the given per-rank inputs (extra
/// input bytes are ignored, as the executor ignores them), returning every
/// rank's output bytes.
///
/// # Errors
///
/// [`EvalError::Shape`] on malformed inputs, [`EvalError::Deadlock`] /
/// [`EvalError::SizeMismatch`] / [`EvalError::UnmatchedSend`] /
/// [`EvalError::Compute`] when the plan set itself is broken (a verified set
/// never is).
pub fn evaluate(schedules: &[Schedule], inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, EvalError> {
    run_bytes(schedules, inputs, false).map(|e| e.outputs)
}

/// [`evaluate`], also emitting each rank's event log as a `RecordComm`
/// around a fault-free live run would record it.
pub fn evaluate_recorded(
    schedules: &[Schedule],
    inputs: &[Vec<u8>],
) -> Result<Evaluated, EvalError> {
    run_bytes(schedules, inputs, true)
}

/// What every rank's output *is*: one list of [`Seg`]ments per rank, each a
/// window of an expression over the ranks' inputs, built in `arena`. The
/// result does not depend on the message size beyond the lengths and
/// coordinates it names, costs O(steps), and two worlds walked with one
/// arena compute the same function exactly when [`Arena::equivalent`] says
/// so.
///
/// # Errors
///
/// As [`evaluate`], plus [`EvalError::Undefined`] when a step reads bytes
/// nothing defined (a verified set never does).
pub fn provenance(arena: &mut Arena, schedules: &[Schedule]) -> Result<Vec<Vec<Seg>>, EvalError> {
    provenance_compiled(arena, schedules, &[])
}

/// [`provenance`] walking `plans[r]`, the caller's `compile(&schedules[r])`,
/// for every rank it has one (none: every rank's is compiled here).
///
/// # Errors
///
/// As [`provenance`].
pub fn provenance_compiled(
    arena: &mut Arena,
    schedules: &[Schedule],
    plans: &[CompiledSchedule],
) -> Result<Vec<Vec<Seg>>, EvalError> {
    walk::<SymMem>(schedules, arena, false, |arena, s| {
        let plan = compiled(plans, s);
        let mem = SymMem::load(arena, &plan)?;
        Ok((plan, mem))
    })
    .map(|(outputs, _)| outputs)
}

/// Rank `s.rank`'s plan: the caller's, or compiled now.
pub(super) fn compiled<'p>(
    plans: &'p [CompiledSchedule],
    s: &Schedule,
) -> Cow<'p, CompiledSchedule> {
    plans
        .get(s.rank)
        .map_or_else(|| Cow::Owned(compile(s)), Cow::Borrowed)
}

/// Deterministic rank-distinguishing probe inputs for a schedule set: rank
/// `r`'s byte `i` is `r·131` (distinct for every rank below 256) xor the top
/// byte of `i` times the 64-bit golden ratio, a sequence in which neighbours
/// always differ and no stretch repeats — so a misrouted block, a swapped
/// rank, an off-by-one slice, or two chunks of one message landing in each
/// other's place all show up in a byte comparison. (The index term used to
/// be `i·29`, period 256: swapping two 256-aligned chunks went unseen.)
pub fn probe_inputs(schedules: &[Schedule]) -> Vec<Vec<u8>> {
    schedules
        .iter()
        .map(|s| {
            let rank = s.rank.wrapping_mul(131) as u8;
            (0..s.input.len() as u64)
                .map(|i| rank ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
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

    /// Every rank's output, or why the walk stopped.
    type Walk<O> = Result<Vec<O>, EvalError>;

    /// Run `plans` over both memories: the byte result on `inputs`, and the
    /// symbolic one rendered (`in1[0..3)` per segment) so cases can spell it.
    fn walk_both(plans: &[Schedule], inputs: &[Vec<u8>]) -> (Walk<Vec<u8>>, Walk<Vec<String>>) {
        let mut arena = Arena::new();
        let rendered = provenance(&mut arena, plans).map(|world| {
            let render = |segs: &Vec<Seg>| segs.iter().map(|s| arena.render(s)).collect();
            world.iter().map(render).collect()
        });
        (evaluate(plans, inputs), rendered)
    }

    #[test]
    fn walker_cases_hold_over_both_memories() {
        // Flush, delivery, deadlock and size-mismatch logic is the walker's,
        // written once: whatever it decides, it decides for both memories.
        let swap: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let (mine, theirs) = (b.alloc(3), b.alloc(3));
                b.recv(1 - r, 4, theirs.clone());
                b.send(1 - r, 4, mine.clone());
                b.finish(mine, theirs)
            })
            .collect();
        let (bytes, segs) = walk_both(&swap, &[vec![1, 2, 3], vec![7, 8, 9]]);
        assert_eq!(bytes.unwrap(), vec![vec![7, 8, 9], vec![1, 2, 3]]);
        assert_eq!(segs.unwrap(), vec![vec!["in1[0..3)"], vec!["in0[0..3)"]]);

        // Two ranks that each only receive: nothing can ever progress.
        let stuck: Vec<_> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let slot = b.alloc(1);
                b.recv(1 - r, 3, slot.clone());
                b.finish(SgList::empty(), slot)
            })
            .collect();
        // A two-byte send meeting a one-byte receive.
        let mut b = ScheduleBuilder::new(2, 0);
        let two = b.alloc(2);
        b.send(1, 3, two.clone());
        let s0 = b.finish(two, SgList::empty());
        let mut b = ScheduleBuilder::new(2, 1);
        let one = b.alloc(1);
        b.recv(0, 3, one.clone());
        let mismatched = vec![s0, b.finish(SgList::empty(), one)];
        // A message nobody receives.
        let mut b = ScheduleBuilder::new(2, 0);
        let two = b.alloc(2);
        b.send(1, 3, two.clone());
        let unmatched = vec![
            b.finish(two, SgList::empty()),
            ScheduleBuilder::new(2, 1).finish(SgList::empty(), SgList::empty()),
        ];
        // One rank's plan of a two-rank world on its own.
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let lone = vec![lower(&args, 2, 0, 4)];

        type Case<'a> = (
            &'a str,
            &'a [Schedule],
            Vec<Vec<u8>>,
            fn(&EvalError) -> bool,
        );
        let cases: [Case; 4] = [
            ("deadlock", &stuck, vec![vec![]; 2], |e| {
                *e == EvalError::Deadlock {
                    blocked: vec![(0, 1, 3), (1, 0, 3)],
                }
            }),
            (
                "unmatched send",
                &unmatched,
                vec![vec![7, 8], vec![]],
                |e| {
                    let want = EvalError::UnmatchedSend {
                        from: 0,
                        to: 1,
                        tag: 3,
                        leftover: 1,
                    };
                    *e == want
                },
            ),
            (
                "size mismatch",
                &mismatched,
                vec![vec![7, 8], vec![]],
                |e| {
                    let want = EvalError::SizeMismatch {
                        rank: 1,
                        from: 0,
                        tag: 3,
                        want: 1,
                        got: 2,
                    };
                    *e == want
                },
            ),
            ("malformed world", &lone, vec![vec![0; 4]], |e| {
                matches!(e, EvalError::Shape(_))
            }),
        ];
        for (name, plans, inputs, expected) in cases {
            let (bytes, segs) = walk_both(plans, &inputs);
            let (bytes, segs) = (bytes.unwrap_err(), segs.unwrap_err());
            assert!(expected(&bytes), "{name} over bytes: {bytes}");
            assert!(expected(&segs), "{name} over provenance: {segs}");
        }
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        // Only the byte memory takes inputs that can be the wrong shape.
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let plans: Vec<_> = (0..2).map(|r| lower(&args, 2, r, 4)).collect();
        for inputs in [vec![vec![0; 4]], vec![vec![0; 4], vec![]]] {
            let err = evaluate(&plans, &inputs).unwrap_err();
            assert!(matches!(err, EvalError::Shape(_)), "{err}");
        }
    }

    #[test]
    fn symbolic_reads_of_undefined_bytes_are_errors() {
        // The verifier refuses this plan; the symbolic memory must not
        // invent a name for bytes nothing wrote (the byte memory reads its
        // zero fill).
        let mut b = ScheduleBuilder::new(1, 0);
        let (own, hole) = (b.alloc(4), b.alloc(4));
        let out = SgList::concat([&own, &hole]);
        let plans = [b.finish(own, out)];
        assert!(verify(&plans).is_err());
        let err = provenance(&mut Arena::new(), &plans).unwrap_err();
        assert_eq!(
            err,
            EvalError::Undefined {
                rank: 0,
                range: 0..8
            }
        );
        assert_eq!(
            evaluate(&plans, &[vec![1; 4]]).unwrap()[0],
            [1, 1, 1, 1, 0, 0, 0, 0]
        );
    }

    #[test]
    fn probe_inputs_have_no_period_and_tell_ranks_apart() {
        // Over 1 MiB, no two 256-aligned 4 KiB windows of one rank are equal
        // (the old index term `i·29` made every pair of them equal), and no
        // window of one rank equals the same window of another.
        const LEN: usize = 1 << 20;
        let plans: Vec<Schedule> = (0..2)
            .map(|r| {
                let mut b = ScheduleBuilder::new(2, r);
                let own = b.alloc(LEN);
                b.finish(own.clone(), own)
            })
            .collect();
        let inputs = probe_inputs(&plans);
        fn windows(input: &[u8]) -> impl Iterator<Item = &[u8]> {
            (0..=LEN - 4096)
                .step_by(256)
                .map(|at| &input[at..at + 4096])
        }
        let distinct: std::collections::HashSet<&[u8]> = windows(&inputs[0]).collect();
        assert_eq!(distinct.len(), windows(&inputs[0]).count());
        assert!(windows(&inputs[0])
            .zip(windows(&inputs[1]))
            .all(|(a, b)| a != b));
    }
}
