//! Trace replay: the discrete-event engine that turns recorded collective
//! schedules into virtual time on a modeled machine.
//!
//! Every rank advances through its [`RankTrace`] one operation per event, so
//! resource claims (NIC ports, intranode queues) happen in global virtual
//! time order. Transfers use the eager protocol: a message departs when its
//! send is posted, and the matching receive completes at
//! `max(arrival, receive post time)`.
//!
//! The per-transfer timing model (all claims serialize on their resource):
//!
//! ```text
//! internode:  tx_start = claim(sender node NIC tx, ready = post + o_send)
//!             first byte arrives at tx_start + α(path)
//!             rx_start = claim(receiver node NIC rx, ready = tx_start + α)
//!             arrival  = rx_start + msg_overhead + n·β
//! intranode:  same shape with the fabric's α/β and per-rank queues
//! ```
//!
//! Unmatched sends/receives at quiescence are reported as a deadlock with
//! per-rank diagnostics, which doubles as a structural checker for the
//! collective algorithms.

use crate::machine::Machine;
use crate::noise::NoiseModel;
use crate::port::PortPool;
use crate::stats::{RankBreakdown, SimStats};
use crate::time::SimTime;
use exacoll_comm::{RankTrace, TraceOp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One operation a deadlocked rank is still waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// A posted receive that never matched a send.
    RecvFrom {
        /// Expected source rank.
        peer: usize,
        /// Expected tag.
        tag: u32,
        /// Posted size.
        bytes: u64,
    },
}

impl std::fmt::Display for PendingOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PendingOp::RecvFrom { peer, tag, bytes } => {
                write!(f, "recv from {peer} tag {tag} ({bytes} B)")
            }
        }
    }
}

/// One rank that never reached the end of its trace, with what it blocks on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRank {
    /// The stuck rank.
    pub rank: usize,
    /// The op index it is parked at.
    pub op: usize,
    /// The unmatched operations its wait still needs.
    pub pending: Vec<PendingOp>,
}

/// Replay failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Trace set does not describe one program per machine rank.
    RankMismatch {
        /// Ranks the machine has.
        machine_ranks: usize,
        /// Traces provided.
        traces: usize,
    },
    /// Replay reached quiescence with ranks still blocked. Each entry names
    /// the blocked rank's pending (peer, tag, bytes) so structural bugs
    /// diagnose themselves.
    Deadlock {
        /// Ranks that did not finish.
        blocked: Vec<BlockedRank>,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::RankMismatch {
                machine_ranks,
                traces,
            } => write!(
                f,
                "machine has {machine_ranks} ranks but {traces} traces were provided"
            ),
            ReplayError::Deadlock { blocked } => {
                write!(f, "deadlock: {} rank(s) blocked:", blocked.len())?;
                for b in blocked.iter().take(8) {
                    write!(f, " rank {}@op{}", b.rank, b.op)?;
                    if !b.pending.is_empty() {
                        write!(f, " [")?;
                        for (i, p) in b.pending.iter().take(4).enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{p}")?;
                        }
                        if b.pending.len() > 4 {
                            write!(f, ", +{} more", b.pending.len() - 4)?;
                        }
                        write!(f, "]")?;
                    }
                }
                if blocked.len() > 8 {
                    write!(f, " (+{} more)", blocked.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Result of a successful replay.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-rank completion time.
    pub finish: Vec<SimTime>,
    /// Latest rank completion — the collective's latency.
    pub makespan: SimTime,
    /// Traffic/resource statistics.
    pub stats: SimStats,
    /// Per-rank time decomposition (posting / computing / blocked).
    pub breakdown: Vec<RankBreakdown>,
}

/// Virtual-time span of one trace op, as recorded by [`simulate_timed`].
///
/// `begin..end` is the op's *active* window on the rank (posting a
/// send/receive, blocking in a wait, computing); `done` is when the op's
/// effect completed: eager sends at the post, rendezvous sends at delivery,
/// receives when the matching message arrived (possibly long after `end`).
/// For waits, computes and marks `done == end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// When the rank started executing the op.
    pub begin: SimTime,
    /// When the rank moved past the op.
    pub end: SimTime,
    /// When the op's effect completed (see type docs).
    pub done: SimTime,
}

/// Per-op begin/end stamps, allocated only for timed replays.
struct OpClocks {
    begin: Vec<Vec<Option<SimTime>>>,
    end: Vec<Vec<Option<SimTime>>>,
}

/// A message posted but not yet matched by a receive.
struct PendingSend {
    arrival: SimTime,
}

/// A receive posted but not yet matched by a send.
struct PendingRecv {
    rank: usize,
    op: usize,
    posted: SimTime,
}

type MatchKey = (usize, usize, u32); // (src, dst, tag)

struct Engine<'a> {
    machine: &'a Machine,
    traces: &'a [RankTrace],
    pool: PortPool,
    stats: SimStats,
    noise: Option<&'a mut NoiseModel>,
    /// Per rank: next op index.
    pc: Vec<usize>,
    /// Per rank: local virtual clock.
    now: Vec<SimTime>,
    /// Per rank: accumulated posting and compute time.
    posting: Vec<SimTime>,
    computing: Vec<SimTime>,
    /// Per rank, per op: completion time once known.
    completion: Vec<Vec<Option<SimTime>>>,
    /// Per rank: set of op indices a parked WaitAll still needs.
    waiting_on: Vec<Vec<u32>>,
    /// Per rank: arrival times of in-flight sends (for buffer-depth stalls).
    in_flight: Vec<BinaryHeap<Reverse<SimTime>>>,
    sends: HashMap<MatchKey, VecDeque<PendingSend>>,
    recvs: HashMap<MatchKey, VecDeque<PendingRecv>>,
    events: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    clocks: Option<OpClocks>,
}

impl<'a> Engine<'a> {
    fn new(
        machine: &'a Machine,
        traces: &'a [RankTrace],
        noise: Option<&'a mut NoiseModel>,
    ) -> Self {
        let p = traces.len();
        Engine {
            machine,
            traces,
            pool: PortPool::new(machine),
            stats: SimStats::default(),
            noise,
            pc: vec![0; p],
            now: vec![SimTime::ZERO; p],
            posting: vec![SimTime::ZERO; p],
            computing: vec![SimTime::ZERO; p],
            completion: traces.iter().map(|t| vec![None; t.ops.len()]).collect(),
            waiting_on: vec![Vec::new(); p],
            in_flight: (0..p).map(|_| BinaryHeap::new()).collect(),
            sends: HashMap::new(),
            recvs: HashMap::new(),
            events: BinaryHeap::new(),
            seq: 0,
            clocks: None,
        }
    }

    /// Enable per-op begin/end recording (timed replay).
    fn with_clocks(mut self) -> Self {
        self.clocks = Some(OpClocks {
            begin: self
                .traces
                .iter()
                .map(|t| vec![None; t.ops.len()])
                .collect(),
            end: self
                .traces
                .iter()
                .map(|t| vec![None; t.ops.len()])
                .collect(),
        });
        self
    }

    /// Stamp when `(rank, op)` first started executing. Idempotent: parked
    /// waits and buffer-stalled sends re-step, but the first stamp wins.
    fn stamp_begin(&mut self, rank: usize, op: usize, t: SimTime) {
        if let Some(c) = &mut self.clocks {
            let slot = &mut c.begin[rank][op];
            if slot.is_none() {
                *slot = Some(t);
            }
        }
    }

    /// Stamp when the rank moved past `(rank, op)`.
    fn stamp_end(&mut self, rank: usize, op: usize, t: SimTime) {
        if let Some(c) = &mut self.clocks {
            c.end[rank][op] = Some(t);
        }
    }

    fn push_event(&mut self, t: SimTime, rank: usize) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, rank)));
    }

    /// Record that `(rank, op)` completed at `t`; wake the rank if a parked
    /// WaitAll was waiting on it.
    fn complete(&mut self, rank: usize, op: usize, t: SimTime) {
        self.completion[rank][op] = Some(t);
        if !self.waiting_on[rank].is_empty() {
            self.waiting_on[rank].retain(|&o| o as usize != op);
            if self.waiting_on[rank].is_empty() {
                self.push_event(t.max(self.now[rank]), rank);
            }
        }
    }

    /// Compute the delivery time of a transfer and claim its resources.
    fn transfer(&mut self, src: usize, dst: usize, bytes: u64, ready: SimTime) -> SimTime {
        let m = self.machine;
        let (alpha_f, beta_f) = match self.noise.as_deref_mut() {
            Some(n) => (n.alpha_factor(), n.beta_factor()),
            None => (1.0, 1.0),
        };
        if m.same_node(src, dst) && src != dst {
            let dur = SimTime::ns(
                m.intra.msg_overhead_ns + bytes as f64 * m.intra.beta_ns_per_byte * beta_f,
            );
            let start = self.pool.claim_intra_tx(src, ready, dur);
            let first_byte = start + SimTime::ns(m.intra.alpha_ns * alpha_f);
            let rx_start = self.pool.claim_intra_rx(dst, first_byte, dur);
            self.stats.intra_messages += 1;
            self.stats.intra_bytes += bytes;
            rx_start + dur
        } else if src == dst {
            // Self-message: memcpy at intranode bandwidth, no fabric claim.
            self.stats.intra_messages += 1;
            self.stats.intra_bytes += bytes;
            ready + SimTime::ns(bytes as f64 * m.intra.beta_ns_per_byte)
        } else {
            let dur = SimTime::ns(
                m.inter.msg_overhead_ns + bytes as f64 * m.inter.beta_ns_per_byte * beta_f,
            );
            let start = self.pool.claim_tx(m, src, ready, dur);
            let src_group = m.group_of(m.node_of(src));
            let dst_group = m.group_of(m.node_of(dst));
            // Inter-group transfers additionally serialize on the source
            // group's global uplinks (no-op unless the machine enables it).
            let start = if src_group != dst_group {
                self.pool.claim_global(src_group, start, dur)
            } else {
                start
            };
            let alpha = m.path_alpha_ns(m.node_of(src), m.node_of(dst)) * alpha_f;
            let first_byte = start + SimTime::ns(alpha);
            let rx_start = self.pool.claim_rx(m, dst, first_byte, dur);
            self.stats.inter_messages += 1;
            self.stats.inter_bytes += bytes;
            rx_start + dur
        }
    }

    /// Execute one op for `rank` at event time `t`.
    fn step(&mut self, rank: usize, t: SimTime) {
        let ops = &self.traces[rank].ops;
        let pc = self.pc[rank];
        if pc >= ops.len() {
            return;
        }
        // Local clock never runs backwards; slightly-early wake events are
        // corrected by the max() in WaitAll handling.
        self.now[rank] = self.now[rank].max(t);
        match &ops[pc] {
            TraceOp::Send { to, tag, bytes } => {
                // Message-buffering limit: stall the post until a buffer
                // slot frees (the earliest in-flight delivery).
                if self.in_flight[rank].len() >= self.machine.send_buffer_depth {
                    let Reverse(earliest) = self.in_flight[rank]
                        .pop()
                        .expect("depth > 0 implies nonempty");
                    self.push_event(self.now[rank].max(earliest), rank);
                    return;
                }
                self.stamp_begin(rank, pc, self.now[rank]);
                let o_send = SimTime::ns(self.machine.cpu.o_send_ns);
                self.now[rank] += o_send;
                self.posting[rank] += o_send;
                let post = self.now[rank];
                self.stamp_end(rank, pc, post);
                let arrival = self.transfer(rank, *to, *bytes, post);
                self.in_flight[rank].push(Reverse(arrival));
                // Eager sends complete at posting; rendezvous sends only
                // once delivered (the round-coupling "implicit barrier").
                let done = if *bytes as usize >= self.machine.rendezvous_threshold {
                    arrival
                } else {
                    post
                };
                self.complete(rank, pc, done);
                let key: MatchKey = (rank, *to, *tag);
                if let Some(pr) = self.recvs.get_mut(&key).and_then(VecDeque::pop_front) {
                    let done = arrival.max(pr.posted);
                    self.complete(pr.rank, pr.op, done);
                } else {
                    self.sends
                        .entry(key)
                        .or_default()
                        .push_back(PendingSend { arrival });
                }
                self.pc[rank] += 1;
                self.push_event(self.now[rank], rank);
            }
            TraceOp::Recv { from, tag, .. } => {
                self.stamp_begin(rank, pc, self.now[rank]);
                let o_recv = SimTime::ns(self.machine.cpu.o_recv_ns);
                self.now[rank] += o_recv;
                self.posting[rank] += o_recv;
                let posted = self.now[rank];
                self.stamp_end(rank, pc, posted);
                let key: MatchKey = (*from, rank, *tag);
                if let Some(ps) = self.sends.get_mut(&key).and_then(VecDeque::pop_front) {
                    self.complete(rank, pc, ps.arrival.max(posted));
                } else {
                    self.recvs.entry(key).or_default().push_back(PendingRecv {
                        rank,
                        op: pc,
                        posted,
                    });
                }
                self.pc[rank] += 1;
                self.push_event(self.now[rank], rank);
            }
            TraceOp::Compute { bytes } => {
                self.stamp_begin(rank, pc, self.now[rank]);
                let cost = SimTime::ns(
                    self.machine.cpu.compute_fixed_ns
                        + *bytes as f64 * self.machine.cpu.gamma_ns_per_byte,
                );
                self.now[rank] += cost;
                self.computing[rank] += cost;
                self.stats.compute_bytes += bytes;
                self.stamp_end(rank, pc, self.now[rank]);
                self.pc[rank] += 1;
                self.push_event(self.now[rank], rank);
            }
            TraceOp::WaitAll { reqs } => {
                self.stamp_begin(rank, pc, self.now[rank]);
                let missing: Vec<u32> = reqs
                    .iter()
                    .filter(|&&r| self.completion[rank][r as usize].is_none())
                    .copied()
                    .collect();
                if missing.is_empty() {
                    let latest = reqs
                        .iter()
                        .map(|&r| self.completion[rank][r as usize].expect("checked"))
                        .max()
                        .unwrap_or(self.now[rank]);
                    self.now[rank] = self.now[rank].max(latest);
                    self.stamp_end(rank, pc, self.now[rank]);
                    self.pc[rank] += 1;
                    self.push_event(self.now[rank], rank);
                } else {
                    self.waiting_on[rank] = missing;
                    // Parked: the completing send will wake us.
                }
            }
            TraceOp::Mark { .. } => {
                // Zero-cost annotation: an instant on the rank's clock.
                self.stamp_begin(rank, pc, self.now[rank]);
                self.stamp_end(rank, pc, self.now[rank]);
                self.complete(rank, pc, self.now[rank]);
                self.pc[rank] += 1;
                self.push_event(self.now[rank], rank);
            }
        }
    }

    /// The unmatched operations rank `r` (parked at op `pc`) still needs —
    /// the per-rank payload of a deadlock report.
    fn pending_ops(&self, r: usize, pc: usize) -> Vec<PendingOp> {
        let ops = &self.traces[r].ops;
        let TraceOp::WaitAll { reqs } = &ops[pc] else {
            // Ranks only park on waits; anything else means the event queue
            // drained mid-op, which has no pending peers to report.
            return Vec::new();
        };
        reqs.iter()
            .filter(|&&req| self.completion[r][req as usize].is_none())
            .filter_map(|&req| match &ops[req as usize] {
                TraceOp::Recv { from, tag, bytes } => Some(PendingOp::RecvFrom {
                    peer: *from,
                    tag: *tag,
                    bytes: *bytes,
                }),
                _ => None,
            })
            .collect()
    }

    fn run_core(&mut self) -> Result<SimOutcome, ReplayError> {
        for r in 0..self.traces.len() {
            self.push_event(SimTime::ZERO, r);
        }
        while let Some(Reverse((t, _, rank))) = self.events.pop() {
            self.stats.events += 1;
            self.step(rank, t);
        }
        let blocked: Vec<BlockedRank> = self
            .pc
            .iter()
            .enumerate()
            .filter(|(r, &pc)| pc < self.traces[*r].ops.len())
            .map(|(r, &pc)| BlockedRank {
                rank: r,
                op: pc,
                pending: self.pending_ops(r, pc),
            })
            .collect();
        if !blocked.is_empty() {
            return Err(ReplayError::Deadlock { blocked });
        }
        self.stats.nic_tx_busy = self.pool.total_tx_busy();
        self.stats.nic_tx_busy_max = self.pool.max_tx_busy();
        let finish = self.now.clone();
        let makespan = finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        let breakdown = (0..finish.len())
            .map(|r| RankBreakdown {
                posting: self.posting[r],
                computing: self.computing[r],
                blocked: (finish[r] - self.posting[r] - self.computing[r]).max(SimTime::ZERO),
            })
            .collect();
        Ok(SimOutcome {
            finish,
            makespan,
            stats: self.stats.clone(),
            breakdown,
        })
    }

    fn run(mut self) -> Result<SimOutcome, ReplayError> {
        self.run_core()
    }

    /// Run with per-op clocks, returning each op's [`OpTiming`] alongside
    /// the outcome. On a successful (deadlock-free) replay every op has
    /// begin/end stamps; `done` falls back to `end` for ops without a
    /// separate completion (waits, computes, marks).
    fn run_timed(mut self) -> Result<(SimOutcome, Vec<Vec<OpTiming>>), ReplayError> {
        self = self.with_clocks();
        let outcome = self.run_core()?;
        let clocks = self.clocks.expect("enabled above");
        let timings = self
            .completion
            .iter()
            .zip(clocks.begin.iter().zip(clocks.end.iter()))
            .map(|(comp, (begins, ends))| {
                comp.iter()
                    .zip(begins.iter().zip(ends.iter()))
                    .map(|(done, (b, e))| {
                        let begin = b.expect("successful replay stamps every op");
                        let end = e.expect("successful replay stamps every op");
                        OpTiming {
                            begin,
                            end,
                            done: done.unwrap_or(end).max(end),
                        }
                    })
                    .collect()
            })
            .collect();
        Ok((outcome, timings))
    }
}

/// Replay `traces` on `machine`, returning the virtual-time outcome.
///
/// # Errors
///
/// * [`ReplayError::RankMismatch`] if `traces.len() != machine.ranks()`.
/// * [`ReplayError::Deadlock`] if the schedules cannot complete (a bug in
///   the collective being simulated).
pub fn simulate(machine: &Machine, traces: &[RankTrace]) -> Result<SimOutcome, ReplayError> {
    if traces.len() != machine.ranks() {
        return Err(ReplayError::RankMismatch {
            machine_ranks: machine.ranks(),
            traces: traces.len(),
        });
    }
    Engine::new(machine, traces, None).run()
}

/// Like [`simulate`] but additionally returns, for every rank, the
/// [`OpTiming`] of each trace op in program order — the virtual-clock raw
/// material for event timelines (`exacoll-obs`).
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_timed(
    machine: &Machine,
    traces: &[RankTrace],
) -> Result<(SimOutcome, Vec<Vec<OpTiming>>), ReplayError> {
    if traces.len() != machine.ranks() {
        return Err(ReplayError::RankMismatch {
            machine_ranks: machine.ranks(),
            traces: traces.len(),
        });
    }
    Engine::new(machine, traces, None).run_timed()
}

/// Like [`simulate`] but with a seeded run-to-run variance model.
pub fn simulate_noisy(
    machine: &Machine,
    traces: &[RankTrace],
    noise: &mut NoiseModel,
) -> Result<SimOutcome, ReplayError> {
    if traces.len() != machine.ranks() {
        return Err(ReplayError::RankMismatch {
            machine_ranks: machine.ranks(),
            traces: traces.len(),
        });
    }
    Engine::new(machine, traces, Some(noise)).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_comm::Rank;

    /// Every rank's program as `f(rank)` lists it.
    fn world(p: usize, f: impl Fn(Rank) -> Vec<TraceOp>) -> Vec<RankTrace> {
        (0..p)
            .map(|rank| RankTrace {
                rank,
                size: p,
                ops: f(rank),
            })
            .collect()
    }

    fn send(to: Rank, bytes: u64) -> TraceOp {
        TraceOp::Send { to, tag: 0, bytes }
    }

    fn recv(from: Rank, bytes: u64) -> TraceOp {
        TraceOp::Recv {
            from,
            tag: 0,
            bytes,
        }
    }

    fn wait(reqs: impl IntoIterator<Item = u32>) -> TraceOp {
        TraceOp::WaitAll {
            reqs: reqs.into_iter().collect(),
        }
    }

    /// Rank `from` sends `bytes` to rank `to` in a world of `p`, both blocking.
    fn message(p: usize, from: Rank, to: Rank, bytes: u64) -> Vec<RankTrace> {
        world(p, |r| {
            if r == from {
                vec![send(to, bytes), wait([0])]
            } else if r == to {
                vec![recv(from, bytes), wait([0])]
            } else {
                vec![]
            }
        })
    }

    /// Two ranks on different nodes; rank 0 sends n bytes to rank 1.
    fn one_message(bytes: u64) -> Vec<RankTrace> {
        message(2, 0, 1, bytes)
    }

    /// Every rank swaps `bytes` with rank `r ^ 1`, then reduces `compute`
    /// bytes of what arrived.
    fn pairwise_swap(p: usize, bytes: u64, compute: Option<u64>) -> Vec<RankTrace> {
        world(p, |r| {
            let mut ops = vec![send(r ^ 1, bytes), recv(r ^ 1, bytes), wait([0, 1])];
            ops.extend(compute.map(|bytes| TraceOp::Compute { bytes }));
            ops
        })
    }

    #[test]
    fn single_message_alpha_beta() {
        // testbed: alpha = 1000 ns, beta = 1 ns/B, no overheads.
        let m = Machine::testbed(2, 1, 1);
        let out = simulate(&m, &one_message(500)).unwrap();
        // Receiver finishes at alpha + n*beta.
        assert_eq!(out.finish[1], SimTime::ns(1_000.0 + 500.0));
        // Sender finishes at the post (eager), time 0 with zero overheads.
        assert_eq!(out.finish[0], SimTime::ZERO);
        assert_eq!(out.makespan, SimTime::ns(1_500.0));
        assert_eq!(out.stats.inter_messages, 1);
        assert_eq!(out.stats.inter_bytes, 500);
        assert_eq!(out.stats.intra_messages, 0);
    }

    #[test]
    fn intranode_message_uses_fabric() {
        // Same node: alpha = 100 ns, beta = 0.1 ns/B.
        let m = Machine::testbed(1, 2, 1);
        let out = simulate(&m, &one_message(1000)).unwrap();
        assert_eq!(out.finish[1], SimTime::ns(100.0 + 100.0));
        assert_eq!(out.stats.intra_messages, 1);
        assert_eq!(out.stats.inter_messages, 0);
    }

    #[test]
    fn time_is_monotone_in_bytes() {
        let m = Machine::frontier(2, 1);
        let mut last = SimTime::ZERO;
        for bytes in [8u64, 64, 1024, 65536, 1 << 20] {
            let t = simulate(&m, &one_message(bytes)).unwrap().makespan;
            assert!(t > last, "{bytes} B not slower than previous");
            last = t;
        }
    }

    #[test]
    fn concurrent_sends_stripe_over_pooled_ports() {
        // Rank 0 sends 4 big messages to 4 distinct peers on distinct nodes;
        // with 4 pooled ports they ship in parallel, with 1 port serially.
        let traces = world(5, |r| match r {
            0 => (1..5)
                .map(|to| send(to, 1_000_000))
                .chain([wait(0..4)])
                .collect(),
            _ => vec![recv(0, 1_000_000), wait([0])],
        });
        let wide = Machine::testbed(5, 1, 4);
        let narrow = Machine::testbed(5, 1, 1);
        let t_wide = simulate(&wide, &traces).unwrap().makespan;
        let t_narrow = simulate(&narrow, &traces).unwrap().makespan;
        // 1 MB at 1 ns/B = 1 ms per message; 4 ports ≈ 1 ms total,
        // 1 port ≈ 4 ms.
        assert!(
            t_narrow.as_nanos() > 3.5 * t_wide.as_nanos(),
            "narrow {t_narrow} vs wide {t_wide}"
        );
    }

    #[test]
    fn receive_side_serializes_on_rx_port() {
        // 4 senders to one receiver with a single rx port: arrivals serialize.
        let traces = world(5, |r| match r {
            4 => (0..4)
                .map(|from| recv(from, 1_000_000))
                .chain([wait(0..4)])
                .collect(),
            _ => vec![send(4, 1_000_000), wait([0])],
        });
        let m = Machine::testbed(5, 1, 1);
        let out = simulate(&m, &traces).unwrap();
        // 4 MB through one 1 ns/B rx port ≥ 4 ms.
        assert!(out.finish[4].as_nanos() >= 4.0e6);
    }

    #[test]
    fn deadlock_detected() {
        // Rank 1 waits for a message nobody sends.
        let traces = world(2, |r| match r {
            1 => vec![
                TraceOp::Recv {
                    from: 0,
                    tag: 9,
                    bytes: 8,
                },
                wait([0]),
            ],
            _ => vec![],
        });
        let m = Machine::testbed(2, 1, 1);
        let err = simulate(&m, &traces).unwrap_err();
        match &err {
            ReplayError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].rank, 1);
                assert_eq!(
                    blocked[0].pending,
                    vec![PendingOp::RecvFrom {
                        peer: 0,
                        tag: 9,
                        bytes: 8,
                    }]
                );
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // The Display form carries the same diagnostics.
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "got: {msg}");
        assert!(msg.contains("recv from 0 tag 9 (8 B)"), "got: {msg}");
    }

    #[test]
    fn rank_mismatch_detected() {
        let m = Machine::testbed(4, 1, 1);
        let err = simulate(&m, &one_message(8)).unwrap_err();
        assert!(matches!(err, ReplayError::RankMismatch { .. }));
    }

    #[test]
    fn recv_posted_late_still_completes_at_max() {
        // Receiver computes for a long time before posting its recv: its
        // completion is its own post time, not the wire arrival.
        let traces = world(2, |r| match r {
            0 => vec![send(1, 8), wait([0])],
            // Long local work first.
            _ => vec![
                TraceOp::Compute { bytes: 100_000_000 },
                recv(0, 8),
                wait([1]),
            ],
        });
        let mut m = Machine::testbed(2, 1, 1);
        m.cpu.gamma_ns_per_byte = 1.0;
        let out = simulate(&m, &traces).unwrap();
        assert!(out.finish[1].as_nanos() >= 1.0e8);
    }

    #[test]
    fn send_buffer_depth_limits_inflight() {
        // With depth 1, the second send cannot post until the first arrives.
        let traces = world(3, |r| match r {
            0 => vec![send(1, 1000), send(2, 1000), wait([0, 1])],
            _ => vec![recv(0, 1000), wait([0])],
        });
        let mut unlimited = Machine::testbed(3, 1, 2);
        let mut limited = unlimited.clone();
        unlimited.send_buffer_depth = usize::MAX;
        limited.send_buffer_depth = 1;
        let t_unl = simulate(&unlimited, &traces).unwrap().makespan;
        let t_lim = simulate(&limited, &traces).unwrap().makespan;
        assert!(t_lim > t_unl, "limited {t_lim} <= unlimited {t_unl}");
    }

    #[test]
    fn deterministic_across_runs() {
        let traces = pairwise_swap(8, 4096, None);
        let m = Machine::frontier(8, 1);
        let a = simulate(&m, &traces).unwrap();
        let b = simulate(&m, &traces).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn timed_replay_matches_untimed() {
        let traces = pairwise_swap(8, 4096, Some(4096));
        let m = Machine::frontier(8, 1);
        let base = simulate(&m, &traces).unwrap();
        let (timed, spans) = simulate_timed(&m, &traces).unwrap();
        assert_eq!(base.makespan, timed.makespan);
        assert_eq!(base.finish, timed.finish);
        for (rank, t) in traces.iter().enumerate() {
            assert_eq!(spans[rank].len(), t.ops.len());
            for s in &spans[rank] {
                assert!(s.begin <= s.end && s.end <= s.done);
            }
            // Active windows follow program order on each rank.
            for w in spans[rank].windows(2) {
                assert!(w[0].end <= w[1].begin, "rank {rank}: spans out of order");
            }
        }
    }

    #[test]
    fn marks_cost_nothing_in_replay() {
        let plain = one_message(4096);
        let mark = |round| TraceOp::Mark {
            label: "phase",
            round,
        };
        let marked = world(2, |r| match r {
            0 => vec![mark(0), send(1, 4096), wait([1]), mark(2)],
            _ => vec![mark(0), mark(1), recv(0, 4096), wait([2]), mark(2)],
        });
        let m = Machine::frontier(2, 1);
        let a = simulate(&m, &plain).unwrap();
        let b = simulate(&m, &marked).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish, b.finish);
    }

    #[test]
    fn rendezvous_send_done_is_delivery_not_post() {
        let mut m = Machine::testbed(2, 1, 1);
        m.rendezvous_threshold = 1024;
        let (_, spans) = simulate_timed(&m, &one_message(4096)).unwrap();
        let send = spans[0][0];
        // Post is instant (zero overheads on testbed); delivery pays α + nβ.
        assert!(send.done.as_nanos() >= 1_000.0 + 4096.0);
        assert!(send.end < send.done);
    }

    #[test]
    fn noise_only_adds_time() {
        let traces = one_message(1 << 20);
        let m = Machine::frontier(2, 1);
        let base = simulate(&m, &traces).unwrap().makespan;
        let mut noise = NoiseModel::new(3, 0.2, 0.2);
        let noisy = simulate_noisy(&m, &traces, &mut noise).unwrap().makespan;
        assert!(noisy >= base);
    }

    #[test]
    fn self_message_is_cheap() {
        let traces = world(1, |_| vec![send(0, 64), recv(0, 64), wait([0, 1])]);
        let m = Machine::testbed(1, 1, 1);
        let out = simulate(&m, &traces).unwrap();
        // No alpha charged for a local copy.
        assert!(out.makespan.as_nanos() < 100.0);
    }

    #[test]
    fn constrained_global_links_slow_intergroup_traffic() {
        // 64 ranks split over 2 dragonfly groups, everyone in group 0 sends
        // a large block to its counterpart in group 1.
        let traces = world(64, |me| match me {
            0..32 => vec![send(me + 32, 1 << 20), wait([0])],
            _ => vec![recv(me - 32, 1 << 20), wait([0])],
        });
        let open = Machine::frontier(64, 1);
        let mut constrained = open.clone();
        constrained.global_links_per_group = 2;
        let t_open = simulate(&open, &traces).unwrap().makespan;
        let t_constrained = simulate(&constrained, &traces).unwrap().makespan;
        // 32 concurrent 1 MB transfers over 2 uplinks vs unconstrained.
        assert!(
            t_constrained.as_nanos() > 4.0 * t_open.as_nanos(),
            "constrained {t_constrained} vs open {t_open}"
        );
        // Intra-group traffic is unaffected by the constraint.
        let local = world(64, |me| match me {
            0..16 => vec![send(me + 16, 1 << 20), wait([0])],
            16..32 => vec![recv(me - 16, 1 << 20), wait([0])],
            _ => vec![],
        });
        let a = simulate(&open, &local).unwrap().makespan;
        let b = simulate(&constrained, &local).unwrap().makespan;
        assert_eq!(a, b);
    }

    #[test]
    fn breakdown_partitions_rank_time() {
        let m = Machine::frontier(4, 1);
        let traces = pairwise_swap(4, 1024, Some(1024));
        let out = simulate(&m, &traces).unwrap();
        for (r, b) in out.breakdown.iter().enumerate() {
            let sum = b.posting + b.computing + b.blocked;
            assert!(
                (sum.as_nanos() - out.finish[r].as_nanos()).abs() < 1e-6,
                "rank {r}: breakdown {sum} != finish {}",
                out.finish[r]
            );
            assert!(b.computing.as_nanos() > 0.0);
            assert!(b.posting.as_nanos() > 0.0);
        }
        // A latency-bound exchange is mostly blocked time.
        assert!(out.breakdown[0].blocked_fraction().unwrap() > 0.5);
    }

    #[test]
    fn inter_group_paths_pay_extra_latency() {
        let mut m = Machine::frontier(64, 1);
        m.cpu.o_send_ns = 0.0;
        m.cpu.o_recv_ns = 0.0;
        let near = message(64, 0, 1, 8); // same dragonfly group
        let far = message(64, 0, 40, 8); // different group
        let t_near = simulate(&m, &near).unwrap().makespan;
        let t_far = simulate(&m, &far).unwrap().makespan;
        let delta = (t_far - t_near).as_nanos() - m.inter.inter_group_extra_ns;
        assert!(delta.abs() < 1e-6, "delta {delta}");
    }
}
