//! The closed loop of the runtime workloads: one world of `P` ranks, one
//! collective in flight, every rank walking the same cycle of slots.
//!
//! Rank 0 timestamps each slot's `execute` call; a cycle sample is the sum
//! of its slot spans. Every rank compares every output with the sequential
//! reference between slots, outside the spans. (On one CPU the other ranks'
//! comparisons still run while rank 0 is inside its next span; that is one
//! memcmp per output byte and the same on every commit.)

use crate::host;
use crate::slots::{Cycle, Variant, Walk, P};
use crate::span::{ChildSpan, CommTotals, SpanComm};
use exacoll_comm::{try_run_ranks_with, Comm, CommResult, WorldOptions};
use exacoll_core::registry::{execute, execute_v};
use exacoll_core::PlanCache;
use exacoll_net::try_run_socket_ranks_with;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How the ranks of a world talk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `exacoll_comm::ThreadComm`: in-process mailboxes.
    Thread,
    /// `exacoll_net::SocketComm`: a full TCP mesh over loopback, the same
    /// join, rendezvous and reader-thread code `exacoll launch` workers run.
    Tcp,
}

/// A blocked receive fails after this long, so a hang becomes a counted
/// failure instead of a stuck benchmark.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Cycles of the traced phase whose spans are kept for the trace file.
pub const TRACE_FILE_CYCLES: usize = 100;

/// One measured stretch of the loop.
pub struct PhaseCtl {
    seconds: f64,
    traced: bool,
    /// The batch after which every rank stops, set once by rank 0.
    ///
    /// Rank 0 stores `b + 1` between its batches `b` and `b + 1`. No rank
    /// can finish batch `b + 1` before rank 0 entered it, because every
    /// cycle holds an allreduce (`Cycle::build` checks), so every rank reads
    /// the stored value at the end of batch `b + 1` at the latest and all
    /// stop after the same batch without exchanging a message about it.
    stop_after: AtomicUsize,
}

impl PhaseCtl {
    pub fn new(seconds: f64, traced: bool) -> PhaseCtl {
        PhaseCtl {
            seconds,
            traced,
            stop_after: AtomicUsize::new(usize::MAX),
        }
    }
}

/// What every rank of one world shares.
pub struct Shared<'a> {
    pub cycle: &'a Cycle,
    /// Workload start; spans and `setup_done_ns` count from here.
    pub epoch: Instant,
    pub warmup_cycles: usize,
    pub batch_cycles: usize,
    pub phases: Vec<PhaseCtl>,
    /// When rank 0 finished warm-up, in ns since `epoch`.
    pub setup_done_ns: AtomicU64,
    /// The process's peak resident set at that moment, in KiB.
    pub setup_peak_rss_kib: AtomicU64,
}

impl<'a> Shared<'a> {
    pub fn new(
        cycle: &'a Cycle,
        epoch: Instant,
        warmup_cycles: usize,
        batch_cycles: usize,
        phases: Vec<PhaseCtl>,
    ) -> Shared<'a> {
        Shared {
            cycle,
            epoch,
            warmup_cycles,
            batch_cycles,
            phases,
            setup_done_ns: AtomicU64::new(0),
            setup_peak_rss_kib: AtomicU64::new(0),
        }
    }
}

/// Process-wide counters read by rank 0 at both ends of a phase.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    pub ctx_switches: u64,
    pub user_ticks: u64,
    pub sys_ticks: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub threads: usize,
    pub rss_kib: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let (user_ticks, sys_ticks) = host::cpu_ticks();
        let cache = PlanCache::global().metrics();
        Counters {
            ctx_switches: host::context_switches(),
            user_ticks,
            sys_ticks,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            threads: host::thread_count(),
            rss_kib: host::rss_kib(),
        }
    }
}

/// One `execute` call, kept for the trace file.
#[derive(Clone, Copy, Debug)]
pub struct ExecSpan {
    pub cycle: u32,
    /// Index into `Cycle::slots`.
    pub slot: u32,
    pub begin_ns: u64,
    pub end_ns: u64,
}

/// What one rank recorded in one phase.
#[derive(Default)]
pub struct PhaseRec {
    /// Sum of this rank's execute spans.
    pub exec_ns: u64,
    pub cycles: u64,
    /// Traced phases: totals at the `Comm` boundary.
    pub comm: CommTotals,
    /// Traced phases: the first `TRACE_FILE_CYCLES` cycles.
    pub exec_spans: Vec<ExecSpan>,
    pub child_spans: Vec<ChildSpan>,
    /// Rank 0: every cycle's sum of slot spans, in run order.
    pub cycle_ns: Vec<u64>,
    /// Rank 0: every span of each slot (indexed like `Cycle::slots`).
    pub slot_ns: Vec<Vec<u32>>,
    /// Rank 0: counters at the start and the end.
    pub counters: Option<(Counters, Counters)>,
}

/// Operations a rank started and how many of them failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What one rank brings back from its world.
#[derive(Default)]
pub struct RankOut {
    pub tally: Tally,
    pub phases: Vec<PhaseRec>,
    /// Set when the rank gave up: an operation returned `Err`, after which
    /// the world is out of step and nothing further would be comparable.
    pub gave_up: Option<String>,
}

/// Run one slot and judge it: an `Err` (deadline, departed peer, ...) and an
/// output that differs from the reference are both failed operations.
/// Returns the span, or the error on which the rank must give up.
fn run_slot<C: Comm>(
    c: &mut C,
    v: &Variant,
    epoch: Instant,
    tally: &mut Tally,
) -> CommResult<(u64, u64)> {
    tally.attempted += 1;
    let input = &v.inputs[c.rank()];
    let begin_ns = epoch.elapsed().as_nanos() as u64;
    let result = match &v.counts {
        Some(counts) => execute_v(c, &v.args, counts, input),
        None => execute(c, &v.args, input),
    };
    let end_ns = epoch.elapsed().as_nanos() as u64;
    match result {
        Ok(out) => {
            if out != v.expected(c.rank()) {
                tally.failed += 1;
            }
            Ok((begin_ns, end_ns))
        }
        Err(e) => {
            tally.failed += 1;
            Err(e)
        }
    }
}

/// A rank's position in the loop and its failure count.
struct Runner<'a> {
    sh: &'a Shared<'a>,
    walk: Walk,
    tally: Tally,
}

impl Runner<'_> {
    /// Run the next cycle; `on_slot(slot index, begin, end)` sees each span.
    fn cycle<C: Comm>(
        &mut self,
        c: &mut C,
        mut on_slot: impl FnMut(usize, u64, u64),
    ) -> Result<(), String> {
        self.walk.advance();
        for &i in &self.walk.order {
            let slot = &self.sh.cycle.slots[i];
            let v = &slot.variants[self.walk.cycle % slot.variants.len()];
            let (begin_ns, end_ns) = run_slot(c, v, self.sh.epoch, &mut self.tally)
                .map_err(|e| format!("{}: {e}", slot.name))?;
            on_slot(i, begin_ns, end_ns);
        }
        Ok(())
    }

    /// Run batches of cycles until rank 0 says the phase's time is up.
    fn phase<C: Comm>(
        &mut self,
        c: &mut C,
        ctl: &PhaseCtl,
        rec: &mut PhaseRec,
    ) -> Result<(), String> {
        let lead = c.rank() == 0;
        let phase_start = Instant::now();
        let mut batch = 0usize;
        loop {
            let batch_start = Instant::now();
            for _ in 0..self.sh.batch_cycles {
                let mut cycle_ns = 0u64;
                let keep = ctl.traced && (rec.cycles as usize) < TRACE_FILE_CYCLES;
                let (cycle, slot_ns, exec_spans) =
                    (rec.cycles as u32, &mut rec.slot_ns, &mut rec.exec_spans);
                self.cycle(c, |slot, begin_ns, end_ns| {
                    let took = end_ns - begin_ns;
                    cycle_ns += took;
                    if lead {
                        slot_ns[slot].push(took as u32);
                    }
                    if keep {
                        exec_spans.push(ExecSpan {
                            cycle,
                            slot: slot as u32,
                            begin_ns,
                            end_ns,
                        });
                    }
                })?;
                rec.cycles += 1;
                rec.exec_ns += cycle_ns;
                if lead {
                    rec.cycle_ns.push(cycle_ns);
                }
            }
            if lead {
                // Stop when one more batch like this one would overrun.
                let time_is_up =
                    (phase_start.elapsed() + batch_start.elapsed()).as_secs_f64() >= ctl.seconds;
                if time_is_up && ctl.stop_after.load(Ordering::SeqCst) == usize::MAX {
                    ctl.stop_after.store(batch + 1, Ordering::SeqCst);
                }
            }
            if batch >= ctl.stop_after.load(Ordering::SeqCst) {
                return Ok(());
            }
            batch += 1;
        }
    }
}

/// Child spans kept per rank: generous for `TRACE_FILE_CYCLES` cycles of the
/// chattiest slot mix.
const MAX_CHILD_SPANS: usize = TRACE_FILE_CYCLES * 7 * 16;

/// Cycles rank 0 may record per phase without growing a buffer.
const MAX_CYCLES: usize = 1 << 20;

/// One rank's whole life in a world: warm up, then every phase.
pub fn rank_main<C: Comm>(c: &mut C, sh: &Shared) -> CommResult<RankOut> {
    let mut out = RankOut::default();
    let lead = c.rank() == 0;
    let mut runner = Runner {
        sh,
        walk: sh.cycle.walk(),
        tally: Tally::default(),
    };
    let mut ran = (0..sh.warmup_cycles).try_for_each(|_| runner.cycle(c, |_, _, _| {}));
    if lead && ran.is_ok() {
        sh.setup_done_ns
            .store(sh.epoch.elapsed().as_nanos() as u64, Ordering::SeqCst);
        sh.setup_peak_rss_kib
            .store(host::peak_rss_kib(), Ordering::SeqCst);
    }
    for ctl in &sh.phases {
        if ran.is_err() {
            break;
        }
        let mut rec = PhaseRec::default();
        if lead {
            rec.cycle_ns = Vec::with_capacity(MAX_CYCLES);
            rec.slot_ns = (0..sh.cycle.slots.len())
                .map(|_| Vec::with_capacity(MAX_CYCLES))
                .collect();
        }
        if ctl.traced {
            rec.exec_spans = Vec::with_capacity(TRACE_FILE_CYCLES * sh.cycle.slots.len());
        }
        let before = lead.then(Counters::read);
        ran = if ctl.traced {
            let mut sc = SpanComm::new(&mut *c, sh.epoch, MAX_CHILD_SPANS);
            let ran = runner.phase(&mut sc, ctl, &mut rec);
            (rec.child_spans, rec.comm) = sc.finish();
            ran
        } else {
            runner.phase(c, ctl, &mut rec)
        };
        rec.counters = before.map(|b| (b, Counters::read()));
        out.phases.push(rec);
    }
    out.tally = runner.tally;
    out.gave_up = ran.err();
    Ok(out)
}

/// Bring up a world on `backend`, run [`rank_main`] on every rank, tear it
/// down. A rank whose thread died (panic, failed join) comes back as a rank
/// that gave up with one failed operation.
pub fn run_world(backend: Backend, sh: &Shared) -> Vec<RankOut> {
    let results = match backend {
        Backend::Thread => {
            try_run_ranks_with(P, WorldOptions { deadline: DEADLINE }, |c| rank_main(c, sh))
        }
        Backend::Tcp => try_run_socket_ranks_with(P, DEADLINE, |c| rank_main(c, sh)),
    };
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|e| RankOut {
                tally: Tally {
                    attempted: 1,
                    failed: 1,
                },
                phases: Vec::new(),
                gave_up: Some(format!("rank died: {e}")),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::CYCLE_S;
    use exacoll_comm::CommError;

    fn shared(cycle: &Cycle, phases: Vec<PhaseCtl>) -> Shared<'_> {
        Shared::new(cycle, Instant::now(), 4, 3, phases)
    }

    #[test]
    fn a_clean_world_fails_nothing_and_stops_every_rank_together() {
        for backend in [Backend::Thread, Backend::Tcp] {
            let cycle = Cycle::build(CYCLE_S, 3);
            let sh = shared(
                &cycle,
                vec![PhaseCtl::new(0.02, false), PhaseCtl::new(0.02, true)],
            );
            let outs = run_world(backend, &sh);
            assert!(sh.setup_done_ns.load(Ordering::SeqCst) > 0);
            assert!(sh.setup_peak_rss_kib.load(Ordering::SeqCst) > 0);
            for o in &outs {
                assert_eq!(o.gave_up, None);
                assert_eq!(o.tally.failed, 0);
                assert_eq!(o.tally, outs[0].tally, "ranks ran different op counts");
                assert_eq!(o.phases.len(), 2);
            }
            let traced = &outs[0].phases[1];
            assert!(traced.cycles >= 6 && traced.cycles.is_multiple_of(3));
            assert_eq!(traced.cycle_ns.len() as u64, traced.cycles);
            assert!(traced
                .slot_ns
                .iter()
                .all(|s| s.len() as u64 == traced.cycles));
            assert_eq!(traced.cycle_ns.iter().sum::<u64>(), traced.exec_ns);
            assert!(traced.comm.messages > 0 && traced.comm.wait_ns > 0);
            assert!(traced.comm.comm_ns <= traced.exec_ns);
            // Warm-up visited every variant, so nothing is compiled later.
            let (before, after) = traced.counters.unwrap();
            assert_eq!(after.cache_misses, before.cache_misses, "{backend:?}");
            assert_eq!(outs[0].phases[0].comm, CommTotals::default());
        }
    }

    #[test]
    fn a_corrupted_output_is_a_failed_operation() {
        let mut cycle = Cycle::build(CYCLE_S, 3);
        // Slot 0 has a single variant; rank 2 now expects the impossible.
        cycle.slots[0].variants[0].corrupt_expected(2);
        let sh = shared(&cycle, vec![PhaseCtl::new(0.01, false)]);
        let outs = run_world(Backend::Thread, &sh);
        let cycles = sh.warmup_cycles as u64 + outs[2].phases[0].cycles;
        assert_eq!(outs[2].tally.failed, cycles, "one bad slot per cycle");
        assert_eq!(outs[2].gave_up, None, "a mismatch does not stop the run");
        assert_eq!(outs[0].tally.failed, 0);
    }

    #[test]
    fn a_deadline_hit_is_a_failed_operation() {
        let cycle = Cycle::build(CYCLE_S, 3);
        let deadline = Duration::from_millis(60);
        // Rank 1 stays alive but silent, so rank 0 can only time out.
        let outs = try_run_ranks_with(2, WorldOptions { deadline }, |c| {
            let mut tally = Tally::default();
            if c.rank() == 1 {
                std::thread::sleep(4 * deadline);
                return Ok((tally, None));
            }
            let v = &cycle.slots[0].variants[0];
            let err = run_slot(c, v, Instant::now(), &mut tally).err();
            Ok((tally, err))
        });
        let (tally, err) = outs[0].as_ref().unwrap();
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(matches!(err, Some(CommError::Timeout { .. })), "{err:?}");
    }
}
