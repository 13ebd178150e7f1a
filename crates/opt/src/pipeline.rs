//! The pipelining pass: chunk large messages for multi-rail overlap.
//!
//! Every send/receive larger than the chunk threshold is split into a
//! deterministic sequence of chunk messages on the *same* (peer, tag)
//! channel, posted back-to-back inside the original flush group. Because
//! both backends guarantee FIFO non-overtaking per (src, dst, tag) channel
//! and the pass applies one length-keyed rule to all ranks, the i-th sent
//! chunk always meets the i-th posted chunk receive — the verifier's
//! token-game re-check proves it for every rewritten plan.
//!
//! What this buys under the cost model: a single α + nβ transfer becomes m
//! concurrent transfers that stripe across the node's NIC port pool
//! (`ports_per_node`-way parallelism on multi-rail machines), and chunks at
//! or below the rendezvous threshold complete eagerly instead of stalling
//! the sender until delivery. The schedule IR's flush discipline waits on
//! *all* outstanding requests at once, so this is chunk-level wire
//! pipelining — selective per-chunk waits are not expressible in the IR
//! (see DESIGN.md §15 for the honest scope of the legality argument).

use crate::OptError;
use exacoll_core::schedule::{Schedule, SgList, Step};

/// Split `view` into chunks of at most `chunk` bytes, in order. An empty
/// view is still one message: the zero-count rank of a v-plan posts it, and
/// its peer waits for it.
fn chunks_of(view: &SgList, chunk: usize) -> Vec<SgList> {
    let n = view.len();
    if n == 0 {
        return vec![view.clone()];
    }
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut off = 0;
    while off < n {
        let len = chunk.min(n - off);
        out.push(view.slice(off, len));
        off += len;
    }
    out
}

/// Apply the pipelining pass: any message strictly larger than
/// `chunk_bytes` is split into `ceil(len / chunk_bytes)` chunk messages.
/// A `SendRecv` whose halves both split is interleaved send/recv chunk by
/// chunk so outgoing chunk `i + 1` is posted right after incoming chunk `i`,
/// all within the original flush group.
///
/// # Errors
///
/// [`OptError::BadParam`] when `chunk_bytes` is zero.
pub fn pipeline(schedules: &[Schedule], chunk_bytes: usize) -> Result<Vec<Schedule>, OptError> {
    if chunk_bytes == 0 {
        return Err(OptError::BadParam("chunk_bytes must be positive".into()));
    }
    let mut out = Vec::with_capacity(schedules.len());
    for s in schedules {
        let mut steps = Vec::with_capacity(s.steps.len());
        for step in &s.steps {
            match step {
                Step::Send { to, tag, src } if src.len() > chunk_bytes => {
                    for c in chunks_of(src, chunk_bytes) {
                        steps.push(Step::Send {
                            to: *to,
                            tag: *tag,
                            src: c,
                        });
                    }
                }
                Step::Recv { from, tag, dst } if dst.len() > chunk_bytes => {
                    for c in chunks_of(dst, chunk_bytes) {
                        steps.push(Step::Recv {
                            from: *from,
                            tag: *tag,
                            dst: c,
                        });
                    }
                }
                Step::SendRecv {
                    to,
                    send_tag,
                    src,
                    from,
                    recv_tag,
                    dst,
                } if src.len() > chunk_bytes || dst.len() > chunk_bytes => {
                    let sc = chunks_of(src, chunk_bytes);
                    let rc = chunks_of(dst, chunk_bytes);
                    for i in 0..sc.len().max(rc.len()) {
                        if let Some(c) = sc.get(i) {
                            steps.push(Step::Send {
                                to: *to,
                                tag: *send_tag,
                                src: c.clone(),
                            });
                        }
                        if let Some(c) = rc.get(i) {
                            steps.push(Step::Recv {
                                from: *from,
                                tag: *recv_tag,
                                dst: c.clone(),
                            });
                        }
                    }
                }
                other => steps.push(other.clone()),
            }
        }
        out.push(Schedule {
            p: s.p,
            rank: s.rank,
            buf_len: s.buf_len,
            input: s.input.clone(),
            output: s.output.clone(),
            steps,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exacoll_core::registry::{lower, Algorithm, CollArgs, CollectiveOp};
    use exacoll_core::schedule::eval::{evaluate, probe_inputs};
    use exacoll_core::schedule::verify::verify;

    fn lowered(op: CollectiveOp, alg: Algorithm, p: usize, n: usize) -> Vec<Schedule> {
        let args = CollArgs::new(op, alg);
        (0..p).map(|r| lower(&args, p, r, n)).collect()
    }

    #[test]
    fn splits_large_messages_and_preserves_results() {
        let plans = lowered(CollectiveOp::Allgather, Algorithm::Ring, 4, 100);
        let piped = pipeline(&plans, 32).unwrap();
        verify(&piped).expect("pipelined plan must re-verify");
        // A 100-byte ring block becomes ceil(100/32) = 4 chunk messages.
        let sends = |ss: &[Schedule]| -> usize {
            ss[0]
                .steps
                .iter()
                .filter(|s| matches!(s, Step::Send { .. } | Step::SendRecv { .. }))
                .count()
        };
        assert!(sends(&piped) > sends(&plans));
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&piped, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
    }

    #[test]
    fn small_messages_are_untouched() {
        let plans = lowered(CollectiveOp::Allreduce, Algorithm::Ring, 4, 16);
        assert_eq!(pipeline(&plans, 1 << 20).unwrap(), plans);
    }

    #[test]
    fn zero_chunk_is_rejected() {
        let plans = lowered(CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }, 2, 8);
        assert!(matches!(pipeline(&plans, 0), Err(OptError::BadParam(_))));
    }

    #[test]
    fn sendrecv_halves_split_independently() {
        // Recursive-multiplying allgather exchanges grow each round; all
        // sendrecv halves above the threshold must chunk and still verify.
        let plans = lowered(
            CollectiveOp::Allgather,
            Algorithm::RecursiveMultiplying { k: 2 },
            8,
            64,
        );
        let piped = pipeline(&plans, 48).unwrap();
        verify(&piped).expect("chunked sendrecv must re-verify");
        let inputs = probe_inputs(&plans);
        assert_eq!(
            evaluate(&piped, &inputs).unwrap(),
            evaluate(&plans, &inputs).unwrap()
        );
        // A zero-count rank's empty half rides beside a half that chunks:
        // it must stay one (empty) message, not vanish from the channel.
        let ring = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let plans: Vec<Schedule> = (0..4)
            .map(|r| exacoll_core::registry::lower_v(&ring, r, &[4096, 0, 64, 256]))
            .collect();
        let piped = pipeline(&plans, 1024).unwrap();
        assert_ne!(piped, plans);
        verify(&piped).expect("chunked v-plan must re-verify");
    }
}
