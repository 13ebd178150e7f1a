//! The optimizer gate proves a rewrite instead of sampling it: over the
//! registry grid its verdict equals the byte evaluator's on inputs with no
//! period to hide behind, every seeded plan mutation is refused with a
//! diagnostic that points at the bytes a byte comparison first disagrees on,
//! and a reassociated float reduction is accepted and *said* to be reordered.

mod support;

use exacoll::collectives::registry::candidates;
use exacoll::collectives::request::payload;
use exacoll::collectives::schedule::eval::{evaluate, probe_inputs};
use exacoll::collectives::schedule::provenance::Equivalence;
use exacoll::collectives::schedule::verify::{verify, VerifyError};
use exacoll::collectives::schedule::{ComputeKind, Schedule, ScheduleBuilder, SgList, Step};
use exacoll::collectives::spec::{CountsSpec, OPT_AGGREGATE_MAX_FUSE_BYTES};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll::comm::{DType, ReduceOp};
use exacoll::opt::{layout_for, pipeline, Gate, PassKind, PassManager, Refusal, TopoDesc};
use exacoll::sim::Machine;
use support::lower_all;

/// Seeded inputs with no period: the SplitMix64 stream of `payload`.
fn inputs_for(plans: &[Schedule]) -> Vec<Vec<u8>> {
    plans
        .iter()
        .map(|s| payload(7, s.rank, s.input.len()))
        .collect()
}

/// The smallest divisor >= 2 as ppn, as `exacoll verify` splits p.
fn split_topo(p: usize) -> TopoDesc {
    let ppn = (2..p).find(|d| p.is_multiple_of(*d)).unwrap_or(1);
    TopoDesc {
        nodes: p / ppn,
        ppn,
    }
}

/// Every rewrite the four passes make of the registry at `dtype`: the gate's
/// verdict against the byte evaluator's on non-periodic inputs. Returns how
/// many rewrites fired and how many were admitted as reordered.
fn differential(dtype: DType) -> (usize, usize) {
    let (mut rewrites, mut reordered, mut disagreements) = (0, 0, Vec::new());
    for p in [2, 3, 4, 6, 8, 9, 16] {
        for op in CollectiveOp::ALL {
            for alg in candidates(op, p, 4) {
                for n in [24, 1 << 10, 8 << 10, 40 << 10] {
                    let args = CollArgs {
                        dtype,
                        ..CollArgs::new(op, alg)
                    };
                    let Ok(request) = Request::uniform(args, p, n) else {
                        continue;
                    };
                    let plans = request.lower_world();
                    let inputs = inputs_for(&plans);
                    let reference = evaluate(&plans, &inputs).expect("stock plans evaluate");
                    let mut gate = Gate::new(plans.clone());
                    for pass in [
                        PassKind::Pipeline { chunk_bytes: 4096 },
                        PassKind::Pipeline { chunk_bytes: 520 },
                        PassKind::Aggregate {
                            max_fuse_bytes: OPT_AGGREGATE_MAX_FUSE_BYTES,
                        },
                        PassKind::Remap {
                            topo: split_topo(p),
                            layout: layout_for(op),
                        },
                    ] {
                        let rewritten = pass.apply(&plans).expect("pass runs");
                        if rewritten == plans {
                            continue;
                        }
                        rewrites += 1;
                        let bytes_agree = verify(&rewritten).is_ok()
                            && evaluate(&rewritten, &inputs).is_ok_and(|out| out == reference);
                        let admitted = gate.admit(&rewritten);
                        if let Ok(a) = &admitted {
                            reordered += usize::from(a.equivalence == Equivalence::Reordered);
                        }
                        if admitted.is_ok() != bytes_agree {
                            disagreements.push(format!(
                                "{op}/{alg} p={p} n={n} {dtype} under {pass}: bytes \
                                 {bytes_agree}, gate {:?}",
                                admitted.map(|a| a.equivalence).map_err(|e| e.to_string())
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(disagreements.is_empty(), "{}", disagreements.join("\n"));
    (rewrites, reordered)
}

// Integer element types, one byte and eight bytes wide (two tests, so they
// run side by side): where a remap changes the reduction order the bytes
// still agree, so the two verdicts can be held equal. The grid is not
// vacuous: well over a thousand rewrites fire per type, and some of the
// remaps do reorder a reduction.

#[test]
fn provenance_verdict_equals_the_byte_verdict_on_u8() {
    let (rewrites, reordered) = differential(DType::U8);
    assert!(rewrites > 1500 && reordered > 0, "{rewrites} {reordered}");
}

#[test]
fn provenance_verdict_equals_the_byte_verdict_on_i64() {
    let (rewrites, reordered) = differential(DType::I64);
    assert!(rewrites > 1500 && reordered > 0, "{rewrites} {reordered}");
}

/// What every mutation below must meet: the mutant still verifies (so it is
/// the provenance step that refuses it), a byte comparison on non-periodic
/// inputs sees the damage, and the gate's diagnostic names the rank and a
/// byte range holding the first byte that differs.
fn assert_refused_where_the_bytes_differ(stock: &[Schedule], mutant: &[Schedule], what: &str) {
    verify(mutant).unwrap_or_else(|e| panic!("{what}: the mutant must verify: {e}"));
    let inputs = inputs_for(stock);
    let want = evaluate(stock, &inputs).unwrap();
    let got = evaluate(mutant, &inputs).unwrap();
    let (rank, byte) = want
        .iter()
        .zip(&got)
        .enumerate()
        .find_map(|(r, (w, g))| Some((r, w.iter().zip(g).position(|(a, b)| a != b)?)))
        .unwrap_or_else(|| panic!("{what}: the bytes do not show the mutation"));
    let refusal = Gate::new(stock.to_vec())
        .admit(mutant)
        .expect_err("the gate must refuse");
    let Refusal::Diverged(d) = &refusal else {
        panic!("{what}: refused for another reason: {refusal}");
    };
    assert_eq!(d.rank, rank, "{what}: {refusal}");
    assert!(d.range.contains(&byte), "{what}: byte {byte}: {refusal}");
    assert!(
        d.want != d.got && d.want.contains("in"),
        "{what}: {refusal}"
    );
}

#[test]
fn swapped_chunk_receives_of_one_message_are_refused() {
    // The mistake a chunking pass makes: both halves of an 8 KiB message
    // arrive, in each other's place. Sizes match, every byte is written
    // once — `verify` has nothing to say.
    let cases = [
        (CollectiveOp::Allgather, Algorithm::Ring),
        (CollectiveOp::Bcast, Algorithm::KnomialTree { k: 2 }),
        (
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        ),
    ];
    for (op, alg) in cases {
        let what = format!("{op}/{alg}");
        let stock = lower_all(&CollArgs::new(op, alg), 4, 8 << 10);
        let piped = pipeline(&stock, 4096).unwrap();
        let mut mutant = piped.clone();
        // The last two chunk receives of one message, on the last rank that
        // has such a pair: swap where they land.
        let chunk_recvs = |plan: &Schedule| -> Vec<(usize, (usize, u32))> {
            let chunk = |(i, s): (usize, &Step)| match s {
                Step::Recv { from, tag, dst } if dst.len() == 4096 => Some((i, (*from, *tag))),
                _ => None,
            };
            plan.steps.iter().enumerate().filter_map(chunk).collect()
        };
        let (rank, first, second) = (0..4)
            .rev()
            .find_map(|r| {
                let recvs = chunk_recvs(&piped[r]);
                let pair = recvs.windows(2).rev().find(|w| w[0].1 == w[1].1)?;
                Some((r, pair[0].0, pair[1].0))
            })
            .unwrap_or_else(|| panic!("{what}: no chunked receive"));
        let [Step::Recv { dst: a, .. }, .., Step::Recv { dst: b, .. }] =
            &mut mutant[rank].steps[first..=second]
        else {
            unreachable!("both are receives")
        };
        std::mem::swap(a, b);
        assert_refused_where_the_bytes_differ(&stock, &mutant, &what);

        // The regression that motivated the gate: the byte evaluator on the
        // old probe inputs — `(rank·131 ^ i·29) as u8`, period 256 — called
        // this mutant byte-identical. Today's `probe_inputs` do not.
        let periodic: Vec<Vec<u8>> = stock
            .iter()
            .map(|s| {
                (0..s.input.len())
                    .map(|i| (s.rank.wrapping_mul(131) ^ i.wrapping_mul(29)) as u8)
                    .collect()
            })
            .collect();
        assert_eq!(
            evaluate(&mutant, &periodic).unwrap(),
            evaluate(&stock, &periodic).unwrap(),
            "{what}: the period-256 probe was expected to miss the swap"
        );
        let probe = probe_inputs(&stock);
        assert_ne!(
            evaluate(&mutant, &probe).unwrap(),
            evaluate(&stock, &probe).unwrap(),
            "{what}: the new probe must see the swap"
        );
    }
}

#[test]
fn dropping_the_empty_half_of_a_sendrecv_is_refused() {
    // PR 20's `chunks_of` bug: an empty view chunked into no message at all,
    // so the zero-count rank of a v-plan lost a send its peer waits for.
    let counts = CountsSpec::new(vec![4096, 0, 64, 256]).unwrap();
    let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
    let stock = Request::irregular(args, counts).unwrap().lower_world();
    let good = pipeline(&stock, 1024).unwrap();
    let mut gate = Gate::new(stock.clone());
    gate.admit(&good).expect("the fixed pass is admitted");
    // Re-introduce it: wherever the pass split a SendRecv, drop the halves
    // that came out empty.
    let mut bad = good.clone();
    for (plan, before) in bad.iter_mut().zip(&stock) {
        let split = before.steps.iter().any(
            |s| matches!(s, Step::SendRecv { src, dst, .. } if src.len() > 1024 || dst.len() > 1024),
        );
        if split {
            plan.steps.retain(|s| match s {
                Step::Send { src, .. } => !src.is_empty(),
                Step::Recv { dst, .. } => !dst.is_empty(),
                _ => true,
            });
        }
    }
    assert_ne!(bad, good, "the mutation must bite");
    // Rank 1 is the zero-count rank: the empty send it owes rank 2 is gone,
    // so rank 2's empty receive meets the first chunk of the next round.
    let refusal = gate.admit(&bad).expect_err("the gate must refuse");
    assert!(
        matches!(
            refusal,
            Refusal::Verify(VerifyError::SizeMismatch {
                from: 1,
                to: 2,
                send_len: 1024,
                recv_len: 0,
                ..
            })
        ),
        "{refusal}"
    );
}

#[test]
fn a_range_shifted_by_one_element_is_refused() {
    // Ring allreduce sends sub-blocks of the rank's own vector: a source
    // range one element to the right is still defined, still the right
    // length, and the wrong data.
    let args = CollArgs {
        dtype: DType::I64,
        ..CollArgs::new(CollectiveOp::Allreduce, Algorithm::Ring)
    };
    let stock = lower_all(&args, 4, 8 << 10);
    let mut mutant = stock.clone();
    let src = mutant[2]
        .steps
        .iter_mut()
        .find_map(|s| match s {
            Step::Send { src, .. } | Step::SendRecv { src, .. }
                if src.ranges().len() == 1 && src.ranges()[0].end + 8 <= 8 << 10 =>
            {
                Some(src)
            }
            _ => None,
        })
        .expect("a block that is not the vector's last");
    let r = src.ranges()[0].clone();
    *src = SgList::from(r.start + 8..r.end + 8);
    assert_refused_where_the_bytes_differ(&stock, &mutant, "allreduce/ring shifted send");
}

#[test]
fn swapped_reduce_operands_are_refused() {
    // `src ⊕= dst` instead of `dst ⊕= src`: the sum lands in the buffer
    // nothing reads again and the accumulator keeps its stale value.
    let alg = Algorithm::RecursiveMultiplying { k: 2 };
    let stock = lower_all(&CollArgs::new(CollectiveOp::Allreduce, alg), 4, 8 << 10);
    let mut mutant = stock.clone();
    let (src, dst) = mutant[1]
        .steps
        .iter_mut()
        .find_map(|s| match s {
            Step::Compute {
                kind: ComputeKind::Reduce { .. },
                src,
                dst,
            } => Some((src, dst)),
            _ => None,
        })
        .expect("an allreduce reduces");
    std::mem::swap(src, dst);
    assert_refused_where_the_bytes_differ(&stock, &mutant, "allreduce/recmult:2 swapped reduce");
}

#[test]
fn a_reassociated_float_reduction_is_accepted_and_flagged() {
    // Rank 0 gathers b and c and folds them into its own a, as (a ⊕ b) ⊕ c
    // or as a ⊕ (b ⊕ c): different expressions, the same operands, and on
    // f64 possibly different roundings.
    let reduce_at_root = |regrouped: bool| -> Vec<Schedule> {
        (0..3)
            .map(|rank| {
                let mut b = ScheduleBuilder::new(3, rank);
                let own = b.alloc(64);
                if rank != 0 {
                    b.send(0, 9, own.clone());
                    return b.finish(own, SgList::empty());
                }
                let (from1, from2) = (b.alloc(64), b.alloc(64));
                b.recv(1, 9, from1.clone());
                b.recv(2, 9, from2.clone());
                let sum = |b: &mut ScheduleBuilder, src: &SgList, dst: &SgList| {
                    b.reduce(DType::F64, ReduceOp::Sum, src.clone(), dst.clone())
                };
                if regrouped {
                    sum(&mut b, &from2, &from1);
                    sum(&mut b, &from1, &own);
                } else {
                    sum(&mut b, &from1, &own);
                    sum(&mut b, &from2, &own);
                }
                b.finish(own.clone(), own)
            })
            .collect()
    };
    let (stock, regrouped) = (reduce_at_root(false), reduce_at_root(true));
    let mut gate = Gate::new(stock.clone());
    assert_eq!(
        gate.admit(&stock).unwrap().equivalence,
        Equivalence::Same,
        "a plan is itself"
    );
    let admitted = gate.admit(&regrouped).expect("regrouping is admitted");
    assert_eq!(admitted.equivalence, Equivalence::Reordered);
    // On these inputs the two orders really do round differently — which is
    // why the verdict must not depend on the values.
    let inputs: Vec<Vec<u8>> = [1e16f64, 1.0, 1.0]
        .iter()
        .map(|x| x.to_le_bytes().repeat(8))
        .collect();
    assert_ne!(
        evaluate(&stock, &inputs).unwrap(),
        evaluate(&regrouped, &inputs).unwrap()
    );

    // The manager says so too: on three nodes of two, remap relabels a
    // recursive-multiplying allreduce's ranks, which changes who is folded
    // into whom — on f64, where the byte gate's verdict hung on the values.
    let args = CollArgs {
        dtype: DType::F64,
        ..CollArgs::new(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        )
    };
    let plans = lower_all(&args, 6, 1 << 10);
    let report = PassManager::new(Machine::frontier(3, 2))
        .with_pass(PassKind::Pipeline { chunk_bytes: 512 })
        .with_pass(PassKind::Remap {
            topo: TopoDesc { nodes: 3, ppn: 2 },
            layout: layout_for(CollectiveOp::Allreduce),
        })
        .run(&plans)
        .unwrap();
    let [piped, remapped] = &report.outcomes[..] else {
        panic!("two passes, two outcomes");
    };
    assert!(piped.changed && !piped.reordered, "{piped:?}");
    assert!(
        remapped.changed && remapped.reordered && remapped.refused.is_none(),
        "{remapped:?}"
    );
}
