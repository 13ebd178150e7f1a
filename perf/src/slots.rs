//! The collective cycles of the runtime workloads: what each slot calls,
//! its seeded inputs and the output the sequential reference demands.
//!
//! Adding a slot: append a `SlotSpec` to `CYCLE_S` or `CYCLE_L` under a new
//! name and add the name to `names::SLOT_NAMES`. Existing slots keep
//! their names and definitions, so their history stays comparable; the
//! cycle metrics (`cycle_p50_us`, ...) change meaning and need a new
//! baseline.

use crate::gen::{payload, ragged_counts, Rng};
use exacoll_comm::{fnv1a, DType, ReduceOp};
use exacoll_core::reference::{expected_outputs, expected_outputs_v};
use exacoll_core::registry::{Algorithm, CollArgs, CollectiveOp};
use std::sync::Arc;

/// World size of every runtime workload: the smallest p with radix freedom
/// (recmult k in {2,4}, knomial k in {2,4}, kring k in {1,2}).
pub const P: usize = 4;

/// How a slot's per-rank input sizes are chosen.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Every rank passes `bytes` bytes.
    Uniform { bytes: usize },
    /// Seeded ragged count vector summing to `total` bytes (the v-variant).
    Ragged { total: usize },
}

/// One slot of a cycle, before seeding.
#[derive(Clone, Copy)]
pub struct SlotSpec {
    pub name: &'static str,
    pub op: CollectiveOp,
    pub alg: Algorithm,
    pub dtype: DType,
    pub shape: Shape,
}

const fn slot(
    name: &'static str,
    op: CollectiveOp,
    alg: Algorithm,
    dtype: DType,
    shape: Shape,
) -> SlotSpec {
    SlotSpec {
        name,
        op,
        alg,
        dtype,
        shape,
    }
}

use Algorithm::{Dissemination, KRing, KnomialTree, RecursiveMultiplying, Ring};
use CollectiveOp::{Allgather, Allreduce, Barrier, Bcast, Reduce};
use Shape::{Ragged, Uniform};

/// Cycle S: 64 B per rank, alpha-bound.
pub const CYCLE_S: &[SlotSpec] = &[
    slot(
        "ar_recmult2",
        Allreduce,
        RecursiveMultiplying { k: 2 },
        DType::F64,
        Uniform { bytes: 64 },
    ),
    slot(
        "ar_recmult4",
        Allreduce,
        RecursiveMultiplying { k: 4 },
        DType::F64,
        Uniform { bytes: 64 },
    ),
    slot(
        "bc_knomial2",
        Bcast,
        KnomialTree { k: 2 },
        DType::U8,
        Uniform { bytes: 64 },
    ),
    // Radix 4 at p = 4: a single-round incast at the root.
    slot(
        "rd_knomial4",
        Reduce,
        KnomialTree { k: 4 },
        DType::F64,
        Uniform { bytes: 64 },
    ),
    slot(
        "ag_kring2",
        Allgather,
        KRing { k: 2 },
        DType::U8,
        Uniform { bytes: 64 },
    ),
    slot(
        "ba_dissem2",
        Barrier,
        Dissemination { k: 2 },
        DType::U8,
        Uniform { bytes: 0 },
    ),
    // Plans keyed by the digest of the count vector; one rank sends nothing.
    slot(
        "agv_ring",
        Allgather,
        Ring,
        DType::U8,
        Ragged { total: 256 },
    ),
];

/// Cycle L: 64 KiB to 1 MiB per rank, beta/gamma-bound.
pub const CYCLE_L: &[SlotSpec] = &[
    slot(
        "ar_ring",
        Allreduce,
        Ring,
        DType::F64,
        Uniform { bytes: 1 << 20 },
    ),
    slot(
        "ar_recmult2",
        Allreduce,
        RecursiveMultiplying { k: 2 },
        DType::F32,
        Uniform { bytes: 256 << 10 },
    ),
    slot(
        "bc_knomial2",
        Bcast,
        KnomialTree { k: 2 },
        DType::U8,
        Uniform { bytes: 1 << 20 },
    ),
    slot(
        "rd_knomial4",
        Reduce,
        KnomialTree { k: 4 },
        DType::I32,
        Uniform { bytes: 256 << 10 },
    ),
    slot(
        "ag_kring2",
        Allgather,
        KRing { k: 2 },
        DType::U8,
        Uniform { bytes: 64 << 10 },
    ),
    slot(
        "agv_ring",
        Allgather,
        Ring,
        DType::U8,
        Ragged { total: 256 << 10 },
    ),
];

/// One way a slot can be called: rooted slots have one variant per root,
/// ragged slots one per rotation of their count vector, the rest a single
/// one. The loop takes the variants in turn, so every run spends the same
/// share of its cycles on each and the timing distribution does not depend
/// on which root or rotation the seed would otherwise have picked.
pub struct Variant {
    pub args: CollArgs,
    /// The count vector of a v-variant slot.
    pub counts: Option<Vec<usize>>,
    /// Every rank's input.
    pub inputs: Arc<Vec<Vec<u8>>>,
    /// Every rank's reference output; a single entry when all ranks must
    /// produce the same bytes.
    expected: Vec<Vec<u8>>,
}

impl Variant {
    /// The bytes `rank` must produce.
    pub fn expected(&self, rank: usize) -> &[u8] {
        match self.expected.as_slice() {
            [same] => same,
            per_rank => &per_rank[rank],
        }
    }

    /// Make `rank` expect something the collective cannot produce; for the
    /// self-test of the failure count.
    #[cfg(test)]
    pub fn corrupt_expected(&mut self, rank: usize) {
        if let [same] = self.expected.as_slice() {
            self.expected = vec![same.clone(); P];
        }
        self.expected[rank][0] ^= 0xff;
    }
}

/// One seeded slot.
pub struct Slot {
    pub name: &'static str,
    pub variants: Vec<Variant>,
}

/// A seeded cycle.
pub struct Cycle {
    pub slots: Vec<Slot>,
    seed: u64,
}

/// The order in which a rank walks the slots: a fresh seeded permutation
/// every cycle, the same on every rank because every rank draws from the
/// same stream. A run therefore averages over slot orders instead of being
/// a measurement of the one order its seed happened to pick.
pub struct Walk {
    rng: Rng,
    pub order: Vec<usize>,
    /// Cycles started so far; selects each slot's variant.
    pub cycle: usize,
}

impl Walk {
    /// Move to the next cycle.
    pub fn advance(&mut self) {
        self.rng.shuffle(&mut self.order);
        self.cycle += 1;
    }
}

fn variant(
    spec: &SlotSpec,
    args: CollArgs,
    counts: Option<Vec<usize>>,
    inputs: Arc<Vec<Vec<u8>>>,
) -> Variant {
    let mut expected = match &counts {
        Some(c) => expected_outputs_v(spec.op, spec.dtype, args.rop, c, &inputs),
        None => expected_outputs(spec.op, args.root, spec.dtype, args.rop, &inputs),
    }
    .expect("reference reduction accepts the generated inputs");
    if expected.iter().all(|e| *e == expected[0]) {
        expected.truncate(1);
    }
    Variant {
        args,
        counts,
        inputs,
        expected,
    }
}

impl Cycle {
    /// Generate inputs from `seed` and compute the reference outputs.
    pub fn build(specs: &[SlotSpec], seed: u64) -> Cycle {
        // The run loop agrees on its last batch without extra messages
        // because no rank can leave an allreduce before every rank entered
        // it; see `world::PhaseCtl`.
        assert!(
            specs.iter().any(|s| matches!(s.op, Allreduce)),
            "every cycle needs a fully synchronising slot"
        );
        let slots = specs
            .iter()
            .map(|spec| {
                let mut rng = Rng::new(seed, spec.name);
                let args = |root| CollArgs {
                    op: spec.op,
                    alg: spec.alg,
                    root,
                    dtype: spec.dtype,
                    rop: ReduceOp::Sum,
                };
                let variants = match spec.shape {
                    Ragged { total } => {
                        let counts = ragged_counts(&mut rng, P, total);
                        let blocks: Vec<Vec<u8>> = counts
                            .iter()
                            .map(|&c| payload(&mut rng, spec.dtype, c))
                            .collect();
                        (0..P)
                            .map(|shift| {
                                let at = |r: usize| (r + shift) % P;
                                let counts = (0..P).map(|r| counts[at(r)]).collect();
                                let inputs = (0..P).map(|r| blocks[at(r)].clone()).collect();
                                variant(spec, args(0), Some(counts), Arc::new(inputs))
                            })
                            .collect()
                    }
                    Uniform { bytes } => {
                        let inputs: Arc<Vec<Vec<u8>>> = Arc::new(
                            (0..P)
                                .map(|_| payload(&mut rng, spec.dtype, bytes))
                                .collect(),
                        );
                        let roots = if matches!(spec.op, Bcast | Reduce) {
                            P
                        } else {
                            1
                        };
                        (0..roots)
                            .map(|root| variant(spec, args(root), None, Arc::clone(&inputs)))
                            .collect()
                    }
                };
                Slot {
                    name: spec.name,
                    variants,
                }
            })
            .collect();
        Cycle { slots, seed }
    }

    /// The walk every rank of a world starts from.
    pub fn walk(&self) -> Walk {
        Walk {
            rng: Rng::new(self.seed, "slot-order"),
            order: (0..self.slots.len()).collect(),
            cycle: 0,
        }
    }

    /// Digest of everything the seed decided: inputs, counts, slot orders.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for v in self.slots.iter().flat_map(|s| &s.variants) {
            for c in v.counts.iter().flatten() {
                bytes.extend_from_slice(&(*c as u64).to_le_bytes());
            }
            for input in v.inputs.iter() {
                bytes.extend_from_slice(&fnv1a(input).to_le_bytes());
            }
        }
        let mut walk = self.walk();
        for _ in 0..8 {
            walk.advance();
            bytes.extend(walk.order.iter().map(|&i| i as u8));
        }
        fnv1a(&bytes)
    }

    /// Bytes of inputs plus reference outputs the loop walks through
    /// (inputs shared between a slot's variants counted once).
    pub fn working_set_bytes(&self) -> usize {
        let len = |bufs: &[Vec<u8>]| bufs.iter().map(Vec::len).sum::<usize>();
        self.slots
            .iter()
            .map(|s| {
                let shared = Arc::ptr_eq(
                    &s.variants[0].inputs,
                    &s.variants[s.variants.len() - 1].inputs,
                );
                let counted = if shared { 1 } else { s.variants.len() };
                let inputs: usize = s.variants[..counted].iter().map(|v| len(&v.inputs)).sum();
                let expected: usize = s.variants.iter().map(|v| len(&v.expected)).sum();
                inputs + expected
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_decides_every_input() {
        for specs in [CYCLE_S, CYCLE_L] {
            assert_eq!(
                Cycle::build(specs, 1).digest(),
                Cycle::build(specs, 1).digest()
            );
            assert_ne!(
                Cycle::build(specs, 1).digest(),
                Cycle::build(specs, 2).digest()
            );
        }
    }

    #[test]
    fn slot_names_are_unique_within_a_cycle() {
        for specs in [CYCLE_S, CYCLE_L] {
            let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len());
        }
    }

    #[test]
    fn every_variant_is_a_supported_configuration() {
        for specs in [CYCLE_S, CYCLE_L] {
            let cycle = Cycle::build(specs, 5);
            for s in &cycle.slots {
                let rooted = matches!(s.variants[0].args.op, Bcast | Reduce);
                let ragged = s.variants[0].counts.is_some();
                assert_eq!(s.variants.len(), if rooted || ragged { P } else { 1 });
                for (i, v) in s.variants.iter().enumerate() {
                    match &v.counts {
                        Some(c) => {
                            exacoll_core::registry::supports_v(v.args.alg, v.args.op, c).unwrap();
                            assert_eq!(*c, {
                                let mut first = s.variants[0].counts.clone().unwrap();
                                first.rotate_left(i);
                                first
                            });
                        }
                        None => v.args.alg.supports(v.args.op, P).unwrap(),
                    }
                    if rooted {
                        assert_eq!(v.args.root, i);
                    }
                }
            }
        }
    }

    #[test]
    fn every_rank_walks_the_same_orders_and_they_vary() {
        let cycle = Cycle::build(CYCLE_S, 9);
        let (mut a, mut b) = (cycle.walk(), cycle.walk());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            a.advance();
            b.advance();
            assert_eq!(a.order, b.order);
            let mut sorted = a.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..CYCLE_S.len()).collect::<Vec<_>>());
            seen.insert(a.order.clone());
        }
        assert!(seen.len() > 40, "orders barely vary: {}", seen.len());
        assert_eq!(a.cycle, 50);
    }
}
