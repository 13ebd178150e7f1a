//! The symbolic memory: what every scratch byte *is*, not what it holds.
//!
//! The world walker of [`super::eval`] runs over either of two memories. The
//! byte one (`RankMem`) moves data; this one moves names. A rank's buffer is
//! a map of sorted disjoint pieces `[start, end) ↦ (expr, off)` meaning
//! `mem[x] = expr(x − off)`, kept in the [`Intervals`] container `compile`
//! records written bytes in, so touching pieces with equal `(expr, off)` are
//! one piece. An expression is a function from a byte coordinate to a byte:
//!
//! ```text
//! expr ::= Input(rank)                                  rank's input, byte y
//!        | Reduce { dtype, op, lhs, rhs, delta, phase } lhs(y) ⊕ rhs(y + delta),
//!                                                       elements starting at y ≡ phase (mod size)
//! ```
//!
//! `Reduce` is ordered — `lhs` is the accumulator the engine reduces into —
//! and expressions are hash-consed in an [`Arena`] shared by the worlds
//! being compared, so equal expressions have equal ids. A send carries
//! `(len, expr, at)` [`Seg`]ments, a receive or copy lands them, a reduce
//! zips both operands at their common boundaries; reading a byte nothing
//! defined is an error.
//!
//! Nothing here looks at a byte or loops over one: a world's outputs come
//! out as one `Vec<Seg>` per rank whose length depends on the plan's steps
//! and not on the message size. Merging is what makes the result a normal
//! form — a transfer that was chunked, fused or left alone writes the same
//! pieces — so "these two plans compute the same function" is `==` on the
//! outputs ([`Arena::equivalent`]), and "this plan computes allreduce" is
//! the same comparison against the collective's definition written as
//! segments (`Request::denotation`).

use super::compiled::{CompiledSchedule, Intervals, Span};
use super::eval::{EvalError, Memory};
use exacoll_comm::{CommError, DType, Rank, ReduceOp};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// An expression's index in its [`Arena`]; equal ids are equal expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    Input(Rank),
    Reduce {
        dtype: DType,
        op: ReduceOp,
        lhs: ExprId,
        rhs: ExprId,
        delta: i64,
        phase: usize,
    },
}

/// `len` consecutive bytes that are `expr(at)`, `expr(at + 1)`, ….
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// How many bytes.
    pub len: usize,
    /// What they are a window of.
    pub expr: ExprId,
    /// The window's first coordinate.
    pub at: i64,
}

impl Seg {
    /// Append `seg` to `out`, extending the last segment when `seg` continues
    /// it, so a byte string has one spelling. Empty segments are dropped.
    pub fn push(out: &mut Vec<Seg>, seg: Seg) {
        if seg.len == 0 {
            return;
        }
        match out.last_mut() {
            Some(last) if last.expr == seg.expr && last.at + last.len as i64 == seg.at => {
                last.len += seg.len
            }
            _ => out.push(seg),
        }
    }
}

/// A segment list consumed a bite at a time, for walking two lists at their
/// common boundaries.
struct Bites<'a> {
    rest: std::slice::Iter<'a, Seg>,
    cur: Option<Seg>,
}

impl<'a> Bites<'a> {
    fn of(segs: &'a [Seg]) -> Bites<'a> {
        let mut rest = segs.iter();
        let cur = rest.next().copied();
        Bites { rest, cur }
    }

    /// Bytes left in the current segment; `None` once the list is used up.
    fn left(&self) -> Option<usize> {
        self.cur.map(|s| s.len)
    }

    /// Cut `len` bytes (at most [`Bites::left`]) off the front.
    fn bite(&mut self, len: usize) -> Seg {
        let cur = self.cur.as_mut().expect("bite past the end");
        let head = Seg { len, ..*cur };
        cur.at += len as i64;
        cur.len -= len;
        if cur.len == 0 {
            self.cur = self.rest.next().copied();
        }
        head
    }
}

/// How two equivalent worlds relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Equivalence {
    /// Every output byte has the same expression: the same inputs reduced
    /// in the same order.
    Same,
    /// Equal only up to associativity and commutativity of the reduction
    /// operators: bit-identical for the wrapping integer types, rounding
    /// may differ for floats (MPI's own latitude for predefined operators,
    /// and what changing the radix already does).
    Reordered,
}

/// The first output bytes on which two worlds differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The rank whose output differs.
    pub rank: Rank,
    /// The output bytes in question.
    pub range: Range<usize>,
    /// What they should be, rendered.
    pub want: String,
    /// What they are, rendered.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} output bytes {}..{} should be {} but are {}",
            self.rank, self.range.start, self.range.end, self.want, self.got
        )
    }
}

/// An expression up to associativity and commutativity: the operands of a
/// maximal tree of like `Reduce` nodes, each with the coordinate shift it is
/// read at and how often it occurs, sorted. A non-`Reduce` expression is its
/// own single operand with `key` `None`.
struct Flat {
    /// `(dtype, op, phase)` of the tree.
    key: Option<(DType, ReduceOp, usize)>,
    operands: Vec<(ExprId, i64, u64)>,
}

/// The hash-consing store of expressions. Worlds walked with one arena can
/// be compared; ids of different arenas mean nothing to each other.
#[derive(Default)]
pub struct Arena {
    nodes: Vec<Expr>,
    ids: HashMap<Expr, ExprId>,
    flat: HashMap<ExprId, Rc<Flat>>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Arena {
        Arena::default()
    }

    fn intern(&mut self, e: Expr) -> ExprId {
        *self.ids.entry(e).or_insert_with(|| {
            let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 expressions");
            self.nodes.push(e);
            ExprId(id)
        })
    }

    /// How many distinct expressions have been built.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no expression has been built yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `rank`'s input bytes.
    pub fn input(&mut self, rank: Rank) -> ExprId {
        self.intern(Expr::Input(rank))
    }

    /// `lhs(y) ⊕ rhs(y + delta)` on `dtype` elements that start where
    /// `y ≡ phase (mod dtype.size())`.
    pub fn reduce(
        &mut self,
        (dtype, op): (DType, ReduceOp),
        lhs: ExprId,
        rhs: ExprId,
        delta: i64,
        phase: usize,
    ) -> ExprId {
        self.intern(Expr::Reduce {
            dtype,
            op,
            lhs,
            rhs,
            delta,
            phase: phase % dtype.size(),
        })
    }

    /// `seg` for a person: `in3[0..4096)`, `sum:f64(in0, in1)[8..16)`.
    /// Operands read at another coordinate show the shift (`in1{+8}`); an
    /// expression of more than a dozen operands is cut short with `…`.
    pub fn render(&self, seg: &Seg) -> String {
        let mut out = String::new();
        self.render_expr(seg.expr, 0, &mut 12, &mut out);
        out + &format!("[{}..{})", seg.at, seg.at + seg.len as i64)
    }

    fn render_expr(&self, e: ExprId, shift: i64, budget: &mut usize, out: &mut String) {
        if *budget == 0 {
            out.push('…');
            return;
        }
        match self.nodes[e.0 as usize] {
            Expr::Input(rank) => {
                *budget -= 1;
                out.push_str(&format!("in{rank}"));
                if shift != 0 {
                    out.push_str(&format!("{{{shift:+}}}"));
                }
            }
            Expr::Reduce {
                dtype,
                op,
                lhs,
                rhs,
                delta,
                ..
            } => {
                out.push_str(&format!("{op}:{dtype}("));
                self.render_expr(lhs, shift, budget, out);
                out.push_str(", ");
                self.render_expr(rhs, shift + delta, budget, out);
                out.push(')');
            }
        }
    }

    /// `root` up to associativity and commutativity, memoised per root. The
    /// tree is unfolded from the top, each node once however often it is
    /// shared (children have smaller ids than their parents, so taking the
    /// largest pending id first sees every use of a node before the node):
    /// linear in the nodes reachable, where a ring reduction nests p − 1 deep
    /// and a buggy plan may share without bound.
    fn flat(&mut self, root: ExprId) -> Rc<Flat> {
        if let Some(known) = self.flat.get(&root) {
            return known.clone();
        }
        let key = match self.nodes[root.0 as usize] {
            Expr::Input(_) => None,
            Expr::Reduce {
                dtype, op, phase, ..
            } => Some((dtype, op, phase)),
        };
        // Per pending node, the shifts it is read at and how often.
        let mut pending = BTreeMap::from([(root, vec![(0i64, 1u64)])]);
        let mut operands = Vec::new();
        while let Some((e, mut uses)) = pending.pop_last() {
            uses.sort_unstable();
            uses.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 = kept.1.saturating_add(next.1);
                }
                same
            });
            for (shift, n) in uses {
                // A node joins the tree when it is the same reduction on the
                // same element grid; anything else is an operand.
                match (self.nodes[e.0 as usize], key) {
                    (
                        Expr::Reduce {
                            dtype,
                            op,
                            lhs,
                            rhs,
                            delta,
                            phase,
                        },
                        Some((d, o, grid)),
                    ) if (dtype, op) == (d, o)
                        && (phase as i64 - shift - grid as i64).rem_euclid(d.size() as i64)
                            == 0 =>
                    {
                        pending.entry(lhs).or_default().push((shift, n));
                        pending.entry(rhs).or_default().push((shift + delta, n));
                    }
                    _ => operands.push((e, shift, n)),
                }
            }
        }
        operands.sort_unstable();
        let flat = Rc::new(Flat { key, operands });
        self.flat.insert(root, flat.clone());
        flat
    }

    /// Whether `want` and `got` are the same bytes whatever order the
    /// reductions inside them run in.
    fn reordering(&mut self, want: &Seg, got: &Seg) -> bool {
        let (w, g) = (self.flat(want.expr), self.flat(got.expr));
        let (Some((wd, wo, wph)), Some((gd, go, gph))) = (w.key, g.key) else {
            return false;
        };
        // Both windows start at the same output byte, so operand shifts and
        // element grids are compared relative to the window starts.
        let skew = got.at - want.at;
        (wd, wo) == (gd, go)
            && (gph as i64 - wph as i64 - skew).rem_euclid(wd.size() as i64) == 0
            && w.operands.len() == g.operands.len()
            && w.operands
                .iter()
                .zip(&g.operands)
                .all(|(a, b)| (a.0, a.1, a.2) == (b.0, b.1 + skew, b.2))
    }

    /// Compare two worlds' outputs (one `Vec<Seg>` per rank, both walked
    /// with this arena): identical expression for expression, equal up to
    /// reduction order, or different.
    ///
    /// # Errors
    ///
    /// The first rank and output byte range where they differ, with both
    /// sides rendered.
    pub fn equivalent(
        &mut self,
        all_want: &[Vec<Seg>],
        all_got: &[Vec<Seg>],
    ) -> Result<Equivalence, Divergence> {
        if all_want == all_got {
            return Ok(Equivalence::Same);
        }
        assert_eq!(all_want.len(), all_got.len(), "worlds of different sizes");
        let mut verdict = Equivalence::Same;
        for (rank, (want, got)) in all_want.iter().zip(all_got).enumerate() {
            // Allreduce, allgather, bcast: every rank holds what the last did.
            if rank > 0 && (want, got) == (&all_want[rank - 1], &all_got[rank - 1]) {
                continue;
            }
            let (mut w, mut g) = (Bites::of(want), Bites::of(got));
            let mut pos = 0;
            while let (Some(wl), Some(gl)) = (w.left(), g.left()) {
                let len = wl.min(gl);
                let (ws, gs) = (w.bite(len), g.bite(len));
                if ws != gs {
                    if !self.reordering(&ws, &gs) {
                        return Err(Divergence {
                            rank,
                            range: pos..pos + len,
                            want: self.render(&ws),
                            got: self.render(&gs),
                        });
                    }
                    verdict = Equivalence::Reordered;
                }
                pos += len;
            }
            if let Some(extra) = w.left().or(g.left()) {
                let side = |b: &Bites| b.cur.map_or("nothing".into(), |s| self.render(&s));
                return Err(Divergence {
                    rank,
                    range: pos..pos + extra,
                    want: side(&w),
                    got: side(&g),
                });
            }
        }
        Ok(verdict)
    }
}

/// One rank's scratch buffer as provenance: which expression every defined
/// byte is a window of.
#[derive(Debug, Default)]
pub(super) struct SymMem(Intervals<(ExprId, i64)>);

impl SymMem {
    /// `plan`'s scratch buffer with the rank's input in its input view.
    pub(super) fn load(arena: &mut Arena, plan: &CompiledSchedule) -> Result<SymMem, EvalError> {
        let mut mem = SymMem::default();
        let whole = Seg {
            len: plan.input_bytes(),
            expr: arena.input(plan.rank),
            at: 0,
        };
        mem.land(plan, plan.views().0, &vec![whole])?;
        Ok(mem)
    }
}

impl Memory for SymMem {
    type Payload = Vec<Seg>;
    type Shared = Arena;
    type Output = Vec<Seg>;

    fn payload_len(payload: &Vec<Seg>) -> usize {
        payload.iter().map(|s| s.len).sum()
    }

    fn gather(&self, plan: &CompiledSchedule, src: Span) -> Result<Vec<Seg>, EvalError> {
        let mut out = Vec::new();
        for r in plan.ranges_of(src) {
            let pieces = self.0.cover(r).ok_or_else(|| EvalError::Undefined {
                rank: plan.rank,
                range: r.clone(),
            })?;
            for (iv, (expr, off)) in pieces {
                let (start, end) = (iv.start.max(r.start), iv.end.min(r.end));
                let seg = Seg {
                    len: end - start,
                    expr: *expr,
                    at: start as i64 - off,
                };
                Seg::push(&mut out, seg);
            }
        }
        Ok(out)
    }

    fn land(
        &mut self,
        plan: &CompiledSchedule,
        dst: Span,
        payload: &Vec<Seg>,
    ) -> Result<(), EvalError> {
        let mut bites = Bites::of(payload);
        for r in plan.ranges_of(dst) {
            let mut x = r.start;
            while x < r.end {
                // A short payload fills a prefix, as the byte memory does.
                let Some(left) = bites.left() else {
                    return Ok(());
                };
                let seg = bites.bite(left.min(r.end - x));
                self.0.assign(x..x + seg.len, (seg.expr, x as i64 - seg.at));
                x += seg.len;
            }
        }
        Ok(())
    }

    fn reduce(
        &mut self,
        arena: &mut Arena,
        plan: &CompiledSchedule,
        dtype: DType,
        op: ReduceOp,
        src: Span,
        dst: Span,
    ) -> Result<(), EvalError> {
        // The refusals of `reduce_into`, then one of this memory's own: an
        // element assembled from two different expressions has no name.
        let refuse = |e: CommError| Err(EvalError::Compute(e.to_string()));
        if !op.supports(dtype) {
            return refuse(CommError::UnsupportedReduction { op, dtype });
        }
        if src.bytes() != dst.bytes() || !dst.bytes().is_multiple_of(dtype.size()) {
            return refuse(CommError::MisalignedBuffer {
                len: src.bytes(),
                dtype,
            });
        }
        let (acc, rhs) = (self.gather(plan, dst)?, self.gather(plan, src)?);
        let (mut a, mut b) = (Bites::of(&acc), Bites::of(&rhs));
        let mut out = Vec::new();
        while let (Some(al), Some(bl)) = (a.left(), b.left()) {
            let len = al.min(bl);
            if !len.is_multiple_of(dtype.size()) {
                return Err(EvalError::Compute(format!(
                    "rank {}: a {dtype} element of a reduce operand straddles two expressions",
                    plan.rank
                )));
            }
            let (lhs, rhs) = (a.bite(len), b.bite(len));
            let phase = lhs.at.rem_euclid(dtype.size() as i64) as usize;
            let expr = arena.reduce((dtype, op), lhs.expr, rhs.expr, rhs.at - lhs.at, phase);
            Seg::push(&mut out, Seg { expr, ..lhs });
        }
        self.land(plan, dst, &out)
    }

    fn output(&self, plan: &CompiledSchedule) -> Result<Vec<Seg>, EvalError> {
        self.gather(plan, plan.views().1)
    }
}

#[cfg(test)]
mod tests {
    use super::super::eval::provenance;
    use super::super::{Schedule, ScheduleBuilder, SgList};
    use super::*;

    /// Rank 0 sends its 16 input bytes to rank 1 as messages of `chunks`
    /// bytes; rank 1 receives them back to back and returns them.
    fn transfer(chunks: &[usize]) -> Vec<Schedule> {
        (0..2)
            .map(|rank| {
                let mut b = ScheduleBuilder::new(2, rank);
                let data = b.alloc(16);
                let mut at = 0;
                for &len in chunks {
                    match rank {
                        0 => b.send(1, 5, data.slice(at, len)),
                        _ => b.recv(0, 5, data.slice(at, len)),
                    }
                    at += len;
                }
                match rank {
                    0 => b.finish(data, SgList::empty()),
                    _ => b.finish(SgList::empty(), data),
                }
            })
            .collect()
    }

    #[test]
    fn chunked_and_whole_transfers_are_one_map() {
        let mut arena = Arena::new();
        let whole = provenance(&mut arena, &transfer(&[16])).unwrap();
        let in0 = arena.input(0);
        let all = Seg {
            len: 16,
            expr: in0,
            at: 0,
        };
        assert_eq!(whole, vec![vec![], vec![all]]);
        for chunks in [&[8, 8][..], &[4, 4, 4, 4], &[5, 11], &[1; 16]] {
            assert_eq!(provenance(&mut arena, &transfer(chunks)).unwrap(), whole);
        }
        // Chunks landing in each other's place are another map, and the
        // difference has an address.
        let mut swapped = transfer(&[8, 8]);
        swapped[1].steps.swap(0, 1);
        let got = provenance(&mut arena, &swapped).unwrap();
        let d = arena.equivalent(&whole, &got).unwrap_err();
        assert_eq!((d.rank, d.range.clone()), (1, 0..8));
        assert_eq!(
            d.to_string(),
            "rank 1 output bytes 0..8 should be in0[0..8) but are in0[8..16)"
        );
        // So is a world that returns less.
        let mut short = transfer(&[16]);
        short[1].output = SgList::from(0..12);
        let got = provenance(&mut arena, &short).unwrap();
        let d = arena.equivalent(&whole, &got).unwrap_err();
        assert_eq!((d.range, d.got.as_str()), (12..16, "nothing"));
    }

    /// One rank folding the 16-byte thirds of its input into one another —
    /// each step `(src, dst)` is `dst ⊕= src` — and returning third `out`.
    fn fold(dtype: DType, steps: &[(usize, usize)], out: usize) -> Vec<Schedule> {
        let mut b = ScheduleBuilder::new(1, 0);
        let input = b.alloc(48);
        for &(src, dst) in steps {
            let (src, dst) = (input.slice(16 * src, 16), input.slice(16 * dst, 16));
            b.reduce(dtype, ReduceOp::Sum, src, dst);
        }
        let out = input.slice(16 * out, 16);
        vec![b.finish(input, out)]
    }

    #[test]
    fn reductions_are_ordered_and_compared_up_to_order_on_request() {
        let mut arena = Arena::new();
        // (a ⊕ b) ⊕ c, a ⊕ (b ⊕ c), (c ⊕ a) ⊕ b: three expressions.
        let left = provenance(&mut arena, &fold(DType::F64, &[(1, 0), (2, 0)], 0)).unwrap();
        let right = provenance(&mut arena, &fold(DType::F64, &[(2, 1), (1, 0)], 0)).unwrap();
        let rotated = provenance(&mut arena, &fold(DType::F64, &[(0, 2), (1, 2)], 2)).unwrap();
        assert_eq!(
            arena.render(&left[0][0]),
            "sum:f64(sum:f64(in0, in0{+16}), in0{+32})[0..16)"
        );
        assert_eq!(
            arena.render(&right[0][0]),
            "sum:f64(in0, sum:f64(in0{+16}, in0{+32}))[0..16)"
        );
        assert_eq!(arena.equivalent(&left, &left), Ok(Equivalence::Same));
        assert_eq!(arena.equivalent(&left, &right), Ok(Equivalence::Reordered));
        assert_eq!(
            arena.equivalent(&left, &rotated),
            Ok(Equivalence::Reordered)
        );
        // Not everything with the right operands is a reordering: an
        // operand twice, an operand short, another element type.
        let twice = provenance(&mut arena, &fold(DType::F64, &[(1, 0), (1, 0)], 0)).unwrap();
        let short = provenance(&mut arena, &fold(DType::F64, &[(1, 0)], 0)).unwrap();
        let ints = provenance(&mut arena, &fold(DType::I64, &[(1, 0), (2, 0)], 0)).unwrap();
        for other in [&twice, &short, &ints] {
            let d = arena.equivalent(&left, other).unwrap_err();
            assert_eq!((d.rank, d.range), (0, 0..16));
        }
    }

    #[test]
    fn a_reduce_splits_its_operands_where_their_pieces_end() {
        // The accumulator is one piece, the operand two (its halves come
        // from different ranks): the result is two pieces, each naming its
        // own operand, and only whole elements may be cut apart.
        let world = |dtype: DType, cut: usize| -> Vec<Schedule> {
            (0..3)
                .map(|rank| {
                    let mut b = ScheduleBuilder::new(3, rank);
                    let own = b.alloc(16);
                    if rank != 0 {
                        b.send(0, 2, own.slice(0, if rank == 1 { cut } else { 16 - cut }));
                        return b.finish(own, SgList::empty());
                    }
                    let other = b.alloc(16);
                    b.recv(1, 2, other.slice(0, cut));
                    b.recv(2, 2, other.slice(cut, 16 - cut));
                    b.reduce(dtype, ReduceOp::Sum, other, own.clone());
                    b.finish(own.clone(), own)
                })
                .collect()
        };
        let mut arena = Arena::new();
        let out = provenance(&mut arena, &world(DType::I64, 8)).unwrap();
        let rendered: Vec<_> = out[0].iter().map(|s| arena.render(s)).collect();
        assert_eq!(
            rendered,
            ["sum:i64(in0, in1)[0..8)", "sum:i64(in0, in2{-8})[8..16)"]
        );
        let err = provenance(&mut arena, &world(DType::I64, 6)).unwrap_err();
        assert!(
            matches!(&err, EvalError::Compute(why) if why.contains("straddles")),
            "{err}"
        );
        // Bytes have no elements to straddle.
        provenance(&mut arena, &world(DType::U8, 6)).unwrap();
    }
}
