//! One collective call as a value.
//!
//! A [`Request`] is everything that determines the plans a run executes:
//! the collective and its arguments, the payload shape (one size for every
//! rank, or a per-rank count vector), how many tenants share the runtime,
//! and the optimizer passes with their thresholds. Command lines, launch
//! worker argv, replay artifact headers, the plan-cache key and the
//! profiler all carry this one type, and its constructor is the only place
//! the shape rules live:
//!
//! * alltoall input is `p` equal blocks — a requested size is rounded **up**
//!   to the next multiple of `p`, so a run never moves fewer bytes than it
//!   was asked for and a non-zero request never rounds to an empty block;
//!   barrier carries no payload;
//! * the algorithm must support the collective on this shape
//!   ([`Algorithm::supports`] / [`supports_v`]) and `root` must be a rank;
//! * a reducing collective moves whole elements (per rank, and per count
//!   for reduce_scatter_v);
//! * no region of the (merged) plan may reach 4 GiB — a compiled span
//!   stores `u32` byte totals.
//!
//! Uniform versus irregular is decided by the methods here and nowhere
//! else; beneath them [`lower`] / [`lower_v`] and [`expected_outputs`] /
//! [`expected_outputs_v`] stay public primitives (the data-plane hot path
//! `registry::execute` → `PlanKey` → cache hit never builds a `Request`).

use crate::reduce_scatter::elem_block_range;
use crate::reference::{expected_outputs, expected_outputs_v};
use crate::registry::{
    lower, lower_v, supports_v, whole_elements, Algorithm, CollArgs, CollectiveOp,
};
use crate::schedule::provenance::{Arena, Seg};
use crate::schedule::Schedule;
use crate::spec::{
    CountsSpec, OptSpec, Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES,
};
use crate::tenant::{merge_tenants, Tenant, MAX_TENANTS};
use exacoll_comm::{CommResult, Rank};

/// The seed launch workers, the profiler and `exacoll record` generate
/// inputs from unless told otherwise.
pub const DEFAULT_SEED: u64 = 42;

/// Deterministic pseudo-random bytes: a SplitMix64 stream keyed on
/// `(seed, stream)`. Stable across platforms, so every process of a launch
/// reconstructs every rank's input without exchanging a byte, and an
/// artifact recorded from a seed is reproducible anywhere.
pub fn payload(seed: u64, stream: usize, len: usize) -> Vec<u8> {
    let mut state = seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The payload shape of a request: one size for every rank, or the
/// irregular ("v") variant's byte count per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Uniform { p: usize, n: usize },
    Counts(CountsSpec),
}

/// One validated collective call. See the module docs for the rules the
/// constructors enforce; fields are private so they cannot be broken later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    args: CollArgs,
    shape: Shape,
    tenants: usize,
    opt: OptSpec,
    chunk: usize,
    fuse: usize,
}

impl Request {
    /// A single-tenant, pass-free request for `args` on `p` ranks of `size`
    /// input bytes each, normalised per the alltoall and barrier rules.
    ///
    /// # Errors
    ///
    /// A one-line reason when the shape breaks a rule of the module docs.
    pub fn uniform(args: CollArgs, p: usize, size: usize) -> Result<Request, String> {
        let n = match args.op {
            CollectiveOp::Alltoall if p > 0 => size
                .checked_next_multiple_of(p)
                .ok_or_else(|| format!("alltoall of {size} B overflows when padded"))?,
            CollectiveOp::Barrier => 0,
            _ => size,
        };
        Request::checked(args, Shape::Uniform { p, n })
    }

    /// A single-tenant, pass-free request for the irregular variant of
    /// `args` over `counts`; errors as [`Request::uniform`].
    pub fn irregular(args: CollArgs, counts: CountsSpec) -> Result<Request, String> {
        Request::checked(args, Shape::Counts(counts))
    }

    fn checked(args: CollArgs, shape: Shape) -> Result<Request, String> {
        let req = Request {
            args,
            shape,
            tenants: 1,
            opt: OptSpec::NONE,
            chunk: OPT_PIPELINE_CHUNK_BYTES,
            fuse: OPT_AGGREGATE_MAX_FUSE_BYTES,
        };
        req.check()?;
        Ok(req)
    }

    /// The same call run by `tenants` concurrent tenants in disjoint tag
    /// windows.
    pub fn with_tenants(mut self, tenants: usize) -> Result<Request, String> {
        self.tenants = tenants;
        self.check()?;
        Ok(self)
    }

    /// The same call with optimizer passes and their thresholds.
    pub fn with_opt(mut self, opt: OptSpec, chunk: usize, fuse: usize) -> Result<Request, String> {
        if chunk == 0 || fuse == 0 {
            return Err("the chunk and fuse thresholds must be at least 1 byte".into());
        }
        (self.opt, self.chunk, self.fuse) = (opt, chunk, fuse);
        Ok(self)
    }

    /// The same shape run by another algorithm, keeping the passes.
    pub fn with_alg(mut self, alg: Algorithm) -> Result<Request, String> {
        self.args.alg = alg;
        self.check()?;
        Ok(self)
    }

    fn check(&self) -> Result<(), String> {
        let CollArgs { op, alg, root, .. } = self.args;
        if self.tenants == 0 || self.tenants > MAX_TENANTS {
            return Err(format!(
                "tenants must be between 1 and {MAX_TENANTS} (got {})",
                self.tenants
            ));
        }
        let p = self.ranks();
        match &self.shape {
            Shape::Uniform { .. } => alg.supports(op, p)?,
            Shape::Counts(c) => supports_v(alg, op, c.counts())?,
        }
        if root >= p {
            return Err(format!("root {root} is not one of {p} rank(s)"));
        }
        let elements: &[usize] = match &self.shape {
            Shape::Uniform { n, .. } => std::slice::from_ref(n),
            Shape::Counts(c) => c.counts(),
        };
        for &n in elements {
            whole_elements(&self.args, n)?;
        }
        // The widest region of one tenant's plan (gathers lay every rank's
        // block side by side), times the tenants merging stacks into one
        // input and one output view.
        let widest = match (&self.shape, op) {
            (Shape::Uniform { n, .. }, CollectiveOp::Gather | CollectiveOp::Allgather) => {
                n.checked_mul(p)
            }
            _ => Some(self.bytes()),
        };
        if widest
            .and_then(|w| w.checked_mul(self.tenants))
            .and_then(|w| u32::try_from(w).ok())
            .is_none()
        {
            return Err(format!(
                "{op} of {} B on {p} ranks addresses 4 GiB or more in one region",
                self.bytes()
            ));
        }
        Ok(())
    }

    /// The collective and its arguments.
    pub fn args(&self) -> &CollArgs {
        &self.args
    }

    /// The count vector of an irregular request.
    pub fn counts(&self) -> Option<&CountsSpec> {
        match &self.shape {
            Shape::Uniform { .. } => None,
            Shape::Counts(c) => Some(c),
        }
    }

    /// How many tenants run the call concurrently.
    pub fn tenants(&self) -> usize {
        self.tenants
    }

    /// The optimizer passes applied after lowering.
    pub fn opt(&self) -> &OptSpec {
        &self.opt
    }

    /// The pipelining chunk threshold.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The aggregation fuse ceiling.
    pub fn fuse(&self) -> usize {
        self.fuse
    }

    /// The algorithm with its passes; its `spec()` is the `alg[@passes]`
    /// label of logs and artifact names.
    pub fn variant(&self) -> Variant {
        Variant {
            alg: self.args.alg,
            opt: self.opt,
        }
    }

    /// Communicator size.
    pub fn ranks(&self) -> usize {
        match &self.shape {
            Shape::Uniform { p, .. } => *p,
            Shape::Counts(c) => c.ranks(),
        }
    }

    /// The size the request is labelled and bucketed by: input bytes per
    /// rank for a uniform shape, the vector's total for an irregular one.
    pub fn bytes(&self) -> usize {
        match &self.shape {
            Shape::Uniform { n, .. } => *n,
            Shape::Counts(c) => c.total(),
        }
    }

    /// One tenant's input length at `rank`: allgatherv ranks contribute
    /// their own count, every reduce_scatter_v rank the full total.
    pub fn input_len(&self, rank: Rank) -> usize {
        match &self.shape {
            Shape::Uniform { n, .. } => *n,
            Shape::Counts(c) if self.args.op == CollectiveOp::ReduceScatter => c.total(),
            Shape::Counts(c) => c.counts()[rank],
        }
    }

    /// The payload for logs: `64 B per rank`, `counts [96,0,24,8] (128 B
    /// total)`, prefixed by the tenant count on anything but a plain
    /// uniform call.
    pub fn describe(&self) -> String {
        match &self.shape {
            Shape::Uniform { n, .. } if self.tenants == 1 => format!("{n} B per rank"),
            Shape::Uniform { n, .. } => format!("{} tenant(s), {n} B per rank", self.tenants),
            Shape::Counts(c) => format!(
                "{} tenant(s), counts [{c}] ({} B total)",
                self.tenants,
                c.total()
            ),
        }
    }

    /// One tenant's lowered plans, one per rank, before any pass.
    pub fn lower_world(&self) -> Vec<Schedule> {
        (0..self.ranks())
            .map(|rank| match &self.shape {
                Shape::Uniform { p, n } => lower(&self.args, *p, rank, *n),
                Shape::Counts(c) => lower_v(&self.args, rank, c.counts()),
            })
            .collect()
    }

    /// `world` relocated into each tenant's tag window: `[tenant][rank]`.
    pub fn tenant_worlds(&self, world: &[Schedule]) -> Vec<Vec<Schedule>> {
        (0..self.tenants)
            .map(|t| world.iter().map(|s| Tenant::new(t).rewrite(s)).collect())
            .collect()
    }

    /// Each rank's tenants spliced into the one plan it executes; a single
    /// tenant's world comes back as it is.
    pub fn merge(&self, mut worlds: Vec<Vec<Schedule>>) -> Vec<Schedule> {
        if worlds.len() == 1 {
            return worlds.swap_remove(0);
        }
        (0..self.ranks())
            .map(|r| merge_tenants(&worlds.iter().map(|w| w[r].clone()).collect::<Vec<_>>()))
            .collect()
    }

    /// `rank`'s input for `tenant`: [`payload`] on a stream no other
    /// (tenant, rank) of this request shares.
    pub fn input(&self, seed: u64, tenant: usize, rank: Rank) -> Vec<u8> {
        payload(seed, tenant * self.ranks() + rank, self.input_len(rank))
    }

    /// What every rank feeds the plan it executes: its tenants' inputs in
    /// tenant order.
    pub fn inputs(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..self.ranks())
            .map(|r| {
                (0..self.tenants)
                    .flat_map(|t| self.input(seed, t, r))
                    .collect()
            })
            .collect()
    }

    /// The output every rank must produce from `inputs` (the layout of
    /// [`Request::inputs`]): each tenant's sequential reference, in tenant
    /// order. A rank whose plan reads no input — every bcast rank but the
    /// root — may pass none.
    pub fn reference(&self, inputs: &[Vec<u8>]) -> CommResult<Vec<Vec<u8>>> {
        let a = &self.args;
        let mut out = vec![Vec::new(); self.ranks()];
        for t in 0..self.tenants {
            let slice: Vec<Vec<u8>> = inputs
                .iter()
                .enumerate()
                .map(|(r, i)| {
                    let len = self.input_len(r);
                    i.get(t * len..(t + 1) * len).unwrap_or_default().to_vec()
                })
                .collect();
            let expect = match &self.shape {
                Shape::Uniform { .. } => expected_outputs(a.op, a.root, a.dtype, a.rop, &slice),
                Shape::Counts(c) => expected_outputs_v(a.op, a.dtype, a.rop, c.counts(), &slice),
            }?;
            for (o, e) in out.iter_mut().zip(expect) {
                o.extend(e);
            }
        }
        Ok(out)
    }

    /// What every rank's output is *by definition*, as segments over the
    /// ranks' inputs built in `arena` — the symbolic twin of
    /// [`Request::reference`], in the same layout: bcast is the root's
    /// input; gather (at the root) and allgather the rank-ordered
    /// concatenation; alltoall block `r` of every rank's input; reduce (at
    /// the root), allreduce and reduce_scatter the matching window of every
    /// rank's input folded in rank order under the request's `(dtype, op)`;
    /// barrier nothing. A lowered world computes the collective exactly when
    /// [`Arena::equivalent`] accepts its
    /// [`provenance`](crate::schedule::eval::provenance) against this — for
    /// the reducing collectives typically as `Reordered`, no algorithm being
    /// obliged to fold in rank order.
    pub fn denotation(&self, arena: &mut Arena) -> Vec<Vec<Seg>> {
        let a = &self.args;
        let p = self.ranks();
        let lens: Vec<usize> = (0..p).map(|r| self.input_len(r)).collect();
        let inputs: Vec<_> = (0..p).map(|q| arena.input(q)).collect();
        let fold = inputs[1..].iter().fold(inputs[0], |acc, &rhs| {
            arena.reduce((a.dtype, a.rop), acc, rhs, 0, 0)
        });
        let mut out = vec![Vec::new(); p];
        for t in 0..self.tenants {
            // Tenant `t`'s share of a rank's input follows its predecessors'.
            let seg = |expr, of: Rank, at: usize, len: usize| Seg {
                len,
                expr,
                at: (t * lens[of] + at) as i64,
            };
            for (r, out) in out.iter_mut().enumerate() {
                let (mine, at_root) = (lens[r], r == a.root);
                match a.op {
                    CollectiveOp::Bcast => {
                        Seg::push(out, seg(inputs[a.root], a.root, 0, lens[a.root]))
                    }
                    CollectiveOp::Gather | CollectiveOp::Reduce if !at_root => {}
                    CollectiveOp::Gather | CollectiveOp::Allgather => {
                        for (q, &input) in inputs.iter().enumerate() {
                            Seg::push(out, seg(input, q, 0, lens[q]));
                        }
                    }
                    CollectiveOp::Alltoall => {
                        for (q, &input) in inputs.iter().enumerate() {
                            Seg::push(out, seg(input, q, r * (mine / p), mine / p));
                        }
                    }
                    CollectiveOp::Reduce | CollectiveOp::Allreduce => {
                        Seg::push(out, seg(fold, r, 0, mine))
                    }
                    CollectiveOp::ReduceScatter => {
                        let (start, end) = match &self.shape {
                            Shape::Uniform { n, .. } => elem_block_range(*n, a.dtype.size(), p, r),
                            Shape::Counts(c) => {
                                let start = c.counts()[..r].iter().sum();
                                (start, start + c.counts()[r])
                            }
                        };
                        Seg::push(out, seg(fold, r, start, end - start));
                    }
                    CollectiveOp::Barrier => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::verify::verify;
    use exacoll_comm::DType;

    fn coll(op: CollectiveOp, alg: Algorithm) -> CollArgs {
        CollArgs::new(op, alg)
    }

    #[test]
    fn sizes_normalise_once_and_in_one_direction() {
        let a2a = coll(CollectiveOp::Alltoall, Algorithm::Pairwise);
        let r = Request::uniform(a2a, 6, 1000).unwrap();
        assert_eq!((r.input_len(0), r.bytes(), r.ranks()), (1002, 1002, 6));
        // Idempotent, so a worker re-parsing the launcher's argv agrees.
        assert_eq!(Request::uniform(a2a, 6, 1002).unwrap(), r);
        assert_eq!(Request::uniform(a2a, 6, 2).unwrap().bytes(), 6);
        assert_eq!(Request::uniform(a2a, 6, 0).unwrap().bytes(), 0);
        let bar = coll(CollectiveOp::Barrier, Algorithm::Dissemination { k: 2 });
        assert_eq!(Request::uniform(bar, 4, 4096).unwrap().bytes(), 0);
    }

    #[test]
    fn shapes_lower_would_panic_on_are_errors() {
        let ring = |op| coll(op, Algorithm::Ring);
        let err = |r: Result<Request, String>| r.unwrap_err();
        assert!(Request::uniform(ring(CollectiveOp::Alltoall), 4, 8).is_err());
        assert!(Request::uniform(ring(CollectiveOp::Allgather), 0, 8).is_err());
        let rooted = CollArgs {
            root: 4,
            ..ring(CollectiveOp::Bcast)
        };
        assert!(err(Request::uniform(rooted, 4, 8)).contains("root 4"));
        let f64s = CollArgs {
            dtype: DType::F64,
            ..ring(CollectiveOp::Allreduce)
        };
        assert!(err(Request::uniform(f64s, 4, 12)).contains("whole number of f64"));
        // 1 GiB blocks gathered from four ranks make a 4 GiB region; so do
        // two tenants of 2 GiB each.
        let wide = err(Request::uniform(ring(CollectiveOp::Allgather), 4, 1 << 30));
        assert!(wide.contains("4 GiB"), "{wide}");
        let two = Request::uniform(ring(CollectiveOp::Allreduce), 4, 1 << 31).unwrap();
        assert!(err(two.clone().with_tenants(2)).contains("4 GiB"));
        assert!(two.clone().with_tenants(0).is_err());
        assert!(two.clone().with_tenants(MAX_TENANTS + 1).is_err());
        assert!(two.with_opt(OptSpec::PIPELINE, 0, 1).is_err());

        let counts = |v: &[usize]| CountsSpec::new(v.to_vec()).unwrap();
        let ragged = counts(&[32, 0, 8, 16]);
        let bruck = coll(CollectiveOp::Allgather, Algorithm::Bruck);
        assert!(err(Request::irregular(bruck, ragged.clone())).contains("uniform"));
        assert!(Request::irregular(ring(CollectiveOp::Allreduce), ragged).is_err());
        let rs = CollArgs {
            dtype: DType::I32,
            ..ring(CollectiveOp::ReduceScatter)
        };
        assert!(err(Request::irregular(rs, counts(&[8, 6, 0, 4]))).contains("whole number"));
        Request::irregular(rs, counts(&[8, 4, 0, 4])).unwrap();
        let huge = counts(&[1 << 31, 1 << 31]);
        assert!(err(Request::irregular(ring(CollectiveOp::Allgather), huge)).contains("4 GiB"));
        assert!(CountsSpec::new(vec![usize::MAX, 1]).is_err());
    }

    #[test]
    fn one_type_answers_for_both_shapes_and_any_tenant_count() {
        let rs = coll(CollectiveOp::ReduceScatter, Algorithm::Ring);
        let v = Request::irregular(rs, CountsSpec::new(vec![8, 24, 0, 16]).unwrap()).unwrap();
        assert_eq!((v.ranks(), v.bytes(), v.input_len(2)), (4, 48, 48));
        let ag = coll(CollectiveOp::Allgather, Algorithm::Ring);
        let v = Request::irregular(ag, CountsSpec::new(vec![8, 24, 0, 16]).unwrap()).unwrap();
        assert_eq!((v.input_len(1), v.input_len(2)), (24, 0));
        assert_eq!(v.describe(), "1 tenant(s), counts [8,24,0,16] (48 B total)");

        let ar = coll(
            CollectiveOp::Allreduce,
            Algorithm::RecursiveMultiplying { k: 2 },
        );
        let one = Request::uniform(ar, 4, 16).unwrap();
        assert_eq!(one.describe(), "16 B per rank");
        let world = one.lower_world();
        assert_eq!(one.merge(one.tenant_worlds(&world)), world);
        let two = one.clone().with_tenants(2).unwrap();
        assert_eq!(two.describe(), "2 tenant(s), 16 B per rank");
        let merged = two.merge(two.tenant_worlds(&world));
        verify(&merged).unwrap();
        assert_eq!(merged[3].input.len(), 32);

        // Tenant 0's stream is the single-tenant stream; no two (tenant,
        // rank) pairs share one; the reference is each tenant's own.
        assert_eq!(two.input(7, 0, 3), one.input(7, 0, 3));
        assert_eq!(one.input(7, 0, 3), payload(7, 3, 16));
        assert_ne!(two.input(7, 1, 0), two.input(7, 0, 0));
        let inputs = two.inputs(7);
        assert_eq!(inputs[1], [two.input(7, 0, 1), two.input(7, 1, 1)].concat());
        let expect = two.reference(&inputs).unwrap();
        let solo = one.reference(&one.inputs(7)).unwrap();
        assert_eq!(expect[2][..16], solo[2][..]);
        assert_ne!(expect[2][16..], solo[2][..]);
        assert_eq!(payload(9, 3, 7).len(), 7);
        assert_ne!(payload(1, 0, 32), payload(2, 0, 32));
    }
}
