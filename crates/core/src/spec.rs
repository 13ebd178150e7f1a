//! The textual spec grammar for algorithms and collectives.
//!
//! This is the one parseable encoding used everywhere a configuration
//! crosses a process or file boundary: CLI flags (`--alg recmult:4`), the
//! argv handed to `exacoll launch` worker processes, and the header of
//! record/replay artifacts. [`Display`](std::fmt::Display) renders the
//! human form (`recmult(4)`); [`alg_to_spec`] renders the machine form this
//! module parses back.

use crate::registry::{Algorithm, CollectiveOp};
use exacoll_comm::{DType, ReduceOp};

/// The algorithm spec grammar, for error messages.
pub const ALG_SPECS: &str = "linear|ring|bruck|pairwise|binomial|recdoubling|\
knomial:K|recmult:K|genmult:K|kring:K|reduce+bcast:K|dissemination:K|gbruck:R|hier:PPN:K";

/// The optimizer spec grammar, for error messages.
pub const OPT_SPECS: &str = "none|pipeline|aggregate (comma-separated, aliases pipe|agg)";

/// Default chunk size for the pipelining pass: messages strictly larger than
/// this are split into chunks of at most this many bytes so consecutive
/// chunks of one logical transfer can occupy multiple NIC ports concurrently
/// (multi-rail striping) and small tails drop below the rendezvous
/// threshold. 1 MiB matches the region where per-message overheads stop
/// mattering and wire bandwidth dominates on the machine presets.
pub const OPT_PIPELINE_CHUNK_BYTES: usize = 1 << 20;

/// Default byte ceiling for the aggregation pass: consecutive same-peer,
/// same-tag sends are fused into one scatter-gather message only while the
/// combined payload stays at or below this bound, so fusion buys back
/// per-message α/overhead without pushing a latency-bound message into the
/// bandwidth-bound (or rendezvous) regime. 4 KiB is the classic eager-path
/// sweet spot.
pub const OPT_AGGREGATE_MAX_FUSE_BYTES: usize = 4096;

/// Which optimizer passes to apply to a lowered plan, as selected on a CLI
/// or carried in a spec string. Only the input-shape-preserving passes are
/// expressible here (pipeline, aggregate): these are the passes the
/// selection service may attach to an algorithm as a learnable variant.
/// Placement remapping needs a topology descriptor and is driven
/// explicitly (`exacoll opt --passes ...,remap`), not via `OptSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OptSpec {
    /// Chunk large messages ([`OPT_PIPELINE_CHUNK_BYTES`]).
    pub pipeline: bool,
    /// Fuse consecutive small same-peer messages
    /// ([`OPT_AGGREGATE_MAX_FUSE_BYTES`]).
    pub aggregate: bool,
}

impl OptSpec {
    /// No passes: the plan runs exactly as lowered.
    pub const NONE: OptSpec = OptSpec {
        pipeline: false,
        aggregate: false,
    };

    /// Pipeline only — the variant the selection service prices by default.
    pub const PIPELINE: OptSpec = OptSpec {
        pipeline: true,
        aggregate: false,
    };

    /// Whether any pass is enabled.
    pub fn is_none(&self) -> bool {
        !self.pipeline && !self.aggregate
    }
}

impl std::fmt::Display for OptSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&opt_to_spec(self))
    }
}

/// Parse an optimizer spec like `none`, `pipeline`, `agg`, `pipe,agg`.
pub fn parse_opt_spec(spec: &str) -> Result<OptSpec, String> {
    let mut o = OptSpec::NONE;
    if spec == "none" || spec.is_empty() {
        return Ok(o);
    }
    for tok in spec.split(',') {
        match tok {
            "pipeline" | "pipe" => o.pipeline = true,
            "aggregate" | "agg" => o.aggregate = true,
            other => {
                return Err(format!(
                    "unknown optimizer pass `{other}` (expected {OPT_SPECS})"
                ))
            }
        }
    }
    Ok(o)
}

/// Re-serialize an optimizer spec into the form [`parse_opt_spec`] accepts.
pub fn opt_to_spec(o: &OptSpec) -> String {
    match (o.pipeline, o.aggregate) {
        (false, false) => "none".into(),
        (true, false) => "pipeline".into(),
        (false, true) => "aggregate".into(),
        (true, true) => "pipeline,aggregate".into(),
    }
}

/// Parse a combined algorithm+optimizer variant spec: `ALG` or `ALG@OPT`
/// (e.g. `ring`, `recmult:4@pipeline`). A bare algorithm spec means "no
/// passes", so every pre-optimizer spec string still parses — persisted
/// selection tables written before the optimizer existed stay readable.
/// `@` is used as the separator because both sub-grammars already claim
/// `:`/`,` (radixes) and `+` (`reduce+bcast`).
pub fn parse_variant(spec: &str) -> Result<(Algorithm, OptSpec), String> {
    match spec.split_once('@') {
        None => Ok((parse_alg(spec)?, OptSpec::NONE)),
        Some((alg, opt)) => Ok((parse_alg(alg)?, parse_opt_spec(opt)?)),
    }
}

/// Re-serialize an (algorithm, optimizer) variant into the spec grammar
/// [`parse_variant`] accepts. Pass-free variants render as the bare
/// algorithm spec, byte-identical to the pre-optimizer grammar.
pub fn variant_to_spec(alg: &Algorithm, opt: &OptSpec) -> String {
    if opt.is_none() {
        alg_to_spec(alg)
    } else {
        format!("{}@{}", alg_to_spec(alg), opt_to_spec(opt))
    }
}

/// An algorithm together with the optimizer passes applied to its lowered
/// plan — the unit the selection service prices, learns over, and persists.
/// Pass-free variants are interchangeable with bare algorithms: they parse
/// from and render to the exact pre-optimizer spec grammar, so selection
/// tables written before the optimizer existed load unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variant {
    /// The registry algorithm that lowers the base plan.
    pub alg: Algorithm,
    /// The passes rewritten onto that plan before execution.
    pub opt: OptSpec,
}

impl Variant {
    /// The algorithm as lowered, with no passes applied.
    pub fn plain(alg: Algorithm) -> Variant {
        Variant {
            alg,
            opt: OptSpec::NONE,
        }
    }

    /// Parse a `ALG` or `ALG@OPT` spec (see [`parse_variant`]).
    pub fn parse(spec: &str) -> Result<Variant, String> {
        let (alg, opt) = parse_variant(spec)?;
        Ok(Variant { alg, opt })
    }

    /// The machine-form spec string (see [`variant_to_spec`]).
    pub fn spec(&self) -> String {
        variant_to_spec(&self.alg, &self.opt)
    }
}

impl From<Algorithm> for Variant {
    fn from(alg: Algorithm) -> Variant {
        Variant::plain(alg)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.opt.is_none() {
            write!(f, "{}", self.alg)
        } else {
            write!(f, "{}@{}", self.alg, self.opt)
        }
    }
}

/// Parse a collective name as rendered by [`CollectiveOp`]'s `Display`.
pub fn parse_op(name: &str) -> Result<CollectiveOp, String> {
    CollectiveOp::ALL
        .into_iter()
        .find(|op| op.to_string() == name)
        .ok_or_else(|| {
            let names: Vec<String> = CollectiveOp::ALL.iter().map(|o| o.to_string()).collect();
            format!("unknown op `{name}` (expected one of {})", names.join("|"))
        })
}

/// Parse an algorithm spec like `ring`, `knomial:8`, `kring:4`, `hier:8:4`.
/// Comma works as the separator too (`recmult,4`), so specs survive shells
/// and config formats where `:` is awkward.
pub fn parse_alg(spec: &str) -> Result<Algorithm, String> {
    let norm = spec.replace(',', ":");
    let mut parts = norm.split(':');
    let head = parts.next().unwrap_or_default();
    let mut num = || -> Result<usize, String> {
        parts
            .next()
            .ok_or_else(|| format!("`{spec}` needs a radix, e.g. `{head}:4`"))?
            .parse()
            .map_err(|_| format!("bad radix in `{spec}`"))
    };
    let alg = match head {
        "auto" => {
            return Err(
                "`auto` is not an algorithm: ask the selection service with `--select auto`".into(),
            )
        }
        "linear" | "spread" => Algorithm::Linear,
        "ring" => Algorithm::Ring,
        "bruck" => Algorithm::Bruck,
        "pairwise" => Algorithm::Pairwise,
        "knomial" | "binomial" => {
            if head == "binomial" {
                Algorithm::KnomialTree { k: 2 }
            } else {
                Algorithm::KnomialTree { k: num()? }
            }
        }
        "recmult" | "recdoubling" => {
            if head == "recdoubling" {
                Algorithm::RecursiveMultiplying { k: 2 }
            } else {
                Algorithm::RecursiveMultiplying { k: num()? }
            }
        }
        "genmult" => Algorithm::GeneralizedMultiplying { k: num()? },
        "kring" => Algorithm::KRing { k: num()? },
        "reduce+bcast" | "reducebcast" => Algorithm::ReduceBcast { k: num()? },
        "dissemination" => Algorithm::Dissemination { k: num()? },
        "gbruck" => Algorithm::GeneralizedBruck { r: num()? },
        "hier" => {
            let ppn = num()?;
            let k = num()?;
            Algorithm::Hierarchical { ppn, k }
        }
        other => {
            return Err(format!(
                "unknown algorithm `{other}` (expected {ALG_SPECS})"
            ))
        }
    };
    Ok(alg)
}

/// Re-serialize an algorithm into the spec grammar [`parse_alg`] accepts.
/// `Display` renders `recmult(4)` for humans; specs written to argv or
/// artifacts need the parseable `recmult:4` form instead.
pub fn alg_to_spec(alg: &Algorithm) -> String {
    match alg {
        Algorithm::Linear => "linear".into(),
        Algorithm::Ring => "ring".into(),
        Algorithm::Bruck => "bruck".into(),
        Algorithm::Pairwise => "pairwise".into(),
        Algorithm::KnomialTree { k } => format!("knomial:{k}"),
        Algorithm::RecursiveMultiplying { k } => format!("recmult:{k}"),
        Algorithm::GeneralizedMultiplying { k } => format!("genmult:{k}"),
        Algorithm::KRing { k } => format!("kring:{k}"),
        Algorithm::ReduceBcast { k } => format!("reduce+bcast:{k}"),
        Algorithm::Dissemination { k } => format!("dissemination:{k}"),
        Algorithm::GeneralizedBruck { r } => format!("gbruck:{r}"),
        Algorithm::Hierarchical { ppn, k } => format!("hier:{ppn}:{k}"),
    }
}

/// A per-rank count vector for the irregular ("v") collectives —
/// `allgatherv` contributes `counts[r]` bytes from rank `r`,
/// `reduce_scatter_v` leaves `counts[r]` bytes of the reduction at rank
/// `r`. Zero counts are legal (a rank may contribute or receive nothing);
/// an empty vector is not, since it names no communicator.
///
/// The textual form is a comma-separated list of sizes (`4K,0,64,1M`),
/// matching the CLI's size grammar, so count vectors can cross process
/// boundaries on worker argv exactly like algorithm specs do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CountsSpec {
    counts: Vec<usize>,
}

impl CountsSpec {
    /// Wrap an explicit count vector. Errors on an empty vector and on one
    /// whose total overflows — every other distribution (skewed, zeros,
    /// uniform) is legal.
    pub fn new(counts: Vec<usize>) -> Result<CountsSpec, String> {
        if counts.is_empty() {
            return Err("counts vector must name at least one rank".into());
        }
        if counts
            .iter()
            .try_fold(0usize, |sum, &c| sum.checked_add(c))
            .is_none()
        {
            return Err("counts vector total overflows".into());
        }
        Ok(CountsSpec { counts })
    }

    /// Parse a comma-separated list of byte counts. Each entry accepts the
    /// CLI size suffixes (`K`/`KB` = 1024, `M`/`MB` = 1024², bare or `b` =
    /// bytes), so `--counts 4K,0,64,1M` reads naturally.
    pub fn parse(spec: &str) -> Result<CountsSpec, String> {
        let counts = spec
            .split(',')
            .map(parse_count)
            .collect::<Result<Vec<usize>, String>>()?;
        CountsSpec::new(counts)
    }

    /// Re-serialize into the exact form [`CountsSpec::parse`] accepts
    /// (plain decimal byte counts — no suffix compression, so the render
    /// is canonical and digest-stable).
    pub fn spec(&self) -> String {
        self.counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The per-rank counts, one entry per rank.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Number of ranks the vector describes.
    pub fn ranks(&self) -> usize {
        self.counts.len()
    }

    /// Sum of all per-rank counts — the total payload moved, and the size
    /// the selection service buckets irregular workloads by.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// FNV-1a digest of the count vector. This is what makes a `PlanKey`
    /// canonical for v-collectives: two distributions with equal totals
    /// (or equal per-rank slices at *this* rank) still hash apart, so a
    /// cached plan can never alias across count vectors.
    pub fn digest(&self) -> u64 {
        counts_digest(&self.counts)
    }
}

impl std::fmt::Display for CountsSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// One `--counts` entry: a decimal byte count with optional `K`/`M`/`b`
/// suffix (case-insensitive, `KB`/`MB` accepted).
fn parse_count(tok: &str) -> Result<usize, String> {
    let t = tok.trim().to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = t.strip_suffix("kb").or_else(|| t.strip_suffix('k')) {
        (d, 1024)
    } else if let Some(d) = t.strip_suffix("mb").or_else(|| t.strip_suffix('m')) {
        (d, 1024 * 1024)
    } else if let Some(d) = t.strip_suffix('b') {
        (d, 1)
    } else {
        (t.as_str(), 1)
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("bad count `{tok}` (expected e.g. 64, 4K, 1M, 0)"))
}

/// FNV-1a over the little-endian bytes of a count vector, seeded with its
/// length so `[0]` and `[0, 0]` differ. 64-bit FNV: offset basis
/// 14695981039346656037, prime 1099511628211.
pub fn counts_digest(counts: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in (counts.len() as u64).to_le_bytes() {
        eat(b);
    }
    for &c in counts {
        for b in (c as u64).to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Parse a datatype name as rendered by [`DType`]'s `Display`.
pub fn parse_dtype(name: &str) -> Result<DType, String> {
    DType::ALL
        .into_iter()
        .find(|d| d.to_string() == name)
        .ok_or_else(|| format!("unknown dtype `{name}` (expected u8|i32|i64|u64|f32|f64)"))
}

/// Parse a reduction operator name as rendered by [`ReduceOp`]'s `Display`.
pub fn parse_rop(name: &str) -> Result<ReduceOp, String> {
    ReduceOp::ALL
        .into_iter()
        .find(|o| o.to_string() == name)
        .ok_or_else(|| {
            format!("unknown reduce op `{name}` (expected sum|prod|max|min|band|bor|bxor)")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip() {
        for op in CollectiveOp::ALL {
            assert_eq!(parse_op(&op.to_string()).unwrap(), op);
        }
        assert!(parse_op("scan").is_err());
    }

    #[test]
    fn alg_specs_round_trip() {
        let algs = [
            Algorithm::Linear,
            Algorithm::Ring,
            Algorithm::Bruck,
            Algorithm::Pairwise,
            Algorithm::KnomialTree { k: 8 },
            Algorithm::RecursiveMultiplying { k: 4 },
            Algorithm::GeneralizedMultiplying { k: 3 },
            Algorithm::KRing { k: 3 },
            Algorithm::ReduceBcast { k: 5 },
            Algorithm::Dissemination { k: 2 },
            Algorithm::GeneralizedBruck { r: 3 },
            Algorithm::Hierarchical { ppn: 8, k: 4 },
        ];
        for alg in algs {
            assert_eq!(parse_alg(&alg_to_spec(&alg)).unwrap(), alg);
        }
    }

    #[test]
    fn dtypes_and_rops_round_trip() {
        for d in DType::ALL {
            assert_eq!(parse_dtype(&d.to_string()).unwrap(), d);
        }
        for o in ReduceOp::ALL {
            assert_eq!(parse_rop(&o.to_string()).unwrap(), o);
        }
        assert!(parse_dtype("u128").is_err());
        assert!(parse_rop("land").is_err());
    }

    #[test]
    fn auto_is_a_request_not_an_algorithm() {
        let err = parse_alg("auto").unwrap_err();
        assert!(err.contains("--select auto"), "{err}");
    }

    #[test]
    fn opt_specs_round_trip() {
        let all = [
            OptSpec::NONE,
            OptSpec::PIPELINE,
            OptSpec {
                pipeline: false,
                aggregate: true,
            },
            OptSpec {
                pipeline: true,
                aggregate: true,
            },
        ];
        for o in all {
            assert_eq!(parse_opt_spec(&opt_to_spec(&o)).unwrap(), o);
        }
        assert_eq!(
            parse_opt_spec("pipe,agg").unwrap(),
            parse_opt_spec("pipeline,aggregate").unwrap()
        );
        assert!(parse_opt_spec("remap").unwrap_err().contains("pipeline"));
        assert!(OptSpec::NONE.is_none());
        assert!(!OptSpec::PIPELINE.is_none());
    }

    #[test]
    fn variant_specs_round_trip_and_stay_backward_compatible() {
        // Pre-optimizer spec strings parse as pass-free variants.
        assert_eq!(
            parse_variant("reduce+bcast:3").unwrap(),
            (Algorithm::ReduceBcast { k: 3 }, OptSpec::NONE)
        );
        // And pass-free variants render byte-identically to the old grammar.
        assert_eq!(
            variant_to_spec(&Algorithm::Ring, &OptSpec::NONE),
            alg_to_spec(&Algorithm::Ring)
        );
        let cases = [
            (Algorithm::Ring, OptSpec::PIPELINE),
            (
                Algorithm::RecursiveMultiplying { k: 4 },
                OptSpec {
                    pipeline: true,
                    aggregate: true,
                },
            ),
            (Algorithm::ReduceBcast { k: 2 }, OptSpec::NONE),
        ];
        for (alg, opt) in cases {
            let spec = variant_to_spec(&alg, &opt);
            assert_eq!(parse_variant(&spec).unwrap(), (alg, opt));
        }
        assert!(parse_variant("ring@wat").is_err());
        assert!(parse_variant("wat@pipeline").is_err());
    }

    #[test]
    fn variant_type_round_trips_and_displays() {
        let v = Variant {
            alg: Algorithm::RecursiveMultiplying { k: 4 },
            opt: OptSpec::PIPELINE,
        };
        assert_eq!(Variant::parse(&v.spec()).unwrap(), v);
        assert_eq!(v.to_string(), "recmult(4)@pipeline");
        let plain = Variant::plain(Algorithm::Ring);
        assert_eq!(plain.spec(), "ring");
        assert_eq!(plain.to_string(), "ring");
        assert_eq!(Variant::parse("ring").unwrap(), plain);
    }

    #[test]
    fn counts_specs_round_trip() {
        let c = CountsSpec::parse("4K,0,64,1M").unwrap();
        assert_eq!(c.counts(), &[4096, 0, 64, 1 << 20]);
        assert_eq!(c.ranks(), 4);
        assert_eq!(c.total(), 4096 + 64 + (1 << 20));
        // Canonical render → reparse is the identity.
        assert_eq!(CountsSpec::parse(&c.spec()).unwrap(), c);
        assert_eq!(c.to_string(), "4096,0,64,1048576");
        // Suffix variants and whitespace normalize to the same vector.
        assert_eq!(CountsSpec::parse("4KB, 0, 64b, 1MB").unwrap(), c);
        assert!(CountsSpec::parse("").is_err());
        assert!(CountsSpec::parse("4K,x").is_err());
        assert!(CountsSpec::new(Vec::new()).is_err());
    }

    #[test]
    fn counts_digests_separate_distributions() {
        // Same total, different distribution — the whole reason PlanKey
        // carries a digest instead of nbytes alone.
        let a = counts_digest(&[8, 8, 8, 8]);
        let b = counts_digest(&[32, 0, 0, 0]);
        let c = counts_digest(&[8, 8, 8, 8, 0]);
        assert_ne!(a, b);
        assert_ne!(a, c, "length is part of the digest");
        assert_ne!(counts_digest(&[0]), counts_digest(&[0, 0]));
        // Deterministic across calls.
        assert_eq!(a, counts_digest(&[8, 8, 8, 8]));
        assert_eq!(a, CountsSpec::new(vec![8, 8, 8, 8]).unwrap().digest());
    }

    #[test]
    fn genmult_specs_round_trip() {
        assert_eq!(
            parse_alg("genmult:3").unwrap(),
            Algorithm::GeneralizedMultiplying { k: 3 }
        );
        assert_eq!(
            alg_to_spec(&Algorithm::GeneralizedMultiplying { k: 3 }),
            "genmult:3"
        );
        assert!(parse_alg("genmult").is_err());
    }

    #[test]
    fn aliases_and_errors() {
        assert_eq!(
            parse_alg("binomial").unwrap(),
            Algorithm::KnomialTree { k: 2 }
        );
        assert_eq!(
            parse_alg("recdoubling").unwrap(),
            Algorithm::RecursiveMultiplying { k: 2 }
        );
        assert_eq!(
            parse_alg("recmult,4").unwrap(),
            parse_alg("recmult:4").unwrap()
        );
        assert!(parse_alg("knomial").is_err());
        assert!(parse_alg("wat").unwrap_err().contains("recmult:K"));
    }
}
