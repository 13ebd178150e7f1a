//! The selection service: RCU-style snapshot publication, cost-model
//! priors, online refinement, and byte-stable persistence.
//!
//! Writer side (priors, observations, publishes, persistence) serializes
//! through one mutex. Reader side ([`SelectionService::lookup`]) is an
//! atomic pointer load plus array indexing — no lock, no allocation, no
//! reference counting. Publishing swaps in a freshly built [`Snapshot`];
//! the displaced pointer goes to a retire list freed only when the service
//! is dropped, because a reader that loaded it may still be dereferencing
//! it. Memory is bounded by the number of publishes in the service's
//! lifetime (one per ingest batch, not per lookup).

use crate::policy::{prior_winner, winner, Cell, Policy};
use crate::table::{bucket_of_bytes, op_index, v_bucket, Snapshot, World, NUM_BUCKETS, NUM_OPS};
use exacoll_core::registry::{default_algorithm, supports_v, unique_candidates};
use exacoll_core::spec::{
    parse_op, OptSpec, Variant, OPT_AGGREGATE_MAX_FUSE_BYTES, OPT_PIPELINE_CHUNK_BYTES,
};
use exacoll_core::{Algorithm, CollArgs, CollectiveOp, Request};
use exacoll_json::Value;
use exacoll_opt::cached_variant;
use exacoll_sim::{simulate, Machine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// Version tag of the persisted table format.
pub const FORMAT: &str = "exacoll-select/v1";

/// A stats key: (op index, rank count, size bucket). `op_index` first so
/// serialized entries group by collective.
type Key = (usize, usize, usize);

/// A retired snapshot pointer. Only ever dereferenced to free it under
/// `&mut self` (Drop), when no reader can exist.
struct Retired(*mut Snapshot);
// SAFETY: the pointer is uniquely owned by the retire list (readers only
// borrow through it) and is freed exactly once, under exclusive access.
unsafe impl Send for Retired {}

/// Writer-side state, behind the service's mutex.
struct Inner {
    /// Per-key candidate cells, kept sorted by variant spec string so
    /// winner tie-breaks and serialization order are canonical (and a bare
    /// algorithm sorts before its `@`-suffixed optimized variants, so ties
    /// favor the unoptimized plan).
    stats: BTreeMap<Key, Vec<Cell>>,
    retired: Vec<Retired>,
}

/// The in-process selection service. Share it by reference (it is `Sync`);
/// every method takes `&self`.
pub struct SelectionService {
    snap: AtomicPtr<Snapshot>,
    inner: Mutex<Inner>,
    policy: Policy,
}

impl std::fmt::Debug for SelectionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionService")
            .field("policy", &self.policy)
            .field("tracked", &self.tracked())
            .finish_non_exhaustive()
    }
}

impl SelectionService {
    /// An empty service: every lookup misses until priors are seeded or
    /// observations arrive and `publish` runs.
    pub fn new(policy: Policy) -> SelectionService {
        SelectionService {
            snap: AtomicPtr::new(Box::into_raw(Box::new(Snapshot::empty()))),
            inner: Mutex::new(Inner {
                stats: BTreeMap::new(),
                retired: Vec::new(),
            }),
            policy,
        }
    }

    /// The policy this service scores with.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The published winner for (op, p, bytes). **The hot path**: one
    /// acquire load, one binary search over rank counts, one array index.
    /// No lock is taken and nothing is allocated.
    #[inline]
    pub fn lookup(&self, op: CollectiveOp, p: usize, bytes: usize) -> Option<Variant> {
        // SAFETY: `snap` always holds a valid pointer — it is initialized
        // non-null and displaced pointers are only freed in Drop, which
        // requires `&mut self` and therefore no outstanding readers.
        let snap = unsafe { &*self.snap.load(Ordering::Acquire) };
        snap.lookup(op, p, bytes)
    }

    /// Resolve a concrete variant: the published winner, or the
    /// MPICH-style default algorithm (pass-free) when the table has no
    /// opinion yet.
    #[inline]
    pub fn select(&self, op: CollectiveOp, p: usize, bytes: usize) -> Variant {
        self.lookup(op, p, bytes)
            .unwrap_or_else(|| Variant::plain(default_algorithm(op)))
    }

    /// The published winner for an irregular ("v") workload, keyed by the
    /// skew-folded bucket of its count vector ([`v_bucket`]). Winners whose
    /// algorithm cannot lower at these counts (e.g. Bruck on ragged sizes)
    /// are filtered out rather than returned, so a uniform-only winner in a
    /// shared bucket never reaches `lower_v`.
    #[inline]
    pub fn lookup_v(&self, op: CollectiveOp, counts: &[usize]) -> Option<Variant> {
        // SAFETY: see `lookup` — the pointer is valid for the same reasons.
        let snap = unsafe { &*self.snap.load(Ordering::Acquire) };
        snap.lookup_bucket(op, counts.len(), v_bucket(counts))
            .filter(|v| supports_v(v.alg, op, counts).is_ok())
    }

    /// Resolve a concrete variant for an irregular workload: the published
    /// (v-capable) winner, else the default algorithm when it can lower at
    /// these counts, else ring — which every v-variant supports.
    #[inline]
    pub fn select_v(&self, op: CollectiveOp, counts: &[usize]) -> Variant {
        self.lookup_v(op, counts).unwrap_or_else(|| {
            let d = default_algorithm(op);
            Variant::plain(if supports_v(d, op, counts).is_ok() {
                d
            } else {
                Algorithm::Ring
            })
        })
    }

    /// Price every deduplicated candidate for (op, p=machine.ranks(),
    /// bucket-of-`bytes`) with the IR cost model and record the results as
    /// priors. Each candidate is priced plain, and additionally as its
    /// `@pipeline` optimizer variant whenever the pipelining pass actually
    /// rewrites its plan at this size — small buckets therefore keep one
    /// cell per algorithm, while large-message buckets learn over optimized
    /// variants too. Existing observations for the bucket are kept; only
    /// the prior component is (re)written. Returns the number of variants
    /// priced. Call [`publish`](Self::publish) to expose the result.
    pub fn seed_point(
        &self,
        machine: &Machine,
        op: CollectiveOp,
        bytes: usize,
        max_k: usize,
    ) -> Result<usize, String> {
        let p = machine.ranks();
        let cands = unique_candidates(op, p, max_k);
        let mut priced = Vec::with_capacity(cands.len());
        for alg in cands {
            // Compiled plans come from the process-wide plan cache, so a
            // sweep re-pricing overlapping (op, size) grids lowers each
            // shape once — and each candidate once for both of its
            // variants; pricing itself replays the cached plan's op stream
            // on the discrete-event simulator. The probe moves at least one
            // byte; the request normalizes it per collective.
            let piped = Request::uniform(CollArgs::new(op, alg), p, bytes.max(1))?.with_opt(
                OptSpec::PIPELINE,
                OPT_PIPELINE_CHUNK_BYTES,
                OPT_AGGREGATE_MAX_FUSE_BYTES,
            )?;
            let n = piped.bytes();
            let (plain, piped) = cached_variant(&piped)
                .map_err(|e| format!("lowering {op}/{alg} p={p} n={n}: {e}"))?;
            // The optimized variant exists only where the pass actually
            // changes the plan at this size — an identical one would just
            // duplicate the plain cell.
            let variants = [
                (Variant::plain(alg), Some(plain)),
                (
                    Variant {
                        alg,
                        opt: OptSpec::PIPELINE,
                    },
                    piped,
                ),
            ];
            for (variant, world) in variants {
                let Some(world) = world else { continue };
                let traces: Vec<_> = world.iter().map(|s| s.to_trace()).collect();
                let outcome = simulate(machine, &traces)
                    .map_err(|e| format!("pricing {op}/{variant} p={p} n={n}: {e}"))?;
                priced.push((variant, outcome.makespan.as_nanos()));
            }
        }
        let key = (op_index(op), p, bucket_of_bytes(bytes));
        let mut inner = self.lock();
        for (variant, prior_ns) in &priced {
            upsert(inner.stats.entry(key).or_default(), *variant).prior_ns = Some(*prior_ns);
        }
        Ok(priced.len())
    }

    /// Full prior sweep: seed every (op, size) point. Fails on the first
    /// unpriceable point.
    pub fn seed_priors(
        &self,
        machine: &Machine,
        ops: &[CollectiveOp],
        sizes: &[usize],
        max_k: usize,
    ) -> Result<usize, String> {
        let mut priced = 0;
        for &op in ops {
            for &bytes in sizes {
                priced += self.seed_point(machine, op, bytes, max_k)?;
            }
        }
        Ok(priced)
    }

    /// Whether the bucket for (op, p, bytes) has any candidate cells at
    /// all (prior or observed).
    pub fn knows(&self, op: CollectiveOp, p: usize, bytes: usize) -> bool {
        let key = (op_index(op), p, bucket_of_bytes(bytes));
        self.lock().stats.get(&key).is_some_and(|c| !c.is_empty())
    }

    /// Fold one measured makespan into the running estimate for
    /// (op, p, bucket-of-`bytes`, variant). Not published until
    /// [`publish`](Self::publish).
    pub fn observe(
        &self,
        op: CollectiveOp,
        p: usize,
        bytes: usize,
        variant: Variant,
        measured_ns: f64,
    ) {
        self.observe_at(op, p, bucket_of_bytes(bytes), variant, measured_ns);
    }

    /// Fold one measured makespan for an irregular workload into the
    /// skew-folded bucket its count vector keys under — the write-side twin
    /// of [`lookup_v`](Self::lookup_v).
    pub fn observe_v(
        &self,
        op: CollectiveOp,
        counts: &[usize],
        variant: Variant,
        measured_ns: f64,
    ) {
        self.observe_at(op, counts.len(), v_bucket(counts), variant, measured_ns);
    }

    fn observe_at(&self, op: CollectiveOp, p: usize, bucket: usize, variant: Variant, ns: f64) {
        if !ns.is_finite() || ns < 0.0 {
            return;
        }
        let key = (op_index(op), p, bucket);
        let mut inner = self.lock();
        let cell = upsert(inner.stats.entry(key).or_default(), variant);
        cell.obs_sum_ns += ns;
        cell.obs_n += 1;
    }

    /// Recompute every bucket's winner and atomically swap in the new
    /// snapshot. Readers switch over at their next lookup; the displaced
    /// snapshot is retired, not freed, since stragglers may still read it.
    pub fn publish(&self) {
        let mut inner = self.lock();
        let mut worlds: BTreeMap<usize, World> = BTreeMap::new();
        for (&(op_idx, p, bucket), cells) in &inner.stats {
            let world = worlds.entry(p).or_insert_with(|| World {
                p,
                winners: vec![None; NUM_OPS * NUM_BUCKETS],
            });
            world.winners[op_idx * NUM_BUCKETS + bucket] = winner(cells, &self.policy);
        }
        let snap = Snapshot {
            worlds: worlds.into_values().collect(),
        };
        let old = self
            .snap
            .swap(Box::into_raw(Box::new(snap)), Ordering::AcqRel);
        inner.retired.push(Retired(old));
    }

    /// Number of (op, p, bucket) keys the writer has state for.
    pub fn tracked(&self) -> usize {
        self.lock().stats.len()
    }

    /// Visit every key's cells in canonical order (op, p, bucket).
    pub fn for_each_bucket<F>(&self, mut f: F)
    where
        F: FnMut(CollectiveOp, usize, usize, &[Cell]),
    {
        let inner = self.lock();
        for (&(op_idx, p, bucket), cells) in &inner.stats {
            f(CollectiveOp::ALL[op_idx], p, bucket, cells);
        }
    }

    /// Serialize the full learned state in the canonical `v1` layout.
    /// Output is byte-stable: numbers print via the round-trip-exact
    /// formatter and entries/cells are in canonical order, so
    /// parse → re-serialize is the identity on bytes.
    pub fn to_json(&self) -> Value {
        let inner = self.lock();
        let entries: Vec<Value> = inner
            .stats
            .iter()
            .map(|(&(op_idx, p, bucket), cells)| {
                let cells_json: Vec<Value> = cells
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("alg", Value::Str(c.variant.spec())),
                            ("prior_ns", c.prior_ns.map_or(Value::Null, Value::Num)),
                            ("obs_sum_ns", Value::Num(c.obs_sum_ns)),
                            ("obs_n", Value::Num(c.obs_n as f64)),
                        ])
                    })
                    .collect();
                Value::obj(vec![
                    ("op", Value::Str(CollectiveOp::ALL[op_idx].to_string())),
                    ("p", Value::Num(p as f64)),
                    ("bucket", Value::Num(bucket as f64)),
                    ("cells", Value::Arr(cells_json)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("format", Value::Str(FORMAT.into())),
            (
                "policy",
                Value::obj(vec![
                    ("prior_weight", Value::Num(self.policy.prior_weight)),
                    ("explore", Value::Num(self.policy.explore)),
                ]),
            ),
            ("entries", Value::Arr(entries)),
        ])
    }

    /// Rebuild a service (stats + policy) from its `v1` serialization and
    /// publish the loaded table.
    pub fn from_json(v: &Value) -> Result<SelectionService, String> {
        let format = v.req("format")?.as_str()?;
        if format != FORMAT {
            return Err(format!(
                "unsupported table format `{format}` (expected {FORMAT})"
            ));
        }
        let pol = v.req("policy")?;
        let policy = Policy {
            prior_weight: pol.req("prior_weight")?.as_f64()?,
            explore: pol.req("explore")?.as_f64()?,
        };
        let service = SelectionService::new(policy);
        {
            let mut inner = service.lock();
            for entry in v.req("entries")?.as_arr()? {
                let op = parse_op(entry.req("op")?.as_str()?)?;
                let p = entry.req("p")?.as_usize()?;
                let bucket = entry.req("bucket")?.as_usize()?;
                if bucket >= NUM_BUCKETS {
                    return Err(format!("bucket {bucket} out of range"));
                }
                let key = (op_index(op), p, bucket);
                let cells: &mut Vec<Cell> = inner.stats.entry(key).or_default();
                for cv in entry.req("cells")?.as_arr()? {
                    let variant = Variant::parse(cv.req("alg")?.as_str()?)?;
                    // A candidate that cannot run would win its bucket and
                    // fail every launch that asks the table, not fall back.
                    variant.alg.supports(op, p).map_err(|e| {
                        format!("entry {op} p={p} bucket {bucket}: candidate `{variant}`: {e}")
                    })?;
                    let cell = upsert(cells, variant);
                    let prior = cv.req("prior_ns")?;
                    cell.prior_ns = if prior.is_null() {
                        None
                    } else {
                        Some(prior.as_f64()?)
                    };
                    cell.obs_sum_ns = cv.req("obs_sum_ns")?.as_f64()?;
                    cell.obs_n = cv.req("obs_n")?.as_usize()? as u64;
                }
            }
        }
        service.publish();
        Ok(service)
    }

    /// Atomically persist the table: write a sibling temp file, then
    /// rename over `path`, so a crash mid-save never corrupts the table.
    pub fn save(&self, path: &str) -> Result<(), String> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
        }
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, self.to_json().pretty()).map_err(|e| format!("writing {tmp}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("renaming {tmp} -> {path}: {e}"))
    }

    /// Load a persisted table.
    pub fn load(path: &str) -> Result<SelectionService, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let v = exacoll_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        SelectionService::from_json(&v)
    }

    /// Load `path` if it exists, otherwise start empty with `policy`.
    /// A present-but-corrupt table is an error, not a silent reset.
    pub fn load_or_new(path: &str, policy: Policy) -> Result<SelectionService, String> {
        if std::path::Path::new(path).exists() {
            SelectionService::load(path)
        } else {
            Ok(SelectionService::new(policy))
        }
    }

    /// Every (op, p, bucket) where measurements have flipped the choice
    /// away from the cost model's pick, in canonical order.
    pub fn diff(&self) -> Vec<crate::diff::DiffRow> {
        let inner = self.lock();
        let mut rows = Vec::new();
        for (&(op_idx, p, bucket), cells) in &inner.stats {
            let (Some(prior), Some(learned)) = (prior_winner(cells), winner(cells, &self.policy))
            else {
                continue;
            };
            if prior == learned {
                continue;
            }
            let est = |variant: Variant| {
                cells
                    .iter()
                    .find(|c| c.variant == variant)
                    .map_or(f64::NAN, |c| c.estimate_ns(&self.policy))
            };
            rows.push(crate::diff::DiffRow {
                op: CollectiveOp::ALL[op_idx],
                p,
                bucket,
                prior,
                learned,
                prior_est_ns: est(prior),
                learned_est_ns: est(learned),
                samples: cells.iter().map(|c| c.obs_n).sum(),
            });
        }
        rows
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for SelectionService {
    fn drop(&mut self) {
        // Exclusive access: no reader can hold any snapshot pointer now.
        let cur = *self.snap.get_mut();
        // SAFETY: `cur` came from Box::into_raw and was never freed (only
        // retired pointers are, below, and the current one is not retired).
        unsafe { drop(Box::from_raw(cur)) };
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        for Retired(ptr) in inner.retired.drain(..) {
            // SAFETY: each retired pointer was displaced from `snap` exactly
            // once and is freed exactly once, here.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

/// The cell for `variant`, inserting (in canonical spec order) if absent.
fn upsert(cells: &mut Vec<Cell>, variant: Variant) -> &mut Cell {
    let spec = variant.spec();
    let idx = match cells.binary_search_by(|c| c.variant.spec().cmp(&spec)) {
        Ok(i) => i,
        Err(i) => {
            cells.insert(i, Cell::new(variant));
            i
        }
    };
    &mut cells[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_service_misses_and_falls_back() {
        let s = SelectionService::new(Policy::default());
        assert_eq!(s.lookup(CollectiveOp::Allreduce, 8, 1024), None);
        assert_eq!(
            s.select(CollectiveOp::Allreduce, 8, 1024),
            Variant::plain(default_algorithm(CollectiveOp::Allreduce))
        );
    }

    #[test]
    fn seeded_priors_publish_a_winner() {
        let m = Machine::testbed(4, 1, 2);
        let s = SelectionService::new(Policy::default());
        let priced = s.seed_point(&m, CollectiveOp::Allreduce, 1024, 4).unwrap();
        assert!(priced >= 2, "expected several candidates, got {priced}");
        // Not visible until published.
        assert_eq!(s.lookup(CollectiveOp::Allreduce, 4, 1024), None);
        s.publish();
        let v = s
            .lookup(CollectiveOp::Allreduce, 4, 1024)
            .expect("published");
        assert!(v.alg.supports(CollectiveOp::Allreduce, 4).is_ok());
        // Other buckets and worlds still miss.
        assert_eq!(s.lookup(CollectiveOp::Allreduce, 8, 1024), None);
        assert_eq!(s.lookup(CollectiveOp::Bcast, 4, 1024), None);
    }

    #[test]
    fn observations_refine_and_flip() {
        let m = Machine::testbed(4, 1, 2);
        let s = SelectionService::new(Policy::default());
        s.seed_point(&m, CollectiveOp::Allreduce, 1024, 4).unwrap();
        s.publish();
        let before = s.lookup(CollectiveOp::Allreduce, 4, 1024).unwrap();
        // Find some other candidate and report it much faster.
        let mut rival = None;
        s.for_each_bucket(|op, p, bucket, cells| {
            if op == CollectiveOp::Allreduce && p == 4 && bucket == bucket_of_bytes(1024) {
                rival = cells.iter().map(|c| c.variant).find(|&v| v != before);
            }
        });
        let rival = rival.expect("at least two candidates");
        for _ in 0..40 {
            s.observe(CollectiveOp::Allreduce, 4, 1024, rival, 10.0);
            s.observe(CollectiveOp::Allreduce, 4, 1024, before, 1e9);
        }
        s.publish();
        assert_eq!(s.lookup(CollectiveOp::Allreduce, 4, 1024), Some(rival));
        assert_eq!(s.diff().len(), 1);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let m = Machine::testbed(4, 1, 2);
        let s = SelectionService::new(Policy::default());
        s.seed_priors(
            &m,
            &[CollectiveOp::Allreduce, CollectiveOp::Bcast],
            &[64, 4096],
            4,
        )
        .unwrap();
        s.observe(
            CollectiveOp::Allreduce,
            4,
            64,
            Variant::plain(Algorithm::Ring),
            1234.5,
        );
        let text = s.to_json().pretty();
        let reloaded = SelectionService::from_json(&exacoll_json::parse(&text).unwrap()).unwrap();
        assert_eq!(reloaded.to_json().pretty(), text);
        assert_eq!(reloaded.tracked(), s.tracked());
    }

    #[test]
    fn pipeline_variants_are_priced_only_where_the_pass_bites() {
        let m = Machine::testbed(4, 1, 2);
        let s = SelectionService::new(Policy::default());
        // 64 B messages sit far below the chunk threshold: no candidate's
        // plan changes, so the bucket holds exactly one cell per algorithm.
        s.seed_point(&m, CollectiveOp::Allgather, 64, 4).unwrap();
        // At 4 MiB the per-rank blocks exceed OPT_PIPELINE_CHUNK_BYTES and
        // the pipelined variants join the candidate pool.
        s.seed_point(&m, CollectiveOp::Allgather, 4 << 20, 4)
            .unwrap();
        let mut small_opt = 0;
        let mut large_opt = 0;
        s.for_each_bucket(|op, _, bucket, cells| {
            if op != CollectiveOp::Allgather {
                return;
            }
            let opted = cells.iter().filter(|c| !c.variant.opt.is_none()).count();
            if bucket == bucket_of_bytes(64) {
                small_opt = opted;
            } else if bucket == bucket_of_bytes(4 << 20) {
                large_opt = opted;
            }
        });
        assert_eq!(small_opt, 0, "no pipelined variants at 64 B");
        assert!(large_opt > 0, "pipelined variants priced at 4 MiB");
        // Variant cells survive a persistence round trip byte-stably.
        let text = s.to_json().pretty();
        let reloaded = SelectionService::from_json(&exacoll_json::parse(&text).unwrap()).unwrap();
        assert_eq!(reloaded.to_json().pretty(), text);
    }

    #[test]
    fn seed_point_prices_what_pricing_each_variant_on_its_own_would() {
        use exacoll_core::PlanCache;
        use exacoll_opt::cached_world;
        let m = Machine::frontier(2, 4);
        // 1 KiB, where no pipelined variant exists, and 4 MiB, where they do.
        for (op, bytes, piped_cells) in [
            (CollectiveOp::Allreduce, 1 << 10, false),
            (CollectiveOp::Allgather, 4 << 20, true),
        ] {
            // The route this replaced: each variant planned, compiled and
            // traced for itself, the pipelined one kept when its trace
            // differs.
            let mut want = Vec::new();
            for alg in unique_candidates(op, 8, 4) {
                let plain = Request::uniform(CollArgs::new(op, alg), 8, bytes).unwrap();
                let piped = plain
                    .clone()
                    .with_opt(
                        OptSpec::PIPELINE,
                        OPT_PIPELINE_CHUNK_BYTES,
                        OPT_AGGREGATE_MAX_FUSE_BYTES,
                    )
                    .unwrap();
                let traces = |req: &Request| -> Vec<_> {
                    let world = cached_world(req).unwrap();
                    world.iter().map(|s| s.to_trace()).collect()
                };
                let price = |t: &[_]| simulate(&m, t).unwrap().makespan.as_nanos().to_bits();
                let (a, b) = (traces(&plain), traces(&piped));
                want.push((Variant::plain(alg).spec(), price(&a)));
                if a != b {
                    want.push((piped.variant().spec(), price(&b)));
                }
            }
            want.sort();
            assert_eq!(want.iter().any(|(spec, _)| spec.contains('@')), piped_cells);
            for state in ["cold", "warm"] {
                if state == "cold" {
                    PlanCache::global().clear();
                }
                let s = SelectionService::new(Policy::default());
                let priced = s.seed_point(&m, op, bytes, 4).unwrap();
                let mut got = Vec::new();
                s.for_each_bucket(|_, _, _, cells| {
                    got.extend(cells.iter().map(|c| {
                        let prior = c.prior_ns.expect("every cell was priced");
                        (c.variant.spec(), prior.to_bits())
                    }));
                });
                assert_eq!(priced, want.len(), "{op} {state}");
                assert_eq!(got, want, "{op} {state}");
            }
        }
    }

    #[test]
    fn v_observations_learn_per_skew_band() {
        let s = SelectionService::new(Policy::default());
        let uniform = [256usize, 256, 256, 256];
        let skewed = [960usize, 32, 16, 16];
        let ring = Variant::plain(Algorithm::Ring);
        let kring = Variant::plain(Algorithm::KRing { k: 2 });
        // Same op, same total bytes, same p — only the skew band differs,
        // so the two workloads can learn different winners.
        for _ in 0..20 {
            s.observe_v(CollectiveOp::Allgather, &uniform, ring, 10.0);
            s.observe_v(CollectiveOp::Allgather, &uniform, kring, 1e9);
            s.observe_v(CollectiveOp::Allgather, &skewed, kring, 10.0);
            s.observe_v(CollectiveOp::Allgather, &skewed, ring, 1e9);
        }
        s.publish();
        assert_eq!(s.lookup_v(CollectiveOp::Allgather, &uniform), Some(ring));
        assert_eq!(s.lookup_v(CollectiveOp::Allgather, &skewed), Some(kring));
    }

    #[test]
    fn v_lookup_filters_uniform_only_winners() {
        let s = SelectionService::new(Policy::default());
        let ragged = [96usize, 0, 24, 8];
        // Bruck wins the bucket, but cannot lower ragged counts: lookup_v
        // must refuse it and select_v must fall back to a v-capable choice.
        let bruck = Variant::plain(Algorithm::Bruck);
        for _ in 0..10 {
            s.observe_v(CollectiveOp::Allgather, &ragged, bruck, 10.0);
        }
        s.publish();
        assert_eq!(s.lookup_v(CollectiveOp::Allgather, &ragged), None);
        let picked = s.select_v(CollectiveOp::Allgather, &ragged);
        assert!(
            exacoll_core::registry::supports_v(picked.alg, CollectiveOp::Allgather, &ragged)
                .is_ok(),
            "select_v returned a variant that cannot lower: {picked:?}"
        );
        // Reduce-scatter's fallback is v-capable too.
        let picked = s.select_v(CollectiveOp::ReduceScatter, &ragged);
        assert!(exacoll_core::registry::supports_v(
            picked.alg,
            CollectiveOp::ReduceScatter,
            &ragged
        )
        .is_ok());
    }

    #[test]
    fn version_and_auto_are_rejected() {
        let bad = Value::obj(vec![("format", Value::Str("exacoll-select/v0".into()))]);
        assert!(SelectionService::from_json(&bad)
            .unwrap_err()
            .contains("unsupported"));
        let auto = exacoll_json::parse(
            r#"{"format":"exacoll-select/v1","policy":{"prior_weight":3,"explore":0.5},
                "entries":[{"op":"bcast","p":4,"bucket":3,
                "cells":[{"alg":"auto","prior_ns":1,"obs_sum_ns":0,"obs_n":0}]}]}"#,
        )
        .unwrap();
        assert!(SelectionService::from_json(&auto)
            .unwrap_err()
            .contains("auto"));
    }

    #[test]
    fn candidates_that_cannot_run_are_rejected() {
        let table = |op: &str, alg: &str| {
            exacoll_json::parse(&format!(
                r#"{{"format":"exacoll-select/v1","policy":{{"prior_weight":3,"explore":0.5}},
                "entries":[{{"op":"{op}","p":4,"bucket":7,
                "cells":[{{"alg":"{alg}","prior_ns":1,"obs_sum_ns":0,"obs_n":0}}]}}]}}"#
            ))
            .unwrap()
        };
        // Each would otherwise be published as the bucket's only winner.
        for (op, alg, why) in [
            ("allgather", "kring:300", "exceeds p = 4"),
            ("bcast", "knomial:1", "radix 1 < 2"),
            ("reduce", "ring", "does not implement"),
            ("allgather", "kring:8@pipeline", "exceeds p = 4"),
        ] {
            let err = SelectionService::from_json(&table(op, alg)).unwrap_err();
            assert!(err.contains(why), "{alg}: {err}");
            assert!(err.contains(&format!("entry {op} p=4 bucket 7")), "{err}");
        }
        let ok = SelectionService::from_json(&table("allgather", "kring:4")).unwrap();
        assert_eq!(
            ok.lookup(CollectiveOp::Allgather, 4, 64),
            Some(Variant::plain(Algorithm::KRing { k: 4 }))
        );
    }
}
