//! A sharded, concurrent cache of [`CompiledSchedule`]s.
//!
//! Lowering + verification + optimizer passes are pure functions of the
//! invocation shape, so their product — the compiled plan — is cached
//! process-wide and shared by reference. The key captures everything that
//! determines a per-rank plan: the collective and its arguments (root,
//! dtype, reduction operator), the `algorithm@opt` variant including the
//! pass parameters, and the `(p, rank, nbytes)` layout. Values are
//! `Arc<CompiledSchedule>`: a hit is a shard read-lock plus a refcount bump,
//! never a plan copy.
//!
//! The map is split into [`SHARDS`] independently locked shards (keyed by
//! hash) so concurrent ranks of one process — the threaded backend, the
//! launch harness's in-process workers — don't serialize on one lock, the
//! same recipe as `exacoll-select`'s service table. Hit/miss counters are
//! relaxed atomics; a full shard evicts an arbitrary entry (plans are pure,
//! so eviction is always safe).

use crate::registry::{Algorithm, CollArgs, CollectiveOp};
use crate::request::Request;
use crate::schedule::CompiledSchedule;
use crate::spec::{counts_digest, OptSpec};
use exacoll_comm::{DType, Rank, ReduceOp};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independently locked shards. A power of two so the shard index
/// is a mask of the key hash.
pub const SHARDS: usize = 16;

/// Per-shard entry ceiling; at the ceiling an arbitrary resident entry is
/// evicted to admit the newcomer.
const SHARD_CAP: usize = 512;

/// Everything that determines one rank's compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Which collective.
    pub op: CollectiveOp,
    /// Which algorithm.
    pub alg: Algorithm,
    /// Root rank (bcast/reduce/gather).
    pub root: Rank,
    /// Element datatype.
    pub dtype: DType,
    /// Reduction operator.
    pub rop: ReduceOp,
    /// Optimizer passes applied after lowering.
    pub opt: OptSpec,
    /// Pipelining chunk size the passes ran with (0 when `opt.pipeline` is
    /// off, so pass-free keys are canonical).
    pub chunk_bytes: usize,
    /// Aggregation fuse ceiling the passes ran with (0 when off).
    pub max_fuse_bytes: usize,
    /// Communicator size.
    pub p: usize,
    /// The rank the plan belongs to.
    pub rank: Rank,
    /// Input bytes per rank — the layout axis of the key.
    pub nbytes: usize,
    /// FNV-1a digest of the per-rank counts vector for irregular ("v")
    /// collectives; 0 for uniform invocations. `nbytes` alone is not
    /// canonical once per-rank counts vary: two distributions with the
    /// same local input length lower to different plans, so the digest
    /// keeps their cache entries apart.
    pub counts_digest: u64,
    /// Tenants merged into the plan; 1 for a plain call.
    pub tenants: usize,
}

impl PlanKey {
    /// Key for a pass-free plan (`lower` output as-is).
    pub fn plain(args: &CollArgs, p: usize, rank: Rank, nbytes: usize) -> PlanKey {
        PlanKey::with_opt(args, &OptSpec::NONE, 0, 0, p, rank, nbytes)
    }

    /// Key for an `algorithm@opt` variant. Pass parameters for disabled
    /// passes are normalized to 0 so equivalent invocations share one entry.
    pub fn with_opt(
        args: &CollArgs,
        opt: &OptSpec,
        chunk_bytes: usize,
        max_fuse_bytes: usize,
        p: usize,
        rank: Rank,
        nbytes: usize,
    ) -> PlanKey {
        PlanKey {
            op: args.op,
            alg: args.alg,
            root: args.root,
            dtype: args.dtype,
            rop: args.rop,
            opt: *opt,
            chunk_bytes: if opt.pipeline { chunk_bytes } else { 0 },
            max_fuse_bytes: if opt.aggregate { max_fuse_bytes } else { 0 },
            p,
            rank,
            nbytes,
            counts_digest: 0,
            tenants: 1,
        }
    }

    /// Key for an irregular ("v") plan lowered from an explicit per-rank
    /// counts vector (see `registry::lower_v`). The digest covers the whole
    /// vector — length included — so `[8,8,8,8]` via the v-path, `[32,0,0,0]`,
    /// and a uniform non-v invocation of equal bytes all key apart.
    pub fn with_counts(args: &CollArgs, counts: &[usize], rank: Rank, nbytes: usize) -> PlanKey {
        let mut key = PlanKey::plain(args, counts.len(), rank, nbytes);
        key.counts_digest = counts_digest(counts);
        key
    }

    /// Key for `rank`'s plan of `req`. A single-tenant, pass-free request
    /// keys exactly as [`PlanKey::plain`] / [`PlanKey::with_counts`] do, so
    /// it shares its entries with `registry::execute` / `execute_v`.
    pub fn of(req: &Request, rank: Rank) -> PlanKey {
        PlanKey {
            counts_digest: req.counts().map_or(0, |c| c.digest()),
            tenants: req.tenants(),
            ..PlanKey::with_opt(
                req.args(),
                req.opt(),
                req.chunk(),
                req.fuse(),
                req.ranks(),
                rank,
                req.input_len(rank),
            )
        }
    }

    fn shard(&self) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) & (SHARDS - 1)
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups answered from a shard.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Resident plans across all shards.
    pub entries: usize,
    /// Entries dropped to shard-capacity eviction.
    pub evictions: u64,
}

/// The sharded concurrent plan cache. See the module docs.
pub struct PlanCache {
    shards: [RwLock<HashMap<PlanKey, Arc<CompiledSchedule>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every execution path shares.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Look up `key`, counting a hit or miss.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<CompiledSchedule>> {
        let found = self.shards[key.shard()]
            .read()
            .expect("plan cache shard poisoned")
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert `plan` — a freshly compiled one, or one already resident under
    /// another key that `key` turns out to name as well — under `key`,
    /// returning the resident entry (the existing one wins a race so
    /// concurrent inserters converge on one shared plan).
    pub fn insert(
        &self,
        key: PlanKey,
        plan: impl Into<Arc<CompiledSchedule>>,
    ) -> Arc<CompiledSchedule> {
        let mut shard = self.shards[key.shard()]
            .write()
            .expect("plan cache shard poisoned");
        if let Some(existing) = shard.get(&key) {
            return existing.clone();
        }
        if shard.len() >= SHARD_CAP {
            if let Some(victim) = shard.keys().next().copied() {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let arc = plan.into();
        shard.insert(key, Arc::clone(&arc));
        arc
    }

    /// Get `key`, compiling with `make` on a miss. `make` runs *outside*
    /// the shard lock — lowering is the slow part — so concurrent misses may
    /// compile redundantly, but all callers still converge on one entry.
    pub fn get_or_insert_with<F>(&self, key: PlanKey, make: F) -> Arc<CompiledSchedule>
    where
        F: FnOnce() -> CompiledSchedule,
    {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        self.insert(key, make())
    }

    /// Fallible twin of [`PlanCache::get_or_insert_with`].
    pub fn try_get_or_insert_with<F, E>(
        &self,
        key: PlanKey,
        make: F,
    ) -> Result<Arc<CompiledSchedule>, E>
    where
        F: FnOnce() -> Result<CompiledSchedule, E>,
    {
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        Ok(self.insert(key, make()?))
    }

    /// Current counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().expect("plan cache shard poisoned").len())
                .sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop every resident plan (counters are kept) — test isolation only.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().expect("plan cache shard poisoned").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lower;
    use crate::schedule::compile;

    fn key(rank: usize, n: usize) -> PlanKey {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        PlanKey::plain(&args, 4, rank, n)
    }

    fn plan(rank: usize, n: usize) -> CompiledSchedule {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        compile(&lower(&args, 4, rank, n))
    }

    #[test]
    fn hit_returns_the_shared_plan() {
        let cache = PlanCache::new();
        assert!(cache.get(&key(0, 64)).is_none());
        let inserted = cache.insert(key(0, 64), plan(0, 64));
        let hit = cache.get(&key(0, 64)).expect("hit");
        assert!(Arc::ptr_eq(&inserted, &hit));
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.entries), (1, 1, 1));
    }

    #[test]
    fn race_losers_converge_on_the_resident_entry() {
        let cache = PlanCache::new();
        let a = cache.insert(key(1, 32), plan(1, 32));
        let b = cache.insert(key(1, 32), plan(1, 32));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.metrics().entries, 1);
    }

    #[test]
    fn keys_separate_rank_and_size_axes() {
        let cache = PlanCache::new();
        cache.insert(key(0, 64), plan(0, 64));
        assert!(cache.get(&key(1, 64)).is_none());
        assert!(cache.get(&key(0, 128)).is_none());
    }

    #[test]
    fn pass_free_keys_normalize_pass_parameters() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let a = PlanKey::with_opt(&args, &OptSpec::NONE, 1 << 20, 4096, 4, 0, 64);
        assert_eq!(a, PlanKey::plain(&args, 4, 0, 64));
    }

    #[test]
    fn counts_digest_separates_equal_total_distributions() {
        let args = CollArgs::new(CollectiveOp::Allgather, Algorithm::Ring);
        let a = PlanKey::with_counts(&args, &[8, 8, 8, 8], 0, 8);
        let b = PlanKey::with_counts(&args, &[32, 0, 0, 0], 0, 32);
        let c = PlanKey::with_counts(&args, &[0, 32, 0, 0], 1, 32);
        assert_ne!(a, b);
        assert_ne!(b, c);
        // A uniform count vector through the v-path still keys apart from
        // the uniform (non-v) invocation of the same shape.
        assert_ne!(a, PlanKey::plain(&args, 4, 0, 8));
        // Same distribution, same rank: identical keys — the cache hits.
        assert_eq!(a, PlanKey::with_counts(&args, &[8, 8, 8, 8], 0, 8));
        // A request keys where the primitives it dispatches to key, and a
        // second tenant or a pass keys it apart.
        let counts = crate::spec::CountsSpec::new(vec![8, 8, 8, 8]).unwrap();
        let v = Request::irregular(args, counts).unwrap();
        assert_eq!(PlanKey::of(&v, 0), a);
        let one = Request::uniform(args, 4, 8).unwrap();
        assert_eq!(PlanKey::of(&one, 0), PlanKey::plain(&args, 4, 0, 8));
        let two = one.clone().with_tenants(2).unwrap();
        assert_ne!(PlanKey::of(&two, 0), PlanKey::of(&one, 0));
        assert_eq!(PlanKey::of(&two, 0).tenants, 2);
        let piped = one.clone().with_opt(OptSpec::PIPELINE, 4, 1).unwrap();
        assert_ne!(PlanKey::of(&piped, 0), PlanKey::of(&one, 0));
    }

    #[test]
    fn eviction_keeps_shards_bounded() {
        let cache = PlanCache::new();
        // Hammer one (op, alg) family across enough sizes to overflow
        // shards; total residency must stay within SHARDS * SHARD_CAP.
        for n in 1..=SHARDS * SHARD_CAP + 300 {
            cache.insert(key(0, n), plan(0, 4));
        }
        let m = cache.metrics();
        assert!(m.entries <= SHARDS * SHARD_CAP);
        assert!(m.evictions > 0);
    }
}
