//! The one sharded cache wrapper and the one statistics type behind
//! every cache layer.
//!
//! The plan cache ([`PlanCache`](crate::plan::PlanCache)) and the result
//! cache ([`ResultCache`](crate::results::ResultCache)) are
//! single-threaded LRUs. The concurrent evaluator, the
//! [`catalog`](crate::catalog), shares either through [`Sharded`]:
//! per-shard locking over independent instances, with aggregate
//! [`CacheStats`] kept in atomics. Keys hash to a shard, so two workers
//! probing different shards never contend, and because hits hand out
//! `Arc`s the shard lock covers only the map probe — execution and
//! replay run unlocked.
//!
//! Both layers, local or sharded, report the same seven counters and the
//! same accounting identity: `hits + misses + bypasses == lookups`.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Aggregate statistics of one cache layer — a
/// [`PlanCache`](crate::plan::PlanCache), a
/// [`ResultCache`](crate::results::ResultCache), or a [`Sharded`]
/// wrapper of either.
///
/// `lookups` is maintained as its *own* counter, not derived from the
/// outcome counters — so `hits + misses + bypasses == lookups` is a real
/// consistency invariant (across threads, for a sharded cache), not an
/// identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache consultations plus bypasses (one per evaluated request
    /// while the layer is enabled).
    pub lookups: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, stale, or — for
    /// results — bound-incompatible; includes invalidations).
    pub misses: u64,
    /// Requests that never consulted the cache (uncacheable constraint,
    /// a bypass flag, capacity 0, or — for results — an explain request).
    pub bypasses: u64,
    /// Entries discarded because the graph version moved on (and the
    /// footprint, if any, could not prove the delta irrelevant).
    pub invalidations: u64,
    /// Entries discarded to make room (LRU, per shard when sharded).
    pub evictions: u64,
    /// Hits served across a graph mutation because the entry's recorded
    /// footprint was provably untouched by the delta (surgical
    /// retention; a subset of `hits`).
    pub retained: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (bypasses included; 0 when nothing
    /// was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// The stats accumulated since an earlier snapshot of the same cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bypasses: self.bypasses - earlier.bypasses,
            invalidations: self.invalidations - earlier.invalidations,
            evictions: self.evictions - earlier.evictions,
            retained: self.retained - earlier.retained,
        }
    }
}

/// What [`Sharded`] requires of the single-threaded cache it wraps.
pub trait ShardCache {
    /// The key whose hash picks the shard.
    type Key: Hash;

    /// A cache bounded by `budget` — entries for the plan cache, bytes
    /// for the result cache; 0 disables storage.
    fn with_budget(budget: usize) -> Self;

    /// The cache's own statistics.
    fn stats(&self) -> CacheStats;

    /// Current number of entries.
    fn entries(&self) -> usize;

    /// Drops every entry (statistics are kept).
    fn clear(&mut self);
}

/// A concurrently readable cache: per-shard locking over independent
/// `C` instances, with aggregate statistics kept in atomics. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Sharded<C> {
    shards: Box<[Mutex<C>]>,
    budget: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    retained: AtomicU64,
}

impl<C: ShardCache> Sharded<C> {
    /// A cache of `budget` in total (entries or bytes, as `C` counts)
    /// spread over `shards` shards, both clamped to sane minimums;
    /// budget 0 disables storage. Because every shard gets the same
    /// window, the budget is rounded **up** to a multiple of the shard
    /// count — the typed accessors report the rounded, enforced value.
    pub fn new(budget: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(budget.max(1));
        let per_shard = budget.div_ceil(shards);
        Sharded {
            shards: (0..shards)
                .map(|_| Mutex::new(C::with_budget(per_shard)))
                .collect(),
            budget: per_shard * shards,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// Total budget across all shards (rounded up as enforced).
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// The budget of one shard — the largest entry the cache could ever
    /// admit.
    pub(crate) fn shard_budget(&self) -> usize {
        self.budget / self.shards.len()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current number of entries (sums the shards; takes each lock
    /// briefly).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| crate::sync::lock_recovering(s).entries())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-enough snapshot of the aggregate statistics. Each
    /// counter is read atomically; the set is not a single atomic
    /// snapshot, but quiescent reads (no in-flight lookups) are exact.
    pub fn stats(&self) -> CacheStats {
        // ordering: advisory stats reads. Outcome counters trail their
        // lookup counter (accumulate adds lookups first), so concurrent
        // snapshots may see hits+misses+bypasses < lookups; quiescent
        // reads balance exactly — nothing orders across fields.
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry in every shard (statistics are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            crate::sync::lock_recovering(shard).clear();
        }
    }

    /// Records a request that was evaluated without consulting the cache.
    pub(crate) fn note_bypass(&self) {
        // ordering: advisory monotone counters; see stats() for the
        // accounting invariant they feed.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    fn shard_for(&self, key: &C::Key) -> &Mutex<C> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Runs `f` on `key`'s shard under its lock (recovering a poisoned
    /// one), then folds whatever `f` did to the shard's statistics into
    /// the aggregate counters after the lock drops.
    pub(crate) fn with_shard<R>(&self, key: &C::Key, f: impl FnOnce(&mut C) -> R) -> R {
        let out;
        let delta;
        {
            let mut shard = crate::sync::lock_recovering(self.shard_for(key));
            let before = shard.stats();
            out = f(&mut shard);
            delta = shard.stats().since(&before);
        }
        // Paranoid-only: the delta is thread-local, so this check is
        // race-free even though the shared counters are relaxed atomics
        // — every shard operation records exactly one outcome (hit,
        // miss, or bypass) per lookup it counts.
        #[cfg(feature = "paranoid")]
        assert_eq!(
            delta.hits + delta.misses + delta.bypasses,
            delta.lookups,
            "cache accounting delta out of balance: {delta:?}"
        );
        self.accumulate(delta);
        out
    }

    fn accumulate(&self, delta: CacheStats) {
        // Touch only the counters that moved: stats reads stay cheap and
        // the common path (a clean hit) is two atomic adds.
        // ordering: advisory monotone counters folded in after the shard
        // lock drops; each is a single-location RMW (never lost), and no
        // reader derives decisions from a mid-flight cross-counter view.
        for (counter, moved) in [
            (&self.lookups, delta.lookups),
            (&self.hits, delta.hits),
            (&self.misses, delta.misses),
            (&self.bypasses, delta.bypasses),
            (&self.invalidations, delta.invalidations),
            (&self.evictions, delta.evictions),
            (&self.retained, delta.retained),
        ] {
            if moved > 0 {
                counter.fetch_add(moved, Ordering::Relaxed);
            }
        }
    }
}
