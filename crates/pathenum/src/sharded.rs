//! One cache type, one LRU, one statistics type: the machinery behind
//! every cache layer.
//!
//! Each layer is one type, [`Sharded`] over the crate-private versioned
//! LRU: the plan cache ([`PlanCache`](crate::plan::PlanCache)) and the
//! result cache ([`ResultCache`](crate::results::ResultCache)) are
//! `Sharded` over their own key and entry. The LRU holds one map, budget,
//! eviction, retention walk and set of counters, and each layer adds its
//! entry and its rule for a removed edge.
//!
//! A [`QueryEngine`](crate::QueryEngine) owns one-shard caches; a
//! [`catalog`](crate::catalog) tenant owns N-shard ones, built with
//! [`Sharded::with_shards`]. Keys hash to a shard, so two workers probing
//! different shards never contend, and because hits hand out `Arc`s the
//! shard lock covers only the map probe — execution and replay run
//! unlocked. A one-shard cache skips the hash.
//!
//! Every shard keeps its own seven counters, moved only under its lock.
//! [`Sharded::stats`] sums them, reading each under that lock, so the
//! accounting identity `hits + misses + bypasses == lookups` holds at
//! every read, in flight or quiescent.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use pathenum_graph::hashing::FxHashMap;
use pathenum_graph::{DynamicGraph, EdgeMutation, GraphVersion, VertexId};

use crate::plan::{GraphStamp, IndexFootprint};
use crate::sync::lock_recovering;

/// Statistics of one cache layer — a
/// [`PlanCache`](crate::plan::PlanCache) or a
/// [`ResultCache`](crate::results::ResultCache), summed over its shards.
///
/// `lookups` is maintained as its *own* counter, not derived from the
/// outcome counters — so `hits + misses + bypasses == lookups` is a real
/// consistency invariant (checked by the `paranoid` feature), not an
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
    /// Entries discarded to make room (LRU, per shard).
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

    fn add(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
        self.retained += other.retained;
    }
}

/// A cache layer: per-shard locking over independent versioned LRUs
/// keyed by `K` and holding `E`. See the [module docs](self).
#[derive(Debug)]
pub struct Sharded<K, E> {
    shards: Box<[Mutex<VersionedLru<K, E>>]>,
    budget: usize,
}

impl<K, E> Sharded<K, E> {
    /// A cache of `budget` in total (entries for the plan cache, bytes
    /// for the result cache) spread over `shards` shards, both clamped
    /// to sane minimums; budget 0 disables storage. Because every shard
    /// gets the same window, the budget is rounded **up** to a multiple
    /// of the shard count — the typed accessors report the rounded,
    /// enforced value.
    pub fn with_shards(budget: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(budget.max(1));
        let per_shard = budget.div_ceil(shards);
        Sharded {
            shards: (0..shards)
                .map(|_| Mutex::new(VersionedLru::new(per_shard)))
                .collect(),
            budget: per_shard * shards,
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

    /// Current number of entries (sums the shards; takes each lock
    /// briefly).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_recovering(s).entries.len())
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The charges of the stored entries, summed over the shards.
    pub(crate) fn charged(&self) -> usize {
        self.shards.iter().map(|s| lock_recovering(s).charged).sum()
    }

    /// The sum of the shards' counters, each shard read under its lock:
    /// `hits + misses + bypasses == lookups` holds at every read.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.add(&lock_recovering(shard).stats);
        }
        total
    }

    /// Drops every entry in every shard (statistics are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            lock_recovering(shard).clear();
        }
    }

    /// Records a request that was evaluated without consulting the
    /// cache. It has no key, so shard 0 counts it.
    pub(crate) fn note_bypass(&self) {
        lock_recovering(&self.shards[0]).note_bypass();
    }
}

impl<K: Hash, E> Sharded<K, E> {
    fn shard_for(&self, key: &K) -> &Mutex<VersionedLru<K, E>> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        // lint: allow(std-hashmap) — a different hash moves keys between
        // shards, which changes the per-shard LRU evictions; that change
        // needs a measurement of its own.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Runs `f` on `key`'s shard under its lock (recovering a poisoned
    /// one). Whatever `f` counts lands on that shard's counters.
    pub(crate) fn with_shard<R>(&self, key: &K, f: impl FnOnce(&mut VersionedLru<K, E>) -> R) -> R {
        f(&mut lock_recovering(self.shard_for(key)))
    }
}

/// A cache layer's own rule for a removed edge, handed to the one
/// retention walk ([`VersionedLru`]).
pub(crate) trait Retained {
    /// Whether removing edge `(u, w)` may change what this entry holds,
    /// given the reach `footprint` recorded with it.
    fn removal_invalidates(&self, footprint: &IndexFootprint, u: VertexId, w: VertexId) -> bool;
}

#[derive(Debug)]
struct Slot<E> {
    entry: E,
    version: GraphVersion,
    /// Reach footprint enabling surgical retention; `None` for entries
    /// stored from graphs without a mutation log.
    footprint: Option<IndexFootprint>,
    /// Sticky: some delta insertion since storing starts in `reach_s`.
    src_touched: bool,
    /// Sticky: some delta insertion since storing ends in `reach_t`.
    dst_touched: bool,
    last_used: u64,
    charge: usize,
}

impl<E: Retained> Slot<E> {
    /// The one retention walk: whether the entry is provably unchanged
    /// by the mutations applied to `graph` after `self.version`, updating
    /// the sticky insertion flags along the way (see [`IndexFootprint`]).
    fn survives_delta(&mut self, graph: &DynamicGraph) -> bool {
        let Some(footprint) = &self.footprint else {
            return false;
        };
        if footprint.lineage() != graph.lineage() {
            // The entry was stamped against a different graph value's
            // history; this graph's log cannot re-validate it.
            return false;
        }
        let Some(mutations) = graph.mutations_since(self.version) else {
            return false; // delta log window slid past this entry
        };
        for (kind, (u, w)) in mutations {
            match kind {
                EdgeMutation::Removed => {
                    if self.entry.removal_invalidates(footprint, u, w) {
                        return false;
                    }
                }
                EdgeMutation::Inserted => {
                    let (src, dst) = footprint.insertion_touches(u, w);
                    self.src_touched |= src;
                    self.dst_touched |= dst;
                    if self.src_touched && self.dst_touched {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The one versioned LRU behind every shard of both cache layers:
/// entries stamped with the [`GraphVersion`] they were stored at, a
/// budget charged per entry, least-recently-used eviction, surgical
/// retention across mutation deltas, and the shard's seven counters.
#[derive(Debug)]
pub(crate) struct VersionedLru<K, E> {
    // Fx keying: SipHash stays out of the probe hot path.
    entries: FxHashMap<K, Slot<E>>,
    budget: usize,
    charged: usize,
    clock: u64,
    stats: CacheStats,
}

impl<K, E> VersionedLru<K, E> {
    /// An empty cache holding at most `budget` in charges; 0 disables
    /// storage.
    fn new(budget: usize) -> Self {
        VersionedLru {
            entries: FxHashMap::default(),
            budget,
            charged: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Drops every entry (statistics are kept).
    fn clear(&mut self) {
        self.entries.clear();
        self.charged = 0;
    }

    /// Records a request evaluated without consulting the cache.
    fn note_bypass(&mut self) {
        self.stats.lookups += 1;
        self.stats.bypasses += 1;
        self.check_balance();
    }

    /// Paranoid builds check the accounting identity after every lookup
    /// and bypass, on every shard of every cache.
    fn check_balance(&self) {
        #[cfg(feature = "paranoid")]
        assert_eq!(
            self.stats.hits + self.stats.misses + self.stats.bypasses,
            self.stats.lookups,
            "cache accounting out of balance: {:?}",
            self.stats
        );
    }
}

impl<K: Copy + Eq + Hash, E: Retained> VersionedLru<K, E> {
    /// Looks up `key` against the serving graph `at` and hands the entry
    /// to `serve`. An entry stamped at an older version is re-validated
    /// when `at` carries a mutation log — re-stamped if the delta is
    /// provably irrelevant to it — and otherwise removed and counted as an
    /// invalidation. A hit is a current entry `serve` answers from; it
    /// counts as retained when it was re-stamped. An entry `serve`
    /// declines stays, and the lookup misses.
    pub(crate) fn lookup<R>(
        &mut self,
        key: &K,
        at: GraphStamp<'_>,
        serve: impl FnOnce(&E) -> Option<R>,
    ) -> Option<R> {
        self.stats.lookups += 1;
        let hit = match self.entries.get_mut(key) {
            None => None,
            Some(slot) => {
                let fresh = slot.version == at.version;
                if fresh || at.log.is_some_and(|log| slot.survives_delta(log)) {
                    slot.version = at.version;
                    let hit = serve(&slot.entry);
                    if hit.is_some() {
                        self.clock += 1;
                        slot.last_used = self.clock;
                        self.stats.retained += u64::from(!fresh);
                    }
                    hit
                } else {
                    self.remove(key);
                    self.stats.invalidations += 1;
                    None
                }
            }
        };
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        self.check_balance();
        hit
    }

    /// The entry stored for `key` and the version it is stamped at. Not a
    /// lookup: no counter moves and the LRU order stays.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<(GraphVersion, &mut E)> {
        self.entries
            .get_mut(key)
            .map(|slot| (slot.version, &mut slot.entry))
    }

    /// Stores `entry` for `key` at `version`, replacing what the key held
    /// and evicting least-recently-used entries until `charge` fits. An
    /// entry charged more than the whole budget is not admitted. A
    /// `footprint` makes it eligible for retention.
    pub(crate) fn insert(
        &mut self,
        key: K,
        version: GraphVersion,
        entry: E,
        footprint: Option<IndexFootprint>,
        charge: usize,
    ) {
        if charge > self.budget {
            return;
        }
        self.remove(&key);
        while self.charged + charge > self.budget {
            let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| *key)
            else {
                break;
            };
            self.remove(&lru);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.charged += charge;
        self.entries.insert(
            key,
            Slot {
                entry,
                version,
                footprint,
                src_touched: false,
                dst_touched: false,
                last_used: self.clock,
                charge,
            },
        );
    }

    fn remove(&mut self, key: &K) {
        if let Some(slot) = self.entries.remove(key) {
            self.charged -= slot.charge;
        }
    }
}

#[cfg(test)]
mod tests {
    //! Pins both layers' LRU, budget and accounting against a naive
    //! model: a `Vec` scanned for the smallest last-use tick.

    use std::sync::Arc;

    use pathenum_graph::GraphVersion;
    use proptest::prelude::*;

    use super::CacheStats;
    use crate::index::{test_support, Index};
    use crate::optimizer::PathEnumConfig;
    use crate::plan::{plan_on_index, PhysicalPlan, PlanCache, PlanKey};
    use crate::query::Query;
    use crate::request::Termination;
    use crate::results::{ResultCache, ENTRY_OVERHEAD_BYTES};
    use crate::sink::PathBuffer;
    use crate::stats::PhaseTimings;

    struct Slot {
        key: u32,
        version: GraphVersion,
        used: u64,
        charge: usize,
        paths: usize,
        completed: bool,
    }

    struct Model {
        budget: usize,
        slots: Vec<Slot>,
        tick: u64,
        stats: CacheStats,
    }

    impl Model {
        fn new(budget: usize) -> Self {
            Model {
                budget,
                slots: Vec::new(),
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn bytes(&self) -> usize {
            self.slots.iter().map(|slot| slot.charge).sum()
        }

        fn slot(&self, key: u32) -> Option<&Slot> {
            self.slots.iter().find(|slot| slot.key == key)
        }

        fn bypass(&mut self) {
            self.stats.lookups += 1;
            self.stats.bypasses += 1;
        }

        /// Whether `key` hits at version `at`; `serves` says whether a
        /// current entry answers the request.
        fn lookup(&mut self, key: u32, at: GraphVersion, serves: impl Fn(&Slot) -> bool) -> bool {
            self.stats.lookups += 1;
            let Some(i) = self.slots.iter().position(|slot| slot.key == key) else {
                self.stats.misses += 1;
                return false;
            };
            if self.slots[i].version != at {
                self.slots.remove(i);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                return false;
            }
            if !serves(&self.slots[i]) {
                self.stats.misses += 1;
                return false;
            }
            self.tick += 1;
            self.slots[i].used = self.tick;
            self.stats.hits += 1;
            true
        }

        /// Stores `slot` and returns the keys evicted to make room.
        fn insert(&mut self, mut slot: Slot) -> Vec<u32> {
            let mut evicted = Vec::new();
            if slot.charge > self.budget {
                return evicted;
            }
            self.slots.retain(|old| old.key != slot.key);
            while self.bytes() + slot.charge > self.budget {
                let (_, lru) = self
                    .slots
                    .iter()
                    .enumerate()
                    .map(|(i, old)| (old.used, i))
                    .min()
                    .expect("a non-empty model over budget");
                evicted.push(self.slots.remove(lru).key);
                self.stats.evictions += 1;
            }
            self.tick += 1;
            slot.used = self.tick;
            self.slots.push(slot);
            evicted
        }
    }

    fn plan_entry() -> (PhysicalPlan, Arc<Index>) {
        let graph = test_support::figure1_graph();
        let query = Query::new(test_support::S, test_support::T, 4).unwrap();
        let index = Index::build(&graph, query);
        let plan = plan_on_index(
            &index,
            PathEnumConfig::default(),
            &mut PhaseTimings::default(),
        );
        (plan, Arc::new(index))
    }

    fn plan_key(key: u32) -> PlanKey {
        PlanKey {
            s: test_support::S,
            t: test_support::T,
            k: 4,
            namespace: 0,
            fingerprint: u64::from(key),
            method: None,
            tau: 0,
        }
    }

    fn result_key(key: u32) -> PlanKey {
        PlanKey {
            s: test_support::S,
            t: test_support::T,
            k: 4,
            namespace: 1,
            fingerprint: u64::from(key),
            method: None,
            tau: 0,
        }
    }

    // One op is `(kind, key, path length, extra)`. Kinds 0–3 insert,
    // 4–6 look up at the current version, 7 bumps the version and looks
    // up, 8 bypasses, 9 clears.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn plan_cache_matches_the_naive_lru(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u32..10, 0u32..8, 1u32..400, 0u32..6), 1..160),
        ) {
            let (plan, index) = plan_entry();
            let cache = PlanCache::new(capacity);
            let mut model = Model::new(capacity);
            let mut now = GraphVersion::next();
            for (step, &(kind, key, _, _)) in ops.iter().enumerate() {
                match kind {
                    0..=3 => {
                        let evicted = model.insert(Slot {
                            key,
                            version: now,
                            used: 0,
                            charge: 1,
                            paths: 0,
                            completed: true,
                        });
                        cache.insert_with_footprint(plan_key(key), now, Arc::clone(&index), plan.estimates, None);
                        for gone in evicted {
                            prop_assert!(!model.lookup(gone, now, |_| true));
                            prop_assert!(cache.lookup(&plan_key(gone), now).is_none(), "step {}: {} evicted", step, gone);
                        }
                    }
                    4..=7 => {
                        if kind == 7 {
                            now = GraphVersion::next();
                        }
                        let hit = model.lookup(key, now, |_| true);
                        prop_assert_eq!(cache.lookup(&plan_key(key), now).is_some(), hit, "step {}", step);
                    }
                    8 => {
                        model.bypass();
                        cache.note_bypass();
                    }
                    _ => {
                        model.slots.clear();
                        cache.clear();
                    }
                }
                prop_assert_eq!(cache.len(), model.slots.len(), "step {}", step);
                prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
            }
        }

        #[test]
        fn result_cache_matches_the_naive_lru(
            budget in 0usize..6000,
            ops in proptest::collection::vec((0u32..10, 0u32..8, 1u32..400, 0u32..6), 1..160),
        ) {
            let cache = ResultCache::new(budget);
            let mut model = Model::new(budget);
            let mut now = GraphVersion::next();
            for (step, &(kind, key, len, extra)) in ops.iter().enumerate() {
                match kind {
                    0..=3 => {
                        let count = 1 + extra as usize % 3;
                        let completed = extra < 3;
                        let mut paths = PathBuffer::new();
                        let path: Vec<u32> = (0..len).collect();
                        for _ in 0..count {
                            paths.push(&path);
                        }
                        let charge = paths.heap_bytes() + ENTRY_OVERHEAD_BYTES;
                        let kept = model.slot(key).is_some_and(|old| {
                            old.version == now && (old.completed || (!completed && count <= old.paths))
                        });
                        let evicted = if kept {
                            Vec::new()
                        } else {
                            model.insert(Slot { key, version: now, used: 0, charge, paths: count, completed })
                        };
                        let (termination, limit) = if completed {
                            (Termination::Completed, None)
                        } else {
                            (Termination::LimitReached, Some(count as u64))
                        };
                        cache.insert(result_key(key), now, paths, termination, limit, None);
                        for gone in evicted {
                            prop_assert!(!model.lookup(gone, now, |_| true));
                            prop_assert!(cache.lookup(&result_key(gone), None, now).is_none(), "step {}: {} evicted", step, gone);
                        }
                    }
                    4..=7 => {
                        if kind == 7 {
                            now = GraphVersion::next();
                        }
                        let limit = (extra > 0).then_some(u64::from(extra));
                        let hit = model.lookup(key, now, |slot| {
                            slot.completed || limit.is_some_and(|l| l <= slot.paths as u64)
                        });
                        prop_assert_eq!(cache.lookup(&result_key(key), limit, now).is_some(), hit, "step {}", step);
                    }
                    8 => {
                        model.bypass();
                        cache.note_bypass();
                    }
                    _ => {
                        model.slots.clear();
                        cache.clear();
                    }
                }
                prop_assert_eq!(cache.len(), model.slots.len(), "step {}", step);
                prop_assert_eq!(cache.bytes(), model.bytes(), "step {}", step);
                prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
            }
        }
    }
}
