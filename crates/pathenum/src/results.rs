//! The result cache: the fourth caching layer, and the first one that
//! skips *enumeration* itself.
//!
//! The layers below it — plan cache ([`crate::plan::PlanCache`]), cached
//! index, footprint retention — make *planning* nearly free for a
//! repeated request, but every warm hit still pays the full enumeration:
//! on a skewed, repetitive read stream (`benchmark/`'s `replay_skewed`)
//! that is the dominant remaining cost. A [`ResultCache`] closes the
//! loop: it is keyed by the plan layer's own [`PlanKey`] (`s`, `t`, `k`,
//! constraint namespace + fingerprint, forced method and effective
//! `tau`) — the full identity of an answer, bounds excluded — and
//! guarded by the serving graph's [`GraphVersion`] epoch, storing the
//! completed path set (a flat [`PathBuffer`]) together with its
//! [`Termination`] and the limit it ran under. A hit replays the stored
//! paths into the caller's sink — no BFS, no index build, no search —
//! and reports
//! [`CacheOutcome::ResultHit`](crate::plan::CacheOutcome::ResultHit).
//!
//! Three rules keep replays byte-identical to fresh execution:
//!
//! * **Limits are served, not keyed.** The sequential enumeration order
//!   is deterministic and the same for both methods, so a `limit(n)`
//!   request is exactly the first `n` stored paths. A
//!   [`Termination::Completed`] entry therefore serves *any* limit; an
//!   entry truncated by [`Termination::LimitReached`] is reusable only
//!   for requests with an **equal-or-tighter** limit (a looser request
//!   might be owed paths the entry never captured, so it misses and
//!   re-runs). Nothing else is stored: a
//!   [`Termination::DeadlineExceeded`] prefix depends on how fast the
//!   machine was, so no replay of it can match a fresh run. The
//!   method is chosen per request from its limit
//!   ([`decide`](crate::optimizer::decide)), so the plan a replay
//!   reports — the one that produced the stored answer — need not be
//!   the one a fresh run of that limit would pick; the paths are.
//! * **Mutation streams retain surgically.** Entries recorded on a graph
//!   that keeps a mutation log (a
//!   [`DynamicEngine`](crate::DynamicEngine)'s) carry the same
//!   `IndexFootprint` plan entries do, and a version-stale entry goes
//!   through the same retention walk, the one in
//!   [`sharded`](crate::sharded)'s versioned LRU: it survives a delta
//!   that provably cannot touch any result path. Insertions use the
//!   sticky two-sided rule. The removal rule is this layer's own: a
//!   removed edge invalidates only when it leaves the `s`-reach *and*
//!   enters the `t`-reach, as every edge of every result path does. The
//!   plan layer's stricter rule (both ends in `X`) guards index tables
//!   this layer does not hold.
//! * **Admission is byte-budgeted.** Entries are charged their real
//!   heap footprint (paths + footprint bitsets); the LRU evicts until
//!   the budget holds, and an entry larger than the whole budget is
//!   never admitted — nor even recorded: the recording tee stops
//!   buffering once an answer outgrows the budget.
//!
//! The cache is **off by default** everywhere — enable it per engine
//! ([`QueryEngine::with_result_cache`](crate::QueryEngine::with_result_cache),
//! [`DynamicEngine::with_result_cache`](crate::DynamicEngine::with_result_cache))
//! or per catalog
//! ([`CatalogConfig::result_cache_bytes`](crate::catalog::CatalogConfig::result_cache_bytes)).
//! Individual requests opt out of this layer alone with
//! [`QueryRequest::bypass_result_cache`](crate::QueryRequest::bypass_result_cache);
//! [`QueryRequest::bypass_cache`](crate::QueryRequest::bypass_cache)
//! opts out of both layers. Accumulative and automaton requests are never
//! result-cached: they share the unconstrained request's plan key, but
//! their closures shape a result set no key can tell apart.
//!
//! Like the plan layer, the result layer is one type, [`Sharded`] over
//! its key and entry: an engine owns a one-shard [`ResultCache`], a
//! catalog tenant an N-shard one. Its statistics are the same
//! [`CacheStats`](crate::CacheStats), with the same accounting identity:
//! `hits + misses + bypasses == lookups`.

use std::sync::Arc;

use pathenum_graph::{GraphVersion, VertexId};

use crate::plan::{GraphStamp, IndexFootprint, PhysicalPlan, PlanKey};
use crate::request::Termination;
use crate::sharded::{Retained, Sharded};
use crate::sink::{PathBuffer, PathSink, SearchControl};

/// A pass-through sink that records a copy of every path the caller's
/// sink accepted, so a cold run doubles as the recording for the result
/// cache. Sits *inside* the request's
/// [`ControlledSink`](crate::request::ControlledSink), so it sees exactly
/// the admitted result sequence.
///
/// The recording is bounded by `max_bytes` — the largest entry the cache
/// could ever admit. Once the buffer's heap footprint passes it, the
/// buffer is dropped and recording stops (the paths keep flowing to the
/// caller's sink): an unlimited query on a dense graph never holds more
/// than the cache would take anyway.
///
/// If the **caller's** sink stops the run, the recorded prefix is not a
/// faithful answer for the request (the response still reads
/// [`Termination::Completed`] — the caller issued that stop and the rest
/// of the result set was abandoned), so [`finish`](Self::finish) yields
/// nothing and no entry is admitted; likewise when the bound was hit.
pub(crate) struct TeeSink<'a> {
    inner: &'a mut dyn PathSink,
    /// `None` once the recording is inadmissible (bound exceeded or the
    /// inner sink stopped the run).
    buffer: Option<PathBuffer>,
    max_bytes: usize,
}

impl<'a> TeeSink<'a> {
    pub(crate) fn new(inner: &'a mut dyn PathSink, max_bytes: usize) -> Self {
        TeeSink {
            inner,
            buffer: Some(PathBuffer::new()),
            max_bytes,
        }
    }

    /// The recorded answer, or `None` when it is not admissible: the
    /// inner sink truncated the run, or the answer outgrew `max_bytes`.
    pub(crate) fn finish(self) -> Option<PathBuffer> {
        self.buffer
    }
}

impl PathSink for TeeSink<'_> {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        let control = self.inner.emit(path);
        match control {
            SearchControl::Continue => {
                if let Some(buffer) = &mut self.buffer {
                    buffer.push(path);
                    if buffer.heap_bytes() > self.max_bytes {
                        self.buffer = None;
                    }
                }
            }
            SearchControl::Stop => self.buffer = None,
        }
        control
    }

    #[inline]
    fn probe(&mut self) -> SearchControl {
        self.inner.probe()
    }
}

/// What a result-cache hit hands back: everything needed to replay the
/// answer without touching the graph.
#[derive(Debug, Clone)]
pub(crate) struct CachedResult {
    /// The plan that produced the stored paths (for the response's
    /// report; `Copy`, so handing it out is free).
    pub plan: PhysicalPlan,
    /// The stored path sequence (shared — replay happens outside any
    /// cache lock).
    pub paths: Arc<PathBuffer>,
    /// How many of the stored paths this request is served (a prefix;
    /// `<= paths.len()`).
    pub served: usize,
    /// The termination the equivalent fresh execution would report.
    pub termination: Termination,
}

/// Fixed per-entry overhead charged against the byte budget on top of
/// the measured path/footprint bytes (map slot, entry struct, `Arc`).
pub(crate) const ENTRY_OVERHEAD_BYTES: usize = 192;

/// One [`ResultCache`] entry: a recorded answer, the plan that produced
/// it, and the limit it ran under.
#[derive(Debug)]
pub struct ResultEntry {
    plan: PhysicalPlan,
    paths: Arc<PathBuffer>,
    /// [`Termination::Completed`] or [`Termination::LimitReached`]: no
    /// other run is stored.
    termination: Termination,
    /// The limit the recording run executed under (`None` = unbounded).
    limit: Option<u64>,
}

impl ResultEntry {
    /// How many stored paths a request with `limit` may be served, and
    /// the termination it should report — or `None` when the entry cannot
    /// answer the request (a limit looser than the one the recording run
    /// was cut off at).
    fn serve(&self, limit: Option<u64>) -> Option<(usize, Termination)> {
        let stored = self.paths.len();
        match self.termination {
            // A completed entry is the full result set: any limit is a
            // deterministic prefix of it. A limit <= stored reproduces
            // the cut exactly where a fresh run would stop.
            Termination::Completed => match limit {
                Some(l) if (l as usize) <= stored => Some((l as usize, Termination::LimitReached)),
                _ => Some((stored, Termination::Completed)),
            },
            // A limit-truncated entry holds exactly the first `l0`
            // paths; only an equal-or-tighter limit is a prefix of it.
            Termination::LimitReached => {
                let l0 = self.limit.unwrap_or(stored as u64);
                match limit {
                    Some(l) if l <= l0 => {
                        Some(((l as usize).min(stored), Termination::LimitReached))
                    }
                    _ => None,
                }
            }
            // Never inserted; an entry cannot carry these.
            Termination::DeadlineExceeded | Termination::Cancelled => None,
        }
    }

    /// Whether the new recording of the same key supersedes this entry
    /// (at the same graph version). A completed answer always wins; two
    /// truncated answers are ranked by how much they captured.
    fn superseded_by(&self, termination: Termination, new_paths: usize) -> bool {
        match (self.termination, termination) {
            (Termination::Completed, _) => false,
            (_, Termination::Completed) => true,
            _ => new_paths > self.paths.len(),
        }
    }
}

impl Retained for ResultEntry {
    fn removal_invalidates(&self, footprint: &IndexFootprint, u: VertexId, w: VertexId) -> bool {
        // An edge can sit on a result path only if it leaves the
        // `s`-reach and enters the `t`-reach.
        footprint.removal_touches_results(u, w)
    }
}

/// Default byte budget of a [`ResultCache`]: enough for tens of
/// thousands of limit-1000 answers on typical path lengths while
/// staying far below the serving graph itself.
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 16 * 1024 * 1024;

/// A byte-budgeted LRU cache of completed enumeration answers, keyed by
/// [`PlanKey`] and guarded by a [`GraphVersion`] epoch: [`Sharded`]
/// over the result layer's entries, each charged its measured bytes plus
/// a fixed per-entry overhead.
///
/// See the [module docs](self) for the serve rules and retention
/// semantics. [`new`](Self::new) builds the one-shard cache an engine
/// owns; like [`PlanCache`](crate::plan::PlanCache) it is an independent
/// value, so it can move between engines over successive snapshots. A
/// catalog tenant's cache is built with
/// [`with_shards`](Sharded::with_shards). A hit hands out an `Arc` of the
/// stored [`PathBuffer`]; the replay into the caller's sink happens
/// entirely outside the shard lock.
pub type ResultCache = Sharded<PlanKey, ResultEntry>;

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(DEFAULT_RESULT_CACHE_BYTES)
    }
}

impl ResultCache {
    /// A one-shard cache holding at most `byte_budget` bytes of stored
    /// answers (measured heap footprint plus a fixed per-entry overhead).
    /// A budget of 0 disables the cache: every lookup misses, nothing is
    /// stored.
    pub fn new(byte_budget: usize) -> Self {
        Sharded::with_shards(byte_budget, 1)
    }

    /// Total byte budget across all shards (rounded up as enforced).
    pub fn byte_budget(&self) -> usize {
        self.budget()
    }

    /// Bytes currently charged by stored entries.
    pub fn bytes(&self) -> usize {
        self.charged()
    }

    /// Looks up a servable answer for `key` against the serving graph
    /// `at`, under the request's `limit`, re-validating a version-stale
    /// entry as the plan layer does. A limit-incompatible entry stays (a
    /// tighter future request can still use it); the lookup misses.
    pub(crate) fn lookup<'g>(
        &self,
        key: &PlanKey,
        limit: Option<u64>,
        at: impl Into<GraphStamp<'g>>,
    ) -> Option<CachedResult> {
        let at = at.into();
        self.with_shard(key, |lru| {
            lru.lookup(key, at, |entry| {
                let (served, termination) = entry.serve(limit)?;
                Some(CachedResult {
                    plan: entry.plan,
                    paths: Arc::clone(&entry.paths),
                    served,
                    termination,
                })
            })
        })
    }

    /// Stores one recorded answer, evicting least-recently-used entries
    /// of its shard until the shard's byte budget holds. Only a
    /// [`Completed`](Termination::Completed) or
    /// [`LimitReached`](Termination::LimitReached) run is stored: a
    /// cancelled run is no answer, and a deadline-cut prefix depends on
    /// the machine's speed, so no replay of it could match a fresh run.
    /// An answer larger than a shard's budget is not admitted; a worse
    /// answer never displaces a better one for the same key at the same
    /// version (a `Completed` entry is never overwritten by a truncated
    /// re-run under a tighter limit).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert(
        &self,
        key: PlanKey,
        version: GraphVersion,
        plan: PhysicalPlan,
        paths: PathBuffer,
        termination: Termination,
        limit: Option<u64>,
        footprint: Option<IndexFootprint>,
    ) {
        if !matches!(
            termination,
            Termination::Completed | Termination::LimitReached
        ) {
            return;
        }
        self.with_shard(&key, |lru| {
            if let Some((stored, existing)) = lru.get_mut(&key) {
                if stored == version && !existing.superseded_by(termination, paths.len()) {
                    return;
                }
            }
            let bytes = paths.heap_bytes()
                + footprint.as_ref().map_or(0, IndexFootprint::heap_bytes)
                + ENTRY_OVERHEAD_BYTES;
            let entry = ResultEntry {
                plan,
                paths: Arc::new(paths),
                termination,
                limit,
            };
            lru.insert(key, version, entry, footprint, bytes);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::PathEnumConfig;
    use crate::plan::plan_on_index;
    use crate::query::Query;
    use crate::request::QueryRequest;
    use crate::stats::PhaseTimings;

    fn sample_plan() -> PhysicalPlan {
        let g = crate::index::test_support::figure1_graph();
        let query = Query::new(
            crate::index::test_support::S,
            crate::index::test_support::T,
            4,
        )
        .unwrap();
        let index = crate::index::Index::build(&g, query);
        let mut timings = PhaseTimings::default();
        plan_on_index(&index, PathEnumConfig::default(), &mut timings)
    }

    fn buffer(paths: &[&[u32]]) -> PathBuffer {
        let mut buf = PathBuffer::new();
        for p in paths {
            buf.push(p);
        }
        buf
    }

    fn key(k: u32) -> PlanKey {
        PlanKey {
            s: 0,
            t: 1,
            k,
            namespace: 0,
            fingerprint: 0,
            method: None,
            tau: 100_000,
        }
    }

    #[test]
    fn completed_entries_serve_any_limit_as_a_prefix() {
        let cache = ResultCache::new(1 << 20);
        let v = GraphVersion::next();
        let paths = buffer(&[&[0, 2, 1], &[0, 3, 1], &[0, 4, 1]]);
        cache.insert(
            key(4),
            v,
            sample_plan(),
            paths,
            Termination::Completed,
            None,
            None,
        );

        let full = cache.lookup(&key(4), None, v).unwrap();
        assert_eq!(full.served, 3);
        assert_eq!(full.termination, Termination::Completed);

        let loose = cache.lookup(&key(4), Some(10), v).unwrap();
        assert_eq!(loose.served, 3);
        assert_eq!(loose.termination, Termination::Completed);

        let tight = cache.lookup(&key(4), Some(2), v).unwrap();
        assert_eq!(tight.served, 2);
        assert_eq!(tight.termination, Termination::LimitReached);

        // limit == stored count: a fresh run delivers the last path and
        // *then* observes the limit — LimitReached, exactly at the edge.
        let exact = cache.lookup(&key(4), Some(3), v).unwrap();
        assert_eq!(exact.served, 3);
        assert_eq!(exact.termination, Termination::LimitReached);
    }

    #[test]
    fn truncated_entries_serve_only_equal_or_tighter_bounds() {
        let cache = ResultCache::new(1 << 20);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1], &[0, 3, 1]]),
            Termination::LimitReached,
            Some(2),
            None,
        );

        assert!(cache.lookup(&key(4), None, v).is_none(), "unbounded");
        assert!(cache.lookup(&key(4), Some(5), v).is_none(), "looser");
        let equal = cache.lookup(&key(4), Some(2), v).unwrap();
        assert_eq!(equal.served, 2);
        assert_eq!(equal.termination, Termination::LimitReached);
        let tighter = cache.lookup(&key(4), Some(1), v).unwrap();
        assert_eq!(tighter.served, 1);
        assert_eq!(tighter.termination, Termination::LimitReached);

        // The incompatible lookups kept the entry alive.
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    }

    #[test]
    fn deadline_truncated_runs_are_never_stored() {
        let cache = ResultCache::new(1 << 20);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::DeadlineExceeded,
            None,
            None,
        );
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert!(cache.lookup(&key(4), Some(1), v).is_none());
    }

    #[test]
    fn version_mismatch_invalidates() {
        let cache = ResultCache::new(1 << 20);
        let v1 = GraphVersion::next();
        cache.insert(
            key(4),
            v1,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::Completed,
            None,
            None,
        );
        let v2 = GraphVersion::next();
        assert!(cache.lookup(&key(4), None, v2).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_and_rejects_oversized() {
        let long: Vec<u32> = (0..200).collect();
        let one_entry = buffer(&[&long]).heap_bytes() + ENTRY_OVERHEAD_BYTES;
        // Room for two long-path entries, not three.
        let cache = ResultCache::new(one_entry * 2 + ENTRY_OVERHEAD_BYTES / 2);
        let v = GraphVersion::next();
        for k in [2u32, 3, 4] {
            cache.insert(
                key(k),
                v,
                sample_plan(),
                buffer(&[&long]),
                Termination::Completed,
                None,
                None,
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key(2), None, v).is_none(), "LRU gone");
        assert!(cache.lookup(&key(4), None, v).is_some());
        assert!(cache.bytes() <= cache.byte_budget());

        // An answer larger than the whole budget is never admitted.
        let huge: Vec<u32> = (0..100_000).collect();
        cache.insert(
            key(9),
            v,
            sample_plan(),
            buffer(&[&huge]),
            Termination::Completed,
            None,
            None,
        );
        assert!(cache.lookup(&key(9), None, v).is_none());
    }

    #[test]
    fn a_truncated_rerun_never_displaces_a_completed_answer() {
        let cache = ResultCache::new(1 << 20);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1], &[0, 3, 1]]),
            Termination::Completed,
            None,
            None,
        );
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::LimitReached,
            Some(1),
            None,
        );
        let hit = cache.lookup(&key(4), None, v).unwrap();
        assert_eq!(hit.served, 2, "the completed answer survived");
        assert_eq!(hit.termination, Termination::Completed);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let cache = ResultCache::new(0);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::Completed,
            None,
            None,
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(4), None, v).is_none());
    }

    #[test]
    fn cancelled_runs_are_never_stored() {
        let cache = ResultCache::new(1 << 20);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::Cancelled,
            None,
            None,
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_counts_consistently_under_threads() {
        let cache = ResultCache::with_shards(1 << 20, 4);
        let v = GraphVersion::next();
        cache.insert(
            key(4),
            v,
            sample_plan(),
            buffer(&[&[0, 2, 1]]),
            Termination::Completed,
            None,
            None,
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..50u32 {
                        if round % 5 == 4 {
                            cache.note_bypass();
                        } else {
                            let hit = cache.lookup(&key(4), None, v).expect("warm");
                            assert_eq!(hit.paths.get(0), &[0, 2, 1]);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups, 200);
        assert_eq!(stats.bypasses, 40);
        assert_eq!(stats.hits, 160);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tee_stops_recording_once_the_answer_outgrows_the_budget() {
        use crate::sink::{CollectingSink, CountingSink};
        use pathenum_graph::generators::complete_digraph;

        // Every simple path 0 -> 1 within 5 hops of K7: 206 paths, several
        // KiB — far more than the cache below could ever admit.
        let g = complete_digraph(7);
        let budget = 1024;
        let mut expected = CollectingSink::default();
        let query = Query::new(0, 1, 5).unwrap();
        crate::reference::brute_force_paths(&g, query, &mut expected);
        let expected = expected.sorted_paths();
        assert_eq!(expected.len(), 206);

        // Through an engine: the caller's sink still gets every path,
        // and nothing is inserted.
        let mut engine = crate::QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::new(budget));
        let mut sink = CollectingSink::default();
        let request = QueryRequest::paths(0, 1).max_hops(5);
        let response = engine.execute_into(&request, &mut sink).unwrap();
        assert_eq!(response.termination, Termination::Completed);
        assert_eq!(sink.sorted_paths(), expected);
        let results = engine.result_cache().unwrap();
        assert!(results.is_empty());
        assert_eq!(results.bytes(), 0);

        // Through the tee itself: between emissions the recording never
        // holds more than the budget, and it ends inadmissible.
        let mut inner = CountingSink::default();
        let mut tee = TeeSink::new(&mut inner, budget);
        let mut peak = 0;
        for path in &expected {
            assert_eq!(tee.emit(path), SearchControl::Continue);
            let recorded = tee.buffer.as_ref().map_or(0, PathBuffer::heap_bytes);
            assert!(recorded <= budget, "{recorded} bytes recorded");
            peak = peak.max(recorded);
        }
        assert!(peak > 0, "the prefix that fits is recorded");
        assert!(tee.finish().is_none());
        assert_eq!(inner.count, 206);
    }
}
