//! The request pipeline: the one place a [`QueryRequest`] is turned into
//! a [`QueryResponse`].
//!
//! The paper's Figure 2 is one sequence — boundary BFS → index →
//! estimate → optimize → IDX-DFS/IDX-JOIN — and serving wraps it in one
//! more. That wrapper lives here, once, as two stages:
//!
//! * [`Pipeline::acquire`] — result probe → plan probe → cold build +
//!   plan insert. Yields either a finished
//!   [`Acquired::Replay`] (a stored answer was replayed into the sink:
//!   no planning, no enumeration) or an [`Acquired::Planned`] request
//!   holding the plan, its shared index, the front-half timings, and the
//!   slot its answer should be recorded under.
//! * [`finish`] — interpret the plan against the sink through the
//!   [`Executor`], teeing the answer into the result layer when there is
//!   a slot for it.
//!
//! Every evaluator is a driver that sequences the stages and adds only
//! what is its own, and every one of them hands the stages the same
//! [`Caches`]: one-shard layers for an engine, N-shard layers for a
//! catalog tenant. [`Pipeline::evaluate`] (validate →
//! [`preflight_stop`] → acquire → finish) is the whole of
//! [`QueryEngine::execute_into`](crate::QueryEngine::execute_into). The
//! [`catalog`](crate::catalog) drives the same stages: `preflight_stop` +
//! `acquire` on the submitting thread, admission and a queue in between,
//! and `preflight_stop` + `finish` on a pool worker with a deadline that
//! starts at pickup. [`QueryEngine::stream`](crate::QueryEngine::stream)
//! is validate → pre-flight → [`Pipeline::plan_with_rows`], a paused
//! `execute` that never touches the result layer.
//!
//! Surgical retention under mutation is a property of the *graph*, not
//! of an evaluator: when the serving graph offers a mutation log
//! ([`GraphSnapshot::mutation_log`]), lookups re-validate stale entries
//! against it and cold plans record the reach footprint that makes that
//! possible. [`DynamicEngine`](crate::DynamicEngine) is therefore just
//! `QueryEngine<DynamicGraph>`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathenum_graph::{GraphSnapshot, GraphVersion, NeighborAccess, VertexId};

use crate::constraints::filtered_graph;
use crate::index::{BuildScratch, Index};
use crate::optimizer::{decide, PathEnumConfig, PlanEstimates};
use crate::plan::{
    estimate_and_decide, CacheOutcome, ConstraintKind, Executor, GraphStamp, IndexFootprint,
    PhysicalPlan, PlanCache, PlanKey, StoppingRules,
};
use crate::query::Query;
use crate::request::{ConstraintSpec, PathEnumError, QueryRequest, QueryResponse, Termination};
use crate::results::{CachedResult, ResultCache, TeeSink};
use crate::sink::{PathSink, SearchControl};
use crate::stats::{Counters, PhaseTimings, RunReport};

/// The two cache layers a pipeline run consults: plans and, when
/// attached, results (off by default everywhere). An engine owns
/// one-shard layers, a catalog tenant N-shard ones; the stages borrow
/// either the same way, and every probe and insert locks just the key's
/// shard.
#[derive(Debug)]
pub(crate) struct Caches {
    pub plans: PlanCache,
    pub results: Option<ResultCache>,
}

/// Where [`finish`] records the answer of a request that missed the
/// result layer.
pub(crate) struct ResultSlot {
    key: PlanKey,
    version: GraphVersion,
    /// The reach footprint of the build that planned the request, when
    /// the serving graph keeps a mutation log *and* this run actually
    /// built.
    footprint: Option<IndexFootprint>,
}

/// A request that has its plan and is ready to enumerate.
pub(crate) struct PlannedRequest {
    pub plan: PhysicalPlan,
    pub index: Arc<Index>,
    /// Front-half phase timings: `cache_lookup` on a plan hit, the
    /// BFS/build/estimate/optimize phases on a cold plan.
    pub timings: PhaseTimings,
    pub outcome: CacheOutcome,
    pub result_slot: Option<ResultSlot>,
}

/// What [`acquire`] hands back.
pub(crate) enum Acquired {
    /// The result layer answered: the stored paths were replayed into
    /// the sink and this is the finished response.
    Replay(QueryResponse),
    /// The request is planned; [`finish`] enumerates it.
    Planned(PlannedRequest),
}

/// The plan-cache key for a request against a cache of `capacity`
/// entries, or `None` when the request is not cacheable (bypass flag,
/// zero-capacity cache, or an unfingerprinted predicate).
fn plan_key(
    config: PathEnumConfig,
    request: &QueryRequest<'_>,
    capacity: usize,
) -> Option<PlanKey> {
    if request.bypass_cache || capacity == 0 {
        return None;
    }
    PlanKey::for_request(request, config)
}

/// The result-cache key for a request — its plan-cache key — or `None`
/// when its *results* are not cacheable: bypass flags (either layer's),
/// explain requests (they never enumerate), accumulative/automaton
/// constraints (they share the unconstrained plan, but their closures
/// shape a result set no key can tell apart), and unfingerprinted
/// predicates.
fn result_key(config: PathEnumConfig, request: &QueryRequest<'_>) -> Option<PlanKey> {
    if request.bypass_cache
        || request.bypass_result_cache
        || request.explain
        || matches!(
            request.constraint,
            ConstraintSpec::Accumulative(_) | ConstraintSpec::Automaton { .. }
        )
    {
        return None;
    }
    PlanKey::for_request(request, config)
}

/// The pre-flight stopping rules shared by every evaluator: a request
/// that is already cancelled, already past its deadline, or limited to
/// zero results never starts. Explain requests always plan — they never
/// enumerate anyway. Returns the short-circuit response when a rule
/// fires; such requests count as *rejected* (not served) and their
/// response reads [`CacheOutcome::Skipped`].
pub(crate) fn preflight_stop(
    request: &QueryRequest<'_>,
    deadline: Option<Instant>,
) -> Option<QueryResponse> {
    preflight_termination(request, deadline).map(QueryResponse::empty)
}

/// The rule set behind [`preflight_stop`], shared verbatim with
/// [`QueryEngine::stream`](crate::QueryEngine::stream), which then plans
/// through the same [`Pipeline::plan`] as `execute` (a stream has no
/// response to build — a rejected stream reports its termination on the
/// first pull instead).
pub(crate) fn preflight_termination(
    request: &QueryRequest<'_>,
    deadline: Option<Instant>,
) -> Option<Termination> {
    if request.explain {
        return None;
    }
    if request.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Some(Termination::Cancelled);
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(Termination::DeadlineExceeded);
    }
    if request.limit == Some(0) {
        return Some(Termination::LimitReached);
    }
    None
}

/// Everything the front half of the pipeline is parameterised by: the
/// serving graph, the orchestrator configuration, the caches, and the
/// build scratch cold plans reuse.
pub(crate) struct Pipeline<'a, G> {
    pub graph: &'a G,
    pub config: PathEnumConfig,
    pub caches: &'a Caches,
    pub scratch: &'a mut BuildScratch,
}

impl<G: GraphSnapshot> Pipeline<'_, G> {
    /// The whole pipeline for an evaluator with nothing between the
    /// stages: validate → pre-flight → [`acquire`](Self::acquire) →
    /// [`finish`], with the deadline starting now. A response reading
    /// [`CacheOutcome::Skipped`] was rejected by a pre-flight rule
    /// before it touched the graph or the caches.
    pub(crate) fn evaluate(
        &mut self,
        request: &QueryRequest<'_>,
        sink: &mut dyn PathSink,
    ) -> Result<QueryResponse, PathEnumError> {
        let query = request.validate(self.graph.num_vertices())?;
        let deadline = request.time_budget.map(|b| Instant::now() + b);
        if let Some(stopped) = preflight_stop(request, deadline) {
            return Ok(stopped);
        }
        Ok(match self.acquire(query, request, sink) {
            Acquired::Replay(response) => response,
            Acquired::Planned(planned) => {
                finish(planned, self.graph, request, deadline, sink, self.caches)
            }
        })
    }

    /// Stage one: find the cheapest way to answer a validated request.
    ///
    /// The result layer (when one is attached) is probed first: a
    /// stored answer — fresh, or surgically retained across the graph's
    /// mutation log — is replayed straight into `sink`, skipping
    /// planning *and* enumeration. Otherwise the request is
    /// [planned](Self::plan), with a slot to record its answer under
    /// unless its results are uncacheable.
    pub(crate) fn acquire(
        &mut self,
        query: Query,
        request: &QueryRequest<'_>,
        sink: &mut dyn PathSink,
    ) -> Acquired {
        let mut key = None;
        if let Some(results) = &self.caches.results {
            key = result_key(self.config, request);
            match &key {
                Some(key) => {
                    let at = GraphStamp::of(self.graph);
                    let lookup_start = Instant::now();
                    let cached = results.lookup(key, request.limit, at);
                    if let Some(cached) = cached {
                        let lookup = lookup_start.elapsed();
                        return Acquired::Replay(replay_result_hit(&cached, sink, lookup));
                    }
                }
                None => results.note_bypass(),
            }
        }
        Acquired::Planned(self.plan(query, request, key))
    }

    /// The plan half of [`acquire`](Self::acquire) — and, with no
    /// `result_key`, the whole of an engine's `explain` and the front
    /// half of its `stream`: the plan is taken from the plan layer, or
    /// planned cold with the scratch and stored at once, so it warms the
    /// cache even if the request is never enumerated (an explain, or a
    /// request admission then sheds).
    ///
    /// A fresh (or surgically retained) entry skips BFS, index build and
    /// estimation; the (tiny) lookup cost — including any retention check
    /// against the mutation log — is reported as `cache_lookup`. The
    /// entry keeps an index and its estimates; the plan is this
    /// request's, built from them by the one estimate step
    /// ([`complete`](Self::complete)). A cold step-1 plan hands back the
    /// labels-only index it stored.
    pub(crate) fn plan(
        &mut self,
        query: Query,
        request: &QueryRequest<'_>,
        result_key: Option<PlanKey>,
    ) -> PlannedRequest {
        let at = GraphStamp::of(self.graph);
        let caches = self.caches;
        let plans = &caches.plans;
        let key = plan_key(self.config, request, plans.capacity());
        let slot = |footprint| {
            result_key.map(|key| ResultSlot {
                key,
                version: at.version,
                footprint,
            })
        };

        match &key {
            Some(key) => {
                let lookup_start = Instant::now();
                if let Some((index, estimates)) = plans.lookup(key, at) {
                    let mut timings = PhaseTimings {
                        cache_lookup: lookup_start.elapsed(),
                        ..PhaseTimings::default()
                    };
                    let (plan, index) =
                        self.complete(Some(key), request, index, estimates, &mut timings);
                    return PlannedRequest {
                        plan,
                        index,
                        timings,
                        outcome: CacheOutcome::Hit,
                        // No build ran, so there is no footprint to
                        // capture: the answer is stored footprint-less
                        // (version-invalidated rather than retained).
                        result_slot: slot(None),
                    };
                }
            }
            None => plans.note_bypass(),
        }

        // Cold path: plan from scratch and publish before executing.
        // Racing workers may plan the same query concurrently; planning
        // is deterministic, so whichever insert lands last is identical.
        // A graph with a mutation log gets the two-pass boundary search:
        // retention needs the full reach of both endpoints, which the
        // sweep every other graph takes does not compute.
        let (index, mut timings) = self.build(query, request, at.log.is_some());
        let plan = estimate_and_decide(
            &index,
            PlanEstimates::default(),
            request,
            self.config,
            &mut timings,
        );
        let index = Arc::new(index);
        // The build's boundary distance maps are still in the scratch:
        // capture the reach footprint exactly when the graph has a log
        // to retain against.
        let footprint = at
            .log
            .and_then(|log| IndexFootprint::capture(log.lineage(), self.scratch, query.k));
        let result_slot = slot(result_key.and_then(|_| footprint.clone()));
        let outcome = match key {
            Some(key) => {
                let index = Arc::clone(&index);
                plans.insert_with_footprint(key, at.version, index, plan.estimates, footprint);
                CacheOutcome::Miss
            }
            None => CacheOutcome::Bypass,
        };
        PlannedRequest {
            plan,
            index,
            timings,
            outcome,
            result_slot,
        }
    }

    /// The cold build: the index of a validated query — on the
    /// predicate-filtered subgraph when the request carries a predicate —
    /// and its BFS and build phase timings.
    ///
    /// The decision is tried first with no estimate at all. When step 1
    /// settles the request on `k · limit` alone, and IDX-DFS can read its
    /// rows from the serving graph itself — no constraint, no
    /// `full_reach` — the labels are built first
    /// ([`Index::build_labels`]). If `X` has more members than the
    /// request's `limit`, that is all: the plan carries no preliminary
    /// estimate and the executor reads each row the first time it expands
    /// its owner. Otherwise the rows are filled at once, here, as they are
    /// for every other request.
    ///
    /// `full_reach` asks for the two-pass boundary search, whose maps
    /// [`IndexFootprint::capture`] can then read from the scratch — set
    /// exactly when the serving graph has a mutation log to retain
    /// against. The index does not depend on it.
    fn build(
        &mut self,
        query: Query,
        request: &QueryRequest<'_>,
        full_reach: bool,
    ) -> (Index, PhaseTimings) {
        let on_demand = !full_reach
            && matches!(request.constraint, ConstraintSpec::None)
            && decide(
                &PlanEstimates::default(),
                query.k,
                self.config.tau,
                request.method,
                ConstraintKind::None,
                request.limit,
            )
            .is_some();
        let build_start = Instant::now();
        let (index, bfs) = match &request.constraint {
            ConstraintSpec::Predicate(predicate) => {
                // Appendix E: the filter pass is attributed to build time.
                let filtered = filtered_graph(self.graph, predicate);
                Index::build_with(&filtered, query, self.scratch, full_reach)
            }
            _ if on_demand => {
                let (mut index, bfs) = Index::build_labels(self.graph, query, self.scratch);
                // Rows on demand pay off only where the search leaves rows
                // unread. On an index with no more members than the results
                // the request reads, a search that stops at its limit has
                // read nearly every row anyway; they are filled here, on
                // the thread whose sweep has just scanned their adjacency.
                if request
                    .limit
                    .is_some_and(|limit| index.num_vertices() as u64 <= limit)
                {
                    index.fill_rows(self.graph, self.scratch);
                }
                (index, bfs)
            }
            _ => Index::build_with(self.graph, query, self.scratch, full_reach),
        };
        let timings = PhaseTimings {
            bfs,
            index_build: build_start.elapsed(),
            ..PhaseTimings::default()
        };
        (index, timings)
    }

    /// [`plan`](Self::plan) for a reader that needs the index's rows —
    /// the front half of an engine's `stream`. A cold step-1 plan comes
    /// back labels-only; it is [completed](Self::complete) here exactly
    /// as the first plan hit on its entry would complete it, so the
    /// entry holds the filled index the stream reads and the next request
    /// on the key finds its rows built.
    pub(crate) fn plan_with_rows(
        &mut self,
        query: Query,
        request: &QueryRequest<'_>,
    ) -> Arc<Index> {
        let PlannedRequest {
            plan,
            index,
            mut timings,
            ..
        } = self.plan(query, request, None);
        let key = plan_key(self.config, request, self.caches.plans.capacity());
        let (_, index) = self.complete(key.as_ref(), request, index, plan.estimates, &mut timings);
        index
    }

    /// Plans `request` on an index the plan layer handed out, `seen`,
    /// with the `estimates` known about it. The plan layer serves filled
    /// indexes only: a labels-only one — a step-1 miss's entry — first
    /// gets its rows from the serving graph, counted as `index_build`.
    /// Then the one estimate step builds the plan. Both run unlocked, and
    /// whatever they added is written back to `key`'s entry under
    /// `Arc::ptr_eq` against `seen`, so a hot key pays for its rows and
    /// its full estimate once.
    fn complete(
        &mut self,
        key: Option<&PlanKey>,
        request: &QueryRequest<'_>,
        seen: Arc<Index>,
        estimates: PlanEstimates,
        timings: &mut PhaseTimings,
    ) -> (PhysicalPlan, Arc<Index>) {
        let index = if seen.has_rows() {
            Arc::clone(&seen)
        } else {
            let build_start = Instant::now();
            let mut filled = Index::clone(&seen);
            filled.fill_rows(self.graph, self.scratch);
            timings.index_build += build_start.elapsed();
            Arc::new(filled)
        };
        let plan = estimate_and_decide(&index, estimates, request, self.config, timings);
        if let Some(key) = key.filter(|_| plan.estimates != estimates) {
            self.caches
                .plans
                .write_back(key, &seen, &index, &plan.estimates);
        }
        (plan, index)
    }
}

/// Stage two: enumerate a planned request into `sink` under its stopping
/// rules (`deadline` is the caller's: it starts when the caller says the
/// request started). When the request has a result slot, the run is
/// recorded through the pipeline's single [`TeeSink`] — bounded by what
/// the layer could admit — and stored, unless the answer is not one a
/// replay can reproduce: cancelled, cut by the deadline, stopped by the
/// caller's sink, or too large.
pub(crate) fn finish<G: NeighborAccess>(
    planned: PlannedRequest,
    graph: &G,
    request: &QueryRequest<'_>,
    deadline: Option<Instant>,
    sink: &mut dyn PathSink,
    caches: &Caches,
) -> QueryResponse {
    let PlannedRequest {
        plan,
        index,
        timings,
        outcome,
        result_slot,
    } = planned;
    let run = |sink: &mut dyn PathSink| {
        execute_on_plan(
            &index, graph, plan, request, deadline, sink, timings, outcome,
        )
    };
    let (Some(slot), Some(results)) = (result_slot, &caches.results) else {
        return run(sink);
    };
    let mut tee = TeeSink::new(sink, results.shard_budget());
    let response = run(&mut tee);
    if let Some(paths) = tee.finish() {
        results.insert(
            slot.key,
            slot.version,
            plan,
            paths,
            response.termination,
            request.limit,
            slot.footprint,
        );
    }
    response
}

/// Builds the response of a result-cache hit: the stored prefix is
/// replayed into the caller's sink — no BFS, no index build, no search.
/// Mirrors fresh-execution semantics exactly: a caller-sink stop ends
/// the replay with that path counted as delivered and the response
/// reading [`Termination::Completed`] (the stored termination applies
/// only when the full prefix went out).
fn replay_result_hit(
    cached: &CachedResult,
    sink: &mut dyn PathSink,
    lookup: Duration,
) -> QueryResponse {
    let replay_start = Instant::now();
    let mut delivered = 0usize;
    let mut stopped_early = false;
    while delivered < cached.served {
        let control = sink.emit(cached.paths.get(delivered));
        delivered += 1;
        if control == SearchControl::Stop {
            stopped_early = delivered < cached.served;
            break;
        }
    }
    let termination = if stopped_early {
        Termination::Completed
    } else {
        cached.termination
    };
    let timings = PhaseTimings {
        cache_lookup: lookup,
        enumeration: replay_start.elapsed(),
        ..PhaseTimings::default()
    };
    let counters = Counters {
        results: delivered as u64,
        ..Counters::default()
    };
    QueryResponse {
        report: RunReport {
            timings,
            counters,
            cache: CacheOutcome::ResultHit,
        },
        termination,
        paths: Vec::new(),
        plan: Some(cached.plan),
    }
}

/// Interprets a plan against a borrowed index (or stops before
/// enumeration for an explain request) and assembles the response. It
/// borrows everything it touches and owns no evaluator state, which is
/// what lets many threads drive it over one shared graph and cache.
#[allow(clippy::too_many_arguments)]
fn execute_on_plan<G: NeighborAccess>(
    index: &Index,
    graph: &G,
    plan: PhysicalPlan,
    request: &QueryRequest<'_>,
    deadline: Option<Instant>,
    sink: &mut dyn PathSink,
    mut timings: PhaseTimings,
    cache: CacheOutcome,
) -> QueryResponse {
    if request.explain {
        return QueryResponse {
            report: RunReport {
                timings,
                counters: Counters::default(),
                cache,
            },
            termination: Termination::Completed,
            paths: Vec::new(),
            plan: Some(plan),
        };
    }
    let rules = StoppingRules {
        limit: request.limit,
        deadline,
        cancel: request.cancel.clone(),
    };
    let execution = Executor::run(index, graph, &plan, &request.constraint, rules, sink);
    timings.enumeration = execution.enumeration;
    QueryResponse {
        report: RunReport {
            timings,
            counters: execution.counters,
            cache,
        },
        termination: execution.termination,
        paths: Vec::new(),
        plan: Some(plan),
    }
}

/// The sink behind every evaluator's collecting `execute()`: keeps a
/// copy of each path when the request asked for
/// [`collect_paths`](QueryRequest::collect_paths), and attaches them to
/// the response afterwards. A request that does not collect counts only
/// (the response's counters carry the count).
pub(crate) struct Collector {
    collect: bool,
    paths: Vec<Vec<VertexId>>,
}

impl Collector {
    pub(crate) fn new(request: &QueryRequest<'_>) -> Self {
        Collector {
            collect: request.collect,
            paths: Vec::new(),
        }
    }

    /// `response` with the collected paths attached.
    pub(crate) fn attach(self, mut response: QueryResponse) -> QueryResponse {
        response.paths = self.paths;
        response
    }
}

impl PathSink for Collector {
    #[inline]
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        if self.collect {
            self.paths.push(path.to_vec());
        }
        SearchControl::Continue
    }

    #[inline]
    fn counts_only(&self) -> bool {
        !self.collect
    }

    #[inline]
    fn emit_count(&mut self, _n: u64) -> SearchControl {
        SearchControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    use pathenum_graph::generators::erdos_renyi;

    use super::*;
    use crate::plan::DEFAULT_PLAN_CACHE_CAPACITY;

    /// The shared-cache accounting identity
    /// `hits + misses + bypasses == lookups` must hold under genuinely
    /// concurrent load *and* across `clear()` calls racing the lookups —
    /// a clear may evict every entry mid-stream, but it must never lose
    /// or double-count a lookup — and at every read of the stats, not
    /// just once the load has quiesced.
    #[test]
    fn shared_cache_stats_balance_under_concurrent_load_and_clears() {
        const THREADS: usize = 4;
        const ITERS: usize = 60;
        const SHAPES: u32 = 5;

        let graph = erdos_renyi(60, 380, 13);
        let caches = Caches {
            plans: PlanCache::with_shards(DEFAULT_PLAN_CACHE_CAPACITY, 8),
            results: None,
        };
        let cache = &caches.plans;
        let evaluate = |request: &QueryRequest<'_>| {
            let mut scratch = BuildScratch::default();
            let mut sink = Collector::new(request);
            Pipeline {
                graph: &graph,
                config: PathEnumConfig::default(),
                caches: &caches,
                scratch: &mut scratch,
            }
            .evaluate(request, &mut sink)
            .expect("valid request");
        };

        // One thread hammers `clear` while the submitters run. All start
        // together, `clears` counts only clears made after that, and
        // every submitter waits at its halfway point for the first of
        // them: a clear lands mid-load however the threads are scheduled.
        let done = AtomicBool::new(false);
        let clears = AtomicU64::new(0);
        let start = Barrier::new(THREADS + 1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    cache.clear();
                    let stats = cache.stats();
                    assert_eq!(
                        stats.hits + stats.misses + stats.bypasses,
                        stats.lookups,
                        "accounting identity at a read mid-load: {stats:?}"
                    );
                    clears.fetch_add(1, Ordering::Release);
                    std::thread::yield_now();
                }
            });
            let submitters: Vec<_> = (0..THREADS)
                .map(|id| {
                    let (start, clears, evaluate) = (&start, &clears, &evaluate);
                    scope.spawn(move || {
                        start.wait();
                        let mut clears_at_halfway = 0;
                        for i in 0..ITERS {
                            if i == ITERS / 2 {
                                while clears.load(Ordering::Acquire) == 0 {
                                    std::thread::yield_now();
                                }
                                clears_at_halfway = clears.load(Ordering::Acquire);
                            }
                            let t = 1 + ((id + i) as u32 % SHAPES);
                            let request = QueryRequest::paths(0, t).max_hops(3).limit(16);
                            // Every fifth request opts out so `bypasses` is
                            // exercised in the same race.
                            let request = if i % 5 == 4 {
                                request.bypass_cache()
                            } else {
                                request
                            };
                            evaluate(&request);
                        }
                        clears_at_halfway
                    })
                })
                .collect();
            for handle in submitters {
                let clears_at_halfway = handle.join().expect("submitter thread");
                assert!(
                    clears_at_halfway > 0,
                    "a clear landed while this submitter was mid-loop"
                );
            }
            done.store(true, Ordering::Relaxed);
        });

        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses + stats.bypasses,
            stats.lookups,
            "accounting identity under concurrent load + clears: {stats:?}"
        );
        assert_eq!(stats.lookups, (THREADS * ITERS) as u64);
        assert_eq!(stats.bypasses, (THREADS * (ITERS / 5)) as u64);
        assert!(
            stats.misses >= u64::from(SHAPES),
            "each cleared shape replans at least once"
        );

        // The identity keeps holding for traffic after the race quiesced.
        evaluate(&QueryRequest::paths(0, 1).max_hops(3).limit(16));
        let after = cache.stats();
        assert_eq!(after.hits + after.misses + after.bypasses, after.lookups);
        assert_eq!(after.lookups, stats.lookups + 1);
    }
}
