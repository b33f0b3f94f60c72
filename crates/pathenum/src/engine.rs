//! A reusable query engine for back-to-back HcPE queries — the
//! sequential way into the PathEnum pipeline. Every sequential PathEnum
//! evaluation in the workspace goes through it, the paper-table harness
//! and the `hcpe` CLI included; [`CatalogService`](crate::CatalogService)
//! is the concurrent way in. A request forces IDX-DFS or IDX-JOIN with
//! [`QueryRequest::method`]; otherwise the optimizer decides.
//!
//! The paper's motivating workloads (streaming fraud detection, online
//! risk scoring) issue many queries against the same graph under latency
//! budgets. [`QueryEngine`] serves them three ways:
//!
//! * [`execute`](QueryEngine::execute) — evaluate a
//!   [`QueryRequest`] end-to-end, returning a
//!   [`QueryResponse`] with counts, phase timings, and an explicit
//!   [`Termination`](crate::request::Termination) reason;
//! * [`execute_into`](QueryEngine::execute_into) — the same, streaming
//!   paths into a caller-supplied [`PathSink`];
//! * [`stream`](QueryEngine::stream) — a pull-based
//!   [`PathStream`] iterator for lazy consumption: a paused `execute`,
//!   planned and cached as `execute` plans and caches, holding the
//!   cached index.
//!
//! Every entry point is a thin driver over the crate's one request
//! pipeline (`pipeline.rs`): *acquire* a stored answer or a
//! [`PhysicalPlan`] (from the engine's caches, or by planning from
//! scratch), then *finish* by letting the
//! [`Executor`](crate::plan::Executor) interpret the plan against the
//! sink. The engine adds nothing to the pipeline but what it owns: the
//! graph borrow, the build scratch, a [`PlanCache`] and an optional
//! [`ResultCache`] — one-shard instances of the very types a
//! [`catalog`](crate::catalog) tenant shares across workers.
//! [`explain`](QueryEngine::explain) stops after the plan half — the plan
//! with its modeled costs, without enumerating.
//!
//! Two levels of reuse keep steady-state per-query cost down:
//! persistent build scratch (the three `O(|V|)` BFS/id-mapping buffers
//! are hoisted out of every build), and the plan cache (a repeated
//! `(s, t, k)` request skips the boundary BFS and index build entirely —
//! the dominant per-query cost the paper measures). The cache is
//! invalidated by the serving graph's
//! [`GraphVersion`](pathenum_graph::GraphVersion) epoch and can be moved
//! across engines over successive
//! [`DynamicGraph`](pathenum_graph::DynamicGraph) snapshots — or over
//! the `DynamicGraph` itself ([`DynamicEngine`](crate::DynamicEngine)),
//! where entries the mutations provably did not touch are retained.

use std::sync::Arc;
use std::time::Instant;

use pathenum_graph::{CsrGraph, GraphSnapshot};

use crate::index::{BuildScratch, Index};
use crate::optimizer::PathEnumConfig;
use crate::pipeline::{self, Caches, Collector, Pipeline};
use crate::plan::{CacheOutcome, PhysicalPlan, PlanCache};
use crate::request::{PathEnumError, PathStream, QueryRequest, QueryResponse};
use crate::results::ResultCache;
use crate::sharded::CacheStats;
use crate::sink::PathSink;

/// A PathEnum engine bound to one graph, reusing construction buffers
/// and cached plans across queries.
///
/// The engine is generic over any [`GraphSnapshot`] — a heap
/// [`CsrGraph`] (the default, whether built, parsed or loaded from a
/// `PEG2` image), a [`GraphHandle`](pathenum_graph::GraphHandle), or a
/// [`DynamicGraph`](pathenum_graph::DynamicGraph) queried in place —
/// and produces byte-identical results across representations (the
/// strictly-ascending adjacency contract pins emission order). A graph
/// that offers a mutation log
/// ([`GraphSnapshot::mutation_log`]) additionally gets surgical cache
/// retention; see [`DynamicEngine`](crate::DynamicEngine).
///
/// ```
/// use pathenum::{PathEnumConfig, QueryEngine, QueryRequest};
/// use pathenum_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
/// let graph = b.finish();
///
/// let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
/// for t in [3u32, 2, 1] {
///     let response = engine.execute(&QueryRequest::paths(0, t).max_hops(3)).unwrap();
///     assert!(!response.termination.is_early());
/// }
/// assert_eq!(engine.queries_served(), 3);
/// ```
#[derive(Debug)]
pub struct QueryEngine<'g, G: GraphSnapshot = CsrGraph> {
    graph: &'g G,
    config: PathEnumConfig,
    scratch: BuildScratch,
    /// The plan layer, and the result layer — `None` (the default) keeps
    /// that one off entirely; attach one with
    /// [`with_result_cache`](Self::with_result_cache).
    caches: Caches,
    queries_served: u64,
    queries_rejected: u64,
}

impl<'g, G: GraphSnapshot> QueryEngine<'g, G> {
    /// Creates an engine over `graph` with the given orchestrator
    /// configuration and a default-capacity [`PlanCache`].
    pub fn new(graph: &'g G, config: PathEnumConfig) -> Self {
        QueryEngine::with_cache(graph, config, PlanCache::default())
    }

    /// Creates an engine with an explicit plan cache — pass a
    /// `PlanCache::new(0)` to disable caching, or a cache carried over
    /// from an engine that served an earlier snapshot of the same
    /// [`DynamicGraph`](pathenum_graph::DynamicGraph) (entries survive
    /// exactly when no mutation happened in between).
    pub fn with_cache(graph: &'g G, config: PathEnumConfig, cache: PlanCache) -> Self {
        QueryEngine {
            graph,
            config,
            scratch: BuildScratch::default(),
            caches: Caches {
                plans: cache,
                results: None,
            },
            queries_served: 0,
            queries_rejected: 0,
        }
    }

    /// Attaches a [`ResultCache`] — the fourth caching layer, serving
    /// repeated requests from stored paths without planning *or*
    /// enumerating (see [`crate::results`]). Off unless attached. Pass a
    /// cache carried over from an engine that served an earlier snapshot
    /// of the same graph to keep its answers warm across snapshots
    /// (entries survive exactly when the version did not move).
    pub fn with_result_cache(mut self, results: ResultCache) -> Self {
        self.caches.results = Some(results);
        self
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &'g G {
        self.graph
    }

    /// Number of queries evaluated so far. Requests stopped by a
    /// pre-flight rule before any evaluation (see
    /// [`queries_rejected`](Self::queries_rejected)) are not counted.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Number of requests a pre-flight stopping rule (pre-cancelled
    /// token, zero time budget, zero result limit) short-circuited
    /// before planning. These produce a response (with
    /// [`CacheOutcome::Skipped`]) but never touch the graph or the cache.
    pub fn queries_rejected(&self) -> u64 {
        self.queries_rejected
    }

    /// The engine's plan cache (entry count, statistics).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.caches.plans
    }

    /// Convenience for `plan_cache().stats()`.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.plans.stats()
    }

    /// Consumes the engine, handing the plan cache to its successor
    /// (typically an engine over the next
    /// [`DynamicGraph::snapshot`](pathenum_graph::DynamicGraph::snapshot)).
    pub fn into_cache(self) -> PlanCache {
        self.caches.plans
    }

    /// The engine's result cache, if one is attached.
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.caches.results.as_ref()
    }

    /// Result-layer statistics (all-zero when no cache is attached).
    pub fn result_cache_stats(&self) -> CacheStats {
        self.caches
            .results
            .as_ref()
            .map(ResultCache::stats)
            .unwrap_or_default()
    }

    /// Consumes the engine, handing back the attached result cache (if
    /// any) so a successor engine over the same graph can keep serving
    /// its stored answers.
    pub fn into_result_cache(self) -> Option<ResultCache> {
        self.caches.results
    }

    /// Evaluates a [`QueryRequest`], collecting result paths into the
    /// response when the request asked for
    /// [`collect_paths`](QueryRequest::collect_paths).
    pub fn execute(&mut self, request: &QueryRequest<'_>) -> Result<QueryResponse, PathEnumError> {
        let mut collector = Collector::new(request);
        let response = self.execute_into(request, &mut collector)?;
        Ok(collector.attach(response))
    }

    /// Plans a request without executing it — the `EXPLAIN` of this
    /// engine. Returns the [`PhysicalPlan`] the next
    /// [`execute`](Self::execute) of the same request will interpret:
    /// same method, same join cut, plus the modeled costs
    /// (`t_dfs`/`t_join`), estimates, and index footprint.
    ///
    /// Planning goes through the cache, and a cold plan is stored — so
    /// `explain` both reports on and *warms* the cache (the index built
    /// for the explanation is the one a later execution reuses).
    pub fn explain(&mut self, request: &QueryRequest<'_>) -> Result<PhysicalPlan, PathEnumError> {
        let query = request.validate(self.graph.num_vertices())?;
        Ok(self.pipeline().plan(query, request, None).plan)
    }

    /// Evaluates a [`QueryRequest`], streaming result paths into `sink`.
    ///
    /// The request's `limit` / `time_budget` / `CancelToken` wrap `sink`
    /// (via [`crate::request::ControlledSink`]), so the inner sink only
    /// sees results the stopping rules admit;
    /// [`QueryResponse::termination`] reports which rule, if any, cut the
    /// run short.
    ///
    /// Termination reflects *request-level* rules only: a `sink` that
    /// itself returns [`SearchControl::Stop`](crate::sink::SearchControl)
    /// ends the run, but the response still reads
    /// [`Termination::Completed`](crate::request::Termination) — the
    /// caller issued that stop and already knows the result set is
    /// truncated. Prefer [`QueryRequest::limit`] when the cut-off should
    /// be reported.
    pub fn execute_into(
        &mut self,
        request: &QueryRequest<'_>,
        sink: &mut dyn PathSink,
    ) -> Result<QueryResponse, PathEnumError> {
        let response = self.pipeline().evaluate(request, sink)?;
        if response.report.cache == CacheOutcome::Skipped {
            self.queries_rejected += 1;
        } else {
            self.queries_served += 1;
        }
        Ok(response)
    }

    /// The request pipeline over what this engine owns: its graph
    /// borrow, its build scratch, and its caches.
    fn pipeline(&mut self) -> Pipeline<'_, G> {
        Pipeline {
            graph: self.graph,
            config: self.config,
            caches: &self.caches,
            scratch: &mut self.scratch,
        }
    }

    /// Plans a [`QueryRequest`] as [`execute`](Self::execute) does and
    /// returns a pull-based [`PathStream`] over its results: a paused
    /// `execute`.
    ///
    /// The stream resumes the IDX-DFS kernel once per pull, on a search
    /// state it owns, so the search advances only while the caller pulls
    /// and dropping the stream abandons the rest at zero cost. It yields
    /// the paths [`execute`](Self::execute) returns for the request
    /// forced to IDX-DFS, in the same order and with the same
    /// termination. Constraint requests yield exactly the constrained
    /// path set: predicates restrict the enumerated subgraph, and
    /// accumulative/automaton checks filter complete paths before the
    /// limit counts them. The stream's deadline starts before planning,
    /// as `execute`'s does.
    ///
    /// The plan layer sees a stream exactly as it sees an `execute` of
    /// the same request — the same probe, bypass, cold plan and insert —
    /// and the stream shares the cached index. The result layer is never
    /// consulted. A cold step-1 plan caches the labels only; the stream
    /// fills the rows as the first plan hit on that entry would, and
    /// writes them back, so the entry and the stream hold one filled
    /// index.
    ///
    /// An [`explain`](QueryRequest::explain) request plans only and never
    /// enumerates, so its stream yields no path and has ended
    /// [`Completed`](crate::request::Termination::Completed) before the
    /// first pull. It
    /// builds no index and leaves the caches untouched, and it counts as
    /// served, as `execute` counts it.
    pub fn stream<'q>(
        &mut self,
        request: &'q QueryRequest<'q>,
    ) -> Result<PathStream<'q>, PathEnumError> {
        let query = request.validate(self.graph.num_vertices())?;
        // Pre-stopped requests count as *rejected* — the same rules as
        // `execute`'s pre-flight — and never touch the graph or the
        // cache; the returned stream yields nothing and reports the
        // termination on the first pull.
        let deadline = request.time_budget.map(|b| Instant::now() + b);
        let empty = || Arc::new(Index::empty(query));
        if pipeline::preflight_termination(request, deadline).is_some() {
            self.queries_rejected += 1;
            return Ok(PathStream::new(empty(), request, deadline));
        }
        self.queries_served += 1;
        if request.explain {
            return Ok(PathStream::completed(empty(), request));
        }
        let index = self.pipeline().plan_with_rows(query, request);
        Ok(PathStream::new(index, request, deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::request::Termination;
    use crate::sink::CollectingSink;
    use crate::stats::Method;
    use pathenum_graph::generators::erdos_renyi;

    /// The brute-force answer to `query`, sorted.
    fn brute_force(g: &CsrGraph, query: Query) -> Vec<Vec<u32>> {
        let mut sink = CollectingSink::default();
        crate::reference::brute_force_paths(g, query, &mut sink);
        sink.sorted_paths()
    }

    #[test]
    fn engine_matches_brute_force_across_many_queries() {
        let g = erdos_renyi(60, 350, 12);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        for t in 1..30u32 {
            let q = Query::new(0, t, 4).unwrap();
            let mut from_engine = CollectingSink::default();
            let response = engine
                .execute_into(&QueryRequest::from_query(q), &mut from_engine)
                .unwrap();
            let expected = brute_force(&g, q);
            assert_eq!(from_engine.sorted_paths(), expected, "t={t}");
            assert_eq!(response.report.counters.results, expected.len() as u64);
            assert_eq!(
                response.plan.unwrap().index_edges,
                Index::build(&g, q).num_edges()
            );
        }
        assert_eq!(engine.queries_served(), 29);
    }

    #[test]
    fn scratch_reuse_survives_empty_queries() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        // Empty (reverse) query, then a real one: stale scratch must not
        // leak between them.
        let request = |s, t| QueryRequest::paths(s, t).max_hops(4).bypass_cache();
        let mut sink = CollectingSink::default();
        engine.execute_into(&request(T, S), &mut sink).unwrap();
        assert!(sink.paths.is_empty());
        let mut sink = CollectingSink::default();
        engine.execute_into(&request(S, T), &mut sink).unwrap();
        assert_eq!(sink.paths.len(), 5);
    }

    #[test]
    fn execute_rejects_out_of_range_endpoints_instead_of_panicking() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let mut sink = CollectingSink::default();
        let err = engine
            .execute_into(&QueryRequest::paths(0, 999).max_hops(4), &mut sink)
            .unwrap_err();
        assert_eq!(err, PathEnumError::VertexOutOfRange(999));
        assert_eq!(
            engine.queries_served(),
            0,
            "rejected queries are not served"
        );
    }

    #[test]
    fn execute_matches_brute_force_on_figure1() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T).max_hops(4).collect_paths(true);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.termination, Termination::Completed);
        assert_eq!(response.num_results(), 5);
        assert_eq!(response.paths.len(), 5);

        let mut from_execute = response.paths;
        from_execute.sort_unstable();
        assert_eq!(from_execute, brute_force(&g, Query::new(S, T, 4).unwrap()));
    }

    #[test]
    fn execute_reports_limit() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T)
            .max_hops(4)
            .limit(2)
            .collect_paths(true);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.termination, Termination::LimitReached);
        assert_eq!(response.paths.len(), 2);
        // A limit of zero never starts the search.
        let response = engine
            .execute(&QueryRequest::paths(S, T).max_hops(4).limit(0))
            .unwrap();
        assert_eq!(response.termination, Termination::LimitReached);
        assert_eq!(response.num_results(), 0);
    }

    #[test]
    fn execute_reports_zero_deadline_without_panicking() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T)
            .max_hops(4)
            .time_budget(std::time::Duration::ZERO);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.termination, Termination::DeadlineExceeded);
        assert_eq!(response.num_results(), 0);
    }

    #[test]
    fn execute_reports_pre_cancelled_token() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let token = crate::request::CancelToken::new();
        token.cancel();
        let request = QueryRequest::paths(S, T).max_hops(4).cancel_token(token);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.termination, Termination::Cancelled);
        assert_eq!(response.num_results(), 0);
    }

    #[test]
    fn early_termination_reports_delivered_count() {
        // num_results must equal the paths actually delivered, even
        // though enumerators count a result before offering it to the
        // sink (the refused emission must not be counted).
        let g = pathenum_graph::generators::complete_digraph(8);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        for limit in [1u64, 3, 7] {
            let request = QueryRequest::paths(0, 7)
                .max_hops(4)
                .limit(limit)
                .collect_paths(true);
            let response = engine.execute(&request).unwrap();
            assert_eq!(response.termination, Termination::LimitReached);
            assert_eq!(response.num_results(), limit);
            assert_eq!(response.paths.len() as u64, limit);
        }
    }

    #[test]
    fn stream_agrees_with_execute() {
        let g = erdos_renyi(40, 220, 3);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        for t in 1..10u32 {
            let request = QueryRequest::paths(0, t).max_hops(4).collect_paths(true);
            let mut from_execute = engine.execute(&request).unwrap().paths;
            from_execute.sort_unstable();
            let mut from_stream: Vec<Vec<u32>> = engine.stream(&request).unwrap().collect();
            from_stream.sort_unstable();
            assert_eq!(from_execute, from_stream, "t={t}");
        }
    }

    #[test]
    fn forced_method_override_is_respected() {
        let g = erdos_renyi(40, 260, 5);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let dfs = engine
            .execute(&QueryRequest::paths(0, 1).max_hops(4).method(Method::IdxDfs))
            .unwrap();
        let join = engine
            .execute(
                &QueryRequest::paths(0, 1)
                    .max_hops(4)
                    .method(Method::IdxJoin),
            )
            .unwrap();
        assert_eq!(dfs.plan.unwrap().method, Method::IdxDfs);
        assert_eq!(join.plan.unwrap().method, Method::IdxJoin);
        assert_eq!(dfs.num_results(), join.num_results());
    }

    #[test]
    fn repeated_requests_hit_the_cache_with_identical_output() {
        let g = erdos_renyi(60, 380, 21);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
        let cold = engine.execute(&request).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = engine.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.paths, cold.paths);
        let (warm_plan, cold_plan) = (warm.plan.unwrap(), cold.plan.unwrap());
        assert_eq!(warm_plan.method, cold_plan.method);
        assert_eq!(warm_plan.cut, cold_plan.cut);
        assert_eq!(engine.cache_stats().hits, 1);
        assert_eq!(engine.plan_cache().len(), 1);
    }

    #[test]
    fn bypass_cache_requests_never_store_or_hit() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T).max_hops(4).bypass_cache();
        for _ in 0..3 {
            let response = engine.execute(&request).unwrap();
            assert_eq!(response.report.cache, CacheOutcome::Bypass);
        }
        assert!(engine.plan_cache().is_empty());
        assert_eq!(engine.cache_stats().hits, 0);
        assert_stream_records_a_bypass(&mut engine, &request);
    }

    /// A stream of an uncacheable request counts one lookup and one
    /// bypass, as an `execute` of it does.
    fn assert_stream_records_a_bypass(engine: &mut QueryEngine<'_>, request: &QueryRequest<'_>) {
        let before = engine.cache_stats();
        assert_eq!(engine.stream(request).unwrap().count(), 5);
        let after = engine.cache_stats();
        assert_eq!(after.bypasses, before.bypasses + 1);
        assert_eq!(after.lookups, before.lookups + 1);
        assert_eq!(after.hits + after.misses + after.bypasses, after.lookups);
        assert!(engine.plan_cache().is_empty());
    }

    #[test]
    fn zero_capacity_cache_disables_caching() {
        let g = figure1_graph();
        let mut engine = QueryEngine::with_cache(&g, PathEnumConfig::default(), PlanCache::new(0));
        let request = QueryRequest::paths(S, T).max_hops(4);
        for _ in 0..2 {
            let response = engine.execute(&request).unwrap();
            assert_eq!(response.report.cache, CacheOutcome::Bypass);
        }
        assert!(engine.plan_cache().is_empty());
        assert_stream_records_a_bypass(&mut engine, &request);
    }

    #[test]
    fn explain_plans_without_enumerating_and_warms_the_cache() {
        let g = erdos_renyi(60, 380, 9);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
        let plan = engine.explain(&request).unwrap();
        assert_eq!(plan.query, Query::new(0, 1, 4).unwrap());
        assert_eq!(engine.plan_cache().len(), 1);

        let response = engine.execute(&request).unwrap();
        assert_eq!(
            response.report.cache,
            CacheOutcome::Hit,
            "explain warmed it"
        );
        assert_eq!(response.plan, Some(plan));
    }

    #[test]
    fn explain_flagged_requests_return_the_plan_with_zero_results() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let response = engine
            .execute(&QueryRequest::paths(S, T).max_hops(4).explain())
            .unwrap();
        assert_eq!(response.termination, Termination::Completed);
        assert_eq!(response.num_results(), 0);
        assert!(response.paths.is_empty());
        let plan = response.plan.expect("explain responses carry the plan");
        assert_eq!(plan.method, Method::IdxDfs);
        assert!(plan.index_edges > 0);

        // The real run agrees with the explanation.
        let executed = engine
            .execute(&QueryRequest::paths(S, T).max_hops(4))
            .unwrap();
        assert_eq!(executed.plan.unwrap().method, plan.method);
        assert_eq!(executed.num_results(), 5);
    }

    #[test]
    fn constrained_requests_share_the_unconstrained_plan_entry() {
        // Accumulative/automaton constraints plan on the same index, so
        // an unconstrained warm-up serves them too.
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        engine
            .execute(&QueryRequest::paths(S, T).max_hops(4))
            .unwrap();
        let constrained = QueryRequest::paths(S, T)
            .max_hops(4)
            .collect_paths(true)
            .accumulative(crate::constraints::AccumulativeQuery {
                identity: 0u32,
                combine: |a: u32, b: u32| a + b,
                weight: |_, _| 1u32,
                check: |&len: &u32| len <= 3,
                prune: None,
            });
        let response = engine.execute(&constrained).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Hit);
        assert!(response.paths.iter().all(|p| p.len() <= 4));
        assert!(response.num_results() > 0);
    }

    #[test]
    fn predicate_requests_cache_only_with_a_fingerprint() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let unfingerprinted = QueryRequest::paths(S, T)
            .max_hops(4)
            .predicate(|_, to| to != V[0]);
        let response = engine.execute(&unfingerprinted).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Bypass);
        assert!(engine.plan_cache().is_empty());

        let make = || {
            QueryRequest::paths(S, T)
                .max_hops(4)
                .collect_paths(true)
                .predicate(|_, to| to != V[0])
                .constraint_fingerprint(7)
        };
        let cold = engine.execute(&make()).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = engine.execute(&make()).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(warm.paths, cold.paths);
        assert!(warm.paths.iter().all(|p| !p.contains(&V[0])));
    }

    #[test]
    fn stream_reuses_a_warm_index() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T).max_hops(4);
        engine.execute(&request).unwrap();
        let hits_before = engine.cache_stats().hits;
        let paths: Vec<Vec<u32>> = engine.stream(&request).unwrap().collect();
        assert_eq!(paths.len(), 5);
        assert_eq!(engine.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn streams_share_the_index_the_plan_cache_holds() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T).max_hops(4);
        let cold = engine.stream(&request).unwrap();
        assert_eq!(engine.plan_cache().len(), 1, "a cold stream stores it");
        let a = engine.stream(&request).unwrap();
        let b = engine.stream(&request).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert!(std::ptr::eq(a.index(), b.index()), "no warm stream copies");
        assert!(std::ptr::eq(cold.index(), a.index()));
        assert_eq!((a.count(), b.count(), cold.count()), (5, 5, 5));
    }

    #[test]
    fn a_cold_limited_stream_fills_its_keys_rows_once() {
        // complete_digraph(8), k = 4, limit 3: step 1 plans it on the
        // labels only, as the test below explains.
        let g = pathenum_graph::generators::complete_digraph(8);
        let request = QueryRequest::paths(0, 6).max_hops(4).limit(3);
        let labels_only = QueryEngine::new(&g, PathEnumConfig::default())
            .explain(&request)
            .unwrap();
        assert_eq!(labels_only.estimates.preliminary, None);

        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let cold = engine.stream(&request).unwrap();
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Hit);
        assert_eq!(
            response.report.timings.index_build,
            std::time::Duration::ZERO,
            "the rows the stream filled are the entry's"
        );
        let warm = engine.stream(&request).unwrap();
        assert!(std::ptr::eq(cold.index(), warm.index()));
        assert_eq!((cold.count(), warm.count()), (3, 3));
    }

    #[test]
    fn a_stream_plans_and_caches_exactly_as_execute_does() {
        // On the complete digraph of 8 vertices with k = 4, a limit of 3
        // passes step 1 (k * limit <= tau) while X's 8 members outnumber
        // it, so such a cold plan caches the labels only.
        let g = pathenum_graph::generators::complete_digraph(8);
        let q = |t: u32| QueryRequest::paths(0, t).max_hops(4).collect_paths(true);
        let mut parity = crate::constraints::Automaton::new(2, 2, 0).unwrap();
        for (from, label, to) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            parity.add_transition(from, label, to).unwrap();
        }
        parity.set_accepting(0).unwrap();
        let sequence = [
            q(7),
            q(7),
            q(6).limit(3),
            q(6).limit(3),
            q(5).limit(3),
            q(5),
            q(7).bypass_cache(),
            q(4).predicate(|_, to| to != 3),
            q(4).predicate(|_, to| to != 3).constraint_fingerprint(7),
            q(4).predicate(|_, to| to != 3).constraint_fingerprint(7),
            q(7).automaton(parity, |u, v| (u + v) % 2),
            q(3).explain(),
            q(3),
        ];
        let drive = |stream: bool| {
            let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
            let mut answers = Vec::new();
            for request in &sequence {
                // `explain` is the one EXPLAIN entry point of both
                // drivers: a streamed explain request touches no cache.
                if request.explain {
                    engine.explain(request).unwrap();
                    continue;
                }
                let mut paths: Vec<Vec<u32>> = if stream {
                    engine.stream(request).unwrap().collect()
                } else {
                    engine.execute(request).unwrap().paths
                };
                paths.sort_unstable();
                answers.push(paths);
            }
            (engine.cache_stats(), engine.plan_cache().len(), answers)
        };
        let (streamed, executed) = (drive(true), drive(false));
        assert_eq!(streamed.0, executed.0, "plan-layer stats");
        assert_eq!(streamed.1, executed.1, "plan-layer entries");
        assert_eq!(streamed.2, executed.2, "answers");
        assert_eq!(streamed.0.lookups, sequence.len() as u64);
        assert_eq!((streamed.0.hits, streamed.0.bypasses), (6, 2));
    }

    #[test]
    fn result_cache_hits_skip_planning_and_enumeration() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let request = QueryRequest::paths(S, T).max_hops(4).collect_paths(true);
        let cold = engine.execute(&request).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = engine.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::ResultHit);
        assert_eq!(warm.paths, cold.paths, "replay is byte-identical");
        assert_eq!(warm.termination, Termination::Completed);
        assert_eq!(warm.num_results(), cold.num_results());
        assert_eq!(
            warm.report.timings.index_build,
            std::time::Duration::ZERO,
            "no build ran"
        );
        let stats = engine.result_cache_stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    }

    #[test]
    fn result_hits_serve_tighter_limits_as_exact_prefixes() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let full = engine
            .execute(&QueryRequest::paths(S, T).max_hops(4).collect_paths(true))
            .unwrap();
        assert_eq!(full.num_results(), 5);
        for limit in [1u64, 2, 4] {
            let limited = engine
                .execute(
                    &QueryRequest::paths(S, T)
                        .max_hops(4)
                        .limit(limit)
                        .collect_paths(true),
                )
                .unwrap();
            assert_eq!(limited.report.cache, CacheOutcome::ResultHit);
            assert_eq!(limited.termination, Termination::LimitReached);
            assert_eq!(limited.paths, full.paths[..limit as usize], "limit={limit}");
            assert_eq!(limited.num_results(), limit);
        }
    }

    #[test]
    fn truncated_entries_reuse_only_tighter_limits_and_upgrade_on_rerun() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        // Collecting requests: a count-only miss records nothing.
        let narrow = QueryRequest::paths(S, T)
            .max_hops(4)
            .limit(2)
            .collect_paths(true);
        engine.execute(&narrow).unwrap();
        // A looser limit cannot be served from the truncated entry.
        let wider = engine
            .execute(
                &QueryRequest::paths(S, T)
                    .max_hops(4)
                    .limit(4)
                    .collect_paths(true),
            )
            .unwrap();
        assert_ne!(wider.report.cache, CacheOutcome::ResultHit);
        // ... but the re-run recorded more paths, upgrading the entry:
        // the original narrow request now replays from it.
        let replayed = engine.execute(&narrow).unwrap();
        assert_eq!(replayed.report.cache, CacheOutcome::ResultHit);
        assert_eq!(replayed.termination, Termination::LimitReached);
        assert_eq!(replayed.num_results(), 2);
    }

    #[test]
    fn bypass_result_cache_skips_only_the_result_layer() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let request = QueryRequest::paths(S, T).max_hops(4).bypass_result_cache();
        engine.execute(&request).unwrap();
        let warm = engine.execute(&request).unwrap();
        assert_eq!(
            warm.report.cache,
            CacheOutcome::Hit,
            "plan layer still serves"
        );
        let stats = engine.result_cache_stats();
        assert_eq!(stats.bypasses, 2);
        assert_eq!(stats.hits, 0);
        assert!(engine.result_cache().unwrap().is_empty());
    }

    #[test]
    fn without_an_attached_result_cache_nothing_changes() {
        let g = figure1_graph();
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::paths(S, T).max_hops(4);
        engine.execute(&request).unwrap();
        let warm = engine.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert!(engine.result_cache().is_none());
        assert_eq!(engine.result_cache_stats(), CacheStats::default());
    }

    #[test]
    fn result_hit_equals_cold_execution_across_methods() {
        let g = erdos_renyi(60, 380, 21);
        for method in [None, Some(Method::IdxDfs), Some(Method::IdxJoin)] {
            let mut engine = QueryEngine::new(&g, PathEnumConfig::default())
                .with_result_cache(ResultCache::default());
            let make = || {
                let r = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
                match method {
                    Some(m) => r.method(m),
                    None => r,
                }
            };
            let cold = engine.execute(&make()).unwrap();
            let warm = engine.execute(&make()).unwrap();
            assert_eq!(warm.report.cache, CacheOutcome::ResultHit, "{method:?}");
            assert_eq!(warm.paths, cold.paths, "{method:?}");
            assert_eq!(warm.termination, cold.termination, "{method:?}");
        }
    }

    #[test]
    fn cache_moves_between_engines_over_the_same_graph() {
        let g = figure1_graph();
        let request = QueryRequest::paths(S, T).max_hops(4);
        let mut first = QueryEngine::new(&g, PathEnumConfig::default());
        first.execute(&request).unwrap();
        let cache = first.into_cache();

        let mut second = QueryEngine::with_cache(&g, PathEnumConfig::default(), cache);
        let response = second.execute(&request).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Hit);
    }
}
