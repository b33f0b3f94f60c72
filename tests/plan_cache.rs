//! Planner/executor split and plan-cache correctness.
//!
//! * `explain()` must describe exactly the plan the engine then executes
//!   (same method, same join cut) — the acceptance contract of the
//!   planner/executor split.
//! * Cached-plan execution must be indistinguishable from cold-plan
//!   execution (same paths, same order, same counts), across methods,
//!   thread counts, and constraint strategies (property-tested).
//! * A warm cache must be measurably faster than replanning per request.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v && u < n && v < n {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance: the plan returned by `explain` is the plan the engine
    /// executes — method and cut agree, for optimizer-chosen and forced
    /// methods alike, cold and warm.
    #[test]
    fn explain_matches_what_the_engine_executes(
        n in 5u32..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 5..80),
        k in 2u32..6,
        tau_sel in 0u32..2,
        force_sel in 0u32..3,
    ) {
        let tau = if tau_sel == 0 { 0u64 } else { 100_000u64 };
        let force = match force_sel {
            0 => None,
            1 => Some(Method::IdxDfs),
            _ => Some(Method::IdxJoin),
        };
        let g = graph_from_edges(n, &edges);
        prop_assume!(n >= 2);
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let mut request = QueryRequest::paths(0, 1).max_hops(k).tau(tau);
        if let Some(m) = force {
            request = request.method(m);
        }
        let plan = engine.explain(&request).unwrap();
        for round in 0..2 {
            let response = engine.execute(&request).unwrap();
            prop_assert_eq!(response.plan.unwrap().method, plan.method, "round {}", round);
            prop_assert_eq!(response.plan.unwrap().cut, plan.cut, "round {}", round);
            prop_assert_eq!(
                response.report.cache,
                CacheOutcome::Hit,
                "explain warmed the cache; round {}",
                round
            );
        }
        if let Some(m) = force {
            prop_assert_eq!(plan.method, m);
        }
    }

    /// Cached-plan execution equals cold-plan execution: identical path
    /// sequence and counts, whatever the method.
    #[test]
    fn cached_execution_equals_cold_execution(
        n in 5u32..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 5..80),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let request = || QueryRequest::paths(0, 1).max_hops(k).collect_paths(true);

        let mut caching = QueryEngine::new(&g, PathEnumConfig::default());
        let cold = caching.execute(&request()).unwrap();
        prop_assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = caching.execute(&request()).unwrap();
        prop_assert_eq!(warm.report.cache, CacheOutcome::Hit);

        // Against an engine that never caches.
        let mut uncached = QueryEngine::with_cache(
            &g,
            PathEnumConfig::default(),
            PlanCache::new(0),
        );
        let reference = uncached.execute(&request()).unwrap();
        prop_assert_eq!(reference.report.cache, CacheOutcome::Bypass);

        prop_assert_eq!(&warm.paths, &cold.paths, "warm vs cold path order");
        prop_assert_eq!(&warm.paths, &reference.paths, "cached vs cache-free engine");
        prop_assert_eq!(warm.num_results(), reference.num_results());
        prop_assert_eq!(warm.plan.unwrap().method, reference.plan.unwrap().method);
        prop_assert_eq!(warm.plan.unwrap().cut, reference.plan.unwrap().cut);
    }

    /// Limits and collected prefixes behave identically warm and cold
    /// (the stopping rules wrap the executor, not the planner).
    #[test]
    fn cached_execution_respects_limits_identically(
        n in 5u32..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12), 10..70),
        k in 3u32..6,
        limit in 1u64..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let request = || {
            QueryRequest::paths(0, 1)
                .max_hops(k)
                .limit(limit)
                .collect_paths(true)
        };
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let cold = engine.execute(&request()).unwrap();
        let warm = engine.execute(&request()).unwrap();
        prop_assert_eq!(cold.termination, warm.termination);
        prop_assert_eq!(&cold.paths, &warm.paths);
        prop_assert_eq!(cold.num_results(), warm.num_results());
    }
}

#[test]
fn explain_reports_modeled_costs_when_the_optimizer_runs() {
    let g = pathenum_graph::generators::complete_digraph(10);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    // tau = 0 forces the full estimator + Algorithm 5.
    let plan = engine
        .explain(&QueryRequest::paths(0, 9).max_hops(5).tau(0))
        .unwrap();
    let t_dfs = plan.t_dfs.expect("optimizer ran");
    let t_join = plan.t_join.expect("optimizer ran");
    let walks = plan.full_estimate.expect("optimizer ran");
    assert!(t_dfs >= walks, "DFS cost includes the final level");
    assert!(t_join >= walks, "join cost includes materializing |Q|");
    match plan.method {
        Method::IdxDfs => assert!(t_dfs <= t_join),
        Method::IdxJoin => assert!(t_join < t_dfs),
    }
    // The rendered EXPLAIN mentions the numbers.
    let text = plan.to_string();
    assert!(text.contains(&format!("t_dfs={t_dfs}")), "{text}");
    assert!(text.contains(&format!("walks={walks}")), "{text}");
}

/// Acceptance: a repeated query is strictly faster against a warm cache
/// than against a cache-free engine, with identical enumerated output.
///
/// The gap this measures is the per-request boundary BFS + index build
/// (hundreds of microseconds on this graph) against a hash-map lookup
/// (sub-microsecond), summed over enough repeats to drown scheduler
/// noise; a strict comparison of total wall-clock is therefore robust.
#[test]
fn warm_cache_is_strictly_faster_with_identical_output() {
    use pathenum_graph::generators::{power_law, PowerLawConfig};
    let graph = power_law(PowerLawConfig::social(20_000, 6, 77));
    let queries = pathenum_repro::workloads::generate_queries(
        &graph,
        pathenum_repro::workloads::QueryGenConfig::paper_default(6, 4, 7),
    );
    const REPEATS: usize = 12;

    let run = |engine: &mut QueryEngine<'_>| -> (Duration, Vec<u64>) {
        let mut results = Vec::new();
        let start = Instant::now();
        for _ in 0..REPEATS {
            for &q in &queries {
                let response = engine
                    .execute(&QueryRequest::from_query(q).limit(500))
                    .expect("generated queries are valid");
                results.push(response.num_results());
            }
        }
        (start.elapsed(), results)
    };

    let mut cold_engine =
        QueryEngine::with_cache(&graph, PathEnumConfig::default(), PlanCache::new(0));
    let (cold_wall, cold_results) = run(&mut cold_engine);
    let mut warm_engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let (warm_wall, warm_results) = run(&mut warm_engine);

    assert_eq!(cold_results, warm_results, "caching changed the output");
    let stats = warm_engine.cache_stats();
    assert_eq!(stats.misses, queries.len() as u64);
    assert_eq!(stats.hits, (queries.len() * (REPEATS - 1)) as u64);
    assert!(
        warm_wall < cold_wall,
        "warm ({warm_wall:?}) must be strictly below cold ({cold_wall:?})"
    );
}

#[test]
fn lru_eviction_keeps_the_cache_bounded() {
    let g = pathenum_graph::generators::erdos_renyi(40, 240, 3);
    let mut engine = QueryEngine::with_cache(&g, PathEnumConfig::default(), PlanCache::new(2));
    for t in 1..6u32 {
        engine
            .execute(&QueryRequest::paths(0, t).max_hops(4))
            .unwrap();
    }
    assert_eq!(engine.plan_cache().len(), 2);
    assert_eq!(engine.cache_stats().evictions, 3);
    // The most recent query is still warm.
    let response = engine
        .execute(&QueryRequest::paths(0, 5).max_hops(4))
        .unwrap();
    assert_eq!(response.report.cache, CacheOutcome::Hit);
}

/// An engine's caches are one-shard tenant caches: under budgets small
/// enough to evict in both layers, an engine and a one-shard catalog
/// tenant serve the same sequence with the same outcome at every step
/// and end with equal statistics.
#[test]
fn engine_caches_behave_as_one_shard_tenant_caches() {
    const RESULT_BYTES: usize = 1024;
    let g = pathenum_graph::generators::erdos_renyi(40, 240, 3);
    let mut engine = QueryEngine::with_cache(&g, PathEnumConfig::default(), PlanCache::new(2))
        .with_result_cache(ResultCache::new(RESULT_BYTES));
    let service = CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers: 1,
            tenant_cache_quota: 2,
            cache_shards: 1,
            result_cache_bytes: RESULT_BYTES,
            ..CatalogConfig::default()
        },
    );
    service
        .catalog()
        .register("g", std::sync::Arc::new(g.clone()));

    // Repeats close together hit; five keys through two plan slots and a
    // few result entries evict in both layers.
    let targets = [1u32, 1, 2, 2, 1, 3, 3, 1, 2, 4, 4, 3, 1, 5, 5, 2, 2];
    for (step, &t) in targets.iter().enumerate() {
        let request = || {
            let request = QueryRequest::paths(0, t)
                .max_hops(4)
                .limit(3)
                .collect_paths(true);
            match step % 7 {
                3 => request.bypass_result_cache(),
                6 => request.bypass_cache(),
                _ => request,
            }
        };
        let local = engine.execute(&request()).expect("valid request");
        let shared = service
            .submit(CatalogRequest::new("g", "tenant", request()))
            .wait()
            .expect("valid request");
        assert_eq!(local.report.cache, shared.report.cache, "step {step}");
        assert_eq!(local.paths, shared.paths, "step {step}");
    }

    let catalog = service.catalog();
    let plans = engine.cache_stats();
    assert_eq!(Some(plans), catalog.tenant_cache_stats("g", "tenant"));
    let results = engine.result_cache_stats();
    assert_eq!(
        Some(results),
        catalog.tenant_result_cache_stats("g", "tenant")
    );
    assert!(plans.evictions > 0, "{plans:?}");
    assert!(results.evictions > 0, "{results:?}");
    assert!(plans.hits > 0 && results.hits > 0, "{plans:?} {results:?}");
    assert!(
        plans.bypasses > 0 && results.bypasses > 0,
        "{plans:?} {results:?}"
    );
}

#[test]
fn distinct_settings_never_share_plan_entries() {
    let g = pathenum_graph::generators::erdos_renyi(40, 260, 9);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let base = || QueryRequest::paths(0, 1).max_hops(4);
    engine.execute(&base()).unwrap();
    // Different tau, forced method, or k each replan (Miss), never reuse
    // the optimizer-default entry.
    for request in [
        base().tau(0),
        base().method(Method::IdxJoin),
        QueryRequest::paths(0, 1).max_hops(5),
    ] {
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Miss, "{request:?}");
    }
    // And the original is still warm.
    let response = engine.execute(&base()).unwrap();
    assert_eq!(response.report.cache, CacheOutcome::Hit);
}

#[test]
fn warm_hits_report_lookup_time_not_index_build() {
    // Regression for the cache-hit timing misattribution: hit responses
    // used to report the lookup wall-time under `index_build`, skewing
    // every phase table built on warm streams. A hit must leave
    // `index_build` (and the other build phases) at zero, carry the
    // lookup under the dedicated `cache_lookup` field, and still account
    // for it in `total()`/`preprocessing()`.
    let g = pathenum_graph::generators::erdos_renyi(60, 380, 27);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let request = QueryRequest::paths(0, 1).max_hops(4);

    let cold = engine.execute(&request).unwrap();
    assert_eq!(cold.report.cache, CacheOutcome::Miss);
    assert_eq!(cold.report.timings.cache_lookup, Duration::ZERO);
    assert!(cold.report.timings.index_build > Duration::ZERO);

    let warm = engine.execute(&request).unwrap();
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    let timings = &warm.report.timings;
    assert_eq!(timings.index_build, Duration::ZERO, "no build ran");
    assert_eq!(timings.bfs, Duration::ZERO);
    assert_eq!(timings.preliminary_estimation, Duration::ZERO);
    assert_eq!(timings.optimization, Duration::ZERO);
    assert_eq!(
        timings.total(),
        timings.cache_lookup + timings.enumeration,
        "the lookup is accounted for in the total"
    );
    assert_eq!(timings.preprocessing(), timings.cache_lookup);

    // The dynamic engine's warm path (including surgical retention) uses
    // the same attribution.
    let dynamic = DynamicGraph::new(g.clone());
    let mut engine = DynamicEngine::new(&dynamic, PathEnumConfig::default());
    engine.execute(&request).unwrap();
    let warm = engine.execute(&request).unwrap();
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    assert_eq!(warm.report.timings.index_build, Duration::ZERO);
    assert_eq!(
        warm.report.timings.preprocessing(),
        warm.report.timings.cache_lookup
    );
}

/// The lifecycle of a labels-only entry. A step-1 request that misses
/// builds only the labels and caches them; the first request to find the
/// entry — through `execute`, `explain`, `stream` or the catalog —
/// fills its rows once and writes them back, and from then on the entry
/// plans and answers exactly as an eagerly built one.
#[test]
fn labels_only_entries_are_completed_by_their_first_reader() {
    let graph = pathenum_graph::generators::complete_digraph(14);
    let query = Query::new(0, 13, 6).expect("valid");
    let limited = || {
        QueryRequest::from_query(query)
            .limit(10)
            .collect_paths(true)
    };
    let unlimited = || QueryRequest::from_query(query);
    let reference = QueryEngine::new(&graph, PathEnumConfig::default())
        .execute(&limited())
        .expect("valid request");
    assert_eq!(reference.num_results(), 10);

    // The miss: 6 * 10 <= tau, and the 14 members of X outnumber the 10
    // results the request reads, so only the labels are built and cached.
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let miss = engine.explain(&limited()).expect("valid request");
    assert_eq!(engine.plan_cache().len(), 1);
    assert_eq!(miss.preliminary_estimate, None);
    assert_eq!(miss.index_edges, 0);
    assert_eq!(miss.modeled_cost(), 60, "admission pays k * limit");
    let text = miss.to_string();
    assert!(
        text.contains("preliminary=not computed (k*limit = 60 <= tau)"),
        "{text}"
    );
    assert!(text.contains("rows read on demand"), "{text}");
    // A limit of 100 also passes step 1, but X is no larger than what it
    // reads: its rows are filled at once and the plan is the eager one.
    let filled = QueryEngine::new(&graph, PathEnumConfig::default())
        .explain(&QueryRequest::from_query(query).limit(100))
        .expect("valid request");
    assert_eq!(filled.preliminary_estimate, Some(442_286));
    assert!(filled.index_edges > 0);

    // The first reader completes it and plans as a cold engine does.
    let hit = engine.explain(&unlimited()).expect("valid request");
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    let cold = QueryEngine::new(&graph, PathEnumConfig::default())
        .explain(&unlimited())
        .expect("valid request");
    assert_eq!(hit, cold);
    assert!(hit.preliminary_estimate.is_some() && hit.index_edges > 0);
    let warm = engine.execute(&limited()).expect("valid request");
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    assert_eq!(warm.paths, reference.paths);
    assert_eq!(
        warm.plan.unwrap().preliminary_estimate,
        cold.preliminary_estimate
    );

    // `stream` reads the cache directly: it too must complete the entry
    // rather than walk a table with no rows.
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    engine.explain(&limited()).expect("valid request");
    let request = limited();
    let streamed: Vec<Vec<u32>> = engine.stream(&request).expect("valid request").collect();
    assert_eq!(engine.cache_stats().hits, 1);
    assert_eq!(streamed, reference.paths);
    let after = engine.explain(&limited()).expect("valid request");
    assert_eq!(
        after.preliminary_estimate, cold.preliminary_estimate,
        "written back"
    );

    // Four threads race to complete one labels-only entry of a shared
    // cache: every answer is the reference, and the books balance.
    let catalog = CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers: 4,
            ..CatalogConfig::default()
        },
    );
    catalog.catalog().register("g", graph);
    let routed = |request| CatalogRequest::new("g", "tenant", request);
    let explained = catalog
        .execute(routed(limited().explain()))
        .expect("valid request");
    assert_eq!(explained.plan.map(|p| p.preliminary_estimate), Some(None));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..8 {
                    let response = catalog.execute(routed(limited())).expect("valid request");
                    assert_eq!(response.report.cache, CacheOutcome::Hit);
                    assert_eq!(response.paths, reference.paths);
                }
            });
        }
    });
    let stats = catalog
        .catalog()
        .tenant_cache_stats("g", "tenant")
        .expect("registered graph");
    assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    assert_eq!((stats.misses, stats.hits), (1, 32));
}
