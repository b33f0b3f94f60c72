//! Property tests for the request/response layer: `execute` and
//! `stream` must agree path-for-path with the brute-force reference and
//! with the Appendix E constraint free functions, and the stopping rules
//! (limit, deadline, cancellation) must be *reported*, never silent.

use std::time::Duration;

use proptest::prelude::*;

use pathenum_repro::core::constraints::{accumulative_dfs, automaton_dfs, filtered_graph};
use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::graph::generators::{complete_digraph, erdos_renyi, power_law, PowerLawConfig};
use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (4u32..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..70);
        (Just(n), edges)
    })
}

/// Deterministic pseudo-weight per edge in 0..8.
fn weight(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32 | u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61
}

/// Deterministic binary label per edge.
fn label(u: u32, v: u32) -> u32 {
    (((u64::from(u) << 32 | u64::from(v)).wrapping_mul(0xd134_2543_de82_ef95) >> 63) & 1) as u32
}

fn reference_paths(g: &CsrGraph, q: Query) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    brute_force_paths(g, q, &mut sink);
    sink.sorted_paths()
}

fn execute_paths(g: &CsrGraph, req: &QueryRequest<'_>) -> Vec<Vec<VertexId>> {
    let mut engine = QueryEngine::new(g, PathEnumConfig::default());
    let response = engine.execute(req).expect("valid request");
    assert_eq!(
        response.termination,
        Termination::Completed,
        "unbounded request completes"
    );
    let mut paths = response.paths;
    paths.sort_unstable();
    paths
}

fn stream_paths(g: &CsrGraph, req: &QueryRequest<'_>) -> Vec<Vec<VertexId>> {
    let mut engine = QueryEngine::new(g, PathEnumConfig::default());
    let mut stream = engine.stream(req).expect("valid request");
    let mut paths: Vec<Vec<VertexId>> = stream.by_ref().collect();
    assert_eq!(stream.termination(), Some(Termination::Completed));
    paths.sort_unstable();
    paths
}

/// An accumulative request: total pseudo-weight at least `threshold`.
#[allow(clippy::type_complexity)]
fn acc_query(threshold: u64) -> AccumulativeQuery<u64, fn(u32, u32) -> u64, impl Fn(&u64) -> bool> {
    AccumulativeQuery {
        identity: 0u64,
        combine: |a, b| a + b,
        weight,
        check: move |&total: &u64| total >= threshold,
        prune: None,
    }
}

/// The even-number-of-1-labels automaton used across the suite.
fn parity_automaton() -> Automaton {
    let mut a = Automaton::new(2, 2, 0).expect("valid shape");
    a.add_transition(0, 0, 0).expect("in range");
    a.add_transition(0, 1, 1).expect("in range");
    a.add_transition(1, 0, 1).expect("in range");
    a.add_transition(1, 1, 0).expect("in range");
    a.set_accepting(0).expect("in range");
    a
}

/// A request of constraint kind `kind` (0 none, 1 predicate, 2
/// accumulative without a prune, 3 accumulative with a sound prune, 4
/// automaton), optionally limited. Requests hold boxed closures and are
/// not `Clone`, so each evaluation builds its own.
fn request_of_kind(
    q: Query,
    kind: u8,
    threshold: u64,
    limit: Option<u64>,
) -> QueryRequest<'static> {
    let req = QueryRequest::from_query(q);
    let req = match kind {
        0 => req,
        1 => req.predicate(move |u, v| weight(u, v) >= threshold % 8),
        2 => req.accumulative(acc_query(threshold)),
        3 => req.accumulative(AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight,
            check: |&total: &u64| total <= 9,
            prune: Some(|&total: &u64| total <= 9),
        }),
        _ => req.automaton(parity_automaton(), label),
    };
    match limit {
        Some(n) => req.limit(n),
        None => req,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn execute_and_stream_agree_with_brute_force(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let expected = reference_paths(&g, q);
        let req = QueryRequest::from_query(q).collect_paths(true);
        prop_assert_eq!(execute_paths(&g, &req), expected.clone());
        prop_assert_eq!(stream_paths(&g, &req), expected);
    }

    #[test]
    fn predicate_requests_match_the_free_function(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        threshold in 0u64..8,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let pred = move |u: u32, v: u32| weight(u, v) >= threshold;

        let expected = reference_paths(&filtered_graph(&g, pred), q);

        let req = QueryRequest::from_query(q).predicate(pred).collect_paths(true);
        prop_assert_eq!(execute_paths(&g, &req), expected.clone());
        prop_assert_eq!(stream_paths(&g, &req), expected);
    }

    #[test]
    fn accumulative_requests_match_the_free_function(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        threshold in 0u64..20,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");

        let mut oracle = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&Index::build(&g, q), &acc_query(threshold), &mut oracle, &mut counters);
        let expected = oracle.sorted_paths();

        let req =
            QueryRequest::from_query(q).accumulative(acc_query(threshold)).collect_paths(true);
        prop_assert_eq!(execute_paths(&g, &req), expected.clone());
        prop_assert_eq!(stream_paths(&g, &req), expected);
    }

    #[test]
    fn automaton_requests_match_the_free_function(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let automaton = parity_automaton();

        let mut oracle = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&Index::build(&g, q), &automaton, label, &mut oracle, &mut counters);
        let expected = oracle.sorted_paths();

        let req =
            QueryRequest::from_query(q).automaton(automaton, label).collect_paths(true);
        prop_assert_eq!(execute_paths(&g, &req), expected.clone());
        prop_assert_eq!(stream_paths(&g, &req), expected);
    }

    #[test]
    fn limits_truncate_and_are_reported(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        limit in 1u64..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let total = reference_paths(&g, q).len() as u64;
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());

        let req = QueryRequest::from_query(q).limit(limit).collect_paths(true);
        let response = engine.execute(&req).expect("valid request");
        prop_assert_eq!(response.paths.len() as u64, total.min(limit));
        let expected_termination = if total >= limit {
            Termination::LimitReached
        } else {
            Termination::Completed
        };
        prop_assert_eq!(response.termination, expected_termination);

        let mut stream = engine.stream(&req).expect("valid request");
        let streamed = stream.by_ref().count() as u64;
        prop_assert_eq!(streamed, total.min(limit));
        prop_assert_eq!(stream.termination(), Some(expected_termination));
    }

    #[test]
    fn forced_methods_agree_under_requests(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let run = |engine: &mut QueryEngine<'_>, m: Method| {
            let req = QueryRequest::from_query(q).method(m).collect_paths(true);
            let mut paths = engine.execute(&req).expect("valid request").paths;
            paths.sort_unstable();
            paths
        };
        let dfs = run(&mut engine, Method::IdxDfs);
        let join = run(&mut engine, Method::IdxJoin);
        prop_assert_eq!(dfs, join);
    }

    #[test]
    fn counting_requests_read_what_collecting_requests_read(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        limit in 1u64..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let total = reference_paths(&g, q).len() as u64;
        for limit in [None, Some(limit)] {
            assert_counting_matches_collecting(&g, q, limit, total);
        }
    }

    #[test]
    fn stream_equals_execute_in_order_under_every_constraint(
        (n, edges) in arb_graph(),
        k in 2u32..6,
        kind in 0u8..5,
        threshold in 0u64..20,
        limit_pick in 0usize..3,
    ) {
        let limit = [Some(1u64), Some(7), None][limit_pick];
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let executed = engine
            .execute(
                &request_of_kind(q, kind, threshold, limit)
                    .method(Method::IdxDfs)
                    .collect_paths(true),
            )
            .expect("valid request");
        let req = request_of_kind(q, kind, threshold, limit);
        let mut stream = engine.stream(&req).expect("valid request");
        // Element for element, unsorted: the stream is the kernel paused
        // between emissions, so it must keep `execute`'s order.
        let streamed: Vec<Vec<VertexId>> = stream.by_ref().collect();
        prop_assert_eq!(&streamed, &executed.paths);
        prop_assert_eq!(stream.termination(), Some(executed.termination));
        prop_assert_eq!(stream.emitted(), executed.num_results());
    }
}

/// A request that does not collect counts its paths in bulk (unless it
/// has a limit); one that collects takes them one by one. For either
/// forced method and for the planner's pick, both read the same
/// number of results, counters, termination and method, and the number
/// is exact: `total` paths, or `limit` of them.
fn assert_counting_matches_collecting(g: &CsrGraph, q: Query, limit: Option<u64>, total: u64) {
    for method in [Some(Method::IdxDfs), Some(Method::IdxJoin), None] {
        let run = |collect: bool| {
            let mut request = QueryRequest::from_query(q).collect_paths(collect);
            if let Some(method) = method {
                request = request.method(method);
            }
            if let Some(limit) = limit {
                request = request.limit(limit);
            }
            let mut engine = QueryEngine::new(g, PathEnumConfig::default());
            engine.execute(&request).expect("valid request")
        };
        let (counted, collected) = (run(false), run(true));
        let at = format!("{q:?} {method:?} limit {limit:?}");
        assert!(counted.paths.is_empty(), "{at}");
        assert_eq!(
            collected.paths.len() as u64,
            collected.num_results(),
            "{at}"
        );
        assert_eq!(counted.num_results(), collected.num_results(), "{at}");
        assert_eq!(
            counted.num_results(),
            limit.map_or(total, |l| total.min(l)),
            "{at}"
        );
        assert_eq!(counted.report.counters, collected.report.counters, "{at}");
        assert_eq!(counted.termination, collected.termination, "{at}");
        assert_eq!(
            counted.plan.unwrap().method,
            collected.plan.unwrap().method,
            "{at}"
        );
    }
}

#[test]
fn counting_requests_read_what_collecting_requests_read_on_dense_graphs() {
    // Dense enough that IDX-DFS counts whole rows of leaves and the
    // planner joins when unlimited.
    let g = complete_digraph(9);
    for k in [2u32, 4, 6] {
        let q = Query::new(0, 8, k).expect("valid");
        let total = reference_paths(&g, q).len() as u64;
        for limit in [None, Some(1), Some(total / 2), Some(total + 1)] {
            assert_counting_matches_collecting(&g, q, limit, total);
        }
    }
}

#[test]
fn agreement_on_random_generator_families() {
    // Deterministic spot-checks on the generator families the paper's
    // dataset proxies come from: Erdős–Rényi and power-law digraphs.
    for seed in 0..4u64 {
        let graphs = [
            erdos_renyi(50, 300, seed),
            power_law(PowerLawConfig::social(50, 4, seed)),
        ];
        for g in &graphs {
            let mut engine = QueryEngine::new(g, PathEnumConfig::default());
            for t in 1..8u32 {
                let q = Query::new(0, t, 4).unwrap();
                let expected = reference_paths(g, q);
                let req = QueryRequest::from_query(q).collect_paths(true);
                let mut executed = engine.execute(&req).expect("valid").paths;
                executed.sort_unstable();
                assert_eq!(executed, expected, "execute seed={seed} t={t}");
                let mut streamed: Vec<_> = engine.stream(&req).expect("valid").collect();
                streamed.sort_unstable();
                assert_eq!(streamed, expected, "stream seed={seed} t={t}");
            }
        }
    }
}

#[test]
fn zero_time_budget_is_reported_not_panicked() {
    let g = erdos_renyi(40, 240, 7);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let req = QueryRequest::paths(0, 1)
        .max_hops(5)
        .time_budget(Duration::ZERO);
    let response = engine.execute(&req).expect("request is valid");
    assert_eq!(response.termination, Termination::DeadlineExceeded);
    assert_eq!(response.num_results(), 0);

    let mut stream = engine.stream(&req).expect("request is valid");
    assert!(stream.next().is_none());
    assert_eq!(stream.termination(), Some(Termination::DeadlineExceeded));
}

#[test]
fn tight_deadline_terminates_dense_enumeration_early() {
    // The complete digraph on 10 vertices has far too many k=6 paths to
    // finish in a microsecond; the deadline must cut in and be reported.
    let g = pathenum_repro::graph::generators::complete_digraph(10);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let req = QueryRequest::paths(0, 9)
        .max_hops(6)
        .time_budget(Duration::from_micros(1))
        .collect_paths(true);
    let response = engine.execute(&req).expect("request is valid");
    assert_eq!(response.termination, Termination::DeadlineExceeded);
}

#[test]
fn cancellation_is_observed_and_reported() {
    let g = erdos_renyi(40, 240, 9);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());

    // Pre-cancelled token: the evaluation never starts.
    let token = CancelToken::new();
    token.cancel();
    let req = QueryRequest::paths(0, 1).max_hops(5).cancel_token(token);
    let response = engine.execute(&req).expect("request is valid");
    assert_eq!(response.termination, Termination::Cancelled);
    assert_eq!(response.num_results(), 0);

    // Mid-stream cancellation: pull a result, cancel, observe the stop.
    let token = CancelToken::new();
    let req = QueryRequest::paths(0, 1)
        .max_hops(5)
        .cancel_token(token.clone());
    let mut stream = engine.stream(&req).expect("request is valid");
    let first = stream.next();
    token.cancel();
    let after = stream.next();
    if first.is_some() {
        assert!(after.is_none(), "no results after cancellation");
        assert_eq!(stream.termination(), Some(Termination::Cancelled));
    }
}

#[test]
fn paused_streams_own_their_search_state() {
    // Two streams pulled alternately on one thread, with an IDX-DFS
    // `execute` between pulls: each paused search survives the other
    // searches the thread runs and yields its own `execute`'s paths.
    let g = erdos_renyi(40, 240, 9);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let q_a = Query::new(0, 1, 5).expect("valid");
    let q_b = Query::new(2, 3, 5).expect("valid");
    let make_a = || request_of_kind(q_a, 0, 0, None);
    let make_b = || request_of_kind(q_b, 4, 0, None);
    let expected = |engine: &mut QueryEngine<'_>, req: QueryRequest<'_>| {
        let req = req.method(Method::IdxDfs).collect_paths(true);
        engine.execute(&req).expect("valid request").paths
    };
    let expected_a = expected(&mut engine, make_a());
    let expected_b = expected(&mut engine, make_b());
    assert!(
        expected_a.len() > 10 && expected_b.len() > 10,
        "both streams page"
    );

    let (req_a, req_b) = (make_a(), make_b());
    let mut stream_a = engine.stream(&req_a).expect("valid request");
    let mut stream_b = engine.stream(&req_b).expect("valid request");
    let interloper = QueryRequest::paths(4, 5)
        .max_hops(5)
        .method(Method::IdxDfs)
        .bypass_cache();
    let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
    loop {
        let a = stream_a.next();
        engine.execute(&interloper).expect("valid request");
        let b = stream_b.next();
        engine.execute(&interloper).expect("valid request");
        if a.is_none() && b.is_none() {
            break;
        }
        got_a.extend(a);
        got_b.extend(b);
    }
    assert_eq!(got_a, expected_a);
    assert_eq!(got_b, expected_b);
    assert_eq!(stream_a.termination(), Some(Termination::Completed));
    assert_eq!(stream_b.termination(), Some(Termination::Completed));
}

#[test]
fn preflight_stops_are_rejected_not_served() {
    // Pre-flight-stopped requests (pre-cancelled token, zero time
    // budget, zero limit) must not count as served, must not consult the
    // plan cache, and must say so in the response via
    // `CacheOutcome::Skipped`.
    let g = erdos_renyi(40, 240, 3);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());

    let token = CancelToken::new();
    token.cancel();
    let cancelled = engine
        .execute(&QueryRequest::paths(0, 1).max_hops(4).cancel_token(token))
        .unwrap();
    assert_eq!(cancelled.termination, Termination::Cancelled);
    assert_eq!(cancelled.report.cache, CacheOutcome::Skipped);

    let expired = engine
        .execute(
            &QueryRequest::paths(0, 1)
                .max_hops(4)
                .time_budget(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(expired.termination, Termination::DeadlineExceeded);
    assert_eq!(expired.report.cache, CacheOutcome::Skipped);

    let zero_limit = engine
        .execute(&QueryRequest::paths(0, 1).max_hops(4).limit(0))
        .unwrap();
    assert_eq!(zero_limit.termination, Termination::LimitReached);
    assert_eq!(zero_limit.report.cache, CacheOutcome::Skipped);

    assert_eq!(engine.queries_served(), 0, "nothing was evaluated");
    assert_eq!(engine.queries_rejected(), 3);
    let stats = engine.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        0,
        "the cache was never consulted"
    );
    assert!(engine.plan_cache().is_empty());

    // A real request after the rejects is served normally.
    let served = engine
        .execute(&QueryRequest::paths(0, 1).max_hops(4))
        .unwrap();
    assert_ne!(served.report.cache, CacheOutcome::Skipped);
    assert_eq!(engine.queries_served(), 1);
    assert_eq!(engine.queries_rejected(), 3);

    // `stream()` applies the same rules: a pre-stopped stream counts as
    // rejected, never consults the cache, and reports its termination on
    // the first pull.
    let served_before = engine.queries_served();
    let lookups_before = {
        let s = engine.cache_stats();
        s.hits + s.misses
    };
    let token = CancelToken::new();
    token.cancel();
    let req = QueryRequest::paths(0, 1).max_hops(4).cancel_token(token);
    let mut stream = engine.stream(&req).unwrap();
    assert!(stream.next().is_none());
    assert_eq!(stream.termination(), Some(Termination::Cancelled));
    assert_eq!(engine.queries_served(), served_before);
    assert_eq!(engine.queries_rejected(), 4);
    let s = engine.cache_stats();
    assert_eq!(
        s.hits + s.misses,
        lookups_before,
        "no lookup from the stream"
    );

    // The dynamic engine pins the same accounting.
    let dynamic = DynamicGraph::new(erdos_renyi(20, 80, 5));
    let mut engine = DynamicEngine::new(&dynamic, PathEnumConfig::default());
    let response = engine
        .execute(&QueryRequest::paths(0, 1).max_hops(4).limit(0))
        .unwrap();
    assert_eq!(response.report.cache, CacheOutcome::Skipped);
    assert_eq!(engine.queries_served(), 0);
    assert_eq!(engine.queries_rejected(), 1);
}

#[test]
fn streamed_explain_requests_plan_only_and_yield_nothing() {
    // An explain request never enumerates: `execute` returns no path,
    // and its stream yields none either, ends `Completed`, builds no
    // index and counts as served, as `execute` counts it.
    let mut b = GraphBuilder::new(4);
    b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        .unwrap();
    let g = b.finish();
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    let request = QueryRequest::paths(0, 3).max_hops(3).explain();

    let executed = engine.execute(&request).unwrap();
    assert_eq!(executed.num_results(), 0);
    assert_eq!(executed.termination, Termination::Completed);
    assert_eq!(engine.queries_served(), 1);

    let stats_before = engine.cache_stats();
    let mut stream = engine.stream(&request).unwrap();
    assert_eq!(stream.index().num_vertices(), 0, "no index was built");
    assert!(stream.next().is_none());
    assert_eq!(stream.emitted(), 0);
    assert_eq!(stream.termination(), Some(Termination::Completed));
    assert_eq!(engine.queries_served(), 2);
    assert_eq!(engine.queries_rejected(), 0);
    assert_eq!(
        engine.cache_stats(),
        stats_before,
        "the caches were not touched"
    );

    // A cancelled or zero-limit explain request still only explains.
    let token = CancelToken::new();
    token.cancel();
    for request in [
        QueryRequest::paths(0, 3).max_hops(3).explain().limit(0),
        QueryRequest::paths(0, 3)
            .max_hops(3)
            .explain()
            .cancel_token(token),
    ] {
        assert_eq!(
            engine.execute(&request).unwrap().termination,
            Termination::Completed
        );
        let mut stream = engine.stream(&request).unwrap();
        assert!(stream.next().is_none());
        assert_eq!(stream.termination(), Some(Termination::Completed));
    }
}

#[test]
fn invalid_requests_come_back_as_errors_not_panics() {
    let g = erdos_renyi(20, 60, 1);
    let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
    assert_eq!(
        engine
            .execute(&QueryRequest::paths(0, 10_000).max_hops(4))
            .unwrap_err(),
        PathEnumError::VertexOutOfRange(10_000)
    );
    assert_eq!(
        engine
            .execute(&QueryRequest::paths(3, 3).max_hops(4))
            .unwrap_err(),
        PathEnumError::EqualEndpoints
    );
    assert_eq!(
        engine.execute(&QueryRequest::paths(0, 1)).unwrap_err(),
        PathEnumError::HopConstraintTooSmall(0)
    );
}
