//! Property tests for the request/response layer: `execute` and
//! `stream` must agree path-for-path with the brute-force reference and
//! with the Appendix E constraint free functions, and the stopping rules
//! (limit, deadline, cancellation) must be *reported*, never silent.

use std::time::Duration;

use proptest::prelude::*;

use pathenum_repro::core::constraints::{accumulative_dfs, automaton_dfs, filtered_graph};
use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::graph::generators::{erdos_renyi, power_law, PowerLawConfig};
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
