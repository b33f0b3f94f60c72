//! End-to-end integration: dataset proxies -> query generation ->
//! measurement pipeline, exercising the exact flow the benchmark harness
//! uses, at smoke-test scale.

use std::time::Duration;

use pathenum_repro::prelude::*;
use pathenum_repro::workloads::runner::{
    measure_response_time, run_query, run_query_set, summarize,
};
use pathenum_repro::workloads::{datasets, generate_queries, QueryGenConfig};

#[test]
fn full_pipeline_on_gg() {
    let graph = datasets::gg();
    let queries = generate_queries(&graph, QueryGenConfig::paper_default(6, 5, 17));
    assert_eq!(queries.len(), 6);
    let config = MeasureConfig {
        time_limit: Duration::from_millis(200),
        response_limit: 100,
    };

    // Every algorithm of Table 3 completes and agrees on result counts
    // for queries that do not time out.
    let mut counts: Vec<Vec<u64>> = Vec::new();
    for algo in Algorithm::table3() {
        let summary = run_query_set(algo, &graph, &queries, config);
        assert_eq!(summary.measurements.len(), queries.len());
        counts.push(
            summary
                .measurements
                .iter()
                .map(|m| if m.timed_out { u64::MAX } else { m.results })
                .collect(),
        );
    }
    for row in &counts[1..] {
        for (i, (&a, &b)) in counts[0].iter().zip(row).enumerate() {
            if a != u64::MAX && b != u64::MAX {
                assert_eq!(a, b, "result count mismatch on query {i}");
            }
        }
    }
}

#[test]
fn response_time_is_bounded_by_query_time_limit() {
    let graph = datasets::ep();
    let queries = generate_queries(&graph, QueryGenConfig::paper_default(3, 6, 23));
    let config = MeasureConfig {
        time_limit: Duration::from_millis(150),
        response_limit: 50,
    };
    for q in queries {
        let response = measure_response_time(Algorithm::IdxDfs, &graph, q, config);
        assert!(response <= config.time_limit + Duration::from_millis(50));
    }
}

#[test]
fn timeouts_are_reported_on_hostile_workloads() {
    // The dense ye proxy with a large k floods any enumerator; the
    // runner must censor rather than hang.
    let graph = datasets::build("ye").expect("registered");
    let queries = generate_queries(&graph, QueryGenConfig::paper_default(2, 8, 31));
    let config = MeasureConfig {
        time_limit: Duration::from_millis(50),
        response_limit: 1000,
    };
    for q in queries {
        let m = run_query(Algorithm::IdxDfs, &graph, q, config);
        assert!(m.elapsed <= config.time_limit + Duration::from_millis(100));
        if m.timed_out {
            assert!(m.results > 0, "a censored dense query still yields results");
        }
    }
}

#[test]
fn pathenum_optimizer_picks_join_somewhere_on_dense_graphs() {
    // On the dense proxies with long hop constraints, the cost model
    // should select IDX-JOIN for at least some queries (the Table 3
    // phenomenon that PathEnum tracks the better of the two).
    let graph = datasets::build("ye").expect("registered");
    let queries = generate_queries(&graph, QueryGenConfig::paper_default(6, 6, 5));
    let mut methods = std::collections::HashSet::new();
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for q in queries {
        let mut sink = pathenum_repro::workloads::runner::BoundedSink::new(
            Some(2000),
            Some(Duration::from_millis(100)),
        );
        let response = engine
            .execute_into(&QueryRequest::from_query(q), &mut sink)
            .expect("valid");
        methods.insert(response.plan.unwrap().method);
    }
    assert!(!methods.is_empty());
}

#[test]
fn summarize_handles_empty_and_mixed_sets() {
    let summary = summarize(Vec::new());
    assert_eq!(summary.mean_query_time_ms, 0.0);
    assert_eq!(summary.timeout_fraction, 0.0);
}

#[test]
fn proxy_and_generator_shapes_are_stable() {
    // Guard the workload characteristics the experiments rely on: the ep
    // proxy is heavy-tailed and all dataset builds are connected enough
    // to admit V' x V' queries.
    for name in ["ep", "gg", "tw", "ye"] {
        let g = datasets::build(name).expect("registered");
        let queries = generate_queries(&g, QueryGenConfig::paper_default(5, 6, 1));
        assert!(!queries.is_empty(), "{name} admits no queries");
    }
}
