//! Warm enumeration allocates nothing (`reproduce perf`; not a paper
//! experiment).
//!
//! Kept beside the paper's figures for one reason: the number needs the
//! counting `#[global_allocator]` of [`crate::alloc`], whose `unsafe`
//! `benchmark/` may not carry. Everything else this command once timed
//! is a `benchmark/` ledger line (`graph.bfs_ns_per_edge.*`,
//! `enumerate.{dfs,join}_ns_per_path`) or a `tests/kernel_agreement.rs`
//! oracle comparison; the name stays because `benchmark/README.md`
//! points readers at it.
//!
//! On a warmed thread, IDX-DFS and IDX-JOIN over a prebuilt index must
//! cause **zero** allocation events per query and leave the per-thread
//! arena byte-stable, in both delivery modes: counted in bulk (a
//! [`CountingSink`]) and path by path (a counting [`FnSink`], which
//! keeps the per-path defaults). The retained oracle kernels run under
//! the same counter as the positive control: they must allocate.
//!
//! The engine leg runs the same queries through [`QueryEngine::execute`],
//! with and without a [`ResultCache`]. A count-only request must cause
//! zero allocation events on a plan hit (the plan warmed by `explain`)
//! whether or not a result cache is attached, since it is never teed,
//! and on a result hit, which is one `emit_count`. A collecting result
//! hit is printed, not asserted: it still copies every path into the
//! response.

use pathenum::enumerate::{
    idx_dfs, idx_dfs_iterative, idx_join, idx_join_reference, thread_scratch_heap_bytes,
};
use pathenum::sink::{CountingSink, FnSink, PathSink, SearchControl};
use pathenum::{
    CacheOutcome, Counters, Index, PathEnumConfig, Query, QueryEngine, QueryRequest, ResultCache,
};
use pathenum_graph::generators::{power_law, PowerLawConfig};
use pathenum_graph::{CsrGraph, VertexId};

use super::support::default_queries;
use crate::alloc::allocation_count;
use crate::config::ExperimentConfig;
use crate::output::banner;

const REPS: u64 = 10;

/// Total allocation events over `REPS` runs of `query`.
fn events_over_reps(mut query: impl FnMut()) -> u64 {
    let before = allocation_count();
    for _ in 0..REPS {
        query();
    }
    allocation_count() - before
}

/// Warms the thread's arena with one run of `query`, then asserts that
/// `REPS` more runs allocate nothing and leave the arena as it was.
fn warm_leg(mode: &str, mut query: impl FnMut()) {
    query();
    let arena = thread_scratch_heap_bytes();
    let warm = events_over_reps(&mut query);
    assert_eq!(
        arena,
        thread_scratch_heap_bytes(),
        "warm queries ({mode}) must not grow the enumeration arena"
    );
    assert_eq!(
        warm, 0,
        "warm optimized kernels ({mode}) must not allocate (total over {REPS} queries)"
    );
}

/// Allocation events over one `execute` of each of `requests`, each of
/// which must be answered with `outcome`.
fn events_per_pass(
    engine: &mut QueryEngine<'_>,
    requests: &[QueryRequest<'_>],
    outcome: CacheOutcome,
) -> u64 {
    let before = allocation_count();
    for request in requests {
        let response = engine.execute(request).expect("valid request");
        assert_eq!(response.report.cache, outcome);
    }
    allocation_count() - before
}

/// The engine leg over `queries`: asserts that count-only plan hits
/// (with and without a result cache) and count-only result hits cause no
/// allocation event, and returns the allocation events and paths of one
/// collecting result hit per query.
fn engine_leg(graph: &CsrGraph, queries: &[Query]) -> (u64, u64) {
    let config = PathEnumConfig::default();
    let count_only: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|&q| QueryRequest::from_query(q))
        .collect();
    let collecting: Vec<QueryRequest<'_>> = queries
        .iter()
        .map(|&q| QueryRequest::from_query(q).collect_paths(true))
        .collect();

    for results in [None, Some(ResultCache::default())] {
        let cached = results.is_some();
        let mut engine = QueryEngine::new(graph, config);
        if let Some(results) = results {
            engine = engine.with_result_cache(results);
        }
        for request in &count_only {
            engine.explain(request).expect("valid request");
        }
        let events = events_per_pass(&mut engine, &count_only, CacheOutcome::Hit);
        assert_eq!(
            events, 0,
            "a count-only plan hit (result cache attached: {cached}) must not allocate"
        );
    }

    let mut engine = QueryEngine::new(graph, config).with_result_cache(ResultCache::default());
    let paths = collecting
        .iter()
        .map(|request| {
            engine
                .execute(request)
                .expect("valid request")
                .num_results()
        })
        .sum();
    let events = events_per_pass(&mut engine, &count_only, CacheOutcome::ResultHit);
    assert_eq!(events, 0, "a count-only result hit must not allocate");
    let collected = events_per_pass(&mut engine, &collecting, CacheOutcome::ResultHit);
    (collected, paths)
}

/// Entry point for `reproduce perf`.
pub fn run(config: &ExperimentConfig) {
    banner("perf: allocation events per warm query");
    let quick = config.queries_per_set <= 4;
    let (n, k) = if quick { (300, 4) } else { (800, 5) };
    let graph = power_law(PowerLawConfig::social(n, 4, config.seed));
    let cut = (k / 2).max(1);
    let queries = default_queries(&graph, k, config);
    let index = queries
        .iter()
        .map(|&query| Index::build(&graph, query))
        .max_by_key(Index::num_edges)
        .expect("the query set is not empty");

    let optimized = |sink: &mut dyn PathSink| {
        idx_join(&index, cut, sink, &mut Counters::default());
        idx_dfs_iterative(&index, sink, &mut Counters::default());
    };
    let mut results = 0;
    warm_leg("counted", || {
        let mut sink = CountingSink::default();
        optimized(&mut sink);
        results = sink.count;
    });
    let mut per_path = 0;
    warm_leg("per path", || {
        let mut count = 0u64;
        optimized(&mut FnSink(|_: &[VertexId]| {
            count += 1;
            SearchControl::Continue
        }));
        per_path = count;
    });
    assert!(results > 0, "the measured queries enumerate paths");
    assert_eq!(
        results, per_path,
        "both delivery modes count the same paths"
    );
    let arena = thread_scratch_heap_bytes();

    let oracle = events_over_reps(|| {
        let mut sink = CountingSink::default();
        idx_join_reference(&index, cut, &mut sink, &mut Counters::default());
        idx_dfs(&index, &mut sink, &mut Counters::default());
    }) / REPS;
    assert!(
        oracle > 0,
        "the counter must see the oracle kernels allocate"
    );

    let (collected, collected_paths) = engine_leg(&graph, &queries);

    println!(
        "perf assertions passed: 0 allocation events per warm query (IDX-DFS + IDX-JOIN, \
         counted and per path, {results} paths, arena stable at {arena} bytes) and per \
         count-only engine request (plan hit with and without a result cache, result hit); \
         oracle kernels: {oracle} per query"
    );
    println!(
        "engine collecting result hits: {collected} allocation events for \
         {collected_paths} paths over {} requests (not asserted)",
        queries.len()
    );
}
