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

use pathenum::enumerate::{
    idx_dfs, idx_dfs_iterative, idx_join, idx_join_reference, thread_scratch_heap_bytes,
};
use pathenum::sink::{CountingSink, FnSink, PathSink, SearchControl};
use pathenum::{Counters, Index};
use pathenum_graph::generators::{power_law, PowerLawConfig};
use pathenum_graph::VertexId;

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

/// Entry point for `reproduce perf`.
pub fn run(config: &ExperimentConfig) {
    banner("perf: allocation events per warm query");
    let quick = config.queries_per_set <= 4;
    let (n, k) = if quick { (300, 4) } else { (800, 5) };
    let graph = power_law(PowerLawConfig::social(n, 4, config.seed));
    let cut = (k / 2).max(1);
    let index = default_queries(&graph, k, config)
        .into_iter()
        .map(|query| Index::build(&graph, query))
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

    println!(
        "perf assertions passed: 0 allocation events per warm query (IDX-DFS + IDX-JOIN, \
         counted and per path, {results} paths, arena stable at {arena} bytes); \
         oracle kernels: {oracle} per query"
    );
}
