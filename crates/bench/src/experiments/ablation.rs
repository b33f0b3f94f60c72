//! Ablations beyond the paper's figures, probing three design choices:
//!
//! 1. **Pruning power** (Appendix B): edges kept by the light-weight
//!    index versus tuples kept by Algorithm 2's fully reduced relations
//!    versus the raw graph.
//! 2. **Barrier value**: BC-DFS versus the static-bound generic DFS
//!    (search-tree size and wall time).
//! 3. **Theoretical baselines**: T-DFS against the practical algorithms
//!    on a small workload (its per-step certificate BFS is the cost the
//!    paper's introduction motivates away from).

use std::time::Instant;

use pathenum::relations::Relations;
use pathenum::{Index, Query};
use pathenum_workloads::runner::run_query_set;
use pathenum_workloads::{datasets, Algorithm};

use crate::config::ExperimentConfig;
use crate::experiments::support::default_queries;
use crate::output::{banner, sci, sci_ms, Table};

/// Runs all five ablations.
pub fn run(config: &ExperimentConfig) {
    pruning_power(config);
    barrier_value(config);
    theoretical_baselines(config);
    global_index_filter(config);
    hot_index_memory(config);
}

fn pruning_power(config: &ExperimentConfig) {
    banner("Ablation 1: pruning power — index vs full reducer vs raw graph (ep)");
    let graph = datasets::ep();
    let k = config.default_k.min(5); // Algorithm 2 scans k copies of E
    let queries = default_queries(&graph, k, config);
    let sample = &queries[..queries.len().min(5)];
    let mut table = Table::new([
        "query",
        "raw edges",
        "reduced tuples",
        "index edges",
        "reducer ms",
        "index ms",
    ]);
    for &q in sample {
        let q = Query::new(q.s, q.t, k).expect("validated endpoints");
        let reducer_start = Instant::now();
        let relations = Relations::build_reduced(&graph, q);
        let reducer_time = reducer_start.elapsed();
        let index_start = Instant::now();
        let index = Index::build(&graph, q);
        let index_time = index_start.elapsed();
        table.row([
            format!("q({},{},{k})", q.s, q.t),
            sci((graph.num_edges() * k as usize) as f64),
            sci(relations.total_tuples() as f64),
            sci(index.num_edges() as f64),
            sci_ms(reducer_time),
            sci_ms(index_time),
        ]);
    }
    table.print();
    println!("claim (Appendix B): competitive pruning at a fraction of the build cost\n");
}

fn barrier_value(config: &ExperimentConfig) {
    banner("Ablation 2: dynamic barriers (BC-DFS) vs static bound (GEN-DFS)");
    let graph = datasets::ep();
    let queries = default_queries(&graph, config.default_k, config);
    let mut table = Table::new(["method", "mean ms", "partials/query", "invalid/query"]);
    for algo in [Algorithm::GenericDfs, Algorithm::BcDfs] {
        let summary = run_query_set(algo, &graph, &queries, config.measure());
        let n = summary.measurements.len().max(1) as f64;
        let partials = summary
            .measurements
            .iter()
            .map(|m| m.report.counters.partial_results as f64)
            .sum::<f64>()
            / n;
        let invalid = summary
            .measurements
            .iter()
            .map(|m| m.report.counters.invalid_partial_results as f64)
            .sum::<f64>()
            / n;
        table.row([
            algo.name().to_string(),
            sci(summary.mean_query_time_ms),
            sci(partials),
            sci(invalid),
        ]);
    }
    table.print();
    println!("claim (Fig. 6 discussion): barriers add little extra pruning over distances\n");
}

fn theoretical_baselines(config: &ExperimentConfig) {
    banner("Ablation 3: T-DFS vs practical algorithms (small workload)");
    let graph = datasets::build("tw").expect("tw is registered");
    let k = config.default_k.min(5);
    let queries = default_queries(&graph, k, config);
    let sample = &queries[..queries.len().min(6)];
    let mut table = Table::new(["method", "mean ms", "invalid/query", "timeouts"]);
    for algo in [Algorithm::TDfs, Algorithm::BcDfs, Algorithm::IdxDfs] {
        let summary = run_query_set(algo, &graph, sample, config.measure());
        let n = summary.measurements.len().max(1) as f64;
        let invalid = summary
            .measurements
            .iter()
            .map(|m| m.report.counters.invalid_partial_results as f64)
            .sum::<f64>()
            / n;
        table.row([
            algo.name().to_string(),
            sci(summary.mean_query_time_ms),
            sci(invalid),
            format!("{:.0}%", summary.timeout_fraction * 100.0),
        ]);
    }
    table.print();
    println!("claim (§1): T-DFS's zero invalid partials cost more than they save");
}

fn global_index_filter(config: &ExperimentConfig) {
    banner("Ablation 4: offline global index (PLL) as an existence filter (§7.5)");
    // Streaming-style workload: random endpoint pairs, most of which have
    // no result within k. The per-query index pays two BFS to learn that;
    // the oracle answers from labels.
    use pathenum::global::GlobalIndexedGraph;
    use pathenum::{CountingSink, PathEnumConfig, PlanCache, Query, QueryEngine, QueryRequest};
    use rand::{Rng, SeedableRng};

    let graph = datasets::build("gg").expect("registered");
    let k = 4u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let n = graph.num_vertices() as u32;
    let queries: Vec<Query> = (0..config.queries_per_set * 20)
        .filter_map(|_| Query::new(rng.gen_range(0..n), rng.gen_range(0..n), k).ok())
        .collect();

    let build_start = Instant::now();
    let indexed = GlobalIndexedGraph::new(graph.clone());
    let oracle_build = build_start.elapsed();

    // Both loops build every query's index afresh: no plan cache.
    let engine =
        |graph| QueryEngine::with_cache(graph, PathEnumConfig::default(), PlanCache::new(0));
    let count = |engine: &mut QueryEngine<'_>, q: Query| {
        let mut sink = CountingSink::default();
        engine
            .execute_into(&QueryRequest::from_query(q), &mut sink)
            .expect("generated queries are in range");
        sink.count
    };

    let direct_start = Instant::now();
    let mut direct = engine(&graph);
    let mut direct_results = 0u64;
    for &q in &queries {
        direct_results += count(&mut direct, q);
    }
    let direct_time = direct_start.elapsed();

    let filtered_start = Instant::now();
    let mut filtered = engine(indexed.graph());
    let mut filtered_results = 0u64;
    let mut skipped = 0usize;
    for &q in &queries {
        if !indexed.may_have_results(q) {
            skipped += 1;
            continue;
        }
        filtered_results += count(&mut filtered, q);
    }
    let filtered_time = filtered_start.elapsed();

    assert_eq!(
        direct_results, filtered_results,
        "filter must not change results"
    );
    let mut table = Table::new(["variant", "total ms", "queries skipped"]);
    table.row([
        "per-query index only".to_string(),
        sci_ms(direct_time),
        "0".to_string(),
    ]);
    table.row([
        "PLL existence filter".to_string(),
        sci_ms(filtered_time),
        format!("{skipped}/{}", queries.len()),
    ]);
    table.print();
    println!(
        "oracle: one-time build {} (avg label size {:.1}, {} KiB)",
        sci_ms(oracle_build),
        indexed.oracle().average_label_size(),
        indexed.oracle().heap_bytes() / 1024
    );
    println!("claim (§7.5): a global index removes the per-query build for empty queries");
}

fn hot_index_memory(config: &ExperimentConfig) {
    banner("Ablation 5: HPI-style hot-pair path index vs PathEnum's per-query index");
    use pathenum_baselines::hot_index::HotIndex;

    let graph = datasets::build("sl").expect("registered");
    let queries = default_queries(&graph, config.default_k, config);
    let mut table = Table::new([
        "k",
        "HPI segments",
        "HPI KiB",
        "HPI build ms",
        "PathEnum index KiB (max)",
    ]);
    for k in [2u32, 3, 4, 5] {
        let build_start = Instant::now();
        let hpi = HotIndex::build(&graph, 0.1, k);
        let build_time = build_start.elapsed();
        let max_query_index = queries
            .iter()
            .map(|&q| {
                let q = Query::new(q.s, q.t, k).expect("validated endpoints");
                Index::build(&graph, q).heap_bytes()
            })
            .max()
            .unwrap_or(0);
        table.row([
            k.to_string(),
            hpi.num_segments().to_string(),
            (hpi.heap_bytes() / 1024).to_string(),
            sci_ms(build_time),
            (max_query_index / 1024).to_string(),
        ]);
    }
    table.print();
    println!("claim (§2.2): HPI's path materialization grows exponentially with the hop cap,");
    println!("while the query-dependent light-weight index stays near the graph size");
}
