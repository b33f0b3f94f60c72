//! Figure 12: scalability on the `tm` proxy (the paper's billion-edge
//! Twitter-mpi, scaled) — per-technique execution time and throughput
//! for IDX-DFS and IDX-JOIN, k = 3..6.

use pathenum::estimator::FullEstimate;
use pathenum::index::BuildScratch;
use pathenum::{enumerate, optimize_join_order, Counters, Index};
use pathenum_workloads::datasets;
use pathenum_workloads::runner::per_path_sink;

use crate::config::ExperimentConfig;
use crate::experiments::support::default_queries;
use crate::output::{banner, sci, sci_ms, Table};

/// Runs the experiment and prints the series.
pub fn run(config: &ExperimentConfig) {
    banner("Figure 12: scalability on tm (per-technique time and throughput)");
    let graph = datasets::build("tm").expect("tm is registered");
    println!(
        "tm proxy: {} vertices, {} edges (paper: 52M vertices, 1.96B edges)\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let ks: Vec<u32> = config.k_sweep().into_iter().filter(|&k| k <= 6).collect();
    let Some(&query) = default_queries(&graph, 6, config).first() else {
        println!("no admissible query on tm");
        return;
    };

    let mut table = Table::new([
        "k",
        "BFS",
        "index build",
        "optimize",
        "DFS enum",
        "JOIN enum",
        "tput DFS",
        "tput JOIN",
    ]);
    for &k in &ks {
        let q = pathenum::Query::new(query.s, query.t, k).expect("validated endpoints");
        let build_start = std::time::Instant::now();
        let (index, bfs_time) = Index::build_reusing(&graph, q, &mut BuildScratch::default());
        let build = build_start.elapsed();

        let opt_start = std::time::Instant::now();
        let estimate = FullEstimate::compute(&index);
        let plan = optimize_join_order(&index, &estimate);
        let optimize = opt_start.elapsed();

        let mut dfs_sink = per_path_sink(None, Some(config.time_limit));
        let mut counters = Counters::default();
        let dfs_start = std::time::Instant::now();
        enumerate::idx_dfs(&index, &mut dfs_sink, &mut counters);
        let dfs_time = dfs_start.elapsed();

        let cut = plan.map(|p| p.cut.clamp(1, k - 1)).unwrap_or(k / 2);
        let mut join_sink = per_path_sink(None, Some(config.time_limit));
        let mut counters = Counters::default();
        let join_start = std::time::Instant::now();
        enumerate::idx_join(&index, cut, &mut join_sink, &mut counters);
        let join_time = join_start.elapsed();

        table.row([
            k.to_string(),
            sci_ms(bfs_time),
            sci_ms(build),
            sci_ms(optimize),
            sci_ms(dfs_time),
            sci_ms(join_time),
            sci(dfs_sink.emitted() as f64 / dfs_time.as_secs_f64().max(1e-9)),
            sci(join_sink.emitted() as f64 / join_time.as_secs_f64().max(1e-9)),
        ]);
    }
    table.print();
    println!("\npaper's qualitative claim: BFS dominates index construction; preprocessing");
    println!("outweighs enumeration for small k; throughput reaches ~1e7/s by k = 5");
}
