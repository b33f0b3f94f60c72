//! Figure 17: execution time of each individual technique with k varied:
//! the boundary BFS, index construction, join-order optimization, and
//! the two enumeration strategies.

use pathenum::estimator::FullEstimate;
use pathenum::index::BuildScratch;
use pathenum::{enumerate, optimize_join_order, Counters, Index, Query};
use pathenum_workloads::runner::BoundedSink;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, sci, Table};

/// Runs the experiment and prints the per-technique means.
pub fn run(config: &ExperimentConfig) {
    banner("Figure 17: per-technique execution time (mean ms per query)");
    for (name, graph) in representative_graphs() {
        let mut table = Table::new(["k", "BFS", "index build", "optimize", "DFS", "JOIN"]);
        for k in config.k_sweep() {
            let queries = default_queries(&graph, k, config);
            if queries.is_empty() {
                continue;
            }
            let n = queries.len() as f64;
            let mut sums = [0f64; 5];
            for &q in &queries {
                let q = Query::new(q.s, q.t, k).expect("validated endpoints");
                let build_start = std::time::Instant::now();
                let (index, bfs) = Index::build_reusing(&graph, q, &mut BuildScratch::default());
                sums[1] += build_start.elapsed().as_secs_f64() * 1e3;
                sums[0] += bfs.as_secs_f64() * 1e3;

                let opt_start = std::time::Instant::now();
                let estimate = FullEstimate::compute(&index);
                let plan = optimize_join_order(&index, &estimate);
                sums[2] += opt_start.elapsed().as_secs_f64() * 1e3;

                let mut sink = BoundedSink::new(None, Some(config.time_limit));
                let mut counters = Counters::default();
                let dfs_start = std::time::Instant::now();
                enumerate::idx_dfs(&index, &mut sink, &mut counters);
                sums[3] += dfs_start.elapsed().as_secs_f64() * 1e3;

                if let Some(plan) = plan {
                    let cut = plan.cut.clamp(1, k - 1);
                    let mut sink = BoundedSink::new(None, Some(config.time_limit));
                    let mut counters = Counters::default();
                    let join_start = std::time::Instant::now();
                    enumerate::idx_join(&index, cut, &mut sink, &mut counters);
                    sums[4] += join_start.elapsed().as_secs_f64() * 1e3;
                }
            }
            table.row([
                k.to_string(),
                sci(sums[0] / n),
                sci(sums[1] / n),
                sci(sums[2] / n),
                sci(sums[3] / n),
                sci(sums[4] / n),
            ]);
        }
        println!("--- {name} ---");
        table.print();
        println!();
    }
    println!("paper's qualitative claims: BFS dominates index construction; optimization");
    println!("can exceed enumeration on short queries but both stay small in absolute terms");
}
