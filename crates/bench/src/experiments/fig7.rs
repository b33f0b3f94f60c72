//! Figure 7: query-time breakdown into preprocessing (distance BFS /
//! index construction) and enumeration, BC-DFS vs IDX-DFS, k varied.

use pathenum_workloads::runner::run_query_set;
use pathenum_workloads::Algorithm;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, sci, Table};

/// Runs the experiment and prints the series.
pub fn run(config: &ExperimentConfig) {
    banner("Figure 7: query-time breakdown (mean ms per query)");
    for (name, graph) in representative_graphs() {
        let mut table = Table::new([
            "k",
            "prep BC-DFS",
            "enum BC-DFS",
            "prep IDX-DFS",
            "enum IDX-DFS",
        ]);
        for k in config.k_sweep() {
            let queries = default_queries(&graph, k, config);
            if queries.is_empty() {
                continue;
            }
            let mut cells = vec![k.to_string()];
            for algo in [Algorithm::BcDfs, Algorithm::IdxDfs] {
                let summary = run_query_set(algo, &graph, &queries, config.measure());
                let n = summary.measurements.len() as f64;
                let prep = summary
                    .measurements
                    .iter()
                    .map(|m| m.report.timings.preprocessing().as_secs_f64() * 1e3)
                    .sum::<f64>()
                    / n;
                let enumeration = summary
                    .measurements
                    .iter()
                    .map(|m| m.report.timings.enumeration.as_secs_f64() * 1e3)
                    .sum::<f64>()
                    / n;
                cells.push(sci(prep));
                cells.push(sci(enumeration));
            }
            table.row(cells);
        }
        println!("--- {name} ---");
        table.print();
        println!();
    }
}
