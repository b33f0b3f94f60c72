//! Figures 13, 14, 15 (Appendix F): query time, throughput, and response
//! time with k varied for all five algorithms on ep and gg. PathEnum's
//! response time is that of a `limit(1000)` request — its planner picks
//! the method from the limit — beside the paper's two streaming rows.

use pathenum_workloads::runner::{measure_response_time, run_query_set};
use pathenum_workloads::Algorithm;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, sci, Table};

/// Runs the experiment and prints the three series per graph.
pub fn run(config: &ExperimentConfig) {
    banner("Figures 13-15: query time (ms) / throughput (/s) / response time (ms) vs k");
    println!(
        "(response time: BC-DFS and IDX-DFS are cut off at the sink; PathEnum is a \
         limit({}) request, planned for what it reads)",
        config.measure().response_limit
    );
    let algos = Algorithm::table3();
    for (name, graph) in representative_graphs() {
        let mut time_table = Table::new(
            ["k".to_string()]
                .into_iter()
                .chain(algos.iter().map(|a| a.name().to_string())),
        );
        let mut tput_table = Table::new(
            ["k".to_string()]
                .into_iter()
                .chain(algos.iter().map(|a| a.name().to_string())),
        );
        let mut resp_table = Table::new(["k", "BC-DFS", "IDX-DFS", "PathEnum"]);
        for k in config.k_sweep() {
            let queries = default_queries(&graph, k, config);
            if queries.is_empty() {
                continue;
            }
            let mut time_cells = vec![k.to_string()];
            let mut tput_cells = vec![k.to_string()];
            for algo in algos {
                let summary = run_query_set(algo, &graph, &queries, config.measure());
                let star = if summary.timeout_fraction > 0.2 {
                    "*"
                } else {
                    ""
                };
                time_cells.push(format!("{}{}", sci(summary.mean_query_time_ms), star));
                tput_cells.push(sci(summary.mean_throughput));
            }
            time_table.row(time_cells);
            tput_table.row(tput_cells);

            let mut resp_cells = vec![k.to_string()];
            for algo in [Algorithm::BcDfs, Algorithm::IdxDfs, Algorithm::PathEnum] {
                let mean: f64 = queries
                    .iter()
                    .map(|&q| {
                        measure_response_time(algo, &graph, q, config.measure()).as_secs_f64() * 1e3
                    })
                    .sum::<f64>()
                    / queries.len() as f64;
                resp_cells.push(sci(mean));
            }
            resp_table.row(resp_cells);
        }
        println!("--- {name}: Figure 13 (query time, ms; '*' = >20% out of time) ---");
        time_table.print();
        println!("--- {name}: Figure 14 (throughput, results/s) ---");
        tput_table.print();
        println!("--- {name}: Figure 15 (response time, ms) ---");
        resp_table.print();
        println!();
    }
}
