//! Table 7: maximum memory consumption — the light-weight index versus
//! IDX-JOIN's materialized partial results — on ep and gg with k varied.

use pathenum_workloads::runner::run_query_set;
use pathenum_workloads::Algorithm;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, Table};

fn mib(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

/// Runs the experiment and prints the table.
pub fn run(config: &ExperimentConfig) {
    banner("Table 7: maximum memory consumption (MiB) of IDX-JOIN");
    println!("index = light-weight index footprint (I_t, the one neighbor table built);");
    println!("partials = materialized join tuples\n");
    let mut table = Table::new(["dataset", "k", "index MiB", "partials MiB"]);
    for (name, graph) in representative_graphs() {
        for k in config.k_sweep() {
            let queries = default_queries(&graph, k, config);
            if queries.is_empty() {
                continue;
            }
            let summary = run_query_set(Algorithm::IdxJoin, &graph, &queries, config.measure());
            let max_index = summary
                .measurements
                .iter()
                .filter_map(|m| m.plan.map(|plan| plan.index_bytes))
                .max()
                .unwrap_or(0) as u64;
            let max_partials = summary
                .measurements
                .iter()
                .map(|m| m.report.counters.peak_materialized_bytes())
                .max()
                .unwrap_or(0);
            table.row([
                name.to_string(),
                k.to_string(),
                mib(max_index),
                mib(max_partials),
            ]);
        }
    }
    table.print();
}
