//! Figures 10 and 11: log-log regression of enumeration time against
//! index size (Fig. 10) and against #results (Fig. 11), per query, on
//! the k = 6 default sets.

use pathenum_workloads::runner::{linear_regression, run_query_set};
use pathenum_workloads::Algorithm;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, Table};

/// Runs the experiment and prints both regressions per graph.
pub fn run(config: &ExperimentConfig) {
    banner("Figures 10/11: enumeration time vs index size / #results (log-log OLS)");
    let k = config.default_k;
    let mut table = Table::new([
        "dataset",
        "x-variable",
        "slope",
        "intercept",
        "r^2",
        "#points",
    ]);
    for (name, graph) in representative_graphs() {
        let queries = default_queries(&graph, k, config);
        if queries.is_empty() {
            continue;
        }
        let summary = run_query_set(Algorithm::IdxDfs, &graph, &queries, config.measure());
        let mut log_time = Vec::new();
        let mut log_index = Vec::new();
        let mut log_results = Vec::new();
        for m in &summary.measurements {
            let enum_secs = m.report.timings.enumeration.as_secs_f64();
            if enum_secs <= 0.0 || m.results == 0 {
                continue;
            }
            let index_edges = m.plan.map_or(0, |plan| plan.index_edges);
            if index_edges == 0 {
                continue;
            }
            log_time.push((enum_secs * 1e3).ln());
            log_index.push((index_edges as f64).ln());
            log_results.push((m.results as f64).ln());
        }
        for (x_name, xs) in [("index size", &log_index), ("#results", &log_results)] {
            match linear_regression(xs, &log_time) {
                Some(r) => table.row([
                    name.to_string(),
                    x_name.to_string(),
                    format!("{:.3}", r.slope),
                    format!("{:.3}", r.intercept),
                    format!("{:.3}", r.r_squared),
                    xs.len().to_string(),
                ]),
                None => table.row([
                    name.to_string(),
                    x_name.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    xs.len().to_string(),
                ]),
            }
        }
    }
    table.print();
    println!("\npaper's qualitative claim: both slopes positive, r^2(#results) > r^2(index size)");
}
