//! Figure 18: cardinality-estimation accuracy — the preliminary and
//! full-fledged estimators against the actual number of results, k
//! varied on ep and gg.

use pathenum::estimator::{preliminary_estimate, summarize_q_errors, FullEstimate};
use pathenum::{Index, Query};
use pathenum_workloads::runner::run_query;
use pathenum_workloads::Algorithm;

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, geometric_mean, representative_graphs};
use crate::output::{banner, sci, Table};

/// Runs the experiment and prints the geometric means per k.
pub fn run(config: &ExperimentConfig) {
    banner("Figure 18: cardinality estimation (geometric means over the query set)");
    println!("#results is censored at the time limit, as in the paper's k=8 omission\n");
    for (name, graph) in representative_graphs() {
        let mut table = Table::new([
            "k",
            "#results",
            "full-fledged (walks)",
            "preliminary",
            "q-err full",
            "q-err prelim",
            "censored",
        ]);
        for k in config.k_sweep() {
            let queries = default_queries(&graph, k, config);
            if queries.is_empty() {
                continue;
            }
            let mut actual = Vec::new();
            let mut full = Vec::new();
            let mut preliminary = Vec::new();
            let mut full_pairs = Vec::new();
            let mut prelim_pairs = Vec::new();
            let mut censored = 0usize;
            for &q in &queries {
                let q = Query::new(q.s, q.t, k).expect("validated endpoints");
                let m = run_query(Algorithm::IdxDfs, &graph, q, config.measure());
                if m.timed_out() {
                    censored += 1;
                    continue;
                }
                let index = Index::build(&graph, q);
                let full_estimate = FullEstimate::compute(&index).total_walks();
                let prelim_estimate = preliminary_estimate(&index);
                actual.push(m.results as f64);
                full.push(full_estimate as f64);
                preliminary.push(prelim_estimate as f64);
                full_pairs.push((full_estimate, m.results));
                prelim_pairs.push((prelim_estimate, m.results));
            }
            let q_err = |pairs: &[(u64, u64)]| {
                summarize_q_errors(pairs)
                    .map(|s| format!("{:.2}", s.geometric_mean))
                    .unwrap_or_else(|| "-".to_string())
            };
            table.row([
                k.to_string(),
                sci(geometric_mean(&actual, 1.0)),
                sci(geometric_mean(&full, 1.0)),
                sci(geometric_mean(&preliminary, 1.0)),
                q_err(&full_pairs),
                q_err(&prelim_pairs),
                format!("{censored}/{}", queries.len()),
            ]);
        }
        println!("--- {name} ---");
        table.print();
        println!();
    }
    println!("paper's qualitative claim: the full-fledged estimate tracks #results closely");
    println!("(exact when walks == paths) and the gap widens with k; preliminary is coarser");
}
