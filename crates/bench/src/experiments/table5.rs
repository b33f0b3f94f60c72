//! Table 5: throughput and response time for short-running versus
//! out-of-time queries (ep with the largest k of the sweep).

use pathenum_workloads::runner::{measure_response_time, run_query, QueryMeasurement};
use pathenum_workloads::{datasets, Algorithm};

use crate::config::ExperimentConfig;
use crate::experiments::support::default_queries;
use crate::output::{banner, sci, Table};

/// Runs the experiment and prints the table.
pub fn run(config: &ExperimentConfig) {
    let k = *config.k_sweep().last().expect("sweep is non-empty");
    banner(&format!(
        "Table 5: short vs out-of-time queries (ep, k = {k})"
    ));
    let graph = datasets::ep();
    let queries = default_queries(&graph, k, config);
    let mut table = Table::new([
        "method",
        "tput <limit",
        "tput >limit",
        "resp ms <limit",
        "resp ms >limit",
    ]);
    for algo in [Algorithm::BcDfs, Algorithm::IdxDfs] {
        let measurements: Vec<(QueryMeasurement, f64)> = queries
            .iter()
            .map(|&q| {
                let m = run_query(algo, &graph, q, config.measure());
                let resp =
                    measure_response_time(algo, &graph, q, config.measure()).as_secs_f64() * 1e3;
                (m, resp)
            })
            .collect();
        let (long, short): (Vec<_>, Vec<_>) =
            measurements.into_iter().partition(|(m, _)| m.timed_out());
        let mean = |items: &[(QueryMeasurement, f64)],
                    f: &dyn Fn(&(QueryMeasurement, f64)) -> f64| {
            if items.is_empty() {
                f64::NAN
            } else {
                items.iter().map(f).sum::<f64>() / items.len() as f64
            }
        };
        table.row([
            algo.name().to_string(),
            sci(mean(&short, &|(m, _)| m.throughput())),
            sci(mean(&long, &|(m, _)| m.throughput())),
            sci(mean(&short, &|(_, r)| *r)),
            sci(mean(&long, &|(_, r)| *r)),
        ]);
    }
    println!("(NaN = no query fell into that bucket at this scale)\n");
    table.print();
}
