//! Figure 9: spectrum analysis of join plans.
//!
//! For one representative k=6 query per graph, every left-deep plan
//! (all `2^(k-1)` anchored extension orders) and every bushy plan (all
//! interior cut positions) is executed on the index; their enumeration
//! times are the "blue points" of the figure, compared against the plans
//! PathEnum's optimizer picks and the optimization time itself.

use std::time::Instant;

use pathenum::estimator::FullEstimate;
use pathenum::spectrum::{all_left_deep_plans, execute_left_deep};
use pathenum::{enumerate, optimize_join_order, Counters, CountingSink, Index, Method};

use crate::config::ExperimentConfig;
use crate::experiments::support::{default_queries, representative_graphs};
use crate::output::{banner, sci_ms, Table};

/// Runs the experiment and prints the summary per graph.
pub fn run(config: &ExperimentConfig) {
    banner("Figure 9: spectrum analysis of join plans (one k=6 query per graph)");
    let k = config.default_k.max(4);
    for (name, graph) in representative_graphs() {
        // Pick the first admissible query of the default set.
        let Some(&query) = default_queries(&graph, k, config).first() else {
            println!("--- {name}: no admissible query ---");
            continue;
        };
        let index = Index::build(&graph, query);

        // Left-deep spectrum. The index holds I_t only; the plans' left
        // extensions read I_s, derived here once and outside the timings
        // (the paper's index carries both tables from construction).
        let backward = index.backward_table();
        let mut left_deep_times = Vec::new();
        for plan in all_left_deep_plans(k) {
            let mut sink = CountingSink::default();
            let mut counters = Counters::default();
            let start = Instant::now();
            execute_left_deep(&index, &backward, &plan, &mut sink, &mut counters);
            left_deep_times.push(start.elapsed());
        }

        // Bushy spectrum: every interior cut.
        let mut bushy_times = Vec::new();
        for cut in 1..k {
            let mut sink = CountingSink::default();
            let mut counters = Counters::default();
            let start = Instant::now();
            enumerate::idx_join(&index, cut, &mut sink, &mut counters);
            bushy_times.push(start.elapsed());
        }

        // The optimizer's pick.
        let opt_start = Instant::now();
        let estimate = FullEstimate::compute(&index);
        let plan = optimize_join_order(&index, &estimate);
        let optimization = opt_start.elapsed();

        let dfs_time = {
            let mut sink = CountingSink::default();
            let mut counters = Counters::default();
            let start = Instant::now();
            enumerate::idx_dfs(&index, &mut sink, &mut counters);
            start.elapsed()
        };

        println!("--- {name}: query q({}, {}, {k}) ---", query.s, query.t);
        let mut table = Table::new(["plan family", "min", "median", "max"]);
        for (family, times) in [
            ("left-deep (2^(k-1))", &mut left_deep_times),
            ("bushy (k-1 cuts)", &mut bushy_times),
        ] {
            times.sort_unstable();
            table.row([
                family.to_string(),
                sci_ms(times[0]),
                sci_ms(times[times.len() / 2]),
                sci_ms(*times.last().expect("non-empty family")),
            ]);
        }
        table.print();
        println!("optimization time: {}", sci_ms(optimization));
        println!("IDX-DFS (the default left-deep plan): {}", sci_ms(dfs_time));
        if let Some(plan) = plan {
            println!(
                "optimizer: cut i* = {}, modeled T_DFS = {}, T_JOIN = {} -> picks {}",
                plan.cut,
                plan.t_dfs,
                plan.t_join,
                if plan.t_dfs <= plan.t_join {
                    Method::IdxDfs
                } else {
                    Method::IdxJoin
                }
            );
        }
        println!();
    }
}
