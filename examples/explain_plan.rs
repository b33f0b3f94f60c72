//! `EXPLAIN` for hop-constrained path queries.
//!
//! The engine's planner/executor split makes every query's strategy a
//! first-class [`PhysicalPlan`] value: which method the cost model picks
//! (IDX-DFS vs IDX-JOIN), at which cut the bushy join would meet, what
//! the estimators predicted, and how big the per-query index is — all
//! *without enumerating a single path*. This example explains a few
//! queries at different hop constraints, shows the rendered plan, then
//! executes them to demonstrate (a) the execution matches the
//! explanation and (b) explaining warmed the plan cache.
//!
//! ```text
//! cargo run --release --example explain_plan
//! ```

use pathenum_repro::prelude::*;
use pathenum_repro::workloads::datasets;

fn main() {
    let graph = datasets::build("ep").expect("registered dataset");
    println!(
        "graph: {} vertices, {} edges (version {})\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.version()
    );

    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let s = 0u32;
    let t = (graph.num_vertices() as u32) / 2;

    for k in [3u32, 4, 5, 6] {
        // tau(0) forces the full estimator so the EXPLAIN always shows
        // the modeled T_DFS / T_JOIN costs.
        let request = QueryRequest::paths(s, t).max_hops(k).tau(0);
        match engine.explain(&request) {
            Ok(plan) => {
                println!("{plan}\n");
                // The execution interprets exactly the explained plan;
                // it also hits the cache the explanation just warmed.
                let response = engine
                    .execute(&request.limit(10_000))
                    .expect("explained request is valid");
                let ran = response.plan.expect("an executed request carries its plan");
                assert_eq!(ran.method, plan.method);
                assert_eq!(ran.cut, plan.cut);
                println!(
                    "  -> executed via {}: {} results, cache {}, enumeration {:?}\n",
                    ran.method,
                    response.num_results(),
                    response.report.cache,
                    response.report.timings.enumeration,
                );
            }
            Err(e) => println!("q({s}, {t}, {k}) is invalid: {e}\n"),
        }
    }

    let stats = engine.cache_stats();
    println!(
        "plan cache after the session: {} entries, {} hits / {} lookups",
        engine.plan_cache().len(),
        stats.hits,
        stats.hits + stats.misses,
    );
}
