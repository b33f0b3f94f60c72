//! Quickstart: enumerate hop-constrained s-t paths on a small graph
//! through the `QueryRequest` service API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pathenum_repro::prelude::*;

fn main() {
    // The running example of the paper (Figure 1a): s = 0, t = 1,
    // v0..v7 = 2..9.
    let mut builder = GraphBuilder::new(10);
    let (s, t) = (0u32, 1u32);
    let v = |i: u32| i + 2;
    builder
        .add_edges([
            (s, v(0)),
            (s, v(1)),
            (s, v(3)),
            (v(0), v(1)),
            (v(0), v(6)),
            (v(0), t),
            (v(1), v(2)),
            (v(1), v(3)),
            (v(2), v(0)),
            (v(2), t),
            (v(3), v(4)),
            (v(4), v(5)),
            (v(5), v(2)),
            (v(5), t),
            (v(6), v(0)),
            (v(7), s),
        ])
        .expect("static edge list is valid");
    let graph = builder.finish();

    // q(s, t, 4): all simple paths from s to t with at most 4 edges,
    // phrased as a service request.
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let request = QueryRequest::paths(s, t).max_hops(4).collect_paths(true);
    let response = engine
        .execute(&request)
        .expect("endpoints are in the graph");
    let report = &response.report;
    // What the engine decided (method, estimates, index shape) is the
    // plan; the report holds what the run measured.
    let plan = response.plan.expect("an executed request carries its plan");

    println!("request: paths({s}, {t}).max_hops(4)");
    println!(
        "method selected: {}; termination: {:?}",
        plan.method, response.termination
    );
    if let Some(preliminary) = plan.preliminary_estimate {
        println!(
            "index: {} edges, {} bytes; preliminary estimate: {preliminary} partial results",
            plan.index_edges, plan.index_bytes
        );
    }
    println!("found {} paths:", response.paths.len());
    let mut paths = response.paths;
    paths.sort_unstable();
    for path in paths {
        let pretty: Vec<String> = path
            .iter()
            .map(|&u| match u {
                0 => "s".to_string(),
                1 => "t".to_string(),
                other => format!("v{}", other - 2),
            })
            .collect();
        println!("  {}", pretty.join(" -> "));
    }
    println!(
        "timing: index {:?}, enumeration {:?}",
        report.timings.index_build, report.timings.enumeration
    );
}
