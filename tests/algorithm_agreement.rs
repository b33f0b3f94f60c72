//! Cross-crate agreement tests: every algorithm in the workspace must
//! produce exactly the same path set as the brute-force reference on
//! arbitrary directed graphs.

use proptest::prelude::*;

use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::prelude::*;
use pathenum_repro::workloads::Algorithm;

/// Builds a graph from a raw edge list, ignoring self-loops.
fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (4u32..16).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..80);
        (Just(n), edges)
    })
}

fn reference_paths(g: &CsrGraph, q: Query) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    brute_force_paths(g, q, &mut sink);
    sink.sorted_paths()
}

/// Runs `request` through a fresh engine configured with `config`,
/// returning its paths in emission order.
fn engine_paths(
    g: &CsrGraph,
    config: PathEnumConfig,
    request: &QueryRequest<'_>,
) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    QueryEngine::new(g, config)
        .execute_into(request, &mut sink)
        .expect("valid");
    sink.paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree_with_bruteforce(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("0 != 1, valid k");
        let expected = reference_paths(&g, q);
        for algo in Algorithm::all() {
            let mut sink = CollectingSink::default();
            algo.run(&g, q, &mut sink);
            prop_assert_eq!(
                sink.sorted_paths(),
                expected.clone(),
                "algorithm {} disagrees on n={} k={} edges={:?}",
                algo, n, k, edges
            );
        }
    }

    #[test]
    fn pathenum_with_forced_optimizer_agrees(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        // tau = 0 forces the full-fledged estimator + join-order decision
        // on every query, exercising the IDX-JOIN path aggressively.
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let expected = reference_paths(&g, q);
        let mut paths = engine_paths(&g, PathEnumConfig { tau: 0 }, &QueryRequest::from_query(q));
        paths.sort_unstable();
        prop_assert_eq!(paths, expected);
    }

    #[test]
    fn emitted_paths_are_simple_and_bounded(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        for path in &engine_paths(&g, PathEnumConfig::default(), &QueryRequest::from_query(q)) {
            prop_assert!(path.len() as u32 - 1 <= k);
            prop_assert_eq!(path[0], 0);
            prop_assert_eq!(*path.last().unwrap(), 1);
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len(), "duplicate vertex in {:?}", path);
            for w in path.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]), "missing edge {:?}", w);
            }
        }
    }
}

#[test]
fn agreement_on_the_dataset_proxies() {
    // Heavier deterministic spot-check on realistic degree distributions.
    use pathenum_repro::workloads::{datasets, generate_queries, QueryGenConfig};
    let g = datasets::build("tw").expect("registered");
    let queries = generate_queries(&g, QueryGenConfig::paper_default(3, 4, 5));
    for q in queries {
        let mut reference: Option<Vec<Vec<VertexId>>> = None;
        for algo in [
            Algorithm::BcDfs,
            Algorithm::BcJoin,
            Algorithm::IdxDfs,
            Algorithm::IdxJoin,
        ] {
            let mut sink = CollectingSink::default();
            algo.run(&g, q, &mut sink);
            let paths = sink.sorted_paths();
            match &reference {
                None => reference = Some(paths),
                Some(r) => assert_eq!(&paths, r, "{algo} disagrees on {q:?}"),
            }
        }
    }
}
