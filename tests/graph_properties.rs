//! Property tests for the graph substrate: CSR adjacency against a
//! naive edge-set model, BFS against a reference matrix relaxation, and
//! the PLL distance oracle against BFS.

use proptest::prelude::*;

use pathenum_repro::graph::bfs::{distances, BfsOptions, Direction};
use pathenum_repro::graph::pll::DistanceOracle;
use pathenum_repro::graph::types::INFINITE_DISTANCE;
use pathenum_repro::prelude::*;

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
    (2u32..20).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..100);
        (Just(n), edges)
    })
}

/// Floyd–Warshall on the raw edge set: the trusted distance reference.
fn floyd_warshall(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let inf = INFINITE_DISTANCE;
    let mut d = vec![vec![inf; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for &(u, v) in edges {
        if u != v {
            d[u as usize][v as usize] = 1;
        }
    }
    for m in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][m].saturating_add(d[m][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_adjacency_matches_edge_set((n, edges) in arb_graph()) {
        let g = graph_from_edges(n, &edges);
        let set: std::collections::HashSet<(u32, u32)> =
            edges.iter().copied().filter(|&(u, v)| u != v).collect();
        prop_assert_eq!(g.num_edges(), set.len());
        for u in g.vertices() {
            for &v in g.out_neighbors(u) {
                prop_assert!(set.contains(&(u, v)));
                prop_assert!(g.in_neighbors(v).contains(&u));
            }
        }
        for &(u, v) in &set {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn bfs_matches_floyd_warshall((n, edges) in arb_graph(), source in 0u32..20) {
        prop_assume!(source < n);
        let g = graph_from_edges(n, &edges);
        let reference = floyd_warshall(n as usize, &edges);
        let forward = distances(&g, source, BfsOptions::default());
        let backward = distances(
            &g,
            source,
            BfsOptions { direction: Direction::Backward, ..BfsOptions::default() },
        );
        for v in 0..n as usize {
            prop_assert_eq!(forward[v], reference[source as usize][v], "forward to {}", v);
            prop_assert_eq!(backward[v], reference[v][source as usize], "backward from {}", v);
        }
    }

    #[test]
    fn bfs_exclusion_never_shortens((n, edges) in arb_graph(), source in 0u32..20, excluded in 0u32..20) {
        prop_assume!(source < n && excluded < n && source != excluded);
        let g = graph_from_edges(n, &edges);
        let plain = distances(&g, source, BfsOptions::default());
        let constrained = distances(
            &g,
            source,
            BfsOptions { excluded: Some(excluded), ..BfsOptions::default() },
        );
        for v in 0..n as usize {
            prop_assert!(constrained[v] >= plain[v], "vertex {}", v);
        }
        prop_assert_eq!(constrained[excluded as usize], INFINITE_DISTANCE);
    }

    #[test]
    fn pll_oracle_matches_floyd_warshall((n, edges) in arb_graph()) {
        let g = graph_from_edges(n, &edges);
        let oracle = DistanceOracle::build(&g);
        let reference = floyd_warshall(n as usize, &edges);
        for s in 0..n {
            for t in 0..n {
                prop_assert_eq!(
                    oracle.distance(s, t),
                    reference[s as usize][t as usize],
                    "d({} -> {})", s, t
                );
                // The existence filter in front of a query: d(s, t) <= k.
                for k in 2..=4 {
                    prop_assert_eq!(
                        oracle.within(s, t, k),
                        reference[s as usize][t as usize] <= k,
                        "within({} -> {}, {})", s, t, k
                    );
                }
            }
        }
    }

    #[test]
    fn reversed_graph_swaps_distances((n, edges) in arb_graph(), s in 0u32..20, t in 0u32..20) {
        prop_assume!(s < n && t < n);
        let g = graph_from_edges(n, &edges);
        let r = g.reversed();
        let forward = distances(&g, s, BfsOptions::default());
        let reverse = distances(&r, t, BfsOptions::default());
        let forward_from_t_in_r = distances(&r, s, BfsOptions::default());
        // d_G(s, t) == d_{G^r}(t, s).
        prop_assert_eq!(forward[t as usize], reverse[s as usize]);
        // And the reverse of the reverse is the original.
        let rr = r.reversed();
        prop_assert_eq!(
            distances(&rr, s, BfsOptions::default())[t as usize],
            forward[t as usize]
        );
        let _ = forward_from_t_in_r;
    }
}

#[test]
fn pll_scales_to_dataset_proxies() {
    // The oracle must stay compact on a realistic heavy-tailed proxy.
    let g = pathenum_repro::workloads::datasets::build("tw").expect("registered");
    let oracle = DistanceOracle::build(&g);
    assert!(
        oracle.average_label_size() < 64.0,
        "labels ballooned: {}",
        oracle.average_label_size()
    );
    // Spot-check a few pairs against BFS.
    for s in [0u32, 7, 99] {
        let reference = distances(&g, s, BfsOptions::default());
        for t in [1u32, 13, 500] {
            assert_eq!(oracle.distance(s, t), reference[t as usize]);
        }
    }
}
