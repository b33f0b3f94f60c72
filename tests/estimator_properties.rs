//! Property tests for the cardinality estimators: the full-fledged DP is
//! an *exact* walk counter (Section 6.4), prefix and suffix passes agree,
//! and the modeled plan costs are internally consistent.

use proptest::prelude::*;

use pathenum_repro::core::estimator::{preliminary_estimate, FullEstimate};
use pathenum_repro::core::reference::{count_paths, count_walks};
use pathenum_repro::core::{optimize_join_order, Index};
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
    (4u32..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn full_estimate_counts_walks_exactly(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let est = FullEstimate::compute(&Index::build(&g, q));
        prop_assert_eq!(est.total_walks(), count_walks(&g, q));
    }

    #[test]
    fn prefix_and_suffix_sums_agree_at_the_ends(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let est = FullEstimate::compute(&Index::build(&g, q));
        prop_assert_eq!(est.prefix_sum(k), est.suffix_sum(0));
        // Prefix sizes grow monotonically up to padding effects at the
        // start: |Q[0:0]| is 1 exactly when the index is non-empty.
        prop_assert!(est.prefix_sum(0) <= 1);
    }

    #[test]
    fn walk_count_upper_bounds_path_count(
        (n, edges) in arb_graph(),
        k in 2u32..6,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let est = FullEstimate::compute(&Index::build(&g, q));
        prop_assert!(est.total_walks() >= count_paths(&g, q));
    }

    #[test]
    fn plan_costs_are_consistent(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let est = FullEstimate::compute(&index);
        if let Some(plan) = optimize_join_order(&index, &est) {
            prop_assert!(plan.cut >= 1 && plan.cut < k);
            prop_assert!(plan.t_join >= est.total_walks());
            // The chosen cut minimizes |Q[0:i]| + |Q[i:k]| over 0 < i < k.
            let chosen = est.prefix_sum(plan.cut) + est.suffix_sum(plan.cut);
            for i in 1..k {
                prop_assert!(
                    chosen <= est.prefix_sum(i) + est.suffix_sum(i),
                    "cut {} not minimal vs {}", plan.cut, i
                );
            }
        } else {
            prop_assert!(index.is_empty());
        }
    }

    #[test]
    fn preliminary_is_zero_iff_index_empty(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let est = preliminary_estimate(&index);
        if index.is_empty() {
            prop_assert_eq!(est, 0);
        } else {
            // A non-empty index means s reaches t within k, so the
            // relaxed search tree contains at least the shortest walk.
            prop_assert!(est >= 1);
        }
    }
}
