//! Shared pieces of the baseline algorithms.

use std::time::Duration;

use pathenum::query::Query;
use pathenum::stats::{Counters, PhaseTimings};
use pathenum::RunReport;
use pathenum_graph::bfs::{distances, BfsOptions, Direction};
use pathenum_graph::types::Distance;
use pathenum_graph::CsrGraph;

/// A baseline run's [`RunReport`]: its preprocessing is the distance
/// BFS `bfs` (zero for the searches without one), which `PhaseTimings`
/// counts under both `bfs` and `index_build`, since the build includes
/// its BFS. A baseline never caches, so `cache` keeps its default.
pub(crate) fn run_report(bfs: Duration, enumeration: Duration, counters: Counters) -> RunReport {
    RunReport {
        timings: PhaseTimings {
            bfs,
            index_build: bfs,
            enumeration,
            ..PhaseTimings::default()
        },
        counters,
        ..RunReport::default()
    }
}

/// `S(v, t | G)` for every vertex, bounded by `k` (unreachable-within-`k`
/// vertices read infinite). The unconstrained distance is a lower bound on
/// any residual distance the searches need, so pruning with it is sound.
pub fn base_distances_to_t(graph: &CsrGraph, t: u32, k: u32) -> Vec<Distance> {
    distances(
        graph,
        t,
        BfsOptions {
            direction: Direction::Backward,
            excluded: None,
            max_depth: Some(k),
        },
    )
}

/// Shared admission check used by the DFS baselines: can `next` extend a
/// partial result of `len_edges` edges and still reach `t` within `k`?
#[inline]
pub fn within_budget(dist_to_t: Distance, len_edges: u32, k: u32) -> bool {
    // L(M) + 1 + B(v') <= k  with saturating distance arithmetic.
    dist_to_t != pathenum_graph::INFINITE_DISTANCE && len_edges + 1 + dist_to_t <= k
}

/// Validates query endpoints and short-circuits trivial cases; returns
/// `false` when the caller should return an empty result immediately.
pub fn query_is_runnable(graph: &CsrGraph, query: Query) -> bool {
    query.validate(graph.num_vertices()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum_graph::GraphBuilder;

    #[test]
    fn base_distances_bounded() {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let g = b.finish();
        let d = base_distances_to_t(&g, 4, 2);
        assert_eq!(d[4], 0);
        assert_eq!(d[3], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[1], pathenum_graph::INFINITE_DISTANCE);
    }

    #[test]
    fn budget_check_matches_formula() {
        assert!(within_budget(1, 2, 4)); // 2 + 1 + 1 = 4 <= 4
        assert!(!within_budget(2, 2, 4)); // 2 + 1 + 2 = 5 > 4
        assert!(!within_budget(pathenum_graph::INFINITE_DISTANCE, 0, 4));
    }
}
