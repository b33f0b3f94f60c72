//! Reference implementations used for validation.
//!
//! These are deliberately simple, index-free algorithms that the test
//! suite trusts as ground truth: a brute-force path enumerator (plain
//! backtracking with only the hop budget as pruning) and an exact dynamic
//! program counting the hop-constrained *walks* `W(s, t, k, G)` of
//! Definition 2.1 — the quantity the full-fledged estimator computes and
//! the denominator of the paper's `delta_P / delta_W` analysis.

use pathenum_graph::{CsrGraph, VertexId};

use crate::query::Query;
use crate::sink::{PathSink, SearchControl};

/// Brute-force enumeration of `P(s, t, k, G)` by backtracking on the raw
/// graph. No index, no distance pruning — only the hop budget and the
/// simple-path check. Used as ground truth in tests; exponential in the
/// worst case.
pub fn brute_force_paths(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) {
    let mut path: Vec<VertexId> = vec![query.s];
    brute(graph, query, &mut path, sink);
}

fn brute(
    graph: &CsrGraph,
    query: Query,
    path: &mut Vec<VertexId>,
    sink: &mut dyn PathSink,
) -> SearchControl {
    let v = *path.last().expect("the path contains s");
    if v == query.t {
        return sink.emit(path);
    }
    if path.len() as u32 - 1 == query.k {
        return SearchControl::Continue;
    }
    for &n in graph.out_neighbors(v) {
        if n == query.s || path.contains(&n) {
            continue;
        }
        path.push(n);
        let control = brute(graph, query, path, sink);
        path.pop();
        if control == SearchControl::Stop {
            return SearchControl::Stop;
        }
    }
    SearchControl::Continue
}

/// Exact count of the walks `W(s, t, k, G)` from `s` to `t` with at most
/// `k` edges whose interior vertices avoid `{s, t}` (Definition 2.1).
///
/// Dynamic program over positions: `f[i][v]` = number of such walks of
/// length `i` from `s` ending at `v`. Saturating arithmetic — counts can
/// explode combinatorially.
pub fn count_walks(graph: &CsrGraph, query: Query) -> u64 {
    let n = graph.num_vertices();
    let mut current = vec![0u64; n];
    let mut next = vec![0u64; n];
    current[query.s as usize] = 1;
    let mut total: u64 = 0;
    for _ in 1..=query.k {
        next.iter_mut().for_each(|x| *x = 0);
        for v in graph.vertices() {
            let ways = current[v as usize];
            if ways == 0 || v == query.t {
                continue; // walks stop at t
            }
            for &w in graph.out_neighbors(v) {
                if w == query.s {
                    continue; // interior vertices avoid s
                }
                next[w as usize] = next[w as usize].saturating_add(ways);
            }
        }
        total = total.saturating_add(next[query.t as usize]);
        std::mem::swap(&mut current, &mut next);
    }
    total
}

/// Exact count of `P(s, t, k, G)` via [`brute_force_paths`].
pub fn count_paths(graph: &CsrGraph, query: Query) -> u64 {
    let mut sink = crate::sink::CountingSink::default();
    brute_force_paths(graph, query, &mut sink);
    sink.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::sink::CollectingSink;
    use pathenum_graph::GraphBuilder;

    #[test]
    fn brute_force_finds_the_figure1_paths() {
        let g = figure1_graph();
        let mut sink = CollectingSink::default();
        brute_force_paths(&g, Query::new(S, T, 4).unwrap(), &mut sink);
        assert_eq!(sink.paths.len(), 5);
    }

    #[test]
    fn example_5_2_walk_counts() {
        // Graph G0 of Figure 5a: two parallel binary-tree-ish lanes where
        // every walk is a path: s -> {v0, v1} -> {v2, v3} -> {v4, v5} -> t
        // with full bipartite steps gives 8 walks = 8 paths.
        let mut b = GraphBuilder::new(8);
        let (s, t) = (0u32, 7u32);
        let (v0, v1, v2, v3, v4, v5) = (1, 2, 3, 4, 5, 6);
        b.add_edges([
            (s, v0),
            (s, v1),
            (v0, v2),
            (v0, v3),
            (v1, v2),
            (v1, v3),
            (v2, v4),
            (v2, v5),
            (v3, v4),
            (v3, v5),
            (v4, t),
            (v5, t),
        ])
        .unwrap();
        let g = b.finish();
        let q = Query::new(s, t, 4).unwrap();
        assert_eq!(count_walks(&g, q), 8);
        assert_eq!(count_paths(&g, q), 8);
    }

    #[test]
    fn walks_exceed_paths_on_cyclic_graphs() {
        // G1-style example: a 2-cycle next to s inflates walks, not paths.
        let mut b = GraphBuilder::new(4);
        let (s, a, bb, t) = (0u32, 1u32, 2u32, 3u32);
        b.add_edges([(s, a), (a, bb), (bb, a), (a, t)]).unwrap();
        let g = b.finish();
        let q = Query::new(s, t, 4).unwrap();
        // Paths: (s,a,t). Walks: (s,a,t), (s,a,b,a,t).
        assert_eq!(count_paths(&g, q), 1);
        assert_eq!(count_walks(&g, q), 2);
    }

    #[test]
    fn walks_do_not_pass_through_t_midway() {
        // s -> t -> x -> t would be a walk only if interior could contain t.
        let mut b = GraphBuilder::new(3);
        let (s, t, x) = (0u32, 1u32, 2u32);
        b.add_edges([(s, t), (t, x), (x, t)]).unwrap();
        let g = b.finish();
        let q = Query::new(s, t, 4).unwrap();
        assert_eq!(count_walks(&g, q), 1);
        assert_eq!(count_paths(&g, q), 1);
    }

    #[test]
    fn walks_do_not_reenter_s() {
        // s -> a -> s -> a -> t style walks are excluded.
        let mut b = GraphBuilder::new(3);
        let (s, a, t) = (0u32, 1u32, 2u32);
        b.add_edges([(s, a), (a, s), (a, t)]).unwrap();
        let g = b.finish();
        let q = Query::new(s, t, 5).unwrap();
        assert_eq!(count_walks(&g, q), 1);
    }

    #[test]
    fn hop_budget_is_respected() {
        let g = figure1_graph();
        let mut sink = CollectingSink::default();
        brute_force_paths(&g, Query::new(S, T, 3).unwrap(), &mut sink);
        for p in &sink.paths {
            assert!(p.len() <= 4);
        }
        // k=3 drops the three 4-edge paths.
        assert_eq!(sink.paths.len(), 2);
    }
}
