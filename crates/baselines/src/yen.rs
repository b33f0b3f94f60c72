//! Top-K shortest path adaptation (Yen's algorithm) for HcPE.
//!
//! Section 2.3 of the paper: a `q(s, t, k)` query can be answered by a
//! top-K loopless-shortest-path algorithm — keep requesting the next
//! shortest simple path and stop once its length exceeds `k`. The paths
//! arrive in ascending length order, which HcPE does not need; paying for
//! that order (a candidate heap and one constrained shortest-path search
//! per emitted path per deviation point) is exactly the overhead that
//! makes the KSP family (KRE, KPJ) orders of magnitude slower. This
//! implementation exists as that reference point.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::hashing::FxHashSet;
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{query_is_runnable, run_report};

/// Runs the Yen-based HcPE evaluation, streaming results into `sink`.
///
/// Results are emitted in ascending length order (ties broken by vertex
/// sequence); enumeration stops as soon as the next shortest simple path
/// is longer than `k` or the path space is exhausted.
pub fn yen_ksp(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> RunReport {
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let mut counters = Counters::default();
    let enum_start = Instant::now();
    run(graph, query, sink, &mut counters);
    run_report(Duration::ZERO, enum_start.elapsed(), counters)
}

/// Candidate path ordered by (length, lexicographic sequence) so the heap
/// pops a deterministic ascending stream.
#[derive(PartialEq, Eq)]
struct Candidate(Vec<VertexId>);

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.cmp(&other.0))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn run(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink, counters: &mut Counters) {
    let k = query.k;
    // A_0: the shortest path, by plain BFS.
    let Some(first) = shortest_path_avoiding(graph, query, &[], None, counters) else {
        return;
    };
    if first.len() as u32 - 1 > k {
        return;
    }
    let mut emitted: Vec<Vec<VertexId>> = Vec::new();
    let mut candidates: BinaryHeap<Reverse<Candidate>> = BinaryHeap::new();
    let mut seen: FxHashSet<Vec<VertexId>> = FxHashSet::default();
    seen.insert(first.clone());
    candidates.push(Reverse(Candidate(first)));

    while let Some(Reverse(Candidate(path))) = candidates.pop() {
        if path.len() as u32 - 1 > k {
            return; // ascending order: everything later is longer too
        }
        counters.results += 1;
        if sink.emit(&path) == SearchControl::Stop {
            return;
        }
        emitted.push(path.clone());

        // Yen's deviation step: for each prefix of the just-emitted path,
        // find the shortest deviation that shares the prefix but leaves
        // its last vertex by an unused edge.
        for spur_idx in 0..path.len() - 1 {
            let root = &path[..=spur_idx];
            // Edges to ban: the next edge of every previously accepted
            // path sharing this root.
            let mut banned_edges: Vec<(VertexId, VertexId)> = Vec::new();
            for prev in emitted.iter().chain(std::iter::once(&path)) {
                if prev.len() > spur_idx + 1 && prev[..=spur_idx] == *root {
                    banned_edges.push((prev[spur_idx], prev[spur_idx + 1]));
                }
            }
            let remaining_budget = k - spur_idx as u32;
            let Some(spur) = shortest_path_avoiding_with_budget(
                graph,
                Query {
                    s: path[spur_idx],
                    t: query.t,
                    k: query.k,
                },
                &path[..spur_idx], // root vertices are off limits (loopless)
                Some(&banned_edges),
                remaining_budget,
                counters,
            ) else {
                continue;
            };
            let mut full = root[..spur_idx].to_vec();
            full.extend_from_slice(&spur);
            if full.len() as u32 - 1 <= k && seen.insert(full.clone()) {
                counters.partial_results += 1;
                candidates.push(Reverse(Candidate(full)));
            }
        }
    }
}

/// Shortest s-t path by BFS, avoiding a vertex set and optionally a set
/// of banned directed edges.
fn shortest_path_avoiding(
    graph: &CsrGraph,
    query: Query,
    avoid: &[VertexId],
    banned_edges: Option<&[(VertexId, VertexId)]>,
    counters: &mut Counters,
) -> Option<Vec<VertexId>> {
    shortest_path_avoiding_with_budget(graph, query, avoid, banned_edges, query.k, counters)
}

fn shortest_path_avoiding_with_budget(
    graph: &CsrGraph,
    query: Query,
    avoid: &[VertexId],
    banned_edges: Option<&[(VertexId, VertexId)]>,
    budget: u32,
    counters: &mut Counters,
) -> Option<Vec<VertexId>> {
    let n = graph.num_vertices();
    let mut parent: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut depth: Vec<u32> = vec![u32::MAX; n];
    let mut avoid_set = vec![false; n];
    for &v in avoid {
        avoid_set[v as usize] = true;
    }
    if avoid_set[query.s as usize] {
        return None;
    }
    let mut queue = VecDeque::new();
    depth[query.s as usize] = 0;
    queue.push_back(query.s);
    while let Some(v) = queue.pop_front() {
        if v == query.t {
            break;
        }
        if depth[v as usize] >= budget {
            continue;
        }
        for &next in graph.out_neighbors(v) {
            counters.edges_accessed += 1;
            if avoid_set[next as usize] || depth[next as usize] != u32::MAX {
                continue;
            }
            // Interior vertices may not revisit s (walks from s to t).
            if next == query.s {
                continue;
            }
            if let Some(banned) = banned_edges {
                if banned.contains(&(v, next)) {
                    continue;
                }
            }
            depth[next as usize] = depth[v as usize] + 1;
            parent[next as usize] = v;
            queue.push_back(next);
        }
    }
    if depth[query.t as usize] == u32::MAX {
        return None;
    }
    let mut path = vec![query.t];
    let mut cursor = query.t;
    while cursor != query.s {
        cursor = parent[cursor as usize];
        path.push(cursor);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum::request::ControlledSink;
    use pathenum::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};

    fn check(g: &CsrGraph, q: Query) {
        let mut got = CollectingSink::default();
        yen_ksp(g, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(g, q, &mut expected);
        assert_eq!(got.sorted_paths(), expected.sorted_paths(), "query {q:?}");
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..6u64 {
            let g = erdos_renyi(18, 70, seed);
            for k in 2..=5u32 {
                check(&g, Query::new(0, 1, k).unwrap());
            }
        }
    }

    #[test]
    fn exact_on_dense_graphs() {
        let g = complete_digraph(6);
        for k in 2..=4u32 {
            check(&g, Query::new(0, 5, k).unwrap());
        }
    }

    #[test]
    fn emits_in_ascending_length_order() {
        let g = complete_digraph(7);
        let q = Query::new(0, 6, 4).unwrap();
        let mut sink = CollectingSink::default();
        yen_ksp(&g, q, &mut sink);
        let lengths: Vec<usize> = sink.paths.iter().map(Vec::len).collect();
        assert!(
            lengths.windows(2).all(|w| w[0] <= w[1]),
            "not ascending: {lengths:?}"
        );
    }

    #[test]
    fn early_stop_works() {
        let g = complete_digraph(7);
        let q = Query::new(0, 6, 4).unwrap();
        let mut sink = ControlledSink::new(CountingSink::default(), Some(3), None, None);
        yen_ksp(&g, q, &mut sink);
        assert_eq!(sink.emitted(), 3);
    }

    #[test]
    fn no_path_within_k_is_empty() {
        let mut b = pathenum_graph::GraphBuilder::new(5);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let g = b.finish();
        let mut sink = CollectingSink::default();
        yen_ksp(&g, Query::new(0, 4, 3).unwrap(), &mut sink);
        assert!(sink.paths.is_empty());
    }
}
