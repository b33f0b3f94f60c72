//! BC-JOIN: the join-oriented baseline (Peng et al.; Appendix D).
//!
//! Splits every long result at the middle position `m = ceil(k / 2)`:
//! first enumerate the simple-path prefixes of exactly `m` edges from `s`
//! (pruned by the static distance bound), then the simple-path suffixes of
//! at most `k - m` edges from each observed middle vertex to `t`, and
//! finally join on the middle vertex, keeping vertex-disjoint pairs.
//! Results shorter than `m` edges have no middle vertex and are
//! enumerated directly by a bounded DFS.

use std::time::Instant;

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::hashing::FxHashMap;
use pathenum_graph::types::Distance;
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{base_distances_to_t, query_is_runnable, run_report};

/// Runs BC-JOIN on `query`, streaming results into `sink`.
pub fn bc_join(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> RunReport {
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let prep_start = Instant::now();
    let dist_t = base_distances_to_t(graph, query.t, query.k);
    let bfs = prep_start.elapsed();

    let mut counters = Counters::default();
    let enum_start = Instant::now();
    run_join(graph, query, &dist_t, sink, &mut counters);
    run_report(bfs, enum_start.elapsed(), counters)
}

fn run_join(
    graph: &CsrGraph,
    query: Query,
    dist_t: &[Distance],
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let k = query.k;
    let m = k.div_ceil(2);

    // Short results: fewer than m edges, enumerated directly.
    let mut short = ShortDfs {
        graph,
        query,
        dist_t,
        limit: m - 1,
        sink,
        counters,
    };
    let mut partial = vec![query.s];
    if short.search(&mut partial) == SearchControl::Stop {
        return SearchControl::Stop;
    }

    // Long results: prefixes of exactly m edges (simple, not touching t
    // before the end) ...
    let mut prefixes: Vec<Vec<VertexId>> = Vec::new();
    collect_prefixes(
        graph,
        query,
        dist_t,
        m,
        &mut vec![query.s],
        &mut prefixes,
        counters,
    );

    // ... suffixes of 1..=(k - m) edges from each observed middle vertex.
    let mut middles: Vec<VertexId> = prefixes.iter().map(|p| *p.last().unwrap()).collect();
    middles.sort_unstable();
    middles.dedup();
    let mut suffixes: FxHashMap<VertexId, Vec<Vec<VertexId>>> = FxHashMap::default();
    for &mid in &middles {
        let mut list = Vec::new();
        collect_suffixes(
            graph,
            query,
            dist_t,
            k - m,
            &mut vec![mid],
            &mut list,
            counters,
        );
        if !list.is_empty() {
            suffixes.insert(mid, list);
        }
    }

    let materialized: u64 = prefixes.iter().map(|p| p.len() as u64).sum::<u64>()
        + suffixes
            .values()
            .flatten()
            .map(|sfx| sfx.len() as u64)
            .sum::<u64>();
    counters.peak_materialized_vertices = counters.peak_materialized_vertices.max(materialized);

    // Join on the middle vertex, keeping vertex-disjoint pairs.
    let mut joined: Vec<VertexId> = Vec::with_capacity(k as usize + 1);
    for prefix in &prefixes {
        let mid = *prefix.last().unwrap();
        let Some(list) = suffixes.get(&mid) else {
            counters.invalid_partial_results += 1;
            continue;
        };
        for suffix in list {
            if suffix[1..].iter().any(|v| prefix.contains(v)) {
                counters.invalid_partial_results += 1;
                continue;
            }
            joined.clear();
            joined.extend_from_slice(prefix);
            joined.extend_from_slice(&suffix[1..]);
            counters.results += 1;
            if sink.emit(&joined) == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
    }
    SearchControl::Continue
}

/// DFS emitting simple s-t paths with at most `limit` edges.
struct ShortDfs<'a> {
    graph: &'a CsrGraph,
    query: Query,
    dist_t: &'a [Distance],
    limit: u32,
    sink: &'a mut dyn PathSink,
    counters: &'a mut Counters,
}

impl ShortDfs<'_> {
    fn search(&mut self, partial: &mut Vec<VertexId>) -> SearchControl {
        let v = *partial.last().expect("partial contains s");
        if v == self.query.t {
            self.counters.results += 1;
            return self.sink.emit(partial);
        }
        let len_edges = partial.len() as u32 - 1;
        if len_edges == self.limit {
            return SearchControl::Continue;
        }
        let neighbors = self.graph.out_neighbors(v);
        self.counters.edges_accessed += neighbors.len() as u64;
        for &next in neighbors {
            if partial.contains(&next) {
                continue;
            }
            if self.dist_t[next as usize] > self.limit - len_edges - 1 {
                continue;
            }
            partial.push(next);
            self.counters.partial_results += 1;
            let control = self.search(partial);
            partial.pop();
            if control == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        SearchControl::Continue
    }
}

/// Collects simple prefixes of exactly `m` edges from `s` that avoid `t`
/// and can still reach `t` within the overall budget.
fn collect_prefixes(
    graph: &CsrGraph,
    query: Query,
    dist_t: &[Distance],
    m: u32,
    partial: &mut Vec<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
    counters: &mut Counters,
) {
    let len_edges = partial.len() as u32 - 1;
    if len_edges == m {
        out.push(partial.clone());
        return;
    }
    let v = *partial.last().expect("partial contains s");
    let neighbors = graph.out_neighbors(v);
    counters.edges_accessed += neighbors.len() as u64;
    for &next in neighbors {
        // t may only appear as the final prefix vertex (a path of exactly
        // m edges, whose "suffix" is the trivial [t]).
        if (next == query.t && len_edges + 1 < m) || partial.contains(&next) {
            continue;
        }
        // next sits at position len_edges + 1; it must reach t within
        // k - (len_edges + 1) hops.
        if dist_t[next as usize] > query.k - len_edges - 1 {
            continue;
        }
        partial.push(next);
        counters.partial_results += 1;
        collect_prefixes(graph, query, dist_t, m, partial, out, counters);
        partial.pop();
    }
}

/// Collects simple suffixes of `1..=budget` edges ending at `t`.
fn collect_suffixes(
    graph: &CsrGraph,
    query: Query,
    dist_t: &[Distance],
    budget: u32,
    partial: &mut Vec<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
    counters: &mut Counters,
) {
    let v = *partial.last().expect("partial contains the middle vertex");
    if v == query.t {
        out.push(partial.clone());
        return;
    }
    let len_edges = partial.len() as u32 - 1;
    if len_edges == budget {
        return;
    }
    let neighbors = graph.out_neighbors(v);
    counters.edges_accessed += neighbors.len() as u64;
    for &next in neighbors {
        if next == query.s || partial.contains(&next) {
            continue;
        }
        if dist_t[next as usize] > budget - len_edges - 1 {
            continue;
        }
        partial.push(next);
        counters.partial_results += 1;
        collect_suffixes(graph, query, dist_t, budget, partial, out, counters);
        partial.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum::request::ControlledSink;
    use pathenum::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};

    fn check(g: &CsrGraph, q: Query) {
        let mut got = CollectingSink::default();
        bc_join(g, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(g, q, &mut expected);
        assert_eq!(got.sorted_paths(), expected.sorted_paths(), "query {q:?}");
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..8u64 {
            let g = erdos_renyi(25, 120, seed);
            for k in 2..=6u32 {
                check(&g, Query::new(0, 1, k).unwrap());
            }
        }
    }

    #[test]
    fn exact_on_dense_graphs() {
        let g = complete_digraph(7);
        for k in 2..=5u32 {
            check(&g, Query::new(0, 6, k).unwrap());
        }
    }

    #[test]
    fn odd_and_even_hop_constraints() {
        let g = erdos_renyi(30, 200, 3);
        check(&g, Query::new(2, 5, 5).unwrap());
        check(&g, Query::new(2, 5, 6).unwrap());
    }

    #[test]
    fn records_materialization() {
        let g = complete_digraph(8);
        let q = Query::new(0, 7, 5).unwrap();
        let mut sink = CollectingSink::default();
        let report = bc_join(&g, q, &mut sink);
        assert!(report.counters.peak_materialized_vertices > 0);
    }

    #[test]
    fn early_stop_works() {
        let g = complete_digraph(8);
        let q = Query::new(0, 7, 5).unwrap();
        let mut sink = ControlledSink::new(CountingSink::default(), Some(3), None, None);
        bc_join(&g, q, &mut sink);
        assert_eq!(sink.emitted(), 3);
    }
}
