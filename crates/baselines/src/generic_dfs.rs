//! The generic DFS framework (Algorithm 1) with a static distance bound.

use std::time::Instant;

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{base_distances_to_t, query_is_runnable, run_report, within_budget};

/// Algorithm 1: backtracking over the raw graph, pruning with the *static*
/// distances `B(v) = S(v, t | G)` computed by one BFS before enumeration.
///
/// This is the framework all published baselines instantiate; on its own
/// it is the weakest competitor because `B` is never updated as the
/// partial path blocks shortest routes.
pub fn generic_dfs(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> RunReport {
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let prep_start = Instant::now();
    let dist = base_distances_to_t(graph, query.t, query.k);
    let bfs = prep_start.elapsed();

    let mut counters = Counters::default();
    let enum_start = Instant::now();
    let mut partial: Vec<VertexId> = vec![query.s];
    search(graph, query, &dist, &mut partial, sink, &mut counters);
    run_report(bfs, enum_start.elapsed(), counters)
}

fn search(
    graph: &CsrGraph,
    query: Query,
    dist: &[u32],
    partial: &mut Vec<VertexId>,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> (bool, SearchControl) {
    let v = *partial.last().expect("partial contains s");
    if v == query.t {
        counters.results += 1;
        return (true, sink.emit(partial));
    }
    let len_edges = partial.len() as u32 - 1;
    let neighbors = graph.out_neighbors(v);
    counters.edges_accessed += neighbors.len() as u64;
    let mut found_any = false;
    for &next in neighbors {
        if partial.contains(&next) || !within_budget(dist[next as usize], len_edges, query.k) {
            continue;
        }
        partial.push(next);
        counters.partial_results += 1;
        let (found, control) = search(graph, query, dist, partial, sink, counters);
        partial.pop();
        if !found {
            counters.invalid_partial_results += 1;
        }
        found_any |= found;
        if control == SearchControl::Stop {
            return (found_any, SearchControl::Stop);
        }
    }
    (found_any, SearchControl::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum::request::ControlledSink;
    use pathenum::sink::{CollectingSink, CountingSink};
    use pathenum_graph::GraphBuilder;

    fn diamond() -> CsrGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 2)])
            .unwrap();
        b.finish()
    }

    #[test]
    fn finds_all_paths() {
        let g = diamond();
        let q = Query::new(0, 4, 4).unwrap();
        let mut sink = CollectingSink::default();
        generic_dfs(&g, q, &mut sink);
        let mut reference = CollectingSink::default();
        pathenum::reference::brute_force_paths(&g, q, &mut reference);
        assert_eq!(sink.sorted_paths(), reference.sorted_paths());
    }

    #[test]
    fn respects_hop_constraint() {
        let g = diamond();
        let q = Query::new(0, 4, 3).unwrap();
        let mut sink = CollectingSink::default();
        generic_dfs(&g, q, &mut sink);
        // 0-1-3-4 and 0-2-3-4 only; 0-1-2-3-4 has 4 edges.
        assert_eq!(sink.paths.len(), 2);
    }

    #[test]
    fn early_stop_works() {
        let g = diamond();
        let q = Query::new(0, 4, 4).unwrap();
        let mut sink = ControlledSink::new(CountingSink::default(), Some(1), None, None);
        let report = generic_dfs(&g, q, &mut sink);
        assert_eq!(sink.emitted(), 1);
        assert_eq!(report.counters.results, 1);
    }

    #[test]
    fn unreachable_target_yields_nothing() {
        let g = diamond();
        let q = Query::new(4, 0, 4).unwrap();
        let mut sink = CollectingSink::default();
        let report = generic_dfs(&g, q, &mut sink);
        assert!(sink.paths.is_empty());
        assert_eq!(report.counters.results, 0);
    }
}
