//! T-DFS: certificate-based polynomial delay (Rizzi et al., IWOCA 2014).
//!
//! Before extending the partial result `M` with `v'`, T-DFS verifies that
//! a path from `v'` to `t` of length at most `k - L(M) - 1` exists in
//! `G - M` — an exact check performed by a bounded BFS that avoids the
//! on-stack vertices. Every surviving branch is therefore guaranteed to
//! produce at least one result (polynomial delay), but each step costs a
//! BFS: the high per-step pruning overhead the PathEnum paper identifies
//! as the reason these theoretical algorithms lose in practice.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{query_is_runnable, run_report};

/// Runs T-DFS on `query`, streaming results into `sink`.
pub fn t_dfs(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> RunReport {
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let mut counters = Counters::default();
    let enum_start = Instant::now();
    let mut state = TDfs {
        graph,
        query,
        on_stack: vec![false; graph.num_vertices()],
        visit_epoch: vec![0u32; graph.num_vertices()],
        epoch: 0,
        queue: VecDeque::new(),
        partial: Vec::with_capacity(query.k as usize + 1),
        counters: &mut counters,
    };
    state.partial.push(query.s);
    state.on_stack[query.s as usize] = true;
    let mut emit = |path: &[VertexId]| sink.emit(path);
    if state.reaches_t_avoiding_stack(query.s, query.k) {
        state.search(&mut emit);
    }
    // T-DFS has no preprocessing phase: all work happens per step.
    run_report(Duration::ZERO, enum_start.elapsed(), counters)
}

struct TDfs<'a> {
    graph: &'a CsrGraph,
    query: Query,
    on_stack: Vec<bool>,
    /// Epoch-stamped visited marks so each certificate BFS starts clean
    /// without an O(|V|) reset.
    visit_epoch: Vec<u32>,
    epoch: u32,
    queue: VecDeque<VertexId>,
    partial: Vec<VertexId>,
    counters: &'a mut Counters,
}

impl TDfs<'_> {
    fn search(&mut self, emit: &mut dyn FnMut(&[VertexId]) -> SearchControl) -> SearchControl {
        let v = *self.partial.last().expect("partial contains s");
        if v == self.query.t {
            self.counters.results += 1;
            return emit(&self.partial);
        }
        let len_edges = self.partial.len() as u32 - 1;
        let budget = self.query.k - len_edges - 1;
        let neighbor_count = self.graph.out_neighbors(v).len();
        self.counters.edges_accessed += neighbor_count as u64;
        for idx in 0..neighbor_count {
            let next = self.graph.out_neighbors(v)[idx];
            if self.on_stack[next as usize] {
                continue;
            }
            // Certificate: a path next -> t of length <= budget in G - M.
            if !self.reaches_t_avoiding_stack(next, budget) {
                continue;
            }
            self.partial.push(next);
            self.on_stack[next as usize] = true;
            self.counters.partial_results += 1;
            let control = self.search(emit);
            self.on_stack[next as usize] = false;
            self.partial.pop();
            if control == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        SearchControl::Continue
    }

    /// Bounded BFS from `from` toward `t`, treating on-stack vertices as
    /// deleted. The certificate query of T-DFS.
    fn reaches_t_avoiding_stack(&mut self, from: VertexId, budget: u32) -> bool {
        if from == self.query.t {
            return true;
        }
        if budget == 0 {
            return false;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.clear();
        self.queue.push_back(from);
        self.visit_epoch[from as usize] = epoch;
        let mut frontier_left = 1usize;
        let mut depth = 0u32;
        let mut next_frontier = 0usize;
        while let Some(v) = self.queue.pop_front() {
            for &n in self.graph.out_neighbors(v) {
                self.counters.edges_accessed += 1;
                if n == self.query.t {
                    return true;
                }
                if self.on_stack[n as usize] || self.visit_epoch[n as usize] == epoch {
                    continue;
                }
                self.visit_epoch[n as usize] = epoch;
                self.queue.push_back(n);
                next_frontier += 1;
            }
            frontier_left -= 1;
            if frontier_left == 0 {
                depth += 1;
                if depth >= budget {
                    return false;
                }
                frontier_left = next_frontier;
                next_frontier = 0;
            }
        }
        false
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
        t_dfs(g, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(g, q, &mut expected);
        assert_eq!(got.sorted_paths(), expected.sorted_paths(), "query {q:?}");
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..6u64 {
            let g = erdos_renyi(20, 90, seed);
            for k in 2..=5u32 {
                check(&g, Query::new(0, 1, k).unwrap());
            }
        }
    }

    #[test]
    fn exact_on_dense_graphs() {
        let g = complete_digraph(6);
        for k in 2..=5u32 {
            check(&g, Query::new(0, 5, k).unwrap());
        }
    }

    #[test]
    fn every_partial_leads_to_a_result() {
        // The defining property of T-DFS: zero invalid partial results.
        let g = erdos_renyi(25, 120, 11);
        let q = Query::new(0, 1, 5).unwrap();
        let mut sink = CountingSink::default();
        let report = t_dfs(&g, q, &mut sink);
        assert_eq!(report.counters.invalid_partial_results, 0);
        assert!(report.counters.partial_results >= report.counters.results.saturating_sub(1));
    }

    #[test]
    fn early_stop_works() {
        let g = complete_digraph(8);
        let q = Query::new(0, 7, 4).unwrap();
        let mut sink = ControlledSink::new(CountingSink::default(), Some(2), None, None);
        t_dfs(&g, q, &mut sink);
        assert_eq!(sink.emitted(), 2);
    }
}
