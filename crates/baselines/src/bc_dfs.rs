//! BC-DFS: the barrier-based polynomial-delay algorithm (Peng et al.,
//! VLDB 2020; Section 2.2 and Appendix D of the PathEnum paper).
//!
//! The generic framework prunes with the static lower bound
//! `B(v) = S(v, t | G)`, which goes stale as the partial path occupies
//! vertices. BC-DFS *raises a barrier* on a vertex whenever the subtree
//! rooted at it produced no result: the barrier records the residual
//! budget that failed, so an equally-or-less-budgeted revisit is pruned
//! immediately. Because the failure may have been caused by vertices that
//! currently sit on the stack (a path to `t` blocked by the partial
//! result), each raised barrier also records the deepest such blocking
//! stack position; when the stack unwinds past it the barrier is rolled
//! back. Barriers raised with *no* stack dependency are permanent — the
//! failure was intrinsic to the budget.
//!
//! This reproduces the pruning-cost profile the paper measures: a
//! noticeably more expensive per-step check than IDX-DFS in exchange for a
//! smaller search tree.

use std::time::Instant;

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::types::{Distance, INFINITE_DISTANCE};
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{base_distances_to_t, query_is_runnable, run_report};

/// Sentinel for "barrier has no stack dependency".
const NO_DEPENDENCY: i32 = -1;

/// Runs BC-DFS on `query`, streaming results into `sink`.
pub fn bc_dfs(graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> RunReport {
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let prep_start = Instant::now();
    let base = base_distances_to_t(graph, query.t, query.k);
    let bfs = prep_start.elapsed();

    let mut counters = Counters::default();
    let enum_start = Instant::now();
    let mut state = BarrierSearch {
        graph,
        query,
        barrier: base,
        dependency: vec![NO_DEPENDENCY; graph.num_vertices()],
        on_stack_depth: vec![NO_DEPENDENCY; graph.num_vertices()],
        resets: vec![Vec::new(); query.k as usize + 2],
        partial: Vec::with_capacity(query.k as usize + 1),
        sink,
        counters: &mut counters,
    };
    if state.barrier[query.s as usize] <= query.k {
        state.partial.push(query.s);
        state.on_stack_depth[query.s as usize] = 0;
        state.search();
        state.on_stack_depth[query.s as usize] = NO_DEPENDENCY;
    }
    run_report(bfs, enum_start.elapsed(), counters)
}

struct BarrierSearch<'a> {
    graph: &'a CsrGraph,
    query: Query,
    /// Current barrier per vertex: a valid lower bound on the residual
    /// distance to `t` given the current stack. Initialized to the static
    /// BFS bound; rollbacks restore the exact previous value.
    barrier: Vec<Distance>,
    /// Stack depth the raised barrier depends on, or `NO_DEPENDENCY`.
    dependency: Vec<i32>,
    /// Stack position of each on-stack vertex (`NO_DEPENDENCY` if off).
    on_stack_depth: Vec<i32>,
    /// `resets[d]`: barriers to roll back when the vertex at depth `d`
    /// pops: `(vertex, previous_barrier, previous_dependency)`.
    resets: Vec<Vec<(VertexId, Distance, i32)>>,
    partial: Vec<VertexId>,
    sink: &'a mut dyn PathSink,
    counters: &'a mut Counters,
}

impl BarrierSearch<'_> {
    /// Explores the subtree of the current partial result. Returns
    /// `(found_any_result, deepest_blocking_depth, control)`.
    fn search(&mut self) -> (bool, i32, SearchControl) {
        let v = *self.partial.last().expect("partial contains s");
        let depth = self.partial.len() as i32 - 1;
        if v == self.query.t {
            self.counters.results += 1;
            let control = self.sink.emit(&self.partial);
            return (true, NO_DEPENDENCY, control);
        }
        let len_edges = self.partial.len() as u32 - 1;
        let k = self.query.k;
        let mut found_any = false;
        let mut deepest_block = NO_DEPENDENCY;
        let neighbor_count = self.graph.out_neighbors(v).len();
        self.counters.edges_accessed += neighbor_count as u64;
        for idx in 0..neighbor_count {
            let next = self.graph.out_neighbors(v)[idx];
            let stack_pos = self.on_stack_depth[next as usize];
            if stack_pos != NO_DEPENDENCY {
                // Blocked by an on-stack vertex: remember the deepest one.
                deepest_block = deepest_block.max(stack_pos);
                continue;
            }
            let bar = self.barrier[next as usize];
            if bar == INFINITE_DISTANCE || len_edges + 1 + bar > k {
                // Pruned by a barrier. If that barrier was raised
                // dynamically its validity depends on the stack; inherit
                // the dependency so our own barrier rolls back with it.
                let dep = self.dependency[next as usize];
                if dep != NO_DEPENDENCY {
                    deepest_block = deepest_block.max(dep);
                }
                continue;
            }
            self.partial.push(next);
            self.on_stack_depth[next as usize] = depth + 1;
            self.counters.partial_results += 1;
            let (found, sub_block, control) = self.search();
            // Roll back barriers that depended on `next` being on stack.
            let rollback = std::mem::take(&mut self.resets[(depth + 1) as usize]);
            for (vertex, prev_bar, prev_dep) in rollback.into_iter().rev() {
                self.barrier[vertex as usize] = prev_bar;
                self.dependency[vertex as usize] = prev_dep;
            }
            self.on_stack_depth[next as usize] = NO_DEPENDENCY;
            self.partial.pop();
            if !found {
                self.counters.invalid_partial_results += 1;
                // Raise the barrier on `next`: with the current stack, a
                // residual budget of k - (len_edges + 1) found nothing.
                let failed_budget = k - (len_edges + 1);
                let new_bar = failed_budget + 1;
                if new_bar > self.barrier[next as usize] {
                    let dep = sub_block.min(depth); // ancestors only
                    if dep != NO_DEPENDENCY {
                        self.resets[dep as usize].push((
                            next,
                            self.barrier[next as usize],
                            self.dependency[next as usize],
                        ));
                    }
                    self.barrier[next as usize] = new_bar;
                    self.dependency[next as usize] = dep;
                }
                if sub_block != NO_DEPENDENCY {
                    deepest_block = deepest_block.max(sub_block.min(depth));
                }
            }
            found_any |= found;
            if control == SearchControl::Stop {
                return (found_any, deepest_block, SearchControl::Stop);
            }
        }
        (found_any, deepest_block, SearchControl::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum::request::ControlledSink;
    use pathenum::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};
    use pathenum_graph::GraphBuilder;

    fn check_against_bruteforce(g: &CsrGraph, q: Query) {
        let mut got = CollectingSink::default();
        bc_dfs(g, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(g, q, &mut expected);
        assert_eq!(got.sorted_paths(), expected.sorted_paths(), "query {q:?}");
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..8u64 {
            let g = erdos_renyi(25, 120, seed);
            for k in 2..=6u32 {
                check_against_bruteforce(&g, Query::new(0, 1, k).unwrap());
            }
        }
    }

    #[test]
    fn exact_on_dense_graphs() {
        let g = complete_digraph(7);
        for k in 2..=5u32 {
            check_against_bruteforce(&g, Query::new(0, 6, k).unwrap());
        }
    }

    #[test]
    fn barrier_rollback_preserves_results_on_tricky_topology() {
        // A graph engineered so a vertex is first explored under a stack
        // that blocks its only route, then revisited after the blocker
        // pops: 0 -> 1 -> 2 -> 3 and 0 -> 2, 2 -> 1, 1 -> 3.
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2), (2, 3), (0, 2), (2, 1), (1, 3)])
            .unwrap();
        let g = b.finish();
        for k in 2..=4u32 {
            check_against_bruteforce(&g, Query::new(0, 3, k).unwrap());
        }
    }

    #[test]
    fn prunes_more_than_generic_dfs_on_trap_graphs() {
        // A "trap" lattice: many branches lead into a cul-de-sac region
        // whose exit is blocked; BC-DFS should generate fewer invalid
        // partials than the static-bound DFS.
        let mut b = GraphBuilder::new(40);
        // Spine 0 -> 1 -> ... -> 9 (t = 9).
        for i in 0..9u32 {
            b.add_edge(i, i + 1).unwrap();
        }
        // Trap: vertices 10..40 form a dense cluster reachable from the
        // spine whose only way back is through spine vertex 1 (on stack).
        for i in 10..40u32 {
            b.add_edge(2, i).ok();
            for j in 10..40u32 {
                if i != j && (i + j) % 3 == 0 {
                    b.add_edge(i, j).ok();
                }
            }
            b.add_edge(i, 1).ok();
        }
        let g = b.finish();
        let q = Query::new(0, 9, 9).unwrap();

        let mut a = CountingSink::default();
        let bc = bc_dfs(&g, q, &mut a);
        let mut c = CountingSink::default();
        let gen = crate::generic_dfs(&g, q, &mut c);
        assert_eq!(a.count, c.count, "same result count");
        assert!(
            bc.counters.partial_results <= gen.counters.partial_results,
            "barriers should not enlarge the search tree: bc={} gen={}",
            bc.counters.partial_results,
            gen.counters.partial_results
        );
    }

    #[test]
    fn early_stop_works() {
        let g = complete_digraph(8);
        let q = Query::new(0, 7, 4).unwrap();
        let mut sink = ControlledSink::new(CountingSink::default(), Some(5), None, None);
        bc_dfs(&g, q, &mut sink);
        assert_eq!(sink.emitted(), 5);
    }

    #[test]
    fn no_result_query_is_clean() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        let g = b.finish();
        let q = Query::new(1, 2, 4).unwrap();
        let mut sink = CountingSink::default();
        let report = bc_dfs(&g, q, &mut sink);
        assert_eq!(sink.count, 0);
        assert_eq!(report.counters.results, 0);
    }
}
