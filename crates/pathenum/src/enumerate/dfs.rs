//! IDX-DFS: depth-first search on the index (Algorithm 4).
//!
//! This recursive form is the reference implementation;
//! [`super::dfs_iterative`] is the explicit-stack equivalent that serves
//! requests, and emits the same paths in the same order.

use pathenum_graph::VertexId;

use crate::index::{Index, LocalId};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// Enumerates all hop-constrained s-t paths by DFS on the index.
///
/// Each step loops over `I_t(v, k - L(M) - 1)` — the neighbors of the last
/// partial-result vertex that are close enough to `t` to still satisfy the
/// hop constraint — so no distance check happens during the search; the
/// index already did it. Emission stops early if the sink returns
/// [`SearchControl::Stop`].
///
/// Returns the control state at exit ([`SearchControl::Stop`] iff the sink
/// aborted the enumeration).
///
/// ```
/// use pathenum::enumerate::idx_dfs;
/// use pathenum::sink::CollectingSink;
/// use pathenum::{Counters, Index, Query};
/// use pathenum_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]).unwrap();
/// let graph = b.finish();
/// let index = Index::build(&graph, Query::new(0, 3, 3).unwrap());
///
/// let mut sink = CollectingSink::default();
/// let mut counters = Counters::default();
/// idx_dfs(&index, &mut sink, &mut counters);
/// assert_eq!(
///     sink.sorted_paths(),
///     vec![vec![0, 1, 2, 3], vec![0, 1, 3], vec![0, 2, 3]],
/// );
/// ```
pub fn idx_dfs(index: &Index, sink: &mut dyn PathSink, counters: &mut Counters) -> SearchControl {
    let (Some(s_local), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return SearchControl::Continue;
    };
    let mut dfs = DfsState {
        index,
        t_local,
        partial: Vec::with_capacity(index.k() as usize + 1),
        scratch: Vec::with_capacity(index.k() as usize + 1),
        sink,
        counters,
        probe_tick: 0,
    };
    dfs.partial.push(s_local);
    let (_, control) = dfs.search();
    control
}

struct DfsState<'a> {
    index: &'a Index,
    t_local: LocalId,
    /// Current partial result `M` in local ids.
    partial: Vec<LocalId>,
    /// Reusable buffer for the emitted global-id path.
    scratch: Vec<VertexId>,
    sink: &'a mut dyn PathSink,
    counters: &'a mut Counters,
    probe_tick: u32,
}

impl DfsState<'_> {
    /// Recursive `Search` procedure. Returns `(found_any_result, control)`.
    fn search(&mut self) -> (bool, SearchControl) {
        // A strided probe lets deadline/cancellation sinks interrupt
        // barren regions that never emit, without taxing every node.
        if self.probe_tick & (super::PROBE_STRIDE - 1) == 0
            && self.sink.probe() == SearchControl::Stop
        {
            return (false, SearchControl::Stop);
        }
        self.probe_tick = self.probe_tick.wrapping_add(1);
        let v = *self
            .partial
            .last()
            .expect("partial result always contains s");
        if v == self.t_local {
            self.counters.results += 1;
            self.scratch.clear();
            self.scratch
                .extend(self.partial.iter().map(|&l| self.index.global(l)));
            return (true, self.sink.emit(&self.scratch));
        }
        let budget = self.index.k() - (self.partial.len() as u32 - 1) - 1;
        // The slice borrows the index (lifetime independent of `self`), so
        // the recursive calls below can still borrow `self` mutably.
        let neighbors = self.index.i_t(v, budget);
        self.counters.edges_accessed += neighbors.len() as u64;
        let mut found_any = false;
        for &next in neighbors {
            if self.partial.contains(&next) {
                continue;
            }
            self.partial.push(next);
            self.counters.partial_results += 1;
            let (found, control) = self.search();
            self.partial.pop();
            if !found {
                self.counters.invalid_partial_results += 1;
            }
            found_any |= found;
            if control == SearchControl::Stop {
                return (found_any, SearchControl::Stop);
            }
        }
        (found_any, SearchControl::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::request::ControlledSink;
    use crate::sink::{CollectingSink, CountingSink};

    fn run_collect(k: u32) -> Vec<Vec<VertexId>> {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, k).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_dfs(&idx, &mut sink, &mut counters);
        sink.sorted_paths()
    }

    #[test]
    fn figure1_k4_paths_are_exactly_the_expected_set() {
        let [v0, v1, v2, v3, v4, v5, _v6, _v7] = V;
        let got = run_collect(4);
        let mut expected = vec![
            vec![S, v0, T],
            vec![S, v1, v2, T],
            vec![S, v1, v2, v0, T],
            vec![S, v3, v4, v5, T],
            vec![S, v0, v1, v2, T],
        ];
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn k2_only_direct_two_hop_paths() {
        let got = run_collect(2);
        assert_eq!(got, vec![vec![S, V[0], T]]);
    }

    #[test]
    fn counters_track_results_and_edges() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = CountingSink::default();
        let mut counters = Counters::default();
        idx_dfs(&idx, &mut sink, &mut counters);
        assert_eq!(counters.results, 5);
        assert_eq!(sink.count, 5);
        assert!(counters.edges_accessed > 0);
        assert!(counters.partial_results >= counters.results);
    }

    #[test]
    fn limit_sink_stops_enumeration() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = ControlledSink::new(CountingSink::default(), Some(2), None, None);
        let mut counters = Counters::default();
        let control = idx_dfs(&idx, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Stop);
        assert_eq!(sink.emitted(), 2);
    }

    #[test]
    fn empty_index_emits_nothing() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(T, S, 4).unwrap());
        let mut sink = CountingSink::default();
        let mut counters = Counters::default();
        let control = idx_dfs(&idx, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Continue);
        assert_eq!(sink.count, 0);
    }

    #[test]
    fn paths_never_repeat_vertices() {
        let got = run_collect(8);
        for path in &got {
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), path.len(), "path {path:?} repeats a vertex");
            assert_eq!(path[0], S);
            assert_eq!(*path.last().unwrap(), T);
        }
    }
}
