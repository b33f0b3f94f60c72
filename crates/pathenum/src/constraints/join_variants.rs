//! Constrained evaluation through IDX-JOIN (Appendix E's closing note).
//!
//! The accumulative operator `⊕` is commutative and associative, so its
//! value over a joined path is independent of evaluation order; the
//! automaton check is applied to the complete label sequence once a
//! joined tuple proves to be a valid path. Both are realized as checks
//! at join-emission time, through a [`FilterSink`] — each emitted path is
//! O(k) long, so the check costs the same order as emission itself — in
//! contrast to the DFS variants (Algorithms 7/8), which thread the state
//! through the search and can cut branches early. A request's constrained
//! IDX-JOIN runs the same filter, with the request's one acceptance check
//! per constraint, inside the executor.

use pathenum_graph::VertexId;

use crate::constraints::accumulative::AccumulativeQuery;
use crate::enumerate::idx_join;
use crate::index::Index;
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// A sink adapter that forwards only paths passing `predicate`.
pub struct FilterSink<'a, F: FnMut(&[VertexId]) -> bool> {
    predicate: F,
    inner: &'a mut dyn PathSink,
    /// Paths dropped by the predicate.
    pub rejected: u64,
}

impl<'a, F: FnMut(&[VertexId]) -> bool> FilterSink<'a, F> {
    /// Wraps `inner`, forwarding only paths where `predicate` holds.
    pub fn new(predicate: F, inner: &'a mut dyn PathSink) -> Self {
        FilterSink {
            predicate,
            inner,
            rejected: 0,
        }
    }
}

impl<F: FnMut(&[VertexId]) -> bool> PathSink for FilterSink<'_, F> {
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        if (self.predicate)(path) {
            self.inner.emit(path)
        } else {
            self.rejected += 1;
            SearchControl::Continue
        }
    }

    fn probe(&mut self) -> SearchControl {
        self.inner.probe()
    }
}

/// IDX-JOIN under an accumulative-value constraint: joined paths are
/// emitted only when the folded edge values pass the query's check.
pub fn accumulative_join<V, W, C>(
    index: &Index,
    cut: u32,
    query: &AccumulativeQuery<V, W, C>,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl
where
    V: Copy,
    W: Fn(VertexId, VertexId) -> V,
    C: Fn(&V) -> bool,
{
    let mut filter = FilterSink::new(|path: &[VertexId]| query.accepts(path), sink);
    let control = idx_join(index, cut, &mut filter, counters);
    // Results that failed the constraint are not results of the
    // constrained query.
    counters.results -= filter.rejected;
    control
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::accumulative::accumulative_dfs;
    use crate::constraints::automaton::{automaton_dfs, Automaton, LabelId};
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;
    use crate::{Method, PathEnumConfig, QueryEngine, QueryRequest};

    fn weight(_: VertexId, to: VertexId) -> u64 {
        u64::from(to % 3)
    }

    fn label(from: VertexId, _: VertexId) -> LabelId {
        from % 2
    }

    /// Accepts sequences with an even number of 1-labels.
    fn even_ones() -> Automaton {
        let mut a = Automaton::new(2, 2, 0).unwrap();
        a.add_transition(0, 0, 0).unwrap();
        a.add_transition(0, 1, 1).unwrap();
        a.add_transition(1, 0, 1).unwrap();
        a.add_transition(1, 1, 0).unwrap();
        a.set_accepting(0).unwrap();
        a
    }

    #[test]
    fn accumulative_join_matches_accumulative_dfs() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, q);
        let acc = AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight,
            check: |&v: &u64| v >= 3,
            prune: None,
        };
        let mut dfs_sink = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&index, &acc, &mut dfs_sink, &mut counters);
        for cut in 1..4u32 {
            let mut join_sink = CollectingSink::default();
            let mut join_counters = Counters::default();
            accumulative_join(&index, cut, &acc, &mut join_sink, &mut join_counters);
            assert_eq!(
                join_sink.sorted_paths(),
                dfs_sink.clone().sorted_paths(),
                "cut {cut}"
            );
            assert_eq!(join_counters.results, counters.results);
        }
    }

    #[test]
    fn automaton_requests_under_idx_join_match_automaton_dfs() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, q);
        let mut dfs_sink = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&index, &even_ones(), label, &mut dfs_sink, &mut counters);

        let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
        let request = QueryRequest::from_query(q)
            .automaton(even_ones(), label)
            .method(Method::IdxJoin)
            .collect_paths(true);
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.plan.unwrap().method, Method::IdxJoin);
        assert_eq!(response.num_results(), counters.results);
        let mut joined = response.paths;
        joined.sort_unstable();
        assert_eq!(joined, dfs_sink.sorted_paths());
    }

    #[test]
    fn filter_sink_counts_rejections() {
        let mut inner = CollectingSink::default();
        let mut filter = FilterSink::new(|p: &[VertexId]| p.len() > 2, &mut inner);
        filter.emit(&[0, 1]);
        filter.emit(&[0, 1, 2]);
        assert_eq!(filter.rejected, 1);
        assert_eq!(inner.paths.len(), 1);
    }
}
