//! Accumulative-value constraints (Algorithm 7).
//!
//! Each edge carries a value; a commutative-associative operator `⊕`
//! folds the values along a path, and a result is emitted only when the
//! accumulated value passes a user check (e.g. "total transaction risk at
//! least θ"). The DFS carries the running accumulation; when the operator
//! admits a monotone bound (non-negative weights under `+`), an optional
//! upper-bound prune cuts branches early, exactly as discussed in
//! Appendix E.

use pathenum_graph::VertexId;

use crate::enumerate::dfs_iterative::{idx_dfs_rooted, DfsScratch, Walk};
use crate::index::{Index, LocalId};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// An accumulative-value HcPE query.
pub struct AccumulativeQuery<V, W, C> {
    /// Identity of the `⊕` operator (0 for `+`, 1 for `*`, ...).
    pub identity: V,
    /// The operator `⊕` — must be commutative and associative.
    pub combine: fn(V, V) -> V,
    /// Edge-value lookup on *global* vertex ids.
    pub weight: W,
    /// Final acceptance check `f_a(beta)`.
    pub check: C,
    /// Optional monotone prune: called with the running accumulation; a
    /// `false` return abandons the branch. Only sound when the check can
    /// never succeed for any extension (e.g. "sum of non-negative weights
    /// <= threshold" once exceeded). `None` disables pruning — required
    /// when values may decrease (negative weights, Appendix E's caveat).
    pub prune: Option<fn(&V) -> bool>,
}

impl<V, W, C> AccumulativeQuery<V, W, C>
where
    V: Copy,
    W: Fn(VertexId, VertexId) -> V,
    C: Fn(&V) -> bool,
{
    /// Whether a complete path's folded edge values pass `check`: the
    /// acceptance test of every evaluation that filters complete paths.
    pub(crate) fn accepts(&self, path: &[VertexId]) -> bool {
        let acc = path.windows(2).fold(self.identity, |acc, w| {
            (self.combine)(acc, (self.weight)(w[0], w[1]))
        });
        (self.check)(&acc)
    }
}

/// Algorithm 7: IDX-DFS carrying an accumulated edge value, emitting only
/// paths whose accumulation passes `check`.
pub fn accumulative_dfs<V, W, C>(
    index: &Index,
    query: &AccumulativeQuery<V, W, C>,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl
where
    V: Copy,
    W: Fn(VertexId, VertexId) -> V,
    C: Fn(&V) -> bool,
{
    // alloc: setup — the frames carry `V`, so the per-thread arena's
    // plain stack cannot hold them.
    let mut scratch = DfsScratch::default();
    let walk = AccumulativeWalk { index, query };
    idx_dfs_rooted(
        index,
        &mut index.rows(),
        &walk,
        &mut scratch,
        sink,
        counters,
    )
}

/// The running accumulation as the kernel's walk: `combine` then `prune`
/// per edge, `check` at `t`.
struct AccumulativeWalk<'a, V, W, C> {
    index: &'a Index,
    query: &'a AccumulativeQuery<V, W, C>,
}

impl<V, W, C> Walk for AccumulativeWalk<'_, V, W, C>
where
    V: Copy,
    W: Fn(VertexId, VertexId) -> V,
    C: Fn(&V) -> bool,
{
    type State = V;

    fn start(&self) -> V {
        self.query.identity
    }

    fn step(&self, acc: V, u: LocalId, w: LocalId) -> Option<V> {
        let edge_value = (self.query.weight)(self.index.global(u), self.index.global(w));
        let acc = (self.query.combine)(acc, edge_value);
        self.query
            .prune
            .is_none_or(|prune| prune(&acc))
            .then_some(acc)
    }

    fn accepts(&self, acc: V) -> bool {
        (self.query.check)(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;

    /// Edge weight = 1 per hop, so the accumulation is the path length.
    fn hop_weight(_: VertexId, _: VertexId) -> u64 {
        1
    }

    fn run<C: Fn(&u64) -> bool>(
        k: u32,
        check: C,
        prune: Option<fn(&u64) -> bool>,
    ) -> Vec<Vec<VertexId>> {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, k).unwrap());
        let q = AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight: hop_weight,
            check,
            prune,
        };
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&idx, &q, &mut sink, &mut counters);
        sink.sorted_paths()
    }

    #[test]
    fn threshold_above_selects_long_paths() {
        // Sum of unit weights >= 4 keeps only the three 4-edge paths.
        let paths = run(4, |&beta| beta >= 4, None);
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(p.len(), 5);
        }
    }

    #[test]
    fn threshold_below_with_prune_matches_without() {
        // Sum <= 3 with monotone pruning must equal the unpruned run.
        let with_prune = run(4, |&beta| beta <= 3, Some(|&beta| beta <= 3));
        let without = run(4, |&beta| beta <= 3, None);
        assert_eq!(with_prune, without);
        assert_eq!(with_prune.len(), 2); // (s,v0,t) and (s,v1,v2,t)
    }

    #[test]
    fn trivial_check_recovers_all_paths() {
        assert_eq!(run(4, |_| true, None).len(), 5);
    }

    #[test]
    fn multiplicative_operator_works() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        // Product of per-edge factor 2 == 2^length; require exactly 2^2.
        let q = AccumulativeQuery {
            identity: 1u64,
            combine: |a, b| a * b,
            weight: |_, _| 2u64,
            check: |&beta: &u64| beta == 4,
            prune: None,
        };
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        accumulative_dfs(&idx, &q, &mut sink, &mut counters);
        assert_eq!(sink.paths, vec![vec![S, V[0], T]]);
    }
}
