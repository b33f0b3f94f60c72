//! The full-fledged cardinality estimator (Equations 6–7, Algorithm 5's
//! two DP passes).
//!
//! For every index vertex `v` and position `i` the estimator computes
//!
//! * `suffix[i][v] = c_i^k(v)` — the number of tuples of the sub-query
//!   `Q[i : k]` starting with `v` (walk suffixes from `v` to `t`, with
//!   `t`-padding), via the backward recurrence
//!   `c_i^k(v) = sum_{v' in I_t(v, k-i-1)} c_{i+1}^k(v')`;
//! * `prefix[i][v] = c_i^0(v)` — tuples of `Q[0 : i]` *ending* with `v`
//!   (walk prefixes from `s`). The paper states the mirrored recurrence as
//!   a pull, `sum_{p in I_s(v, i-1)} c_{i-1}^0(p)`; it runs here as a push
//!   over the table the index holds: every `p` in `I(i-1)` adds
//!   `c_{i-1}^0(p)` to each `v` in `I_t(p, k-i)`. An edge `(p, v)` of the
//!   index has `p.s <= i-1` and `v.t <= k-i` exactly when `p` is in
//!   `I(i-1)` with `v` in `I_t(p, k-i)`, and exactly when `v` is in `I(i)`
//!   with `p` in `I_s(v, i-1)`, so both forms add the same terms into the
//!   same cells, and a saturating sum of non-negative terms does not
//!   depend on their order.
//!
//! Because the index stores every admissible edge, these DPs are *exact*
//! walk counts, not estimates: `suffix[0][s] = |W(s, t, k, G)| = |Q|`.
//! They estimate the number of *paths* only insofar as `delta_P` is close
//! to `delta_W` (Section 6.4). All arithmetic saturates.

use crate::index::Index;

/// The full-fledged estimator: the per-level sums of its two DP tables.
#[derive(Debug, Clone)]
pub struct FullEstimate {
    k: u32,
    /// `sum_v prefix[i][v]` = `|Q[0:i]|` per level.
    prefix_sums: Vec<u64>,
    /// `sum_v suffix[i][v]` = `|Q[i:k]|` per level.
    suffix_sums: Vec<u64>,
}

impl FullEstimate {
    /// Runs both DP passes over the index and keeps their per-level sums.
    /// `O(k * |E_I|)` time, `O(k * |X|)` space while it runs.
    pub fn compute(index: &Index) -> FullEstimate {
        let (prefix, suffix) = Self::tables(index);
        let sums = |table: Vec<Vec<u64>>| {
            table
                .iter()
                .map(|row| row.iter().fold(0u64, |acc, &x| acc.saturating_add(x)))
                .collect()
        };
        FullEstimate {
            k: index.k(),
            prefix_sums: sums(prefix),
            suffix_sums: sums(suffix),
        }
    }

    /// Both DP tables, `(prefix, suffix)`, each `(k+1) x |X|`:
    /// `prefix[i][v] = |{tuples of Q[0:i] ending at v}|` and
    /// `suffix[i][v] = |{tuples of Q[i:k] starting at v}|`.
    fn tables(index: &Index) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let k = index.k();
        let n = index.num_vertices();
        let levels = k as usize + 1;
        let mut prefix = vec![vec![0u64; n]; levels];
        let mut suffix = vec![vec![0u64; n]; levels];

        if !index.is_empty() {
            // Suffix pass: c_k^k(v) = 1 for v in I(k), then walk backward.
            for v in index.level(k) {
                suffix[k as usize][v as usize] = 1;
            }
            for i in (0..k).rev() {
                for v in index.level(i) {
                    let mut total = 0u64;
                    for &n2 in index.i_t(v, k - i - 1) {
                        total = total.saturating_add(suffix[i as usize + 1][n2 as usize]);
                    }
                    suffix[i as usize][v as usize] = total;
                }
            }
            // Prefix pass: c_0(v) = 1 for v in I(0) = {s}, walk forward.
            for v in index.level(0) {
                prefix[0][v as usize] = 1;
            }
            for i in 1..=k {
                let (done, rest) = prefix.split_at_mut(i as usize);
                let (from, into) = (&done[i as usize - 1], &mut rest[0]);
                for p in index.level(i - 1) {
                    let count = from[p as usize];
                    for &v in index.i_t(p, k - i) {
                        into[v as usize] = into[v as usize].saturating_add(count);
                    }
                }
            }
        }
        (prefix, suffix)
    }

    /// `|Q[0:i]|`: size of the prefix sub-query's result.
    pub fn prefix_sum(&self, i: u32) -> u64 {
        self.prefix_sums[i as usize]
    }

    /// `|Q[i:k]|`: size of the suffix sub-query's result.
    pub fn suffix_sum(&self, i: u32) -> u64 {
        self.suffix_sums[i as usize]
    }

    /// `|Q|` — the exact number of hop-constrained s-t *walks*
    /// (`delta_W`), which is the estimator's stand-in for the result count.
    pub fn total_walks(&self) -> u64 {
        self.suffix_sums[0]
    }

    /// The hop constraint this estimate was computed for.
    pub fn k(&self) -> u32 {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::reference::count_walks;
    use pathenum_graph::generators::{complete_digraph, erdos_renyi, layered_dag};

    fn estimate(g: &pathenum_graph::CsrGraph, q: Query) -> FullEstimate {
        FullEstimate::compute(&Index::build(g, q))
    }

    #[test]
    fn walk_count_is_exact_on_figure1() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let est = estimate(&g, q);
        assert_eq!(est.total_walks(), count_walks(&g, q));
    }

    #[test]
    fn walk_count_is_exact_on_complete_digraphs() {
        for n in [4usize, 6, 8] {
            for k in 2..=5u32 {
                let g = complete_digraph(n);
                let q = Query::new(0, (n - 1) as u32, k).unwrap();
                let est = estimate(&g, q);
                assert_eq!(est.total_walks(), count_walks(&g, q), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn walk_count_is_exact_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi(40, 200, seed);
            let q = Query::new(0, 1, 5).unwrap();
            let est = estimate(&g, q);
            assert_eq!(est.total_walks(), count_walks(&g, q), "seed={seed}");
        }
    }

    #[test]
    fn prefix_and_suffix_totals_agree() {
        // |Q| can be read from either end of the chain.
        let g = erdos_renyi(30, 150, 9);
        let q = Query::new(2, 3, 4).unwrap();
        let est = estimate(&g, q);
        assert_eq!(est.prefix_sum(4), est.suffix_sum(0));
    }

    #[test]
    fn layered_dag_paths_equal_walks() {
        let (g, s, t) = layered_dag(3, 4, 2, 21);
        let q = Query::new(s, t, 4).unwrap();
        let est = estimate(&g, q);
        let walks = count_walks(&g, q);
        let paths = crate::reference::count_paths(&g, q);
        assert_eq!(est.total_walks(), walks);
        assert_eq!(walks, paths, "DAG walks are all simple");
    }

    /// The prefix table by the paper's pull recurrence over `I_s`: the
    /// oracle `compute`'s push is held to.
    fn pulled_prefix(index: &Index) -> Vec<Vec<u64>> {
        let k = index.k();
        let mut prefix = vec![vec![0u64; index.num_vertices()]; k as usize + 1];
        let i_s = index.backward_table();
        for v in index.level(0) {
            prefix[0][v as usize] = 1;
        }
        for i in 1..=k {
            for v in index.level(i) {
                let mut total = 0u64;
                for &p in i_s.neighbors_within(v, i - 1) {
                    total = total.saturating_add(prefix[i as usize - 1][p as usize]);
                }
                prefix[i as usize][v as usize] = total;
            }
        }
        prefix
    }

    /// Every prefix cell and sum of `compute` against the pull oracle,
    /// and `|Q|` read from both ends. Returns the estimate and its prefix
    /// table for further checks.
    fn assert_push_matches_pull(
        g: &pathenum_graph::CsrGraph,
        q: Query,
    ) -> (FullEstimate, Vec<Vec<u64>>) {
        let index = Index::build(g, q);
        let est = FullEstimate::compute(&index);
        let (prefix, _) = FullEstimate::tables(&index);
        let pulled = pulled_prefix(&index);
        assert_eq!(prefix, pulled, "{q:?}");
        for (i, row) in pulled.iter().enumerate() {
            let sum = row.iter().fold(0u64, |acc, &x| acc.saturating_add(x));
            assert_eq!(est.prefix_sum(i as u32), sum, "{q:?} level {i}");
        }
        assert_eq!(est.prefix_sum(q.k), est.suffix_sum(0), "{q:?}");
        (est, prefix)
    }

    #[test]
    fn pushed_prefix_equals_the_pulled_one_cell_for_cell() {
        let mut nonempty = 0;
        let mut check = |g: &pathenum_graph::CsrGraph, q: Query| {
            nonempty += usize::from(assert_push_matches_pull(g, q).0.total_walks() > 0);
        };
        check(&figure1_graph(), Query::new(S, T, 4).unwrap());
        check(&figure1_graph(), Query::new(T, S, 4).unwrap());
        for n in [4usize, 6, 8] {
            for k in 2..=5u32 {
                check(
                    &complete_digraph(n),
                    Query::new(0, (n - 1) as u32, k).unwrap(),
                );
            }
        }
        for seed in 0..20u64 {
            let g = erdos_renyi(40, 200, seed);
            check(&g, Query::new(0, 1, 2 + (seed % 5) as u32).unwrap());
        }
        let (g, s, t) = layered_dag(3, 4, 2, 21);
        check(&g, Query::new(s, t, 4).unwrap());
        assert!(
            nonempty >= 25,
            "only {nonempty} non-empty estimates compared"
        );
    }

    #[test]
    fn pushed_and_pulled_prefixes_saturate_in_the_same_cells() {
        // 61^(i-1) walks end at each interior vertex of level i, which
        // fits through level 11; the 62 · 61^10 that reach t at level 12
        // do not, and neither does level 11 summed.
        let (est, prefix) =
            assert_push_matches_pull(&complete_digraph(64), Query::new(0, 63, 12).unwrap());
        let saturated = |i: usize| prefix[i].iter().filter(|&&c| c == u64::MAX).count();
        assert_eq!(saturated(11), 0);
        assert_eq!(est.prefix_sum(11), u64::MAX);
        assert_eq!(saturated(12), 1);
        assert_eq!(est.total_walks(), u64::MAX);
    }

    #[test]
    fn empty_index_estimates_zero() {
        let g = figure1_graph();
        let est = estimate(&g, Query::new(T, S, 4).unwrap());
        assert_eq!(est.total_walks(), 0);
        assert_eq!(est.prefix_sum(2), 0);
    }
}
