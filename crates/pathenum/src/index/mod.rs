//! The query-dependent light-weight index `I` (Section 4.2, Algorithm 3).
//!
//! Given `q(s, t, k)` on `G`, the index keeps exactly the vertices that can
//! appear in some hop-constrained walk from `s` to `t` — those with
//! `v.s + v.t <= k`, where `v.s = S(s, v | G − {t})` and
//! `v.t = S(v, t | G − {s})` — and, per vertex, its admissible neighbors
//! bucketed by distance so that the two lookups of the paper are O(1):
//!
//! * `I(i)`   — vertices that can sit at position `i` of a result;
//! * `I_t(v, b)` — out-neighbors `v'` of `v` with `v'.t <= b`.
//!
//! **One table, where Algorithm 3 fills two.** The paper's index also
//! holds `I_s(v, b)`, in-neighbors `v'` of `v` with `v'.s <= b`. No
//! enumerator reads it, and the one serving computation the paper states
//! over it — the full-fledged estimator's prefix DP — is the same sums
//! pushed along `I_t` (see [`crate::estimator::FullEstimate`]). The two
//! tables list one admissible edge set from its two ends, so an `Index`
//! builds, holds and accounts for `I_t` alone, and
//! [`Index::backward_table`] transposes it into `I_s` for the only reader
//! left, the Figure 9 plan spectrum ([`crate::spectrum`]). Every result,
//! estimate, method and cut is computed from `I_t`, the levels and the
//! distances, all unchanged, so none can differ; the index a request
//! builds and a cache keeps is half the size.
//!
//! **Rows on first read, where Algorithm 3 fills every row.** Algorithm 4
//! reads `I_t(v, k − |M| − 1)` only for the vertices it expands, and a
//! request that stops at its `limit` may expand a small share of `X`. So
//! an index can be built as its *labels* alone ([`Index::build_labels`]:
//! the boundary sweep, the endpoint fix-ups, `X`, the local ids and both
//! distance arrays), and IDX-DFS then fills each row the first time it
//! pushes a frame for the row's owner
//! ([`crate::enumerate::idx_dfs_on_demand`]).
//! [`Index::fill_rows`] completes such an index into the eager one. All
//! three — the eager build, the on-demand source and completion — fill a
//! row through one routine (`rows.rs`: one adjacency scan, Algorithm 3's
//! admission test, one counting sort), so a row read on demand is the
//! eager row entry for entry, and the DFS, which reads rows through one
//! small interface, emits the same paths in the same order with the same
//! counters. The request pipeline keeps an index at its labels only for a
//! request that §6.2's step 1 settles on `k · limit` alone, that IDX-DFS
//! serves from the serving graph itself (no constraint, one thread, no
//! mutation log), and whose `X` has more members than its `limit` — on a
//! smaller index a limited search reads nearly every row anyway. The plan
//! cache completes such an entry for the first request that finds it
//! (see [`crate::plan`]).
//!
//! The index works in a dense *local* id space (`LocalId`); paths are
//! translated back to global ids at emission. The walk-closure conventions
//! of the join model are baked in: `t`'s only forward neighbor is itself
//! (the `(t, t)` padding self-loop) and no forward list contains `s` —
//! hence, transposed, `s` has no backward neighbors and no backward list
//! contains `t` except the padding loop.

mod build;
mod neighbor_table;
mod rows;

pub use build::BuildScratch;
pub use neighbor_table::{LocalId, NeighborTable};
pub(crate) use rows::{RowArena, RowSource};

use pathenum_graph::types::Distance;
use pathenum_graph::VertexId;

use crate::query::Query;

/// The light-weight index for one query. Build with [`Index::build`].
///
/// ```
/// use pathenum::{Index, Query};
/// use pathenum_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
/// let graph = b.finish();
///
/// let index = Index::build(&graph, Query::new(0, 3, 2).unwrap());
/// assert!(!index.is_empty());
/// // Every indexed vertex can appear in some hop-bounded s-t walk.
/// assert_eq!(index.num_vertices(), 4);
/// // I_t(s, 1): neighbors of s within distance 1 of t.
/// let s = index.s_local().unwrap();
/// assert_eq!(index.i_t(s, 1).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    pub(crate) query: Query,
    /// Local ids of `s` and `t`; `None` when the index is empty (no result
    /// can exist).
    pub(crate) s_local: Option<LocalId>,
    pub(crate) t_local: Option<LocalId>,
    /// Local -> global vertex id.
    pub(crate) vertices: Vec<VertexId>,
    /// `v.s` per local vertex.
    pub(crate) dist_s: Vec<Distance>,
    /// `v.t` per local vertex.
    pub(crate) dist_t: Vec<Distance>,
    /// Forward table: out-neighbors keyed by distance-to-`t`.
    pub(crate) fwd: NeighborTable,
    /// `|C_i|` for `i` in `0..=k`.
    pub(crate) level_sizes: Vec<u64>,
    /// `sum_{v in C_i} |I_t(v, k - i - 1)|` for `i` in `0..k`.
    pub(crate) level_expansion: Vec<u64>,
}

impl Index {
    /// The query this index was built for.
    pub fn query(&self) -> Query {
        self.query
    }

    /// The hop constraint `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.query.k
    }

    /// Whether the index proves the query has no results.
    pub fn is_empty(&self) -> bool {
        self.s_local.is_none() || self.t_local.is_none()
    }

    /// Local id of `s`; `None` iff the index is empty.
    #[inline]
    pub fn s_local(&self) -> Option<LocalId> {
        self.s_local
    }

    /// Local id of `t`; `None` iff the index is empty.
    #[inline]
    pub fn t_local(&self) -> Option<LocalId> {
        self.t_local
    }

    /// Number of indexed vertices (`|X|`).
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges stored in the forward table, *excluding* the
    /// synthetic `(t, t)` padding loop — the paper's "index size" metric
    /// (Figure 10).
    pub fn num_edges(&self) -> usize {
        self.fwd.num_edges().saturating_sub(1)
    }

    /// Global vertex id of a local id.
    #[inline]
    pub fn global(&self, local: LocalId) -> VertexId {
        self.vertices[local as usize]
    }

    /// `v.s` of a local vertex.
    #[inline]
    pub fn dist_s(&self, local: LocalId) -> Distance {
        self.dist_s[local as usize]
    }

    /// `v.t` of a local vertex.
    #[inline]
    pub fn dist_t(&self, local: LocalId) -> Distance {
        self.dist_t[local as usize]
    }

    /// `I_t(v, b)`: out-neighbors of `v` with distance-to-`t` `<= b`.
    /// Requires an index that [`has_rows`](Self::has_rows).
    #[inline]
    pub fn i_t(&self, v: LocalId, budget: Distance) -> &[LocalId] {
        self.fwd.neighbors_within(v, budget)
    }

    /// Whether the index holds its `I_t` rows and per-level statistics:
    /// true of every index but one built by
    /// [`build_labels`](Self::build_labels) and not yet
    /// [filled](Self::fill_rows).
    #[inline]
    pub fn has_rows(&self) -> bool {
        self.fwd.num_vertices() == self.vertices.len()
    }

    /// The forward table, as the DFS kernel's row source.
    #[inline]
    pub(crate) fn rows(&self) -> &NeighborTable {
        &self.fwd
    }

    /// Algorithm 3's `I_s` as a table of its own: `neighbors_within(v, b)`
    /// is `I_s(v, b)`, the in-neighbors of `v` with distance-from-`s`
    /// `<= b`. Derived by transposing `I_t` (`O(|E_I| + k·|X|)`, a fresh
    /// allocation per call), so a caller that extends leftward — the
    /// Figure 9 spectrum — takes it once per index.
    pub fn backward_table(&self) -> NeighborTable {
        self.fwd.transposed(&self.dist_s)
    }

    /// `I(i)`: local ids of vertices that may appear at position `i`
    /// (`v.s <= i` and `v.t <= k - i`).
    pub fn level(&self, i: u32) -> impl Iterator<Item = LocalId> + '_ {
        let k = self.k();
        debug_assert!(i <= k);
        (0..self.vertices.len() as LocalId)
            .filter(move |&v| self.dist_s(v) <= i && self.dist_t(v) <= k - i)
    }

    /// `|C_i|`, precomputed with the rows (requires
    /// [`has_rows`](Self::has_rows)).
    pub fn level_size(&self, i: u32) -> u64 {
        self.level_sizes[i as usize]
    }

    /// `sum_{v in C_i} |I_t(v, k - i - 1)|`, precomputed with the rows
    /// (the raw statistic behind the preliminary estimator's `gamma_i`;
    /// requires [`has_rows`](Self::has_rows)).
    pub fn level_expansion(&self, i: u32) -> u64 {
        self.level_expansion[i as usize]
    }

    /// Approximate heap footprint in bytes (Table 7's "Index" row): the
    /// one neighbor table an index holds, not Algorithm 3's two.
    pub fn heap_bytes(&self) -> usize {
        self.vertices.len() * std::mem::size_of::<VertexId>()
            + self.dist_s.len() * std::mem::size_of::<Distance>() * 2
            + self.fwd.heap_bytes()
            + (self.level_sizes.len() + self.level_expansion.len()) * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use pathenum_graph::{CsrGraph, GraphBuilder};

    /// Vertex names for the Figure 1a graph: s=0, t=1, v0..v7 = 2..9.
    pub const S: u32 = 0;
    pub const T: u32 = 1;
    pub const V: [u32; 8] = [2, 3, 4, 5, 6, 7, 8, 9];

    /// The running-example graph of the paper (Figure 1a).
    pub fn figure1_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(10);
        let [v0, v1, v2, v3, v4, v5, v6, v7] = V;
        b.add_edges([
            (S, v0),
            (S, v1),
            (S, v3),
            (v0, v1),
            (v0, v6),
            (v0, T),
            (v1, v2),
            (v1, v3),
            (v2, v0),
            (v2, T),
            (v3, v4),
            (v4, v5),
            (v5, v2),
            (v5, T),
            (v6, v0),
            (v7, S),
        ])
        .unwrap();
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    fn index_k4() -> Index {
        Index::build(&figure1_graph(), Query::new(S, T, 4).unwrap())
    }

    #[test]
    fn partition_matches_figure4a() {
        // Figure 4a: X[0,2]=s? The figure places s at (0,2): s.s=0, s.t=2.
        let idx = index_k4();
        assert!(!idx.is_empty());
        let [v0, v1, v2, v3, v4, v5, v6, v7] = V;
        let find = |g: VertexId| -> Option<(u32, u32)> {
            (0..idx.num_vertices() as LocalId)
                .find(|&l| idx.global(l) == g)
                .map(|l| (idx.dist_s(l), idx.dist_t(l)))
        };
        assert_eq!(find(S), Some((0, 2)));
        assert_eq!(find(T), Some((2, 0)));
        assert_eq!(find(v0), Some((1, 1)));
        assert_eq!(find(v1), Some((1, 2)));
        assert_eq!(find(v2), Some((2, 1)));
        assert_eq!(find(v3), Some((1, 3)));
        assert_eq!(find(v4), Some((2, 2)));
        assert_eq!(find(v6), Some((2, 2)));
        assert_eq!(find(v5), Some((3, 1)));
        // v7 cannot appear in any result.
        assert_eq!(find(v7), None);
    }

    #[test]
    fn i_t_of_v0_matches_example_4_4() {
        // Example 4.4: neighbors of v0 within distance 2 of t are
        // {t, v1, v6}.
        let idx = index_k4();
        let v0_local = (0..idx.num_vertices() as LocalId)
            .find(|&l| idx.global(l) == V[0])
            .unwrap();
        let mut got: Vec<VertexId> = idx
            .i_t(v0_local, 2)
            .iter()
            .map(|&l| idx.global(l))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![T, V[1], V[6]]);
        // Within distance 0: only t.
        let got0: Vec<VertexId> = idx
            .i_t(v0_local, 0)
            .iter()
            .map(|&l| idx.global(l))
            .collect();
        assert_eq!(got0, vec![T]);
    }

    #[test]
    fn t_forward_list_is_padding_loop_only() {
        let idx = index_k4();
        let t_local = idx.t_local().unwrap();
        assert_eq!(idx.i_t(t_local, 4), &[t_local]);
        assert_eq!(idx.dist_t(t_local), 0);
    }

    #[test]
    fn s_has_no_backward_neighbors_and_no_fwd_occurrences() {
        let idx = index_k4();
        let s_local = idx.s_local().unwrap();
        assert!(idx.backward_table().neighbors_within(s_local, 4).is_empty());
        for v in 0..idx.num_vertices() as LocalId {
            assert!(
                !idx.i_t(v, 4).contains(&s_local),
                "forward list of {} contains s",
                idx.global(v)
            );
        }
    }

    #[test]
    fn level_zero_is_exactly_s() {
        let idx = index_k4();
        let level0: Vec<LocalId> = idx.level(0).collect();
        assert_eq!(level0, vec![idx.s_local().unwrap()]);
        let level_k: Vec<LocalId> = idx.level(4).collect();
        assert_eq!(level_k, vec![idx.t_local().unwrap()]);
    }

    #[test]
    fn level_sizes_match_level_iterator() {
        let idx = index_k4();
        for i in 0..=4u32 {
            assert_eq!(idx.level_size(i), idx.level(i).count() as u64, "level {i}");
        }
    }

    #[test]
    fn empty_index_when_t_unreachable() {
        let g = figure1_graph();
        // v7 (vertex 9) has no incoming edges, so q(s, v7, k) has none.
        let idx = Index::build(&g, Query::new(S, V[7], 4).unwrap());
        assert!(idx.is_empty());
    }

    #[test]
    fn empty_index_when_k_too_small_for_distance() {
        let mut b = pathenum_graph::GraphBuilder::new(6);
        // A single path of length 5: 0->1->2->3->4->5.
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .unwrap();
        let g = b.finish();
        let idx = Index::build(&g, Query::new(0, 5, 4).unwrap());
        assert!(idx.is_empty());
        let idx = Index::build(&g, Query::new(0, 5, 5).unwrap());
        assert!(!idx.is_empty());
    }

    #[test]
    fn backward_lists_mirror_forward_lists() {
        // Every forward edge (u -> w) with w != t-loop must appear as a
        // backward edge of w, and vice versa (u != s rule aside).
        let idx = index_k4();
        let bwd = idx.backward_table();
        let t_local = idx.t_local().unwrap();
        let s_local = idx.s_local().unwrap();
        let k = idx.k();
        for u in 0..idx.num_vertices() as LocalId {
            for &w in idx.i_t(u, k) {
                if u == t_local && w == t_local {
                    continue; // forward padding loop
                }
                assert!(
                    bwd.neighbors_within(w, k).contains(&u),
                    "fwd edge {} -> {} missing from bwd table",
                    idx.global(u),
                    idx.global(w)
                );
            }
            for &p in bwd.neighbors_within(u, k) {
                if u == t_local && p == t_local {
                    continue; // backward padding loop
                }
                assert!(
                    p != s_local || idx.dist_s(p) == 0,
                    "unexpected backward neighbor"
                );
                assert!(
                    idx.i_t(p, k).contains(&u),
                    "bwd edge {} <- {} missing from fwd table",
                    idx.global(u),
                    idx.global(p)
                );
            }
        }
    }

    #[test]
    fn index_edge_count_excludes_padding_loop() {
        let idx = index_k4();
        let total: usize = (0..idx.num_vertices() as LocalId)
            .map(|v| idx.i_t(v, 4).len())
            .sum();
        assert_eq!(idx.num_edges(), total - 1);
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(index_k4().heap_bytes() > 0);
    }
}
