//! Index construction (Algorithm 3).

use pathenum_graph::bfs::{boundary_sweep, distances_epoch_into, BfsOptions, Direction};
use pathenum_graph::epoch::EpochMap;
use pathenum_graph::types::{dist_add, Distance, INFINITE_DISTANCE};
use pathenum_graph::{NeighborAccess, VertexId};

use super::neighbor_table::{LocalId, NeighborTable};
use super::rows::{assign_local_ids, ABSENT};
use super::Index;
use crate::query::Query;

/// Reusable buffers for index construction.
///
/// The build needs three `vertex -> value` maps (the two boundary
/// distance maps and the global-to-local id map), the flat row buffer
/// the neighbor table `I_t` is filled from, and — only for the two-pass
/// boundary search a retention footprint needs — a BFS queue; the
/// boundary sweep keeps its frontiers inside the maps' touched lists.
/// Real-time workloads issue queries back-to-back on the same graph;
/// holding the buffers in a [`BuildScratch`] (see
/// [`crate::engine::QueryEngine`]) reuses the allocations, so a warm
/// build allocates nothing but the finished [`Index`]'s own arrays. The
/// maps are epoch-stamped ([`EpochMap`]) so the per-query reset is O(1)
/// instead of an `O(|V|)` memset — on large graphs with small `k` the
/// reset, not the traversal, used to dominate the build.
#[derive(Debug, Clone)]
pub struct BuildScratch {
    dist_s: EpochMap,
    dist_t: EpochMap,
    /// Whether the last build left the full depth-`k` reach of both
    /// endpoints in the maps (two-pass search) or only labels on the
    /// admissible set `X` (the sweep).
    full_reach: bool,
    queue: std::collections::VecDeque<VertexId>,
    local_of: EpochMap,
    /// The admissible `(out-neighbor, distance-to-t)` entries, row after
    /// row in local-id order, and where each row starts (plus the end).
    rows: Vec<(LocalId, Distance)>,
    row_starts: Vec<u32>,
}

impl Default for BuildScratch {
    fn default() -> Self {
        BuildScratch {
            dist_s: EpochMap::new(INFINITE_DISTANCE),
            dist_t: EpochMap::new(INFINITE_DISTANCE),
            full_reach: false,
            queue: std::collections::VecDeque::new(),
            local_of: EpochMap::new(ABSENT),
            rows: Vec::new(),
            row_starts: Vec::new(),
        }
    }
}

impl BuildScratch {
    /// The boundary distance maps `(dist_s, dist_t)` left behind by the
    /// most recent build, keyed by global vertex id (unreached vertices
    /// read [`INFINITE_DISTANCE`]) — or `None` unless that build ran the
    /// two-pass search, whose maps cover the whole depth-`k` reach of
    /// `s` and of `t`.
    ///
    /// The plan cache derives an entry's *reach footprint* from these
    /// (the vertex sets within `k - 1` hops of `s` / of `t`), which is
    /// what makes surgical retention under graph mutation sound. The
    /// sweep's maps hold the admissible set only; a footprint taken from
    /// them would keep entries alive across insertions that change their
    /// answer, so they are never handed out.
    pub(crate) fn full_reach_maps(&self) -> Option<(&EpochMap, &EpochMap)> {
        self.full_reach.then_some((&self.dist_s, &self.dist_t))
    }

    /// Approximate heap footprint of the scratch arena in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.dist_s.heap_bytes()
            + self.dist_t.heap_bytes()
            + self.local_of.heap_bytes()
            + self.queue.capacity() * std::mem::size_of::<VertexId>()
            + self.rows.capacity() * std::mem::size_of::<(LocalId, Distance)>()
            + self.row_starts.capacity() * std::mem::size_of::<u32>()
    }
}

impl Index {
    /// Builds the light-weight index for `query` on `graph`.
    ///
    /// Cost is proportional to what the index keeps. The boundary
    /// distances come from one bidirectional
    /// [`boundary_sweep`]: both sides grow unrestricted, smaller frontier
    /// first, until their depths sum to `k`, then continue to depth `k`
    /// only through vertices whose depth plus opposite label still fits
    /// under `k`. Every vertex on a shortest `s→x` path of a member `x`
    /// of `X = {v : v.s + v.t ≤ k}` is itself in `X` and already carries
    /// its opposite label once the depths sum to `k`, so the sweep labels
    /// all of `X` exactly and nothing outside it — the two `≈k/2`-hop
    /// balls plus the adjacency of `X`, instead of the two `k`-hop balls.
    /// One scan of `X`'s out-adjacency then fills the neighbor table
    /// `I_t` — the only one built: Algorithm 3's `I_s` is `I_t`
    /// transposed, which nothing on the serving path reads (see
    /// [`Index::backward_table`]). If the index proves the query empty
    /// (no s-t path within `k` hops), an empty index is returned and
    /// [`Index::is_empty`] is true.
    ///
    /// The one caller that needs more than `X` is the request pipeline on
    /// a graph with a mutation log: retention footprints are the *full*
    /// `k − 1` reach of both endpoints, so there the boundary search is
    /// two depth-`k` [`distances_epoch_into`] passes and the index is the
    /// same, field for field.
    ///
    /// Generic over [`NeighborAccess`]: the build runs identically on a
    /// materialized `CsrGraph` and on a borrowed
    /// [`OverlayView`](pathenum_graph::OverlayView) of a
    /// [`DynamicGraph`](pathenum_graph::DynamicGraph) — no snapshot
    /// needed to query a mutated graph.
    pub fn build<G: NeighborAccess>(graph: &G, query: Query) -> Index {
        Index::build_reusing(graph, query, &mut BuildScratch::default()).0
    }

    /// As [`Index::build`], reusing caller-owned scratch buffers across
    /// queries (allocation-free boundary search, id mapping and row
    /// collection), and additionally reporting the time the boundary
    /// search took (the `BFS` series of Figures 12/17).
    ///
    /// No serving path calls it: requests build through the planner
    /// (`plan.rs`), which caches what it builds. It stays public for the
    /// benchmark's staged driver, which times each phase on an index it
    /// builds itself, and for the kernel suites.
    pub fn build_reusing<G: NeighborAccess>(
        graph: &G,
        query: Query,
        scratch: &mut BuildScratch,
    ) -> (Index, std::time::Duration) {
        Index::build_with(graph, query, scratch, false)
    }

    /// [`Index::build_reusing`] with the boundary search chosen by the
    /// caller: `full_reach` runs the two depth-`k` passes and leaves
    /// their maps in the scratch for
    /// [`BuildScratch::full_reach_maps`]; otherwise the sweep. The index
    /// is identical either way.
    pub(crate) fn build_with<G: NeighborAccess>(
        graph: &G,
        query: Query,
        scratch: &mut BuildScratch,
        full_reach: bool,
    ) -> (Index, std::time::Duration) {
        let (mut index, bfs_time) = Index::labels_with(graph, query, scratch, full_reach);
        index.fill_rows(graph, scratch);
        (index, bfs_time)
    }

    /// The labels of the index for `query`, without its rows: the sweep,
    /// the endpoint fix-ups, `X`, the local ids and both distance arrays —
    /// what a request that reads only the rows it expands needs before
    /// enumerating. Reading a row of the result is an error until
    /// [`fill_rows`](Self::fill_rows) has run (see
    /// [`has_rows`](Self::has_rows)); IDX-DFS reads one on demand instead
    /// ([`idx_dfs_on_demand`](crate::enumerate::idx_dfs_on_demand)). A
    /// query the labels prove empty gets the empty index, which has every
    /// row it needs.
    pub fn build_labels<G: NeighborAccess>(
        graph: &G,
        query: Query,
        scratch: &mut BuildScratch,
    ) -> (Index, std::time::Duration) {
        Index::labels_with(graph, query, scratch, false)
    }

    /// The labels half of [`build_with`](Self::build_with).
    fn labels_with<G: NeighborAccess>(
        graph: &G,
        query: Query,
        scratch: &mut BuildScratch,
        full_reach: bool,
    ) -> (Index, std::time::Duration) {
        let Query { s, t, k } = query;
        debug_assert!(query.validate(graph.num_vertices()).is_ok());

        // Boundary distances: v.s = S(s, v | G - {t}), v.t = S(v, t | G - {s}).
        let bfs_start = std::time::Instant::now();
        if full_reach {
            distances_epoch_into(
                graph,
                s,
                BfsOptions {
                    direction: Direction::Forward,
                    excluded: Some(t),
                    max_depth: Some(k),
                },
                &mut scratch.dist_s,
                &mut scratch.queue,
            );
            distances_epoch_into(
                graph,
                t,
                BfsOptions {
                    direction: Direction::Backward,
                    excluded: Some(s),
                    max_depth: Some(k),
                },
                &mut scratch.dist_t,
                &mut scratch.queue,
            );
        } else {
            boundary_sweep(graph, s, t, k, &mut scratch.dist_s, &mut scratch.dist_t);
        }
        scratch.full_reach = full_reach;
        let BuildScratch { dist_s, dist_t, .. } = scratch;
        let bfs_time = bfs_start.elapsed();
        // From here on the two searches are indistinguishable: a label is
        // exact or absent, every member of X carries both, so membership,
        // admission and the endpoint minima below decide as on full maps
        // (an admitted neighbor is in X; an unlabelled one is not).
        //
        // The excluded endpoints get their distances from their boundary
        // edges: t.s via in-edges of t, s.t via out-edges of s. Each is a
        // first write of the epoch (the vertex was excluded from its own
        // BFS), so it lands on the touched list exactly once.
        let mut t_s = INFINITE_DISTANCE;
        graph.for_each_in(t, |u| t_s = t_s.min(dist_add(dist_s.get(u as usize), 1)));
        let mut s_t = INFINITE_DISTANCE;
        graph.for_each_out(s, |w| s_t = s_t.min(dist_add(dist_t.get(w as usize), 1)));
        dist_s.set(t as usize, t_s);
        dist_t.set(s as usize, s_t);

        if dist_add(dist_s.get(s as usize), dist_t.get(s as usize)) > k
            || dist_add(dist_s.get(t as usize), dist_t.get(t as usize)) > k
        {
            return (Index::empty(query), bfs_time);
        }

        // Partition X: vertices with v.s + v.t <= k, in global-id order.
        // Any member has finite v.s, so X is a subset of the forward
        // search's touched set: filter that, then sort the survivors —
        // the ascending full-range scan without the O(|V|) sweep, and
        // without sorting what the filter drops.
        let mut vertices: Vec<VertexId> = dist_s
            .touched()
            .iter()
            .copied()
            .filter(|&v| dist_add(dist_s.get(v as usize), dist_t.get(v as usize)) <= k)
            .collect();
        vertices.sort_unstable();
        let local = |v| vertices.binary_search(&v).ok().map(|at| at as LocalId);
        let (s_local, t_local) = (local(s), local(t));
        debug_assert!(s_local.is_some() && t_local.is_some(), "s and t are in X");

        let local_dist_s: Vec<Distance> =
            vertices.iter().map(|&v| dist_s.get(v as usize)).collect();
        let local_dist_t: Vec<Distance> =
            vertices.iter().map(|&v| dist_t.get(v as usize)).collect();

        let index = Index {
            query,
            s_local,
            t_local,
            vertices,
            dist_s: local_dist_s,
            dist_t: local_dist_t,
            fwd: NeighborTable::from_rows(k, &[], &[0]),
            level_sizes: Vec::new(),
            level_expansion: Vec::new(),
        };
        (index, bfs_time)
    }

    /// Fills every row and the per-level statistics of an index built by
    /// [`build_labels`](Self::build_labels) on `graph`, leaving exactly
    /// the index [`Index::build`] returns — which is how that build fills
    /// them. A no-op on an index that has its rows.
    pub fn fill_rows<G: NeighborAccess>(&mut self, graph: &G, scratch: &mut BuildScratch) {
        if self.has_rows() {
            return;
        }
        let k = self.k();
        let BuildScratch {
            local_of,
            rows,
            row_starts,
            ..
        } = scratch;
        assign_local_ids(local_of, graph.num_vertices(), &self.vertices);
        // Adjacency is ascending and local ids ascend with global ids, so
        // every row is collected ascending by local id, as
        // `NeighborTable::from_rows` requires.
        //
        // Forward table (H of Algorithm 3): admissible out-neighbors keyed
        // by distance-to-t. t keeps only the (t, t) padding loop.
        rows.clear();
        row_starts.clear();
        for v in 0..self.vertices.len() as LocalId {
            row_starts.push(rows.len() as u32);
            self.read_row(graph, local_of, v, rows);
        }
        row_starts.push(rows.len() as u32);
        self.fwd = NeighborTable::from_rows(k, rows, row_starts);

        // Per-level statistics for the preliminary estimator: v sits in
        // the levels v.s ..= k - v.t and in no other.
        self.level_sizes = vec![0u64; k as usize + 1];
        self.level_expansion = vec![0u64; k as usize + 1];
        for v in 0..self.vertices.len() {
            for i in self.dist_s[v]..=k - self.dist_t[v] {
                self.level_sizes[i as usize] += 1;
                if i < k {
                    self.level_expansion[i as usize] +=
                        self.fwd.neighbors_within(v as LocalId, k - i - 1).len() as u64;
                }
            }
        }
    }

    /// An index proving the query has no result.
    pub(crate) fn empty(query: Query) -> Index {
        let k = query.k;
        Index {
            query,
            s_local: None,
            t_local: None,
            vertices: Vec::new(),
            dist_s: Vec::new(),
            dist_t: Vec::new(),
            fwd: NeighborTable::from_rows(k, &[], &[0]),
            level_sizes: vec![0; k as usize + 1],
            level_expansion: vec![0; k as usize + 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;
    use pathenum_graph::generators::erdos_renyi;

    #[test]
    fn direct_edge_only_queries_build_nonempty_index() {
        let mut b = pathenum_graph::GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        let g = b.finish();
        let idx = Index::build(&g, Query::new(0, 1, 2).unwrap());
        assert!(!idx.is_empty());
        assert_eq!(idx.num_vertices(), 2);
        let s = idx.s_local().unwrap();
        let t = idx.t_local().unwrap();
        assert_eq!(idx.i_t(s, 1), &[t]);
    }

    #[test]
    fn reverse_direction_query_is_empty_on_dag() {
        let g = figure1_graph();
        // No edges lead back from t to s.
        let idx = Index::build(&g, Query::new(T, S, 4).unwrap());
        assert!(idx.is_empty());
        assert_eq!(idx.num_edges(), 0);
    }

    #[test]
    fn admission_rule_prunes_far_neighbors() {
        // Chain 0 -> 1 -> 2 -> 3 plus shortcut 0 -> 3; k = 2 admits only
        // the shortcut and the 1-hop tails.
        let mut b = pathenum_graph::GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let g = b.finish();
        let idx = Index::build(&g, Query::new(0, 3, 2).unwrap());
        assert!(!idx.is_empty());
        // Vertex 1 sits at (v.s = 1, v.t = 2), sum 3 > 2: excluded.
        // Vertex 2 sits at (v.s = 2, v.t = 1), sum 3 > 2: excluded.
        let globals: Vec<VertexId> = (0..idx.num_vertices() as LocalId)
            .map(|l| idx.global(l))
            .collect();
        assert_eq!(globals, vec![0, 3]);
    }

    /// The maps two direct depth-`k` passes leave, with the build's two
    /// endpoint fix-ups applied: what a full-reach build must hold.
    fn two_pass_maps<G: NeighborAccess>(graph: &G, query: Query) -> (EpochMap, EpochMap) {
        let Query { s, t, k } = query;
        let mut queue = std::collections::VecDeque::new();
        let mut pass = |source, direction, excluded| {
            let mut map = EpochMap::new(INFINITE_DISTANCE);
            let options = BfsOptions {
                direction,
                excluded: Some(excluded),
                max_depth: Some(k),
            };
            distances_epoch_into(graph, source, options, &mut map, &mut queue);
            map
        };
        let mut dist_s = pass(s, Direction::Forward, t);
        let mut dist_t = pass(t, Direction::Backward, s);
        let mut t_s = INFINITE_DISTANCE;
        graph.for_each_in(t, |u| t_s = t_s.min(dist_add(dist_s.get(u as usize), 1)));
        let mut s_t = INFINITE_DISTANCE;
        graph.for_each_out(s, |w| s_t = s_t.min(dist_add(dist_t.get(w as usize), 1)));
        dist_s.set(t as usize, t_s);
        dist_t.set(s as usize, s_t);
        (dist_s, dist_t)
    }

    fn assert_same_map(got: &EpochMap, want: &EpochMap, what: &str) {
        for v in 0..want.capacity() {
            assert_eq!(got.get(v), want.get(v), "{what}: value at {v}");
            assert_eq!(got.contains(v), want.contains(v), "{what}: touched {v}");
        }
        assert_eq!(got.touched().len(), want.touched().len(), "{what}");
    }

    /// Both boundary searches on one graph through one scratch: the
    /// indexes must be equal field for field, and the full-reach build
    /// must leave exactly the two-pass maps behind.
    fn check_both_searches<G: NeighborAccess>(
        graph: &G,
        query: Query,
        scratch: &mut BuildScratch,
    ) -> Index {
        let (swept, _) = Index::build_with(graph, query, scratch, false);
        assert!(scratch.full_reach_maps().is_none(), "sweep maps handed out");
        let (full, _) = Index::build_with(graph, query, scratch, true);
        assert_eq!(swept, full, "{query:?}");
        let (dist_s, dist_t) = scratch
            .full_reach_maps()
            .expect("two-pass maps are full reach");
        let (want_s, want_t) = two_pass_maps(graph, query);
        assert_same_map(dist_s, &want_s, "dist_s");
        assert_same_map(dist_t, &want_t, "dist_t");
        swept
    }

    #[test]
    fn sweep_and_two_pass_builds_agree_through_one_scratch() {
        // One scratch across every case, search and representation: a
        // label, a row or the reach flag leaking from the previous build
        // would show up as a difference.
        let mut scratch = BuildScratch::default();
        let mut nonempty = 0;
        for seed in 0..120u64 {
            let n = 5 + (seed % 11) as usize;
            let g = erdos_renyi(n, n * (1 + (seed % 4) as usize), seed);
            let mut dynamic = pathenum_graph::DynamicGraph::new(g.clone());
            for i in 0..(seed % 6) as u32 {
                let (u, w) = ((seed as u32 + 3 * i) % n as u32, (7 * i + 1) % n as u32);
                if i % 3 == 2 {
                    dynamic.remove_edge(u, w);
                } else if u != w {
                    dynamic.insert_edge(u, w);
                }
            }
            let (s, t) = ((seed % n as u64) as u32, ((seed / 3 + 1) % n as u64) as u32);
            let Ok(query) = Query::new(s, t, 2 + (seed % 7) as u32) else {
                continue;
            };
            let on_heap = check_both_searches(&g, query, &mut scratch);
            let on_overlay = check_both_searches(&dynamic.view(), query, &mut scratch);
            nonempty += usize::from(!on_heap.is_empty()) + usize::from(!on_overlay.is_empty());
        }
        assert!(nonempty >= 60, "only {nonempty} non-empty indexes compared");
    }

    #[test]
    fn warm_builds_reuse_the_scratch_they_account_for() {
        let g = erdos_renyi(200, 1600, 5);
        let query = Query::new(0, 100, 5).unwrap();
        let mut scratch = BuildScratch::default();
        let (index, _) = Index::build_reusing(&g, query, &mut scratch);
        assert!(index.num_edges() > 0);
        let settled = scratch.heap_bytes();
        for _ in 0..5 {
            let (again, _) = Index::build_reusing(&g, query, &mut scratch);
            assert_eq!(again, index);
            assert_eq!(scratch.heap_bytes(), settled, "a warm build grew it");
        }
        // The row buffer held the table's entries and is counted.
        let rows = std::mem::take(&mut scratch.rows);
        assert!(rows.capacity() >= index.fwd.num_edges());
        let entry = std::mem::size_of::<(LocalId, Distance)>();
        assert_eq!(settled - scratch.heap_bytes(), rows.capacity() * entry);
    }

    #[test]
    fn level_expansion_matches_manual_sum() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        for i in 0..4u32 {
            let manual: u64 = idx
                .level(i)
                .map(|v| idx.i_t(v, 4 - i - 1).len() as u64)
                .sum();
            assert_eq!(idx.level_expansion(i), manual, "level {i}");
        }
    }
}
