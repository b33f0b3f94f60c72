//! Dynamic-graph support: a base graph plus buffered edge mutations,
//! queryable **in place** through a borrowed [`OverlayView`].
//!
//! The paper's Figure 8 experiment replays 10% of a graph's edges as
//! insertions: for each new edge `e(v, v')` it runs the query
//! `q(v', v, k-1)` on the graph *as of that moment* to surface the cycles
//! the insertion closes. [`DynamicGraph`] keeps an overlay of inserted
//! and deleted edges over an immutable base [`CsrGraph`]; the graph at
//! any moment can be served two ways:
//!
//! * [`view`](DynamicGraph::view) — an `O(1)` borrowed [`OverlayView`]
//!   implementing [`NeighborAccess`], so the boundary BFS and the
//!   per-query index build run directly on base + overlay with zero
//!   materialization (the hot path for update→query streams);
//! * [`snapshot`](DynamicGraph::snapshot) — an `O(n + m)` materialized
//!   [`CsrGraph`] (for batch workloads, or when a standalone graph value
//!   is needed).
//!
//! Every successful mutation advances the overlay's [`GraphVersion`]
//! epoch and is appended to a bounded mutation log
//! ([`mutations_since`](DynamicGraph::mutations_since)). Downstream
//! per-query caches key their entries by the version; the log lets them
//! re-validate entries *surgically* — keeping entries whose recorded
//! footprint is provably untouched by the delta — instead of discarding
//! everything on any mutation.
//!
//! # Overlay invariants
//!
//! The overlay *is* four sorted per-vertex delta lists, and each edge of
//! the overlay is stated once in each direction: no insertion log, slot
//! map or tombstones sit beside them.
//!
//! * `ins_out`/`ins_in` list the inserted edges, which are never base
//!   edges: inserting an edge the base already has either restores a
//!   deleted base edge or is a duplicate no-op.
//! * `del_out`/`del_in` list the deleted edges, which are always base
//!   edges: removing an inserted edge un-lists it instead.
//! * Edge presence is answered from the lists
//!   ([`has_edge`](DynamicGraph::has_edge) is a binary search of the base
//!   row and one delta row), and every mutation is an `O(log deg + deg)`
//!   sorted insert or removal in two lists.
//! * The lists are sorted, so [`OverlayView`] yields neighbors in
//!   ascending order — the same order a materialized snapshot would —
//!   which makes overlay execution emit results path-for-path identical
//!   to snapshot execution.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::hashing::FxHashMap;
use crate::types::{Edge, VertexId};
use crate::version::GraphVersion;
use crate::view::NeighborAccess;

/// How many mutations the delta log retains. Cache entries older than
/// the log window can no longer be surgically re-validated and fall back
/// to plain invalidation; 1024 comfortably covers the mutation burst a
/// cache entry is expected to survive between touches.
pub const DELTA_LOG_CAPACITY: usize = 1024;

/// One logged edge mutation (see
/// [`DynamicGraph::mutations_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMutation {
    /// The edge was added (a fresh overlay insertion, or the restore of
    /// a previously deleted base edge).
    Inserted,
    /// The edge was removed (a base-edge deletion, or the un-insertion
    /// of an overlay edge).
    Removed,
}

/// A base [`CsrGraph`] plus insertion/deletion overlays.
#[derive(Debug)]
pub struct DynamicGraph {
    base: CsrGraph,
    /// Identity of this overlay's mutation lineage. Fresh per
    /// construction *and per clone*: two graph values share a lineage
    /// only when one *is* the other, so "my mutation log is the
    /// complete history after version `v`" is a claim a consumer can
    /// trust only together with a lineage match. See
    /// [`lineage`](DynamicGraph::lineage).
    lineage: GraphVersion,
    /// Sorted per-vertex overlay adjacency: inserted out-neighbors.
    ins_out: FxHashMap<VertexId, Vec<VertexId>>,
    /// Sorted per-vertex overlay adjacency: inserted in-neighbors.
    ins_in: FxHashMap<VertexId, Vec<VertexId>>,
    /// Sorted per-vertex deletion adjacency: deleted base out-neighbors.
    del_out: FxHashMap<VertexId, Vec<VertexId>>,
    /// Sorted per-vertex deletion adjacency: deleted base in-neighbors.
    del_in: FxHashMap<VertexId, Vec<VertexId>>,
    version: GraphVersion,
    /// Recent mutations, oldest first; each entry carries the version the
    /// mutation produced.
    log: VecDeque<(GraphVersion, EdgeMutation, Edge)>,
    /// The log is complete for every version `>= log_floor`.
    log_floor: GraphVersion,
}

impl Clone for DynamicGraph {
    /// Clones the full overlay state but under a **fresh lineage**: the
    /// clone's mutation log answers only for versions the clone itself
    /// produces. Were the lineage shared, state stamped against one
    /// sibling could be re-validated against the other's log after the
    /// two diverge — replaying the wrong delta.
    fn clone(&self) -> Self {
        DynamicGraph {
            base: self.base.clone(),
            lineage: GraphVersion::next(),
            ins_out: self.ins_out.clone(),
            ins_in: self.ins_in.clone(),
            del_out: self.del_out.clone(),
            del_in: self.del_in.clone(),
            version: self.version,
            log: self.log.clone(),
            log_floor: self.log_floor,
        }
    }
}

/// The sorted delta list of `v` in `map` (empty when `v` has none).
fn delta(map: &FxHashMap<VertexId, Vec<VertexId>>, v: VertexId) -> &[VertexId] {
    map.get(&v).map_or(&[], Vec::as_slice)
}

/// Adds (`list`) or drops `val` in the sorted list at `key`, dropping
/// empty lists. Returns whether the list changed.
fn set_listed(
    map: &mut FxHashMap<VertexId, Vec<VertexId>>,
    key: VertexId,
    val: VertexId,
    list: bool,
) -> bool {
    let row = map.entry(key).or_default();
    let changed = match (row.binary_search(&val), list) {
        (Err(pos), true) => {
            row.insert(pos, val);
            true
        }
        (Ok(pos), false) => {
            row.remove(pos);
            true
        }
        _ => false,
    };
    if row.is_empty() {
        map.remove(&key);
    }
    changed
}

impl DynamicGraph {
    /// Wraps a base graph with an empty overlay. The overlay starts at
    /// the base graph's version (no mutation has happened yet).
    pub fn new(base: CsrGraph) -> Self {
        let version = base.version();
        DynamicGraph {
            base,
            lineage: GraphVersion::next(),
            ins_out: FxHashMap::default(),
            ins_in: FxHashMap::default(),
            del_out: FxHashMap::default(),
            del_in: FxHashMap::default(),
            version,
            log: VecDeque::new(),
            log_floor: version,
        }
    }

    /// The base graph the overlay started from.
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Number of vertices (fixed by the base graph).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// The current version epoch; advances on every successful mutation.
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// The identity of this graph value's mutation lineage.
    ///
    /// [`mutations_since`](DynamicGraph::mutations_since) describes the
    /// delta between two versions *of this lineage only*. A consumer
    /// that stamped state against one graph value and later re-validates
    /// against another (caches move across engines, and `DynamicGraph`
    /// is cloneable) must require equal lineages first — a version drawn
    /// from a diverged sibling is meaningless in this graph's log, and
    /// treating it as a stamp would silently replay the wrong delta.
    /// Clones draw a fresh lineage for exactly that reason.
    pub fn lineage(&self) -> GraphVersion {
        self.lineage
    }

    /// A borrowed, zero-copy [`NeighborAccess`] view of the current
    /// graph (base + overlay). `O(1)`; queries run on it directly.
    pub fn view(&self) -> OverlayView<'_> {
        OverlayView { graph: self }
    }

    /// The overlay's inserted edges (edges the base does not have), in
    /// ascending `(from, to)` order. Edges later removed again by
    /// [`remove_edge`](DynamicGraph::remove_edge) do not appear.
    pub fn inserted_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let mut sources: Vec<VertexId> = self.ins_out.keys().copied().collect();
        sources.sort_unstable();
        sources
            .into_iter()
            .flat_map(move |from| delta(&self.ins_out, from).iter().map(move |&to| (from, to)))
    }

    /// The mutations applied after `since`, oldest first, or `None` when
    /// `since` predates the bounded log (entries that old cannot be
    /// re-validated and must be treated as stale).
    pub fn mutations_since(
        &self,
        since: GraphVersion,
    ) -> Option<impl Iterator<Item = (EdgeMutation, Edge)> + '_> {
        if since < self.log_floor {
            return None;
        }
        Some(
            self.log
                .iter()
                .skip_while(move |&&(v, _, _)| v <= since)
                .map(|&(_, kind, edge)| (kind, edge)),
        )
    }

    /// Advances the version and records the mutation in the bounded log.
    fn record(&mut self, kind: EdgeMutation, edge: Edge) {
        self.version = GraphVersion::next();
        self.log.push_back((self.version, kind, edge));
        if self.log.len() > DELTA_LOG_CAPACITY {
            let (dropped, _, _) = self.log.pop_front().expect("log is non-empty");
            self.log_floor = dropped;
        }
    }

    /// Inserts a directed edge. Returns `false` (and does not advance the
    /// version) if the edge already exists or is a self-loop / out of
    /// range. Re-inserting a base edge that was deleted restores it.
    pub fn insert_edge(&mut self, from: VertexId, to: VertexId) -> bool {
        from != to && self.apply(EdgeMutation::Inserted, from, to)
    }

    /// Deletes a directed edge (from the base or the overlay). Returns
    /// `false` (and does not advance the version) if the edge is not in
    /// the current graph.
    pub fn remove_edge(&mut self, from: VertexId, to: VertexId) -> bool {
        self.apply(EdgeMutation::Removed, from, to)
    }

    /// Makes `(from, to)` present or absent as `kind` says, and logs the
    /// mutation. A base edge is present unless the `del_*` lists hold
    /// it; any other edge is present only when the `ins_*` lists do.
    /// Returns `false` when the edge already was so, or is out of range.
    fn apply(&mut self, kind: EdgeMutation, from: VertexId, to: VertexId) -> bool {
        let n = self.base.num_vertices() as VertexId;
        if from >= n || to >= n {
            return false;
        }
        let on_base = self.base.has_edge(from, to);
        let (out, inn) = if on_base {
            (&mut self.del_out, &mut self.del_in)
        } else {
            (&mut self.ins_out, &mut self.ins_in)
        };
        // Listing a base edge deletes it; listing any other inserts it.
        let list = (kind == EdgeMutation::Inserted) != on_base;
        if !set_listed(out, from, to, list) {
            return false;
        }
        set_listed(inn, to, from, list);
        self.record(kind, (from, to));
        true
    }

    /// Whether the edge exists in the current (base + overlay) graph.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        if self.base.has_edge(from, to) {
            delta(&self.del_out, from).binary_search(&to).is_err()
        } else {
            delta(&self.ins_out, from).binary_search(&to).is_ok()
        }
    }

    /// Total edge count of the current graph.
    pub fn num_edges(&self) -> usize {
        let listed = |map: &FxHashMap<VertexId, Vec<VertexId>>| -> usize {
            map.values().map(Vec::len).sum()
        };
        self.base.num_edges() + listed(&self.ins_out) - listed(&self.del_out)
    }

    /// Materializes the current graph as an immutable [`CsrGraph`],
    /// stamped with the overlay's current [`GraphVersion`] — snapshots of
    /// an unmutated overlay are version-identical and can share cached
    /// per-query state.
    ///
    /// Cost is linear: each base row, minus its deleted edges, is merged
    /// with the ascending [`inserted_edges`](DynamicGraph::inserted_edges)
    /// in one pass into an exactly sized buffer, so the builder's
    /// sort/dedup is bypassed. Prefer [`view`](DynamicGraph::view) for
    /// per-query execution — it skips this cost entirely.
    pub fn snapshot(&self) -> CsrGraph {
        let mut inserted = self.inserted_edges().peekable();
        let mut edges: Vec<Edge> = Vec::with_capacity(self.num_edges());
        for from in 0..self.base.num_vertices() as VertexId {
            let deleted = delta(&self.del_out, from);
            for &to in self.base.out_neighbors(from) {
                if deleted.binary_search(&to).is_ok() {
                    continue;
                }
                while let Some(e) = inserted.next_if(|&e| e < (from, to)) {
                    edges.push(e);
                }
                edges.push((from, to));
            }
        }
        edges.extend(inserted);
        debug_assert_eq!(edges.len(), self.num_edges());
        let mut snapshot = CsrGraph::from_sorted_dedup_edges(self.base.num_vertices(), &edges);
        snapshot.version = self.version;
        snapshot
    }
}

/// A borrowed, zero-materialization view of a [`DynamicGraph`]'s current
/// edge set, implementing [`NeighborAccess`].
///
/// Neighbor iteration merges the base CSR slice (skipping deleted base
/// edges) with the sorted per-vertex overlay list, yielding ascending
/// vertex order exactly as a materialized
/// [`snapshot`](DynamicGraph::snapshot) would. The view borrows the
/// overlay: it is `Copy`, costs nothing to create, and always reflects
/// the graph as of its creation (the borrow prevents mutation while any
/// view is alive).
#[derive(Debug, Clone, Copy)]
pub struct OverlayView<'g> {
    graph: &'g DynamicGraph,
}

/// Merges a sorted base slice (minus the sorted `del` subset) with the
/// sorted, disjoint `ins` run, calling `f` in ascending order.
fn merge_neighbors(
    base: &[VertexId],
    del: &[VertexId],
    ins: &[VertexId],
    mut f: impl FnMut(VertexId),
) {
    let mut di = 0usize;
    let mut ii = 0usize;
    for &b in base {
        while di < del.len() && del[di] < b {
            di += 1;
        }
        if di < del.len() && del[di] == b {
            di += 1;
            continue;
        }
        while ii < ins.len() && ins[ii] < b {
            f(ins[ii]);
            ii += 1;
        }
        f(b);
    }
    for &i in &ins[ii..] {
        f(i);
    }
}

impl<'g> OverlayView<'g> {
    /// The overlay this view reads.
    pub fn graph(&self) -> &'g DynamicGraph {
        self.graph
    }

    /// The version epoch of the viewed edge set.
    pub fn version(&self) -> GraphVersion {
        self.graph.version()
    }
}

impl NeighborAccess for OverlayView<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId)) {
        merge_neighbors(
            self.graph.base.out_neighbors(v),
            delta(&self.graph.del_out, v),
            delta(&self.graph.ins_out, v),
            f,
        );
    }

    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId)) {
        merge_neighbors(
            self.graph.base.in_neighbors(v),
            delta(&self.graph.del_in, v),
            delta(&self.graph.ins_in, v),
            f,
        );
    }

    fn out_degree(&self, v: VertexId) -> usize {
        self.graph.base.out_degree(v) - delta(&self.graph.del_out, v).len()
            + delta(&self.graph.ins_out, v).len()
    }

    fn in_degree(&self, v: VertexId) -> usize {
        self.graph.base.in_degree(v) - delta(&self.graph.del_in, v).len()
            + delta(&self.graph.ins_in, v).len()
    }
}

/// The graph itself is queryable: every call delegates to the `O(1)`
/// [`view`](DynamicGraph::view), so an engine bound to a
/// `&DynamicGraph` walks base CSR + delta adjacency exactly as one bound
/// to the view would.
impl NeighborAccess for DynamicGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        DynamicGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        DynamicGraph::num_edges(self)
    }

    #[inline]
    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId)) {
        self.view().for_each_out(v, f);
    }

    #[inline]
    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId)) {
        self.view().for_each_in(v, f);
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.view().out_degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        self.view().in_degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn base() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2)]).unwrap();
        b.finish()
    }

    fn out_of<G: NeighborAccess>(g: &G, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        g.for_each_out(v, |n| out.push(n));
        out
    }

    fn in_of<G: NeighborAccess>(g: &G, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        g.for_each_in(v, |n| out.push(n));
        out
    }

    #[test]
    fn insertions_are_visible_in_snapshot() {
        let mut d = DynamicGraph::new(base());
        assert!(d.insert_edge(2, 3));
        assert!(d.insert_edge(3, 0));
        let g = d.snapshot();
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(3, 0));
    }

    #[test]
    fn duplicate_and_loop_insertions_are_rejected() {
        let mut d = DynamicGraph::new(base());
        assert!(!d.insert_edge(0, 1), "already in base");
        assert!(d.insert_edge(2, 3));
        assert!(!d.insert_edge(2, 3), "already in overlay");
        assert!(!d.insert_edge(1, 1), "self-loop");
        assert!(!d.insert_edge(0, 9), "out of range");
        assert_eq!(d.inserted_edges().collect::<Vec<_>>(), vec![(2, 3)]);
    }

    #[test]
    fn has_edge_sees_both_layers() {
        let mut d = DynamicGraph::new(base());
        d.insert_edge(3, 1);
        assert!(d.has_edge(0, 1));
        assert!(d.has_edge(3, 1));
        assert!(!d.has_edge(1, 3));
    }

    #[test]
    fn num_edges_counts_overlay() {
        let mut d = DynamicGraph::new(base());
        assert_eq!(d.num_edges(), 2);
        d.insert_edge(0, 2);
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn deletions_mask_base_and_overlay_edges() {
        let mut d = DynamicGraph::new(base());
        assert!(d.remove_edge(0, 1), "base edge");
        assert!(!d.has_edge(0, 1));
        assert!(!d.remove_edge(0, 1), "already deleted");
        assert_eq!(d.num_edges(), 1);

        assert!(d.insert_edge(2, 3));
        assert!(d.remove_edge(2, 3), "overlay edge");
        assert!(!d.has_edge(2, 3));
        assert_eq!(d.inserted_edges().count(), 0);

        assert!(!d.remove_edge(3, 0), "never existed");
        assert!(!d.remove_edge(9, 0), "out of range returns false");
        assert!(!d.remove_edge(0, 9), "out of range returns false");

        let g = d.snapshot();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn reinserting_a_deleted_base_edge_restores_it() {
        let mut d = DynamicGraph::new(base());
        assert!(d.remove_edge(0, 1));
        assert!(d.insert_edge(0, 1));
        assert!(d.has_edge(0, 1));
        assert_eq!(d.num_edges(), 2);
        assert_eq!(
            d.inserted_edges().count(),
            0,
            "restored base edges are not overlay insertions"
        );
    }

    #[test]
    fn mutations_advance_the_version_and_rejections_do_not() {
        let mut d = DynamicGraph::new(base());
        let v0 = d.version();
        assert_eq!(v0, d.base().version());

        assert!(!d.insert_edge(0, 1));
        assert!(!d.remove_edge(3, 0));
        assert_eq!(d.version(), v0, "no-op mutations keep the version");

        assert!(d.insert_edge(2, 3));
        let v1 = d.version();
        assert!(v1 > v0);
        assert!(d.remove_edge(0, 1));
        assert!(d.version() > v1);
    }

    #[test]
    fn snapshots_share_the_version_until_the_next_mutation() {
        let mut d = DynamicGraph::new(base());
        d.insert_edge(2, 3);
        let a = d.snapshot();
        let b = d.snapshot();
        assert_eq!(a.version(), b.version());
        assert_eq!(a.version(), d.version());

        d.insert_edge(3, 0);
        let c = d.snapshot();
        assert_ne!(c.version(), a.version());
    }

    #[test]
    fn view_merges_base_and_overlay_in_ascending_order() {
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0, 1), (0, 3), (0, 5), (2, 0)]).unwrap();
        let mut d = DynamicGraph::new(b.finish());
        assert!(d.insert_edge(0, 4));
        assert!(d.insert_edge(0, 2));
        assert!(d.remove_edge(0, 3));
        let view = d.view();
        assert_eq!(out_of(&view, 0), vec![1, 2, 4, 5]);
        assert_eq!(in_of(&view, 0), vec![2]);
        assert!(d.insert_edge(4, 0));
        assert_eq!(in_of(&d.view(), 0), vec![2, 4]);
        assert_eq!(d.view().out_degree(0), 4);
        assert_eq!(d.view().in_degree(0), 2);
        assert_eq!(d.view().num_edges(), d.num_edges());
    }

    #[test]
    fn view_matches_snapshot_adjacency_under_churn() {
        let mut b = GraphBuilder::new(8);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 6)])
            .unwrap();
        let mut d = DynamicGraph::new(b.finish());
        let ops: [(bool, u32, u32); 9] = [
            (true, 0, 7),
            (true, 7, 1),
            (false, 1, 2),
            (true, 1, 2),
            (false, 0, 7),
            (true, 6, 0),
            (false, 5, 0),
            (true, 0, 3),
            (false, 1, 6),
        ];
        for (insert, u, v) in ops {
            if insert {
                d.insert_edge(u, v);
            } else {
                d.remove_edge(u, v);
            }
            let snap = d.snapshot();
            let view = d.view();
            for w in 0..8u32 {
                assert_eq!(out_of(&view, w), snap.out_neighbors(w), "out of {w}");
                assert_eq!(in_of(&view, w), snap.in_neighbors(w), "in of {w}");
            }
            assert_eq!(view.num_edges(), snap.num_edges());
        }
    }

    /// Test oracle for [`DynamicGraph::snapshot`]: the same graph through
    /// the general [`GraphBuilder`] path the fast snapshot replaced.
    fn snapshot_via_builder(d: &DynamicGraph) -> CsrGraph {
        let mut builder = GraphBuilder::new(d.base.num_vertices());
        builder
            .add_edges(d.base.edges().filter(|&(from, to)| d.has_edge(from, to)))
            .expect("base edges are valid");
        builder
            .add_edges(d.inserted_edges())
            .expect("overlay edges are valid");
        builder.finish()
    }

    #[test]
    fn fast_snapshot_equals_builder_snapshot() {
        let mut b = GraphBuilder::new(8);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 5)])
            .unwrap();
        let mut d = DynamicGraph::new(b.finish());
        d.insert_edge(5, 6);
        d.insert_edge(0, 4);
        d.remove_edge(1, 2);
        d.remove_edge(0, 4);
        d.insert_edge(1, 2); // restore
        let fast = d.snapshot();
        let slow = snapshot_via_builder(&d);
        assert_eq!(fast.num_edges(), slow.num_edges());
        assert_eq!(
            fast.edges().collect::<Vec<_>>(),
            slow.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn mutation_log_replays_the_delta() {
        let mut d = DynamicGraph::new(base());
        let v0 = d.version();
        d.insert_edge(2, 3);
        let v1 = d.version();
        d.remove_edge(0, 1);
        d.insert_edge(0, 1); // restore logs as an insertion
        let since_start: Vec<_> = d.mutations_since(v0).unwrap().collect();
        assert_eq!(
            since_start,
            vec![
                (EdgeMutation::Inserted, (2, 3)),
                (EdgeMutation::Removed, (0, 1)),
                (EdgeMutation::Inserted, (0, 1)),
            ]
        );
        let since_v1: Vec<_> = d.mutations_since(v1).unwrap().collect();
        assert_eq!(since_v1.len(), 2);
        assert_eq!(d.mutations_since(d.version()).unwrap().count(), 0);
    }

    #[test]
    fn clones_draw_a_fresh_lineage_but_keep_state_and_version() {
        let mut d = DynamicGraph::new(base());
        d.insert_edge(2, 3);
        let c = d.clone();
        assert_ne!(c.lineage(), d.lineage());
        assert_eq!(c.version(), d.version());
        assert_eq!(c.num_edges(), d.num_edges());
        assert!(c.has_edge(2, 3));
    }

    #[test]
    fn churned_insert_log_stays_bounded_by_live_overlay() {
        // Unbounded insert/remove churn with no live overlay edge left:
        // nothing of the churn may survive in the overlay.
        let mut b = GraphBuilder::new(64);
        b.add_edge(0, 1).unwrap();
        let mut d = DynamicGraph::new(b.finish());
        for round in 0..5_000u32 {
            let u = (round * 7 + 1) % 64;
            let v = (round * 13 + 2) % 64;
            if u != v {
                d.insert_edge(u, v);
                d.remove_edge(u, v);
            }
        }
        assert_eq!(d.inserted_edges().count(), 0);
        assert_eq!(d.num_edges(), 1);
        assert!((0..64).all(|v| d.view().out_degree(v) == d.base().out_degree(v)));
        assert_eq!(d.snapshot().num_edges(), d.num_edges());
    }

    #[test]
    fn removal_after_compaction_hits_the_right_slot() {
        // Removing most of a long delta list must leave the survivors
        // listed: each later removal must find the edge it names.
        let mut b = GraphBuilder::new(256);
        b.add_edge(0, 1).unwrap();
        let mut d = DynamicGraph::new(b.finish());
        for v in 2..200u32 {
            assert!(d.insert_edge(0, v));
        }
        // Remove most of them.
        for v in 2..190u32 {
            assert!(d.remove_edge(0, v));
        }
        for v in 190..200u32 {
            assert!(d.has_edge(0, v));
            assert!(d.remove_edge(0, v), "surviving edge {v} must be removable");
            assert!(!d.has_edge(0, v));
        }
        assert_eq!(d.inserted_edges().count(), 0);
        assert_eq!(d.num_edges(), 1);
    }

    #[test]
    fn mutation_log_truncates_beyond_capacity() {
        let n = 80usize;
        let mut b = GraphBuilder::new(n);
        b.add_edge(0, 1).unwrap();
        let mut d = DynamicGraph::new(b.finish());
        let v0 = d.version();
        // Insert+remove the same pool of edges repeatedly: more than
        // DELTA_LOG_CAPACITY mutations without unbounded state.
        let mut count = 0usize;
        'outer: loop {
            for u in 1..n as u32 - 1 {
                d.insert_edge(u, u + 1);
                d.remove_edge(u, u + 1);
                count += 2;
                if count > DELTA_LOG_CAPACITY + 10 {
                    break 'outer;
                }
            }
        }
        assert!(d.mutations_since(v0).is_none(), "window slid past v0");
        assert!(d.mutations_since(d.version()).is_some());
    }
}
