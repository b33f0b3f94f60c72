//! Uniform neighbor access over different graph representations.
//!
//! The PathEnum pipeline only ever asks a graph four questions: how many
//! vertices, how many edges, and "call me back for every out-/in-neighbor
//! of `v`". [`NeighborAccess`] captures exactly that surface so the
//! boundary BFS and the per-query index build can run unchanged over
//!
//! * a materialized [`CsrGraph`], and
//! * a borrowed [`OverlayView`](crate::dynamic::OverlayView) of a
//!   [`DynamicGraph`](crate::dynamic::DynamicGraph) — base CSR plus the
//!   insert/delete overlay, with **zero** per-query materialization.
//!
//! The trait uses callback-style iteration (`for_each_out`) instead of
//! returning iterators: implementations stay object-simple, callers
//! monomorphize, and an overlay can interleave its delta adjacency with
//! the base slices without allocating.
//!
//! # Iteration-order contract
//!
//! Implementations **must** yield neighbors in strictly ascending vertex
//! order. The enumeration algorithms derive their (deterministic) result
//! emission order from adjacency order, so equality of this order across
//! representations is what makes overlay execution return *path-for-path*
//! identical results to executing on a snapshot.

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Read-only neighbor access for a directed graph with dense vertex ids
/// `0..num_vertices`.
///
/// See the [module docs](self) for the iteration-order contract.
pub trait NeighborAccess {
    /// Number of vertices; vertex ids are `0..num_vertices`.
    fn num_vertices(&self) -> usize;

    /// Number of directed edges.
    fn num_edges(&self) -> usize;

    /// Calls `f` for every out-neighbor of `v`, ascending.
    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId));

    /// Calls `f` for every in-neighbor of `v` (sources of edges into
    /// `v`), ascending.
    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId));

    /// Whether the directed edge `(from, to)` exists.
    fn has_edge(&self, from: VertexId, to: VertexId) -> bool;

    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> usize {
        let mut n = 0;
        self.for_each_out(v, |_| n += 1);
        n
    }

    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize {
        let mut n = 0;
        self.for_each_in(v, |_| n += 1);
        n
    }
}

impl NeighborAccess for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn for_each_out(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        for &n in self.out_neighbors(v) {
            f(n);
        }
    }

    #[inline]
    fn for_each_in(&self, v: VertexId, mut f: impl FnMut(VertexId)) {
        for &n in self.in_neighbors(v) {
            f(n);
        }
    }

    #[inline]
    fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        CsrGraph::has_edge(self, from, to)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        CsrGraph::out_degree(self, v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        CsrGraph::in_degree(self, v)
    }
}

/// Shared graphs answer through the inner representation, so call
/// sites holding an `Arc` plug into the generic engines directly.
impl<G: NeighborAccess> NeighborAccess for std::sync::Arc<G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    #[inline]
    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId)) {
        (**self).for_each_out(v, f);
    }

    #[inline]
    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId)) {
        (**self).for_each_in(v, f);
    }

    #[inline]
    fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        (**self).has_edge(from, to)
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        (**self).out_degree(v)
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        (**self).in_degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn collect_out<G: NeighborAccess>(g: &G, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        g.for_each_out(v, |n| out.push(n));
        out
    }

    #[test]
    fn csr_trait_impl_matches_inherent_methods() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let g = b.finish();
        assert_eq!(NeighborAccess::num_vertices(&g), 4);
        assert_eq!(NeighborAccess::num_edges(&g), 4);
        assert_eq!(collect_out(&g, 0), vec![1, 2]);
        let mut ins = Vec::new();
        g.for_each_in(3, |n| ins.push(n));
        assert_eq!(ins, vec![1, 2]);
        assert!(NeighborAccess::has_edge(&g, 0, 1));
        assert!(!NeighborAccess::has_edge(&g, 1, 0));
        assert_eq!(NeighborAccess::out_degree(&g, 0), 2);
        assert_eq!(NeighborAccess::in_degree(&g, 3), 2);
    }
}
