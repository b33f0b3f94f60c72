//! One shareable handle over every graph representation the engines
//! serve.
//!
//! The serving layer (`GraphCatalog`) used to own
//! an `Arc<CsrGraph>` — which hard-wired them to the heap
//! representation just as [`FrozenGraph`] made
//! borrowed/mapped storage real. [`GraphHandle`] closes that gap: a
//! cheap-to-clone enum of `Arc`'d representations that implements
//! [`NeighborAccess`] by direct dispatch, so a catalog can `register`
//! heap, frozen, and overlay-backed graphs uniformly while planning
//! and execution stay monomorphized over the trait.
//!
//! [`GraphSnapshot`] is the companion capability the engines need
//! beyond adjacency: a [`GraphVersion`] epoch identifying the edge set,
//! which is what keys every cache layer. Immutable representations
//! return their construction/load version; a dynamic handle reports
//! the overlay's current version, so cached plans stamped before a
//! mutation are correctly invalidated. A graph that also keeps its own
//! mutation history offers it through
//! [`GraphSnapshot::mutation_log`], which lets a cache re-validate a
//! version-stale entry against the delta instead of discarding it.

use std::sync::Arc;

use crate::csr::CsrGraph;
use crate::dynamic::DynamicGraph;
use crate::frozen::FrozenGraph;
use crate::types::VertexId;
use crate::version::GraphVersion;
use crate::view::NeighborAccess;

/// A versioned, queryable edge set: the full capability surface the
/// engines require of a graph (adjacency + cache-keying epoch).
pub trait GraphSnapshot: NeighborAccess {
    /// The version epoch of the edge set answers are computed against.
    fn version(&self) -> GraphVersion;

    /// The graph's own mutation history, when it keeps one: the lineage
    /// and bounded delta log a cache needs to prove that an entry
    /// stamped at an older version is untouched by the mutations since
    /// (see [`DynamicGraph::mutations_since`]). Immutable
    /// representations have no history and return `None`, so their
    /// stale entries are simply invalidated. [`GraphHandle`] returns
    /// `None` for every variant, overlay-backed ones included: shared
    /// handles are republished, not mutated in place.
    #[inline]
    fn mutation_log(&self) -> Option<&DynamicGraph> {
        None
    }
}

impl GraphSnapshot for CsrGraph {
    #[inline]
    fn version(&self) -> GraphVersion {
        CsrGraph::version(self)
    }
}

impl GraphSnapshot for FrozenGraph {
    #[inline]
    fn version(&self) -> GraphVersion {
        FrozenGraph::version(self)
    }
}

/// A dynamic graph is served in place (through its O(1)
/// [`view`](DynamicGraph::view)) and is the one representation with a
/// mutation log to offer.
impl GraphSnapshot for DynamicGraph {
    #[inline]
    fn version(&self) -> GraphVersion {
        DynamicGraph::version(self)
    }

    #[inline]
    fn mutation_log(&self) -> Option<&DynamicGraph> {
        Some(self)
    }
}

impl GraphSnapshot for crate::dynamic::OverlayView<'_> {
    #[inline]
    fn version(&self) -> GraphVersion {
        crate::dynamic::OverlayView::version(self)
    }
}

/// A shared, cheaply cloneable graph of any representation. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub enum GraphHandle {
    /// A heap-resident CSR graph — the mutable-era default.
    Heap(Arc<CsrGraph>),
    /// A zero-copy `PEG2` image served in place.
    Frozen(Arc<FrozenGraph>),
    /// A dynamic graph queried through its overlay view. The handle
    /// shares the graph read-only; mutation happens wherever the
    /// `DynamicGraph` is still exclusively owned, after which a fresh
    /// handle (and version) is published.
    Dynamic(Arc<DynamicGraph>),
}

impl GraphHandle {
    /// The version epoch of the underlying edge set.
    #[inline]
    pub fn version(&self) -> GraphVersion {
        match self {
            GraphHandle::Heap(g) => g.version(),
            GraphHandle::Frozen(g) => g.version(),
            GraphHandle::Dynamic(g) => g.version(),
        }
    }

    /// A short human label of the representation, for logs and stats.
    pub fn representation(&self) -> &'static str {
        match self {
            GraphHandle::Heap(_) => "heap-csr",
            GraphHandle::Frozen(_) => "frozen",
            GraphHandle::Dynamic(_) => "dynamic-overlay",
        }
    }
}

impl NeighborAccess for GraphHandle {
    #[inline]
    fn num_vertices(&self) -> usize {
        match self {
            GraphHandle::Heap(g) => g.num_vertices(),
            GraphHandle::Frozen(g) => g.num_vertices(),
            GraphHandle::Dynamic(g) => g.num_vertices(),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            GraphHandle::Heap(g) => g.num_edges(),
            GraphHandle::Frozen(g) => g.num_edges(),
            GraphHandle::Dynamic(g) => g.num_edges(),
        }
    }

    #[inline]
    fn for_each_out(&self, v: VertexId, f: impl FnMut(VertexId)) {
        match self {
            GraphHandle::Heap(g) => NeighborAccess::for_each_out(g.as_ref(), v, f),
            GraphHandle::Frozen(g) => g.for_each_out(v, f),
            GraphHandle::Dynamic(g) => g.view().for_each_out(v, f),
        }
    }

    #[inline]
    fn for_each_in(&self, v: VertexId, f: impl FnMut(VertexId)) {
        match self {
            GraphHandle::Heap(g) => NeighborAccess::for_each_in(g.as_ref(), v, f),
            GraphHandle::Frozen(g) => g.for_each_in(v, f),
            GraphHandle::Dynamic(g) => g.view().for_each_in(v, f),
        }
    }

    #[inline]
    fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        match self {
            GraphHandle::Heap(g) => g.has_edge(from, to),
            GraphHandle::Frozen(g) => NeighborAccess::has_edge(g.as_ref(), from, to),
            GraphHandle::Dynamic(g) => g.has_edge(from, to),
        }
    }

    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        match self {
            GraphHandle::Heap(g) => g.out_degree(v),
            GraphHandle::Frozen(g) => NeighborAccess::out_degree(g.as_ref(), v),
            GraphHandle::Dynamic(g) => g.view().out_degree(v),
        }
    }

    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        match self {
            GraphHandle::Heap(g) => g.in_degree(v),
            GraphHandle::Frozen(g) => NeighborAccess::in_degree(g.as_ref(), v),
            GraphHandle::Dynamic(g) => g.view().in_degree(v),
        }
    }
}

impl GraphSnapshot for GraphHandle {
    #[inline]
    fn version(&self) -> GraphVersion {
        GraphHandle::version(self)
    }
}

impl From<Arc<CsrGraph>> for GraphHandle {
    fn from(graph: Arc<CsrGraph>) -> Self {
        GraphHandle::Heap(graph)
    }
}

impl From<CsrGraph> for GraphHandle {
    fn from(graph: CsrGraph) -> Self {
        GraphHandle::Heap(Arc::new(graph))
    }
}

impl From<Arc<FrozenGraph>> for GraphHandle {
    fn from(graph: Arc<FrozenGraph>) -> Self {
        GraphHandle::Frozen(graph)
    }
}

impl From<FrozenGraph> for GraphHandle {
    fn from(graph: FrozenGraph) -> Self {
        GraphHandle::Frozen(Arc::new(graph))
    }
}

impl From<Arc<DynamicGraph>> for GraphHandle {
    fn from(graph: Arc<DynamicGraph>) -> Self {
        GraphHandle::Dynamic(graph)
    }
}

impl From<DynamicGraph> for GraphHandle {
    fn from(graph: DynamicGraph) -> Self {
        GraphHandle::Dynamic(Arc::new(graph))
    }
}

/// Shared snapshots report the inner representation's version, so an
/// `Arc<CsrGraph>`/`Arc<FrozenGraph>` is itself a [`GraphSnapshot`].
impl<G: GraphSnapshot> GraphSnapshot for Arc<G> {
    #[inline]
    fn version(&self) -> GraphVersion {
        (**self).version()
    }

    #[inline]
    fn mutation_log(&self) -> Option<&DynamicGraph> {
        (**self).mutation_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::io_binary::{read_frozen, write_frozen};

    fn rows(g: &impl NeighborAccess, v: VertexId) -> (Vec<VertexId>, Vec<VertexId>) {
        let (mut out, mut inn) = (Vec::new(), Vec::new());
        g.for_each_out(v, |n| out.push(n));
        g.for_each_in(v, |n| inn.push(n));
        (out, inn)
    }

    #[test]
    fn all_representations_agree_on_adjacency() {
        let g = erdos_renyi(50, 300, 11);
        let mut image = Vec::new();
        write_frozen(&g, &mut image).unwrap();
        let frozen = GraphHandle::from(read_frozen(image.as_slice()).unwrap());
        let dynamic = GraphHandle::from(DynamicGraph::new(g.clone()));
        let heap = GraphHandle::from(g.clone());
        for v in 0..50u32 {
            let expected = rows(&g, v);
            assert_eq!(rows(&heap, v), expected, "heap v={v}");
            assert_eq!(rows(&frozen, v), expected, "frozen v={v}");
            assert_eq!(rows(&dynamic, v), expected, "dynamic v={v}");
            assert_eq!(heap.out_degree(v), expected.0.len());
            assert_eq!(frozen.in_degree(v), expected.1.len());
        }
        assert_eq!(heap.num_edges(), g.num_edges());
        assert_eq!(frozen.num_edges(), g.num_edges());
        assert_eq!(dynamic.num_edges(), g.num_edges());
    }

    #[test]
    fn versions_track_the_underlying_representation() {
        let g = erdos_renyi(10, 40, 1);
        let version = g.version();
        let heap = GraphHandle::from(g.clone());
        assert_eq!(heap.version(), version);
        assert_eq!(GraphSnapshot::version(&heap), version);

        let dynamic = DynamicGraph::new(g);
        let dynamic_version = dynamic.version();
        let handle = GraphHandle::from(dynamic);
        assert_eq!(handle.version(), dynamic_version);
    }

    #[test]
    fn representation_labels() {
        let g = erdos_renyi(5, 10, 2);
        assert_eq!(GraphHandle::from(g.clone()).representation(), "heap-csr");
        let mut image = Vec::new();
        write_frozen(&g, &mut image).unwrap();
        let frozen = read_frozen(image.as_slice()).unwrap();
        assert_eq!(GraphHandle::from(frozen).representation(), "frozen");
        assert_eq!(
            GraphHandle::from(DynamicGraph::new(g)).representation(),
            "dynamic-overlay"
        );
    }
}
