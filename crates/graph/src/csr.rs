//! Immutable compressed-sparse-row digraph with forward and reverse adjacency.

use crate::types::{Edge, VertexId};
use crate::version::GraphVersion;

/// An immutable directed graph in CSR form.
///
/// Both out-neighbor and in-neighbor adjacency are materialized because the
/// PathEnum index needs BFS from `s` along forward edges *and* BFS from `t`
/// along reverse edges, and the backward neighbor table of the full-fledged
/// estimator iterates in-neighbors.
///
/// Neighbor lists are sorted ascending, which makes `has_edge` a binary
/// search and keeps iteration cache-friendly.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_vertices: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
    /// Epoch identifying this edge set; see [`GraphVersion`]. Fresh per
    /// construction (clones keep it — they are the same edge set).
    version: GraphVersion,
}

impl CsrGraph {
    /// Builds from edges that are already sorted by `(from, to)` and
    /// deduplicated. [`crate::GraphBuilder::finish`] guarantees this.
    pub(crate) fn from_sorted_dedup_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut out_offsets = vec![0usize; num_vertices + 1];
        for &(from, _) in edges {
            out_offsets[from as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<VertexId> = edges.iter().map(|&(_, to)| to).collect();

        let mut in_offsets = vec![0usize; num_vertices + 1];
        for &(_, to) in edges {
            in_offsets[to as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as VertexId; edges.len()];
        for &(from, to) in edges {
            let slot = cursor[to as usize];
            in_sources[slot] = from;
            cursor[to as usize] += 1;
        }
        // Edges were sorted by (from, to); filling in_sources in that order
        // already yields sorted in-neighbor lists, since sources are visited
        // in ascending order for each target.
        CsrGraph {
            num_vertices,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            version: GraphVersion::next(),
        }
    }

    /// The version epoch of this graph's edge set. Cache entries keyed by
    /// a graph should record this and treat a mismatch as stale.
    #[inline]
    pub fn version(&self) -> GraphVersion {
        self.version
    }

    /// Stamps an externally managed version (used by
    /// [`DynamicGraph::snapshot`](crate::DynamicGraph::snapshot) so that
    /// snapshots of an unmutated overlay share a version and stay
    /// cache-compatible).
    pub(crate) fn set_version(&mut self, version: GraphVersion) {
        self.version = version;
    }

    /// The raw CSR arrays `(out_offsets, out_targets, in_offsets,
    /// in_sources)` — what the `PEG2` writer serializes verbatim.
    pub(crate) fn csr_parts(&self) -> (&[usize], &[VertexId], &[usize], &[VertexId]) {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
        )
    }

    /// Number of vertices; vertex ids are `0..num_vertices`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v` (sources of edges into `v`), sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total degree (in + out) of `v`; the paper's query generator splits
    /// vertices by this.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Whether the directed edge `(from, to)` exists.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.out_neighbors(from).binary_search(&to).is_ok()
    }

    /// Iterator over all edges in `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&to| (v, to)))
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices as VertexId
    }

    /// The reverse graph `G^r` (every edge flipped) as a new `CsrGraph`.
    ///
    /// The enumeration algorithms use the embedded reverse adjacency
    /// instead; this is provided for tests and for callers that need a
    /// standalone reversed graph.
    pub fn reversed(&self) -> CsrGraph {
        let mut edges: Vec<Edge> = self.edges().map(|(a, b)| (b, a)).collect();
        edges.sort_unstable();
        CsrGraph::from_sorted_dedup_edges(self.num_vertices, &edges)
    }

    /// Approximate heap footprint in bytes (for the memory experiments).
    pub fn heap_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_sources.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        b.finish()
    }

    #[test]
    fn adjacency_is_correct_and_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn degrees_match_adjacency() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn has_edge_agrees_with_lists() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_yields_all_edges_in_order() {
        let g = diamond();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reversed_flips_every_edge() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        for (a, b) in g.edges() {
            assert!(r.has_edge(b, a));
        }
        assert_eq!(r.out_neighbors(3), &[1, 2]);
    }

    #[test]
    fn in_neighbors_are_sorted() {
        // Insert edges in an order that stresses the reverse fill.
        let mut b = GraphBuilder::new(5);
        b.add_edges([(4, 2), (1, 2), (3, 2), (0, 2)]).unwrap();
        let g = b.finish();
        assert_eq!(g.in_neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn heap_bytes_is_nonzero_for_nonempty_graph() {
        let g = diamond();
        assert!(g.heap_bytes() > 0);
    }
}
