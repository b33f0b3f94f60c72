//! Deterministic graph families with analytically known path counts.
//!
//! These are the reference substrates for correctness and estimator tests:
//! on a complete digraph or a layered DAG the exact number of
//! hop-constrained s-t paths has a closed form, so enumerator output can be
//! validated without a second enumerator.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Complete digraph `K_n`: every ordered pair `(u, v)`, `u != v`.
///
/// The number of s-t paths with at most `k` edges is
/// `sum_{l=1..=k} (n-2)! / (n-1-l)!` (choose and order the `l - 1`
/// intermediate vertices).
pub fn complete_digraph(n: usize) -> CsrGraph {
    let mut builder = GraphBuilder::new(n);
    builder.reserve(n * n.saturating_sub(1));
    for from in 0..n as VertexId {
        for to in 0..n as VertexId {
            if from != to {
                builder.add_edge(from, to).expect("in-range, non-loop edge");
            }
        }
    }
    builder.finish()
}

/// Directed grid of `rows x cols` vertices with edges right and down.
///
/// Vertex `(r, c)` has id `r * cols + c`. The number of paths from the
/// top-left to the bottom-right is the binomial coefficient
/// `C(rows - 1 + cols - 1, rows - 1)`, and every such path has exactly
/// `rows + cols - 2` edges — handy for hop-constraint boundary tests.
pub fn directed_grid(rows: usize, cols: usize) -> CsrGraph {
    assert!(rows >= 1 && cols >= 1);
    let n = rows * cols;
    let mut builder = GraphBuilder::new(n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder
                    .add_edge(id(r, c), id(r, c + 1))
                    .expect("in-range edge");
            }
            if r + 1 < rows {
                builder
                    .add_edge(id(r, c), id(r + 1, c))
                    .expect("in-range edge");
            }
        }
    }
    builder.finish()
}

/// Layered DAG: a source, `layers` layers of `width` vertices, and a sink.
///
/// Each vertex connects to `fanout` distinct random vertices of the next
/// layer (the source to `fanout` vertices of layer 0, the last layer fully
/// to the sink). Every source-to-sink path has exactly `layers + 1` edges
/// and the walk count equals the path count (no vertex repeats are
/// possible), which makes this family ideal for validating the full-fledged
/// estimator's exact-on-walks property in the δP = δW regime.
///
/// Returns `(graph, source, sink)`.
pub fn layered_dag(
    layers: usize,
    width: usize,
    fanout: usize,
    seed: u64,
) -> (CsrGraph, VertexId, VertexId) {
    assert!(layers >= 1 && width >= 1);
    let fanout = fanout.clamp(1, width);
    let n = 2 + layers * width;
    let source: VertexId = 0;
    let sink: VertexId = (n - 1) as VertexId;
    let layer_vertex = |layer: usize, slot: usize| (1 + layer * width + slot) as VertexId;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    let mut slots: Vec<usize> = (0..width).collect();

    let mut connect =
        |builder: &mut GraphBuilder, from: VertexId, layer: usize, rng: &mut StdRng| {
            slots.shuffle(rng);
            for &slot in slots.iter().take(fanout) {
                builder
                    .add_edge(from, layer_vertex(layer, slot))
                    .expect("in-range edge");
            }
        };

    connect(&mut builder, source, 0, &mut rng);
    for layer in 0..layers - 1 {
        for slot in 0..width {
            let from = layer_vertex(layer, slot);
            connect(&mut builder, from, layer + 1, &mut rng);
        }
    }
    for slot in 0..width {
        builder
            .add_edge(layer_vertex(layers - 1, slot), sink)
            .expect("in-range edge");
    }
    (builder.finish(), source, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_digraph_has_all_ordered_pairs() {
        let g = complete_digraph(6);
        assert_eq!(g.num_edges(), 30);
        assert!(g.has_edge(0, 5));
        assert!(g.has_edge(5, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn grid_shape_and_degrees() {
        let g = directed_grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // Edges: right: 3 rows x 3 = 9; down: 2 x 4 = 8.
        assert_eq!(g.num_edges(), 17);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(11), 0);
    }

    #[test]
    fn layered_dag_has_expected_structure() {
        let (g, source, sink) = layered_dag(3, 5, 2, 17);
        assert_eq!(g.num_vertices(), 17);
        assert_eq!(g.out_degree(source), 2);
        assert_eq!(g.out_degree(sink), 0);
        // Last layer connects fully to sink.
        assert_eq!(g.in_degree(sink), 5);
        // All source-sink paths have exactly layers + 1 = 4 edges.
        let d = crate::bfs::st_distance(&g, source, sink, 10);
        assert_eq!(d, 4);
    }

    #[test]
    fn layered_dag_deterministic() {
        let (a, _, _) = layered_dag(2, 4, 3, 5);
        let (b, _, _) = layered_dag(2, 4, 3, 5);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
