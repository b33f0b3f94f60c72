//! The paper's degree-based vertex partition.

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Splits the vertex set into the paper's `V'` (top `fraction` by total
/// degree, descending) and `V''` (the rest).
///
/// Ties at the cut are broken by vertex id to keep the split deterministic.
/// Returns `(high_degree, low_degree)`.
pub fn degree_split(graph: &CsrGraph, fraction: f64) -> (Vec<VertexId>, Vec<VertexId>) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be in [0, 1]"
    );
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.sort_unstable_by(|&a, &b| {
        graph
            .degree(b)
            .cmp(&graph.degree(a))
            .then_with(|| a.cmp(&b))
    });
    let cut = ((graph.num_vertices() as f64) * fraction).round() as usize;
    let cut = cut.min(order.len());
    let low = order.split_off(cut);
    (order, low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star_plus_chain() -> CsrGraph {
        // Vertex 0 is a hub with 5 out-edges; 6..8 form a chain; 9 isolated.
        let mut b = GraphBuilder::new(10);
        b.add_edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (6, 7), (7, 8)])
            .unwrap();
        b.finish()
    }

    #[test]
    fn split_puts_hub_in_high_partition() {
        let g = star_plus_chain();
        let (high, low) = degree_split(&g, 0.1);
        assert_eq!(high, vec![0]);
        assert_eq!(low.len(), 9);
        assert!(!low.contains(&0));
    }

    #[test]
    fn split_fraction_bounds() {
        let g = star_plus_chain();
        let (high, low) = degree_split(&g, 1.0);
        assert_eq!(high.len(), 10);
        assert!(low.is_empty());
        let (high, low) = degree_split(&g, 0.0);
        assert!(high.is_empty());
        assert_eq!(low.len(), 10);
    }

    #[test]
    fn split_is_deterministic_under_ties() {
        let mut b = GraphBuilder::new(4);
        b.add_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let g = b.finish();
        let (high1, _) = degree_split(&g, 0.5);
        let (high2, _) = degree_split(&g, 0.5);
        assert_eq!(high1, high2);
        assert_eq!(high1, vec![0, 1]); // all degree-2; id order breaks ties
    }
}
