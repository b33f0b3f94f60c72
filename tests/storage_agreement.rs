//! Storage representations must be indistinguishable from the heap CSR
//! graph: for random graphs, a [`FrozenGraph`] loaded from a `PEG2`
//! image serves *identical* adjacency — same neighbors, same strictly
//! ascending order, same degrees — which is what makes enumeration
//! results byte-identical across representations, and one proptest
//! executes requests on both to say so directly. A `PEG1` stream
//! round-trips a graph exactly. Compressed cache footprints
//! ([`CompactBits`]) must agree with the dense oracle ([`DenseBits`]) on
//! every membership decision a retention check could make, and corrupted
//! or truncated serialized streams must fail loudly (or, where a format
//! carries no checksum for a region, at worst round-trip to a graph —
//! never panic).

use proptest::prelude::*;

use pathenum_repro::graph::io_binary::{read_binary, read_frozen, write_frozen};
use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v && u < n && v < n {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn frozen_from(graph: &CsrGraph) -> FrozenGraph {
    let mut image = Vec::new();
    write_frozen(graph, &mut image).expect("in-memory write");
    read_frozen(image.as_slice()).expect("round trip")
}

/// `PEG1` bytes for a graph: magic, vertex and edge counts as `u64`,
/// then the sorted `u32` pairs.
fn peg1_bytes(graph: &CsrGraph) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + graph.num_edges() * 8);
    out.extend_from_slice(b"PEG1");
    out.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
    out.extend_from_slice(&(graph.num_edges() as u64).to_le_bytes());
    for (from, to) in graph.edges() {
        out.extend_from_slice(&from.to_le_bytes());
        out.extend_from_slice(&to.to_le_bytes());
    }
    out
}

fn out_row(g: &impl NeighborAccess, v: VertexId) -> Vec<VertexId> {
    let mut row = Vec::new();
    g.for_each_out(v, |n| row.push(n));
    row
}

fn in_row(g: &impl NeighborAccess, v: VertexId) -> Vec<VertexId> {
    let mut row = Vec::new();
    g.for_each_in(v, |n| row.push(n));
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Adjacency identity across representations, including the
    /// iteration-order contract every deterministic-results guarantee
    /// rests on: rows come out strictly ascending, identically, from
    /// the heap CSR and the frozen image.
    #[test]
    fn frozen_adjacency_is_identical_and_strictly_ascending(
        n in 1u32..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..200),
    ) {
        let graph = graph_from_edges(n, &edges);
        let frozen = frozen_from(&graph);
        prop_assert_eq!(frozen.num_vertices(), graph.num_vertices());
        prop_assert_eq!(frozen.num_edges(), graph.num_edges());
        for v in 0..n {
            let out = out_row(&frozen, v);
            let inn = in_row(&frozen, v);
            prop_assert_eq!(&out, &out_row(&graph, v).to_vec(), "out row of {}", v);
            prop_assert_eq!(&inn, &in_row(&graph, v).to_vec(), "in row of {}", v);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "out row of {} ascends", v);
            prop_assert!(inn.windows(2).all(|w| w[0] < w[1]), "in row of {} ascends", v);
            prop_assert_eq!(frozen.out_degree(v), graph.out_degree(v));
            prop_assert_eq!(frozen.in_degree(v), graph.in_degree(v));
            for w in 0..n {
                prop_assert_eq!(frozen.has_edge(v, w), graph.has_edge(v, w));
            }
        }
    }

    /// [`GraphHandle`] dispatch preserves the same identity for every
    /// representation a catalog can register.
    #[test]
    fn graph_handle_dispatch_matches_inner_representation(
        n in 1u32..25,
        edges in proptest::collection::vec((0u32..25, 0u32..25), 0..120),
    ) {
        let graph = graph_from_edges(n, &edges);
        let handles = [
            GraphHandle::from(graph.clone()),
            GraphHandle::from(frozen_from(&graph)),
            GraphHandle::from(DynamicGraph::new(graph.clone())),
        ];
        for handle in &handles {
            prop_assert_eq!(handle.num_edges(), graph.num_edges());
            for v in 0..n {
                prop_assert_eq!(
                    out_row(handle, v),
                    out_row(&graph, v),
                    "{} out row of {}", handle.representation(), v
                );
                prop_assert_eq!(
                    in_row(handle, v),
                    in_row(&graph, v),
                    "{} in row of {}", handle.representation(), v
                );
            }
        }
    }

    /// Served paths across representations: one request executed on the
    /// heap CSR and the frozen image, each behind a [`GraphHandle`],
    /// returns the same paths in the same order under both forced
    /// methods.
    #[test]
    fn requests_on_frozen_graphs_return_the_heap_paths_in_order(
        n in 3u32..10,
        edges in proptest::collection::vec((0u32..10, 0u32..10), 10..90),
        k in 2u32..6,
    ) {
        let graph = graph_from_edges(n, &edges);
        let handles = [
            GraphHandle::from(graph.clone()),
            GraphHandle::from(frozen_from(&graph)),
        ];
        for method in [Method::IdxDfs, Method::IdxJoin] {
            let request = QueryRequest::paths(0, n - 1)
                .max_hops(k)
                .method(method)
                .collect_paths(true);
            let served = handles.each_ref().map(|handle| {
                QueryEngine::new(handle, PathEnumConfig::default())
                    .execute(&request)
                    .expect("endpoints are in range")
            });
            for (response, handle) in served.iter().zip(&handles).skip(1) {
                prop_assert_eq!(
                    &response.paths,
                    &served[0].paths,
                    "{} under {}", handle.representation(), method
                );
                prop_assert_eq!(response.termination, served[0].termination);
            }
        }
    }

    /// Footprint decision equivalence under mutation streams: every
    /// membership decision the cache-retention checks derive from a
    /// reach set — `contains(u)`, `contains(u) && contains(w)` — is
    /// identical between the compressed set and the dense oracle, for
    /// arbitrary build sets and arbitrary probe streams.
    #[test]
    fn compact_footprints_decide_like_the_dense_oracle(
        mut ids in proptest::collection::vec(0u32..200_000, 0..400),
        probes in proptest::collection::vec((0u32..200_000, 0u32..200_000), 0..200),
    ) {
        let compact = CompactBits::from_ids(&mut ids);
        let mut dense = DenseBits::default();
        for &v in &ids {
            dense.insert(v);
        }
        prop_assert_eq!(compact.cardinality(), ids.len());
        for &(u, w) in &probes {
            prop_assert_eq!(compact.contains(u), dense.contains(u), "contains({})", u);
            // The removal-retention decision shape: both endpoints.
            prop_assert_eq!(
                compact.contains(u) && compact.contains(w),
                dense.contains(u) && dense.contains(w),
                "removal decision ({}, {})", u, w
            );
        }
        for &v in &ids {
            prop_assert!(compact.contains(v), "member {}", v);
        }
    }

    /// Corrupt-stream fuzzing, `PEG2`: flipping any single byte of a
    /// serialized image either fails the load (checksum or structural
    /// validation) or — only where the flip cannot change meaning —
    /// yields a graph with identical adjacency. Never a panic, never a
    /// silently different graph.
    #[test]
    fn peg2_byte_flips_never_yield_a_different_graph(
        n in 1u32..20,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 0..60),
        flip_pos in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let graph = graph_from_edges(n, &edges);
        let mut image = Vec::new();
        write_frozen(&graph, &mut image).expect("in-memory write");
        let pos = flip_pos % image.len();
        image[pos] ^= 1 << flip_bit;
        if let Ok(frozen) = read_frozen(image.as_slice()) {
            prop_assert_eq!(frozen.num_vertices(), graph.num_vertices());
            prop_assert_eq!(frozen.num_edges(), graph.num_edges());
            for v in 0..n {
                prop_assert_eq!(out_row(&frozen, v), out_row(&graph, v), "out row of {}", v);
                prop_assert_eq!(in_row(&frozen, v), in_row(&graph, v), "in row of {}", v);
            }
        }
    }

    /// Corrupt-stream fuzzing, truncation: a prefix of a serialized
    /// stream is an error for both formats — `PEG1` (the claimed edge
    /// count outruns the bytes) and `PEG2` (section table outruns the
    /// buffer) — never a panic, never a partial graph.
    #[test]
    fn truncated_streams_fail_loudly_in_both_formats(
        n in 1u32..20,
        edges in proptest::collection::vec((0u32..20, 0u32..20), 1..60),
        cut in 0usize..4096,
    ) {
        let graph = graph_from_edges(n, &edges);
        prop_assume!(graph.num_edges() > 0);

        let peg1 = peg1_bytes(&graph);
        let cut1 = cut % peg1.len();
        prop_assert!(read_binary(&peg1[..cut1]).is_err(), "PEG1 cut at {}", cut1);

        let mut peg2 = Vec::new();
        write_frozen(&graph, &mut peg2).expect("in-memory write");
        let cut2 = cut % peg2.len();
        prop_assert!(read_frozen(&peg2[..cut2]).is_err(), "PEG2 cut at {}", cut2);
    }
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (4u32..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..60);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_io_roundtrips_arbitrary_graphs((n, edges) in arb_graph()) {
        let g = graph_from_edges(n, &edges);
        let back = read_binary(peg1_bytes(&g).as_slice()).expect("roundtrip");
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }
}
