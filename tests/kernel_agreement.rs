//! Kernel-differential suite: every optimized hot-path kernel is pinned
//! against a retained naive oracle.
//!
//! The production kernels (epoch-stamped boundary BFS, the iterative
//! IDX-DFS, the arena-backed IDX-JOIN) must be *byte-identical* to their
//! straightforward counterparts — same paths in the same emission order,
//! same [`Counters`] — on arbitrary graphs. The
//! suite also pins the `NeighborAccess` ascending-order contract that the
//! byte-identical guarantee is built on, and the zero-allocation
//! steady-state of the per-thread scratch arena.
//!
//! Index construction is pinned the same way: the boundary sweep and the
//! flat table fill must produce, on heap, frozen and overlay graphs, the
//! index of the build they replaced — two independent depth-`k` BFS
//! passes, an ascending scan for `X`, per-vertex lists comparison-sorted
//! by `(distance, id)` — which lives on here as [`two_pass_model`]. (That
//! the pipeline's full-reach build leaves exactly the two-pass maps in
//! its scratch is checked where the scratch is visible, in
//! `pathenum::index::build`'s unit tests.)
//!
//! Rows read on demand are pinned against the eager index: IDX-DFS over a
//! labels-only index ([`Index::build_labels`]), filling each row from the
//! graph the first time it expands the row's owner, must emit exactly
//! what [`idx_dfs_iterative`] emits on [`Index::build`] — paths, order,
//! counters — at every result limit, on heap and frozen storage; and
//! completing a labels-only index must yield that index.
//!
//! Count-only delivery is pinned against per-path delivery: a kernel
//! running into a [`CountingSink`] counts exactly the paths, and adds
//! exactly the counters, it emits one by one into a [`CollectingSink`].

use std::collections::VecDeque;

use proptest::prelude::*;

use pathenum_repro::core::enumerate::{
    idx_dfs, idx_dfs_iterative, idx_dfs_on_demand, idx_join, idx_join_reference,
    thread_scratch_heap_bytes,
};
use pathenum_repro::core::index::{BuildScratch, LocalId, NeighborTable};
use pathenum_repro::graph::bfs::{
    boundary_sweep, distances_epoch_into, distances_from_source, distances_into,
    distances_to_target, BfsOptions, Direction, SweepSplit,
};
use pathenum_repro::graph::generators::{erdos_renyi, power_law, PowerLawConfig};
use pathenum_repro::graph::io_binary::{read_frozen, write_frozen};
use pathenum_repro::graph::types::Distance;
use pathenum_repro::graph::{EpochMap, INFINITE_DISTANCE};
use pathenum_repro::prelude::*;

/// Builds a graph from a raw edge list, ignoring self-loops.
fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (4u32..16).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..80);
        (Just(n), edges)
    })
}

fn frozen_from(graph: &CsrGraph) -> FrozenGraph {
    let mut image = Vec::new();
    write_frozen(graph, &mut image).expect("in-memory write");
    read_frozen(image.as_slice()).expect("round trip")
}

/// Everything an [`Index`] holds, as its public accessors show it:
/// vertices and both distance arrays in local-id order, every
/// `I_t(v, b)` slice (hence the table's neighbor order, row starts and
/// cuts), and the per-level statistics — plus every `I_s(v, b)` slice of
/// the backward table it derives by transposing `I_t`, which the oracle
/// fills from the graph's in-adjacency as Algorithm 3 does.
#[derive(Debug, Default, PartialEq)]
struct IndexModel {
    endpoints: Option<(LocalId, LocalId)>,
    vertices: Vec<VertexId>,
    dist_s: Vec<Distance>,
    dist_t: Vec<Distance>,
    /// `[owner][budget]` -> the lookup's slice.
    fwd: Vec<Vec<Vec<LocalId>>>,
    bwd: Vec<Vec<Vec<LocalId>>>,
    level_sizes: Vec<u64>,
    level_expansion: Vec<u64>,
}

fn observe(index: &Index) -> IndexModel {
    let k = index.k();
    let backward = index.backward_table();
    let locals = 0..index.num_vertices() as LocalId;
    let rows = |lookup: &dyn Fn(LocalId, Distance) -> Vec<LocalId>| {
        locals
            .clone()
            .map(|v| (0..=k).map(|b| lookup(v, b)).collect())
            .collect()
    };
    IndexModel {
        endpoints: index.s_local().zip(index.t_local()),
        vertices: locals.clone().map(|v| index.global(v)).collect(),
        dist_s: locals.clone().map(|v| index.dist_s(v)).collect(),
        dist_t: locals.clone().map(|v| index.dist_t(v)).collect(),
        fwd: rows(&|v, b| index.i_t(v, b).to_vec()),
        bwd: rows(&|v, b| backward.neighbors_within(v, b).to_vec()),
        level_sizes: (0..=k).map(|i| index.level_size(i)).collect(),
        level_expansion: (0..=k).map(|i| index.level_expansion(i)).collect(),
    }
}

/// The index as the pre-sweep build computed it, kept as the oracle: two
/// independent depth-`k` BFS passes into plain `Vec`s, the endpoint
/// fix-ups, an ascending scan of `0..|V|` for `X`, and per-vertex
/// neighbor lists comparison-sorted by `(distance, id)`.
fn two_pass_model<G: NeighborAccess>(g: &G, q: Query) -> IndexModel {
    let Query { s, t, k } = q;
    let mut ds = distances_from_source(g, s, t, k);
    let mut dt = distances_to_target(g, s, t, k);
    let mut t_s = INFINITE_DISTANCE;
    g.for_each_in(t, |u| t_s = t_s.min(ds[u as usize].saturating_add(1)));
    let mut s_t = INFINITE_DISTANCE;
    g.for_each_out(s, |w| s_t = s_t.min(dt[w as usize].saturating_add(1)));
    ds[t as usize] = t_s;
    dt[s as usize] = s_t;
    let levels = k as usize + 1;
    if t_s > k || s_t > k {
        return IndexModel {
            level_sizes: vec![0; levels],
            level_expansion: vec![0; levels],
            ..IndexModel::default()
        };
    }
    let vertices: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| ds[v as usize].saturating_add(dt[v as usize]) <= k)
        .collect();
    let local = |v: VertexId| {
        let at = vertices.binary_search(&v);
        at.expect("admission implies membership") as LocalId
    };
    let admitted = |from: VertexId, to: VertexId| {
        ds[from as usize]
            .saturating_add(dt[to as usize])
            .saturating_add(1)
            <= k
    };
    let table = |lists: Vec<Vec<(LocalId, Distance)>>| -> Vec<Vec<Vec<LocalId>>> {
        let by_budget = |mut list: Vec<(LocalId, Distance)>| {
            list.sort_unstable_by_key(|&(id, d)| (d, id));
            let within = |b| list.iter().filter(move |e| e.1 <= b).map(|e| e.0).collect();
            (0..=k).map(within).collect()
        };
        lists.into_iter().map(by_budget).collect()
    };
    let mut fwd_lists = Vec::new();
    let mut bwd_lists = Vec::new();
    for &v in &vertices {
        let mut out = Vec::new();
        if v == t {
            out.push((local(t), 0));
        } else {
            g.for_each_out(v, |n| {
                if n != s && admitted(v, n) {
                    out.push((local(n), dt[n as usize]));
                }
            });
        }
        fwd_lists.push(out);
        let mut inn = Vec::new();
        if v != s {
            g.for_each_in(v, |p| {
                if p != t && admitted(p, v) {
                    inn.push((local(p), ds[p as usize]));
                }
            });
        }
        if v == t {
            inn.push((local(t), t_s));
        }
        bwd_lists.push(inn);
    }
    let fwd = table(fwd_lists);
    let mut level_sizes = vec![0u64; levels];
    let mut level_expansion = vec![0u64; levels];
    for i in 0..=k {
        for (v, &gv) in vertices.iter().enumerate() {
            if ds[gv as usize] <= i && dt[gv as usize] <= k - i {
                level_sizes[i as usize] += 1;
                if i < k {
                    level_expansion[i as usize] += fwd[v][(k - i - 1) as usize].len() as u64;
                }
            }
        }
    }
    IndexModel {
        endpoints: Some((local(s), local(t))),
        dist_s: vertices.iter().map(|&v| ds[v as usize]).collect(),
        dist_t: vertices.iter().map(|&v| dt[v as usize]).collect(),
        fwd,
        bwd: table(bwd_lists),
        level_sizes,
        level_expansion,
        vertices,
    }
}

/// Buffers deliberately shared by every build and sweep of a test, and
/// dirtied before each use: whatever a previous query left behind — a
/// label, a row, a touched entry — must not reach the next one.
struct Polluted {
    scratch: BuildScratch,
    dist_s: EpochMap,
    dist_t: EpochMap,
}

impl Polluted {
    fn new() -> Self {
        Polluted {
            scratch: BuildScratch::default(),
            dist_s: EpochMap::new(INFINITE_DISTANCE),
            dist_t: EpochMap::new(INFINITE_DISTANCE),
        }
    }
}

/// Checks the sweep on one representation `g` of the graph `truth`: the
/// index built through it equals the two-pass model field for field, and
/// its labels are exact or absent with both present on every member of
/// `X`. Returns the sweep's phase-1 split.
fn assert_sweep_matches_two_pass<G: NeighborAccess>(
    g: &G,
    truth: &CsrGraph,
    q: Query,
    buffers: &mut Polluted,
) -> SweepSplit {
    let Query { s, t, k } = q;
    let Polluted {
        scratch,
        dist_s,
        dist_t,
    } = buffers;
    // Dirty every buffer with the reversed query first.
    Index::build_reusing(g, Query { s: t, t: s, k }, scratch);
    boundary_sweep(g, t, s, k, dist_s, dist_t);

    let (index, _) = Index::build_reusing(g, q, scratch);
    assert_eq!(observe(&index), two_pass_model(truth, q), "index for {q:?}");

    let split = boundary_sweep(g, s, t, k, dist_s, dist_t);
    assert_eq!(split.forward + split.backward, k, "split for {q:?}");
    let exact = [
        distances_from_source(truth, s, t, k),
        distances_to_target(truth, s, t, k),
    ];
    for v in 0..truth.num_vertices() {
        let in_x = exact[0][v].saturating_add(exact[1][v]) <= k;
        for (label, exact) in [(dist_s.get(v), exact[0][v]), (dist_t.get(v), exact[1][v])] {
            assert!(
                label == exact || (label == INFINITE_DISTANCE && !in_x),
                "{q:?}, v={v} (in X: {in_x}): label {label}, exact {exact}"
            );
        }
    }
    split
}

/// Runs `kernel` into a fresh [`CollectingSink`], returning the emitted
/// paths in emission order together with the counters.
fn run_kernel(
    kernel: impl FnOnce(&mut dyn PathSink, &mut Counters) -> SearchControl,
) -> (Vec<Vec<VertexId>>, Counters) {
    let mut sink = CollectingSink::default();
    let mut counters = Counters::default();
    kernel(&mut sink, &mut counters);
    (sink.paths, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epoch-stamped BFS must report exactly the distances of the
    /// plain flat-`Vec` oracle, for both directions, with and without
    /// an excluded vertex and a depth bound — reusing ONE `EpochMap`
    /// across every case so stale stamps from a previous query would
    /// be caught.
    #[test]
    fn epoch_bfs_matches_flat_map_oracle(
        (n, edges) in arb_graph(),
        source in 0u32..16,
        // The vendored proptest stub has no Option/bool strategies, so
        // wider integer ranges encode "sometimes absent" and direction.
        excluded in 0u32..32,
        max_depth in 0u32..12,
        backward in 0u32..2,
    ) {
        let g = graph_from_edges(n, &edges);
        let source = source % n;
        let options = BfsOptions {
            direction: if backward == 1 { Direction::Backward } else { Direction::Forward },
            excluded: (excluded < 16).then_some(excluded % n),
            max_depth: (max_depth < 6).then_some(max_depth),
        };
        let mut naive: Vec<Distance> = Vec::new();
        let mut queue = VecDeque::new();
        distances_into(&g, source, options, &mut naive, &mut queue);

        // Deliberately warm: the map carries stamps from prior proptest
        // cases, exactly like the per-query reuse in the index build.
        let mut epoch = EpochMap::new(INFINITE_DISTANCE);
        // Pollute the map with a different traversal first, then rerun.
        distances_epoch_into(&g, (source + 1) % n, BfsOptions::default(), &mut epoch, &mut queue);
        distances_epoch_into(&g, source, options, &mut epoch, &mut queue);

        for (v, &expected) in naive.iter().enumerate() {
            prop_assert_eq!(
                epoch.get(v),
                expected,
                "distance mismatch at v={} (source={}, options={:?})",
                v, source, options
            );
        }
        // Every finite distance must be on the touched list.
        let mut touched: Vec<u32> = epoch.touched().to_vec();
        touched.sort_unstable();
        for (v, &expected) in naive.iter().enumerate() {
            if expected != INFINITE_DISTANCE {
                prop_assert!(touched.binary_search(&(v as u32)).is_ok());
            }
        }
    }

    /// The boundary sweep builds the two-pass index, and labels `X`
    /// exactly, on every representation a request can be served from —
    /// the heap CSR, a frozen image of it, and the overlay of a mutated
    /// `DynamicGraph` — through one set of dirtied buffers.
    #[test]
    fn sweep_builds_the_two_pass_index_on_every_representation(
        (n, edges) in arb_graph(),
        inserts in proptest::collection::vec((0u32..16, 0u32..16), 0..12),
        removes in proptest::collection::vec((0u32..16, 0u32..16), 0..12),
        s in 0u32..16,
        hop in 1u32..16,
        k in 2u32..9,
    ) {
        let g = graph_from_edges(n, &edges);
        let s = s % n;
        let t = (s + 1 + hop % (n - 1)) % n;
        let q = Query::new(s, t, k).expect("distinct endpoints, k in range");
        let mut buffers = Polluted::new();

        assert_sweep_matches_two_pass(&g, &g, q, &mut buffers);
        assert_sweep_matches_two_pass(&frozen_from(&g), &g, q, &mut buffers);

        let mut dynamic = DynamicGraph::new(g);
        for &(u, v) in &inserts {
            dynamic.insert_edge(u % n, v % n);
        }
        for &(u, v) in &removes {
            dynamic.remove_edge(u % n, v % n);
        }
        assert_sweep_matches_two_pass(&dynamic.view(), &dynamic.snapshot(), q, &mut buffers);
    }

    /// The flat table fill — a stable counting sort per id-ascending
    /// row — serves every lookup as the `(distance, id)` comparison sort
    /// of the same row, given in any order, would.
    #[test]
    fn flat_table_fill_matches_per_vertex_build(
        k in 1u32..7,
        lists in proptest::collection::vec(
            proptest::collection::vec((0u32..24, 0u32..7), 0..14),
            0..7,
        ),
    ) {
        let lists: Vec<Vec<(LocalId, Distance)>> = lists
            .into_iter()
            .map(|list| list.into_iter().map(|(id, d)| (id, d % (k + 1))).collect())
            .collect();
        let mut rows = Vec::new();
        let mut row_starts = vec![0u32];
        for list in &lists {
            let mut row = list.clone();
            row.sort_unstable();
            rows.extend(row);
            row_starts.push(rows.len() as u32);
        }
        let flat = NeighborTable::from_rows(k, &rows, &row_starts);
        prop_assert_eq!(flat.num_vertices(), lists.len());
        for (owner, list) in lists.iter().enumerate() {
            let mut sorted = list.clone();
            sorted.sort_unstable_by_key(|&(id, d)| (d, id));
            for budget in 0..=k + 1 {
                let want: Vec<LocalId> =
                    sorted.iter().filter(|e| e.1 <= budget).map(|e| e.0).collect();
                prop_assert_eq!(flat.neighbors_within(owner as LocalId, budget), &want[..]);
            }
        }
    }

    /// The iterative DFS kernel is byte-identical to the recursive
    /// oracle: same paths in the same emission order, same counters.
    #[test]
    fn iterative_dfs_matches_recursive_oracle(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        let (ref_paths, ref_counters) = run_kernel(|sink, c| idx_dfs(&index, sink, c));
        let (opt_paths, opt_counters) =
            run_kernel(|sink, c| idx_dfs_iterative(&index, sink, c));
        prop_assert_eq!(opt_paths, ref_paths, "paths diverge on n={} k={}", n, k);
        prop_assert_eq!(opt_counters, ref_counters, "counters diverge on n={} k={}", n, k);
    }

    /// The arena-backed join is byte-identical to the
    /// hash-bucket reference at every cut position.
    #[test]
    fn optimized_join_matches_reference_oracle(
        (n, edges) in arb_graph(),
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let q = Query::new(0, 1, k).expect("valid");
        let index = Index::build(&g, q);
        for cut in 1..k {
            let (ref_paths, ref_counters) =
                run_kernel(|sink, c| idx_join_reference(&index, cut, sink, c));
            let (opt_paths, opt_counters) =
                run_kernel(|sink, c| idx_join(&index, cut, sink, c));
            prop_assert_eq!(opt_paths, ref_paths, "paths diverge on n={} k={} cut={}", n, k, cut);
            prop_assert_eq!(
                opt_counters, ref_counters,
                "counters diverge on n={} k={} cut={}", n, k, cut
            );
        }
    }

    /// `CsrGraph` honors the `NeighborAccess` ascending-order contract
    /// the deterministic emission order is built on.
    #[test]
    fn csr_neighbor_order_is_strictly_ascending(
        (n, edges) in arb_graph(),
    ) {
        let g = graph_from_edges(n, &edges);
        assert_strictly_ascending(&g);
    }

    /// `OverlayView` honors the same contract after arbitrary edge
    /// insertions and removals on top of the base CSR.
    #[test]
    fn overlay_neighbor_order_is_strictly_ascending(
        (n, edges) in arb_graph(),
        inserts in proptest::collection::vec((0u32..16, 0u32..16), 0..24),
        removes in proptest::collection::vec((0u32..16, 0u32..16), 0..24),
    ) {
        let g = graph_from_edges(n, &edges);
        let mut dynamic = DynamicGraph::new(g);
        for &(u, v) in &inserts {
            dynamic.insert_edge(u % n, v % n);
        }
        for &(u, v) in &removes {
            dynamic.remove_edge(u % n, v % n);
        }
        assert_strictly_ascending(&dynamic.view());
    }
}

/// Checks `for_each_out` / `for_each_in` yield strictly ascending ids.
fn assert_strictly_ascending<G: NeighborAccess>(g: &G) {
    for v in 0..g.num_vertices() as VertexId {
        let mut prev_out: Option<VertexId> = None;
        g.for_each_out(v, |w| {
            assert!(
                prev_out.is_none_or(|p| p < w),
                "out-neighbors of {v} not strictly ascending at {w}"
            );
            prev_out = Some(w);
        });
        let mut prev_in: Option<VertexId> = None;
        g.for_each_in(v, |w| {
            assert!(
                prev_in.is_none_or(|p| p < w),
                "in-neighbors of {v} not strictly ascending at {w}"
            );
            prev_in = Some(w);
        });
    }
}

/// Deterministic ER + power-law graphs used by the end-to-end checks.
fn workload_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("erdos_renyi", erdos_renyi(300, 1800, 7)),
        ("power_law", power_law(PowerLawConfig::social(400, 5, 13))),
    ]
}

/// End-to-end differential: for both generated workloads and both forced
/// methods, the engine must return the result set of the recursive-DFS
/// oracle on the same per-query index.
#[test]
fn engine_agrees_across_methods() {
    for (name, g) in workload_graphs() {
        let n = g.num_vertices() as VertexId;
        let queries = [(0, n / 2, 4u32), (1, n - 1, 4), (2, n / 3, 3)];
        for &(s, t, k) in &queries {
            let q = Query::new(s, t, k).expect("valid");
            let index = Index::build(&g, q);
            let (mut oracle, _) = run_kernel(|sink, c| idx_dfs(&index, sink, c));
            oracle.sort_unstable();
            for method in [Method::IdxDfs, Method::IdxJoin] {
                let mut engine = QueryEngine::new(&g, PathEnumConfig::default());
                let response = engine
                    .execute(
                        &QueryRequest::paths(s, t)
                            .max_hops(k)
                            .method(method)
                            .collect_paths(true),
                    )
                    .expect("valid request");
                let mut paths = response.paths;
                paths.sort_unstable();
                assert_eq!(
                    paths, oracle,
                    "{name}: {method} disagrees with the DFS oracle on ({s},{t},k={k})"
                );
            }
        }
    }
}

/// A warm query served from the reused thread-local arena returns exactly
/// what a fresh-allocation run (on a brand-new thread, hence a brand-new
/// arena) returns — paths and counters.
#[test]
fn arena_reuse_matches_fresh_allocation_run() {
    let g = power_law(PowerLawConfig::social(300, 5, 21));
    let q = Query::new(0, 150, 4).expect("valid");
    let index = Index::build(&g, q);

    // Warm this thread's arena, then take the measured run.
    let (_, _) = run_kernel(|sink, c| idx_join(&index, 2, sink, c));
    let (warm_join, warm_join_counters) = run_kernel(|sink, c| idx_join(&index, 2, sink, c));
    let (warm_dfs, warm_dfs_counters) = run_kernel(|sink, c| idx_dfs_iterative(&index, sink, c));

    let (fresh_join, fresh_join_counters, fresh_dfs, fresh_dfs_counters) =
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let (jp, jc) = run_kernel(|sink, c| idx_join(&index, 2, sink, c));
                    let (dp, dc) = run_kernel(|sink, c| idx_dfs_iterative(&index, sink, c));
                    (jp, jc, dp, dc)
                })
                .join()
                .expect("fresh-arena thread")
        });

    assert!(!warm_join.is_empty(), "workload should produce paths");
    assert_eq!(warm_join, fresh_join);
    assert_eq!(warm_join_counters, fresh_join_counters);
    assert_eq!(warm_dfs, fresh_dfs);
    assert_eq!(warm_dfs_counters, fresh_dfs_counters);
}

/// Regression guard for the scratch arena: once a query has been served
/// warm, repeating the *same* query must not grow the arena at all —
/// the steady state allocates nothing in the enumeration core.
#[test]
fn warm_queries_do_not_grow_the_scratch_arena() {
    let g = erdos_renyi(400, 2400, 11);
    let q = Query::new(0, 200, 4).expect("valid");
    let index = Index::build(&g, q);

    // Two warm-up rounds: the first sizes the arena, the second settles
    // any growth-on-first-reuse effects (e.g. Vec doubling).
    for _ in 0..2 {
        let (paths, _) = run_kernel(|sink, c| idx_join(&index, 2, sink, c));
        assert!(!paths.is_empty(), "workload should produce paths");
        run_kernel(|sink, c| idx_dfs_iterative(&index, sink, c));
    }

    let settled = thread_scratch_heap_bytes();
    assert!(settled > 0, "arena should own warm scratch memory");
    for rep in 0..10 {
        run_kernel(|sink, c| idx_join(&index, 2, sink, c));
        run_kernel(|sink, c| idx_dfs_iterative(&index, sink, c));
        let now = thread_scratch_heap_bytes();
        assert_eq!(
            now, settled,
            "arena grew from {settled} to {now} bytes on warm repetition {rep}"
        );
    }
}

/// The sweep against the two-pass model on the heap graph and its frozen
/// image; returns the split.
fn check_named_case(g: &CsrGraph, s: u32, t: u32, k: u32) -> SweepSplit {
    let q = Query::new(s, t, k).expect("valid");
    let mut buffers = Polluted::new();
    let split = assert_sweep_matches_two_pass(g, g, q, &mut buffers);
    let on_frozen = assert_sweep_matches_two_pass(&frozen_from(g), g, q, &mut buffers);
    assert_eq!(split, on_frozen, "the split depends only on the graph");
    split
}

/// Hub source, leaf target: the forward frontier is 8 wide after one
/// level while the backward one walks a chain, so the backward side takes
/// every remaining level and the split is as uneven as the frontier rule
/// allows.
#[test]
fn sweep_hub_source_leaf_target_splits_unevenly() {
    let mut edges: Vec<(u32, u32)> = (2..10).map(|v| (0, v)).collect();
    edges.extend([(2, 10), (10, 11), (11, 12), (12, 1)]); // the one way into t
    edges.extend((3..10).map(|v| (v, v + 10))); // the hub's other neighbors lead away
    edges.extend([(13, 14), (14, 2), (5, 2)]);
    let g = graph_from_edges(20, &edges);
    let split = check_named_case(&g, 0, 1, 5);
    assert_eq!((split.forward, split.backward), (1, 4));
    assert!(!Index::build(&g, Query::new(0, 1, 5).unwrap()).is_empty());
}

/// The mirror image — leaf source, hub target: the forward side runs all
/// but one level.
#[test]
fn sweep_leaf_source_hub_target_splits_unevenly() {
    let mut edges = vec![(0, 2), (2, 3), (3, 4), (4, 5), (5, 1)];
    edges.extend((6..14).map(|v| (v, 1))); // t's other in-neighbors...
    edges.extend((6..13).map(|v| (v + 8, v))); // ...fed from elsewhere
    edges.extend([(3, 6), (14, 4)]);
    let g = graph_from_edges(22, &edges);
    let split = check_named_case(&g, 0, 1, 5);
    assert_eq!((split.forward, split.backward), (4, 1));
}

/// A direct `s -> t` edge with `k = 2`, where it is `s`'s only out-edge:
/// the forward side is exhausted at once (`t` is deleted from its
/// graph), advances every level for free, and the backward side runs
/// pruned from depth 0 — where `t`, having no forward label yet, must
/// not be held to the pruning test.
#[test]
fn sweep_direct_edge_with_an_exhausted_forward_side() {
    let g = graph_from_edges(6, &[(0, 1), (2, 1), (3, 1), (4, 2), (5, 0)]);
    let split = check_named_case(&g, 0, 1, 2);
    assert_eq!((split.forward, split.backward), (2, 0));
    let index = Index::build(&g, Query::new(0, 1, 2).unwrap());
    assert_eq!((index.num_vertices(), index.num_edges()), (2, 1));
}

/// Shortest paths that would run *through* the other endpoint must not
/// shorten a label: `s -> t -> 2` does not put 2 at forward distance 2,
/// and `5 -> s -> t` does not put 5 at backward distance 2.
#[test]
fn sweep_labels_do_not_route_through_the_other_endpoint() {
    let g = graph_from_edges(
        8,
        &[
            (0, 1),
            (1, 2), // s -> t -> 2 ...
            (0, 3),
            (3, 4),
            (4, 2), // ... but G - {t} reaches 2 in three hops
            (2, 1),
            (5, 0), // 5 -> s -> t ...
            (5, 6),
            (6, 7),
            (7, 1), // ... but G - {s} leaves 5 three hops from t
            (0, 5),
        ],
    );
    check_named_case(&g, 0, 1, 4);
    let mut dist_s = EpochMap::new(INFINITE_DISTANCE);
    let mut dist_t = EpochMap::new(INFINITE_DISTANCE);
    boundary_sweep(&g, 0, 1, 4, &mut dist_s, &mut dist_t);
    assert_eq!((dist_s.get(2), dist_t.get(2)), (3, 1));
    assert_eq!((dist_s.get(5), dist_t.get(5)), (1, 3));
}

/// `t` unreachable, and `t` exactly one hop too far (`t.s = k + 1`): the
/// index is empty under either boundary search.
#[test]
fn sweep_proves_unreachable_and_too_distant_targets_empty() {
    // 0 -> 2 -> 3 -> 4 -> 5 -> 1, and vertex 6 with no way in.
    let g = graph_from_edges(
        7,
        &[
            (0, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 1),
            (6, 0),
            (2, 0),
            (3, 2),
        ],
    );
    check_named_case(&g, 0, 6, 4);
    assert!(Index::build(&g, Query::new(0, 6, 4).unwrap()).is_empty());
    check_named_case(&g, 0, 1, 4);
    assert!(Index::build(&g, Query::new(0, 1, 4).unwrap()).is_empty());
    check_named_case(&g, 0, 1, 5);
    assert!(!Index::build(&g, Query::new(0, 1, 5).unwrap()).is_empty());
}

/// The storage forms a request is served from without a mutation log:
/// the heap CSR and its frozen image.
fn storages(g: &CsrGraph) -> [(&'static str, GraphHandle); 2] {
    [
        ("heap", GraphHandle::from(g.clone())),
        ("frozen", GraphHandle::from(frozen_from(g))),
    ]
}

/// Runs `kernel` under a result limit (`None`: unlimited) into a
/// collecting sink: the emitted paths, the counters, and the kernel's own
/// verdict.
fn run_limited(
    limit: Option<u64>,
    kernel: impl FnOnce(&mut dyn PathSink, &mut Counters) -> SearchControl,
) -> (Vec<Vec<VertexId>>, Counters, SearchControl) {
    let mut sink = ControlledSink::new(CollectingSink::default(), limit, None, None);
    let mut counters = Counters::default();
    let control = kernel(&mut sink, &mut counters);
    (sink.into_inner().paths, counters, control)
}

/// On-demand IDX-DFS over labels only equals the eager kernel on the
/// built index: every path in order, all four counters and the stop
/// verdict, at every limit from 1 to the full count, on ER and power-law
/// graphs in every log-less storage form.
#[test]
fn on_demand_rows_match_the_eager_kernel_at_every_limit() {
    let mut compared = 0;
    for (name, g) in workload_graphs() {
        let n = g.num_vertices() as VertexId;
        let queries = [
            (0, n / 2, 5u32),
            (1, n / 4, 5),
            (0, n / 3, 5),
            (1, 42, 4),
            (2, 17, 4),
            (2, n / 2, 5),
        ];
        for (storage, graph) in storages(&g) {
            let mut scratch = BuildScratch::default();
            for &(s, t, k) in &queries {
                let q = Query::new(s, t, k).expect("valid");
                let eager = Index::build(&graph, q);
                let (labels, _) = Index::build_labels(&graph, q, &mut scratch);
                assert_eq!(
                    labels.has_rows(),
                    labels.is_empty(),
                    "{name}/{storage} {q:?}"
                );
                let (all, _, _) = run_limited(None, |sink, c| idx_dfs_iterative(&eager, sink, c));
                let total = all.len() as u64;
                for limit in (1..=total).map(Some).chain([None]) {
                    let want = run_limited(limit, |sink, c| idx_dfs_iterative(&eager, sink, c));
                    let got =
                        run_limited(limit, |sink, c| idx_dfs_on_demand(&graph, &labels, sink, c));
                    assert_eq!(got, want, "{name}/{storage} {q:?} limit {limit:?}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 1000, "only {compared} runs compared");
}

/// What a search delivered: the number of paths, and its counters.
type Delivery = (u64, Counters);

/// Runs `kernel` into a [`CountingSink`] (the count path) and into a
/// [`CollectingSink`] (one path at a time): what each delivered.
fn count_and_collect(
    mut kernel: impl FnMut(&mut dyn PathSink, &mut Counters) -> SearchControl,
) -> (Delivery, Delivery) {
    let mut sink = CountingSink::default();
    let mut counters = Counters::default();
    kernel(&mut sink, &mut counters);
    let (paths, collected) = run_kernel(&mut kernel);
    ((sink.count, counters), (paths.len() as u64, collected))
}

/// Both deliveries of every kernel a count-only request can run on
/// `graph`: IDX-DFS on the eager index and on its labels only, and
/// IDX-JOIN at every cut.
fn deliveries<G: NeighborAccess>(graph: &G, q: Query) -> Vec<(String, Delivery, Delivery)> {
    let eager = Index::build(graph, q);
    let (labels, _) = Index::build_labels(graph, q, &mut BuildScratch::default());
    let mut runs = vec![
        (
            "IDX-DFS".to_string(),
            count_and_collect(|sink, c| idx_dfs_iterative(&eager, sink, c)),
        ),
        (
            "IDX-DFS on demand".to_string(),
            count_and_collect(|sink, c| idx_dfs_on_demand(graph, &labels, sink, c)),
        ),
    ];
    for cut in 1..q.k {
        runs.push((
            format!("IDX-JOIN cut {cut}"),
            count_and_collect(|sink, c| idx_join(&eager, cut, sink, c)),
        ));
    }
    runs.into_iter()
        .map(|(name, (counted, collected))| (name, counted, collected))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counting in bulk delivers what emitting path by path delivers —
    /// the number of paths and every counter — for every kernel a
    /// count-only request runs, on heap, frozen and overlay storage.
    #[test]
    fn counting_delivery_equals_per_path_delivery(
        (n, edges) in arb_graph(),
        inserts in proptest::collection::vec((0u32..16, 0u32..16), 0..12),
        removes in proptest::collection::vec((0u32..16, 0u32..16), 0..12),
        s in 0u32..16,
        hop in 1u32..16,
        k in 2u32..7,
    ) {
        let g = graph_from_edges(n, &edges);
        let s = s % n;
        let t = (s + 1 + hop % (n - 1)) % n;
        let q = Query::new(s, t, k).expect("distinct endpoints, k in range");
        let mut dynamic = DynamicGraph::new(g.clone());
        for &(u, v) in &inserts {
            dynamic.insert_edge(u % n, v % n);
        }
        for &(u, v) in &removes {
            dynamic.remove_edge(u % n, v % n);
        }
        let storages = [
            ("heap", deliveries(&g, q)),
            ("frozen", deliveries(&frozen_from(&g), q)),
            ("overlay", deliveries(&dynamic.view(), q)),
        ];
        for (storage, runs) in storages {
            for (kernel, counted, collected) in runs {
                prop_assert_eq!(counted, collected, "{} {} {:?}", storage, kernel, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filling a labels-only index reproduces the eager build field for
    /// field, through a scratch another build dirtied in between; and the
    /// on-demand kernel agrees with the eager one on arbitrary graphs.
    #[test]
    fn completed_labels_are_the_built_index(
        (n, edges) in arb_graph(),
        s in 0u32..16,
        hop in 1u32..16,
        k in 2u32..8,
        limit in 1u64..12,
    ) {
        let g = graph_from_edges(n, &edges);
        let s = s % n;
        let t = (s + 1 + hop % (n - 1)) % n;
        let q = Query::new(s, t, k).expect("distinct endpoints, k in range");
        for (storage, graph) in storages(&g) {
            let mut scratch = BuildScratch::default();
            let (mut labels, _) = Index::build_labels(&graph, q, &mut scratch);
            let eager = Index::build(&graph, q);
            for limit in [Some(limit), None] {
                let want = run_limited(limit, |sink, c| idx_dfs_iterative(&eager, sink, c));
                let got =
                    run_limited(limit, |sink, c| idx_dfs_on_demand(&graph, &labels, sink, c));
                prop_assert_eq!(got, want, "{} {:?} limit {:?}", storage, q, limit);
            }
            Index::build_reusing(&graph, Query { s: t, t: s, k }, &mut scratch);
            labels.fill_rows(&graph, &mut scratch);
            prop_assert_eq!(&labels, &eager, "{} {:?}", storage, q);
            prop_assert_eq!(observe(&labels), two_pass_model(&g, q), "{} {:?}", storage, q);
        }
    }
}

/// The arena rule `reproduce perf` enforces for the eager kernels holds
/// for rows read on demand: once warm, repeating a query grows nothing.
#[test]
fn warm_on_demand_runs_do_not_grow_the_scratch_arena() {
    let g = erdos_renyi(400, 2400, 11);
    let q = Query::new(0, 200, 4).expect("valid");
    let (labels, _) = Index::build_labels(&g, q, &mut BuildScratch::default());
    assert!(!labels.has_rows(), "the query has results");
    for _ in 0..2 {
        let (paths, _) = run_kernel(|sink, c| idx_dfs_on_demand(&g, &labels, sink, c));
        assert!(!paths.is_empty(), "workload should produce paths");
    }
    let settled = thread_scratch_heap_bytes();
    for rep in 0..10 {
        run_kernel(|sink, c| idx_dfs_on_demand(&g, &labels, sink, c));
        let now = thread_scratch_heap_bytes();
        assert_eq!(
            now, settled,
            "arena grew from {settled} to {now} bytes on warm repetition {rep}"
        );
    }
}
