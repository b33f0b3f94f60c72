//! Dynamic-graph integration: overlay snapshots must behave exactly like
//! graphs rebuilt from scratch, and the fraud-cycle pattern (query
//! `q(v', v, k-1)` per inserted edge) must find exactly the cycles the
//! insertion closes.

use proptest::prelude::*;

use pathenum_repro::graph::DynamicGraph;
use pathenum_repro::prelude::*;

fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v) in edges {
        if u != v {
            b.add_edge(u, v).expect("in-range edge");
        }
    }
    b.finish()
}

/// Every path an engine over `g` emits for `q`, in emission order.
fn engine_paths(g: &CsrGraph, q: Query) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    QueryEngine::new(g, PathEnumConfig::default())
        .execute_into(&QueryRequest::from_query(q), &mut sink)
        .expect("valid query");
    sink.paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_equals_rebuild(
        n in 4u32..12,
        base in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        inserts in proptest::collection::vec((0u32..12, 0u32..12), 0..15),
        k in 2u32..5,
    ) {
        let base: Vec<(u32, u32)> =
            base.into_iter().filter(|&(u, v)| u < n && v < n).collect();
        let inserts: Vec<(u32, u32)> =
            inserts.into_iter().filter(|&(u, v)| u < n && v < n).collect();

        let mut dynamic = DynamicGraph::new(graph_from_edges(n, &base));
        for &(u, v) in &inserts {
            dynamic.insert_edge(u, v);
        }
        let snapshot = dynamic.snapshot();

        let mut combined = base.clone();
        combined.extend(inserts.iter().copied());
        let rebuilt = graph_from_edges(n, &combined);

        prop_assert_eq!(snapshot.num_edges(), rebuilt.num_edges());
        let q = Query::new(0, 1, k).expect("valid");
        prop_assert_eq!(engine_paths(&snapshot, q), engine_paths(&rebuilt, q));
    }

    #[test]
    fn inserted_edge_closes_exactly_the_reported_cycles(
        n in 4u32..10,
        base in proptest::collection::vec((0u32..10, 0u32..10), 0..30),
        (u, v) in (0u32..10, 0u32..10),
        k in 3u32..6,
    ) {
        prop_assume!(u != v && u < n && v < n);
        let base: Vec<(u32, u32)> =
            base.into_iter().filter(|&(a, b)| a < n && b < n && (a, b) != (u, v)).collect();
        let graph = graph_from_edges(n, &base);

        // Cycles through the new edge (u, v) = paths v -> u of <= k-1
        // edges in the pre-insertion graph.
        let q = Query::new(v, u, k - 1).expect("u != v");
        // Each reported path closed by (u, v) is a simple cycle of <= k
        // edges containing the new edge.
        for path in &engine_paths(&graph, q) {
            prop_assert_eq!(path[0], v);
            prop_assert_eq!(*path.last().unwrap(), u);
            prop_assert!(path.len() as u32 <= k);
            for w in path.windows(2) {
                prop_assert!(graph.has_edge(w[0], w[1]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_with_deletions_equals_rebuild(
        n in 4u32..12,
        base in proptest::collection::vec((0u32..12, 0u32..12), 2..40),
        deletions in proptest::collection::vec(0usize..64, 0..10),
        k in 2u32..5,
    ) {
        let base: Vec<(u32, u32)> = base
            .into_iter()
            .filter(|&(u, v)| u < n && v < n && u != v)
            .collect();
        prop_assume!(!base.is_empty());

        let mut dynamic = DynamicGraph::new(graph_from_edges(n, &base));
        let mut removed: Vec<(u32, u32)> = Vec::new();
        for idx in deletions {
            let (u, v) = base[idx % base.len()];
            if dynamic.remove_edge(u, v) {
                removed.push((u, v));
            }
        }
        let snapshot = dynamic.snapshot();

        let survivors: Vec<(u32, u32)> = base
            .iter()
            .filter(|e| !removed.contains(e))
            .copied()
            .collect();
        let rebuilt = graph_from_edges(n, &survivors);

        prop_assert_eq!(snapshot.num_edges(), rebuilt.num_edges());
        let q = Query::new(0, 1, k).expect("valid");
        prop_assert_eq!(engine_paths(&snapshot, q), engine_paths(&rebuilt, q));
    }

    /// Cache invalidation across snapshots: an engine serving a mutated
    /// snapshot with a carried-over plan cache must produce exactly what
    /// a fresh cache-free engine produces — never a stale cached answer.
    #[test]
    fn mutations_invalidate_carried_plan_caches(
        n in 4u32..10,
        base in proptest::collection::vec((0u32..10, 0u32..10), 2..30),
        mutation in (0u32..10, 0u32..10, 0u32..2),
        k in 2u32..5,
    ) {
        let base: Vec<(u32, u32)> = base
            .into_iter()
            .filter(|&(u, v)| u < n && v < n && u != v)
            .collect();
        prop_assume!(!base.is_empty());
        let mut dynamic = DynamicGraph::new(graph_from_edges(n, &base));
        let request = || QueryRequest::paths(0, 1).max_hops(k).collect_paths(true);

        // Warm a cache on the first snapshot.
        let snap1 = dynamic.snapshot();
        let mut engine = QueryEngine::new(&snap1, PathEnumConfig::default());
        let before = engine.execute(&request()).expect("valid");
        prop_assert_eq!(
            engine.execute(&request()).expect("valid").report.cache,
            CacheOutcome::Hit
        );

        // Mutate (insert or delete), carry the cache to the new snapshot.
        let (u, v, delete_sel) = mutation;
        let mutated = if delete_sel == 1 {
            !base.is_empty() && dynamic.remove_edge(base[0].0, base[0].1)
        } else {
            u < n && v < n && dynamic.insert_edge(u, v)
        };
        let snap2 = dynamic.snapshot();
        let mut engine =
            QueryEngine::with_cache(&snap2, PathEnumConfig::default(), engine.into_cache());
        let after = engine.execute(&request()).expect("valid");

        let mut oracle =
            QueryEngine::with_cache(&snap2, PathEnumConfig::default(), PlanCache::new(0));
        let expected = oracle.execute(&request()).expect("valid");
        prop_assert_eq!(&after.paths, &expected.paths, "stale cache leaked through");

        if mutated {
            prop_assert_eq!(after.report.cache, CacheOutcome::Miss);
            prop_assert!(engine.cache_stats().invalidations >= 1);
        } else {
            // A rejected mutation keeps the version: still warm.
            prop_assert_eq!(after.report.cache, CacheOutcome::Hit);
            prop_assert_eq!(&after.paths, &before.paths);
        }
    }
}

#[test]
fn unmutated_snapshots_share_cached_plans_and_mutated_ones_do_not() {
    // Deterministic end-to-end walk of the epoch lifecycle. Figure-1-ish
    // chain with a detour: 0 -> 1 via 0->2->1 and 0->3->2->1.
    let mut dynamic = DynamicGraph::new(graph_from_edges(5, &[(0, 2), (2, 1), (0, 3), (3, 2)]));
    let request = || QueryRequest::paths(0, 1).max_hops(3).collect_paths(true);

    let snap1 = dynamic.snapshot();
    let mut engine = QueryEngine::new(&snap1, PathEnumConfig::default());
    let first = engine.execute(&request()).unwrap();
    assert_eq!(first.report.cache, CacheOutcome::Miss);
    assert_eq!(first.paths.len(), 2);

    // Snapshot again without mutating: same version, cache stays warm
    // across the engine swap.
    let snap1b = dynamic.snapshot();
    assert_eq!(snap1.version(), snap1b.version());
    let mut engine =
        QueryEngine::with_cache(&snap1b, PathEnumConfig::default(), engine.into_cache());
    let warm = engine.execute(&request()).unwrap();
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    assert_eq!(warm.paths, first.paths);

    // Insert 0 -> 1: a new direct path must appear (stale plan would
    // miss it).
    assert!(dynamic.insert_edge(0, 1));
    let snap2 = dynamic.snapshot();
    assert_ne!(snap2.version(), snap1.version());
    let mut engine =
        QueryEngine::with_cache(&snap2, PathEnumConfig::default(), engine.into_cache());
    let inserted = engine.execute(&request()).unwrap();
    assert_eq!(inserted.report.cache, CacheOutcome::Miss);
    assert_eq!(engine.cache_stats().invalidations, 1);
    assert_eq!(inserted.paths.len(), 3);
    assert!(inserted.paths.contains(&vec![0, 1]));

    // Delete 2 -> 1: two of the three paths disappear.
    assert!(dynamic.remove_edge(2, 1));
    let snap3 = dynamic.snapshot();
    let mut engine =
        QueryEngine::with_cache(&snap3, PathEnumConfig::default(), engine.into_cache());
    let deleted = engine.execute(&request()).unwrap();
    assert_eq!(deleted.report.cache, CacheOutcome::Miss);
    assert_eq!(deleted.paths, vec![vec![0, 1]]);
}

#[test]
fn overlay_rejects_duplicates_against_base_and_itself() {
    let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
    let mut d = DynamicGraph::new(g);
    assert!(!d.insert_edge(0, 1));
    assert!(d.insert_edge(2, 3));
    assert!(!d.insert_edge(2, 3));
    assert_eq!(d.num_edges(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Oracle for arbitrary interleaved insert/remove/restore streams:
    /// the overlay must agree with a naive `HashSet` edge-set model on
    /// every mutation's return value, on `has_edge`/`num_edges` at every
    /// step, and on the final `snapshot()` edge set — including the
    /// delete-then-reinsert-base-edge and remove-inserted-edge chains.
    #[test]
    fn overlay_state_matches_a_hashset_model(
        n in 3u32..10,
        base in proptest::collection::vec((0u32..10, 0u32..10), 0..25),
        script in proptest::collection::vec((0u32..2, 0u32..10, 0u32..10), 0..60),
    ) {
        let base: Vec<(u32, u32)> = base
            .into_iter()
            .filter(|&(u, v)| u < n && v < n && u != v)
            .collect();
        let csr = graph_from_edges(n, &base);
        let mut model: std::collections::HashSet<(u32, u32)> = csr.edges().collect();
        let mut dynamic = DynamicGraph::new(csr);

        for (op, u, v) in script {
            if op == 0 {
                let expected = u != v && u < n && v < n && !model.contains(&(u, v));
                prop_assert_eq!(dynamic.insert_edge(u, v), expected, "insert {} -> {}", u, v);
                if expected {
                    model.insert((u, v));
                }
            } else {
                let expected = u < n && v < n && model.contains(&(u, v));
                prop_assert_eq!(dynamic.remove_edge(u, v), expected, "remove {} -> {}", u, v);
                if expected {
                    model.remove(&(u, v));
                }
            }
            prop_assert_eq!(dynamic.num_edges(), model.len());
        }

        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    dynamic.has_edge(u, v),
                    model.contains(&(u, v)),
                    "has_edge({}, {})", u, v
                );
            }
        }
        let snapshot = dynamic.snapshot();
        let snapshot_edges: std::collections::HashSet<(u32, u32)> = snapshot.edges().collect();
        prop_assert_eq!(&snapshot_edges, &model, "snapshot edge set diverged");

        // The borrowed view agrees with the snapshot adjacency-for-adjacency
        // (same edges *and* same ascending order).
        let view = dynamic.view();
        for v in 0..n {
            let mut out = Vec::new();
            view.for_each_out(v, |w| out.push(w));
            prop_assert_eq!(out, snapshot.out_neighbors(v).to_vec(), "out({})", v);
            let mut inn = Vec::new();
            view.for_each_in(v, |w| inn.push(w));
            prop_assert_eq!(inn, snapshot.in_neighbors(v).to_vec(), "in({})", v);
        }
    }
}

/// Regression for the `remove_edge` rewrite: an interleaved 100k-update
/// insert/remove stream must complete in linear-ish time. The old
/// implementation removed overlay edges with `Vec::retain` over the
/// whole insert log — O(u²) over this stream, i.e. ~10^10 element visits
/// where this test would effectively hang.
#[test]
fn interleaved_100k_update_stream_stays_fast() {
    let n: u32 = 2048;
    // Base ring so removals can also hit base edges.
    let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let mut dynamic = DynamicGraph::new(graph_from_edges(n, &ring));
    let base_edges = dynamic.num_edges();

    // Deterministic xorshift; no RNG dependency in the test crate.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut net: i64 = 0;
    let updates = 100_000usize;
    for i in 0..updates {
        if i % 2 == 0 || live.is_empty() {
            let u = (next() % u64::from(n)) as u32;
            let v = (next() % u64::from(n)) as u32;
            if dynamic.insert_edge(u, v) {
                live.push((u, v));
                net += 1;
            }
        } else {
            let idx = (next() as usize) % live.len();
            let (u, v) = live.swap_remove(idx);
            assert!(dynamic.remove_edge(u, v), "live edge must be removable");
            net -= 1;
        }
    }
    assert_eq!(dynamic.num_edges() as i64, base_edges as i64 + net);
    assert_eq!(dynamic.inserted_edges().count(), live.len());
    assert_eq!(dynamic.snapshot().num_edges(), dynamic.num_edges());
}

/// Surgical retention: a mutation far from a cached query's reach keeps
/// the entry serving (a retained hit), while every answer stays equal to
/// a cache-free engine's.
#[test]
fn far_mutations_retain_entries_near_mutations_invalidate() {
    // Two chains sharing nothing: 0 -> 1 -> 2 and 10 -> 11 -> 12.
    let edges = [(0, 1), (1, 2), (10, 11), (11, 12)];
    let mut dynamic = DynamicGraph::new(graph_from_edges(16, &edges));
    let request = || QueryRequest::paths(0, 2).max_hops(3).collect_paths(true);

    let mut engine = DynamicEngine::new(&dynamic, PathEnumConfig::default());
    let first = engine.execute(&request()).unwrap();
    assert_eq!(first.report.cache, CacheOutcome::Miss);
    assert_eq!(first.paths, vec![vec![0, 1, 2]]);
    let cache = engine.into_cache();

    // Mutate only the far chain: the cached entry must survive.
    assert!(dynamic.insert_edge(12, 13));
    assert!(dynamic.remove_edge(10, 11));
    let mut engine = DynamicEngine::with_cache(&dynamic, PathEnumConfig::default(), cache);
    let retained = engine.execute(&request()).unwrap();
    assert_eq!(retained.report.cache, CacheOutcome::Hit);
    assert_eq!(engine.cache_stats().retained, 1);
    assert_eq!(retained.paths, first.paths);
    let cache = engine.into_cache();

    // Mutate inside the query's reach: the entry must be rebuilt, and
    // the new path must appear.
    assert!(dynamic.insert_edge(0, 2));
    let mut engine = DynamicEngine::with_cache(&dynamic, PathEnumConfig::default(), cache);
    let after = engine.execute(&request()).unwrap();
    assert_eq!(after.report.cache, CacheOutcome::Miss);
    assert!(engine.cache_stats().invalidations >= 1);
    let mut paths = after.paths;
    paths.sort_unstable();
    assert_eq!(paths, vec![vec![0, 1, 2], vec![0, 2]]);
}
