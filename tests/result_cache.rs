//! Result-cache soundness: a replayed answer must be indistinguishable
//! from re-running the query.
//!
//! * A result hit equals cold execution path-for-path — same order,
//!   same counts, same termination — across methods and limits.
//! * Bounded (`LimitReached`) entries serve only equal-or-tighter
//!   limits; either way the response equals a cache-free oracle's.
//! * The method is chosen per request from its limit; a completed
//!   answer still serves every limit, path for path what a fresh run of
//!   that limit returns. A result hit plans nothing and reports no plan.
//! * Footprint retention over mutation streams never serves a stale
//!   answer: after every insert/remove, the caching engine matches a
//!   cache-free engine on the mutated graph exactly — whether the entry
//!   was retained, invalidated, or replayed.
//! * Collecting requests record; count-only requests read. A count-only
//!   miss is delivered exactly as with no result layer — in bulk — and
//!   records nothing. A count-only hit is one `emit_count` of the served
//!   prefix.
//! * A batch submitted to the catalog and waited in order is
//!   byte-identical to solo engine execution across worker counts
//!   {1, 2, 4, 8}, and the stats invariant
//!   `hits + misses + bypasses == lookups` holds throughout.

use std::sync::Arc;

use proptest::prelude::*;

use pathenum_repro::graph::DynamicGraph;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Acceptance: a result hit replays exactly what cold execution
    /// produced — across optimizer-chosen and forced methods, with and
    /// without limits.
    #[test]
    fn result_hits_equal_cold_execution(
        n in 5u32..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 5..80),
        k in 2u32..6,
        method_sel in 0u32..3,
        limit_sel in 0u64..9,
    ) {
        let g = graph_from_edges(n, &edges);
        let limit = (limit_sel > 0).then_some(limit_sel);
        let build = || {
            let mut r = QueryRequest::paths(0, 1).max_hops(k).collect_paths(true);
            if let Some(l) = limit {
                r = r.limit(l);
            }
            match method_sel {
                1 => r = r.method(Method::IdxDfs),
                2 => r = r.method(Method::IdxJoin),
                _ => {}
            }
            r
        };

        let mut caching = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let cold = caching.execute(&build()).unwrap();
        let warm = caching.execute(&build()).unwrap();
        prop_assert_eq!(warm.report.cache, CacheOutcome::ResultHit);
        prop_assert_eq!(&warm.paths, &cold.paths, "replay vs cold path order");
        prop_assert_eq!(warm.termination, cold.termination);
        prop_assert_eq!(warm.num_results(), cold.num_results());

        // Against an engine with no result layer at all.
        let mut plain = QueryEngine::new(&g, PathEnumConfig::default());
        let reference = plain.execute(&build()).unwrap();
        prop_assert_eq!(&warm.paths, &reference.paths, "replay vs cache-free engine");
        prop_assert_eq!(warm.termination, reference.termination);

        let stats = caching.result_cache_stats();
        prop_assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        prop_assert_eq!(stats.lookups, 2);
    }

    /// Bound-safety: an entry truncated at limit `l1` may serve a later
    /// request only when its limit is equal or tighter; whatever the
    /// cache decides, the response equals a cache-free oracle's.
    #[test]
    fn truncated_entries_reuse_only_tighter_limits(
        n in 5u32..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12), 10..70),
        k in 3u32..6,
        l1 in 1u64..6,
        l2 in 1u64..10,
    ) {
        let g = graph_from_edges(n, &edges);
        let build = |l: u64| {
            QueryRequest::paths(0, 1)
                .max_hops(k)
                .limit(l)
                .collect_paths(true)
        };

        let mut caching = QueryEngine::new(&g, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        let first = caching.execute(&build(l1)).unwrap();
        let second = caching.execute(&build(l2)).unwrap();

        let mut oracle = QueryEngine::new(&g, PathEnumConfig::default());
        let expected = oracle.execute(&build(l2)).unwrap();
        prop_assert_eq!(&second.paths, &expected.paths, "second run vs oracle");
        prop_assert_eq!(second.termination, expected.termination);
        prop_assert_eq!(second.num_results(), expected.num_results());

        match first.termination {
            // A complete answer is a universal prefix: any limit hits.
            Termination::Completed => {
                prop_assert_eq!(second.report.cache, CacheOutcome::ResultHit);
            }
            // A truncated answer serves only equal-or-tighter limits; a
            // looser one falls through to the plan layer (whose warm
            // entry reads `Hit`) and re-enumerates.
            Termination::LimitReached => {
                if l2 <= l1 {
                    prop_assert_eq!(
                        second.report.cache,
                        CacheOutcome::ResultHit,
                        "l1={} l2={}",
                        l1,
                        l2
                    );
                } else {
                    prop_assert_ne!(
                        second.report.cache,
                        CacheOutcome::ResultHit,
                        "l1={} l2={}",
                        l1,
                        l2
                    );
                }
            }
            other => prop_assert!(false, "unexpected termination {:?}", other),
        }
    }

    /// Footprint retention soundness: across an arbitrary mutation
    /// stream, the caching dynamic engine must match a cache-free engine
    /// after *every* step — a retained entry that should have died would
    /// show up here as a stale path list.
    #[test]
    fn mutation_streams_never_serve_stale_answers(
        n in 4u32..10,
        base in proptest::collection::vec((0u32..10, 0u32..10), 0..40),
        muts in proptest::collection::vec((0u32..2, (0u32..10, 0u32..10)), 1..12),
        k in 2u32..5,
        limit_sel in 0u64..7,
    ) {
        let g = graph_from_edges(n, &base);
        let mut graph = DynamicGraph::new(g);
        let limit = (limit_sel > 0).then_some(limit_sel);
        let build = || {
            let mut r = QueryRequest::paths(0, 1).max_hops(k).collect_paths(true);
            if let Some(l) = limit {
                r = r.limit(l);
            }
            r
        };

        // Seed the cache on the base graph.
        let mut engine = DynamicEngine::new(&graph, PathEnumConfig::default())
            .with_result_cache(ResultCache::default());
        engine.execute(&build()).unwrap();
        let mut results = engine.into_result_cache().unwrap();

        for (op, (u, v)) in muts {
            let insert = op == 1;
            if u == v || u >= n || v >= n {
                continue;
            }
            if insert {
                graph.insert_edge(u, v);
            } else {
                graph.remove_edge(u, v);
            }

            let mut caching = DynamicEngine::new(&graph, PathEnumConfig::default())
                .with_result_cache(results);
            let cached = caching.execute(&build()).unwrap();
            let stats = caching.result_cache_stats();
            results = caching.into_result_cache().unwrap();

            let mut oracle = DynamicEngine::new(&graph, PathEnumConfig::default());
            let fresh = oracle.execute(&build()).unwrap();
            prop_assert_eq!(
                &cached.paths,
                &fresh.paths,
                "cached vs fresh after {} ({}, {})",
                if insert { "insert" } else { "remove" },
                u,
                v
            );
            prop_assert_eq!(cached.termination, fresh.termination);
            prop_assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        }
    }
}

proptest! {
    // Each case spins up a catalog (worker threads): fewer, fatter cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-execution acceptance: a batch submitted to the catalog and
    /// waited in order — result layer on, any worker count — returns
    /// exactly what solo engine execution returns, request for request,
    /// byte for byte.
    #[test]
    fn grouped_batches_equal_solo_execution(
        n in 6u32..14,
        edges in proptest::collection::vec((0u32..14, 0u32..14), 10..90),
        k in 2u32..5,
        raw_targets in proptest::collection::vec(0u32..14, 4..24),
        workers_sel in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 8][workers_sel];
        let g = Arc::new(graph_from_edges(n, &edges));
        // Skew onto few shapes so repeats hit the shared layers.
        let targets: Vec<u32> = raw_targets.iter().map(|&t| 1 + t % (n - 1)).collect();
        let build = |t: u32| QueryRequest::paths(0, t).max_hops(k).collect_paths(true);

        let mut oracle = QueryEngine::new(&g, PathEnumConfig::default());
        let solo: Vec<QueryResponse> = targets
            .iter()
            .map(|&t| oracle.execute(&build(t)).unwrap())
            .collect();

        let catalog = CatalogService::new(
            PathEnumConfig::default(),
            CatalogConfig {
                workers,
                result_cache_bytes: 1 << 20,
                ..CatalogConfig::default()
            },
        );
        catalog.catalog().register("g", Arc::clone(&g));
        let tickets: Vec<CatalogTicket> = targets
            .iter()
            .map(|&t| catalog.submit(CatalogRequest::new("g", "tenant", build(t))))
            .collect();
        prop_assert_eq!(tickets.len(), solo.len());
        for (i, (ticket, expected)) in tickets.into_iter().zip(&solo).enumerate() {
            let response = ticket.wait().unwrap();
            prop_assert_eq!(
                &response.paths,
                &expected.paths,
                "workers={} request {} (t={})",
                workers,
                i,
                targets[i]
            );
            prop_assert_eq!(response.termination, expected.termination);
            prop_assert_eq!(response.num_results(), expected.num_results());
        }
        let stats = catalog
            .catalog()
            .tenant_result_cache_stats("g", "tenant")
            .unwrap();
        prop_assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        prop_assert_eq!(stats.lookups, targets.len() as u64);
    }
}

/// A sink that counts only, and counts the calls it receives.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct CallCounter {
    emits: u64,
    emit_counts: u64,
    counted: u64,
}

impl PathSink for CallCounter {
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.emits += 1;
        SearchControl::Continue
    }

    fn counts_only(&self) -> bool {
        true
    }

    fn emit_count(&mut self, n: u64) -> SearchControl {
        self.emit_counts += 1;
        self.counted += n;
        SearchControl::Continue
    }
}

/// How a count-only request was delivered and answered.
type Delivery = (CallCounter, Counters, Termination, CacheOutcome);

fn method_request(method: Option<Method>, collect: bool) -> QueryRequest<'static> {
    let request = QueryRequest::paths(0, 7).max_hops(5).collect_paths(collect);
    match method {
        Some(method) => request.method(method),
        None => request,
    }
}

/// Runs `request` twice through `engine` into a [`CallCounter`], with
/// `results` attached when given; returns both deliveries and the result
/// layer afterwards.
fn deliver_twice<G: GraphSnapshot>(
    mut engine: QueryEngine<'_, G>,
    results: Option<ResultCache>,
    request: &QueryRequest<'_>,
) -> (Vec<Delivery>, Option<ResultCache>) {
    if let Some(results) = results {
        engine = engine.with_result_cache(results);
    }
    let deliveries = (0..2)
        .map(|_| {
            let mut sink = CallCounter::default();
            let response = engine.execute_into(request, &mut sink).unwrap();
            let report = response.report;
            (sink, report.counters, response.termination, report.cache)
        })
        .collect();
    (deliveries, engine.into_result_cache())
}

/// With a result cache attached, a count-only request is delivered
/// exactly as without one — in bulk, through the same calls — on the
/// engine and on the dynamic engine, cold and repeated, and the layer
/// records nothing.
#[test]
fn count_only_requests_are_delivered_alike_with_or_without_a_result_cache() {
    use pathenum_repro::graph::generators::complete_digraph;

    let graph = complete_digraph(8);
    let dynamic_graph = DynamicGraph::new(graph.clone());
    let config = PathEnumConfig::default();
    for method in [None, Some(Method::IdxDfs), Some(Method::IdxJoin)] {
        let request = method_request(method, false);
        for dynamic in [false, true] {
            let at = format!("{method:?}, dynamic {dynamic}");
            let [plain, cached] = [None, Some(ResultCache::default())].map(|results| {
                let (deliveries, results) = if dynamic {
                    let engine = DynamicEngine::new(&dynamic_graph, config);
                    deliver_twice(engine, results, &request)
                } else {
                    deliver_twice(QueryEngine::new(&graph, config), results, &request)
                };
                if let Some(results) = results {
                    assert_eq!(results.len(), 0, "{at}");
                    assert_eq!(results.bytes(), 0, "{at}");
                }
                deliveries
            });
            assert_eq!(plain, cached, "{at}");
            let (calls, counters, termination, cache) = &plain[0];
            assert_eq!(calls.emits, 0, "{at}: delivered in bulk");
            assert!(calls.emit_counts > 0, "{at}");
            assert_eq!(calls.counted, counters.results, "{at}");
            assert_eq!(*termination, Termination::Completed, "{at}");
            assert_eq!(*cache, CacheOutcome::Miss, "{at}");
            assert_eq!(
                plain[1].3,
                CacheOutcome::Hit,
                "{at}: a repeat is a plan hit"
            );
        }
    }
}

/// After a collecting request records an answer, a count-only hit is
/// one `emit_count` of the served prefix — for a completed entry,
/// unlimited and at a tighter limit, and for a limit-truncated one —
/// answering what a cache-free engine answers.
#[test]
fn a_count_only_hit_is_one_emit_count() {
    use pathenum_repro::graph::generators::complete_digraph;

    let graph = complete_digraph(8);
    let config = PathEnumConfig::default();
    let request = |limit: Option<u64>, collect: bool| {
        let request = QueryRequest::paths(0, 7).max_hops(5).collect_paths(collect);
        match limit {
            Some(limit) => request.limit(limit),
            None => request,
        }
    };
    // (the recording request's limit, the count-only request's limit)
    let cases = [
        (None, None),
        (None, Some(10)),
        (Some(20), Some(20)),
        (Some(20), Some(5)),
    ];
    for (recorded, limit) in cases {
        let at = format!("recorded under {recorded:?}, served under {limit:?}");
        let mut engine = QueryEngine::new(&graph, config).with_result_cache(ResultCache::default());
        let recording = engine.execute(&request(recorded, true)).unwrap();
        assert_eq!(recording.report.cache, CacheOutcome::Miss, "{at}");
        let expected = QueryEngine::new(&graph, config)
            .execute(&request(limit, false))
            .unwrap();

        let mut sink = CallCounter::default();
        let hit = engine
            .execute_into(&request(limit, false), &mut sink)
            .unwrap();
        assert_eq!(hit.report.cache, CacheOutcome::ResultHit, "{at}");
        let served = expected.num_results();
        assert!(served > 0, "{at}");
        let one_call = CallCounter {
            emits: 0,
            emit_counts: 1,
            counted: served,
        };
        assert_eq!(sink, one_call, "{at}");
        assert_eq!(hit.num_results(), served, "{at}");
        assert_eq!(hit.termination, expected.termination, "{at}");
    }
}

/// A result hit plans nothing, so it reports no plan — not the plan of
/// the request that recorded the answer.
#[test]
fn a_result_hit_reports_no_plan() {
    use pathenum_repro::graph::generators::complete_digraph;

    let graph = complete_digraph(10);
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default())
        .with_result_cache(ResultCache::default());
    let unlimited = || QueryRequest::paths(0, 9).max_hops(4).collect_paths(true);
    let recorded = engine.execute(&unlimited()).unwrap();
    assert_eq!(recorded.plan.unwrap().limit, None);

    let limited = unlimited().limit(3);
    let hit = engine.execute(&limited).unwrap();
    assert_eq!(hit.report.cache, CacheOutcome::ResultHit);
    assert!(hit.plan.is_none());
    let fresh = QueryEngine::new(&graph, PathEnumConfig::default())
        .execute(&limited)
        .unwrap();
    assert_eq!(fresh.plan.unwrap().limit, Some(3));
    assert_eq!(hit.paths, fresh.paths);
    assert_eq!(hit.termination, fresh.termination);
}

/// A count-only miss records nothing, so a collecting follow-up plans
/// from the plan layer; the collecting miss's entry then serves a
/// count-only request as a result hit with the fresh count.
#[test]
fn count_only_misses_record_nothing_and_read_collected_answers() {
    use pathenum_repro::graph::generators::complete_digraph;

    let graph = complete_digraph(8);
    let config = PathEnumConfig::default();
    for method in [None, Some(Method::IdxDfs), Some(Method::IdxJoin)] {
        let build = |collect: bool| method_request(method, collect);
        let fresh = QueryEngine::new(&graph, config)
            .execute(&build(true))
            .unwrap();
        let mut caching =
            QueryEngine::new(&graph, config).with_result_cache(ResultCache::default());
        let counted = caching.execute(&build(false)).unwrap();
        assert_eq!(counted.report.cache, CacheOutcome::Miss, "{method:?}");
        assert!(counted.paths.is_empty(), "{method:?}");
        assert_eq!(counted.num_results(), fresh.num_results(), "{method:?}");
        assert!(caching.result_cache().unwrap().is_empty(), "{method:?}");

        let collected = caching.execute(&build(true)).unwrap();
        assert_eq!(collected.report.cache, CacheOutcome::Hit, "{method:?}");
        assert_eq!(collected.paths, fresh.paths, "{method:?}");
        assert_eq!(collected.termination, fresh.termination, "{method:?}");

        let read = caching.execute(&build(false)).unwrap();
        assert_eq!(read.report.cache, CacheOutcome::ResultHit, "{method:?}");
        assert!(read.paths.is_empty(), "{method:?}");
        assert!(read.plan.is_none(), "{method:?}");
        assert_eq!(read.num_results(), fresh.num_results(), "{method:?}");
        assert_eq!(read.termination, fresh.termination, "{method:?}");
    }
}

/// Mixed limits on one key, `q(0, 10, 6)` over K11, where an unlimited
/// request joins (cut 3) and a `limit(5)` one streams. Both methods emit
/// in the same order, so a prefix of the stored IDX-JOIN answer is path
/// for path what a fresh `limit(5)` IDX-DFS run returns; a replay plans
/// nothing and reports no plan.
#[test]
fn mixed_limits_on_one_key_replay_prefixes_of_the_stored_answer() {
    use pathenum_repro::graph::generators::complete_digraph;
    use CacheOutcome::{Hit, Miss, ResultHit};
    use Method::{IdxDfs, IdxJoin};

    let graph = Arc::new(complete_digraph(11));
    let config = PathEnumConfig::default();
    let budget = 16 << 20;
    // 6 * 17 000 > tau: this limit decides as no limit does, and joins.
    let limits = [None, Some(5), Some(17_000)];
    let build = |which: usize| {
        let request = QueryRequest::paths(0, 10).max_hops(6).collect_paths(true);
        match limits[which] {
            Some(limit) => request.limit(limit),
            None => request,
        }
    };
    let fresh: Vec<QueryResponse> = (0..limits.len())
        .map(|which| {
            let mut engine = QueryEngine::new(&graph, config);
            engine.execute(&build(which).bypass_cache()).unwrap()
        })
        .collect();
    for (response, method) in fresh.iter().zip([IdxJoin, IdxDfs, IdxJoin]) {
        assert_eq!(response.plan.unwrap().method, method);
    }
    assert_eq!(fresh[0].paths.len(), 18_730);

    // (request, cache outcome, reported method: none on a replay)
    let scripts: [&[(usize, CacheOutcome, Option<Method>)]; 2] = [
        // The completed IDX-JOIN answer serves every limit.
        &[
            (0, Miss, Some(IdxJoin)),
            (1, ResultHit, None),
            (2, ResultHit, None),
            (0, ResultHit, None),
        ],
        // A truncated IDX-DFS answer serves its own shape, is too short
        // for the unlimited request, and is superseded by its answer.
        &[
            (1, Miss, Some(IdxDfs)),
            (1, ResultHit, None),
            (0, Hit, Some(IdxJoin)),
            (1, ResultHit, None),
            (2, ResultHit, None),
        ],
    ];
    for steps in scripts {
        let mut caching =
            QueryEngine::new(&graph, config).with_result_cache(ResultCache::new(budget));
        for (i, &(which, outcome, method)) in steps.iter().enumerate() {
            let response = caching.execute(&build(which)).unwrap();
            let at = format!("step {i} of {steps:?}");
            assert_eq!(response.report.cache, outcome, "{at}");
            assert_eq!(response.paths, fresh[which].paths, "{at}");
            assert_eq!(response.termination, fresh[which].termination, "{at}");
            assert_eq!(response.plan.map(|plan| plan.method), method, "{at}");
        }
        let stats = caching.result_cache_stats();
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    }

    // Through the catalog: the requests share a plan key and a result
    // key, submitted together and waited in order.
    let catalog = CatalogService::new(
        config,
        CatalogConfig {
            workers: 2,
            cache_shards: 1,
            result_cache_bytes: budget,
            ..CatalogConfig::default()
        },
    );
    catalog.catalog().register("g", Arc::clone(&graph));
    let order = [1usize, 0, 2, 1];
    let tickets: Vec<CatalogTicket> = order
        .iter()
        .map(|&which| catalog.submit(CatalogRequest::new("g", "tenant", build(which))))
        .collect();
    for (ticket, which) in tickets.into_iter().zip(order) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.paths, fresh[which].paths, "request {which}");
        assert_eq!(response.termination, fresh[which].termination);
    }
}
