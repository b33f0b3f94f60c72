//! Catalog-layer soundness: epoch swaps under live traffic, per-graph
//! (not global) cache invalidation, tenant quota isolation, fast
//! rejection paths, and concurrent replay.
//!
//! The acceptance property: a `publish` mid-stream must never tear a
//! read — every response is wholly attributable to the single epoch its
//! ticket snapshotted at submit, matching a sequential oracle run on
//! that epoch's graph path-for-path. A one-graph catalog with N workers
//! replaying a shuffled stream must produce path-for-path the same
//! per-request results as the sequential `QueryEngine` oracle, with
//! shared-cache statistics summing consistently
//! (`hits + misses + bypasses == lookups`) across worker counts
//! {1, 2, 4, 8}.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

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

fn catalog_service(workers: usize, admission: AdmissionConfig) -> CatalogService {
    CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers,
            admission,
            ..CatalogConfig::default()
        },
    )
}

/// A catalog serving `graph` alone, as `"g"`, with admission off.
fn one_graph(workers: usize, graph: Arc<CsrGraph>) -> CatalogService {
    let service = catalog_service(workers, AdmissionConfig::disabled());
    service.catalog().register("g", graph);
    service
}

/// Submits every request to the one-graph catalog, then waits on the
/// tickets in submission order.
fn submit_all(
    service: &CatalogService,
    requests: Vec<QueryRequest<'static>>,
) -> Vec<Result<QueryResponse, PathEnumError>> {
    let tickets: Vec<CatalogTicket> = requests
        .into_iter()
        .map(|request| service.submit(CatalogRequest::new("g", "tenant", request)))
        .collect();
    tickets.into_iter().map(CatalogTicket::wait).collect()
}

/// A random digraph plus a shuffled, repetitive target stream: targets
/// are drawn from the small range `1..n`, so the stream naturally
/// contains the repeats a plan cache exists for.
fn arb_instance() -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<u32>)> {
    (4u32..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..70);
        let targets = proptest::collection::vec(1..n, 4..24);
        (Just(n), edges, targets)
    })
}

/// The request stream both sides replay: mostly cacheable requests, with
/// every fifth one opting out of the cache so the `bypasses` counter is
/// exercised too.
fn build_requests(targets: &[u32], k: u32) -> Vec<QueryRequest<'static>> {
    targets
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let request = QueryRequest::paths(0, t).max_hops(k).collect_paths(true);
            if i % 5 == 4 {
                request.bypass_cache()
            } else {
                request
            }
        })
        .collect()
}

/// `n`, a list of edge sets (one graph generation each), and a target
/// stream, all vertex ids in range.
type GenerationsInstance = (u32, Vec<Vec<(u32, u32)>>, Vec<u32>);

fn arb_generations() -> impl Strategy<Value = GenerationsInstance> {
    (5u32..12).prop_flat_map(|n| {
        let generation = proptest::collection::vec((0..n, 0..n), 4..40);
        let generations = proptest::collection::vec(generation, 2..5);
        let targets = proptest::collection::vec(1..n, 6..18);
        (Just(n), generations, targets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch-swap safety: graphs are republished *while submissions are
    /// in flight*; every response must equal the sequential oracle of
    /// exactly the epoch its ticket snapshotted — no torn reads, and
    /// stale cached plans must never leak across a publish.
    #[test]
    fn epoch_swaps_never_tear_responses(
        (n, generations, targets) in arb_generations(),
    ) {
        let k = 4u32;
        let graphs: Vec<Arc<CsrGraph>> = generations
            .iter()
            .map(|edges| Arc::new(graph_from_edges(n, edges)))
            .collect();

        // Sequential oracle per (epoch, target).
        let mut oracles: Vec<HashMap<u32, Vec<Vec<u32>>>> = Vec::with_capacity(graphs.len());
        for graph in &graphs {
            let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
            let mut per_target = HashMap::new();
            for &t in &targets {
                per_target.entry(t).or_insert_with(|| {
                    engine
                        .execute(&QueryRequest::paths(0, t).max_hops(k).collect_paths(true))
                        .expect("valid query")
                        .paths
                });
            }
            oracles.push(per_target);
        }

        let service = catalog_service(2, AdmissionConfig::disabled());
        service.catalog().register("live", Arc::clone(&graphs[0]));

        // Submit the target stream in slices, publishing the next epoch
        // between slices while earlier submissions may still be running.
        // The stream is replayed once per epoch so every epoch sees both
        // cold and warm (and freshly-invalidated) cache states.
        let mut tickets = Vec::new();
        for (e, graph) in graphs.iter().enumerate() {
            if e > 0 {
                let epoch = service.catalog().publish("live", Arc::clone(graph)).unwrap();
                prop_assert_eq!(epoch, e as u64);
            }
            for &t in &targets {
                let request = QueryRequest::paths(0, t).max_hops(k).collect_paths(true);
                tickets.push((t, service.submit(CatalogRequest::new("live", "tenant", request))));
            }
        }

        for (t, ticket) in tickets {
            let epoch = ticket.epoch().expect("registered graph") as usize;
            prop_assert!(epoch < graphs.len());
            let response = ticket.wait().expect("valid query");
            prop_assert_eq!(
                &response.paths,
                &oracles[epoch][&t],
                "target {} diverged from its epoch-{} oracle",
                t,
                epoch
            );
        }
    }

    #[test]
    fn workers_replay_a_shuffled_stream_identically_to_the_engine(
        (n, edges, targets) in arb_instance(),
        k in 2u32..6,
    ) {
        let graph = Arc::new(graph_from_edges(n, &edges));

        // Sequential oracle: one engine, same stream, same order.
        let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
        let oracle: Vec<QueryResponse> = build_requests(&targets, k)
            .iter()
            .map(|request| engine.execute(request).expect("valid request"))
            .collect();

        for workers in [1usize, 2, 4, 8] {
            let service = one_graph(workers, Arc::clone(&graph));
            let responses = submit_all(&service, build_requests(&targets, k));
            prop_assert_eq!(responses.len(), oracle.len());
            for (i, (response, expected)) in responses.iter().zip(&oracle).enumerate() {
                let response = response.as_ref().expect("valid request");
                prop_assert_eq!(
                    &response.paths, &expected.paths,
                    "workers={} request {} diverged", workers, i
                );
                prop_assert_eq!(response.num_results(), expected.num_results());
                prop_assert_eq!(response.termination, expected.termination);
            }

            let stats = service.catalog().tenant_cache_stats("g", "tenant").unwrap();
            prop_assert_eq!(
                stats.hits + stats.misses + stats.bypasses,
                stats.lookups,
                "workers={}: stats must balance", workers
            );
            prop_assert_eq!(stats.lookups, targets.len() as u64);
            prop_assert_eq!(stats.bypasses, (targets.len() / 5) as u64);
            prop_assert_eq!(service.queries_submitted(), targets.len() as u64);
            // Plans are looked up on the submitting thread, so the lookups
            // run in stream order for every worker count: each repeat of a
            // cacheable shape after its first occurrence hits.
            let distinct: std::collections::HashSet<u32> = targets
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 5 != 4)
                .map(|(_, &t)| t)
                .collect();
            let cacheable = targets.len() - targets.len() / 5;
            prop_assert_eq!(stats.hits, (cacheable - distinct.len()) as u64);
        }
    }

    #[test]
    fn limits_deadlines_and_limits_match_the_engine_under_workers(
        (n, edges, targets) in arb_instance(),
        k in 2u32..6,
        limit in 1u64..6,
    ) {
        let graph = Arc::new(graph_from_edges(n, &edges));
        let requests = || -> Vec<QueryRequest<'static>> {
            targets
                .iter()
                .map(|&t| QueryRequest::paths(0, t).max_hops(k).limit(limit).collect_paths(true))
                .collect()
        };
        let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
        let oracle: Vec<QueryResponse> = requests()
            .iter()
            .map(|request| engine.execute(request).expect("valid request"))
            .collect();
        for workers in [2usize, 8] {
            let service = one_graph(workers, Arc::clone(&graph));
            for (response, expected) in submit_all(&service, requests()).iter().zip(&oracle) {
                let response = response.as_ref().expect("valid request");
                prop_assert_eq!(&response.paths, &expected.paths);
                prop_assert_eq!(response.termination, expected.termination);
            }
        }
    }
}

#[test]
fn publish_invalidates_per_graph_not_globally() {
    let a0 = Arc::new(graph_from_edges(5, &[(0, 1), (1, 2), (0, 2)]));
    let a1 = Arc::new(graph_from_edges(5, &[(0, 1), (1, 2), (2, 3)]));
    let b = Arc::new(graph_from_edges(5, &[(0, 1), (1, 4), (0, 4)]));
    let service = catalog_service(1, AdmissionConfig::disabled());
    service.catalog().register("a", a0);
    service.catalog().register("b", Arc::clone(&b));

    let request = || QueryRequest::paths(0, 2).max_hops(3).collect_paths(true);
    let run = |name: &str| {
        service
            .execute(CatalogRequest::new(name, "tenant", request()))
            .expect("valid query")
    };
    // Warm both graphs' tenant caches: one miss each, then a hit each.
    for _ in 0..2 {
        run("a");
        run("b");
    }
    let stats_a = service.catalog().tenant_cache_stats("a", "tenant").unwrap();
    let stats_b = service.catalog().tenant_cache_stats("b", "tenant").unwrap();
    assert_eq!((stats_a.misses, stats_a.hits), (1, 1));
    assert_eq!((stats_b.misses, stats_b.hits), (1, 1));

    // Publishing `a` must invalidate `a`'s stale entry on next lookup —
    // and leave `b`'s cache entirely alone.
    service.catalog().publish("a", a1).unwrap();
    let after_a = run("a");
    let after_b = run("b");
    assert_eq!(after_a.report.cache, CacheOutcome::Miss, "a replans");
    assert_eq!(after_b.report.cache, CacheOutcome::Hit, "b stays warm");
    let stats_a = service.catalog().tenant_cache_stats("a", "tenant").unwrap();
    let stats_b = service.catalog().tenant_cache_stats("b", "tenant").unwrap();
    assert_eq!(stats_a.invalidations, 1, "a's stale entry was invalidated");
    assert_eq!(stats_b.invalidations, 0, "b was untouched");
    assert_eq!(stats_b.hits, 2);
    // The republished graph actually serves the new topology.
    assert_eq!(after_a.num_results(), 1, "0-1-2 only; 0-2 edge is gone");
}

#[test]
fn tenant_quotas_isolate_and_account_evictions() {
    let graph = Arc::new(graph_from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (1, 3),
            (0, 2),
            (3, 4),
            (4, 5),
        ],
    ));
    let service = CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers: 1,
            tenant_cache_quota: 2,
            cache_shards: 1,
            admission: AdmissionConfig::disabled(),
            ..CatalogConfig::default()
        },
    );
    service.catalog().register("g", graph);
    assert_eq!(service.catalog().tenant_cache_quota(), 2);

    // Tenant A cycles through 3 distinct shapes twice over a 2-entry
    // quota: evictions must be recorded. Tenant B runs one shape twice
    // and must keep hitting, unaffected by A's churn.
    for _ in 0..2 {
        for t in [1u32, 2, 3] {
            service
                .execute(CatalogRequest::new(
                    "g",
                    "tenant-a",
                    QueryRequest::paths(0, t).max_hops(3),
                ))
                .expect("valid query");
        }
        service
            .execute(CatalogRequest::new(
                "g",
                "tenant-b",
                QueryRequest::paths(0, 1).max_hops(3),
            ))
            .expect("valid query");
    }
    let stats_a = service
        .catalog()
        .tenant_cache_stats("g", "tenant-a")
        .unwrap();
    let stats_b = service
        .catalog()
        .tenant_cache_stats("g", "tenant-b")
        .unwrap();
    assert!(stats_a.evictions > 0, "3 shapes over quota 2 must evict");
    assert_eq!((stats_b.misses, stats_b.hits, stats_b.evictions), (1, 1, 0));

    let accounting = service.catalog().tenant_accounting("g");
    assert_eq!(accounting.len(), 2);
    assert!(
        accounting.iter().all(|(_, len, _)| *len <= 2),
        "quota holds"
    );
}

#[test]
fn unknown_graphs_reject_immediately() {
    let service = catalog_service(1, AdmissionConfig::disabled());
    let ticket = service.submit(CatalogRequest::new(
        "nope",
        "tenant",
        QueryRequest::paths(0, 1).max_hops(2),
    ));
    assert!(ticket.is_done(), "rejection resolves before submit returns");
    assert_eq!(ticket.epoch(), None);
    let outcome = ticket.wait_outcome();
    assert_eq!(outcome.latency(), Duration::ZERO);
    assert_eq!(outcome.response.unwrap_err(), PathEnumError::GraphNotFound);
}

#[test]
fn overloaded_rejections_resolve_promptly_with_a_hint() {
    // A dense digraph so the blocker query keeps the only worker busy.
    let mut edges = Vec::new();
    for u in 0..9u32 {
        for v in 0..9u32 {
            edges.push((u, v));
        }
    }
    let graph = Arc::new(graph_from_edges(9, &edges));
    let service = catalog_service(
        1,
        AdmissionConfig {
            cost_budget: None,
            max_queue_per_tenant: 1,
            interactive_cost_threshold: 1,
        },
    );
    service.catalog().register("dense", graph);

    // The blocker occupies the tenant's only admission slot until it
    // completes; everything submitted meanwhile must shed fast. Its
    // check closure waits on `gate`, so it cannot finish (and free the
    // slot) before the test has submitted the request that must shed.
    let gate = Arc::new(std::sync::Mutex::new(()));
    let closed = gate.lock().unwrap();
    let blocking_check = {
        let gate = Arc::clone(&gate);
        move |_: &u64| {
            drop(gate.lock());
            true
        }
    };
    let blocker = service.submit(CatalogRequest::new(
        "dense",
        "tenant",
        QueryRequest::paths(0, 8)
            .max_hops(8)
            .accumulative(AccumulativeQuery {
                identity: 0u64,
                combine: |a, b| a + b,
                weight: |_, _| 1u64,
                check: blocking_check,
                prune: None,
            }),
    ));
    assert!(blocker.decision().unwrap().admitted());

    let before = Instant::now();
    let shed = service.submit(CatalogRequest::new(
        "dense",
        "tenant",
        QueryRequest::paths(0, 8).max_hops(8),
    ));
    assert!(shed.is_done(), "shed tickets resolve before submit returns");
    let decision = shed.decision().expect("a decision was recorded").clone();
    assert!(!decision.admitted());
    let rendered = decision.to_string();
    assert!(rendered.contains("verdict:           shed"));
    let outcome = shed.wait_outcome();
    // Prompt resolution: no waiting behind the blocker's long execution.
    assert!(before.elapsed() < Duration::from_secs(2));
    assert_eq!(outcome.started, outcome.finished);
    match outcome.response.unwrap_err() {
        PathEnumError::Overloaded { retry_hint } => {
            assert!(retry_hint > Duration::ZERO);
            assert!(retry_hint <= Duration::from_millis(100));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(closed);

    // Another tenant is not starved by tenant-a's full queue.
    let other = service
        .submit(CatalogRequest::new(
            "dense",
            "other-tenant",
            QueryRequest::paths(0, 1).max_hops(2),
        ))
        .wait();
    assert!(other.is_ok());
    assert!(blocker.wait().is_ok());
}

#[test]
fn admission_disabled_matches_the_single_service_byte_for_byte() {
    let graph = Arc::new(graph_from_edges(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (1, 3),
            (3, 4),
            (2, 4),
            (0, 5),
            (5, 3),
        ],
    ));
    let service = catalog_service(2, AdmissionConfig::disabled());
    service.catalog().register("g", Arc::clone(&graph));
    let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
    for t in 1..7u32 {
        let request = || QueryRequest::paths(0, t).max_hops(4).collect_paths(true);
        let expected = engine.execute(&request()).unwrap();
        let got = service
            .execute(CatalogRequest::new("g", "tenant", request()))
            .unwrap();
        assert_eq!(got.paths, expected.paths, "t={t}");
        assert_eq!(got.termination, expected.termination);
    }
    assert_eq!(service.queries_submitted(), 6);
}

#[test]
fn threaded_requests_run_sequentially_in_the_catalog() {
    // The catalog runs every request sequentially inside, whatever its
    // `threads`: the plan reports the one thread it granted, and the
    // paths come out in the sequential DFS emission order.
    let graph = Arc::new(pathenum_repro::graph::generators::complete_digraph(8));
    let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
    let expected = engine
        .execute(&QueryRequest::paths(0, 7).max_hops(4).collect_paths(true))
        .unwrap();

    let service = one_graph(4, Arc::clone(&graph));
    let responses = submit_all(
        &service,
        vec![QueryRequest::paths(0, 7)
            .max_hops(4)
            .threads(8)
            .collect_paths(true)],
    );
    let response = responses[0].as_ref().unwrap();
    assert_eq!(response.plan.unwrap().threads, 1, "granted threads");
    assert_eq!(response.paths, expected.paths, "order identical");
}

#[test]
fn ticket_outcomes_report_a_truthful_service_time_envelope() {
    // One worker, so the probe must queue behind a heavy blocker. The
    // outcome's `started` stamp is worker pickup, not submission: it has
    // to trail both the submission instant and the blocker's `finished`
    // stamp, and the reported latency (service time only) must fit
    // inside the sojourn the caller observed around submit + wait.
    let graph = Arc::new(pathenum_repro::graph::generators::complete_digraph(9));
    let service = one_graph(1, graph);
    let routed = |request| CatalogRequest::new("g", "tenant", request);
    let blocker = service.submit(routed(
        QueryRequest::paths(0, 8).max_hops(8).collect_paths(true),
    ));
    let submitted_at = Instant::now();
    let probe = service.submit(routed(QueryRequest::paths(0, 1).max_hops(2)));

    let blocker_outcome = blocker.wait_outcome();
    let outcome = probe.wait_outcome();
    let sojourn = submitted_at.elapsed();
    assert!(blocker_outcome.response.is_ok());
    assert!(outcome.response.is_ok());

    assert!(
        outcome.started >= submitted_at,
        "pickup cannot precede submission"
    );
    assert!(
        outcome.started >= blocker_outcome.finished,
        "a single worker picks the probe up only after the blocker"
    );
    assert!(outcome.finished >= outcome.started);
    assert_eq!(outcome.latency(), outcome.finished - outcome.started);
    // Queue wait and service time partition the sojourn: together they
    // can never exceed what the caller measured from the outside.
    let queue_wait = outcome.started - submitted_at;
    assert!(
        queue_wait + outcome.latency() <= sojourn,
        "queue wait ({queue_wait:?}) + latency ({:?}) exceeds the \
         observed sojourn ({sojourn:?})",
        outcome.latency()
    );
}

#[test]
fn rejected_requests_never_touch_the_shared_cache() {
    let graph = Arc::new(pathenum_repro::graph::generators::erdos_renyi(30, 160, 4));
    let service = one_graph(0, graph);
    let token = CancelToken::new();
    token.cancel();
    let batch: Vec<QueryRequest<'static>> = vec![
        QueryRequest::paths(0, 1).max_hops(4).cancel_token(token),
        QueryRequest::paths(0, 1)
            .max_hops(4)
            .time_budget(Duration::ZERO),
        QueryRequest::paths(0, 1).max_hops(4).limit(0),
        QueryRequest::paths(0, 1).max_hops(4),
    ];
    let tickets: Vec<CatalogTicket> = batch
        .into_iter()
        .map(|request| service.submit(CatalogRequest::new("g", "tenant", request)))
        .collect();
    for stopped in &tickets[..3] {
        assert!(stopped.is_done(), "a pre-flight stop resolves at submit");
        assert!(stopped.decision().is_none(), "no admission charge");
    }
    let responses: Vec<_> = tickets.into_iter().map(CatalogTicket::wait).collect();
    assert_eq!(
        responses[0].as_ref().unwrap().termination,
        Termination::Cancelled
    );
    assert_eq!(
        responses[1].as_ref().unwrap().termination,
        Termination::DeadlineExceeded
    );
    assert_eq!(
        responses[2].as_ref().unwrap().termination,
        Termination::LimitReached
    );
    for rejected in &responses[..3] {
        assert_eq!(
            rejected.as_ref().unwrap().report.cache,
            CacheOutcome::Skipped
        );
    }
    assert_eq!(
        responses[3].as_ref().unwrap().termination,
        Termination::Completed
    );
    assert_eq!(service.queries_submitted(), 4);
    let stats = service.catalog().tenant_cache_stats("g", "tenant").unwrap();
    assert_eq!(stats.lookups, 1, "only the real request");
}

#[test]
fn constrained_requests_through_the_catalog_match_the_engine() {
    let graph = Arc::new(pathenum_repro::graph::generators::erdos_renyi(40, 260, 6));
    let service = one_graph(0, Arc::clone(&graph));
    let mut engine = QueryEngine::new(graph.as_ref(), PathEnumConfig::default());
    let make = || -> QueryRequest<'static> {
        QueryRequest::paths(0, 1)
            .max_hops(4)
            .predicate(|u, v| (u + v) % 3 != 0)
            .constraint_fingerprint(11)
            .collect_paths(true)
    };
    let expected = engine.execute(&make()).unwrap();
    for response in submit_all(&service, vec![make(), make(), make()]) {
        let response = response.unwrap();
        assert_eq!(response.paths, expected.paths);
        assert_eq!(
            response.plan.unwrap().threads,
            1,
            "constrained requests stay sequential"
        );
    }
    let stats = service.catalog().tenant_cache_stats("g", "tenant").unwrap();
    assert!(stats.hits >= 1, "fingerprinted predicate caches");
}

#[test]
fn worker_panics_resolve_the_ticket_and_spare_the_pool() {
    let graph = Arc::new(pathenum_repro::graph::generators::erdos_renyi(30, 150, 1));
    let service = one_graph(1, graph);
    let panicking: QueryRequest<'static> = QueryRequest::paths(0, 1)
        .max_hops(4)
        .predicate(|_, _| panic!("hostile constraint closure"));
    let err = submit_all(&service, vec![panicking]).remove(0).unwrap_err();
    assert_eq!(err, PathEnumError::EvaluationPanicked);
    // The check closure runs during enumeration, so this panic unwinds
    // through the pool's only worker rather than through `submit`.
    let panicking_on_the_worker: QueryRequest<'static> = QueryRequest::paths(0, 1)
        .max_hops(4)
        .accumulative(AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight: |_, _| 1u64,
            check: |_: &u64| panic!("hostile constraint closure"),
            prune: None,
        });
    let ticket = service.submit(CatalogRequest::new("g", "tenant", panicking_on_the_worker));
    assert!(ticket.decision().is_some(), "the request reached the pool");
    assert_eq!(
        ticket.wait().unwrap_err(),
        PathEnumError::EvaluationPanicked
    );
    // The (only) worker survived the panic and keeps serving.
    let response = submit_all(&service, vec![QueryRequest::paths(0, 1).max_hops(4)])
        .remove(0)
        .unwrap();
    assert_eq!(response.termination, Termination::Completed);
}

#[test]
fn dropping_the_service_resolves_outstanding_tickets() {
    let graph = Arc::new(pathenum_repro::graph::generators::complete_digraph(8));
    let service = one_graph(1, graph);
    let tickets: Vec<CatalogTicket> = (0..6)
        .map(|_| {
            let request = QueryRequest::paths(0, 7).max_hops(4).limit(50);
            service.submit(CatalogRequest::new("g", "tenant", request))
        })
        .collect();
    drop(service);
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert_eq!(response.num_results(), 50);
    }
}

#[test]
fn bypass_requests_are_counted_but_never_stored() {
    let graph = Arc::new(pathenum_repro::graph::generators::erdos_renyi(30, 150, 8));
    let service = one_graph(2, graph);
    for _ in 0..3 {
        let request = QueryRequest::paths(0, 1).max_hops(4).bypass_cache();
        let response = service
            .execute(CatalogRequest::new("g", "tenant", request))
            .unwrap();
        assert_eq!(response.report.cache, CacheOutcome::Bypass);
    }
    let stats = service.catalog().tenant_cache_stats("g", "tenant").unwrap();
    assert_eq!(stats.bypasses, 3);
    assert_eq!(stats.lookups, 3);
    let entries: usize = service
        .catalog()
        .tenant_accounting("g")
        .iter()
        .map(|(_, entries, _)| entries)
        .sum();
    assert_eq!(entries, 0);
}

#[test]
fn result_layer_stays_off_by_default() {
    let graph = Arc::new(pathenum_repro::graph::generators::erdos_renyi(40, 220, 29));
    let service = one_graph(2, graph);
    let routed = || {
        let request = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
        CatalogRequest::new("g", "tenant", request)
    };
    service.execute(routed()).unwrap();
    let warm = service.execute(routed()).unwrap();
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    assert_eq!(service.catalog().result_cache_bytes(), 0);
    let stats = service.catalog().tenant_result_cache_stats("g", "tenant");
    assert!(stats.is_none(), "no result cache was ever created");
}
