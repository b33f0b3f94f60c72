//! The evaluator matrix: one scripted request sequence through every
//! driver of the request pipeline — `QueryEngine`, `DynamicEngine`,
//! `CatalogService` — with the result layer on and off.
//!
//! All three are drivers of the same two pipeline stages, so they must
//! agree step by step on the paths (checked against the brute-force
//! `pathenum::reference`), the `Termination`, and the `CacheOutcome`
//! tag, and every cache store must balance
//! `hits + misses + bypasses == lookups` afterwards. A second leg pins
//! what only a graph with a mutation log adds: entries retained across a
//! far mutation, invalidated by one inside the footprint. A third pins
//! what a request's `limit` decides: on a graph dense enough that an
//! unlimited request joins and a `limit(2)` one streams, each evaluator
//! answers both — in either order, from one cached entry — exactly as a
//! cache-free engine does.

use std::sync::Arc;

use pathenum_repro::core::reference::brute_force_paths;
use pathenum_repro::graph::generators::{complete_digraph, erdos_renyi};
use pathenum_repro::prelude::*;

const K: u32 = 4;
const RESULT_BYTES: usize = 1 << 20;

/// Every simple path `s -> t` within `K` hops, sorted.
fn reference(graph: &CsrGraph, s: VertexId, t: VertexId) -> Vec<Vec<VertexId>> {
    let mut sink = CollectingSink::default();
    brute_force_paths(graph, Query::new(s, t, K).unwrap(), &mut sink);
    sink.sorted_paths()
}

fn sorted(mut paths: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    paths.sort_unstable();
    paths
}

/// What one step of the script must produce on every evaluator.
struct Expect {
    name: &'static str,
    termination: Termination,
    /// The tag with the result layer off / on.
    cache: [CacheOutcome; 2],
    /// The full (sorted) path set, or a prefix length of it.
    paths: Paths,
}

enum Paths {
    All(Vec<Vec<VertexId>>),
    /// Exactly this many, each drawn from the set.
    Prefix(usize, Vec<Vec<VertexId>>),
    None,
}

/// The scripted sequence, rebuilt per evaluator (the catalog consumes
/// its requests, and predicates are not clonable).
fn script(graph: &CsrGraph, t: VertexId, other: VertexId, avoid: VertexId) -> Vec<Expect> {
    use CacheOutcome::*;
    let all = reference(graph, 0, t);
    assert!(all.len() > 2, "the scripted query needs a few paths");
    let avoiding: Vec<_> = all
        .iter()
        .filter(|p| !p.contains(&avoid))
        .cloned()
        .collect();
    assert!(!reference(graph, 0, other).is_empty());
    let step = |name, termination, cache, paths| Expect {
        name,
        termination,
        cache,
        paths,
    };
    let done = Termination::Completed;
    vec![
        step("cold", done, [Miss, Miss], Paths::All(all.clone())),
        step("repeat", done, [Hit, ResultHit], Paths::All(all.clone())),
        step(
            "tighter limit",
            Termination::LimitReached,
            [Hit, ResultHit],
            Paths::Prefix(2, all.clone()),
        ),
        step(
            "bypass_result_cache",
            done,
            [Hit, Hit],
            Paths::All(all.clone()),
        ),
        step("bypass_cache", done, [Bypass, Bypass], Paths::All(all)),
        step("explain", done, [Hit, Hit], Paths::None),
        step(
            "pre-cancelled",
            Termination::Cancelled,
            [Skipped, Skipped],
            Paths::None,
        ),
        step(
            "predicate cold",
            done,
            [Miss, Miss],
            Paths::All(avoiding.clone()),
        ),
        step(
            "predicate repeat",
            done,
            [Hit, ResultHit],
            Paths::All(avoiding),
        ),
    ]
}

fn request(step: usize, t: VertexId, other: VertexId, avoid: VertexId) -> QueryRequest<'static> {
    let base = QueryRequest::paths(0, t).max_hops(K).collect_paths(true);
    match step {
        0 | 1 => base,
        2 => base.limit(2),
        3 => base.bypass_result_cache(),
        4 => base.bypass_cache(),
        5 => base.explain(),
        6 => {
            // A shape no other step uses: the catalog plans at submit
            // even for a request its worker then refuses to start.
            let token = CancelToken::new();
            token.cancel();
            QueryRequest::paths(0, other)
                .max_hops(K)
                .collect_paths(true)
                .cancel_token(token)
        }
        7 | 8 => base
            .predicate(move |_, to| to != avoid)
            .constraint_fingerprint(7),
        _ => unreachable!("the script has nine steps"),
    }
}

/// Runs the script through `evaluate`, checking every step against its
/// expectation; returns the emitted paths per step (exact order) so the
/// caller can compare evaluators with each other.
fn run_script(
    label: &str,
    results_on: bool,
    expectations: &[Expect],
    targets: (VertexId, VertexId, VertexId),
    mut evaluate: impl FnMut(QueryRequest<'static>) -> QueryResponse,
) -> Vec<Vec<Vec<VertexId>>> {
    let (t, other, avoid) = targets;
    let mut emitted = Vec::new();
    for (i, expect) in expectations.iter().enumerate() {
        let response = evaluate(request(i, t, other, avoid));
        let at = format!("{label}, results {results_on}, step '{}'", expect.name);
        assert_eq!(response.termination, expect.termination, "{at}");
        assert_eq!(
            response.report.cache, expect.cache[results_on as usize],
            "{at}"
        );
        match &expect.paths {
            Paths::All(all) => assert_eq!(&sorted(response.paths.clone()), all, "{at}"),
            Paths::Prefix(n, all) => {
                assert_eq!(response.paths.len(), *n, "{at}");
                assert!(response.paths.iter().all(|p| all.contains(p)), "{at}");
            }
            Paths::None => assert!(response.paths.is_empty(), "{at}"),
        }
        emitted.push(response.paths);
    }
    emitted
}

fn assert_balanced(label: &str, stats: CacheStats) {
    assert_eq!(
        stats.hits + stats.misses + stats.bypasses,
        stats.lookups,
        "{label}: {stats:?}"
    );
}

/// `(t, other, avoid)` for the scripted graph: two targets with paths
/// from vertex 0, and an interior vertex some (not all) paths visit.
fn pick_targets(graph: &CsrGraph) -> (VertexId, VertexId, VertexId) {
    let n = graph.num_vertices() as VertexId;
    let mut rich = (1..n).filter(|&t| reference(graph, 0, t).len() > 3);
    let t = rich.next().expect("a target with several paths");
    let other = rich.next().expect("a second target");
    let paths = reference(graph, 0, t);
    let avoid = (1..n)
        .filter(|&v| v != t)
        .find(|v| {
            let through = paths.iter().filter(|p| p.contains(v)).count();
            0 < through && through < paths.len()
        })
        .expect("an interior vertex on some paths");
    (t, other, avoid)
}

#[test]
fn every_evaluator_agrees_on_the_scripted_sequence() {
    let graph = erdos_renyi(40, 220, 12);
    let targets = pick_targets(&graph);
    let expectations = script(&graph, targets.0, targets.1, targets.2);
    let config = PathEnumConfig::default();

    for results_on in [false, true] {
        let result_bytes = if results_on { RESULT_BYTES } else { 0 };

        let mut engine = QueryEngine::new(&graph, config);
        if results_on {
            engine = engine.with_result_cache(ResultCache::new(RESULT_BYTES));
        }
        let from_engine = run_script("engine", results_on, &expectations, targets, |r| {
            engine.execute(&r).unwrap()
        });

        let dynamic_graph = DynamicGraph::new(graph.clone());
        let mut dynamic = DynamicEngine::new(&dynamic_graph, config);
        if results_on {
            dynamic = dynamic.with_result_cache(ResultCache::new(RESULT_BYTES));
        }
        let from_dynamic = run_script("dynamic", results_on, &expectations, targets, |r| {
            dynamic.execute(&r).unwrap()
        });

        let catalog = CatalogService::new(
            config,
            CatalogConfig {
                workers: 2,
                result_cache_bytes: result_bytes,
                ..CatalogConfig::default()
            },
        );
        catalog.catalog().register("g", Arc::new(graph.clone()));
        let from_catalog = run_script("catalog", results_on, &expectations, targets, |r| {
            catalog
                .execute(CatalogRequest::new("g", "tenant", r))
                .unwrap()
        });

        // Same pipeline, same deterministic emission order.
        assert_eq!(from_engine, from_dynamic);
        assert_eq!(from_engine, from_catalog);

        // Every evaluator pre-flights before touching a cache (the
        // catalog at submit), so all three account identically.
        let plans = engine.cache_stats();
        assert_eq!(plans, dynamic.cache_stats());
        assert_eq!(plans.retained, 0);
        let results = engine.result_cache_stats();
        assert_eq!(results, dynamic.result_cache_stats());
        assert_eq!(results.lookups > 0, results_on);
        assert_eq!(engine.queries_rejected(), 1);
        assert_eq!(dynamic.queries_served(), 8);
        assert_eq!(catalog.queries_submitted(), 9);

        let tenant_plans = catalog.catalog().tenant_cache_stats("g", "tenant").unwrap();
        assert_eq!(tenant_plans.lookups, plans.lookups);
        assert_eq!(tenant_plans, plans);
        let tenant_results = catalog.catalog().tenant_result_cache_stats("g", "tenant");
        assert_eq!(tenant_results.is_some(), results_on);
        assert_eq!(tenant_results.unwrap_or_default(), results);

        for (label, stats) in [
            ("engine plans", plans),
            ("engine results", results),
            ("tenant plans", tenant_plans),
            ("tenant results", tenant_results.unwrap_or_default()),
        ] {
            assert_balanced(label, stats);
        }
    }
}

#[test]
fn only_the_mutation_log_changes_what_a_dynamic_engine_keeps() {
    // 0 -> 1 -> 2 with a spare vertex 3, and a far component 4 <-> 5.
    let mut b = GraphBuilder::new(6);
    b.add_edges([(0, 1), (1, 2), (4, 5)]).unwrap();
    let base = b.finish();
    let request = || QueryRequest::paths(0, 2).max_hops(3).collect_paths(true);
    let config = PathEnumConfig::default();

    for results_on in [false, true] {
        let mut graph = DynamicGraph::new(base.clone());
        // One engine lifetime per step; the serving layer's cache rides
        // along (an engine hands back one cache or the other).
        let mut plans = PlanCache::default();
        let mut results = ResultCache::default();
        let mut step = |graph: &DynamicGraph| {
            let mut engine = DynamicEngine::with_cache(graph, config, std::mem::take(&mut plans));
            if results_on {
                engine = engine.with_result_cache(std::mem::take(&mut results));
            }
            let response = engine.execute(&request()).unwrap();
            let mut oracle = CollectingSink::default();
            let query = Query::new(0, 2, 3).unwrap();
            brute_force_paths(&graph.snapshot(), query, &mut oracle);
            assert_eq!(sorted(response.paths), oracle.sorted_paths());
            let stats = (engine.cache_stats(), engine.result_cache_stats());
            if results_on {
                results = engine.into_result_cache().expect("attached above");
            } else {
                plans = engine.into_cache();
            }
            (response.report.cache, stats)
        };

        let (cold, _) = step(&graph);
        assert_eq!(cold, CacheOutcome::Miss);

        // Far from the footprint: the serving layer retains its entry.
        assert!(graph.insert_edge(5, 4));
        assert!(graph.remove_edge(4, 5));
        let (warm, (plan_stats, result_stats)) = step(&graph);
        let serving = if results_on { result_stats } else { plan_stats };
        let hit = if results_on {
            CacheOutcome::ResultHit
        } else {
            CacheOutcome::Hit
        };
        assert_eq!(warm, hit);
        assert_eq!((serving.retained, serving.invalidations), (1, 0));

        // Inside the footprint: a new path 0 -> 3 -> 2 appears, and the
        // entry must die rather than serve the stale answer.
        assert!(graph.insert_edge(0, 3));
        assert!(graph.insert_edge(3, 2));
        let (after, (plan_stats, result_stats)) = step(&graph);
        let serving = if results_on { result_stats } else { plan_stats };
        assert_eq!(after, CacheOutcome::Miss);
        assert_eq!((serving.retained, serving.invalidations), (1, 1));
        assert_balanced("plans", plan_stats);
        assert_balanced("results", result_stats);
    }
}

#[test]
fn a_limit_decides_the_method_per_request_on_every_evaluator() {
    // q(0, 10, 6) on K11: a 104 505-node search space (> tau) that
    // Algorithm 5 joins at cut 3, and 18 730 paths. Request 0 reads them
    // all; request 1 reads two.
    let graph = complete_digraph(11);
    let config = PathEnumConfig::default();
    let result_bytes = 16 << 20;
    let build = |which: usize| {
        let unlimited = QueryRequest::paths(0, 10).max_hops(6).collect_paths(true);
        if which == 0 {
            unlimited
        } else {
            unlimited.limit(2)
        }
    };

    // What a cache-free engine answers — which is also what a run forced
    // to the method it reports answers.
    let expected = [0, 1].map(|which| {
        let mut engine = QueryEngine::new(&graph, config);
        let response = engine.execute(&build(which).bypass_cache()).unwrap();
        let forced = build(which)
            .bypass_cache()
            .method(response.plan.unwrap().method);
        assert_eq!(response.paths, engine.execute(&forced).unwrap().paths);
        response
    });
    assert_eq!(expected[0].plan.unwrap().method, Method::IdxJoin);
    assert_eq!(expected[0].termination, Termination::Completed);
    assert_eq!(expected[0].paths.len(), 18_730);
    assert_eq!(expected[1].plan.unwrap().method, Method::IdxDfs);
    assert_eq!(expected[1].termination, Termination::LimitReached);

    // The second request finds the first one's plan entry. With the
    // result layer on, `limit(2)` after the unlimited run is a prefix of
    // the stored answer: replayed, reporting no plan since it planned
    // nothing. The other way round the stored answer is too short to
    // serve.
    let check = |label: &str,
                 results_on: bool,
                 order: [usize; 2],
                 evaluate: &mut dyn FnMut(usize) -> QueryResponse| {
        for (position, which) in order.into_iter().enumerate() {
            let response = evaluate(which);
            let want = &expected[which];
            let at = format!("{label}, results {results_on}, order {order:?}, request {which}");
            assert_eq!(response.paths, want.paths, "{at}");
            assert_eq!(response.termination, want.termination, "{at}");
            let replayed = results_on && position == 1 && order == [0, 1];
            if replayed {
                assert!(response.plan.is_none(), "{at}");
            } else {
                assert_eq!(
                    response.plan.unwrap().method,
                    want.plan.unwrap().method,
                    "{at}"
                );
                assert_eq!(response.plan.unwrap().cut, want.plan.unwrap().cut, "{at}");
            }
            let cache = match (position, replayed) {
                (0, _) => CacheOutcome::Miss,
                (_, false) => CacheOutcome::Hit,
                (_, true) => CacheOutcome::ResultHit,
            };
            assert_eq!(response.report.cache, cache, "{at}");
        }
    };
    for results_on in [false, true] {
        let layer_bytes = if results_on { result_bytes } else { 0 };
        for order in [[0, 1], [1, 0]] {
            let mut engine = QueryEngine::new(&graph, config);
            if results_on {
                engine = engine.with_result_cache(ResultCache::new(result_bytes));
            }
            check("engine", results_on, order, &mut |w| {
                engine.execute(&build(w)).unwrap()
            });
            assert_eq!(engine.cache_stats().misses, 1, "one entry served both");

            let dynamic_graph = DynamicGraph::new(graph.clone());
            let mut dynamic = DynamicEngine::new(&dynamic_graph, config);
            if results_on {
                dynamic = dynamic.with_result_cache(ResultCache::new(result_bytes));
            }
            check("dynamic", results_on, order, &mut |w| {
                dynamic.execute(&build(w)).unwrap()
            });

            let catalog = CatalogService::new(
                config,
                CatalogConfig {
                    workers: 2,
                    cache_shards: 1,
                    result_cache_bytes: layer_bytes,
                    ..CatalogConfig::default()
                },
            );
            catalog.catalog().register("g", Arc::new(graph.clone()));
            check("catalog", results_on, order, &mut |w| {
                let routed = CatalogRequest::new("g", "tenant", build(w));
                catalog.execute(routed).unwrap()
            });
        }
    }
}
