//! A small serving fleet in one process: many named graphs, many
//! tenants, one worker pool — with cost-based admission control in
//! front of it.
//!
//! Demonstrates the catalog layers around the one request pipeline:
//!
//! * [`GraphCatalog`] — named graphs behind one endpoint, each with
//!   per-tenant plan caches under an entry quota;
//! * [`CatalogService`] — routed `CatalogRequest { graph, tenant,
//!   request }` submission with plan-first admission: every request is
//!   priced by its planned [`modeled cost`](pathenum_repro::prelude::PhysicalPlan::modeled_cost)
//!   — for the results its `limit` lets it read, so `limit(2_000)` on
//!   `k` hops is charged at most `2_000 k` — before a worker is
//!   committed to it;
//! * two-lane dispatch — cheap plans ride the interactive lane past
//!   queued batch work;
//! * `publish` — atomic epoch swap of a live graph; in-flight queries
//!   finish on the epoch they were admitted under, and only the
//!   republished graph's cached plans are invalidated;
//! * [`AdmissionDecision`] — an EXPLAIN-style record of *why* each
//!   request was admitted or shed.
//!
//! ```text
//! cargo run --release --example multi_tenant_catalog
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pathenum_repro::graph::generators::{erdos_renyi, power_law, PowerLawConfig};
use pathenum_repro::prelude::*;

fn main() {
    // Two tenants share one process serving two differently-shaped
    // graphs. The admission knobs are deliberately tight so the example
    // exercises every verdict.
    let social = Arc::new(power_law(PowerLawConfig::social(4_000, 5, 11)));
    let citations = Arc::new(erdos_renyi(2_000, 9_000, 23));

    let service = CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers: 2,
            tenant_cache_quota: 16,
            cache_shards: 4,
            admission: AdmissionConfig {
                cost_budget: Some(2_000_000),
                // Sized for the burst below: analytics submits 6 of the
                // 9 requests before anything is waited on, and on a
                // slow 1-core machine all 6 can be outstanding at once.
                max_queue_per_tenant: 8,
                interactive_cost_threshold: 500,
            },
            ..CatalogConfig::default()
        },
    );
    service.catalog().register("social", Arc::clone(&social));
    service
        .catalog()
        .register("citations", Arc::clone(&citations));
    println!(
        "catalog: {:?} on {} workers; tenant cache quota {} entries",
        service.catalog().names(),
        service.workers(),
        service.catalog().tenant_cache_quota(),
    );

    // --- Routed, priced, two-lane submission -------------------------
    let mut tickets = Vec::new();
    for _round in 0..3 {
        // feed-api runs cheap 4-hop lookups; analytics runs a deeper
        // 6-hop sweep whose modeled cost — the smaller of its search
        // space and the 6 * 2 000 nodes its limit lets it read — lands
        // it on the batch lane.
        for (graph, tenant, t, hops) in [
            ("social", "feed-api", 97u32, 4u32),
            ("social", "analytics", 1_003, 6),
            ("citations", "analytics", 42, 4),
        ] {
            let request = QueryRequest::paths(0, t)
                .max_hops(hops)
                .limit(2_000)
                .collect_paths(true);
            tickets.push(service.submit(CatalogRequest::new(graph, tenant, request)));
        }
    }
    let total = tickets.len();
    let mut by_lane = [0u32; 2];
    for ticket in tickets {
        let lane = ticket.decision().expect("admission ran").lane;
        by_lane[usize::from(lane == Lane::Batch)] += 1;
        ticket.wait().expect("valid query");
    }
    assert!(
        by_lane[0] > 0 && by_lane[1] > 0,
        "the stream must exercise both lanes"
    );
    println!(
        "\n{total} routed requests served: {} interactive, {} batch (threshold 500 modeled cost)",
        by_lane[0], by_lane[1],
    );
    for graph in ["social", "citations"] {
        for (tenant, entries, stats) in service.catalog().tenant_accounting(graph) {
            println!(
                "  {graph}/{tenant}: {} lookups, {} hits, {entries} cached plans",
                stats.lookups, stats.hits,
            );
        }
    }

    // --- The EXPLAIN-style admission record --------------------------
    // Renders like an EXPLAIN plan: the priced inputs, then the verdict.
    let ticket = service.submit(CatalogRequest::new(
        "social",
        "feed-api",
        QueryRequest::paths(0, 97).max_hops(4).limit(2_000),
    ));
    println!("\n{}", ticket.decision().expect("admission ran"));
    ticket.wait().expect("valid query");

    // A tenant that floods its queue gets shed with a retry hint while
    // the blocker is still running — the rejection costs no worker time.
    let flooded = CatalogService::new(
        PathEnumConfig::default(),
        CatalogConfig {
            workers: 1,
            admission: AdmissionConfig {
                cost_budget: None,
                max_queue_per_tenant: 1,
                interactive_cost_threshold: 50_000,
            },
            ..CatalogConfig::default()
        },
    );
    flooded.catalog().register("social", Arc::clone(&social));
    // The blocker parks its worker on a gate inside the accumulative
    // weight closure (evaluated during enumeration, never during the
    // submitter-thread planning), so its queue slot is still occupied
    // when the flood arrives — without racing a fast worker.
    let gate = Arc::new(AtomicBool::new(false));
    let blocker = flooded.submit(CatalogRequest::new(
        "social",
        "batch-export",
        QueryRequest::paths(0, 1_003)
            .max_hops(6)
            .accumulative(AccumulativeQuery {
                identity: 0u64,
                combine: |a, b| a + b,
                weight: {
                    let gate = Arc::clone(&gate);
                    move |_, _| {
                        while !gate.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        1u64
                    }
                },
                check: |_: &u64| true,
                prune: None,
            }),
    ));
    let shed = flooded.submit(CatalogRequest::new(
        "social",
        "batch-export",
        QueryRequest::paths(0, 1_003).max_hops(6),
    ));
    println!("{}", shed.decision().expect("admission ran"));
    let outcome = shed.wait_outcome();
    assert!(matches!(
        outcome.response,
        Err(PathEnumError::Overloaded { .. })
    ));
    assert_eq!(outcome.latency(), Duration::ZERO, "shed without execution");
    gate.store(true, Ordering::Release);
    blocker.wait().expect("valid query");

    // --- Publishing a new epoch under live traffic -------------------
    // Rebuild "social" with one extra hub edge and publish it while the
    // old epoch is still serving. In-flight tickets carry the epoch
    // they snapshotted; the swap is atomic and only "social"'s cached
    // plans are invalidated — "citations" tenants keep their warm hits.
    let before = service
        .execute(CatalogRequest::new(
            "social",
            "feed-api",
            QueryRequest::paths(0, 97).max_hops(4).collect_paths(true),
        ))
        .expect("valid query");

    let mut next = GraphBuilder::new(social.num_vertices());
    for u in 0..social.num_vertices() as u32 {
        for &v in social.out_neighbors(u) {
            next.add_edge(u, v).expect("in-range edge");
        }
    }
    next.add_edge(0, 97).expect("in-range edge");
    let in_flight = service.submit(CatalogRequest::new(
        "social",
        "feed-api",
        QueryRequest::paths(0, 97).max_hops(4).collect_paths(true),
    ));
    let epoch = service
        .catalog()
        .publish("social", Arc::new(next.finish()))
        .expect("registered graph");
    let after = service
        .execute(CatalogRequest::new(
            "social",
            "feed-api",
            QueryRequest::paths(0, 97).max_hops(4).collect_paths(true),
        ))
        .expect("valid query");
    let old = in_flight.wait_outcome();
    println!(
        "published epoch {epoch}: in-flight query served on epoch {:?} \
         ({} paths), post-publish on epoch {} ({} paths, one new direct edge)",
        old.epoch,
        old.response.expect("valid query").num_results(),
        epoch,
        after.num_results(),
    );
    assert_eq!(after.num_results(), before.num_results() + 1);
    let citations_stats = service
        .catalog()
        .tenant_cache_stats("citations", "analytics")
        .expect("warmed above");
    assert_eq!(
        citations_stats.invalidations, 0,
        "publishing social must not touch citations' caches"
    );
    println!(
        "citations/analytics cache untouched by the publish: {} hits, 0 invalidations",
        citations_stats.hits
    );
    println!(
        "\n{} queries routed through the catalog in total",
        service.queries_submitted()
    );
}
