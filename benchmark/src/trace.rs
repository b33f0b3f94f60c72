//! The traced run: the per-layer ledger of one workload.
//!
//! Three parts, all timed from the benchmark's side of the public API:
//!
//! 1. the first requests of the workload replayed through the program under
//!    test twice, once without and once with spans around `submit`, queue
//!    wait, `execute` and wake (the ratio of the two walls is the tracing
//!    overhead);
//! 2. the same requests through a staged driver that calls the layer
//!    functions one after the other on one thread: boundary BFS x2,
//!    `Index::build_reusing`, the two estimators, `optimize_join_order`,
//!    `plan_on_index`, `Executor::execute`;
//! 3. small fixed experiments on a sample of those requests for what
//!    neither replay can see: BFS on each graph representation, both
//!    enumeration methods forced on one index, the tee into the result
//!    cache, one admission decision, one dynamic update.
//!
//! End-to-end metrics are never taken from here.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathenum::estimator::{preliminary_estimate, q_error, FullEstimate};
use pathenum::index::BuildScratch;
use pathenum::plan::plan_on_index;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::{
    optimize_join_order, AdmissionConfig, AdmissionController, CacheOutcome, CatalogConfig,
    CatalogRequest, CatalogService, Counters, Executor, Index, Method, PathEnumConfig,
    PhaseTimings, PhysicalPlan, PlanCache,
};
use pathenum_graph::bfs::{distances_epoch_into, BfsOptions, Direction};
use pathenum_graph::{CsrGraph, DynamicGraph, EpochMap, FrozenGraph, GraphHandle, NeighborAccess};

use crate::gen::{InputPaths, Query, Step};
use crate::graph::Adjacency;
use crate::report::{Measured, RunResult, PER_LAYER};
use crate::rng::SplitMix64;
use crate::serve::{
    build_request, load_adjacency, load_requests, run_clients, set_up, stream_client,
    warm_up_service, warm_up_stream, ClientLog, Program, Record, RequestLists, GRAPH_NAME, TENANT,
};
use crate::spans::SpanLog;
use crate::stats::{median, median_or_zero, percentile, ratio, sorted};
use crate::workloads::Workload;

/// Requests the staged driver walks through the layers.
const STAGED_REQUESTS: usize = 300;
/// Every n-th staged request also goes through the fixed experiments.
const LAB_STRIDE: usize = 5;
/// Every n-th staged request has its BFS repeated on each representation.
const BFS_STRIDE: usize = 3;
/// Paths after which a forced full enumeration stops.
const PATH_CAP: u64 = 2_000_000;
/// Time after which a forced enumeration is abandoned and left out.
const LAB_DEADLINE: Duration = Duration::from_millis(150);
/// Repetitions whose median decides a method comparison.
const MISCHOICE_REPETITIONS: usize = 3;
/// The other method must be this much faster to count as a mischoice.
const MISCHOICE_FACTOR: f64 = 1.2;
/// Edges inserted so that the overlay representation has a delta to merge.
const OVERLAY_INSERTS: usize = 1024;
/// Result-cache budget of the tee experiment's own service.
const TEE_CACHE_BYTES: usize = 16 << 20;
/// Largest share of the median sojourn the service spans may leave out.
const MAX_UNACCOUNTED: f64 = 0.05;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Counts paths; stops at `limit` paths or at `deadline`, whichever is
/// first. `probe` lets the deadline interrupt a search that emits nothing.
struct BoundedCount {
    count: u64,
    limit: u64,
    deadline: Option<Instant>,
    timed_out: bool,
}

impl BoundedCount {
    fn new(limit: u64, deadline: Option<Duration>) -> Self {
        BoundedCount {
            count: 0,
            limit,
            deadline: deadline.map(|d| Instant::now() + d),
            timed_out: false,
        }
    }

    fn check_deadline(&mut self) -> SearchControl {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.timed_out = true;
            SearchControl::Stop
        } else {
            SearchControl::Continue
        }
    }
}

impl PathSink for BoundedCount {
    fn emit(&mut self, _path: &[u32]) -> SearchControl {
        self.count += 1;
        if self.count >= self.limit {
            SearchControl::Stop
        } else if self.count.is_multiple_of(4096) {
            self.check_deadline()
        } else {
            SearchControl::Continue
        }
    }

    fn probe(&mut self) -> SearchControl {
        self.check_deadline()
    }
}

/// One timed call of `Executor::execute` with a forced method.
struct Enumeration {
    elapsed: Duration,
    paths: u64,
    timed_out: bool,
    counters: Counters,
}

fn enumerate(
    index: &Index,
    plan: &PhysicalPlan,
    limit: u64,
    deadline: Option<Duration>,
) -> Enumeration {
    let mut sink = BoundedCount::new(limit, deadline);
    let start = Instant::now();
    let counters = Executor::execute(index, plan, &mut sink);
    Enumeration {
        elapsed: start.elapsed(),
        paths: sink.count,
        timed_out: sink.timed_out,
        counters,
    }
}

fn forced(plan: &PhysicalPlan, method: Method, cut: u32) -> PhysicalPlan {
    PhysicalPlan {
        method,
        cut: (method == Method::IdxJoin).then_some(cut),
        forced: true,
        ..*plan
    }
}

/// Edges the two boundary BFS passes of `q` scan: the degree, in the
/// direction of travel, of every vertex they expand.
fn bfs_edges_scanned<G: NeighborAccess>(graph: &G, k: u32, fwd: &EpochMap, bwd: &EpochMap) -> u64 {
    let expanded = |map: &EpochMap, degree: &dyn Fn(u32) -> usize| -> u64 {
        map.touched()
            .iter()
            .filter(|&&v| map.get(v as usize) < k)
            .map(|&v| degree(v) as u64)
            .sum()
    };
    expanded(fwd, &|v| graph.out_degree(v)) + expanded(bwd, &|v| graph.in_degree(v))
}

struct BfsScratch {
    fwd: EpochMap,
    bwd: EpochMap,
    queue: VecDeque<u32>,
}

impl BfsScratch {
    fn new() -> Self {
        BfsScratch {
            fwd: EpochMap::new(pathenum_graph::INFINITE_DISTANCE),
            bwd: EpochMap::new(pathenum_graph::INFINITE_DISTANCE),
            queue: VecDeque::new(),
        }
    }

    /// The two boundary passes of `q`: forward from `s` without `t`,
    /// backward from `t` without `s`, both to depth `k`. Returns the
    /// instants around each.
    fn run<G: NeighborAccess>(&mut self, graph: &G, q: Query) -> [Instant; 3] {
        let start = Instant::now();
        distances_epoch_into(
            graph,
            q.s,
            BfsOptions {
                direction: Direction::Forward,
                excluded: Some(q.t),
                max_depth: Some(q.k),
            },
            &mut self.fwd,
            &mut self.queue,
        );
        let middle = Instant::now();
        distances_epoch_into(
            graph,
            q.t,
            BfsOptions {
                direction: Direction::Backward,
                excluded: Some(q.s),
                max_depth: Some(q.k),
            },
            &mut self.bwd,
            &mut self.queue,
        );
        [start, middle, Instant::now()]
    }
}

/// `ns per edge scanned` of the boundary BFS of `queries` on `graph`.
fn bfs_ns_per_edge<G: NeighborAccess>(graph: &G, queries: &[Query]) -> f64 {
    let mut scratch = BfsScratch::new();
    let (mut nanos, mut edges) = (0.0, 0.0);
    for &q in queries {
        let [start, _, end] = scratch.run(graph, q);
        nanos += (end - start).as_nanos() as f64;
        edges += bfs_edges_scanned(graph, q.k, &scratch.fwd, &scratch.bwd) as f64;
    }
    ratio(nanos, edges)
}

/// Sums and samples the staged driver collects, one entry per request.
#[derive(Default)]
struct Staged {
    edges_scanned: Vec<f64>,
    total_edges_scanned: f64,
    total_index_edges: f64,
    index_bytes: Vec<f64>,
    join_chosen: usize,
    bfs_time: Duration,
    pipeline_time: Duration,
    enumerate_time: Duration,
    counters: Counters,
}

/// What the fixed enumeration experiments collect.
#[derive(Default)]
struct Lab {
    dfs_nanos: f64,
    dfs_paths: f64,
    join_nanos: f64,
    join_paths: f64,
    peak_materialized_bytes: u64,
    first_dfs_us: Vec<f64>,
    first_join_us: Vec<f64>,
    q_errors: Vec<f64>,
    compared: usize,
    mischoices: usize,
    timed_out: usize,
}

/// Walks `queries` through the layers on `graph`, one call per layer, and
/// runs the fixed enumeration experiments on every [`LAB_STRIDE`]-th.
fn staged_driver<G: NeighborAccess>(
    workload: &Workload,
    graph: &G,
    queries: &[Query],
    spans: &mut SpanLog,
) -> Result<(Staged, Lab), String> {
    let config = PathEnumConfig::default();
    let limit = workload.limit.unwrap_or(u64::MAX);
    let mut staged = Staged::default();
    let mut lab = Lab::default();
    let mut bfs = BfsScratch::new();
    let mut build = BuildScratch::default();
    for (i, &q) in queries.iter().enumerate() {
        let id = i as u64;
        let query = pathenum::Query::new(q.s, q.t, q.k).map_err(|e| e.to_string())?;

        let [bfs_start, bfs_middle, bfs_end] = bfs.run(graph, q);
        let scanned = bfs_edges_scanned(graph, q.k, &bfs.fwd, &bfs.bwd) as f64;
        staged.edges_scanned.push(scanned);
        staged.total_edges_scanned += scanned;

        let build_start = Instant::now();
        let (index, bfs_inside) = Index::build_reusing(graph, query, &mut build);
        let build_end = Instant::now();
        std::hint::black_box(preliminary_estimate(&index));
        let prelim_end = Instant::now();
        let full = FullEstimate::compute(&index);
        let full_end = Instant::now();
        let join_plan = optimize_join_order(&index, &full);
        let order_end = Instant::now();
        let plan = plan_on_index(&index, config, &mut PhaseTimings::default());
        let plan_end = Instant::now();
        let run = enumerate(&index, &plan, limit, None);
        let run_end = plan_end + run.elapsed;

        let root = spans.record("staged", bfs_start, run_end, None, id);
        spans.record("staged.bfs_forward", bfs_start, bfs_middle, Some(root), id);
        spans.record("staged.bfs_backward", bfs_middle, bfs_end, Some(root), id);
        let build_span = spans.record("staged.index_build", build_start, build_end, Some(root), id);
        // The build runs its own two BFS passes and returns their time; a
        // child span of that length leaves the build's self time.
        spans.record(
            "staged.index_build.bfs",
            build_start,
            build_start + bfs_inside,
            Some(build_span),
            id,
        );
        spans.record(
            "staged.preliminary_estimate",
            build_end,
            prelim_end,
            Some(root),
            id,
        );
        spans.record("staged.full_estimate", prelim_end, full_end, Some(root), id);
        spans.record(
            "staged.optimize_join_order",
            full_end,
            order_end,
            Some(root),
            id,
        );
        spans.record("staged.plan_on_index", order_end, plan_end, Some(root), id);
        spans.record("staged.execute", plan_end, run_end, Some(root), id);

        let build_time = build_end - build_start;
        staged.total_index_edges += index.num_edges() as f64;
        staged.index_bytes.push(index.heap_bytes() as f64);
        staged.join_chosen += usize::from(plan.method == Method::IdxJoin);
        // What a request pays in the service: build, plan, enumerate.
        staged.bfs_time += bfs_inside;
        staged.enumerate_time += run.elapsed;
        staged.pipeline_time += build_time + (plan_end - order_end) + run.elapsed;
        staged.counters.merge(&run.counters);

        if i % LAB_STRIDE == 0 {
            if let Some(join_plan) = join_plan {
                enumeration_lab(
                    &mut lab,
                    &index,
                    &plan,
                    join_plan.cut,
                    full.total_walks(),
                    limit,
                );
            }
        }
    }
    Ok((staged, lab))
}

/// Both methods forced on one pre-built index: full enumeration (capped),
/// first 1000 results, and the chosen method against the other one under
/// the workload's own limit.
fn enumeration_lab(
    lab: &mut Lab,
    index: &Index,
    plan: &PhysicalPlan,
    cut: u32,
    estimated_walks: u64,
    limit: u64,
) {
    let dfs = forced(plan, Method::IdxDfs, cut);
    let join = forced(plan, Method::IdxJoin, cut);

    let full_dfs = enumerate(index, &dfs, PATH_CAP, Some(LAB_DEADLINE));
    let full_join = enumerate(index, &join, PATH_CAP, Some(LAB_DEADLINE));
    lab.timed_out += usize::from(full_dfs.timed_out) + usize::from(full_join.timed_out);
    if !full_dfs.timed_out {
        lab.dfs_nanos += full_dfs.elapsed.as_nanos() as f64;
        lab.dfs_paths += full_dfs.paths as f64;
        if full_dfs.paths < PATH_CAP && full_dfs.paths > 0 {
            lab.q_errors.push(q_error(estimated_walks, full_dfs.paths));
        }
    }
    if !full_join.timed_out {
        lab.join_nanos += full_join.elapsed.as_nanos() as f64;
        lab.join_paths += full_join.paths as f64;
        lab.peak_materialized_bytes = lab
            .peak_materialized_bytes
            .max(full_join.counters.peak_materialized_bytes());
    }

    let first_dfs = enumerate(index, &dfs, 1000, Some(LAB_DEADLINE));
    let first_join = enumerate(index, &join, 1000, Some(LAB_DEADLINE));
    if !first_dfs.timed_out {
        lab.first_dfs_us.push(us(first_dfs.elapsed));
    }
    if !first_join.timed_out {
        lab.first_join_us.push(us(first_join.elapsed));
    }

    // Is the method the optimizer chose the faster one for this request?
    if full_dfs.timed_out || full_join.timed_out {
        return;
    }
    let cap = limit.min(PATH_CAP);
    let timed = |plan: &PhysicalPlan| {
        let mut runs: Vec<f64> = (0..MISCHOICE_REPETITIONS)
            .map(|_| enumerate(index, plan, cap, None).elapsed.as_secs_f64())
            .collect();
        median(&mut runs)
    };
    let (dfs_s, join_s) = (timed(&dfs), timed(&join));
    let (chosen, other) = match plan.method {
        Method::IdxDfs => (dfs_s, join_s),
        Method::IdxJoin => (join_s, dfs_s),
    };
    lab.compared += 1;
    lab.mischoices += usize::from(other * MISCHOICE_FACTOR < chosen);
}

/// Median of several timed loads of one graph file, in milliseconds, and
/// the last loaded value.
fn timed_load<T>(load: impl Fn() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut value = load()?;
    let mut millis = Vec::new();
    for _ in 0..3 {
        drop(value);
        let start = Instant::now();
        value = load()?;
        millis.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok((value, median(&mut millis)))
}

/// The graph in every representation the library serves, with load times.
struct Representations {
    heap: Arc<CsrGraph>,
    frozen: FrozenGraph,
    overlay: DynamicGraph,
    peg1_ms: f64,
    peg2_ms: f64,
    text_ms: f64,
    update_us: f64,
}

fn load_representations(paths: &InputPaths, seed: u64) -> Result<Representations, String> {
    let (heap, peg1_ms) = timed_load(|| {
        pathenum_graph::io_binary::read_binary_file(&paths.peg1()).map_err(|e| e.to_string())
    })?;
    let (frozen, peg2_ms) = timed_load(|| {
        pathenum_graph::io_binary::read_frozen_file(&paths.peg2()).map_err(|e| e.to_string())
    })?;
    let (_, text_ms) = timed_load(|| {
        pathenum_graph::io::read_edge_list_file(&paths.text()).map_err(|e| e.to_string())
    })?;

    // An overlay with a delta to merge: a few random insertions, applied in
    // bursts of 16 that are timed as the dynamic layer's update cost.
    let mut overlay = DynamicGraph::new(heap.clone());
    let mut rng = SplitMix64::stream(seed, "trace-overlay");
    let n = heap.num_vertices();
    let mut burst_us = Vec::new();
    for _ in 0..OVERLAY_INSERTS / 16 {
        let edges: Vec<(u32, u32)> = (0..16)
            .map(|_| (rng.below(n) as u32, rng.below(n) as u32))
            .collect();
        let start = Instant::now();
        for &(u, v) in &edges {
            std::hint::black_box(overlay.insert_edge(u, v));
        }
        burst_us.push(us(start.elapsed()) / 16.0);
    }
    Ok(Representations {
        heap: Arc::new(heap),
        frozen,
        overlay,
        peg1_ms,
        peg2_ms,
        text_ms,
        update_us: median(&mut burst_us),
    })
}

/// `execute` span with the result layer teeing the answer into its cache,
/// over the same span with the layer bypassed, request by request.
fn tee_overhead(workload: &Workload, heap: &Arc<CsrGraph>, queries: &[Query]) -> f64 {
    let config = CatalogConfig {
        result_cache_bytes: TEE_CACHE_BYTES,
        ..crate::serve::catalog_config(workload)
    };
    let service = CatalogService::new(PathEnumConfig::default(), config);
    service.catalog().register(GRAPH_NAME, Arc::clone(heap));
    let execute_span = |bypass: bool, q: Query| {
        let mut request = build_request(workload, q);
        if bypass {
            request = request.bypass_result_cache();
        }
        service
            .submit(CatalogRequest::new(GRAPH_NAME, TENANT, request))
            .wait_outcome()
            .latency()
            .as_secs_f64()
    };
    // The median of per-request ratios: spans of a few microseconds are at
    // the mercy of one descheduled worker, which a ratio of sums would keep.
    let ratios = queries
        .iter()
        .map(|&q| {
            execute_span(true, q); // plans the request and warms the index
            let bypassed = execute_span(true, q);
            let teed = execute_span(false, q); // first sight for the result layer
            ratio(teed, bypassed)
        })
        .collect();
    median_or_zero(ratios)
}

/// One `try_admit` + `release` on one thread, in nanoseconds.
fn admission_decide_release_ns() -> f64 {
    const ROUNDS: u32 = 200_000;
    let controller = AdmissionController::new(AdmissionConfig {
        cost_budget: Some(u64::MAX),
        max_queue_per_tenant: 64,
        interactive_cost_threshold: 100_000,
    });
    let start = Instant::now();
    for i in 0..ROUNDS {
        let decision = controller.try_admit(TENANT, u64::from(i % 1024) + 1);
        std::hint::black_box(&decision);
        controller.release(TENANT, decision.estimated_cost);
    }
    start.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}

/// Durations of the spans called `name`, in microseconds.
fn span_us(spans: &SpanLog, name: &str) -> Vec<f64> {
    spans
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self times (duration minus child cover) of the spans called `name`, in
/// microseconds.
fn span_self_us(spans: &SpanLog, name: &str) -> Vec<f64> {
    spans
        .spans
        .iter()
        .zip(spans.self_times_ns())
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own as f64 / 1e3)
        .collect()
}

/// How far the spans directly under the median `request` span are from
/// adding up to it, as a share of its duration. They tile it unless a
/// worker picked the job up before `submit` returned (then `submit` and
/// `execute` overlap and the sum runs over).
fn unaccounted_ratio(spans: &SpanLog) -> f64 {
    let mut child_sum = vec![0u64; spans.spans.len()];
    for span in &spans.spans {
        if let Some(parent) = span.parent {
            child_sum[parent] += span.duration_ns();
        }
    }
    let mut requests: Vec<(u64, u64)> = spans
        .spans
        .iter()
        .zip(&child_sum)
        .filter(|(s, _)| s.name == "request")
        .map(|(s, &sum)| (s.duration_ns(), sum))
        .collect();
    if requests.is_empty() {
        return 0.0;
    }
    requests.sort_unstable();
    let (duration, sum) = requests[requests.len() / 2];
    ratio(duration.abs_diff(sum) as f64, duration as f64)
}

fn sojourns_us(records: &[Record], wanted: CacheOutcome) -> f64 {
    median_or_zero(
        records
            .iter()
            .filter(|r| r.cache == wanted)
            .map(|r| r.sojourn_ns as f64 / 1e3)
            .collect(),
    )
}

/// Plan- and result-cache counters of one replay, whichever program
/// produced them.
#[derive(Default)]
struct CacheCounts {
    plan_lookups: u64,
    plan_hits: u64,
    plan_evictions: u64,
    plan_invalidations: u64,
    plan_retained: u64,
    result_lookups: u64,
    result_hits: u64,
    result_evictions: u64,
    admitted: u64,
    shed: u64,
}

/// The outcome of replaying the first requests through the program under
/// test. `spans` stays empty on an untraced replay.
struct Replay {
    wall: Duration,
    logs: Vec<ClientLog>,
    spans: SpanLog,
    caches: CacheCounts,
}

/// Replays `timed` through a freshly set-up service; also returns the graph
/// as served, which the staged driver then reads.
fn replay_service(
    workload: &'static Workload,
    paths: &InputPaths,
    adjacency: &Adjacency,
    warmup: &[Query],
    timed: &[Query],
    traced: bool,
) -> Result<(Replay, GraphHandle), String> {
    let Program::Service(service) = set_up(workload, paths)? else {
        return Err("a service workload set up a stream".into());
    };
    let catalog = service.catalog();
    warm_up_service(workload, &service, adjacency, warmup)?;

    let plan_stats = || {
        catalog
            .tenant_cache_stats(GRAPH_NAME, TENANT)
            .unwrap_or_default()
    };
    let result_stats = || {
        catalog
            .tenant_result_cache_stats(GRAPH_NAME, TENANT)
            .unwrap_or_default()
    };
    let (plan_before, results_before) = (plan_stats(), result_stats());
    let admission_before = service.admission().stats();

    let start = Instant::now();
    let per_client = run_clients(
        workload,
        &service,
        adjacency,
        timed,
        0.0,
        timed.len(),
        traced.then_some(start),
    );
    let wall = start.elapsed();

    let plan = plan_stats().since(&plan_before);
    let results = result_stats().since(&results_before);
    let admission = service.admission().stats();
    let mut replay = Replay {
        wall,
        logs: Vec::new(),
        spans: SpanLog::new(start),
        caches: CacheCounts {
            plan_lookups: plan.lookups,
            plan_hits: plan.hits,
            plan_evictions: plan.evictions,
            plan_invalidations: plan.invalidations,
            plan_retained: plan.retained,
            result_lookups: results.lookups,
            result_hits: results.hits,
            result_evictions: results.evictions,
            admitted: admission.admitted - admission_before.admitted,
            shed: admission.shed - admission_before.shed,
        },
    };
    for (log, spans) in per_client {
        replay.logs.push(log);
        if let Some(spans) = spans {
            replay.spans.absorb(spans);
        }
    }
    let graph = catalog.graph(GRAPH_NAME).ok_or("graph not registered")?;
    Ok((replay, graph))
}

/// Replays the stream's first steps; also returns the mutated graph the
/// staged driver then reads through its overlay view.
fn replay_stream(
    workload: &'static Workload,
    paths: &InputPaths,
    warmup: &[Step],
    timed: &[Step],
    traced: bool,
) -> Result<(Replay, DynamicGraph), String> {
    let Program::Stream(mut graph) = set_up(workload, paths)? else {
        return Err("the stream workload set up a service".into());
    };
    let mut mirror = load_adjacency(paths)?;
    let mut cache = PlanCache::default();
    warm_up_stream(workload, &mut graph, &mut mirror, &mut cache, warmup)?;
    let before = cache.stats();
    let start = Instant::now();
    let mut spans = SpanLog::new(start);
    let log = stream_client(
        workload,
        &mut graph,
        &mut mirror,
        &mut cache,
        timed,
        0.0,
        usize::MAX,
        traced.then_some(&mut spans),
    );
    let wall = start.elapsed();
    let after = cache.stats();
    let caches = CacheCounts {
        plan_lookups: (after.hits + after.misses) - (before.hits + before.misses),
        plan_hits: after.hits - before.hits,
        plan_evictions: after.evictions - before.evictions,
        plan_invalidations: after.invalidations - before.invalidations,
        plan_retained: after.retained - before.retained,
        ..CacheCounts::default()
    };
    let replay = Replay {
        wall,
        logs: vec![log],
        spans,
        caches,
    };
    Ok((replay, graph))
}

pub fn run(
    workload: &'static Workload,
    paths: &InputPaths,
    seed: u64,
    output_root: &Path,
) -> Result<RunResult, String> {
    let name = workload.name;
    let reps = load_representations(paths, seed)?;
    let lists = load_requests(workload, paths)?;

    // Part 1: the replay through the program under test, without and with
    // spans; part 2 and the enumeration experiments on the graph as served.
    let (untraced, mut traced, staged_queries, staged, lab);
    match &lists {
        RequestLists::Queries { warmup, timed } => {
            let timed = &timed[..workload.trace_requests.min(timed.len())];
            let adjacency = load_adjacency(paths)?;
            (untraced, _) = replay_service(workload, paths, &adjacency, warmup, timed, false)?;
            let graph;
            (traced, graph) = replay_service(workload, paths, &adjacency, warmup, timed, true)?;
            staged_queries = timed[..STAGED_REQUESTS.min(timed.len())].to_vec();
            (staged, lab) = staged_driver(workload, &graph, &staged_queries, &mut traced.spans)?;
        }
        RequestLists::Steps { warmup, timed } => {
            let per_step = timed.first().map_or(1, |s| s.queries.len());
            let timed = &timed[..workload.trace_requests.div_ceil(per_step).min(timed.len())];
            (untraced, _) = replay_stream(workload, paths, warmup, timed, false)?;
            let graph;
            (traced, graph) = replay_stream(workload, paths, warmup, timed, true)?;
            staged_queries = timed
                .iter()
                .flat_map(|s| s.queries.iter().copied())
                .take(STAGED_REQUESTS)
                .collect();
            let view = graph.view();
            (staged, lab) = staged_driver(workload, &view, &staged_queries, &mut traced.spans)?;
        }
    }
    let spans = &traced.spans;

    // Part 3: the representation and layer experiments.
    let bfs_sample: Vec<Query> = staged_queries.iter().copied().step_by(BFS_STRIDE).collect();
    let lab_sample: Vec<Query> = staged_queries.iter().copied().step_by(LAB_STRIDE).collect();
    let bfs_heap = bfs_ns_per_edge(&*reps.heap, &bfs_sample);
    let bfs_frozen = bfs_ns_per_edge(&reps.frozen, &bfs_sample);
    let bfs_overlay = bfs_ns_per_edge(&reps.overlay.view(), &bfs_sample);
    let tee = tee_overhead(workload, &reps.heap, &lab_sample);
    let admission_ns = admission_decide_release_ns();

    std::fs::create_dir_all(output_root).map_err(|e| e.to_string())?;
    let trace_file = output_root.join(format!("trace-{name}.json"));
    spans
        .write_json(&trace_file)
        .map_err(|e| format!("{trace_file:?}: {e}"))?;

    let records: Vec<Record> = traced
        .logs
        .iter()
        .flat_map(|l| l.records.iter().copied())
        .collect();
    let count = |outcome: CacheOutcome| records.iter().filter(|r| r.cache == outcome).count();
    let edges = reps.heap.num_edges() as f64;
    let c = &traced.caches;
    let unaccounted = unaccounted_ratio(spans);

    let mut m = Measured::new(&PER_LAYER);
    m.set("graph.bfs_ns_per_edge.heap", bfs_heap);
    m.set("graph.bfs_ns_per_edge.frozen", bfs_frozen);
    m.set("graph.bfs_ns_per_edge.overlay", bfs_overlay);
    m.set(
        "graph.bfs_edges_scanned_p50",
        median_or_zero(staged.edges_scanned),
    );
    m.set(
        "graph.bfs_share",
        ratio(
            staged.bfs_time.as_secs_f64(),
            staged.pipeline_time.as_secs_f64(),
        ),
    );
    m.set(
        "graph.bytes_per_edge.heap",
        reps.heap.heap_bytes() as f64 / edges,
    );
    m.set(
        "graph.bytes_per_edge.frozen",
        reps.frozen.image_bytes() as f64 / edges,
    );
    m.set("graph.peg2_load_ms", reps.peg2_ms);
    m.set("graph.peg1_load_ms", reps.peg1_ms);
    m.set("graph.text_parse_ms", reps.text_ms);
    m.set("graph.dynamic_update_us", reps.update_us);
    // `Index::build_reusing` minus the BFS time it reports, which the staged
    // driver recorded as a child span.
    m.set(
        "index.build_self_us",
        median_or_zero(span_self_us(spans, "staged.index_build")),
    );
    m.set(
        "index.edges_kept_ratio",
        ratio(staged.total_index_edges, staged.total_edges_scanned),
    );
    m.set("index.bytes_p50", median_or_zero(staged.index_bytes));
    m.set(
        "estimator.preliminary_ns",
        median_or_zero(span_us(spans, "staged.preliminary_estimate")) * 1e3,
    );
    m.set(
        "estimator.full_us",
        median_or_zero(span_us(spans, "staged.full_estimate")),
    );
    let q_errors = sorted(lab.q_errors);
    // Nearest-rank without the sample-count floor: a few dozen samples.
    let rank =
        |p: f64| q_errors.get(((p * q_errors.len() as f64).ceil() as usize).saturating_sub(1));
    m.set("estimator.qerror_p50", rank(0.5).copied().unwrap_or(0.0));
    m.set("estimator.qerror_p90", rank(0.9).copied().unwrap_or(0.0));
    m.set(
        "optimizer.join_order_us",
        median_or_zero(span_us(spans, "staged.optimize_join_order")),
    );
    m.set(
        "optimizer.join_share",
        ratio(staged.join_chosen as f64, staged_queries.len() as f64),
    );
    m.set(
        "optimizer.mischoice_ratio",
        ratio(lab.mischoices as f64, lab.compared as f64),
    );
    m.set(
        "enumerate.dfs_ns_per_path",
        ratio(lab.dfs_nanos, lab.dfs_paths),
    );
    m.set(
        "enumerate.join_ns_per_path",
        ratio(lab.join_nanos, lab.join_paths),
    );
    m.set(
        "enumerate.edges_per_result",
        ratio(
            staged.counters.edges_accessed as f64,
            staged.counters.results as f64,
        ),
    );
    m.set(
        "enumerate.invalid_partial_ratio",
        ratio(
            staged.counters.invalid_partial_results as f64,
            staged.counters.partial_results as f64,
        ),
    );
    m.set(
        "enumerate.peak_materialized_mb",
        lab.peak_materialized_bytes as f64 / 1e6,
    );
    m.set(
        "enumerate.first1000_us.dfs",
        median_or_zero(lab.first_dfs_us),
    );
    m.set(
        "enumerate.first1000_us.join",
        median_or_zero(lab.first_join_us),
    );
    m.set(
        "enumerate.share",
        ratio(
            staged.enumerate_time.as_secs_f64(),
            staged.pipeline_time.as_secs_f64(),
        ),
    );
    m.set(
        "plan.hit_ratio",
        ratio(c.plan_hits as f64, c.plan_lookups as f64),
    );
    m.set("plan.evictions", c.plan_evictions as f64);
    m.set("plan.invalidations", c.plan_invalidations as f64);
    m.set(
        "plan.retained_ratio",
        ratio(c.plan_retained as f64, c.plan_lookups as f64),
    );
    m.set(
        "plan.hit_sojourn_us",
        sojourns_us(&records, CacheOutcome::Hit),
    );
    m.set(
        "plan.miss_sojourn_us",
        sojourns_us(&records, CacheOutcome::Miss),
    );
    m.set(
        "results.hit_ratio",
        ratio(c.result_hits as f64, c.result_lookups as f64),
    );
    m.set(
        "results.hit_sojourn_us",
        sojourns_us(&records, CacheOutcome::ResultHit),
    );
    m.set("results.evictions", c.result_evictions as f64);
    m.set("results.tee_overhead_ratio", tee);
    m.set("admission.decide_release_ns", admission_ns);
    m.set("admission.admitted", c.admitted as f64);
    m.set("admission.shed", c.shed as f64);
    m.set(
        "catalog.submit_us",
        median_or_zero(span_us(spans, "submit")),
    );
    m.set(
        "catalog.queue_wait_us",
        median_or_zero(span_us(spans, "queue_wait")),
    );
    m.set(
        "catalog.execute_us",
        median_or_zero(span_us(spans, "execute")),
    );
    m.set("catalog.wake_us", median_or_zero(span_us(spans, "wake")));
    m.set("catalog.unaccounted_ratio", unaccounted);
    m.set(
        "trace.overhead_ratio",
        ratio(traced.wall.as_secs_f64(), untraced.wall.as_secs_f64()),
    );

    let failures: u64 = traced
        .logs
        .iter()
        .chain(&untraced.logs)
        .map(|l| l.failures.count)
        .sum();
    let attempted = 2 * records.len() as u64;
    let result = RunResult {
        workload: name,
        correct: failures == 0 && unaccounted <= MAX_UNACCOUNTED && c.shed == 0,
        attempted,
        failed: failures.min(attempted),
        metrics: m.complete()?,
    };
    result.print_lines();

    let sojourns = sorted(records.iter().map(|r| r.sojourn_ns as f64 / 1e3).collect());
    println!("{name} traced_requests {} count", records.len());
    println!(
        "{name} traced_sojourn_p50_us {} us",
        percentile(&sojourns, 0.5).unwrap_or(0.0)
    );
    println!(
        "{name} outcome.result_hit {} count",
        count(CacheOutcome::ResultHit)
    );
    println!("{name} outcome.plan_hit {} count", count(CacheOutcome::Hit));
    println!("{name} outcome.miss {} count", count(CacheOutcome::Miss));
    println!("{name} staged_requests {} count", staged_queries.len());
    println!("{name} lab_requests {} count", lab_sample.len());
    println!("{name} lab_compared {} count", lab.compared);
    println!("{name} lab_timed_out {} count", lab.timed_out);
    println!("{name} qerror_samples {} count", q_errors.len());
    println!("{name} spans {} count", spans.spans.len());
    println!("{name} trace_file {}", trace_file.display());
    if unaccounted > MAX_UNACCOUNTED {
        println!(
            "{name} FAILED service spans leave {unaccounted} of the median sojourn unaccounted (limit {MAX_UNACCOUNTED})"
        );
    }
    for message in traced.logs.iter().flat_map(|l| &l.failures.messages) {
        println!("{name} FAILED {message}");
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_count_stops_at_its_limit_and_at_its_deadline() {
        let mut sink = BoundedCount::new(3, None);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.probe(), SearchControl::Continue);
        assert!(!sink.timed_out);

        let mut late = BoundedCount::new(u64::MAX, Some(Duration::ZERO));
        assert_eq!(late.probe(), SearchControl::Stop);
        assert!(late.timed_out);
    }

    #[test]
    fn unaccounted_share_is_the_gap_in_the_median_request() {
        let origin = Instant::now();
        let at = |ns| origin + Duration::from_nanos(ns);
        let mut spans = SpanLog::new(origin);
        for (id, gap) in [(0u64, 0u64), (1, 10), (2, 40)] {
            let base = id * 1000;
            let root = spans.record("request", at(base), at(base + 100 + id), None, id);
            spans.record("submit", at(base), at(base + 50), Some(root), id);
            spans.record(
                "execute",
                at(base + 50 + gap),
                at(base + 100 + id),
                Some(root),
                id,
            );
        }
        // Median request by duration is id 1: 101 ns long, 10 ns uncovered.
        assert!((unaccounted_ratio(&spans) - 10.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn staged_driver_agrees_with_the_service_on_a_toy_graph() {
        let mut builder = pathenum_graph::GraphBuilder::new(4);
        builder
            .add_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        let graph = builder.finish();
        let workload = crate::workloads::find("dense_enum").unwrap();
        let mut spans = SpanLog::new(Instant::now());
        let queries = [Query { s: 0, t: 3, k: 3 }, Query { s: 0, t: 3, k: 2 }];
        let (staged, lab) = staged_driver(workload, &graph, &queries, &mut spans).unwrap();
        assert_eq!(staged.counters.results, 3 + 2);
        assert_eq!(staged.edges_scanned.len(), 2);
        assert!(staged.pipeline_time >= staged.enumerate_time + staged.bfs_time);
        assert_eq!(lab.compared, 1, "every fifth request enters the lab");
        assert_eq!(lab.q_errors.len(), 1);
        // One root, nine children per request; children tile the root.
        assert_eq!(spans.spans.len(), 20);
        let own = spans.self_times_ns();
        assert!(own[0] <= spans.spans[0].duration_ns());
    }
}
