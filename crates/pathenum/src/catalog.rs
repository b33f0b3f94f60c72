//! The catalog: many named graphs, per-tenant caches, epoch-swapped
//! publishing, and admission-controlled serving — the crate's one
//! concurrent serving front end.
//!
//! The per-thread [`QueryEngine`](crate::QueryEngine) is `&mut self`
//! with private one-shard caches: two concurrent requests cannot share a
//! graph, an index, or a warm plan. A catalog
//! with one registered graph, one tenant and admission off is the
//! single-graph service; a fleet deployment serves *many* graphs — per
//! product surface, per region, per snapshot — to many tenants at once,
//! and replaces graphs while queries are in flight. [`GraphCatalog`] is
//! that registry:
//!
//! * every **named graph** is a [`GraphHandle`] plus one cache pair per
//!   tenant: an N-shard [`PlanCache`] bounded by the per-tenant/per-graph
//!   entry quota (eviction accounting included via
//!   [`CacheStats::evictions`]) and, when the result layer is on, an
//!   N-shard [`ResultCache`] — the types an engine owns with one shard.
//!   One tenant's working set cannot evict another's, and one graph's
//!   caches are invisible to another's;
//! * [`publish`](GraphCatalog::publish) performs an **atomic epoch
//!   swap**: the served [`GraphHandle`] is replaced under a lock that
//!   covers only the pointer, while in-flight queries keep executing on
//!   the epoch they snapshotted at submit — no torn reads, ever. Stale
//!   plan-cache entries die lazily on their next lookup because the new
//!   graph carries a new [`GraphVersion`](pathenum_graph::GraphVersion);
//!   caches of *other* graphs are untouched (invalidation is per graph,
//!   not global);
//! * [`CatalogService`] routes a [`CatalogRequest`] (graph name, tenant,
//!   query) through the catalog and an
//!   [`AdmissionController`]:
//!   each request runs the first stage of the crate's one request
//!   pipeline (`pipeline.rs`) **at submit**, on the caller's thread — a
//!   result hit resolves there; otherwise the request is planned
//!   (warming the tenant's plan cache either way), its
//!   [modeled cost](crate::plan::PhysicalPlan::modeled_cost) — the
//!   price of what *this* request will run, under its own `limit`, not
//!   of enumerating the query in full — charged
//!   against the in-flight budget, and the admitted work dispatched on
//!   the [`Lane`] its cost earned, where a pool worker runs the
//!   pipeline's second stage. Over-budget requests are rejected
//!   *fast* — the [`CatalogTicket`] resolves immediately with
//!   [`PathEnumError::Overloaded`] instead of queueing forever.
//!
//! A request that a pre-flight rule stops (already cancelled, `limit(0)`,
//! a zero time budget) resolves at submit with
//! [`CacheOutcome::Skipped`](crate::plan::CacheOutcome::Skipped): it
//! touches no cache and pays no admission charge. Otherwise per-request
//! deadlines start when a worker picks the job up, so queue wait never
//! silently consumes a request's time budget.
//!
//! Build scratch (the `O(|V|)` boundary maps and the table-row buffer)
//! is thread-local: each OS thread that ever plans keeps its own
//! [`BuildScratch`], reused across queries exactly as an engine would.
//!
//! ```
//! use std::sync::Arc;
//! use pathenum::catalog::{CatalogConfig, CatalogRequest, CatalogService};
//! use pathenum::{PathEnumConfig, QueryRequest};
//! use pathenum_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
//! let graph = Arc::new(b.finish());
//!
//! let service = CatalogService::new(PathEnumConfig::default(), CatalogConfig::default());
//! service.catalog().register("social", Arc::clone(&graph));
//!
//! let request = CatalogRequest::new("social", "alice", QueryRequest::paths(0, 3).max_hops(3));
//! let outcome = service.submit(request).wait_outcome();
//! assert_eq!(outcome.response.unwrap().num_results(), 2);
//! assert_eq!(outcome.epoch, Some(0));
//! assert!(outcome.decision.unwrap().admitted());
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pathenum_graph::{GraphHandle, NeighborAccess};

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionDecision, Lane};
use crate::index::BuildScratch;
use crate::optimizer::PathEnumConfig;
use crate::pipeline::{self, Acquired, Caches, Collector, Pipeline};
use crate::plan::PlanCache;
use crate::request::{PathEnumError, QueryRequest, QueryResponse};
use crate::results::ResultCache;
use crate::sharded::CacheStats;

/// Default per-tenant/per-graph plan-cache entry quota.
pub const DEFAULT_TENANT_CACHE_QUOTA: usize = 32;

/// One immutable published generation of a named graph. In-flight
/// queries hold the `Arc` of the epoch they were submitted against, so
/// a concurrent [`publish`](GraphCatalog::publish) never tears a read.
struct ServingEpoch {
    /// Generation counter: 0 at registration, +1 per publish.
    epoch: u64,
    graph: GraphHandle,
}

/// Everything the catalog tracks for one graph name. The tenant caches
/// live here — *outside* the epoch — so a publish keeps them, and stale
/// entries are invalidated lazily (and per graph) by the new graph's
/// version on their next lookup.
struct GraphState {
    current: Mutex<Arc<ServingEpoch>>,
    tenants: Mutex<HashMap<String, Arc<Caches>>>,
}

impl GraphState {
    fn snapshot(&self) -> Arc<ServingEpoch> {
        Arc::clone(&crate::sync::lock_recovering(&self.current))
    }

    /// `tenant`'s caches, if it ever queried this graph.
    fn tenant(&self, tenant: &str) -> Option<Arc<Caches>> {
        crate::sync::lock_recovering(&self.tenants)
            .get(tenant)
            .cloned()
    }
}

/// A registry of named graphs, each served at an explicit epoch with
/// per-tenant bounded plan caches. See the [module docs](self).
///
/// A catalog belongs to one [`CatalogService`], which builds it from its
/// [`CatalogConfig`] (the per-tenant cache quota, shard count and
/// result-cache budget) and hands it out through
/// [`CatalogService::catalog`].
pub struct GraphCatalog {
    graphs: Mutex<HashMap<String, Arc<GraphState>>>,
    tenant_cache_quota: usize,
    cache_shards: usize,
    result_cache_bytes: usize,
}

impl std::fmt::Debug for GraphCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphCatalog")
            .field("graphs", &self.names())
            .field("tenant_cache_quota", &self.tenant_cache_quota)
            .finish_non_exhaustive()
    }
}

impl GraphCatalog {
    /// An empty catalog sized by `config`'s per-tenant cache quota,
    /// shard count and result-cache budget.
    fn from_config(config: &CatalogConfig) -> Self {
        GraphCatalog {
            graphs: Mutex::new(HashMap::new()),
            tenant_cache_quota: config.tenant_cache_quota,
            cache_shards: config.cache_shards,
            result_cache_bytes: config.result_cache_bytes,
        }
    }

    /// Registers (or wholly replaces, caches included) `name` at epoch
    /// 0. Accepts any representation convertible to a [`GraphHandle`]:
    /// a `CsrGraph` (or `Arc<CsrGraph>`), however it was loaded, and an
    /// overlay-backed dynamic graph register uniformly.
    pub fn register(&self, name: &str, graph: impl Into<GraphHandle>) {
        let state = Arc::new(GraphState {
            current: Mutex::new(Arc::new(ServingEpoch {
                epoch: 0,
                graph: graph.into(),
            })),
            tenants: Mutex::new(HashMap::new()),
        });
        crate::sync::lock_recovering(&self.graphs).insert(name.to_string(), state);
    }

    /// Atomically replaces the graph served under `name`, returning the
    /// new epoch. In-flight queries finish on the epoch they snapshotted;
    /// the tenant caches survive, their stale entries invalidated lazily
    /// (per graph — other names' caches are untouched) because the new
    /// graph carries a new version.
    pub fn publish(&self, name: &str, graph: impl Into<GraphHandle>) -> Result<u64, PathEnumError> {
        let state = self.state(name).ok_or(PathEnumError::GraphNotFound)?;
        let mut current = crate::sync::lock_recovering(&state.current);
        let epoch = current.epoch + 1;
        *current = Arc::new(ServingEpoch {
            epoch,
            graph: graph.into(),
        });
        Ok(epoch)
    }

    /// Removes `name` (and its tenant caches) from the catalog. In-flight
    /// queries on a snapshotted epoch still finish.
    pub fn deregister(&self, name: &str) -> bool {
        crate::sync::lock_recovering(&self.graphs)
            .remove(name)
            .is_some()
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = crate::sync::lock_recovering(&self.graphs)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        crate::sync::lock_recovering(&self.graphs).contains_key(name)
    }

    /// The epoch currently served under `name`.
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.state(name).map(|s| s.snapshot().epoch)
    }

    /// The graph currently served under `name`.
    pub fn graph(&self, name: &str) -> Option<GraphHandle> {
        self.state(name).map(|s| s.snapshot().graph.clone())
    }

    /// The configured per-tenant/per-graph plan-cache entry quota.
    pub fn tenant_cache_quota(&self) -> usize {
        self.tenant_cache_quota
    }

    /// Lifetime statistics of one tenant's plan cache on one graph
    /// (`None` if the graph is unknown or the tenant never queried it).
    /// Quota pressure shows up as [`CacheStats::evictions`].
    pub fn tenant_cache_stats(&self, name: &str, tenant: &str) -> Option<CacheStats> {
        Some(self.state(name)?.tenant(tenant)?.plans.stats())
    }

    /// The configured per-tenant/per-graph result-cache byte budget
    /// (`0` = result layer off).
    pub fn result_cache_bytes(&self) -> usize {
        self.result_cache_bytes
    }

    /// Lifetime statistics of one tenant's result cache on one graph
    /// (`None` if the layer is off, the graph is unknown, or the tenant
    /// never queried it).
    pub fn tenant_result_cache_stats(&self, name: &str, tenant: &str) -> Option<CacheStats> {
        Some(self.state(name)?.tenant(tenant)?.results.as_ref()?.stats())
    }

    /// Per-tenant cache accounting for one graph: `(tenant, entries,
    /// stats)` rows, sorted by tenant.
    pub fn tenant_accounting(&self, name: &str) -> Vec<(String, usize, CacheStats)> {
        let Some(state) = self.state(name) else {
            return Vec::new();
        };
        let tenants = crate::sync::lock_recovering(&state.tenants);
        let mut rows: Vec<(String, usize, CacheStats)> = tenants
            .iter()
            .map(|(tenant, caches)| (tenant.clone(), caches.plans.len(), caches.plans.stats()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    fn state(&self, name: &str) -> Option<Arc<GraphState>> {
        crate::sync::lock_recovering(&self.graphs)
            .get(name)
            .cloned()
    }

    /// `tenant`'s caches on `state`'s graph, created on the tenant's
    /// first request: the plan layer at the entry quota, the result layer
    /// when its byte budget is not 0, each over the configured shards.
    fn tenant_caches(&self, state: &GraphState, tenant: &str) -> Arc<Caches> {
        let mut tenants = crate::sync::lock_recovering(&state.tenants);
        if let Some(caches) = tenants.get(tenant) {
            return Arc::clone(caches);
        }
        let shards = self.cache_shards;
        let caches = Arc::new(Caches {
            plans: PlanCache::with_shards(self.tenant_cache_quota, shards),
            results: (self.result_cache_bytes > 0)
                .then(|| ResultCache::with_shards(self.result_cache_bytes, shards)),
        });
        tenants.insert(tenant.to_string(), Arc::clone(&caches));
        caches
    }
}

/// Sizing and policy knobs of a [`CatalogService`].
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Worker-pool size; `0` resolves to one worker per available core.
    pub workers: usize,
    /// Per-tenant/per-graph plan-cache entry quota (`0` disables
    /// caching).
    pub tenant_cache_quota: usize,
    /// Shards per tenant cache.
    pub cache_shards: usize,
    /// Per-tenant/per-graph result-cache byte budget; `0` (the default)
    /// keeps the result layer off. Hits resolve their ticket at submit,
    /// *before* admission — a repeated answer is never shed, never
    /// queued, and charges no cost against the in-flight budget.
    pub result_cache_bytes: usize,
    /// Admission policy; [`AdmissionConfig::disabled`] (the default)
    /// admits every request onto one unbounded FIFO lane.
    pub admission: AdmissionConfig,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            workers: 0,
            tenant_cache_quota: DEFAULT_TENANT_CACHE_QUOTA,
            cache_shards: 4,
            result_cache_bytes: 0,
            admission: AdmissionConfig::disabled(),
        }
    }
}

/// One routed request: which graph, on whose behalf, what query.
#[derive(Debug)]
pub struct CatalogRequest {
    graph: String,
    tenant: String,
    request: QueryRequest<'static>,
}

impl CatalogRequest {
    /// A request for `request` against the graph registered as `graph`,
    /// charged to `tenant`.
    pub fn new(graph: &str, tenant: &str, request: QueryRequest<'static>) -> Self {
        CatalogRequest {
            graph: graph.to_string(),
            tenant: tenant.to_string(),
            request,
        }
    }

    /// The target graph name.
    pub fn graph(&self) -> &str {
        &self.graph
    }

    /// The tenant the request is charged to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }
}

/// Everything known about one completed catalog request: the response
/// and timing envelope, plus which epoch served it and the admission
/// decision that let it through (or shed it).
#[derive(Debug)]
pub struct CatalogOutcome {
    /// The request's result; [`PathEnumError::GraphNotFound`] if the
    /// name was unregistered, [`PathEnumError::Overloaded`] if shed.
    pub response: Result<QueryResponse, PathEnumError>,
    /// When a worker began evaluating (for rejected requests: the
    /// moment of rejection).
    pub started: Instant,
    /// When the evaluation finished (for rejected requests: the moment
    /// of rejection).
    pub finished: Instant,
    /// The epoch of the graph that served the request (`None` when the
    /// graph was not found).
    pub epoch: Option<u64>,
    /// The full admission decision, EXPLAIN-renderable via its
    /// `Display` (`None` when the request never reached admission: the
    /// graph was not found, a result hit answered it, or a pre-flight
    /// rule stopped it).
    pub decision: Option<AdmissionDecision>,
}

impl CatalogOutcome {
    /// Service time: `finished - started` (zero for rejections).
    pub fn latency(&self) -> std::time::Duration {
        self.finished.duration_since(self.started)
    }

    /// The lane the request was dispatched on, if it got that far.
    pub fn lane(&self) -> Option<Lane> {
        self.decision.as_ref().map(|d| d.lane)
    }
}

/// A handle to one request submitted via [`CatalogService::submit`].
/// Requests that never reach the pool (unknown graph, result hit,
/// pre-flight stop, shed by admission) resolve immediately —
/// [`is_done`](Self::is_done) is `true` before `submit` even returns.
#[derive(Debug)]
pub struct CatalogTicket {
    state: Arc<TicketState>,
    epoch: Option<u64>,
    decision: Option<AdmissionDecision>,
}

impl CatalogTicket {
    /// Whether the result is available (`wait_outcome` would not block).
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// The epoch snapshotted for this request at submit.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// The admission decision reached at submit.
    pub fn decision(&self) -> Option<&AdmissionDecision> {
        self.decision.as_ref()
    }

    /// Blocks until the request completes and returns its response.
    pub fn wait(self) -> Result<QueryResponse, PathEnumError> {
        self.state.wait().response
    }

    /// Blocks until the request completes and returns the full outcome.
    pub fn wait_outcome(self) -> CatalogOutcome {
        CatalogOutcome {
            epoch: self.epoch,
            decision: self.decision,
            ..self.state.wait()
        }
    }
}

/// The admission-controlled, multi-graph serving front end. See the
/// [module docs](self).
#[derive(Debug)]
pub struct CatalogService {
    catalog: GraphCatalog,
    admission: Arc<AdmissionController>,
    config: PathEnumConfig,
    workers: usize,
    pool: WorkerPool,
    submitted: AtomicU64,
}

impl CatalogService {
    /// A service over a fresh empty catalog sized by `catalog_config`.
    pub fn new(config: PathEnumConfig, catalog_config: CatalogConfig) -> Self {
        let workers = resolve_threads(catalog_config.workers);
        CatalogService {
            catalog: GraphCatalog::from_config(&catalog_config),
            admission: Arc::new(AdmissionController::new(catalog_config.admission)),
            config,
            workers,
            pool: WorkerPool::new(workers),
            submitted: AtomicU64::new(0),
        }
    }

    /// The catalog this service routes into (register/publish here).
    pub fn catalog(&self) -> &GraphCatalog {
        &self.catalog
    }

    /// The admission controller (budget occupancy, admitted/shed
    /// counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Requests submitted so far (admitted or not).
    pub fn queries_submitted(&self) -> u64 {
        // ordering: advisory stats read; a lagging value is acceptable.
        self.submitted.load(Ordering::Relaxed)
    }

    /// Submits one routed request. The catalog is a driver of the
    /// crate's one request pipeline with admission and a queue between
    /// its two stages: the request is *acquired here, on the calling
    /// thread* — answered outright from the tenant's result cache, or
    /// planned (warming the tenant's plan cache even if the request is
    /// then shed) — priced via
    /// [`modeled_cost`](crate::plan::PhysicalPlan::modeled_cost) for
    /// the results its `limit` lets it read, run
    /// through admission, and — if admitted — finished on a pool worker
    /// on the lane its cost earned. The returned ticket resolves
    /// immediately on a result hit, a pre-flight stop, a rejection, or a
    /// constraint closure that panics while the request is planned.
    pub fn submit(&self, routed: CatalogRequest) -> CatalogTicket {
        // ordering: advisory monotone counter; publishes no other memory.
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(TicketState::default());

        let Some(graph_state) = self.catalog.state(&routed.graph) else {
            return resolve_now(state, None, None, Err(PathEnumError::GraphNotFound));
        };
        let epoch = graph_state.snapshot();
        let request = routed.request;
        let query = match request.validate(epoch.graph.num_vertices()) {
            Ok(query) => query,
            Err(err) => return resolve_now(state, Some(epoch.epoch), None, Err(err)),
        };
        // A request a pre-flight rule stops never starts: it touches no
        // cache and pays no admission charge. Only a zero (or
        // sub-clock-tick) time budget can fire here; any longer one
        // passes, and its deadline restarts at pickup.
        let deadline = request.time_budget.map(|b| Instant::now() + b);
        if let Some(stopped) = pipeline::preflight_stop(&request, deadline) {
            return resolve_now(state, Some(epoch.epoch), None, Ok(stopped));
        }

        let caches = self.catalog.tenant_caches(&graph_state, &routed.tenant);

        // Stage one at submit: a stored answer resolves the ticket
        // *here*, before admission — a repeated answer is never shed,
        // never queued, and charges no cost against the in-flight budget
        // (such tickets carry no admission decision). Otherwise one
        // (cached) plan gives us the admission price.
        let submitted = Instant::now();
        let mut collector = Collector::new(&request);
        // Planning runs constraint closures on the calling thread; a
        // panicking one resolves the ticket, as it would on a worker.
        let acquired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_build_scratch(|scratch| {
                Pipeline {
                    graph: &epoch.graph,
                    config: self.config,
                    caches: &caches,
                    scratch,
                }
                .acquire(query, &request, &mut collector)
            })
        }));
        let planned = match acquired {
            Err(_) => {
                reset_build_scratch();
                let err = Err(PathEnumError::EvaluationPanicked);
                return resolve_now(state, Some(epoch.epoch), None, err);
            }
            Ok(Acquired::Replay(response)) => {
                state.publish(Ok(collector.attach(response)), submitted, Instant::now());
                return CatalogTicket {
                    state,
                    epoch: Some(epoch.epoch),
                    decision: None,
                };
            }
            Ok(Acquired::Planned(planned)) => planned,
        };

        let cost = planned.plan.modeled_cost();
        let decision = self.admission.try_admit(&routed.tenant, cost);
        if let Some(err) = decision.rejected {
            return resolve_now(state, Some(epoch.epoch), Some(decision), Err(err));
        }
        let lane = decision.lane;
        let epoch_id = epoch.epoch;

        let task: PoolTask = {
            let state = Arc::clone(&state);
            let admission = Arc::clone(&self.admission);
            let tenant = routed.tenant;
            Box::new(move || {
                let started = Instant::now();
                // Deadlines start at pickup: queue wait never consumes
                // the request's own time budget. Panics from hostile
                // constraint closures resolve the ticket, not the pool.
                let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let deadline = request.time_budget.map(|b| started + b);
                    if let Some(stopped) = pipeline::preflight_stop(&request, deadline) {
                        return stopped;
                    }
                    // Stage two on the worker; with the result layer on,
                    // the answer is teed into the tenant's result cache
                    // so the next repeat resolves at submit.
                    let mut collector = Collector::new(&request);
                    let response = pipeline::finish(
                        planned,
                        &epoch.graph,
                        &request,
                        deadline,
                        &mut collector,
                        &caches,
                    );
                    collector.attach(response)
                }))
                .map_err(|_| PathEnumError::EvaluationPanicked);
                admission.release(&tenant, cost);
                state.publish(response, started, Instant::now());
                // The epoch's graph stays alive exactly as long as work
                // referencing it does.
                drop(epoch);
            })
        };
        self.pool.spawn_task(lane, task);
        CatalogTicket {
            state,
            epoch: Some(epoch_id),
            decision: Some(decision),
        }
    }

    /// Evaluates one routed request, blocking until it completes (or is
    /// rejected).
    pub fn execute(&self, routed: CatalogRequest) -> Result<QueryResponse, PathEnumError> {
        self.submit(routed).wait()
    }
}

/// A ticket resolved at submit, with a zero-length service interval.
fn resolve_now(
    state: Arc<TicketState>,
    epoch: Option<u64>,
    decision: Option<AdmissionDecision>,
    response: Result<QueryResponse, PathEnumError>,
) -> CatalogTicket {
    let now = Instant::now();
    state.publish(response, now, now);
    CatalogTicket {
        state,
        epoch,
        decision,
    }
}

thread_local! {
    /// Per-OS-thread build scratch: any thread that plans through
    /// [`CatalogService::submit`] reuses its own boundary-map, id-mapping
    /// and row buffers across queries, exactly as a dedicated engine would.
    static BUILD_SCRATCH: RefCell<BuildScratch> = RefCell::new(BuildScratch::default());
}

/// Runs `f` with this OS thread's reusable [`BuildScratch`]. `f` may run
/// caller code (a sink, a constraint closure) that re-enters the catalog
/// on this thread; such a nested evaluation finds
/// the scratch taken and plans with a fresh one (every buffer empty, no
/// full-reach maps on offer until its own build leaves them).
fn with_build_scratch<R>(f: impl FnOnce(&mut BuildScratch) -> R) -> R {
    BUILD_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BuildScratch::default()),
    })
}

/// Drops this OS thread's build scratch after a panic unwound through a
/// build that may have left it half-written.
fn reset_build_scratch() {
    BUILD_SCRATCH.with(|scratch| {
        if let Ok(mut scratch) = scratch.try_borrow_mut() {
            *scratch = BuildScratch::default();
        }
    });
}

/// One unit of pool work: a boxed closure that owns everything it needs
/// (request, ticket slot, shared state) and publishes its own outcome.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// The two dispatch queues of a [`WorkerPool`], popped interactive-first
/// so cheap queries keep flowing while batch work drains behind them.
#[derive(Default)]
struct LaneQueues {
    interactive: VecDeque<PoolTask>,
    batch: VecDeque<PoolTask>,
}

impl LaneQueues {
    fn pop(&mut self) -> Option<PoolTask> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }

    fn push(&mut self, lane: Lane, task: PoolTask) {
        match lane {
            Lane::Interactive => self.interactive.push_back(task),
            Lane::Batch => self.batch.push_back(task),
        }
    }
}

struct PoolShared {
    queues: Mutex<LaneQueues>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

/// Resolves [`CatalogConfig::workers`]: `0` means one worker per
/// available core.
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// A fixed pool of named OS threads draining two lanes of boxed tasks;
/// admitted requests are routed by [`Lane`]. Shutdown on drop is
/// *draining*: queued tasks still run, so every issued [`CatalogTicket`]
/// resolves.
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads named `pathenum-catalog-{i}`.
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(LaneQueues::default()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pathenum-catalog-{i}"))
                    .spawn(move || pool_worker_loop(&shared))
                    // lint: allow(no-panic) — pool construction, not a
                    // serving path; OS thread-spawn failure at startup has
                    // no caller to report to.
                    .expect("worker threads spawn")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Enqueues `task` on `lane` and wakes one worker.
    fn spawn_task(&self, lane: Lane, task: PoolTask) {
        {
            let mut queues = crate::sync::lock_recovering(&self.shared.queues);
            queues.push(lane, task);
        }
        self.shared.job_ready.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // The store must happen under the queue mutex: a worker that
            // has found the queues empty and read `shutdown == false`
            // still holds the lock until `wait()` parks it, so storing
            // here cannot slip into that window — the classic condvar
            // lost-wakeup race.
            let _queues = crate::sync::lock_recovering(&self.shared.queues);
            // ordering: the queue mutex (held here, held at the load site)
            // orders this store; the flag itself publishes nothing.
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

/// A pool worker: drain the queues interactive-first (draining continues
/// after shutdown so every issued [`CatalogTicket`] resolves), park on the
/// condvar when idle. Tasks are responsible for resolving their own
/// tickets on panic; the `catch_unwind` here is only a backstop keeping
/// an unwinding task from costing the pool a worker.
fn pool_worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queues = crate::sync::lock_recovering(&shared.queues);
            loop {
                if let Some(task) = queues.pop() {
                    break Some(task);
                }
                // ordering: read under the queue mutex that also covers the
                // store in Drop; Relaxed suffices for the flag's value.
                if shared.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                queues = crate::sync::wait_recovering(&shared.job_ready, queues);
            }
        };
        let Some(task) = task else {
            return;
        };
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
    }
}

/// The slot a pool task resolves and a [`CatalogTicket`] waits on. The
/// outcome is published without its routing fields; the ticket, which
/// holds the epoch and the admission decision, supplies them on wait.
#[derive(Default)]
struct TicketState {
    slot: Mutex<Option<CatalogOutcome>>,
    ready: Condvar,
}

impl TicketState {
    fn publish(
        &self,
        response: Result<QueryResponse, PathEnumError>,
        started: Instant,
        finished: Instant,
    ) {
        let mut slot = crate::sync::lock_recovering(&self.slot);
        *slot = Some(CatalogOutcome {
            response,
            started,
            finished,
            epoch: None,
            decision: None,
        });
        self.ready.notify_all();
    }

    fn wait(&self) -> CatalogOutcome {
        let mut slot = crate::sync::lock_recovering(&self.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = crate::sync::wait_recovering(&self.ready, slot);
        }
    }

    fn is_done(&self) -> bool {
        crate::sync::lock_recovering(&self.slot).is_some()
    }
}

impl std::fmt::Debug for TicketState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketState").finish_non_exhaustive()
    }
}
