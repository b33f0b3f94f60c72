//! The concurrent serving layer: one graph, one plan cache, many
//! threads.
//!
//! The per-thread [`QueryEngine`](crate::QueryEngine) is `&mut self`
//! with a private [`PlanCache`](crate::plan::PlanCache): two concurrent
//! requests cannot share a graph, an index, or a warm plan.
//! [`PathEnumService`] is the `Send + Sync` front end the paper's
//! serving scenario (heavy skewed traffic against one in-memory graph)
//! actually needs:
//!
//! * the graph is owned as a [`GraphHandle`] — heap CSR, zero-copy
//!   frozen (`PEG2`), or overlay-backed, uniformly — and borrowed by
//!   every worker: no copies, no per-worker state;
//! * the plan/index cache is a [`SharedPlanCache`]: per-shard locking
//!   over the existing LRU [`PlanCache`](crate::plan::PlanCache),
//!   hit/miss/bypass statistics in
//!   atomics, entries handed out as `Arc<Index>` clones so a worker
//!   *executes outside the shard lock*. A query planned by one worker
//!   warms every other worker;
//! * build scratch (the `O(|V|)` boundary maps and the table-row buffer)
//!   is thread-local — each OS thread that ever plans keeps its own
//!   [`BuildScratch`], reused across queries exactly as an engine would;
//! * every request — direct or pooled — runs the crate's one request
//!   pipeline (`pipeline.rs`), the same code the engines run, over the
//!   shared store; the service adds the pool and the thread budget;
//! * a **fixed worker pool** provides inter-query parallelism:
//!   [`submit`](PathEnumService::submit) returns a [`Ticket`],
//!   [`execute_batch`](PathEnumService::execute_batch) fans a batch out
//!   and returns results in input order, and
//!   [`serve`](PathEnumService::serve) runs a closed-loop measured
//!   replay. All three honor the existing per-request deadline /
//!   cancellation / limit machinery.
//!
//! # Determinism
//!
//! Per-request output is *identical* to what a sequential
//! `QueryEngine` produces for the same request on the same graph —
//! planning is deterministic, cached plans equal cold plans, and the
//! enumerators emit a canonical order. `execute_batch` returns results
//! in input order, so the whole batch is byte-for-byte reproducible for
//! every worker count (only the [`CacheOutcome`] tag of individual
//! responses may differ run-to-run, since which racing worker plans a
//! shared query first is timing-dependent).
//!
//! # Thread budget
//!
//! `workers` (see [`ServiceConfig`]) is *one* budget shared by
//! inter-query workers and intra-query fan-out, split deterministically
//! by [`intra_budget`]: a batch of `>=
//! workers` requests runs each request sequentially inside; a smaller
//! batch hands the leftover threads to each request's intra-query pool.
//! [`QueryResponse::plan`] reports the clamped, effective thread count.
//!
//! ```
//! use std::sync::Arc;
//! use pathenum::service::{PathEnumService, ServiceConfig};
//! use pathenum::{PathEnumConfig, QueryRequest};
//! use pathenum_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
//! let graph = Arc::new(b.finish());
//!
//! let service = PathEnumService::new(Arc::clone(&graph), PathEnumConfig::default());
//! // Direct execution from any thread (&self, not &mut self):
//! let response = service.execute(&QueryRequest::paths(0, 3).max_hops(3)).unwrap();
//! assert_eq!(response.num_results(), 2);
//! // Batched execution over the worker pool, results in input order:
//! let batch = vec![
//!     QueryRequest::paths(0, 3).max_hops(3),
//!     QueryRequest::paths(0, 3).max_hops(2),
//! ];
//! let responses = service.execute_batch(batch);
//! assert_eq!(responses[0].as_ref().unwrap().num_results(), 2);
//! assert_eq!(responses[1].as_ref().unwrap().num_results(), 2);
//! assert!(service.cache_stats().hits >= 1, "the direct call warmed the pool");
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathenum_graph::GraphHandle;

use crate::admission::Lane;
use crate::index::BuildScratch;
use crate::optimizer::PathEnumConfig;
use crate::parallel::{intra_budget, resolve_threads};
use crate::pipeline::{self, Collector, Pipeline, SharedStore};
use crate::plan::{
    CacheOutcome, SharedCacheStats, SharedPlanCache, DEFAULT_CACHE_SHARDS,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use crate::request::{PathEnumError, QueryRequest, QueryResponse};
use crate::results::{ResultCacheStats, SharedResultCache, DEFAULT_RESULT_CACHE_SHARDS};
use crate::sink::PathSink;

thread_local! {
    /// Per-OS-thread build scratch: any thread that plans through the
    /// service (a pool worker, or a caller of [`PathEnumService::execute`])
    /// reuses its own boundary-map, id-mapping and row buffers across
    /// queries, exactly as a dedicated engine would.
    static BUILD_SCRATCH: RefCell<BuildScratch> = RefCell::new(BuildScratch::default());
}

/// Runs `f` with this OS thread's reusable [`BuildScratch`] — the
/// scratch-reuse contract shared by every concurrent evaluator (the
/// service workers and the [`catalog`](crate::catalog)'s plan-at-submit
/// path). `f` may run caller code (a sink, a constraint closure) that
/// re-enters the service on this thread; such a nested evaluation finds
/// the scratch taken and plans with a fresh one (every buffer empty, no
/// full-reach maps on offer until its own build leaves them).
pub(crate) fn with_build_scratch<R>(f: impl FnOnce(&mut BuildScratch) -> R) -> R {
    BUILD_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BuildScratch::default()),
    })
}

/// Sizing knobs of a [`PathEnumService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Fixed worker-pool size — the service's total thread budget,
    /// shared between inter-query workers and intra-query fan-out.
    /// `0` (the default) resolves to one worker per available core.
    pub workers: usize,
    /// Total plan/index cache capacity across all shards, rounded up to
    /// a multiple of `cache_shards`; `0` disables caching (every
    /// request plans from scratch).
    pub cache_capacity: usize,
    /// Number of independent cache shards (clamped to at least 1 and at
    /// most the capacity). More shards, less lock contention, smaller
    /// per-shard LRU windows.
    pub cache_shards: usize,
    /// Byte budget of the shared **result** cache
    /// ([`SharedResultCache`], see [`crate::results`]) — the layer that
    /// serves repeated requests from stored paths without planning or
    /// enumerating. `0` (the default) keeps the layer off entirely.
    pub result_cache_bytes: usize,
    /// Shard count of the shared result cache (ignored while the layer
    /// is off).
    pub result_cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            cache_shards: DEFAULT_CACHE_SHARDS,
            result_cache_bytes: 0,
            result_cache_shards: DEFAULT_RESULT_CACHE_SHARDS,
        }
    }
}

/// What the service shares with every worker thread.
struct ServiceCore {
    graph: GraphHandle,
    config: PathEnumConfig,
    cache: SharedPlanCache,
    /// The shared result layer; `None` keeps it off (the default).
    results: Option<SharedResultCache>,
    /// Resolved worker-pool size (the thread budget).
    workers: usize,
    queries_served: AtomicU64,
    queries_rejected: AtomicU64,
}

impl ServiceCore {
    /// The shared caches, as the pipeline sees them.
    fn store(&self) -> SharedStore<'_> {
        SharedStore {
            plans: &self.cache,
            results: self.results.as_ref(),
        }
    }

    /// The shared-state driver of the request pipeline: borrow the
    /// graph, consult the sharded caches, plan with this thread's
    /// scratch. `intra_cap` bounds the request's intra-query threads
    /// (budget sharing).
    fn execute_into(
        &self,
        request: &QueryRequest<'_>,
        sink: &mut dyn PathSink,
        intra_cap: usize,
    ) -> Result<QueryResponse, PathEnumError> {
        let response = with_build_scratch(|scratch| {
            Pipeline {
                graph: &self.graph,
                config: self.config,
                store: self.store(),
                scratch,
                threads: request.effective_threads().min(intra_cap.max(1)),
            }
            .evaluate(request, sink)
        })?;
        // ordering: served/rejected are advisory monotone counters read only
        // by stats(); no other memory is published through them.
        if response.report.cache == CacheOutcome::Skipped {
            self.queries_rejected.fetch_add(1, Ordering::Relaxed);
        } else {
            self.queries_served.fetch_add(1, Ordering::Relaxed);
        }
        Ok(response)
    }

    fn execute(
        &self,
        request: &QueryRequest<'_>,
        intra_cap: usize,
    ) -> Result<QueryResponse, PathEnumError> {
        let mut collector = Collector::new(request);
        let response = self.execute_into(request, &mut collector, intra_cap)?;
        Ok(collector.attach(response))
    }

    /// Evaluates one pooled request on the calling worker and resolves
    /// its ticket. Panics from user-supplied constraint closures (or our
    /// own bugs) are isolated: an unwinding evaluation must not strand
    /// the caller parked on its ticket — nor starve its groupmates.
    fn run_pooled(&self, request: &QueryRequest<'_>, intra_cap: usize, ticket: &TicketState) {
        let started = Instant::now();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute(request, intra_cap)
        }))
        .unwrap_or(Err(PathEnumError::EvaluationPanicked));
        ticket.publish(TicketOutcome {
            response,
            started,
            finished: Instant::now(),
        });
    }
}

/// One unit of pool work: a boxed closure that owns everything it needs
/// (request, ticket slot, shared state) and publishes its own outcome.
pub(crate) type PoolTask = Box<dyn FnOnce() + Send + 'static>;

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

/// A fixed pool of named OS threads draining two lanes of boxed tasks.
///
/// This is the dispatch substrate shared by [`PathEnumService`] (which
/// submits everything on the interactive lane, preserving PR 5's FIFO
/// behavior) and the [`catalog`](crate::catalog) (which routes admitted
/// requests by [`Lane`]). Shutdown on drop is *draining*: queued tasks
/// still run, so every issued [`Ticket`] resolves.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads named `{name_prefix}-{i}`.
    pub(crate) fn new(workers: usize, name_prefix: &str) -> Self {
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(LaneQueues::default()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{i}"))
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
    pub(crate) fn spawn_task(&self, lane: Lane, task: PoolTask) {
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
/// after shutdown so every issued [`Ticket`] resolves), park on the
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

#[derive(Default)]
pub(crate) struct TicketState {
    slot: Mutex<Option<TicketOutcome>>,
    ready: Condvar,
}

impl TicketState {
    pub(crate) fn publish(&self, outcome: TicketOutcome) {
        let mut slot = crate::sync::lock_recovering(&self.slot);
        *slot = Some(outcome);
        self.ready.notify_all();
    }

    pub(crate) fn wait(&self) -> TicketOutcome {
        let mut slot = crate::sync::lock_recovering(&self.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = crate::sync::wait_recovering(&self.ready, slot);
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        crate::sync::lock_recovering(&self.slot).is_some()
    }
}

/// Everything known about one completed pool request: the response plus
/// the wall-clock interval the worker spent on it (queueing excluded —
/// `started` is when a worker picked the job up).
#[derive(Debug)]
pub struct TicketOutcome {
    /// The request's result, exactly as `QueryEngine::execute` would
    /// have produced it.
    pub response: Result<QueryResponse, PathEnumError>,
    /// When a pool worker began evaluating the request.
    pub started: Instant,
    /// When the evaluation finished.
    pub finished: Instant,
}

impl TicketOutcome {
    /// Service time: `finished - started`.
    pub fn latency(&self) -> Duration {
        self.finished.duration_since(self.started)
    }
}

/// A handle to one request submitted to the pool via
/// [`PathEnumService::submit`]. Dropping the ticket abandons the result
/// (the request still runs to completion under its own stopping rules —
/// attach a [`CancelToken`](crate::request::CancelToken) to revoke it).
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl std::fmt::Debug for TicketState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketState").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Whether the result is available (`wait` would not block).
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Blocks until the request completes and returns its response.
    pub fn wait(self) -> Result<QueryResponse, PathEnumError> {
        self.state.wait().response
    }

    /// Blocks until the request completes and returns the response with
    /// its timing envelope.
    pub fn wait_outcome(self) -> TicketOutcome {
        self.state.wait()
    }
}

/// Aggregate of one [`serve`](PathEnumService::serve) replay.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request responses, in input order.
    pub responses: Vec<Result<QueryResponse, PathEnumError>>,
    /// Per-request service latencies (worker pickup to completion), in
    /// input order.
    pub latencies: Vec<Duration>,
    /// Wall-clock time of the whole replay.
    pub wall: Duration,
    /// Shared-cache statistics accumulated *by this replay* (a delta,
    /// not the service's lifetime counters).
    pub cache: SharedCacheStats,
}

impl ServeReport {
    /// Total results across every successful response.
    pub fn total_results(&self) -> u64 {
        self.responses
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(QueryResponse::num_results)
            .sum()
    }

    /// Requests completed per wall-clock second.
    pub fn throughput(&self) -> f64 {
        self.responses.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// A `Send + Sync` HcPE serving layer: one shared graph, one shared
/// sharded plan cache, a fixed worker pool. See the [module docs](self).
#[derive(Debug)]
pub struct PathEnumService {
    core: Arc<ServiceCore>,
    pool: WorkerPool,
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache.capacity())
            .finish_non_exhaustive()
    }
}

impl PathEnumService {
    /// A service over `graph` with the default [`ServiceConfig`]
    /// (per-core worker pool, default-capacity sharded cache). Accepts
    /// anything convertible to a [`GraphHandle`]: an `Arc<CsrGraph>`
    /// (the historical signature), a frozen `PEG2` graph, or a handle.
    pub fn new(graph: impl Into<GraphHandle>, config: PathEnumConfig) -> Self {
        PathEnumService::with_config(graph, config, ServiceConfig::default())
    }

    /// A service with explicit pool and cache sizing.
    pub fn with_config(
        graph: impl Into<GraphHandle>,
        config: PathEnumConfig,
        service: ServiceConfig,
    ) -> Self {
        let workers = resolve_threads(service.workers);
        let results = (service.result_cache_bytes > 0).then(|| {
            SharedResultCache::new(service.result_cache_bytes, service.result_cache_shards)
        });
        let core = Arc::new(ServiceCore {
            graph: graph.into(),
            config,
            cache: SharedPlanCache::new(service.cache_capacity, service.cache_shards),
            results,
            workers,
            queries_served: AtomicU64::new(0),
            queries_rejected: AtomicU64::new(0),
        });
        let pool = WorkerPool::new(workers, "pathenum-worker");
        PathEnumService { core, pool }
    }

    /// The graph this service serves.
    pub fn graph(&self) -> &GraphHandle {
        &self.core.graph
    }

    /// Resolved worker-pool size (the service's thread budget).
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Requests evaluated so far, across all threads. Pre-flight-stopped
    /// requests are counted in [`queries_rejected`](Self::queries_rejected)
    /// instead.
    pub fn queries_served(&self) -> u64 {
        // ordering: advisory stats read; a lagging value is acceptable.
        self.core.queries_served.load(Ordering::Relaxed)
    }

    /// Requests short-circuited by a pre-flight stopping rule before any
    /// evaluation (they perform no cache lookup and their responses read
    /// [`CacheOutcome::Skipped`]).
    pub fn queries_rejected(&self) -> u64 {
        // ordering: advisory stats read; a lagging value is acceptable.
        self.core.queries_rejected.load(Ordering::Relaxed)
    }

    /// Lifetime statistics of the shared plan cache.
    pub fn cache_stats(&self) -> SharedCacheStats {
        self.core.cache.stats()
    }

    /// Entries currently cached across all shards.
    pub fn cache_len(&self) -> usize {
        self.core.cache.len()
    }

    /// Drops every cached plan (statistics are kept).
    pub fn clear_cache(&self) {
        self.core.cache.clear();
    }

    /// Lifetime statistics of the shared result cache. All-zero when the
    /// layer is off ([`ServiceConfig::result_cache_bytes`] == 0).
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.core
            .results
            .as_ref()
            .map(SharedResultCache::stats)
            .unwrap_or_default()
    }

    /// Completed answers currently cached across all result shards.
    pub fn result_cache_len(&self) -> usize {
        self.core
            .results
            .as_ref()
            .map(SharedResultCache::len)
            .unwrap_or(0)
    }

    /// Drops every cached result (statistics are kept).
    pub fn clear_result_cache(&self) {
        if let Some(results) = &self.core.results {
            results.clear();
        }
    }

    /// Evaluates one request on the *calling* thread, sharing the cache
    /// with the pool. Takes `&self`: any number of threads may call this
    /// concurrently. The request may use up to the whole thread budget
    /// for intra-query parallelism.
    pub fn execute(&self, request: &QueryRequest<'_>) -> Result<QueryResponse, PathEnumError> {
        self.core.execute(request, self.core.workers)
    }

    /// As [`execute`](Self::execute), streaming result paths into `sink`.
    pub fn execute_into(
        &self,
        request: &QueryRequest<'_>,
        sink: &mut dyn PathSink,
    ) -> Result<QueryResponse, PathEnumError> {
        self.core.execute_into(request, sink, self.core.workers)
    }

    /// Submits one request to the worker pool, returning immediately
    /// with a [`Ticket`] for the result. Submitted requests run with
    /// intra-query parallelism 1 (the pool is presumed busy with other
    /// queries); use [`execute`](Self::execute) or a small
    /// [`execute_batch`](Self::execute_batch) when one heavy query
    /// should fan out instead.
    pub fn submit(&self, request: QueryRequest<'static>) -> Ticket {
        self.submit_with_cap(request, 1)
    }

    fn submit_with_cap(&self, request: QueryRequest<'static>, intra_cap: usize) -> Ticket {
        let state = Arc::new(TicketState::default());
        let core = Arc::clone(&self.core);
        let ticket = Arc::clone(&state);
        self.pool.spawn_task(
            Lane::Interactive,
            Box::new(move || core.run_pooled(&request, intra_cap, &ticket)),
        );
        Ticket { state }
    }

    /// Evaluates a batch over the worker pool, returning responses **in
    /// input order** regardless of completion order. The thread budget
    /// is split deterministically: with `B = min(batch, workers)`
    /// requests in flight, each request may use `workers / B` intra-query
    /// threads.
    pub fn execute_batch(
        &self,
        requests: Vec<QueryRequest<'static>>,
    ) -> Vec<Result<QueryResponse, PathEnumError>> {
        self.dispatch_batch(requests)
            .into_iter()
            .map(Ticket::wait)
            .collect()
    }

    /// Closed-loop measured replay: the whole batch is queued at once,
    /// the pool keeps exactly `workers` requests in flight (each next
    /// request dispatched the moment a worker frees up), and the report
    /// carries input-order responses, per-request service latencies, the
    /// batch wall-clock, and the cache-statistics delta the replay
    /// generated.
    pub fn serve(&self, requests: Vec<QueryRequest<'static>>) -> ServeReport {
        let stats_before = self.core.cache.stats();
        let wall_start = Instant::now();
        let outcomes: Vec<TicketOutcome> = self
            .dispatch_batch(requests)
            .into_iter()
            .map(Ticket::wait_outcome)
            .collect();
        let wall = wall_start.elapsed();
        let mut responses = Vec::with_capacity(outcomes.len());
        let mut latencies = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            latencies.push(outcome.latency());
            responses.push(outcome.response);
        }
        ServeReport {
            responses,
            latencies,
            wall,
            cache: self.core.cache.stats().since(&stats_before),
        }
    }

    /// Queues a batch on the pool, returning input-order tickets.
    ///
    /// Requests sharing a [`PlanKey`](crate::plan::PlanKey) — same
    /// `(s, t, k)` shape, same constraint fingerprint — are grouped into
    /// one *unit* that a single worker evaluates sequentially: the first
    /// member pays the one boundary BFS + index build (and, when result
    /// caching is on, the one enumeration) and publishes it through the
    /// shared caches; the rest of the group replays warm. Grouping is a
    /// scheduling decision only — every member still executes through
    /// the normal path, so outputs are byte-identical to solo execution
    /// (the PR-2 deterministic merge keeps even intra-parallel runs
    /// thread-count-invariant). Uncacheable requests stay singleton
    /// units. The thread budget is split across *units*, not requests.
    fn dispatch_batch(&self, requests: Vec<QueryRequest<'static>>) -> Vec<Ticket> {
        // Unit = the (input position, request, ticket) list one worker
        // runs in order. Grouped members keep their own tickets and
        // timing envelopes.
        let mut units: Vec<Vec<(QueryRequest<'static>, Arc<TicketState>)>> = Vec::new();
        let mut by_key: HashMap<crate::plan::PlanKey, usize> = HashMap::new();
        let mut tickets = Vec::with_capacity(requests.len());
        for request in requests {
            let state = Arc::new(TicketState::default());
            tickets.push(Ticket {
                state: Arc::clone(&state),
            });
            match pipeline::plan_key(self.core.config, &request, self.core.cache.capacity()) {
                Some(key) => match by_key.get(&key) {
                    Some(&unit) => units[unit].push((request, state)),
                    None => {
                        by_key.insert(key, units.len());
                        units.push(vec![(request, state)]);
                    }
                },
                None => units.push(vec![(request, state)]),
            }
        }

        let in_flight = units.len().min(self.core.workers).max(1);
        let cap = intra_budget(self.core.workers, in_flight);
        for unit in units {
            let core = Arc::clone(&self.core);
            self.pool.spawn_task(
                Lane::Interactive,
                Box::new(move || {
                    for (request, ticket) in unit {
                        core.run_pooled(&request, cap, &ticket);
                    }
                }),
            );
        }
        tickets
    }
}

/// Compile-time proof that the serving layer (and everything it ships
/// across threads) is `Send + Sync` without a line of `unsafe`.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PathEnumService>();
    assert_send_sync::<QueryRequest<'static>>();
    assert_send_sync::<SharedPlanCache>();
    assert_send_sync::<Ticket>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::request::{CancelToken, Termination};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};
    use pathenum_graph::CsrGraph;

    fn service_over(graph: &Arc<CsrGraph>, workers: usize) -> PathEnumService {
        PathEnumService::with_config(
            Arc::clone(graph),
            PathEnumConfig::default(),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn direct_execute_matches_engine() {
        let graph = Arc::new(erdos_renyi(50, 300, 3));
        let service = service_over(&graph, 2);
        let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
        for t in 1..10u32 {
            let request = || QueryRequest::paths(0, t).max_hops(4).collect_paths(true);
            let from_service = service.execute(&request()).unwrap();
            let from_engine = engine.execute(&request()).unwrap();
            assert_eq!(from_service.paths, from_engine.paths, "t={t}");
            assert_eq!(from_service.termination, from_engine.termination);
        }
        assert_eq!(service.queries_served(), 9);
    }

    #[test]
    fn batch_returns_input_order_and_shares_the_cache() {
        let graph = Arc::new(erdos_renyi(60, 380, 17));
        let service = service_over(&graph, 4);
        // A skewed batch: the same three targets, many times over.
        let targets: Vec<u32> = (0..24).map(|i| 1 + (i % 3)).collect();
        let requests: Vec<QueryRequest<'static>> = targets
            .iter()
            .map(|&t| QueryRequest::paths(0, t).max_hops(4).collect_paths(true))
            .collect();
        let responses = service.execute_batch(requests);
        assert_eq!(responses.len(), targets.len());

        let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
        for (&t, response) in targets.iter().zip(&responses) {
            let response = response.as_ref().unwrap();
            let expected = engine
                .execute(&QueryRequest::paths(0, t).max_hops(4).collect_paths(true))
                .unwrap();
            assert_eq!(response.paths, expected.paths, "t={t}");
        }
        let stats = service.cache_stats();
        assert!(stats.hits > 0, "24 requests over 3 shapes must share");
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        assert_eq!(stats.lookups, 24);
    }

    #[test]
    fn submit_tickets_resolve_and_report_latency() {
        let graph = Arc::new(erdos_renyi(40, 220, 5));
        let service = service_over(&graph, 2);
        let ticket = service.submit(QueryRequest::paths(0, 1).max_hops(4).collect_paths(true));
        let outcome = ticket.wait_outcome();
        let response = outcome.response.unwrap();
        assert_eq!(response.termination, Termination::Completed);
        assert!(outcome.finished >= outcome.started);
        // Submitted requests run intra-sequentially.
        assert_eq!(response.plan.unwrap().threads, 1);
    }

    #[test]
    fn small_batches_hand_leftover_budget_to_intra_query_pools() {
        let graph = Arc::new(complete_digraph(7));
        let service = service_over(&graph, 4);
        let responses = service.execute_batch(vec![QueryRequest::paths(0, 6)
            .max_hops(3)
            .threads(8)
            .collect_paths(true)]);
        // One request in flight out of a budget of 4: threads(8) clamps
        // to 4, deterministically.
        assert_eq!(responses[0].as_ref().unwrap().plan.unwrap().threads, 4);

        let full: Vec<QueryRequest<'static>> = (1..=6)
            .map(|t| QueryRequest::paths(0, t).max_hops(3).threads(8))
            .collect();
        for response in service.execute_batch(full) {
            assert_eq!(response.unwrap().plan.unwrap().threads, 1);
        }
    }

    #[test]
    fn serve_reports_latencies_wall_and_cache_delta() {
        let graph = Arc::new(erdos_renyi(50, 300, 11));
        let service = service_over(&graph, 2);
        let requests: Vec<QueryRequest<'static>> = (0..12)
            .map(|i| QueryRequest::paths(0, 1 + (i % 2)).max_hops(4).limit(100))
            .collect();
        let report = service.serve(requests);
        assert_eq!(report.responses.len(), 12);
        assert_eq!(report.latencies.len(), 12);
        assert!(report.wall >= *report.latencies.iter().max().unwrap());
        assert_eq!(report.cache.lookups, 12);
        assert!(report.cache.hits >= 10 - report.cache.misses);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn preflight_stops_are_rejected_with_skipped_outcome() {
        let graph = Arc::new(erdos_renyi(30, 150, 2));
        let service = service_over(&graph, 2);
        let token = CancelToken::new();
        token.cancel();
        let response = service
            .execute(&QueryRequest::paths(0, 1).max_hops(4).cancel_token(token))
            .unwrap();
        assert_eq!(response.termination, Termination::Cancelled);
        assert_eq!(response.report.cache, CacheOutcome::Skipped);
        assert_eq!(service.queries_served(), 0);
        assert_eq!(service.queries_rejected(), 1);
        assert_eq!(service.cache_stats().lookups, 0, "no lookup happened");
    }

    #[test]
    fn bypass_requests_are_counted_but_never_stored() {
        let graph = Arc::new(erdos_renyi(30, 150, 8));
        let service = service_over(&graph, 2);
        for _ in 0..3 {
            let response = service
                .execute(&QueryRequest::paths(0, 1).max_hops(4).bypass_cache())
                .unwrap();
            assert_eq!(response.report.cache, CacheOutcome::Bypass);
        }
        let stats = service.cache_stats();
        assert_eq!(stats.bypasses, 3);
        assert_eq!(stats.lookups, 3);
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn concurrent_direct_callers_share_one_warm_working_set() {
        let graph = Arc::new(erdos_renyi(60, 380, 23));
        let service = service_over(&graph, 4);
        // Warm the cache, then hammer it from many caller threads.
        let warm = service
            .execute(&QueryRequest::paths(0, 1).max_hops(4).collect_paths(true))
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let response = service
                            .execute(&QueryRequest::paths(0, 1).max_hops(4).collect_paths(true))
                            .unwrap();
                        assert_eq!(response.paths, warm.paths);
                        assert_eq!(response.report.cache, CacheOutcome::Hit);
                        assert_eq!(response.report.timings.index_build, Duration::ZERO);
                    }
                });
            }
        });
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    }

    #[test]
    fn worker_panics_resolve_the_ticket_and_spare_the_pool() {
        let graph = Arc::new(erdos_renyi(30, 150, 1));
        let service = service_over(&graph, 1);
        let panicking: QueryRequest<'static> = QueryRequest::paths(0, 1)
            .max_hops(4)
            .predicate(|_, _| panic!("hostile constraint closure"));
        let err = service
            .execute_batch(vec![panicking])
            .remove(0)
            .unwrap_err();
        assert_eq!(err, PathEnumError::EvaluationPanicked);
        // The (only) worker survived the panic and keeps serving.
        let response = service
            .execute_batch(vec![QueryRequest::paths(0, 1).max_hops(4)])
            .remove(0)
            .unwrap();
        assert_eq!(response.termination, Termination::Completed);
    }

    fn caching_service_over(graph: &Arc<CsrGraph>, workers: usize) -> PathEnumService {
        PathEnumService::with_config(
            Arc::clone(graph),
            PathEnumConfig::default(),
            ServiceConfig {
                workers,
                result_cache_bytes: 4 * 1024 * 1024,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn result_layer_serves_repeats_without_reenumeration() {
        let graph = Arc::new(erdos_renyi(60, 380, 29));
        let service = caching_service_over(&graph, 4);
        let request = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
        let cold = service.execute(&request).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let warm = service.execute(&request).unwrap();
                        assert_eq!(warm.report.cache, CacheOutcome::ResultHit);
                        assert_eq!(warm.paths, cold.paths);
                        assert_eq!(warm.report.timings.index_build, Duration::ZERO);
                    }
                });
            }
        });
        let stats = service.result_cache_stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        assert_eq!(service.result_cache_len(), 1);
        // A result hit never consults the plan cache.
        assert_eq!(service.cache_stats().lookups, 1);
    }

    #[test]
    fn result_layer_stays_off_by_default() {
        let graph = Arc::new(erdos_renyi(40, 220, 29));
        let service = service_over(&graph, 2);
        let request = QueryRequest::paths(0, 1).max_hops(4).collect_paths(true);
        service.execute(&request).unwrap();
        let warm = service.execute(&request).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        let stats = service.result_cache_stats();
        assert_eq!(stats.lookups, 0);
        assert_eq!(service.result_cache_len(), 0);
    }

    #[test]
    fn grouped_batches_match_solo_execution_byte_for_byte() {
        let graph = Arc::new(erdos_renyi(60, 380, 31));
        // A skewed batch: three shapes, 24 requests, plus one uncacheable
        // (predicate without a fingerprint) straggler per shape.
        let targets: Vec<u32> = (0..24).map(|i| 1 + (i % 3)).collect();
        let build_batch = || -> Vec<QueryRequest<'static>> {
            let mut batch: Vec<QueryRequest<'static>> = targets
                .iter()
                .map(|&t| QueryRequest::paths(0, t).max_hops(4).collect_paths(true))
                .collect();
            for t in 1..=3 {
                batch.push(
                    QueryRequest::paths(0, t)
                        .max_hops(4)
                        .collect_paths(true)
                        .predicate(|_, _| true),
                );
            }
            batch
        };
        let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
        let solo: Vec<_> = build_batch()
            .iter()
            .map(|request| engine.execute(request).unwrap())
            .collect();
        for workers in [1, 2, 4, 8] {
            let service = caching_service_over(&graph, workers);
            let responses = service.execute_batch(build_batch());
            assert_eq!(responses.len(), solo.len());
            for (i, (response, expected)) in responses.iter().zip(&solo).enumerate() {
                let response = response.as_ref().unwrap();
                assert_eq!(response.paths, expected.paths, "workers={workers} i={i}");
                assert_eq!(response.termination, expected.termination);
            }
            let stats = service.result_cache_stats();
            // 24 cacheable requests over 3 shapes: 3 misses, 21 hits; the
            // 3 predicate stragglers bypass the result layer.
            assert_eq!(stats.lookups, 27);
            assert_eq!(stats.misses, 3, "workers={workers}");
            assert_eq!(stats.hits, 21, "workers={workers}");
            assert_eq!(stats.bypasses, 3, "workers={workers}");
            assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        }
    }

    #[test]
    fn grouped_batches_build_each_shared_index_once() {
        let graph = Arc::new(erdos_renyi(60, 380, 37));
        let service = caching_service_over(&graph, 4);
        let requests: Vec<QueryRequest<'static>> = (0..24)
            .map(|i| {
                QueryRequest::paths(0, 1 + (i % 3))
                    .max_hops(4)
                    .collect_paths(true)
            })
            .collect();
        let responses = service.execute_batch(requests);
        // One boundary BFS + one index build per shape: each group's
        // first member misses, every other member replays the result.
        let cold = responses
            .iter()
            .filter(|r| r.as_ref().unwrap().report.cache == CacheOutcome::Miss)
            .count();
        let replayed = responses
            .iter()
            .filter(|r| r.as_ref().unwrap().report.cache == CacheOutcome::ResultHit)
            .count();
        assert_eq!(cold, 3);
        assert_eq!(replayed, 21);
        assert_eq!(service.cache_stats().misses, 3, "three index builds");
    }

    #[test]
    fn dropping_the_service_resolves_outstanding_tickets() {
        let graph = Arc::new(complete_digraph(8));
        let service = service_over(&graph, 1);
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| service.submit(QueryRequest::paths(0, 7).max_hops(4).limit(50)))
            .collect();
        drop(service);
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            assert_eq!(response.num_results(), 50);
        }
    }
}
