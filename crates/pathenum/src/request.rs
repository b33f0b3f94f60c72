//! The service-grade request/response layer.
//!
//! The paper's motivating workloads — streaming fraud detection, online
//! risk scoring — are request/response services with latency budgets, not
//! batch jobs. This module is the front door for that shape of caller:
//!
//! * [`QueryRequest`] — a builder capturing *what* to enumerate (`s`, `t`,
//!   `max_hops`) and *how far to go* (`limit`, `time_budget`,
//!   [`CancelToken`]), plus the Appendix E constraint extensions
//!   (edge [`predicate`](QueryRequest::predicate),
//!   [`accumulative`](QueryRequest::accumulative) values,
//!   action-sequence [`automaton`](QueryRequest::automaton)) as
//!   first-class request options;
//! * [`PathEnumError`] — the single error enum every entry point returns,
//!   absorbing [`QueryError`] plus graph-validation and constraint-config
//!   errors;
//! * [`QueryResponse`] — the plan the request ran, the [`RunReport`] of
//!   what it measured, and an explicit [`Termination`] reason, so an
//!   early cut-off is *reported*, never silent;
//! * [`PathStream`] — a pull-based iterator over results for callers
//!   that want paths lazily without writing a [`PathSink`]: the IDX-DFS
//!   kernel of [`crate::enumerate::dfs_iterative`], resumed once per
//!   pull on a search state the stream owns;
//! * [`ControlledSink`] — the request's stopping rules as a sink, the one
//!   both `execute` and [`PathStream`] enforce them with.
//!
//! A constraint has one acceptance check for complete paths
//! (`ConstraintSpec::accepts`): the post-filter of constrained IDX-JOIN
//! and of [`PathStream`]. Algorithms 7 and 8 apply the same rule during
//! their search, on the same kernel.
//!
//! Evaluate a request with
//! [`QueryEngine::execute`](crate::QueryEngine::execute),
//! [`QueryEngine::execute_into`](crate::QueryEngine::execute_into), or
//! [`QueryEngine::stream`](crate::QueryEngine::stream)
//! (see [`crate::engine`]).
//!
//! ```
//! use pathenum::{PathEnumConfig, QueryEngine, QueryRequest, Termination};
//! use pathenum_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]).unwrap();
//! let graph = b.finish();
//! let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
//!
//! let request = QueryRequest::paths(0, 3).max_hops(3).limit(2).collect_paths(true);
//! let response = engine.execute(&request).unwrap();
//! assert_eq!(response.termination, Termination::LimitReached);
//! assert_eq!(response.paths.len(), 2);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathenum_graph::VertexId;

use crate::constraints::automaton::{Automaton, LabelId};
use crate::constraints::{AccumulativeQuery, FilterSink};
use crate::enumerate::dfs_iterative::{idx_dfs_resume, DfsScratch};
use crate::index::Index;
use crate::query::{Query, QueryError};
use crate::sink::{PathSink, SearchControl};
use crate::stats::{Counters, Method, RunReport};

/// Unified error type of the request/response API.
///
/// Absorbs every way a request can be malformed: the graph-independent
/// invariants of [`QueryError`], endpoint validation against the serving
/// graph, and constraint-configuration mistakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEnumError {
    /// `s == t`; the problem requires distinct endpoints.
    EqualEndpoints,
    /// `max_hops < 2` (or never set on the builder).
    HopConstraintTooSmall(u32),
    /// `max_hops` exceeds [`crate::query::MAX_HOPS`].
    HopConstraintTooLarge(u32),
    /// An endpoint is not a vertex of the serving graph.
    VertexOutOfRange(VertexId),
    /// More than one constraint was set on the request; predicate,
    /// accumulative, and automaton constraints are mutually exclusive.
    ConflictingConstraints {
        /// The constraint that was already present.
        first: &'static str,
        /// The constraint whose setter detected the conflict.
        second: &'static str,
    },
    /// The evaluation panicked mid-query (a user-supplied constraint
    /// closure, or a bug). Only returned by the
    /// [`catalog`](crate::catalog), which isolates the panic — whether
    /// planning hit it at submit or a pool worker did — so the worker
    /// survives and every issued
    /// [`CatalogTicket`](crate::catalog::CatalogTicket) still resolves;
    /// engine callers observe the panic itself.
    EvaluationPanicked,
    /// The request named a graph the serving
    /// [`GraphCatalog`](crate::catalog::GraphCatalog) does not hold
    /// (never registered, or removed).
    GraphNotFound,
    /// The service shed this request instead of queuing it: admitting
    /// it would have pushed the in-flight modeled cost over the
    /// [`admission`](crate::admission) budget, or the tenant's bounded
    /// queue is full. The request was **not** evaluated; `retry_hint`
    /// is a coarse, advisory backoff before resubmitting.
    Overloaded {
        /// Suggested client backoff (advisory, derived from current
        /// queue pressure — not a reservation).
        retry_hint: Duration,
    },
}

impl std::fmt::Display for PathEnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathEnumError::EqualEndpoints => write!(f, "source and target must be distinct"),
            PathEnumError::HopConstraintTooSmall(k) => {
                write!(f, "hop constraint {k} < 2 (did you call max_hops?)")
            }
            PathEnumError::HopConstraintTooLarge(k) => {
                write!(
                    f,
                    "hop constraint {k} exceeds MAX_HOPS = {}",
                    crate::query::MAX_HOPS
                )
            }
            PathEnumError::VertexOutOfRange(v) => write!(f, "vertex {v} not in graph"),
            PathEnumError::ConflictingConstraints { first, second } => {
                write!(
                    f,
                    "request already has a {first} constraint; cannot also set {second}"
                )
            }
            PathEnumError::EvaluationPanicked => {
                write!(f, "evaluation panicked mid-query; no result was produced")
            }
            PathEnumError::GraphNotFound => {
                write!(f, "the named graph is not registered in the catalog")
            }
            PathEnumError::Overloaded { retry_hint } => {
                write!(
                    f,
                    "request shed by admission control (overloaded); retry in ~{:?}",
                    retry_hint
                )
            }
        }
    }
}

impl std::error::Error for PathEnumError {}

impl From<QueryError> for PathEnumError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::EqualEndpoints => PathEnumError::EqualEndpoints,
            QueryError::HopConstraintTooSmall(k) => PathEnumError::HopConstraintTooSmall(k),
            QueryError::HopConstraintTooLarge(k) => PathEnumError::HopConstraintTooLarge(k),
            QueryError::VertexOutOfRange(v) => PathEnumError::VertexOutOfRange(v),
        }
    }
}

/// Why an evaluation stopped producing results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The search space was exhausted: every result was produced.
    Completed,
    /// The request's [`limit`](QueryRequest::limit) was reached.
    LimitReached,
    /// The request's [`time_budget`](QueryRequest::time_budget) expired.
    DeadlineExceeded,
    /// The request's [`CancelToken`] was triggered.
    Cancelled,
}

impl Termination {
    /// Whether the result set may be incomplete.
    pub fn is_early(&self) -> bool {
        !matches!(self, Termination::Completed)
    }
}

/// Shared cancellation flag for cooperative early termination.
///
/// Clone the token, hand one copy to the request via
/// [`QueryRequest::cancel_token`], keep the other, and call
/// [`cancel`](CancelToken::cancel) from any thread; the evaluation
/// observes the flag at every emission, at every probe the search makes
/// between emissions, and at every [`PathStream`] pull, and stops with
/// [`Termination::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Object-safe facade over [`AccumulativeQuery`], letting the request
/// hold the constraint without propagating its three type parameters.
pub(crate) trait DynAccumulative {
    /// Algorithm 7 on `index`, streaming accepted paths into `sink`.
    fn dfs(&self, index: &Index, sink: &mut dyn PathSink, counters: &mut Counters)
        -> SearchControl;

    /// Whether a complete path's accumulated value passes the check.
    fn accepts(&self, path: &[VertexId]) -> bool;
}

impl<V, W, C> DynAccumulative for AccumulativeQuery<V, W, C>
where
    V: Copy,
    W: Fn(VertexId, VertexId) -> V,
    C: Fn(&V) -> bool,
{
    fn dfs(
        &self,
        index: &Index,
        sink: &mut dyn PathSink,
        counters: &mut Counters,
    ) -> SearchControl {
        crate::constraints::accumulative_dfs(index, self, sink, counters)
    }

    fn accepts(&self, path: &[VertexId]) -> bool {
        AccumulativeQuery::accepts(self, path)
    }
}

/// The constraint attached to a request, if any.
///
/// Constraint closures are `Send + Sync` so a whole [`QueryRequest`] can
/// cross (and be shared across) threads — the contract the concurrent
/// [`catalog`](crate::catalog) layer is built on.
pub(crate) enum ConstraintSpec<'a> {
    /// Plain HcPE.
    None,
    /// Every edge must satisfy the predicate (Appendix E).
    Predicate(Box<dyn Fn(VertexId, VertexId) -> bool + Send + Sync + 'a>),
    /// An accumulated edge value must pass a final check (Algorithm 7).
    Accumulative(Box<dyn DynAccumulative + Send + Sync + 'a>),
    /// The edge-label sequence must be accepted by a DFA (Algorithm 8).
    Automaton {
        automaton: Automaton,
        label_of: Box<dyn Fn(VertexId, VertexId) -> LabelId + Send + Sync + 'a>,
    },
}

impl ConstraintSpec<'_> {
    fn name(&self) -> &'static str {
        match self {
            ConstraintSpec::None => "none",
            ConstraintSpec::Predicate(_) => "predicate",
            ConstraintSpec::Accumulative(_) => "accumulative",
            ConstraintSpec::Automaton { .. } => "automaton",
        }
    }

    /// The constraint *strategy* (shape without the closures), recorded
    /// in [`PhysicalPlan`](crate::plan::PhysicalPlan).
    pub(crate) fn kind(&self) -> crate::plan::ConstraintKind {
        match self {
            ConstraintSpec::None => crate::plan::ConstraintKind::None,
            ConstraintSpec::Predicate(_) => crate::plan::ConstraintKind::Predicate,
            ConstraintSpec::Accumulative(_) => crate::plan::ConstraintKind::Accumulative,
            ConstraintSpec::Automaton { .. } => crate::plan::ConstraintKind::Automaton,
        }
    }

    /// Whether a complete path satisfies the constraint. True for none
    /// and for predicates, whose requests already enumerate the index of
    /// the filtered graph; the accumulative fold and the automaton run
    /// are checked over the path's edges. Post-filters IDX-JOIN output
    /// and [`PathStream`] output by the same rule Algorithms 7 and 8
    /// apply during their search.
    pub(crate) fn accepts(&self, path: &[VertexId]) -> bool {
        match self {
            ConstraintSpec::None | ConstraintSpec::Predicate(_) => true,
            ConstraintSpec::Accumulative(acc) => acc.accepts(path),
            ConstraintSpec::Automaton {
                automaton,
                label_of,
            } => automaton.accepts_sequence(path.windows(2).map(|w| label_of(w[0], w[1]))),
        }
    }

    /// The cache `(namespace, fingerprint)` of this constraint, or
    /// `None` when the request is not cacheable.
    ///
    /// Plain, accumulative, and automaton requests share one entry
    /// (namespace 0, fingerprint 0): all three plan on (and enumerate)
    /// the *same* unfiltered index — the constraint closures only
    /// filter/prune at execution time, so the cached plan + index are
    /// interchangeable. A predicate changes which index is built, and
    /// closures cannot be compared, so predicate requests are cacheable
    /// only when the caller vouches for predicate identity via
    /// [`QueryRequest::constraint_fingerprint`]; the tag lives in its
    /// own namespace so the full 64-bit tag space never aliases the
    /// shared entry (or other tags).
    pub(crate) fn fingerprint(&self, user_tag: Option<u64>) -> Option<(u8, u64)> {
        match self {
            ConstraintSpec::None
            | ConstraintSpec::Accumulative(_)
            | ConstraintSpec::Automaton { .. } => Some((0, 0)),
            ConstraintSpec::Predicate(_) => user_tag.map(|tag| (1, tag)),
        }
    }
}

/// A hop-constrained s-t path enumeration request.
///
/// Build with [`QueryRequest::paths`] and chain the options; evaluate
/// with [`QueryEngine::execute`](crate::QueryEngine::execute) (counts,
/// optionally collected paths), `execute_into` (stream into your own
/// sink), or [`QueryEngine::stream`](crate::QueryEngine::stream) (pull
/// paths lazily).
///
/// The lifetime `'a` bounds the constraint closures; requests built from
/// plain functions or capture-free closures are `QueryRequest<'static>`.
pub struct QueryRequest<'a> {
    pub(crate) s: VertexId,
    pub(crate) t: VertexId,
    pub(crate) k: u32,
    pub(crate) limit: Option<u64>,
    pub(crate) time_budget: Option<Duration>,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) method: Option<Method>,
    pub(crate) collect: bool,
    pub(crate) explain: bool,
    pub(crate) bypass_cache: bool,
    pub(crate) bypass_result_cache: bool,
    pub(crate) fingerprint: Option<u64>,
    pub(crate) constraint: ConstraintSpec<'a>,
    /// Set when a second constraint setter ran; surfaced at validation.
    pub(crate) conflict: Option<(&'static str, &'static str)>,
}

impl std::fmt::Debug for QueryRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("s", &self.s)
            .field("t", &self.t)
            .field("max_hops", &self.k)
            .field("limit", &self.limit)
            .field("time_budget", &self.time_budget)
            .field("cancellable", &self.cancel.is_some())
            .field("method", &self.method)
            .field("constraint", &self.constraint.name())
            .finish()
    }
}

impl<'a> QueryRequest<'a> {
    /// Starts a request for simple paths from `s` to `t`.
    ///
    /// Call [`max_hops`](Self::max_hops) before evaluating; a request
    /// without a hop constraint fails validation with
    /// [`PathEnumError::HopConstraintTooSmall`].
    pub fn paths(s: VertexId, t: VertexId) -> Self {
        QueryRequest {
            s,
            t,
            k: 0,
            limit: None,
            time_budget: None,
            cancel: None,
            method: None,
            collect: false,
            explain: false,
            bypass_cache: false,
            bypass_result_cache: false,
            fingerprint: None,
            constraint: ConstraintSpec::None,
            conflict: None,
        }
    }

    /// Promotes an existing [`Query`] into a request.
    pub fn from_query(query: Query) -> Self {
        QueryRequest::paths(query.s, query.t).max_hops(query.k)
    }

    /// Sets the hop constraint `k`: paths may use at most `k` edges.
    pub fn max_hops(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Stops after `n` results with [`Termination::LimitReached`] — the
    /// request-level form of the paper's first-1000 response metric.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Stops with [`Termination::DeadlineExceeded`] once `budget` of
    /// wall-clock time has elapsed. Checked cooperatively: at every
    /// emission and, via [`PathSink::probe`], periodically while the
    /// search traverses barren regions that emit nothing — so the
    /// overrun is bounded by a few hundred search steps, not by the
    /// gap between results.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attaches a cancellation token; see [`CancelToken`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Forces an enumeration method, bypassing the cost-based optimizer
    /// (the paper's IDX-DFS and IDX-JOIN table rows, ablations and
    /// tests; production callers should let the optimizer decide). This
    /// is the only way to force one.
    pub fn method(mut self, method: Method) -> Self {
        self.method = Some(method);
        self
    }

    /// Plan only, never enumerate: the evaluation stops after the
    /// planner ran, returning the [`PhysicalPlan`](crate::plan::PhysicalPlan)
    /// (with modeled costs, estimates, and index sizes) in
    /// [`QueryResponse::plan`] with zero results — the `EXPLAIN` of this
    /// engine. The plan is cached, so a following `execute` of the same
    /// request runs warm. [`QueryEngine::explain`](crate::QueryEngine::explain)
    /// is the direct form. [`QueryEngine::stream`](crate::QueryEngine::stream)
    /// of such a request yields no path and ends
    /// [`Completed`](Termination::Completed), without planning.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// Opts this request out of the engine's
    /// [`PlanCache`](crate::plan::PlanCache): the plan is recomputed and
    /// the built index is not stored. For cold-path measurements and
    /// one-off queries that should not displace hot entries.
    pub fn bypass_cache(mut self) -> Self {
        self.bypass_cache = true;
        self
    }

    /// Opts this request out of the *result* cache only (see
    /// [`ResultCache`](crate::results::ResultCache)): stored result sets
    /// are neither consulted nor populated, while the plan/index cache
    /// keeps working normally. For callers that want warm planning but
    /// always-fresh enumeration — e.g. probing for result-set changes.
    /// [`bypass_cache`](Self::bypass_cache) is stronger: it opts out of
    /// both layers.
    pub fn bypass_result_cache(mut self) -> Self {
        self.bypass_result_cache = true;
        self
    }

    /// Declares a stable identity for this request's
    /// [`predicate`](Self::predicate), making it plan-cacheable.
    ///
    /// Closures cannot be compared, so predicate requests are only
    /// cached when the caller vouches that every request carrying the
    /// same tag uses a semantically identical predicate (e.g. hash the
    /// predicate's parameters). Two *different* predicates under one tag
    /// will reuse each other's filtered index and return wrong results —
    /// the same contract as any user-keyed cache. Accumulative and
    /// automaton requests need no tag (their plans and indices are
    /// constraint-independent), and unconstrained requests ignore it.
    pub fn constraint_fingerprint(mut self, tag: u64) -> Self {
        self.fingerprint = Some(tag);
        self
    }

    /// Also materialize result paths into
    /// [`QueryResponse::paths`]. Off by default: counting workloads
    /// should not pay for path copies. Combine with
    /// [`limit`](Self::limit) to bound the response size, or use
    /// [`QueryEngine::stream`](crate::QueryEngine::stream) to consume
    /// lazily.
    pub fn collect_paths(mut self, collect: bool) -> Self {
        self.collect = collect;
        self
    }

    /// Restricts results to paths whose every edge satisfies
    /// `predicate` (Appendix E). Mutually exclusive with the other
    /// constraints.
    pub fn predicate<F>(mut self, predicate: F) -> Self
    where
        F: Fn(VertexId, VertexId) -> bool + Send + Sync + 'a,
    {
        self.record_constraint("predicate");
        self.constraint = ConstraintSpec::Predicate(Box::new(predicate));
        self
    }

    /// Restricts results to paths whose accumulated edge value passes
    /// the query's check (Algorithm 7). Mutually exclusive with the
    /// other constraints.
    pub fn accumulative<V, W, C>(mut self, query: AccumulativeQuery<V, W, C>) -> Self
    where
        V: Copy + Send + Sync + 'a,
        W: Fn(VertexId, VertexId) -> V + Send + Sync + 'a,
        C: Fn(&V) -> bool + Send + Sync + 'a,
    {
        self.record_constraint("accumulative");
        self.constraint = ConstraintSpec::Accumulative(Box::new(query));
        self
    }

    /// Restricts results to paths whose edge-label sequence the
    /// automaton accepts (Algorithm 8). Mutually exclusive with the
    /// other constraints.
    pub fn automaton<L>(mut self, automaton: Automaton, label_of: L) -> Self
    where
        L: Fn(VertexId, VertexId) -> LabelId + Send + Sync + 'a,
    {
        self.record_constraint("automaton");
        self.constraint = ConstraintSpec::Automaton {
            automaton,
            label_of: Box::new(label_of),
        };
        self
    }

    fn record_constraint(&mut self, incoming: &'static str) {
        if !matches!(self.constraint, ConstraintSpec::None) && self.conflict.is_none() {
            self.conflict = Some((self.constraint.name(), incoming));
        }
    }

    /// Validates the request against a graph of `num_vertices` vertices,
    /// producing the core [`Query`].
    pub fn validate(&self, num_vertices: usize) -> Result<Query, PathEnumError> {
        if let Some((first, second)) = self.conflict {
            return Err(PathEnumError::ConflictingConstraints { first, second });
        }
        let query = Query::new(self.s, self.t, self.k)?;
        query.validate(num_vertices)?;
        Ok(query)
    }
}

/// The response to an executed [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// What the run measured: phase timings, counters and the cache
    /// outcome. What it decided is [`plan`](Self::plan).
    pub report: RunReport,
    /// Why result production stopped.
    pub termination: Termination,
    /// Result paths, populated only when the request asked for
    /// [`collect_paths`](QueryRequest::collect_paths).
    pub paths: Vec<Vec<VertexId>>,
    /// The physical plan the engine executed (or, for an
    /// [`explain`](QueryRequest::explain) request, would have executed).
    /// `None` when a pre-flight stopping rule fired before planning, or
    /// when the result layer answered: a result hit plans nothing, and
    /// its [`report`](Self::report) reads
    /// [`ResultHit`](crate::plan::CacheOutcome::ResultHit).
    pub plan: Option<crate::plan::PhysicalPlan>,
}

impl QueryResponse {
    /// Number of results produced (whether or not paths were collected).
    pub fn num_results(&self) -> u64 {
        self.report.counters.results
    }

    pub(crate) fn empty(termination: Termination) -> Self {
        QueryResponse {
            report: RunReport {
                // Pre-flight stops never consult the cache; the response
                // says so instead of masquerading as a bypass.
                cache: crate::plan::CacheOutcome::Skipped,
                ..RunReport::default()
            },
            termination,
            paths: Vec::new(),
            plan: None,
        }
    }
}

/// A [`PathSink`] adapter enforcing the request-level stopping rules —
/// result limit, deadline, cancellation — around an inner sink, and
/// recording which rule fired.
///
/// This is the mechanism behind [`QueryRequest::limit`] /
/// [`QueryRequest::time_budget`] / [`CancelToken`].
///
/// It counts only when it has no limit and its inner sink counts only:
/// a limit is exact per path, so a limited request stays per path.
/// [`emit_count`](PathSink::emit_count) observes cancellation on every
/// call and the deadline once per `DEADLINE_CHECK_INTERVAL` emissions
/// it crosses — the checks `n` calls to `emit` would make, made once —
/// and adds the count to [`emitted`](Self::emitted) when it lets it
/// through.
#[derive(Debug)]
pub struct ControlledSink<S> {
    inner: S,
    limit: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    emitted: u64,
    probes: u64,
    stopped: Option<Termination>,
}

/// How many emissions pass between deadline checks at `emit`, and how
/// many probes pass between cancellation/deadline checks at `probe`.
const DEADLINE_CHECK_INTERVAL: u64 = 64;

impl<S: PathSink> ControlledSink<S> {
    /// Wraps `inner` with the given stopping rules (each optional).
    pub fn new(
        inner: S,
        limit: Option<u64>,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
    ) -> Self {
        ControlledSink {
            inner,
            limit,
            deadline,
            cancel,
            emitted: 0,
            probes: 0,
            // A zero limit is met before the first path: forward none.
            stopped: (limit == Some(0)).then_some(Termination::LimitReached),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the adapter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Results forwarded to the inner sink so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Why this sink stopped the search, or [`Termination::Completed`]
    /// if it never did (including when the *inner* sink stopped it).
    pub fn termination(&self) -> Termination {
        self.stopped.unwrap_or(Termination::Completed)
    }

    /// Whether a stopping rule has fired, recording the first that does:
    /// the limit (recorded where it is reached), cancellation, and — when
    /// `check_deadline` — the deadline.
    #[inline]
    fn rule_fired(&mut self, check_deadline: bool) -> bool {
        if self.stopped.is_some() {
            return true;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.stopped = Some(Termination::Cancelled);
            return true;
        }
        if check_deadline && self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stopped = Some(Termination::DeadlineExceeded);
            return true;
        }
        false
    }
}

impl<S: PathSink> PathSink for ControlledSink<S> {
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        if self.rule_fired(self.emitted.is_multiple_of(DEADLINE_CHECK_INTERVAL)) {
            return SearchControl::Stop;
        }
        let control = self.inner.emit(path);
        self.emitted += 1;
        if self.limit.is_some_and(|l| self.emitted >= l) {
            self.stopped = Some(Termination::LimitReached);
            return SearchControl::Stop;
        }
        control
    }

    /// Enumerators call this periodically (every
    /// [`PROBE_STRIDE`](crate::enumerate) search-tree nodes), so
    /// cancellation and the deadline are observed even while the search
    /// traverses a barren region that emits nothing.
    fn probe(&mut self) -> SearchControl {
        if self.rule_fired(self.probes.is_multiple_of(DEADLINE_CHECK_INTERVAL)) {
            return SearchControl::Stop;
        }
        self.probes += 1;
        self.inner.probe()
    }

    fn counts_only(&self) -> bool {
        self.limit.is_none() && self.inner.counts_only()
    }

    fn emit_count(&mut self, n: u64) -> SearchControl {
        // `emit` checks the deadline at every multiple of the interval;
        // `n` emissions from `emitted` on reach one iff the last of them
        // is at or past the next multiple.
        let crossed = self.emitted.next_multiple_of(DEADLINE_CHECK_INTERVAL) < self.emitted + n;
        if self.rule_fired(crossed) {
            return SearchControl::Stop;
        }
        self.emitted += n;
        self.inner.emit_count(n)
    }
}

/// The innermost sink of a [`PathStream`]: keeps the one path a pull
/// resumes the kernel for, and pauses the search on it.
#[derive(Debug, Default)]
struct NextPath(Vec<VertexId>);

impl PathSink for NextPath {
    fn emit(&mut self, path: &[VertexId]) -> SearchControl {
        self.0.clear();
        self.0.extend_from_slice(path);
        SearchControl::Stop
    }
}

/// A pull-based iterator over the results of a [`QueryRequest`],
/// produced by [`QueryEngine::stream`](crate::QueryEngine::stream).
///
/// The stream runs the crate's IDX-DFS kernel
/// ([`crate::enumerate::dfs_iterative`]) on a search state of its own,
/// resuming it once per pulled path, so the search advances only while
/// the caller pulls: a service can interleave result delivery with other
/// work — other queries on the same thread included — and abandon the
/// stream at any point without wasted enumeration. Paths come in the
/// order [`execute`](crate::QueryEngine::execute) returns for the
/// request under IDX-DFS. The request's `limit`, `time_budget`, and
/// `CancelToken` are honored by the [`ControlledSink`] `execute` uses,
/// with the deadline counted from before planning, as `execute` counts
/// it; [`termination`](PathStream::termination) reports how the stream
/// ended. The stream holds the index the plan cache holds: two streams
/// of one warm request share it.
///
/// ```
/// use pathenum::{PathEnumConfig, QueryEngine, QueryRequest, Termination};
/// use pathenum_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]).unwrap();
/// let graph = b.finish();
/// let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
///
/// let request = QueryRequest::paths(0, 3).max_hops(3);
/// let mut stream = engine.stream(&request).unwrap();
/// let first = stream.next().unwrap();
/// assert_eq!(first.first(), Some(&0));
/// assert_eq!(first.last(), Some(&3));
/// assert_eq!(stream.by_ref().count(), 2); // two more paths
/// assert_eq!(stream.termination(), Some(Termination::Completed));
/// ```
pub struct PathStream<'q> {
    index: Arc<Index>,
    constraint: &'q ConstraintSpec<'q>,
    control: ControlledSink<NextPath>,
    /// The paused search, owned: never the per-thread arena, which the
    /// next query on this thread reuses.
    scratch: DfsScratch,
    counters: Counters,
    termination: Option<Termination>,
}

impl<'q> PathStream<'q> {
    /// A stream over `index` under the request's rules, with
    /// `deadline` the instant its `time_budget` runs out.
    pub(crate) fn new(
        index: Arc<Index>,
        request: &'q QueryRequest<'_>,
        deadline: Option<Instant>,
    ) -> Self {
        let mut scratch = DfsScratch::default();
        let mut counters = Counters::default();
        scratch.seed(&index, &mut index.rows(), &(), &mut counters);
        PathStream {
            constraint: &request.constraint,
            control: ControlledSink::new(
                NextPath::default(),
                request.limit,
                deadline,
                request.cancel.clone(),
            ),
            index,
            scratch,
            counters,
            termination: None,
        }
    }

    /// A stream over `index` that has already ended
    /// [`Completed`](Termination::Completed): it yields nothing.
    pub(crate) fn completed(index: Arc<Index>, request: &'q QueryRequest<'_>) -> Self {
        PathStream {
            termination: Some(Termination::Completed),
            ..PathStream::new(index, request, None)
        }
    }

    /// Results yielded so far.
    pub fn emitted(&self) -> u64 {
        self.control.emitted()
    }

    /// How the stream ended; `None` while results may still come.
    pub fn termination(&self) -> Option<Termination> {
        self.termination
    }

    /// The light-weight index the stream enumerates.
    pub fn index(&self) -> &Index {
        &self.index
    }
}

impl Iterator for PathStream<'_> {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Vec<VertexId>> {
        if self.termination.is_some() {
            return None;
        }
        // Every pull observes cancellation and the deadline before the
        // search resumes; a saturated (or zero) limit stops it too,
        // matching `execute`'s pre-flight semantics.
        if self.control.rule_fired(true) {
            self.termination = self.control.stopped;
            return None;
        }
        let emitted = self.control.emitted();
        // Rejected paths never reach the limit's count.
        let constraint = self.constraint;
        let mut accepted = FilterSink::new(
            |path: &[VertexId]| constraint.accepts(path),
            &mut self.control,
        );
        let control = idx_dfs_resume(
            &self.index,
            &mut self.index.rows(),
            &(),
            &mut self.scratch,
            &mut accepted,
            &mut self.counters,
        );
        // Exhausted, or paused on a path (and perhaps at the limit), or
        // stopped by a rule.
        self.termination = match control {
            SearchControl::Continue => Some(Termination::Completed),
            SearchControl::Stop => self.control.stopped,
        };
        (self.control.emitted() > emitted).then(|| self.control.inner().0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::sink::{CollectingSink, CountingSink};

    #[test]
    fn builder_records_every_option() {
        let token = CancelToken::new();
        let req = QueryRequest::paths(0, 1)
            .max_hops(4)
            .limit(10)
            .time_budget(Duration::from_millis(50))
            .cancel_token(token.clone())
            .method(Method::IdxJoin)
            .collect_paths(true);
        assert_eq!(req.s, 0);
        assert_eq!(req.t, 1);
        assert_eq!(req.k, 4);
        assert_eq!(req.limit, Some(10));
        assert_eq!(req.time_budget, Some(Duration::from_millis(50)));
        assert_eq!(req.method, Some(Method::IdxJoin));
        assert!(req.collect);
        assert!(req.validate(10).is_ok());
    }

    #[test]
    fn validation_absorbs_query_errors() {
        assert_eq!(
            QueryRequest::paths(3, 3).max_hops(4).validate(10),
            Err(PathEnumError::EqualEndpoints)
        );
        assert_eq!(
            QueryRequest::paths(0, 1).validate(10),
            Err(PathEnumError::HopConstraintTooSmall(0)),
            "max_hops never set"
        );
        assert_eq!(
            QueryRequest::paths(0, 1).max_hops(99).validate(10),
            Err(PathEnumError::HopConstraintTooLarge(99))
        );
        assert_eq!(
            QueryRequest::paths(0, 42).max_hops(4).validate(10),
            Err(PathEnumError::VertexOutOfRange(42))
        );
    }

    #[test]
    fn conflicting_constraints_are_rejected() {
        let req = QueryRequest::paths(0, 1)
            .max_hops(4)
            .predicate(|_, _| true)
            .automaton(Automaton::new(1, 1, 0).unwrap(), |_, _| 0);
        assert_eq!(
            req.validate(10),
            Err(PathEnumError::ConflictingConstraints {
                first: "predicate",
                second: "automaton"
            })
        );
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn controlled_sink_enforces_limit_and_reports_it() {
        let mut sink = ControlledSink::new(CountingSink::default(), Some(3), None, None);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.emitted(), 3);
        assert_eq!(sink.termination(), Termination::LimitReached);
        // Saturated: further emissions are refused without forwarding.
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.into_inner().count, 3);

        // A zero limit starts stopped: the inner sink never sees a path.
        let mut sink = ControlledSink::new(CountingSink::default(), Some(0), None, None);
        assert_eq!(sink.termination(), Termination::LimitReached);
        assert_eq!(sink.probe(), SearchControl::Stop);
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.emitted(), 0);
        assert_eq!(sink.into_inner().count, 0);
    }

    #[test]
    fn controlled_sink_observes_cancellation() {
        let token = CancelToken::new();
        let mut sink =
            ControlledSink::new(CollectingSink::default(), None, None, Some(token.clone()));
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
        token.cancel();
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.termination(), Termination::Cancelled);
        assert_eq!(
            sink.inner().paths.len(),
            1,
            "cancelled emission is not forwarded"
        );
    }

    #[test]
    fn controlled_sink_observes_deadline() {
        let mut sink = ControlledSink::new(
            CountingSink::default(),
            None,
            Some(Instant::now() - Duration::from_millis(1)),
            None,
        );
        assert_eq!(sink.emit(&[0, 1]), SearchControl::Stop);
        assert_eq!(sink.termination(), Termination::DeadlineExceeded);
        assert_eq!(sink.emitted(), 0);
    }

    #[test]
    fn controlled_sink_counts_in_bulk_only_without_a_limit() {
        assert!(!ControlledSink::new(CountingSink::default(), Some(5), None, None).counts_only());
        assert!(!ControlledSink::new(CollectingSink::default(), None, None, None).counts_only());
        let mut sink = ControlledSink::new(CountingSink::default(), None, None, None);
        assert!(sink.counts_only());
        assert_eq!(sink.emit_count(100), SearchControl::Continue);
        assert_eq!(sink.emitted(), 100);
        assert_eq!(sink.into_inner().count, 100);

        // The deadline is read where `emit` would read it: at the counts
        // that reach a multiple of the interval, and only there. (The
        // first count must land inside the budget: it is generous.)
        let budget = Duration::from_millis(500);
        let mut sink = ControlledSink::new(
            CountingSink::default(),
            None,
            Some(Instant::now() + budget),
            None,
        );
        assert_eq!(sink.emit_count(1), SearchControl::Continue);
        std::thread::sleep(budget + Duration::from_millis(50));
        assert_eq!(sink.emit_count(62), SearchControl::Continue);
        assert_eq!(sink.emit_count(1), SearchControl::Continue);
        assert_eq!(sink.emitted(), 64);
        assert_eq!(sink.emit_count(1), SearchControl::Stop);
        assert_eq!(sink.termination(), Termination::DeadlineExceeded);
        assert_eq!(sink.emitted(), 64, "a refused count is not delivered");

        // Cancellation is read on every count.
        let token = CancelToken::new();
        let mut sink =
            ControlledSink::new(CountingSink::default(), None, None, Some(token.clone()));
        assert_eq!(sink.emit_count(3), SearchControl::Continue);
        token.cancel();
        assert_eq!(sink.emit_count(1), SearchControl::Stop);
        assert_eq!(sink.termination(), Termination::Cancelled);
        assert_eq!(sink.into_inner().count, 3);
    }

    #[test]
    fn controlled_sink_without_rules_is_transparent() {
        let mut sink = ControlledSink::new(CountingSink::default(), None, None, None);
        for _ in 0..1000 {
            assert_eq!(sink.emit(&[0, 1]), SearchControl::Continue);
            assert_eq!(sink.probe(), SearchControl::Continue);
        }
        assert_eq!(sink.termination(), Termination::Completed);
        assert_eq!(sink.emitted(), 1000);
    }

    #[test]
    fn probe_interrupts_barren_searches() {
        // A cancelled token stops the DFS at the very first search-tree
        // node — before any result is counted, let alone emitted.
        let g = figure1_graph();
        let index = Index::build(&g, crate::query::Query::new(S, T, 4).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let mut sink = ControlledSink::new(CountingSink::default(), None, None, Some(token));
        let mut counters = Counters::default();
        let control = crate::enumerate::idx_dfs(&index, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Stop);
        assert_eq!(counters.results, 0, "no result was ever counted");
        assert_eq!(sink.emitted(), 0);
        assert_eq!(sink.termination(), Termination::Cancelled);

        // The same holds during IDX-JOIN's silent materialization phase.
        let mut sink = ControlledSink::new(
            CountingSink::default(),
            None,
            Some(Instant::now() - Duration::from_millis(1)),
            None,
        );
        let mut counters = Counters::default();
        let control = crate::enumerate::idx_join(&index, 2, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Stop);
        assert_eq!(sink.emitted(), 0);
        assert_eq!(sink.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn stream_filter_accepts_by_accumulation() {
        let acc = AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight: |_, _| 1u64,
            check: |&v: &u64| v >= 3,
            prune: None,
        };
        assert!(acc.accepts(&[0, 1, 2, 3]));
        assert!(!acc.accepts(&[0, 1]));
    }

    #[test]
    fn path_stream_enumerates_figure1() {
        let g = figure1_graph();
        let req = QueryRequest::paths(S, T).max_hops(4);
        let query = req.validate(g.num_vertices()).unwrap();
        let index = Index::build(&g, query);
        let stream = PathStream::new(Arc::new(index), &req, None);
        let mut paths: Vec<Vec<VertexId>> = stream.collect();
        paths.sort_unstable();
        assert_eq!(paths.len(), 5);
        for p in &paths {
            assert_eq!(p[0], S);
            assert_eq!(*p.last().unwrap(), T);
        }
    }

    #[test]
    fn path_stream_respects_limit() {
        let g = figure1_graph();
        let req = QueryRequest::paths(S, T).max_hops(4).limit(2);
        let query = req.validate(g.num_vertices()).unwrap();
        let index = Index::build(&g, query);
        let mut stream = PathStream::new(Arc::new(index), &req, None);
        assert!(stream.next().is_some());
        assert!(stream.next().is_some());
        assert!(stream.next().is_none());
        assert_eq!(stream.termination(), Some(Termination::LimitReached));
        assert_eq!(stream.emitted(), 2);
    }

    #[test]
    fn path_stream_limit_zero_yields_nothing() {
        let g = figure1_graph();
        let req = QueryRequest::paths(S, T).max_hops(4).limit(0);
        let query = req.validate(g.num_vertices()).unwrap();
        let index = Index::build(&g, query);
        let mut stream = PathStream::new(Arc::new(index), &req, None);
        assert!(stream.next().is_none());
        assert_eq!(stream.termination(), Some(Termination::LimitReached));
        assert_eq!(stream.emitted(), 0);
    }

    #[test]
    fn path_stream_deadline_is_the_one_it_is_given() {
        // The engine hands the stream the deadline its pre-flight
        // computed before planning: one already past stops the first pull.
        let g = figure1_graph();
        let req = QueryRequest::paths(S, T)
            .max_hops(4)
            .time_budget(Duration::from_secs(3600));
        let query = req.validate(g.num_vertices()).unwrap();
        let index = Arc::new(Index::build(&g, query));
        let mut stream = PathStream::new(index, &req, Some(Instant::now()));
        assert!(stream.next().is_none());
        assert_eq!(stream.termination(), Some(Termination::DeadlineExceeded));
        assert_eq!(stream.emitted(), 0);
    }

    #[test]
    fn path_stream_on_empty_index_completes_immediately() {
        let g = figure1_graph();
        let req = QueryRequest::paths(T, S).max_hops(4);
        let query = req.validate(g.num_vertices()).unwrap();
        let index = Index::build(&g, query);
        let mut stream = PathStream::new(Arc::new(index), &req, None);
        assert!(stream.next().is_none());
        assert_eq!(stream.termination(), Some(Termination::Completed));
    }

    #[test]
    fn errors_display_something_useful() {
        let errors: Vec<PathEnumError> = vec![
            PathEnumError::EqualEndpoints,
            PathEnumError::HopConstraintTooSmall(1),
            PathEnumError::HopConstraintTooLarge(99),
            PathEnumError::VertexOutOfRange(7),
            PathEnumError::ConflictingConstraints {
                first: "predicate",
                second: "automaton",
            },
            PathEnumError::EvaluationPanicked,
            PathEnumError::GraphNotFound,
            PathEnumError::Overloaded {
                retry_hint: Duration::from_millis(2),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
