//! The planner/executor split: explicit physical plans, `EXPLAIN`, and a
//! version-aware plan/index cache.
//!
//! The paper's central claim is that a per-query light-weight index plus
//! a cost-based choice between IDX-DFS and IDX-JOIN beats either method
//! alone. Historically that decision logic was inlined across the engine
//! and the orchestrator; this module makes the decision a *value*:
//!
//! * [`PhysicalPlan`] — everything the optimizer decided about one
//!   request (index spec and footprint, preliminary/full estimates, the
//!   modeled costs `T_DFS`/`T_JOIN`, the [`Method`] and join cut chosen
//!   for the request's `limit`, the constraint strategy). Plans are plain
//!   `Copy` data: they can be logged, compared, cached, and replayed.
//! * the planner (crate-internal) — produces a plan (and the index
//!   backing it) from a request: build index → preliminary estimate →
//!   (maybe) full estimate and join-order optimization (Figure 2's front
//!   half) → the per-request decision.
//! * [`Executor`] — interprets any plan against any
//!   [`PathSink`] (Figure 2's back half), on the calling thread.
//! * [`PlanCache`] — an LRU over `(s, t, k, constraint fingerprint,
//!   forced method, tau)` holding the plan *and* its built index,
//!   invalidated by the serving graph's
//!   [`GraphVersion`] epoch. Real request
//!   streams are heavily skewed; for a repeated query the dominant cost
//!   the paper measures — the bidirectional boundary BFS of the index
//!   build — is paid once and amortized across every warm hit.
//!
//! # Method and cut are a request's, not an entry's
//!
//! A request pays for what it reads. The one function that chooses a
//! method, [`decide`], takes the request's `limit`
//! beside the plan's estimates:
//!
//! 1. `min(preliminary, k · limit) <= tau` ⇒ IDX-DFS, and the full
//!    estimator never runs for that request (§6.2's test, on the search
//!    space the request can read);
//! 2. otherwise Algorithm 5's `T_DFS` against `T_JOIN`, unchanged: a
//!    limit too large for step 1 decides exactly as no limit does.
//!
//! `k · limit` is in the estimate's own unit: the index keeps only
//! vertices that still reach `t` within the remaining hops, so every
//! partial result of IDX-DFS extends to a result walk, and the nodes
//! visited before the `L`-th result lie on `L` root-to-leaf paths of `k`
//! nodes each. Forced methods are untouched, and accumulative/automaton
//! requests — which filter *complete* paths, so `limit` results can take
//! any number of walks — are priced as unlimited.
//!
//! `limit` is therefore **not** in [`PlanKey`]: an entry keeps what no
//! limit changes (index, preliminary estimate, and — from the first
//! request that needs them, computed outside the shard lock and written
//! back — the full estimate, `T_DFS`, `T_JOIN` and Algorithm 5's cut),
//! and the pipeline resolves `method`/`cut` for each request after the
//! probe, hit or miss. [`plan_on_index`] has no request and resolves as
//! unlimited: the paper's optimizer, unchanged.
//!
//! # Labels-only entries
//!
//! A request that step 1 settles on `k · limit` alone — asked before the
//! build, with no estimate — and that IDX-DFS serves sequentially,
//! unconstrained, from a graph without a mutation log, on an index with
//! more members than its `limit`, is planned on the index's labels only
//! ([`Index::build_labels`]): its plan carries no
//! preliminary estimate, EXPLAIN says so, admission charges it
//! `k · limit`, and the executor reads each `I_t` row the first time it
//! expands the row's owner. A miss stores that labels-only entry. The
//! plan layer serves only filled indexes, so the first request that
//! finds the entry — through the pipeline or through
//! [`QueryEngine::stream`](crate::QueryEngine::stream) — completes it
//! (every row, the level statistics, the preliminary estimate) outside
//! the shard lock and writes it back under `Arc::ptr_eq`, as the full
//! estimate is. A hot key pays for its rows once; a key that is never
//! reused never pays for them.
//!
//! The crate's one request pipeline (`pipeline.rs`) wires the three
//! together for every evaluator: plan-acquisition (cache lookup or
//! the planner) followed by [`Executor`] dispatch, with
//! [`QueryEngine::explain`](crate::QueryEngine::explain) returning the
//! plan without enumerating at all. The concurrent evaluators share the
//! cache as a [`SharedPlanCache`] — [`Sharded`] over [`PlanCache`].
//!
//! ```
//! use pathenum::{PathEnumConfig, QueryEngine, QueryRequest};
//! use pathenum_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edges([(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
//! let graph = b.finish();
//! let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
//!
//! let request = QueryRequest::paths(0, 3).max_hops(3);
//! let plan = engine.explain(&request).unwrap(); // no enumeration
//! let response = engine.execute(&request).unwrap(); // warm: index reused
//! assert_eq!(response.report.method, plan.method);
//! assert_eq!(response.report.cache, pathenum::plan::CacheOutcome::Hit);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathenum_graph::epoch::EpochMap;
use pathenum_graph::hashing::{FxBuildHasher, FxHashMap};
use pathenum_graph::{
    DynamicGraph, EdgeMutation, GraphSnapshot, GraphVersion, NeighborAccess, VertexId,
};

use crate::bits::CompactBits;
use crate::constraints::{automaton_join, filtered_graph};
use crate::enumerate::{idx_dfs_iterative, idx_dfs_on_demand, idx_join};
use crate::estimator::{preliminary_estimate, FullEstimate};
use crate::index::{BuildScratch, Index};
use crate::optimizer::{
    decide, optimize_join_order, Basis, Decision, JoinPlan, PathEnumConfig, PlanEstimates,
};
use crate::query::Query;
use crate::request::{CancelToken, ConstraintSpec, ControlledSink, QueryRequest, Termination};
use crate::sharded::{CacheStats, ShardCache, Sharded};
use crate::sink::PathSink;
use crate::stats::{Counters, Method, PhaseTimings};

/// The constraint *strategy* a plan executes under (the request carries
/// the actual closures; the plan only needs to know the shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConstraintKind {
    /// Plain HcPE.
    #[default]
    None,
    /// Edge-predicate filtering (Appendix E): the index is built on the
    /// filtered subgraph.
    Predicate,
    /// Accumulated edge values with a final check (Algorithm 7).
    Accumulative,
    /// Edge-label sequences accepted by a DFA (Algorithm 8).
    Automaton,
}

impl std::fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintKind::None => write!(f, "none"),
            ConstraintKind::Predicate => write!(f, "predicate"),
            ConstraintKind::Accumulative => write!(f, "accumulative"),
            ConstraintKind::Automaton => write!(f, "automaton"),
        }
    }
}

/// How a request's plan was obtained, reported in
/// [`RunReport::cache`](crate::stats::RunReport::cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The request was not eligible for caching (constraint without a
    /// fingerprint, [`bypass_cache`](QueryRequest::bypass_cache), cache
    /// capacity 0, or an entry point that never caches).
    #[default]
    Bypass,
    /// Planned from scratch; plan and index were stored for reuse.
    Miss,
    /// Served from a cached plan and index — no BFS, no index build.
    Hit,
    /// Served straight from the [result
    /// cache](crate::results::ResultCache): no BFS, no index build, *no
    /// enumeration* — the stored paths were replayed into the sink.
    ResultHit,
    /// The evaluation stopped before the cache was even consulted: a
    /// pre-flight stopping rule (pre-cancelled token, zero time budget,
    /// zero result limit) fired first. The request counts as *rejected*,
    /// not served, and performs no cache lookup.
    Skipped,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Bypass => write!(f, "bypass"),
            CacheOutcome::Miss => write!(f, "miss"),
            CacheOutcome::Hit => write!(f, "hit"),
            CacheOutcome::ResultHit => write!(f, "result-hit"),
            CacheOutcome::Skipped => write!(f, "skipped"),
        }
    }
}

/// The physical plan for one hop-constrained path query: every decision
/// of Figure 2's front half, as a first-class `Copy` value.
///
/// Produced by the planner (shown by
/// [`QueryEngine::explain`](crate::QueryEngine::explain)),
/// interpreted by [`Executor`], cached by [`PlanCache`]. The `Display`
/// form is an `EXPLAIN`-style rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// The core query `q(s, t, k)`.
    pub query: Query,
    /// The enumeration strategy [`decide`] (or a forced override)
    /// selected for a request with [`limit`](Self::limit).
    pub method: Method,
    /// Join cut position `i*`; `Some` exactly when `method` is
    /// [`Method::IdxJoin`].
    pub cut: Option<u32>,
    /// Whether `method` was forced rather than cost-chosen.
    pub forced: bool,
    /// The result limit that settled `method` and
    /// [`modeled_cost`](Self::modeled_cost): the request's when
    /// `min(preliminary, k · limit) <= tau`, `None` where it does not
    /// enter the pricing (no limit, a forced method, a constraint that
    /// filters complete paths, a limit too large for that test).
    pub limit: Option<u64>,
    /// Preliminary search-space estimate (Equation 5); `None` when step 1
    /// settled the request on `k · limit` before the index had the rows
    /// and level statistics it is computed from. Such a plan's index
    /// holds only its labels ([`Index::has_rows`] is false) and IDX-DFS
    /// reads its rows on demand; the plan cache completes the entry —
    /// and this field — for the first request that finds it.
    pub preliminary_estimate: Option<u64>,
    /// Full-fledged estimate of `|Q|` (exact walk count), when the
    /// optimizer ran.
    pub full_estimate: Option<u64>,
    /// Modeled left-deep DFS cost `T_DFS` (Algorithm 5), when the
    /// optimizer ran.
    pub t_dfs: Option<u64>,
    /// Modeled bushy join cost `T_JOIN` at the chosen cut, when the
    /// optimizer ran.
    pub t_join: Option<u64>,
    /// Algorithm 5's cut `i*`, when the optimizer ran and found one —
    /// kept whichever method this request runs, so a cached plan can
    /// resolve a later request to IDX-JOIN without re-optimizing.
    pub join_cut: Option<u32>,
    /// The preliminary-estimate threshold the decision used (Section 6.2).
    pub tau: u64,
    /// The constraint strategy the execution will apply.
    pub constraint: ConstraintKind,
    /// `|X|`: vertices kept by the light-weight index.
    pub index_vertices: usize,
    /// Edges in the index's forward table (the paper's index-size metric);
    /// 0 while the rows are read on demand.
    pub index_edges: usize,
    /// Index heap footprint in bytes.
    pub index_bytes: usize,
}

impl PhysicalPlan {
    /// Whether the index proves the query has no results (the executor
    /// will terminate immediately).
    pub fn is_provably_empty(&self) -> bool {
        self.index_vertices == 0
    }

    /// The limit-independent estimates this plan carries — the input
    /// of [`decide`], and what the plan cache keeps.
    pub fn estimates(&self) -> PlanEstimates {
        PlanEstimates {
            preliminary: self.preliminary_estimate,
            full: self.full_estimate,
            join: match (self.join_cut, self.t_dfs, self.t_join, self.full_estimate) {
                (Some(cut), Some(t_dfs), Some(t_join), Some(estimated_walks)) => Some(JoinPlan {
                    cut,
                    t_dfs,
                    t_join,
                    estimated_walks,
                }),
                _ => None,
            },
        }
    }

    /// What [`decide`] makes of this plan's estimates for a request with
    /// `limit` (under this plan's `k`, `tau`, forced method and
    /// constraint kind), or `None` when that takes a full estimate the
    /// plan does not carry.
    pub fn decision_for(&self, limit: Option<u64>) -> Option<Decision> {
        decide(
            &self.estimates(),
            self.query.k,
            self.tau,
            self.forced.then_some(self.method),
            self.constraint,
            limit,
        )
    }

    /// Makes `method`, `cut` and `limit` those of a request with
    /// `limit`. Returns `false`, changing nothing, when the decision
    /// needs the full estimate first.
    pub(crate) fn resolve(&mut self, limit: Option<u64>) -> bool {
        let Some(decision) = self.decision_for(limit) else {
            return false;
        };
        self.method = decision.method;
        self.cut = decision.cut;
        self.limit = decision.limit;
        true
    }

    /// The modeled cost of what this plan will run, in the optimizer's
    /// cost units (search-tree nodes / tuple touches) — [`decide`]'s
    /// price for [`limit`](Self::limit): the bounded search space
    /// `min(preliminary, k · limit)` when that settled the method, the
    /// chosen method's `T_DFS` / `T_JOIN` when Algorithm 5 did.
    /// Never 0 — even a provably empty plan charges one unit, so
    /// admission accounting stays conservative.
    ///
    /// This is the number the [`admission`](crate::admission) layer
    /// charges against its in-flight budget: the planner's estimate *is*
    /// the admission ticket, and a request that reads 10 results is not
    /// charged for the million it leaves behind.
    pub fn modeled_cost(&self) -> u64 {
        self.decision_for(self.limit)
            .map(|decision| decision.cost)
            .or(self.preliminary_estimate)
            .unwrap_or(0)
            .max(1)
    }

    /// Assembles a [`RunReport`](crate::stats::RunReport) for one
    /// interpretation of this plan.
    pub(crate) fn report(
        &self,
        timings: PhaseTimings,
        counters: Counters,
        cache: CacheOutcome,
    ) -> crate::stats::RunReport {
        crate::stats::RunReport {
            method: self.method,
            timings,
            counters,
            preliminary_estimate: self.preliminary_estimate,
            full_estimate: self.full_estimate,
            t_dfs: self.t_dfs,
            t_join: self.t_join,
            cut_position: self.cut,
            index_bytes: self.index_bytes,
            index_edges: self.index_edges,
            cache,
        }
    }
}

impl std::fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "PhysicalPlan q(s={}, t={}, k={})",
            self.query.s, self.query.t, self.query.k
        )?;
        write!(f, "  method: {}", self.method)?;
        match (self.forced, self.cut) {
            (true, Some(cut)) => writeln!(f, " (forced; cut at {cut})")?,
            (true, None) => writeln!(f, " (forced)")?,
            (false, Some(cut)) => writeln!(f, " (cost-based; cut at {cut})")?,
            (false, None) => writeln!(f, " (cost-based)")?,
        }
        let basis = self.decision_for(self.limit).map(|decision| decision.basis);
        match (self.preliminary_estimate, basis) {
            (Some(preliminary), _) => write!(
                f,
                "  estimates: preliminary={preliminary} (tau={})",
                self.tau
            )?,
            (None, Some(Basis::Bounded { bounded })) => write!(
                f,
                "  estimates: preliminary=not computed (k*limit = {bounded} <= tau), tau={}",
                self.tau
            )?,
            (None, _) => write!(f, "  estimates: preliminary=not computed, tau={}", self.tau)?,
        }
        if let Some(limit) = self.limit {
            write!(f, ", limit={limit}")?;
        }
        match self.full_estimate {
            Some(walks) => writeln!(f, ", walks={walks}")?,
            None => writeln!(f)?,
        }
        match (self.t_dfs.zip(self.t_join), basis) {
            (Some((t_dfs, t_join)), basis) => {
                write!(f, "  modeled costs: t_dfs={t_dfs}, t_join={t_join}")?;
                match basis {
                    Some(Basis::Bounded { bounded }) => {
                        writeln!(f, " (not consulted: k*limit = {bounded} <= tau)")?
                    }
                    _ => writeln!(f)?,
                }
            }
            (None, basis) => {
                write!(f, "  modeled costs: not computed (")?;
                match basis {
                    Some(Basis::Forced) => write!(f, "method forced")?,
                    Some(Basis::Bounded { bounded })
                        if self.preliminary_estimate.is_none_or(|p| p > self.tau) =>
                    {
                        write!(f, "k*limit = {bounded} <= tau")?
                    }
                    Some(Basis::Bounded { .. }) => write!(f, "preliminary <= tau")?,
                    Some(Basis::NoInteriorCut) => write!(f, "no interior cut")?,
                    Some(Basis::Costed) | None => write!(f, "full estimate pending")?,
                }
                writeln!(f, ")")?;
            }
        }
        write!(f, "  index: {} vertices, ", self.index_vertices)?;
        match self.preliminary_estimate {
            Some(_) => write!(f, "{} edges", self.index_edges)?,
            None => write!(f, "rows read on demand")?,
        }
        writeln!(
            f,
            ", {} bytes{}",
            self.index_bytes,
            if self.is_provably_empty() {
                " (provably empty)"
            } else {
                ""
            }
        )?;
        write!(f, "  constraint: {}", self.constraint)
    }
}

/// Produces [`PhysicalPlan`]s: Figure 2's front half (index build →
/// preliminary estimate → optional full estimate + Algorithm 5). The
/// pipeline drives it, with scratch reuse and the plan cache on top;
/// callers see its plans through
/// [`QueryEngine::explain`](crate::QueryEngine::explain).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planner<'g, G: NeighborAccess> {
    graph: &'g G,
    config: PathEnumConfig,
}

/// A plan together with the index it was computed from.
pub(crate) struct Planned {
    pub plan: PhysicalPlan,
    pub index: Index,
}

/// The configuration one request effectively plans under: a request's
/// `tau` wins over the engine configuration's. (A forced method is the
/// request's alone: [`QueryRequest::method`].)
pub(crate) fn effective_config(base: PathEnumConfig, request: &QueryRequest<'_>) -> PathEnumConfig {
    PathEnumConfig {
        tau: request.tau.unwrap_or(base.tau),
    }
}

impl<'g, G: NeighborAccess> Planner<'g, G> {
    /// A planner over `graph` with the orchestrator configuration
    /// (request-level `tau`/`method` overrides are applied per request).
    ///
    /// `graph` may be any [`NeighborAccess`] implementation — a
    /// `CsrGraph` or a [`DynamicGraph`]'s
    /// [`OverlayView`](pathenum_graph::OverlayView).
    pub(crate) fn new(graph: &'g G, config: PathEnumConfig) -> Self {
        Planner { graph, config }
    }

    /// Plans a validated query: builds the index (on the
    /// predicate-filtered subgraph when the request carries a predicate),
    /// runs the estimators, and decides method + cut. Returns the plan,
    /// the index, and the front-half phase timings.
    ///
    /// The decision is tried first with no estimate at all. When step 1
    /// settles the request on `k · limit` alone, and IDX-DFS can read its
    /// rows from the serving graph itself — no constraint, no `full_reach`
    /// — the labels are built first ([`Index::build_labels`]).
    /// If `X` has more members than the request's `limit`, that is all:
    /// the plan carries no preliminary estimate and the executor reads
    /// each row the first time it expands its owner. Otherwise the rows
    /// are filled at once, here, and the plan is the eager one, as it is
    /// for every other request.
    ///
    /// `full_reach` asks the build for the two-pass boundary search, whose
    /// maps [`IndexFootprint::capture`] can then read from `scratch` — the
    /// pipeline sets it exactly when the serving graph has a mutation log
    /// to retain against. The plan and index do not depend on it.
    pub(crate) fn plan_query(
        &self,
        query: Query,
        request: &QueryRequest<'_>,
        scratch: &mut BuildScratch,
        full_reach: bool,
    ) -> (Planned, PhaseTimings) {
        let config = effective_config(self.config, request);
        let on_demand = !full_reach
            && matches!(request.constraint, ConstraintSpec::None)
            && decide(
                &PlanEstimates::default(),
                query.k,
                config.tau,
                request.method,
                ConstraintKind::None,
                request.limit,
            )
            .is_some();
        let build_start = Instant::now();
        let (index, bfs_time) = match &request.constraint {
            ConstraintSpec::Predicate(predicate) => {
                // Appendix E: the filter pass is attributed to build time.
                let filtered = filtered_graph(self.graph, predicate);
                Index::build_with(&filtered, query, scratch, full_reach)
            }
            _ if on_demand => {
                let (mut index, bfs_time) = Index::build_labels(self.graph, query, scratch);
                // Rows on demand pay off only where the search leaves rows
                // unread. On an index with no more members than the results
                // the request reads, a search that stops at its limit has
                // read nearly every row anyway; they are filled here, on
                // the thread whose sweep has just scanned their adjacency.
                if request
                    .limit
                    .is_some_and(|limit| index.num_vertices() as u64 <= limit)
                {
                    index.fill_rows(self.graph, scratch);
                }
                (index, bfs_time)
            }
            _ => Index::build_with(self.graph, query, scratch, full_reach),
        };
        let mut timings = PhaseTimings {
            bfs: bfs_time,
            index_build: build_start.elapsed(),
            ..PhaseTimings::default()
        };
        let plan = plan_on_index_inner(
            &index,
            config,
            request.method,
            request.constraint.kind(),
            request.limit,
            &mut timings,
        );
        (Planned { plan, index }, timings)
    }
}

/// Plans on a prebuilt index: the estimate-then-optimize half of Figure 2
/// shared by every pipeline entry point, recording the estimation and
/// optimization phases into `timings`.
///
/// This is the planner without graph access, unforced and unlimited —
/// the paper's optimizer as it stands. The benchmark's staged driver
/// (`benchmark/src/trace.rs`) calls it to time each phase on an index it
/// built itself. `index` must have its rows (every [`Index::build`]
/// does).
pub fn plan_on_index(
    index: &Index,
    config: PathEnumConfig,
    timings: &mut PhaseTimings,
) -> PhysicalPlan {
    plan_on_index_inner(index, config, None, ConstraintKind::None, None, timings)
}

fn plan_on_index_inner(
    index: &Index,
    config: PathEnumConfig,
    force: Option<Method>,
    constraint: ConstraintKind,
    limit: Option<u64>,
    timings: &mut PhaseTimings,
) -> PhysicalPlan {
    let preliminary = index.has_rows().then(|| {
        let prelim_start = Instant::now();
        let preliminary = preliminary_estimate(index);
        timings.preliminary_estimation = prelim_start.elapsed();
        preliminary
    });

    let mut plan = PhysicalPlan {
        query: index.query(),
        method: force.unwrap_or(Method::IdxDfs),
        cut: None,
        forced: force.is_some(),
        limit: None,
        preliminary_estimate: preliminary,
        full_estimate: None,
        t_dfs: None,
        t_join: None,
        join_cut: None,
        tau: config.tau,
        constraint,
        index_vertices: index.num_vertices(),
        index_edges: index.num_edges(),
        index_bytes: index.heap_bytes(),
    };
    resolve_on_index(&mut plan, index, limit, timings);
    plan
}

/// Resolves `plan` for a request with `limit` (see
/// [`decide`]), running the full estimator and
/// Algorithm 5 on `index` first when the decision needs them and the
/// plan does not carry them yet — at most once per plan, whatever
/// requests it goes on to serve. Returns whether they ran: a plan that
/// came out of the cache is then owed a
/// [write-back](PlanCache::write_back).
pub(crate) fn resolve_on_index(
    plan: &mut PhysicalPlan,
    index: &Index,
    limit: Option<u64>,
    timings: &mut PhaseTimings,
) -> bool {
    if plan.resolve(limit) {
        return false;
    }
    debug_assert!(index.has_rows(), "only step 1 decides on labels alone");
    let opt_start = Instant::now();
    let estimate = FullEstimate::compute(index); // alloc: setup
    let join = optimize_join_order(index, &estimate);
    timings.optimization = opt_start.elapsed();
    plan.full_estimate = Some(estimate.total_walks());
    plan.t_dfs = join.map(|j| j.t_dfs);
    plan.t_join = join.map(|j| j.t_join);
    plan.join_cut = join.map(|j| j.cut);
    let resolved = plan.resolve(limit);
    debug_assert!(resolved, "a full estimate settles every decision");
    true
}

/// Completes a labels-only `index` — what a step-1 miss leaves in the plan
/// cache — from `graph`, the graph it was built on: every row and the
/// level statistics ([`Index::fill_rows`]), then the preliminary estimate
/// and index shape `plan` reports, so both equal a cold eager plan's.
/// Returns whether there was anything to complete: a plan and index that
/// came out of the cache are then owed a
/// [write-back](PlanCache::write_back). The rows count as `index_build`
/// time, the estimate as `preliminary_estimation`.
pub(crate) fn complete_on_graph<G: NeighborAccess>(
    plan: &mut PhysicalPlan,
    index: &mut Arc<Index>,
    graph: &G,
    scratch: &mut BuildScratch,
    timings: &mut PhaseTimings,
) -> bool {
    if index.has_rows() {
        return false;
    }
    let build_start = Instant::now();
    let mut filled = Index::clone(index);
    filled.fill_rows(graph, scratch);
    timings.index_build += build_start.elapsed();
    let prelim_start = Instant::now();
    plan.preliminary_estimate = Some(preliminary_estimate(&filled));
    timings.preliminary_estimation += prelim_start.elapsed();
    plan.index_edges = filled.num_edges();
    plan.index_bytes = filled.heap_bytes();
    *index = Arc::new(filled);
    true
}

/// The request-level stopping rules the executor enforces around the
/// caller's sink.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoppingRules {
    pub limit: Option<u64>,
    pub deadline: Option<Instant>,
    pub cancel: Option<CancelToken>,
}

/// Outcome of interpreting one plan.
pub(crate) struct Execution {
    pub counters: Counters,
    pub termination: Termination,
    pub enumeration: Duration,
}

/// Interprets [`PhysicalPlan`]s against sinks: Figure 2's back half.
///
/// The executor is stateless — any plan can run against any sink, any
/// number of times, as long as the index it is paired with was built for
/// the plan's query (the engine's cache guarantees this via graph-version
/// checks).
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

impl Executor {
    /// Runs an unconstrained plan sequentially, streaming into `sink`
    /// with no stopping rules. The public, minimal interpreter; the
    /// engine uses the crate-internal `Executor::run`, which adds
    /// constraints and stopping rules.
    pub fn execute(index: &Index, plan: &PhysicalPlan, sink: &mut dyn PathSink) -> Counters {
        let mut counters = Counters::default();
        match plan.method {
            Method::IdxDfs => {
                idx_dfs_iterative(index, sink, &mut counters);
            }
            Method::IdxJoin => {
                let cut = plan.cut.expect("plans carry a cut for IDX-JOIN");
                idx_join(index, cut, sink, &mut counters);
            }
        }
        counters
    }

    /// Full interpretation: applies the request's constraint closures and
    /// enforces the stopping rules. `graph` is the serving graph `index`
    /// was built on: an index that holds only its labels (a step-1 plan,
    /// unconstrained) has IDX-DFS read its rows from there.
    pub(crate) fn run<G: NeighborAccess>(
        index: &Index,
        graph: &G,
        plan: &PhysicalPlan,
        constraint: &ConstraintSpec<'_>,
        rules: StoppingRules,
        sink: &mut dyn PathSink,
    ) -> Execution {
        let mut counters = Counters::default();
        let enum_start = Instant::now();
        debug_assert!(
            index.has_rows()
                || (plan.method == Method::IdxDfs && matches!(constraint, ConstraintSpec::None)),
            "only an unconstrained IDX-DFS reads rows on demand"
        );

        let mut control = ControlledSink::new(sink, rules.limit, rules.deadline, rules.cancel);
        match (constraint, plan.method) {
            (ConstraintSpec::None, Method::IdxDfs) => {
                idx_dfs_on_demand(graph, index, &mut control, &mut counters);
            }
            // Predicate requests already enumerated the filtered graph's
            // index — plain dispatch.
            (ConstraintSpec::Predicate(_), Method::IdxDfs) => {
                idx_dfs_iterative(index, &mut control, &mut counters);
            }
            (ConstraintSpec::None | ConstraintSpec::Predicate(_), Method::IdxJoin) => {
                let cut = plan.cut.expect("plans carry a cut for IDX-JOIN");
                idx_join(index, cut, &mut control, &mut counters);
            }
            (ConstraintSpec::Accumulative(acc), Method::IdxDfs) => {
                acc.dfs(index, &mut control, &mut counters);
            }
            (ConstraintSpec::Accumulative(acc), Method::IdxJoin) => {
                let cut = plan.cut.expect("plans carry a cut for IDX-JOIN");
                acc.join(index, cut, &mut control, &mut counters);
            }
            (
                ConstraintSpec::Automaton {
                    automaton,
                    label_of,
                },
                Method::IdxDfs,
            ) => {
                crate::constraints::automaton_dfs(
                    index,
                    automaton,
                    label_of,
                    &mut control,
                    &mut counters,
                );
            }
            (
                ConstraintSpec::Automaton {
                    automaton,
                    label_of,
                },
                Method::IdxJoin,
            ) => {
                let cut = plan.cut.expect("plans carry a cut for IDX-JOIN");
                automaton_join(
                    index,
                    cut,
                    automaton,
                    label_of.as_ref(),
                    &mut control,
                    &mut counters,
                );
            }
        }
        let termination = control.termination();
        if termination.is_early() {
            // Enumerators count a result *before* offering it to the
            // sink; when a stopping rule refuses that emission the
            // delivered count is authoritative.
            counters.results = control.emitted();
        }
        Execution {
            counters,
            termination,
            enumeration: enum_start.elapsed(),
        }
    }
}

/// Cache key: one logical query shape. Includes the forced method and
/// the *effective* `tau` so plan decisions made under different
/// configurations never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Source vertex.
    pub s: VertexId,
    /// Target vertex.
    pub t: VertexId,
    /// Hop constraint.
    pub k: u32,
    /// Constraint namespace: 0 for the shared unfiltered-index entry
    /// (plain/accumulative/automaton requests), 1 for predicate-filtered
    /// entries. A separate field — not a stolen fingerprint bit — so the
    /// full 64-bit user tag space stays collision-free.
    pub namespace: u8,
    /// Constraint fingerprint within the namespace; see
    /// [`QueryRequest::constraint_fingerprint`].
    pub fingerprint: u64,
    /// The request's forced method, if any.
    pub method: Option<Method>,
    /// Effective preliminary-estimate threshold.
    pub tau: u64,
}

impl PlanKey {
    /// The cache key for a request planned under `effective`
    /// configuration, or `None` when the constraint is uncacheable (an
    /// unfingerprinted predicate). Bypass flags and cache capacity are
    /// the caller's concern.
    pub(crate) fn for_request(
        request: &QueryRequest<'_>,
        effective: PathEnumConfig,
    ) -> Option<PlanKey> {
        request
            .constraint
            .fingerprint(request.fingerprint)
            .map(|(namespace, fingerprint)| PlanKey {
                s: request.s,
                t: request.t,
                k: request.k,
                namespace,
                fingerprint,
                method: request.method,
                tau: effective.tau,
            })
    }
}

/// Aggregate statistics of a [`PlanCache`] — the shared seven-counter
/// [`CacheStats`].
pub type PlanCacheStats = CacheStats;

/// Aggregate statistics of a [`SharedPlanCache`] — the shared
/// seven-counter [`CacheStats`], read without locking.
pub type SharedCacheStats = CacheStats;

/// The serving graph as a cache sees it: the version entries are stamped
/// with, plus — when the graph keeps one (see
/// [`GraphSnapshot::mutation_log`]) — the mutation log that lets a
/// version-stale entry be re-validated against the delta instead of
/// discarded. A bare [`GraphVersion`] converts into a log-less stamp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphStamp<'g> {
    pub version: GraphVersion,
    pub log: Option<&'g DynamicGraph>,
}

impl<'g> GraphStamp<'g> {
    /// The stamp of `graph` as it stands now.
    pub(crate) fn of<G: GraphSnapshot>(graph: &'g G) -> Self {
        GraphStamp {
            version: graph.version(),
            log: graph.mutation_log(),
        }
    }
}

impl From<GraphVersion> for GraphStamp<'_> {
    fn from(version: GraphVersion) -> Self {
        GraphStamp { version, log: None }
    }
}

/// The reach footprint of a cached index, recorded at build time: the
/// vertex sets within `k - 1` hops of `s` (forward, `G − {t}`) and of
/// `t` (backward, `G − {s}`).
///
/// Surgical retention keeps a cache entry across a mutation delta when
/// the delta provably cannot change the query's result set:
///
/// * a **deleted** edge is harmless unless both endpoints are in the
///   entry's index partition `X` (only such edges can appear in the
///   index's neighbor tables, hence on a result path);
/// * an **inserted** edge can only contribute to a *new* result path if
///   the path's first inserted edge leaves the `s`-reach set and its
///   last inserted edge enters the `t`-reach set — so the entry stays
///   valid as long as *no* inserted edge has ever started inside the
///   `s`-reach, or *no* inserted edge has ever ended inside the
///   `t`-reach. The two conditions are tracked as sticky flags on the
///   entry, which keeps the check sound across chains of inserted edges
///   spanning many deltas.
#[derive(Debug, Clone)]
pub(crate) struct IndexFootprint {
    /// The mutation lineage (see [`DynamicGraph::lineage`]) the entry's
    /// version stamp belongs to. Retention consults the serving graph's
    /// mutation log, which describes *that graph's* history only — an
    /// entry stamped against a diverged sibling (caches move across
    /// engines; `DynamicGraph` is cloneable) must never be re-validated
    /// against it.
    lineage: GraphVersion,
    /// `{v : S(s, v | G − {t}) <= k - 1}` at build time, compressed
    /// (see [`CompactBits`]) — footprints cover the bounded reach, not
    /// the vertex space, so they are charged O(reach) bytes.
    reach_s: CompactBits,
    /// `{v : S(v, t | G − {s}) <= k - 1}` at build time.
    reach_t: CompactBits,
}

impl IndexFootprint {
    /// Derives the footprint from the boundary distance maps a build
    /// left in its scratch buffers, bound to one graph lineage.
    pub(crate) fn from_dist_maps(
        lineage: GraphVersion,
        dist_s: &EpochMap,
        dist_t: &EpochMap,
        k: u32,
    ) -> Self {
        let bound = k.saturating_sub(1);
        IndexFootprint {
            lineage,
            reach_s: CompactBits::from_reach(dist_s, bound),
            reach_t: CompactBits::from_reach(dist_t, bound),
        }
    }

    /// Captures the footprint a build just left in `scratch`, for query
    /// hop bound `k`, stamped against one graph lineage — or `None` when
    /// that build ran the sweep, whose maps do not cover the reach sets
    /// (the entry is then stored footprint-less: version-invalidated,
    /// never retained).
    pub(crate) fn capture(lineage: GraphVersion, scratch: &BuildScratch, k: u32) -> Option<Self> {
        let (dist_s, dist_t) = scratch.full_reach_maps()?;
        Some(IndexFootprint::from_dist_maps(lineage, dist_s, dist_t, k))
    }

    /// The mutation lineage this footprint was stamped against.
    pub(crate) fn lineage(&self) -> GraphVersion {
        self.lineage
    }

    /// Whether a **removed** edge `(u, w)` could have carried a cached
    /// *result* path: only if `u` is within `k - 1` hops of `s` and `w`
    /// within `k - 1` hops of `t` — every edge of every result path
    /// satisfies both. (Plan entries use the tighter index-partition
    /// check instead, because they also cache the index tables.)
    pub(crate) fn removal_touches_results(&self, u: VertexId, w: VertexId) -> bool {
        self.reach_s.contains(u) && self.reach_t.contains(w)
    }

    /// For an **inserted** edge `(u, w)`: whether it starts inside the
    /// `s`-reach and whether it ends inside the `t`-reach. Callers
    /// accumulate these as sticky flags; an entry dies once both have
    /// ever been set (the same rule `CacheEntry::survives_delta` uses).
    pub(crate) fn insertion_touches(&self, u: VertexId, w: VertexId) -> (bool, bool) {
        (self.reach_s.contains(u), self.reach_t.contains(w))
    }

    /// Approximate heap footprint of the two reach sets, in bytes —
    /// byte-budgeted caches charge footprint-carrying entries for them.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.reach_s.heap_bytes() + self.reach_t.heap_bytes()
    }
}

#[derive(Debug)]
struct CacheEntry {
    version: GraphVersion,
    /// What does not depend on a request's limit: the index shape and
    /// the estimates, the full ones once some request needed them.
    /// `method`, `cut` and `limit` are those of whichever request stored
    /// the entry; the pipeline re-resolves them for every reader.
    plan: PhysicalPlan,
    /// Shared so a concurrent cache ([`SharedPlanCache`]) can hand the
    /// index to an executing worker without cloning the tables and
    /// without holding its shard lock for the duration of the query.
    index: Arc<Index>,
    last_used: u64,
    /// Reach footprint enabling surgical retention; `None` for entries
    /// planned on graphs without a mutation log (plain snapshots).
    footprint: Option<IndexFootprint>,
    /// Sticky: some delta insertion since build starts inside `reach_s`.
    src_touched: bool,
    /// Sticky: some delta insertion since build ends inside `reach_t`.
    dst_touched: bool,
}

impl CacheEntry {
    /// Whether this entry's results are provably unchanged by the
    /// mutations applied after `self.version`, updating the sticky
    /// insertion flags along the way.
    fn survives_delta(&mut self, graph: &DynamicGraph) -> bool {
        let Some(footprint) = &self.footprint else {
            return false;
        };
        if footprint.lineage != graph.lineage() {
            // The entry was stamped against a different graph value's
            // history; this graph's log cannot re-validate it.
            return false;
        }
        let Some(mutations) = graph.mutations_since(self.version) else {
            return false; // delta log window slid past this entry
        };
        for (kind, (u, w)) in mutations {
            match kind {
                EdgeMutation::Removed => {
                    // Only edges with both endpoints in X can sit in the
                    // index's neighbor tables or on a result path.
                    if self.index.vertices.binary_search(&u).is_ok()
                        && self.index.vertices.binary_search(&w).is_ok()
                    {
                        return false;
                    }
                }
                EdgeMutation::Inserted => {
                    if footprint.reach_s.contains(u) {
                        self.src_touched = true;
                    }
                    if footprint.reach_t.contains(w) {
                        self.dst_touched = true;
                    }
                    if self.src_touched && self.dst_touched {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Default number of cached plans per engine. An entry holds a
/// light-weight index (typically a few KB; bounded by the per-query
/// admissible subgraph), so the default keeps worst-case cache memory in
/// the low megabytes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// An LRU cache of `(PhysicalPlan, Index)` pairs keyed by [`PlanKey`]
/// and guarded by a [`GraphVersion`] epoch.
///
/// A lookup whose stored version differs from the serving graph's
/// current version discards the entry (counted as an invalidation): a
/// [`DynamicGraph`] mutation advances the
/// epoch, so snapshots taken after a mutation can never be served stale
/// plans, while snapshots of an unmutated overlay keep hitting. The one
/// exception is surgical retention: when the serving graph offers its
/// mutation log (a [`DynamicGraph`] served in place), a stale entry
/// whose footprint the delta provably never touched is re-stamped and
/// kept, counted in [`PlanCacheStats::retained`].
///
/// The cache is an independent value so it can outlive any single
/// engine: move it between engines over successive snapshots with
/// [`QueryEngine::with_cache`](crate::QueryEngine::with_cache) /
/// [`QueryEngine::into_cache`](crate::QueryEngine::into_cache).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    // Fx keying on PlanKey: the deliberate PR 7 hashing choice — SipHash
    // stays out of the plan-lookup hot path.
    entries: FxHashMap<PlanKey, CacheEntry>,
    clock: u64,
    stats: CacheStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// caching entirely (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: FxHashMap::with_capacity_and_hasher(
                capacity.min(1024),
                FxBuildHasher::default(),
            ),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Aggregate hit/miss/invalidation/eviction counts.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Drops every entry (statistics are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Records a request evaluated without consulting this cache.
    pub(crate) fn note_bypass(&mut self) {
        self.stats.lookups += 1;
        self.stats.bypasses += 1;
    }

    /// Looks up an entry for `key` against the serving graph `at`.
    ///
    /// An entry stamped at the graph's current version is a plain hit.
    /// An entry stamped at an *older* version is re-validated when the
    /// graph offers a mutation log: if every mutation since the stamp is
    /// provably irrelevant to the entry's recorded footprint (see
    /// [`IndexFootprint`]), the entry is re-stamped to the current
    /// version and served — a hit (counted in
    /// [`PlanCacheStats::retained`]) instead of a rebuild. Otherwise (no
    /// log, no footprint, or a relevant delta) the entry is removed and
    /// counted as an invalidation; both stale and absent count as misses.
    pub(crate) fn lookup<'g>(
        &mut self,
        key: &PlanKey,
        at: impl Into<GraphStamp<'g>>,
    ) -> Option<(PhysicalPlan, Arc<Index>)> {
        let at = at.into();
        self.stats.lookups += 1;
        // Entry API: one hash probe whether the lookup hits, invalidates,
        // or misses.
        match self.entries.entry(*key) {
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                let fresh = entry.version == at.version;
                if fresh || at.log.is_some_and(|log| entry.survives_delta(log)) {
                    self.clock += 1;
                    self.stats.hits += 1;
                    if !fresh {
                        entry.version = at.version;
                        self.stats.retained += 1;
                    }
                    entry.last_used = self.clock;
                    Some((entry.plan, Arc::clone(&entry.index)))
                } else {
                    occupied.remove();
                    self.stats.invalidations += 1;
                    self.stats.misses += 1;
                    None
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Completes the entry for `key` with what a reader computed, outside
    /// any lock, from the `seen` index a [`lookup`](Self::lookup) handed
    /// it: `index` with its rows in place of a labels-only one (see
    /// [`complete_on_graph`]) and the estimates `plan` now carries. A
    /// no-op unless the entry still holds `seen`; what the entry already
    /// has is kept. Not a lookup: no counter moves.
    pub(crate) fn write_back(
        &mut self,
        key: &PlanKey,
        seen: &Arc<Index>,
        plan: &PhysicalPlan,
        index: &Arc<Index>,
    ) {
        let Some(entry) = self.entries.get_mut(key) else {
            return;
        };
        if !Arc::ptr_eq(&entry.index, seen) {
            return;
        }
        if entry.plan.preliminary_estimate.is_none() {
            entry.index = Arc::clone(index);
            entry.plan.preliminary_estimate = plan.preliminary_estimate;
            entry.plan.index_edges = plan.index_edges;
            entry.plan.index_bytes = plan.index_bytes;
        }
        if entry.plan.full_estimate.is_none() {
            entry.plan.full_estimate = plan.full_estimate;
            entry.plan.t_dfs = plan.t_dfs;
            entry.plan.t_join = plan.t_join;
            entry.plan.join_cut = plan.join_cut;
        }
    }

    /// Stores a plan + (shared) index for `key` at `version`, evicting
    /// the least recently used entry when at capacity. A `footprint`
    /// makes the entry eligible for surgical retention when a later
    /// [`lookup`](Self::lookup) comes with a mutation log.
    pub(crate) fn insert_with_footprint(
        &mut self,
        key: PlanKey,
        version: GraphVersion,
        plan: PhysicalPlan,
        index: Arc<Index>,
        footprint: Option<IndexFootprint>,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            CacheEntry {
                version,
                plan,
                index,
                last_used: self.clock,
                footprint,
                src_touched: false,
                dst_touched: false,
            },
        );
    }
}

impl ShardCache for PlanCache {
    type Key = PlanKey;

    fn with_budget(budget: usize) -> Self {
        PlanCache::new(budget)
    }

    fn stats(&self) -> CacheStats {
        PlanCache::stats(self)
    }

    fn entries(&self) -> usize {
        PlanCache::len(self)
    }

    fn clear(&mut self) {
        PlanCache::clear(self);
    }
}

/// Default shard count of a [`SharedPlanCache`]: enough to keep lock
/// contention negligible for realistic worker pools while keeping the
/// per-shard LRU meaningful.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A concurrently readable plan/index cache: [`Sharded`] over
/// [`PlanCache`].
///
/// This is the cache behind every [`catalog`](crate::catalog) tenant:
/// many threads share one warm
/// working set over one graph. Each shard is an independent LRU
/// [`PlanCache`], and a worker holding a hit *executes outside the lock*
/// (entries hand out [`Arc<Index>`] clones — the shard lock covers only
/// the map probe). The budget is an entry count.
pub type SharedPlanCache = Sharded<PlanCache>;

impl Default for SharedPlanCache {
    fn default() -> Self {
        Sharded::new(DEFAULT_PLAN_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS)
    }
}

impl Sharded<PlanCache> {
    /// Total entry capacity across all shards (the rounded, enforced
    /// value).
    pub fn capacity(&self) -> usize {
        self.budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::sink::CollectingSink;
    use pathenum_graph::CsrGraph;

    /// Footprint-less insert shorthand for the tests below.
    impl PlanCache {
        fn insert(
            &mut self,
            key: PlanKey,
            version: GraphVersion,
            plan: PhysicalPlan,
            index: Index,
        ) {
            self.insert_with_footprint(key, version, plan, Arc::new(index), None);
        }
    }

    /// Probe/insert shorthands for the sharded tests below — production
    /// code reaches a shard through `with_shard` (see `pipeline.rs`).
    impl SharedPlanCache {
        fn lookup(
            &self,
            key: &PlanKey,
            version: GraphVersion,
        ) -> Option<(PhysicalPlan, Arc<Index>)> {
            self.with_shard(key, |shard| shard.lookup(key, version))
        }

        fn insert(&self, key: PlanKey, version: GraphVersion, plan: PhysicalPlan, index: Index) {
            self.with_shard(&key, |shard| shard.insert(key, version, plan, index));
        }
    }

    fn plan_for(graph: &CsrGraph, k: u32) -> (PhysicalPlan, Index) {
        let query = Query::new(S, T, k).unwrap();
        let index = Index::build(graph, query);
        let mut timings = PhaseTimings::default();
        let plan = plan_on_index(&index, PathEnumConfig::default(), &mut timings);
        (plan, index)
    }

    #[test]
    fn plan_records_the_decision_and_index_shape() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        assert_eq!(plan.method, Method::IdxDfs);
        assert_eq!(plan.cut, None);
        assert!(!plan.forced);
        assert_eq!(plan.constraint, ConstraintKind::None);
        assert_eq!(plan.index_edges, index.num_edges());
        assert_eq!(plan.index_vertices, index.num_vertices());
        assert!(!plan.is_provably_empty());
    }

    #[test]
    fn footprints_refuse_the_sweeps_maps() {
        let g = figure1_graph();
        let query = Query::new(S, T, 4).unwrap();
        let lineage = g.version();
        let mut scratch = BuildScratch::default();
        assert!(IndexFootprint::capture(lineage, &scratch, 4).is_none());

        // The sweep labels the admissible set only, not the reach sets
        // a footprint is made of.
        Index::build_reusing(&g, query, &mut scratch);
        assert!(IndexFootprint::capture(lineage, &scratch, 4).is_none());

        let request = QueryRequest::paths(S, T).max_hops(4);
        let planner = Planner::new(&g, PathEnumConfig::default());
        planner.plan_query(query, &request, &mut scratch, true);
        let footprint =
            IndexFootprint::capture(lineage, &scratch, 4).expect("two-pass maps are full reach");
        assert_eq!(footprint.insertion_touches(V[0], V[2]), (true, true));
        assert_eq!(footprint.insertion_touches(V[7], V[7]), (false, false));

        // The flag follows the last build, not the first.
        planner.plan_query(query, &request, &mut scratch, false);
        assert!(IndexFootprint::capture(lineage, &scratch, 4).is_none());
    }

    #[test]
    fn forced_join_plans_carry_cut_and_costs() {
        let g = figure1_graph();
        let query = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, query);
        let mut timings = PhaseTimings::default();
        let plan = plan_on_index_inner(
            &index,
            PathEnumConfig::default(),
            Some(Method::IdxJoin),
            ConstraintKind::None,
            None,
            &mut timings,
        );
        assert_eq!(plan.method, Method::IdxJoin);
        assert!(plan.forced);
        let cut = plan.cut.unwrap();
        assert!((1..4).contains(&cut));
        assert!(plan.t_dfs.is_some() && plan.t_join.is_some());
        assert!(plan.full_estimate.is_some());
    }

    #[test]
    fn tau_zero_routes_through_the_optimizer() {
        let g = figure1_graph();
        let query = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, query);
        let mut timings = PhaseTimings::default();
        let plan = plan_on_index(&index, PathEnumConfig { tau: 0 }, &mut timings);
        assert_eq!(plan.full_estimate, Some(6), "Figure 1, k=4 has 6 walks");
        assert!(plan.t_dfs.is_some() && plan.t_join.is_some());
    }

    #[test]
    fn executor_interprets_a_plan_faithfully() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let mut sink = CollectingSink::default();
        let counters = Executor::execute(&index, &plan, &mut sink);
        assert_eq!(counters.results, 5);
        assert_eq!(sink.paths.len(), 5);
    }

    #[test]
    fn display_renders_an_explain_block() {
        let g = figure1_graph();
        let (plan, _) = plan_for(&g, 4);
        let text = plan.to_string();
        assert!(text.contains("PhysicalPlan q(s=0, t=1, k=4)"));
        assert!(text.contains("method: IDX-DFS"));
        assert!(text.contains("constraint: none"));
    }

    #[test]
    fn cache_hits_misses_and_invalidates_by_version() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let key = PlanKey {
            s: S,
            t: T,
            k: 4,
            namespace: 0,
            fingerprint: 0,
            method: None,
            tau: 100_000,
        };
        let mut cache = PlanCache::new(4);
        let v1 = g.version();
        assert!(cache.lookup(&key, v1).is_none());
        cache.insert(key, v1, plan, index.clone());
        assert!(cache.lookup(&key, v1).is_some());

        let v2 = GraphVersion::next();
        assert!(cache.lookup(&key, v2).is_none(), "stale entry discarded");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
        assert!(cache.is_empty());
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let v = g.version();
        let key = |k: u32| PlanKey {
            s: S,
            t: T,
            k,
            namespace: 0,
            fingerprint: 0,
            method: None,
            tau: 100_000,
        };
        let mut cache = PlanCache::new(2);
        cache.insert(key(2), v, plan, index.clone());
        cache.insert(key(3), v, plan, index.clone());
        assert!(cache.lookup(&key(2), v).is_some(), "refresh key 2");
        cache.insert(key(4), v, plan, index.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key(2), v).is_some(), "recently used survives");
        assert!(cache.lookup(&key(3), v).is_none(), "LRU entry evicted");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let v = g.version();
        let key = PlanKey {
            s: S,
            t: T,
            k: 4,
            namespace: 0,
            fingerprint: 0,
            method: None,
            tau: 100_000,
        };
        let mut cache = PlanCache::new(0);
        cache.insert(key, v, plan, index);
        assert!(cache.is_empty());
        assert!(cache.lookup(&key, v).is_none());
    }

    fn shared_key(k: u32) -> PlanKey {
        PlanKey {
            s: S,
            t: T,
            k,
            namespace: 0,
            fingerprint: 0,
            method: None,
            tau: 100_000,
        }
    }

    #[test]
    fn shared_cache_counts_consistently() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let v = g.version();
        let cache = SharedPlanCache::new(8, 4);
        assert!(cache.lookup(&shared_key(4), v).is_none());
        cache.insert(shared_key(4), v, plan, index.clone());
        assert!(cache.lookup(&shared_key(4), v).is_some());
        cache.note_bypass();

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_invalidates_by_version_and_diffs_snapshots() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let cache = SharedPlanCache::new(8, 2);
        let v1 = g.version();
        cache.insert(shared_key(4), v1, plan, index);
        let before = cache.stats();
        let v2 = GraphVersion::next();
        assert!(cache.lookup(&shared_key(4), v2).is_none());
        let delta = cache.stats().since(&before);
        assert_eq!(delta.invalidations, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.lookups, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_cache_is_safe_under_concurrent_lookups() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let v = g.version();
        let cache = SharedPlanCache::new(32, 4);
        for k in 2..6u32 {
            cache.insert(shared_key(k), v, plan, index.clone());
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..50u32 {
                        let k = 2 + (round % 4);
                        let (plan, idx) = cache.lookup(&shared_key(k), v).expect("entry present");
                        // Every hit hands out the same shared index.
                        assert_eq!(plan.query.k, idx.query().k);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 4 * 50);
        assert_eq!(stats.hits + stats.misses + stats.bypasses, stats.lookups);
    }

    #[test]
    fn shared_cache_capacity_reports_the_enforced_rounding() {
        // 10 entries over 8 shards rounds up to 2 per shard; the
        // reported capacity is the enforced 16, not the requested 10.
        let cache = SharedPlanCache::new(10, 8);
        assert_eq!(cache.num_shards(), 8);
        assert_eq!(cache.capacity(), 16);
        // Exact divisions are unchanged.
        assert_eq!(SharedPlanCache::new(8, 4).capacity(), 8);
        assert_eq!(SharedPlanCache::new(0, 4).capacity(), 0);
    }

    #[test]
    fn shared_cache_zero_capacity_disables_storage() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let cache = SharedPlanCache::new(0, 4);
        cache.insert(shared_key(4), g.version(), plan, index);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }
}
