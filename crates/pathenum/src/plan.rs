//! The planner/executor split: explicit physical plans, `EXPLAIN`, and a
//! version-aware plan/index cache.
//!
//! The paper's central claim is that a per-query light-weight index plus
//! a cost-based choice between IDX-DFS and IDX-JOIN beats either method
//! alone. Historically that decision logic was inlined across the engine
//! and the orchestrator; this module makes the decision a *value*:
//!
//! * [`PhysicalPlan`] — everything the optimizer decided about one
//!   request (index shape, the [`PlanEstimates`] — preliminary/full
//!   estimates, the modeled costs `T_DFS`/`T_JOIN` — the [`Method`] and
//!   join cut chosen for the request's `limit`, the constraint strategy).
//!   Plans are plain `Copy` data: they can be logged, compared, and
//!   replayed.
//! * the one estimate step (crate-internal `estimate_and_decide`) — builds
//!   a request's plan from an index and what is known about it:
//!   preliminary estimate → (maybe) full estimate and join-order
//!   optimization (Figure 2's front half) → the per-request decision.
//! * [`Executor`] — interprets any plan against any
//!   [`PathSink`] (Figure 2's back half), on the calling thread.
//! * [`PlanCache`] — an LRU over `(s, t, k, constraint fingerprint,
//!   forced method, tau)` holding a built index and its
//!   [`PlanEstimates`], invalidated by the serving graph's
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
//! `limit` is therefore **not** in [`PlanKey`], and a [`PlanEntry`] keeps
//! only what no request changes: the index and its [`PlanEstimates`] —
//! the preliminary estimate and, from the first request that needs them,
//! computed outside the shard lock and written back, the full estimate
//! and Algorithm 5's output. Every plan, cold or warm, is built from an
//! index and its estimates by the one estimate step, for the request at
//! hand. [`plan_on_index`] has no request and plans as unlimited: the
//! paper's optimizer, unchanged.
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
//! expands the row's owner. A miss stores that labels-only index with
//! empty estimates. The plan layer serves only filled indexes, so the
//! first request that finds the entry — through the pipeline or through
//! [`QueryEngine::stream`](crate::QueryEngine::stream) — fills its rows
//! and level statistics, and the estimate step adds the preliminary
//! estimate; both run outside the shard lock and are written back under
//! `Arc::ptr_eq`, as the full estimate is. A stream, which reads rows,
//! completes a cold entry it has just stored the same way. A hot key pays
//! for its rows once; a key that is never reused never pays for them.
//!
//! The crate's one request pipeline (`pipeline.rs`) wires the three
//! together for every evaluator: plan-acquisition (cache lookup or the
//! cold build, then the estimate step) followed by [`Executor`]
//! dispatch, with [`QueryEngine::explain`](crate::QueryEngine::explain)
//! returning the plan without enumerating at all. An engine owns a one-shard
//! [`PlanCache`]; a [`catalog`](crate::catalog) tenant owns an N-shard one
//! that many workers share. Both are the same type, [`Sharded`] over the
//! plan layer's key and entry.
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
//! assert_eq!(response.plan, Some(plan));
//! assert_eq!(response.report.cache, pathenum::plan::CacheOutcome::Hit);
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathenum_graph::epoch::EpochMap;
use pathenum_graph::{DynamicGraph, GraphSnapshot, GraphVersion, NeighborAccess, VertexId};

use crate::bits::CompactBits;
use crate::constraints::{automaton_dfs, FilterSink};
use crate::enumerate::{idx_dfs_iterative, idx_dfs_on_demand, idx_join};
use crate::estimator::{preliminary_estimate, FullEstimate};
use crate::index::{BuildScratch, Index};
use crate::optimizer::{
    decide, optimize_join_order, Basis, Decision, JoinPlan, PathEnumConfig, PlanEstimates,
};
use crate::query::Query;
use crate::request::{CancelToken, ConstraintSpec, ControlledSink, QueryRequest, Termination};
use crate::sharded::{Retained, Sharded};
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
    /// Planned from scratch; the index and its estimates were stored
    /// for reuse.
    Miss,
    /// Served from a cached index and its estimates — no BFS, no index
    /// build.
    Hit,
    /// Served straight from the [result
    /// cache](crate::results::ResultCache): no BFS, no index build, *no
    /// enumeration* — the stored paths were replayed into the sink (as
    /// one count, when it counts only). Nothing was planned, so the
    /// response carries no plan.
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
/// Built by the one estimate step from an index and its
/// [`PlanEstimates`] (shown by
/// [`QueryEngine::explain`](crate::QueryEngine::explain)), interpreted by
/// [`Executor`]. The [`PlanCache`] keeps the index and the estimates, not
/// the plan. The `Display` form is an `EXPLAIN`-style rendering.
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
    /// What the cost model knows about the index — the plan cache
    /// entry's own estimates, which this request may have added to. The
    /// preliminary estimate (Equation 5) is `None` when step 1 settled
    /// the request on `k · limit` before the index had the rows and
    /// level statistics it is computed from: such a plan's index holds
    /// only its labels ([`Index::has_rows`] is false) and IDX-DFS reads
    /// its rows on demand. The full estimate and Algorithm 5's output
    /// are there once some request on the entry needed them, whichever
    /// method this request runs.
    pub estimates: PlanEstimates,
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

    /// What [`decide`] makes of this plan's estimates for a request with
    /// `limit` (under this plan's `k`, `tau`, forced method and
    /// constraint kind), or `None` when that takes a full estimate the
    /// plan does not carry.
    pub fn decision_for(&self, limit: Option<u64>) -> Option<Decision> {
        decide(
            &self.estimates,
            self.query.k,
            self.tau,
            self.forced.then_some(self.method),
            self.constraint,
            limit,
        )
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
            .or(self.estimates.preliminary)
            .unwrap_or(0)
            .max(1)
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
        let PlanEstimates {
            preliminary,
            full,
            join,
        } = self.estimates;
        let basis = self.decision_for(self.limit).map(|decision| decision.basis);
        match (preliminary, basis) {
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
        match full {
            Some(walks) => writeln!(f, ", walks={walks}")?,
            None => writeln!(f)?,
        }
        match (join, basis) {
            (Some(JoinPlan { t_dfs, t_join, .. }), basis) => {
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
                        if preliminary.is_none_or(|p| p > self.tau) =>
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
        match preliminary {
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

/// Plans on a prebuilt index: the estimate-then-optimize half of Figure 2,
/// recording the estimation and optimization phases into `timings`.
///
/// This is the one estimate step (`estimate_and_decide`) with nothing
/// known yet, unforced and unlimited — the paper's optimizer as it
/// stands. The benchmark's staged driver (`benchmark/src/trace.rs`)
/// calls it to time each phase on an index it built itself. `index`
/// must have its rows (every [`Index::build`] does).
pub fn plan_on_index(
    index: &Index,
    config: PathEnumConfig,
    timings: &mut PhaseTimings,
) -> PhysicalPlan {
    let request = QueryRequest::from_query(index.query());
    estimate_and_decide(index, PlanEstimates::default(), &request, config, timings)
}

/// The one estimate step: every plan — a cold one, a plan hit, a
/// stream's completion, [`plan_on_index`] — is built here, from `index`
/// and the `estimates` already known about it (nothing after a cold
/// build, the entry's on a hit).
///
/// The preliminary estimate is computed when the index has its rows and
/// `estimates` lacks it; the full estimator and Algorithm 5 run only when
/// [`decide`] cannot settle `request` without them — at most once per
/// entry, whatever requests it goes on to serve. The plan is `request`'s
/// decision under `config`, the estimates, and the index's shape. Time
/// goes to `preliminary_estimation` and `optimization`. A caller holding
/// a cache entry writes back when the plan's estimates differ from the
/// ones it passed in.
pub(crate) fn estimate_and_decide(
    index: &Index,
    mut estimates: PlanEstimates,
    request: &QueryRequest<'_>,
    config: PathEnumConfig,
    timings: &mut PhaseTimings,
) -> PhysicalPlan {
    if estimates.preliminary.is_none() && index.has_rows() {
        let prelim_start = Instant::now();
        estimates.preliminary = Some(preliminary_estimate(index));
        timings.preliminary_estimation += prelim_start.elapsed();
    }
    let query = index.query();
    let constraint = request.constraint.kind();
    let decide_on = |estimates: &PlanEstimates| {
        decide(
            estimates,
            query.k,
            config.tau,
            request.method,
            constraint,
            request.limit,
        )
    };
    let mut decision = decide_on(&estimates);
    if decision.is_none() && index.has_rows() {
        let opt_start = Instant::now();
        let estimate = FullEstimate::compute(index); // alloc: setup
        estimates.join = optimize_join_order(index, &estimate);
        estimates.full = Some(estimate.total_walks());
        timings.optimization += opt_start.elapsed();
        decision = decide_on(&estimates);
    }
    debug_assert!(
        decision.is_some(),
        "step 1 settles every labels-only plan, a full estimate every other"
    );
    // IDX-DFS serves any index; only a broken invariant falls back to it.
    let (method, cut, limit) =
        decision.map_or((Method::IdxDfs, None, None), |d| (d.method, d.cut, d.limit));
    PhysicalPlan {
        query,
        method,
        cut,
        forced: request.method.is_some(),
        limit,
        estimates,
        tau: config.tau,
        constraint,
        index_vertices: index.num_vertices(),
        index_edges: index.num_edges(),
        index_bytes: index.heap_bytes(),
    }
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
    /// The cut an IDX-JOIN plan joins at.
    fn join_cut_of(plan: &PhysicalPlan) -> u32 {
        // lint: allow(no-panic) — `decide` sets a cut exactly when the method is IDX-JOIN.
        plan.cut.expect("plans carry a cut for IDX-JOIN")
    }

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
                idx_join(index, Self::join_cut_of(plan), sink, &mut counters);
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
                idx_join(index, Self::join_cut_of(plan), &mut control, &mut counters);
            }
            (ConstraintSpec::Accumulative(acc), Method::IdxDfs) => {
                acc.dfs(index, &mut control, &mut counters);
            }
            (
                ConstraintSpec::Automaton {
                    automaton,
                    label_of,
                },
                Method::IdxDfs,
            ) => {
                automaton_dfs(index, automaton, label_of, &mut control, &mut counters);
            }
            (
                ConstraintSpec::Accumulative(_) | ConstraintSpec::Automaton { .. },
                Method::IdxJoin,
            ) => {
                let mut accepted =
                    FilterSink::new(|path: &[VertexId]| constraint.accepts(path), &mut control);
                idx_join(index, Self::join_cut_of(plan), &mut accepted, &mut counters);
                // Joined paths the constraint rejects are not results of
                // the constrained query.
                counters.results -= accepted.rejected;
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
/// the driver's `tau`, so entries made under different configurations
/// never alias when a cache moves between engines.
///
/// The [result layer](crate::results::ResultCache) keys on it too: it
/// is the full identity of an answer, bounds (`limit`, time budget)
/// excluded. Accumulative and automaton requests share namespace 0 with
/// the unconstrained request's plan but are never result-cached.
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
    /// The preliminary-estimate threshold of the driver's
    /// [`PathEnumConfig`].
    pub tau: u64,
}

impl PlanKey {
    /// The cache key for a request planned under `config`, or `None`
    /// when the constraint is uncacheable (an unfingerprinted predicate).
    /// Bypass flags and cache capacity are the caller's concern.
    pub(crate) fn for_request(
        request: &QueryRequest<'_>,
        config: PathEnumConfig,
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
                tau: config.tau,
            })
    }
}

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
/// the delta provably cannot change what the entry holds. Both layers
/// run the one retention walk (`VersionedLru` in `sharded.rs`); each
/// hands it its own rule for a removed edge:
///
/// * a **deleted** edge invalidates a *plan* entry only when both
///   endpoints are in its index partition `X` — only such edges can
///   appear in the index's neighbor tables, which the entry caches — and
///   a *result* entry only when it leaves the `s`-reach and enters the
///   `t`-reach, as every edge of every result path does;
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
    /// `s`-reach and whether it ends inside the `t`-reach. The retention
    /// walk accumulates these as sticky flags; an entry dies once both
    /// have ever been set.
    pub(crate) fn insertion_touches(&self, u: VertexId, w: VertexId) -> (bool, bool) {
        (self.reach_s.contains(u), self.reach_t.contains(w))
    }

    /// Approximate heap footprint of the two reach sets, in bytes —
    /// byte-budgeted caches charge footprint-carrying entries for them.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.reach_s.heap_bytes() + self.reach_t.heap_bytes()
    }
}

/// One [`PlanCache`] entry: what no request changes — an index and what
/// the cost model knows about it. Nothing of any request's decision is
/// kept; each reader's plan is built from the entry by the one estimate
/// step.
#[derive(Debug)]
pub struct PlanEntry {
    /// Shared so a hit can hand the index to an executing worker without
    /// cloning the tables and without holding the shard lock for the
    /// duration of the query.
    index: Arc<Index>,
    /// The preliminary estimate once the index has its rows; the full
    /// estimate and Algorithm 5's output once some request needed them.
    estimates: PlanEstimates,
}

impl Retained for PlanEntry {
    fn removal_invalidates(&self, _: &IndexFootprint, u: VertexId, w: VertexId) -> bool {
        // Only edges with both endpoints in X can sit in the index's
        // neighbor tables or on a result path.
        self.index.vertices.binary_search(&u).is_ok()
            && self.index.vertices.binary_search(&w).is_ok()
    }
}

/// Default number of cached plans per engine. An entry holds a
/// light-weight index (typically a few KB; bounded by the per-query
/// admissible subgraph), so the default keeps worst-case cache memory in
/// the low megabytes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// An LRU cache of indexes and their [`PlanEstimates`] keyed by [`PlanKey`]
/// and guarded by a [`GraphVersion`] epoch: [`Sharded`] over the plan
/// layer's entries, each charged 1 against an entry budget.
///
/// A lookup whose stored version differs from the serving graph's
/// current version discards the entry (counted as an invalidation): a
/// [`DynamicGraph`] mutation advances the
/// epoch, so snapshots taken after a mutation can never be served stale
/// plans, while snapshots of an unmutated overlay keep hitting. The one
/// exception is surgical retention: when the serving graph offers its
/// mutation log (a [`DynamicGraph`] served in place), a stale entry
/// whose footprint the delta provably never touched is re-stamped and
/// kept, counted in [`CacheStats::retained`](crate::CacheStats::retained).
///
/// [`new`](Self::new) builds the one-shard cache an engine owns; the
/// cache is an independent value so it can outlive any single engine:
/// move it between engines over successive snapshots with
/// [`QueryEngine::with_cache`](crate::QueryEngine::with_cache) /
/// [`QueryEngine::into_cache`](crate::QueryEngine::into_cache). A
/// [`catalog`](crate::catalog) tenant's cache is built with
/// [`with_shards`](Sharded::with_shards); a worker holding a hit
/// *executes outside the lock* (entries hand out [`Arc<Index>`] clones).
pub type PlanCache = Sharded<PlanKey, PlanEntry>;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A one-shard cache holding at most `capacity` entries. Capacity 0
    /// disables caching entirely (every lookup misses, nothing is
    /// stored).
    pub fn new(capacity: usize) -> Self {
        Sharded::with_shards(capacity, 1)
    }

    /// Total entry capacity across all shards (the rounded, enforced
    /// value).
    pub fn capacity(&self) -> usize {
        self.budget()
    }

    /// Looks up an entry for `key` against the serving graph `at`: a
    /// current entry hits, and a version-stale one is re-validated
    /// against the graph's mutation log (see [`IndexFootprint`]) — served
    /// as a retained hit instead of a rebuild — or removed.
    pub(crate) fn lookup<'g>(
        &self,
        key: &PlanKey,
        at: impl Into<GraphStamp<'g>>,
    ) -> Option<(Arc<Index>, PlanEstimates)> {
        let at = at.into();
        self.with_shard(key, |lru| {
            lru.lookup(key, at, |entry| {
                Some((Arc::clone(&entry.index), entry.estimates))
            })
        })
    }

    /// Completes the entry for `key` with what a reader computed, outside
    /// any lock, from the `seen` index a [`lookup`](Self::lookup) handed
    /// it: `index` — `seen` itself, or `seen` with its rows filled in
    /// place of the labels — and `estimates`. Only the estimates the
    /// entry lacks are taken. A no-op unless the entry still holds
    /// `seen`. Not a lookup: no counter moves.
    pub(crate) fn write_back(
        &self,
        key: &PlanKey,
        seen: &Arc<Index>,
        index: &Arc<Index>,
        estimates: &PlanEstimates,
    ) {
        self.with_shard(key, |lru| {
            let Some((_, entry)) = lru.get_mut(key) else {
                return;
            };
            if !Arc::ptr_eq(&entry.index, seen) {
                return;
            }
            entry.index = Arc::clone(index);
            let kept = &mut entry.estimates;
            kept.preliminary = kept.preliminary.or(estimates.preliminary);
            if kept.full.is_none() {
                kept.full = estimates.full;
                kept.join = estimates.join;
            }
        });
    }

    /// Stores a (shared) index and its estimates for `key` at `version`, evicting
    /// the least recently used entry of its shard when that is full. A
    /// `footprint` makes the entry eligible for surgical retention when a
    /// later [`lookup`](Self::lookup) comes with a mutation log.
    pub(crate) fn insert_with_footprint(
        &self,
        key: PlanKey,
        version: GraphVersion,
        index: Arc<Index>,
        estimates: PlanEstimates,
        footprint: Option<IndexFootprint>,
    ) {
        self.with_shard(&key, |lru| {
            lru.insert(key, version, PlanEntry { index, estimates }, footprint, 1)
        });
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
        fn insert(&self, key: PlanKey, version: GraphVersion, plan: PhysicalPlan, index: Index) {
            self.insert_with_footprint(key, version, Arc::new(index), plan.estimates, None);
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

        Index::build_with(&g, query, &mut scratch, true);
        let footprint =
            IndexFootprint::capture(lineage, &scratch, 4).expect("two-pass maps are full reach");
        assert_eq!(footprint.insertion_touches(V[0], V[2]), (true, true));
        assert_eq!(footprint.insertion_touches(V[7], V[7]), (false, false));

        // The flag follows the last build, not the first.
        Index::build_with(&g, query, &mut scratch, false);
        assert!(IndexFootprint::capture(lineage, &scratch, 4).is_none());
    }

    #[test]
    fn forced_join_plans_carry_cut_and_costs() {
        let g = figure1_graph();
        let query = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, query);
        let request = QueryRequest::from_query(query).method(Method::IdxJoin);
        let mut timings = PhaseTimings::default();
        let plan = estimate_and_decide(
            &index,
            PlanEstimates::default(),
            &request,
            PathEnumConfig::default(),
            &mut timings,
        );
        assert_eq!(plan.method, Method::IdxJoin);
        assert!(plan.forced);
        let cut = plan.cut.unwrap();
        assert!((1..4).contains(&cut));
        assert!(plan.estimates.join.is_some());
        assert!(plan.estimates.full.is_some());
    }

    #[test]
    fn tau_zero_routes_through_the_optimizer() {
        let g = figure1_graph();
        let query = Query::new(S, T, 4).unwrap();
        let index = Index::build(&g, query);
        let mut timings = PhaseTimings::default();
        let plan = plan_on_index(&index, PathEnumConfig { tau: 0 }, &mut timings);
        assert_eq!(plan.estimates.full, Some(6), "Figure 1, k=4 has 6 walks");
        assert!(plan.estimates.join.is_some());
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
        let cache = PlanCache::new(4);
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
        let cache = PlanCache::new(2);
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
        let cache = PlanCache::new(0);
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
        let cache = PlanCache::with_shards(8, 4);
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
        let cache = PlanCache::with_shards(8, 2);
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
        let cache = PlanCache::with_shards(32, 4);
        for k in 2..6u32 {
            cache.insert(shared_key(k), v, plan, index.clone());
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..50u32 {
                        let k = 2 + (round % 4);
                        let (idx, estimates) =
                            cache.lookup(&shared_key(k), v).expect("entry present");
                        // Every hit hands out the shared index and its estimates.
                        assert_eq!(idx.query(), plan.query);
                        assert_eq!(estimates, plan.estimates);
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
        let cache = PlanCache::with_shards(10, 8);
        assert_eq!(cache.capacity(), 16);
        // Exact divisions are unchanged.
        assert_eq!(PlanCache::with_shards(8, 4).capacity(), 8);
        assert_eq!(PlanCache::with_shards(0, 4).capacity(), 0);
    }

    #[test]
    fn shared_cache_zero_capacity_disables_storage() {
        let g = figure1_graph();
        let (plan, index) = plan_for(&g, 4);
        let cache = PlanCache::with_shards(0, 4);
        cache.insert(shared_key(4), g.version(), plan, index);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 0);
    }
}
