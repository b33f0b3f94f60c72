//! Join-order optimization, the per-request method decision, and the
//! orchestrator's configuration (Sections 6.2–6.3, 3.2 / Figure 2).
//!
//! # One decision, taken per request
//!
//! [`decide`] is the only place a method and a cut are chosen. It is a
//! pure function of what the cost model knows about an index
//! ([`PlanEstimates`]) and of the request — `k`, `tau`, a forced method,
//! the constraint kind, and the result `limit` — so the same estimates
//! can serve requests with different limits from one cached index: a
//! plan cache entry is exactly an index and its `PlanEstimates`. In the
//! cost model's own unit (search-tree nodes over walks):
//!
//! 1. **§6.2's test on what the request can read.**
//!    `bounded = min(preliminary, k · limit)`; `bounded <= tau` ⇒ IDX-DFS,
//!    and neither the full estimator nor Algorithm 5 is needed. The
//!    paper tests `preliminary` alone; this is the one departure. When
//!    `k · limit <= tau` the preliminary estimate cannot change the
//!    outcome, so the pipeline asks before building anything
//!    ([`PlanEstimates::default`], no estimate at all): a request settled
//!    there builds only the index's labels and its cost is `k · limit`.
//! 2. **Algorithm 5, unchanged.** Otherwise `T_DFS` against `T_JOIN`,
//!    priced for full enumeration whatever the limit: a limit too large
//!    for step 1 decides exactly as no limit does.
//!
//! Why `k · limit` bounds the walk a limited IDX-DFS makes: the index
//! keeps a vertex at level `i` only if `t` is reachable from it in the
//! remaining `k − i` hops, so every partial result extends to a result
//! walk. The search-tree nodes visited before the `L`-th leaf all lie on
//! root-to-leaf paths of those `L` leaves, `k` nodes each: at most
//! `k · L` — the unit Equation 5's estimate is in.
//!
//! Two guards are properties of the input, not tunables. A **forced**
//! method is never second-guessed. **Accumulative and automaton**
//! constraints filter *complete* paths, so `limit` accepted results can
//! need unboundedly many walks: those requests are priced as unlimited.
//! Predicate requests enumerate an index built on the filtered graph and
//! get the rule above.
//!
//! Results cannot depend on any of this: both methods enumerate the same
//! index, and a response equals a run forced to the method it reports.

use crate::estimator::FullEstimate;
use crate::index::Index;
use crate::plan::ConstraintKind;
use crate::stats::Method;

/// Output of Algorithm 5: the chosen cut and the modeled costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPlan {
    /// Cut position `i*` minimizing `|Q[0:i]| + |Q[i:k]|` over `0 < i < k`.
    pub cut: u32,
    /// Modeled cost of the left-deep DFS order
    /// (`T_DFS = sum_{1<=i<=k} |Q[0:i]|`).
    pub t_dfs: u64,
    /// Modeled cost of the bushy order
    /// (`T_JOIN = |Q| + sum_{1<=i<=i*} |Q[0:i]| + sum_{i*<=i<=k} |Q[i:k]|`).
    pub t_join: u64,
}

/// What the cost model knows about one index: the limit-independent
/// half of a plan. A [`PlanCache`](crate::plan::PlanCache) entry is an
/// index and its `PlanEstimates`, nothing else; every request's
/// [`PhysicalPlan`](crate::plan::PhysicalPlan) carries a copy. The
/// `Default` is what is known before the index is built: nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanEstimates {
    /// Preliminary search-space estimate (Equation 5), once the index
    /// has the rows it is computed from: `None` before the build, and on
    /// an index that holds only its labels.
    pub preliminary: Option<u64>,
    /// `|Q|` from the full estimator, once it has run.
    pub full: Option<u64>,
    /// Algorithm 5's output, once it has run and found an interior cut.
    pub join: Option<JoinPlan>,
}

/// Why [`decide`] chose what it chose — what `EXPLAIN` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// The method was forced; no comparison was made.
    Forced,
    /// Step 1: the search space the request can read,
    /// `bounded = min(preliminary, k · limit)`, is at most `tau`.
    Bounded {
        /// The bounded search space.
        bounded: u64,
    },
    /// The optimizer ran and found no interior cut (`k < 2`).
    NoInteriorCut,
    /// Step 2: Algorithm 5's `T_DFS` against `T_JOIN`.
    Costed,
}

/// What one request runs, and what it is modeled to cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The enumeration strategy.
    pub method: Method,
    /// Join cut position; `Some` exactly when `method` is IDX-JOIN.
    pub cut: Option<u32>,
    /// The modeled price of what will run: `bounded` on step 1, the
    /// chosen method's `T_DFS` / `T_JOIN` on step 2.
    pub cost: u64,
    /// The result limit that entered the pricing: the request's on step
    /// 1, `None` everywhere else (no limit, a guard kept it out, or it
    /// was too large for step 1).
    pub limit: Option<u64>,
    /// How the decision was reached.
    pub basis: Basis,
}

/// Decides method and cut for one request from the estimates its plan
/// carries (see the [module docs](self) for the rule). Returns `None`
/// when the decision needs an estimate `estimates` does not carry yet —
/// the full estimator's, or the preliminary one when `k · limit` alone
/// does not settle step 1 — and the caller computes it and asks again.
/// With no estimate at all, `Some` means step 1 settled the request on
/// `k · limit` alone, before any row of the index exists.
pub fn decide(
    estimates: &PlanEstimates,
    k: u32,
    tau: u64,
    force: Option<Method>,
    constraint: ConstraintKind,
    limit: Option<u64>,
) -> Option<Decision> {
    let PlanEstimates {
        preliminary,
        full,
        join,
    } = *estimates;
    if let Some(method) = force {
        return match method {
            Method::IdxDfs => Some(Decision {
                method,
                cut: None,
                cost: join.map(|j| j.t_dfs).or(preliminary)?,
                limit: None,
                basis: Basis::Forced,
            }),
            // Forced IDX-JOIN still needs the optimizer to pick a cut.
            Method::IdxJoin => full.and_then(|_| {
                Some(Decision {
                    method,
                    cut: Some(
                        join.map_or(k / 2, |j| j.cut)
                            .clamp(1, k.saturating_sub(1).max(1)),
                    ),
                    cost: join.map(|j| j.t_join).or(preliminary)?,
                    limit: None,
                    basis: Basis::Forced,
                })
            }),
        };
    }
    let limit = match constraint {
        ConstraintKind::None | ConstraintKind::Predicate => limit,
        // These filter complete paths: `limit` accepted results can take
        // any number of walks.
        ConstraintKind::Accumulative | ConstraintKind::Automaton => None,
    };
    let by_limit = limit.map(|l| u64::from(k).saturating_mul(l));
    // A missing preliminary can only make `bounded` larger, so a bound
    // within tau settles step 1 either way.
    let bounded = preliminary.into_iter().chain(by_limit).min()?;
    if bounded <= tau {
        return Some(Decision {
            method: Method::IdxDfs,
            cut: None,
            cost: bounded,
            limit,
            basis: Basis::Bounded { bounded },
        });
    }
    // Past step 1 the limit prices nothing: what follows is the
    // unlimited decision.
    let preliminary = preliminary?;
    full?;
    Some(match join {
        None => Decision {
            method: Method::IdxDfs,
            cut: None,
            cost: preliminary,
            limit: None,
            basis: Basis::NoInteriorCut,
        },
        Some(join) if join.t_dfs <= join.t_join => Decision {
            method: Method::IdxDfs,
            cut: None,
            cost: join.t_dfs,
            limit: None,
            basis: Basis::Costed,
        },
        Some(join) => Decision {
            method: Method::IdxJoin,
            cut: Some(join.cut),
            cost: join.t_join,
            limit: None,
            basis: Basis::Costed,
        },
    })
}

/// Algorithm 5: runs the full-fledged estimator and picks the cut
/// position. Returns `None` when `k < 2` leaves no interior cut (cannot
/// happen for valid queries) or the index is empty.
pub fn optimize_join_order(index: &Index, estimate: &FullEstimate) -> Option<JoinPlan> {
    let k = index.k();
    if index.is_empty() || k < 2 {
        return None;
    }
    let mut best_cut = 1u32;
    let mut best_cost = u64::MAX;
    for i in 1..k {
        let cost = estimate
            .prefix_sum(i)
            .saturating_add(estimate.suffix_sum(i));
        if cost < best_cost {
            best_cost = cost;
            best_cut = i;
        }
    }
    let t_dfs = (1..=k).fold(0u64, |acc, i| acc.saturating_add(estimate.prefix_sum(i)));
    let mut t_join = estimate.total_walks();
    for i in 1..=best_cut {
        t_join = t_join.saturating_add(estimate.prefix_sum(i));
    }
    for i in best_cut..=k {
        t_join = t_join.saturating_add(estimate.suffix_sum(i));
    }
    Some(JoinPlan {
        cut: best_cut,
        t_dfs,
        t_join,
    })
}

/// Configuration of the PathEnum orchestrator. A request forces a
/// method with [`QueryRequest::method`](crate::QueryRequest::method).
#[derive(Debug, Clone, Copy)]
pub struct PathEnumConfig {
    /// Threshold `tau` on the preliminary estimate below which IDX-DFS runs
    /// directly, skipping join-order optimization (Section 6.2; the paper
    /// uses `1e5`).
    pub tau: u64,
}

impl Default for PathEnumConfig {
    fn default() -> Self {
        PathEnumConfig { tau: 100_000 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{PhysicalPlan, QueryEngine, QueryRequest, RunReport};

    /// Runs `request` through a fresh engine into `sink`: what the run
    /// measured and the plan it ran.
    fn run(
        graph: &pathenum_graph::CsrGraph,
        config: PathEnumConfig,
        request: &QueryRequest<'_>,
        sink: &mut dyn crate::sink::PathSink,
    ) -> (RunReport, PhysicalPlan) {
        let mut engine = QueryEngine::new(graph, config);
        let response = engine.execute_into(request, sink).unwrap();
        (
            response.report,
            response.plan.expect("every run here plans"),
        )
    }

    #[test]
    fn default_config_answers_small_queries_with_dfs() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let mut sink = CollectingSink::default();
        let request = QueryRequest::from_query(q);
        let (report, plan) = run(&g, PathEnumConfig::default(), &request, &mut sink);
        assert_eq!(plan.method, Method::IdxDfs);
        assert_eq!(report.counters.results, 5);
        assert_eq!(sink.paths.len(), 5);
        assert!(plan.estimates.preliminary.is_some_and(|p| p <= 100_000));
    }

    #[test]
    fn tau_zero_routes_through_optimizer() {
        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let mut sink = CountingSink::default();
        let request = QueryRequest::from_query(q);
        let (_, plan) = run(&g, PathEnumConfig { tau: 0 }, &request, &mut sink);
        assert_eq!(sink.count, 5);
        // The exact walk count on Figure 1, k=4 is 6 (5 paths + 1 walk
        // (s, v0, v6, v0, t)).
        assert_eq!(plan.estimates.full, Some(6));
    }

    #[test]
    fn forced_methods_agree() {
        let g = pathenum_graph::generators::erdos_renyi(60, 400, 5);
        let q = Query::new(0, 1, 4).unwrap();
        let mut dfs_sink = CollectingSink::default();
        let mut join_sink = CollectingSink::default();
        let dfs = QueryRequest::from_query(q).method(Method::IdxDfs);
        let join = QueryRequest::from_query(q).method(Method::IdxJoin);
        let (_, p1) = run(&g, PathEnumConfig::default(), &dfs, &mut dfs_sink);
        let (_, p2) = run(&g, PathEnumConfig::default(), &join, &mut join_sink);
        assert_eq!(p1.method, Method::IdxDfs);
        assert_eq!(p2.method, Method::IdxJoin);
        assert_eq!(dfs_sink.sorted_paths(), join_sink.sorted_paths());
    }

    #[test]
    fn plan_costs_are_consistent() {
        let g = pathenum_graph::generators::complete_digraph(10);
        let q = Query::new(0, 9, 5).unwrap();
        let index = Index::build(&g, q);
        let estimate = FullEstimate::compute(&index);
        let plan = optimize_join_order(&index, &estimate).unwrap();
        assert!(plan.cut >= 1 && plan.cut < 5);
        assert!(plan.t_join >= estimate.total_walks());
        assert!(
            plan.t_dfs >= estimate.total_walks(),
            "DFS cost includes the final level"
        );
    }

    #[test]
    fn empty_query_reports_zero() {
        let g = figure1_graph();
        let q = Query::new(T, S, 4).unwrap();
        let mut sink = CountingSink::default();
        let request = QueryRequest::from_query(q);
        let (report, plan) = run(&g, PathEnumConfig::default(), &request, &mut sink);
        assert_eq!(report.counters.results, 0);
        assert_eq!(plan.estimates.preliminary, Some(0));
        assert_eq!(plan.index_edges, 0);
    }

    #[test]
    fn optimizer_picks_join_when_modeled_cheaper() {
        // On a dense graph with a long hop constraint the bushy plan's
        // modeled cost (meeting in the middle) undercuts the left-deep
        // plan, which materializes the full prefix growth at every level.
        let g = pathenum_graph::generators::complete_digraph(12);
        let q = Query::new(0, 11, 6).unwrap();
        let index = Index::build(&g, q);
        let estimate = FullEstimate::compute(&index);
        let plan = optimize_join_order(&index, &estimate).unwrap();
        // Sanity: both costs are large; record which wins rather than
        // assert a direction — but the cut must be near the middle.
        assert!((2..=4).contains(&plan.cut), "cut {}", plan.cut);
    }

    /// `complete_digraph(14)`, `q(0, 13, 6)`: Algorithm 5's numbers.
    const K14: PlanEstimates = PlanEstimates {
        preliminary: Some(442_286),
        full: Some(193_261),
        join: Some(JoinPlan {
            cut: 3,
            t_dfs: 405_846,
            t_join: 196_931,
        }),
    };
    const TAU: u64 = 100_000;

    fn decide_k14(tau: u64, constraint: ConstraintKind, limit: Option<u64>) -> Decision {
        decide(&K14, 6, tau, None, constraint, limit).expect("the estimates are complete")
    }

    #[test]
    fn a_limit_the_search_space_bound_covers_skips_the_optimizer() {
        let preliminary_only = PlanEstimates {
            full: None,
            join: None,
            ..K14
        };
        let limited = decide(
            &preliminary_only,
            6,
            TAU,
            None,
            ConstraintKind::None,
            Some(10),
        )
        .expect("step 1 needs no full estimate");
        assert_eq!((limited.method, limited.cut), (Method::IdxDfs, None));
        assert_eq!(limited.cost, 60);
        assert_eq!(limited.basis, Basis::Bounded { bounded: 60 });
        // The same estimates cannot settle the unlimited request...
        let unlimited = decide(&preliminary_only, 6, TAU, None, ConstraintKind::None, None);
        assert_eq!(unlimited, None);
        // ...and once complete, they settle it as Algorithm 5 does.
        let unlimited = decide_k14(TAU, ConstraintKind::None, None);
        assert_eq!(
            (unlimited.method, unlimited.cut),
            (Method::IdxJoin, Some(3))
        );
        assert_eq!(unlimited.cost, 196_931);
        assert_eq!(unlimited.limit, None);
    }

    #[test]
    fn a_limit_too_large_for_step_one_decides_as_no_limit_does() {
        let unlimited = decide_k14(TAU, ConstraintKind::None, None);
        // 6 * 16 666 <= tau < 6 * 16 667.
        let last = decide_k14(TAU, ConstraintKind::None, Some(16_666));
        assert_eq!(last.basis, Basis::Bounded { bounded: 99_996 });
        for limit in [16_667, 193_261, u64::MAX] {
            let past = decide_k14(TAU, ConstraintKind::None, Some(limit));
            assert_eq!(past, unlimited, "limit {limit}");
        }
        // tau = 0 sends every limit to Algorithm 5.
        let ten = decide_k14(0, ConstraintKind::None, Some(10));
        assert_eq!(ten, decide_k14(0, ConstraintKind::None, None));
        assert_eq!((ten.method, ten.cost), (Method::IdxJoin, 196_931));
    }

    #[test]
    fn arithmetic_saturates_instead_of_wrapping() {
        let huge = PlanEstimates {
            preliminary: Some(u64::MAX),
            full: Some(u64::MAX),
            join: Some(JoinPlan {
                cut: 2,
                t_dfs: u64::MAX,
                t_join: u64::MAX,
            }),
        };
        for limit in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
            let decision = decide(
                &huge,
                u32::MAX,
                TAU,
                None,
                ConstraintKind::None,
                Some(limit),
            )
            .expect("the estimates are complete");
            // k * limit saturates, so `bounded` stays the preliminary.
            assert_eq!(decision.basis, Basis::Costed);
            assert_eq!(decision.cost, u64::MAX);
        }
        let one = decide(&huge, 6, TAU, None, ConstraintKind::None, Some(1));
        assert_eq!(one.map(|d| d.basis), Some(Basis::Bounded { bounded: 6 }));
    }

    #[test]
    fn constraints_that_filter_complete_paths_are_priced_as_unlimited() {
        let unlimited = decide_k14(TAU, ConstraintKind::None, None);
        for constraint in [ConstraintKind::Accumulative, ConstraintKind::Automaton] {
            for limit in [1, 10, 100_000] {
                assert_eq!(decide_k14(TAU, constraint, Some(limit)), unlimited);
            }
        }
        // A predicate's index is built on the filtered graph: its walks
        // are result walks, and the limit counts.
        let predicate = decide_k14(TAU, ConstraintKind::Predicate, Some(10));
        assert_eq!(predicate, decide_k14(TAU, ConstraintKind::None, Some(10)));
        assert_eq!(predicate.limit, Some(10));
    }

    #[test]
    fn forced_methods_ignore_the_limit() {
        for limit in [None, Some(1), Some(u64::MAX)] {
            let dfs = decide(
                &K14,
                6,
                TAU,
                Some(Method::IdxDfs),
                ConstraintKind::None,
                limit,
            )
            .expect("forced IDX-DFS needs no estimate");
            assert_eq!(
                (dfs.method, dfs.cut, dfs.cost),
                (Method::IdxDfs, None, 405_846)
            );
            let join = decide(
                &K14,
                6,
                TAU,
                Some(Method::IdxJoin),
                ConstraintKind::None,
                limit,
            )
            .expect("the optimizer ran");
            assert_eq!(
                (join.method, join.cut, join.cost),
                (Method::IdxJoin, Some(3), 196_931)
            );
            assert_eq!((dfs.limit, join.limit), (None, None));
        }
        // Forced IDX-JOIN waits for the optimizer's cut.
        let pending = PlanEstimates {
            full: None,
            join: None,
            ..K14
        };
        let join = decide(
            &pending,
            6,
            TAU,
            Some(Method::IdxJoin),
            ConstraintKind::None,
            None,
        );
        assert_eq!(join, None);
    }
}
