//! Limited requests pay for what they read: method and cut are resolved
//! per request from its `limit` by one pure function
//! (`optimizer::decide`), from estimates the plan cache keeps per index.
//!
//! * Without a limit the decision is the paper's — §6.2's τ test on the
//!   preliminary estimate, then Algorithm 5's `T_DFS` vs `T_JOIN` — on
//!   random indexes at `tau` 0 and default, so every unlimited request
//!   runs what it ran before limits entered the planner.
//! * Growing the limit moves the method one way: IDX-DFS while
//!   `k · limit <= tau`, then the unlimited decision for good.
//! * One cached entry serves a `limit(10)` request (IDX-DFS, estimator
//!   skipped) and an unlimited one (estimator run once, IDX-JOIN).

use proptest::prelude::*;

use pathenum_repro::core::estimator::{preliminary_estimate, FullEstimate};
use pathenum_repro::core::plan::plan_on_index;
use pathenum_repro::core::{optimize_join_order, Index, PhaseTimings, PlanEstimates};
use pathenum_repro::graph::generators::{complete_digraph, erdos_renyi};
use pathenum_repro::prelude::*;

const DEFAULT_TAU: u64 = 100_000;

/// An Erdős–Rényi index from `0` to `1` and its plan at `tau`.
fn er_plan(n: usize, density: usize, seed: u64, k: u32, tau: u64) -> (Index, PhysicalPlan) {
    let graph = erdos_renyi(n, n * density, seed);
    let index = Index::build(&graph, Query::new(0, 1, k).expect("valid"));
    let plan = plan_on_index(&index, PathEnumConfig { tau }, &mut PhaseTimings::default());
    (index, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `limit = None` is the paper's two-step optimizer, restated here
    /// from its parts: method, cut, estimates and modeled cost.
    #[test]
    fn unlimited_decisions_are_the_papers(
        n in 8usize..40,
        density in 2usize..9,
        seed in 0u64..10_000,
        k in 2u32..7,
        tau_sel in 0u32..2,
    ) {
        let tau = [0, DEFAULT_TAU][tau_sel as usize];
        let (index, plan) = er_plan(n, density, seed, k, tau);
        let preliminary = preliminary_estimate(&index);
        prop_assert_eq!(plan.estimates.preliminary, Some(preliminary));
        prop_assert_eq!(plan.limit, None);

        if preliminary <= tau {
            prop_assert_eq!((plan.method, plan.cut), (Method::IdxDfs, None));
            prop_assert_eq!((plan.estimates.full, plan.estimates.join), (None, None));
            prop_assert_eq!(plan.modeled_cost(), preliminary.max(1));
            return Ok(());
        }
        let estimate = FullEstimate::compute(&index);
        prop_assert_eq!(plan.estimates.full, Some(estimate.total_walks()));
        let join = optimize_join_order(&index, &estimate);
        prop_assert_eq!(plan.estimates.join, join);
        let Some(join) = join else {
            prop_assert_eq!((plan.method, plan.cut), (Method::IdxDfs, None));
            prop_assert_eq!(plan.modeled_cost(), preliminary.max(1));
            return Ok(());
        };
        if join.t_dfs <= join.t_join {
            prop_assert_eq!((plan.method, plan.cut), (Method::IdxDfs, None));
            prop_assert_eq!(plan.modeled_cost(), join.t_dfs.max(1));
        } else {
            prop_assert_eq!((plan.method, plan.cut), (Method::IdxJoin, Some(join.cut)));
            prop_assert_eq!(plan.modeled_cost(), join.t_join.max(1));
        }
    }

    /// Once a limit picks IDX-JOIN every larger one does: a limit
    /// within step 1's reach streams, and every limit past it decides —
    /// and is priced — as no limit is.
    #[test]
    fn growing_the_limit_moves_the_method_one_way(
        n in 8usize..40,
        density in 2usize..9,
        seed in 0u64..10_000,
        k in 2u32..7,
        tau_sel in 0u32..2,
    ) {
        let tau = [0, DEFAULT_TAU][tau_sel as usize];
        let (_, plan) = er_plan(n, density, seed, k, tau);
        let unlimited = plan.decision_for(None).expect("plan_on_index settles it");
        let preliminary = plan.estimates.preliminary.expect("plan_on_index builds every row");

        let mut limits = vec![1u64];
        while let Some(&last) = limits.last().filter(|&&l| l <= preliminary) {
            limits.push((last * 5 / 4).max(last + 1));
        }
        limits.push(u64::MAX);

        let mut joined = false;
        for &limit in &limits {
            // A plan that skipped the estimator has a preliminary
            // estimate within tau, and then so is every bounded one.
            let decision = plan.decision_for(Some(limit)).expect("decidable at every limit");
            if preliminary.min(u64::from(k).saturating_mul(limit)) <= tau {
                prop_assert_eq!((decision.method, decision.cut), (Method::IdxDfs, None));
                prop_assert_eq!(decision.limit, Some(limit));
            } else {
                prop_assert_eq!(decision, unlimited);
            }
            let joins = decision.method == Method::IdxJoin;
            prop_assert!(joins || !joined, "limit {} on {:?}", limit, plan);
            joined = joins;
        }
    }
}

/// The named case: one cached entry, three requests, one estimator run.
#[test]
fn one_entry_serves_limited_and_unlimited_requests() {
    let graph = complete_digraph(14);
    let query = Query::new(0, 13, 6).expect("valid");
    let limited = || QueryRequest::from_query(query).limit(10).explain();
    let unlimited = || QueryRequest::from_query(query).explain();
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());

    // Step 1: 6 * 10 <= tau settles it before the index has rows, so the
    // 442 286-node search space is not even sized: the miss builds the
    // labels only.
    let first = engine.execute(&limited()).expect("valid request");
    let plan = first.plan.expect("explain reports the plan");
    assert_eq!(first.report.cache, CacheOutcome::Miss);
    assert_eq!(plan.estimates, PlanEstimates::default());
    assert_eq!((plan.method, plan.cut), (Method::IdxDfs, None));
    assert_eq!(plan.limit, Some(10));
    assert_eq!(plan.modeled_cost(), 60);
    assert_eq!(first.report.timings.optimization, std::time::Duration::ZERO);
    assert!(plan.to_string().contains("k*limit = 60 <= tau"), "{plan}");

    // The unlimited repeat hits the same entry, completes it, and takes
    // Algorithm 5's decision.
    let second = engine.execute(&unlimited()).expect("valid request");
    let full = second.plan.expect("explain reports the plan");
    assert_eq!(second.report.cache, CacheOutcome::Hit);
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(full.estimates.full, Some(193_261));
    assert_eq!((full.method, full.cut), (Method::IdxJoin, Some(3)));
    assert_eq!(full.limit, None);
    assert_eq!(
        Some(full.modeled_cost()),
        full.estimates.join.map(|j| j.t_join)
    );

    // The limited request still streams — and now reports the estimates
    // the completed entry carries, without having paid for them.
    let third = engine.execute(&limited()).expect("valid request");
    let replan = third.plan.expect("explain reports the plan");
    assert_eq!(third.report.cache, CacheOutcome::Hit);
    assert_eq!(replan.estimates.preliminary, Some(442_286));
    assert_eq!((replan.method, replan.cut), (Method::IdxDfs, None));
    assert_eq!(replan.estimates.full, Some(193_261));
    assert_eq!(replan.estimates.join.map(|j| j.cut), Some(3));
    assert_eq!(replan.modeled_cost(), 60);
    assert_eq!(third.report.timings.optimization, std::time::Duration::ZERO);
    assert!(replan.to_string().contains("not consulted"), "{replan}");
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(engine.cache_stats().hits, 2);

    // Whatever the entry went through, the unlimited plan is a cold
    // engine's, field for field.
    let mut cold = QueryEngine::new(&graph, PathEnumConfig::default());
    assert_eq!(cold.explain(&unlimited()).expect("valid request"), full);

    // With tau = 0 nothing passes step 1: the limited request runs the
    // estimator and takes the unlimited decision.
    let mut strict = QueryEngine::new(&graph, PathEnumConfig { tau: 0 });
    let priced = strict.explain(&limited()).expect("valid request");
    assert_eq!(priced, strict.explain(&unlimited()).expect("valid request"));
    assert_eq!((priced.method, priced.cut), (Method::IdxJoin, Some(3)));
    assert_eq!(priced.estimates.full, Some(193_261));
    assert_eq!(
        Some(priced.modeled_cost()),
        priced.estimates.join.map(|j| j.t_join)
    );
}

/// Accumulative and automaton requests filter complete paths, so their
/// limit never enters the pricing — and they share the unconstrained
/// entry without disturbing what it resolves for anyone else.
#[test]
fn constrained_requests_on_a_shared_entry_are_priced_as_unlimited() {
    let graph = complete_digraph(11);
    let query = Query::new(0, 10, 6).expect("valid");
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());

    let plain = engine
        .explain(&QueryRequest::from_query(query).limit(5))
        .expect("valid request");
    assert_eq!((plain.method, plain.limit), (Method::IdxDfs, Some(5)));

    let accumulative = QueryRequest::from_query(query)
        .limit(5)
        .accumulative(AccumulativeQuery {
            identity: 0u64,
            combine: |a, b| a + b,
            weight: |_, _| 1u64,
            check: |_: &u64| true,
            prune: None,
        });
    let constrained = engine.explain(&accumulative).expect("valid request");
    assert_eq!(engine.cache_stats().hits, 1, "the two share an entry");
    assert_eq!(constrained.limit, None);
    let unlimited = engine
        .explain(&QueryRequest::from_query(query))
        .expect("valid request");
    assert_eq!(
        (
            constrained.method,
            constrained.cut,
            constrained.modeled_cost()
        ),
        (unlimited.method, unlimited.cut, unlimited.modeled_cost())
    );
    assert_eq!(unlimited.method, Method::IdxJoin);
}

/// The full EXPLAIN text of the named case, pinned line for line: a cold
/// `limit(10)` miss (labels only), the unlimited request that completes
/// the entry (Algorithm 5 picks IDX-JOIN), `limit(10)` again on the
/// completed entry, and the two forced methods. README's K14 samples are
/// these plans.
#[test]
fn explain_text_is_pinned_on_k14() {
    let graph = complete_digraph(14);
    let query = Query::new(0, 13, 6).expect("valid");
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let mut explain =
        |request: QueryRequest<'_>| engine.explain(&request).expect("valid request").to_string();
    let limited = || QueryRequest::from_query(query).limit(10);
    let unlimited = || QueryRequest::from_query(query);
    let expected = [
        (
            explain(limited()),
            "PhysicalPlan q(s=0, t=13, k=6)
  method: IDX-DFS (cost-based)
  estimates: preliminary=not computed (k*limit = 60 <= tau), tau=100000, limit=10
  modeled costs: not computed (k*limit = 60 <= tau)
  index: 14 vertices, rows read on demand, 172 bytes
  constraint: none",
        ),
        (
            explain(unlimited()),
            "PhysicalPlan q(s=0, t=13, k=6)
  method: IDX-JOIN (cost-based; cut at 3)
  estimates: preliminary=442286 (tau=100000), walks=193261
  modeled costs: t_dfs=405846, t_join=196931
  index: 14 vertices, 157 edges, 1364 bytes
  constraint: none",
        ),
        (
            explain(limited()),
            "PhysicalPlan q(s=0, t=13, k=6)
  method: IDX-DFS (cost-based)
  estimates: preliminary=442286 (tau=100000), limit=10, walks=193261
  modeled costs: t_dfs=405846, t_join=196931 (not consulted: k*limit = 60 <= tau)
  index: 14 vertices, 157 edges, 1364 bytes
  constraint: none",
        ),
        (
            explain(unlimited().method(Method::IdxJoin)),
            "PhysicalPlan q(s=0, t=13, k=6)
  method: IDX-JOIN (forced; cut at 3)
  estimates: preliminary=442286 (tau=100000), walks=193261
  modeled costs: t_dfs=405846, t_join=196931
  index: 14 vertices, 157 edges, 1364 bytes
  constraint: none",
        ),
        (
            explain(limited().method(Method::IdxDfs)),
            "PhysicalPlan q(s=0, t=13, k=6)
  method: IDX-DFS (forced)
  estimates: preliminary=442286 (tau=100000)
  modeled costs: not computed (method forced)
  index: 14 vertices, 157 edges, 1364 bytes
  constraint: none",
        ),
    ];
    for (step, (text, golden)) in expected.iter().enumerate() {
        assert_eq!(text, golden, "plan {step}");
    }
}
