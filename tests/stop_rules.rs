//! The stopping rules on the sequential executor, under both forced
//! methods: a `CancelToken` fired from a second thread mid-run stops the
//! search and is *reported* as `Termination::Cancelled`; a deadline
//! expiring mid-run reports `Termination::DeadlineExceeded`; `limit(n)`
//! delivers exactly `n` paths; and whatever an early stop delivers is a
//! genuine result.
//!
//! IDX-JOIN materializes both sides of its cut before it emits, so a rule
//! that fires early stops it inside materialization, where only
//! `PathSink::probe` reaches the rules; IDX-DFS is stopped between
//! emissions or inside a barren subtree.
//!
//! CI runs this file under `--test-threads=1` so the timing-sensitive
//! deadline assertions are not perturbed by sibling tests.

use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

use pathenum_repro::graph::generators::complete_digraph;
use pathenum_repro::prelude::*;

/// Every test runs once per forced method.
const METHODS: [Method; 2] = [Method::IdxDfs, Method::IdxJoin];

/// How long a rule may take to stop the search: generous, because the
/// machine running the suite may be loaded. An unstopped search runs
/// for far longer.
const PROPAGATION_BOUND: Duration = Duration::from_secs(20);

/// A dense graph whose k-hop search space is far too large to exhaust
/// quickly: the mid-run rules below must fire while the search is busy.
fn heavy_graph() -> CsrGraph {
    complete_digraph(15)
}

fn heavy_request(method: Method) -> QueryRequest<'static> {
    QueryRequest::paths(0, 14).max_hops(8).method(method)
}

/// Counts paths and signals `started` the first time the search reaches
/// it, so a second thread can act once enumeration is under way.
struct SignalOnStart {
    started: Option<Sender<()>>,
    paths: u64,
}

impl SignalOnStart {
    fn new(started: Sender<()>) -> Self {
        SignalOnStart {
            started: Some(started),
            paths: 0,
        }
    }

    fn signal(&mut self) {
        if let Some(started) = self.started.take() {
            // The receiver outlives the run; a send error means the
            // test already failed elsewhere.
            let _ = started.send(());
        }
    }
}

impl PathSink for SignalOnStart {
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.signal();
        self.paths += 1;
        SearchControl::Continue
    }

    fn probe(&mut self) -> SearchControl {
        self.signal();
        SearchControl::Continue
    }
}

/// Runs `request` on the heavy graph and fires `token` from a second
/// thread once the search has started; returns the response and the
/// run's wall-clock time.
fn cancel_mid_run(request: QueryRequest<'static>, token: CancelToken) -> (QueryResponse, Duration) {
    let graph = heavy_graph();
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    let (started, on_start) = channel();
    let canceller = std::thread::spawn(move || {
        on_start
            .recv_timeout(PROPAGATION_BOUND)
            .expect("the search starts");
        token.cancel();
    });
    let mut sink = SignalOnStart::new(started);
    let start = Instant::now();
    let response = engine
        .execute_into(&request, &mut sink)
        .expect("valid request");
    let wall = start.elapsed();
    canceller.join().expect("canceller thread exits");
    assert_eq!(response.num_results(), sink.paths);
    (response, wall)
}

#[test]
fn cancel_fired_mid_run_stops_the_search() {
    for method in METHODS {
        let token = CancelToken::new();
        let (response, wall) =
            cancel_mid_run(heavy_request(method).cancel_token(token.clone()), token);
        assert_eq!(response.termination, Termination::Cancelled, "{method}");
        assert_eq!(response.report.method, method);
        // The search observed the token through the probe stride: the
        // run ended nowhere near the (effectively unbounded) full
        // enumeration.
        assert!(
            wall < PROPAGATION_BOUND,
            "{method}: cancellation took {wall:?} to propagate"
        );
    }
}

#[test]
fn pre_cancelled_token_stops_before_any_result() {
    let graph = heavy_graph();
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for method in METHODS {
        let token = CancelToken::new();
        token.cancel();
        let response = engine
            .execute(&heavy_request(method).cancel_token(token))
            .expect("valid request");
        assert_eq!(response.termination, Termination::Cancelled, "{method}");
        assert_eq!(response.num_results(), 0, "{method}");
    }
}

#[test]
fn deadline_mid_run_is_reported_and_bounded() {
    let graph = heavy_graph();
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for method in METHODS {
        let budget = Duration::from_millis(50);
        let start = Instant::now();
        let response = engine
            .execute(&heavy_request(method).time_budget(budget))
            .expect("valid request");
        let wall = start.elapsed();
        assert_eq!(
            response.termination,
            Termination::DeadlineExceeded,
            "{method}"
        );
        assert_eq!(response.report.method, method);
        // Overrun is bounded by the probe stride, not by the search size.
        assert!(
            wall < PROPAGATION_BOUND,
            "{method}: deadline took {wall:?} to propagate"
        );
    }
}

#[test]
fn limit_is_exact_at_every_size() {
    let graph = complete_digraph(10);
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    // Total result count for q(0, 9, 5) on K10 is far above every limit
    // tried here, so the limit always bites.
    for method in METHODS {
        for limit in [1u64, 17, 256, 1000] {
            let response = engine
                .execute(
                    &QueryRequest::paths(0, 9)
                        .max_hops(5)
                        .method(method)
                        .limit(limit)
                        .collect_paths(true),
                )
                .expect("valid request");
            assert_eq!(
                response.termination,
                Termination::LimitReached,
                "{method} limit={limit}"
            );
            assert_eq!(response.num_results(), limit, "{method}");
            assert_eq!(response.paths.len() as u64, limit, "{method}");
        }
    }
}

#[test]
fn limit_above_total_completes_with_full_set() {
    let graph = complete_digraph(7);
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for method in METHODS {
        let full = engine
            .execute(
                &QueryRequest::paths(0, 6)
                    .max_hops(4)
                    .method(method)
                    .collect_paths(true),
            )
            .expect("valid request");
        let total = full.num_results();
        let response = engine
            .execute(
                &QueryRequest::paths(0, 6)
                    .max_hops(4)
                    .method(method)
                    .limit(total + 100)
                    .collect_paths(true),
            )
            .expect("valid request");
        assert_eq!(response.termination, Termination::Completed, "{method}");
        assert_eq!(response.num_results(), total, "{method}");
        assert_eq!(response.paths, full.paths, "{method}");
    }
}

#[test]
fn limit_wins_when_every_rule_is_armed() {
    // A cancellable request with a generous deadline still stops at its
    // limit and reports it: the armed rules that never fire change
    // nothing.
    let graph = complete_digraph(10);
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for method in METHODS {
        for limit in [1u64, 50] {
            let response = engine
                .execute(
                    &QueryRequest::paths(0, 9)
                        .max_hops(5)
                        .method(method)
                        .cancel_token(CancelToken::new())
                        .time_budget(Duration::from_secs(60))
                        .limit(limit)
                        .collect_paths(true),
                )
                .expect("valid request");
            assert_eq!(response.termination, Termination::LimitReached, "{method}");
            assert_eq!(response.paths.len() as u64, limit, "{method}");
        }
    }
}

#[test]
fn cancel_wins_over_an_unmet_limit_and_deadline() {
    for method in METHODS {
        let token = CancelToken::new();
        let request = heavy_request(method)
            .limit(u64::MAX)
            .time_budget(Duration::from_secs(60))
            .cancel_token(token.clone());
        let (response, wall) = cancel_mid_run(request, token);
        assert_eq!(response.termination, Termination::Cancelled, "{method}");
        assert!(
            wall < PROPAGATION_BOUND,
            "{method}: cancellation took {wall:?} to propagate"
        );
    }
}

#[test]
fn delivered_paths_are_valid_under_early_termination() {
    // Whatever a tripped limit delivers must still be real simple s-t
    // paths within the hop bound.
    let graph = complete_digraph(9);
    let mut engine = QueryEngine::new(&graph, PathEnumConfig::default());
    for method in METHODS {
        let response = engine
            .execute(
                &QueryRequest::paths(0, 8)
                    .max_hops(4)
                    .method(method)
                    .limit(64)
                    .collect_paths(true),
            )
            .expect("valid request");
        assert_eq!(response.paths.len(), 64, "{method}");
        for path in &response.paths {
            assert_eq!(path.first(), Some(&0));
            assert_eq!(path.last(), Some(&8));
            assert!(path.len() <= 5, "{method}: at most 4 edges: {path:?}");
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), path.len(), "{method}: simple path: {path:?}");
        }
    }
}
