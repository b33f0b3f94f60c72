//! Per-query measurement and aggregation (the metrics of Section 7.1).
//!
//! * **query time** — start to finish, capped by a per-query time limit
//!   (the paper caps at two minutes; proxies use a scaled default);
//! * **throughput** — results per second at the moment the query ends
//!   (including when it is cut off by the limit);
//! * **response time** — start until the first `response_limit` (1000)
//!   results.
//!
//! Plus the aggregation helpers behind the tables and figures: means,
//! percentiles, CDF points, and least-squares regression on log-log data
//! (Figures 10/11).

use std::time::{Duration, Instant};

use pathenum::query::Query;
use pathenum::sink::{CountingSink, PathSink, SearchControl};
use pathenum::{ControlledSink, QueryEngine, QueryRequest, Termination};
use pathenum_graph::CsrGraph;

use crate::algorithms::{AlgoReport, Algorithm};

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Per-query wall-clock cap. The paper uses 120 s on the full-size
    /// datasets; the scaled default keeps full table runs in minutes.
    pub time_limit: Duration,
    /// Result count defining response time (the paper uses 1000).
    pub response_limit: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            time_limit: Duration::from_secs(2),
            response_limit: 1000,
        }
    }
}

/// Outcome of measuring one query with one algorithm.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// The query that ran.
    pub query: Query,
    /// Wall-clock query time (capped at the limit when timed out).
    pub elapsed: Duration,
    /// Results found before finishing or hitting the limit.
    pub results: u64,
    /// Whether the time limit cut the query off.
    pub timed_out: bool,
    /// The algorithm's phase/counter report.
    pub report: AlgoReport,
}

impl QueryMeasurement {
    /// Results per second over the measured window.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            self.results as f64 / 1e-9
        } else {
            self.results as f64 / secs
        }
    }
}

/// A sink that counts results and aborts on a deadline and/or an emission
/// limit — the measuring instrument for all three paper metrics.
///
/// A thin adapter over the request layer's [`ControlledSink`], so the
/// workload runner and the service API share one set of stopping-rule
/// semantics instead of two near-identical censoring implementations.
///
/// It keeps per-path delivery on purpose (the `PathSink` defaults, not
/// `counts_only`): the baselines it also measures emit every path, so
/// `reproduce` Table 3 and Figures 7 and 12 compare PathEnum with them
/// like for like, not PathEnum's bulk count with their per-path emission.
pub struct BoundedSink {
    /// Results seen (censored at the limit).
    pub count: u64,
    /// Set when the deadline aborted the run.
    pub timed_out: bool,
    inner: ControlledSink<CountingSink>,
}

impl BoundedSink {
    /// A sink stopping at `limit` results and/or after `budget` time.
    pub fn new(limit: Option<u64>, budget: Option<Duration>) -> Self {
        BoundedSink {
            count: 0,
            timed_out: false,
            inner: ControlledSink::new(
                CountingSink::default(),
                limit,
                budget.map(|b| Instant::now() + b),
                None,
            ),
        }
    }

    fn sync(&mut self) {
        self.count = self.inner.emitted();
        self.timed_out = self.inner.termination() == Termination::DeadlineExceeded;
    }
}

impl PathSink for BoundedSink {
    #[inline]
    fn emit(&mut self, path: &[u32]) -> SearchControl {
        let control = self.inner.emit(path);
        self.sync();
        control
    }

    #[inline]
    fn probe(&mut self) -> SearchControl {
        let control = self.inner.probe();
        self.sync();
        control
    }
}

/// Measures the *query time* metric: full enumeration under the time cap.
pub fn run_query(
    algo: Algorithm,
    graph: &CsrGraph,
    query: Query,
    config: MeasureConfig,
) -> QueryMeasurement {
    let mut sink = BoundedSink::new(None, Some(config.time_limit));
    let start = Instant::now();
    let report = algo.run(graph, query, &mut sink);
    let mut elapsed = start.elapsed();
    let timed_out = sink.timed_out || elapsed > config.time_limit;
    if timed_out {
        // The paper sets the query time of killed queries to the limit.
        elapsed = config.time_limit;
    }
    QueryMeasurement {
        query,
        elapsed,
        results: sink.count,
        timed_out,
        report,
    }
}

/// Measures the *response time* metric: time to the first
/// `config.response_limit` results (or to completion if fewer exist),
/// still bounded by the time cap.
///
/// [`Algorithm::PathEnum`] is measured as the request a service would
/// send — `limit(response_limit).time_budget(time_limit)` on a fresh
/// [`QueryEngine`] — because its planner resolves method and cut from
/// the limit; cutting an unlimited run off from inside the sink would
/// time the plan of a different request. Baselines and the forced
/// `IDX-DFS` / `IDX-JOIN` rows have no such decision to make and keep
/// the sink-side cap.
pub fn measure_response_time(
    algo: Algorithm,
    graph: &CsrGraph,
    query: Query,
    config: MeasureConfig,
) -> Duration {
    let start = Instant::now();
    if algo == Algorithm::PathEnum {
        let request = QueryRequest::from_query(query)
            .limit(config.response_limit)
            .time_budget(config.time_limit);
        QueryEngine::new(graph, Default::default())
            .execute(&request)
            .expect("harness queries are in range for the graph");
    } else {
        let mut sink = BoundedSink::new(Some(config.response_limit), Some(config.time_limit));
        algo.run(graph, query, &mut sink);
    }
    start.elapsed().min(config.time_limit)
}

/// Aggregate of a query set with one algorithm — one Table 3 cell triple.
#[derive(Debug, Clone)]
pub struct SetSummary {
    /// Per-query measurements, in query order.
    pub measurements: Vec<QueryMeasurement>,
    /// Arithmetic mean query time in milliseconds.
    pub mean_query_time_ms: f64,
    /// Arithmetic mean per-query throughput (results/second).
    pub mean_throughput: f64,
    /// Fraction of queries cut off by the time limit.
    pub timeout_fraction: f64,
}

/// Runs a whole query set (Table 3 style).
pub fn run_query_set(
    algo: Algorithm,
    graph: &CsrGraph,
    queries: &[Query],
    config: MeasureConfig,
) -> SetSummary {
    let measurements: Vec<QueryMeasurement> = queries
        .iter()
        .map(|&q| run_query(algo, graph, q, config))
        .collect();
    summarize(measurements)
}

/// Builds a [`SetSummary`] from raw measurements.
pub fn summarize(measurements: Vec<QueryMeasurement>) -> SetSummary {
    let n = measurements.len().max(1) as f64;
    let mean_query_time_ms = measurements
        .iter()
        .map(|m| m.elapsed.as_secs_f64() * 1e3)
        .sum::<f64>()
        / n;
    let mean_throughput = measurements.iter().map(|m| m.throughput()).sum::<f64>() / n;
    let timeout_fraction = measurements.iter().filter(|m| m.timed_out).count() as f64 / n;
    SetSummary {
        measurements,
        mean_query_time_ms,
        mean_throughput,
        timeout_fraction,
    }
}

/// The `pct`-th percentile (0..=100) of a set of durations, in
/// milliseconds, by the nearest-rank method (Figure 8's 99.9% latency).
pub fn percentile_ms(durations: &[Duration], pct: f64) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<Duration> = durations.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1e3
}

/// Cumulative-distribution points `(ms, fraction <= ms)` (Figure 16).
pub fn cdf_points(durations: &[Duration]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, ms)| (ms, (i + 1) as f64 / n))
        .collect()
}

/// Ordinary least squares fit `y = slope * x + intercept` with `r^2`.
///
/// Figures 10/11 regress `log(enumeration time)` on `log(index size)` and
/// `log(#results)`; callers pass already-logged values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Least-squares regression over paired samples. Returns `None` with
/// fewer than two points or zero variance in `x`.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<Regression> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(Regression {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::querygen::{generate_queries, QueryGenConfig};

    #[test]
    fn run_query_counts_results() {
        let g = datasets::gg();
        let queries = generate_queries(&g, QueryGenConfig::paper_default(5, 4, 1));
        for q in queries {
            let m = run_query(Algorithm::IdxDfs, &g, q, MeasureConfig::default());
            assert!(!m.timed_out, "tiny query should not time out");
            assert_eq!(m.results, m.report.counters.results);
        }
    }

    #[test]
    fn response_time_not_exceeding_query_time_much() {
        let g = datasets::gg();
        let q = generate_queries(&g, QueryGenConfig::paper_default(1, 6, 2))[0];
        let cfg = MeasureConfig::default();
        let response = measure_response_time(Algorithm::IdxDfs, &g, q, cfg);
        assert!(response <= cfg.time_limit);
    }

    #[test]
    fn pathenum_response_time_is_a_limited_request() {
        // K12, k = 6: unlimited PathEnum joins (73 811 walks), so a
        // sink-side cap would time IDX-JOIN's materialisation; the
        // limited request streams, like the forced IDX-DFS row.
        let g = pathenum_graph::generators::complete_digraph(12);
        let q = Query::new(0, 11, 6).unwrap();
        let cfg = MeasureConfig::default();
        let unlimited = run_query(Algorithm::PathEnum, &g, q, cfg);
        assert_eq!(unlimited.report.method, Some(pathenum::Method::IdxJoin));
        let limited = QueryEngine::new(&g, Default::default())
            .execute(&QueryRequest::from_query(q).limit(cfg.response_limit))
            .unwrap();
        assert_eq!(limited.plan.unwrap().method, pathenum::Method::IdxDfs);
        assert_eq!(limited.num_results(), cfg.response_limit);
        assert!(measure_response_time(Algorithm::PathEnum, &g, q, cfg) <= cfg.time_limit);
    }

    #[test]
    fn bounded_sink_stops_at_limit() {
        let mut sink = BoundedSink::new(Some(3), None);
        assert_eq!(sink.emit(&[0]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0]), SearchControl::Continue);
        assert_eq!(sink.emit(&[0]), SearchControl::Stop);
        assert!(!sink.timed_out);
    }

    #[test]
    fn bounded_sink_censors_identically_to_controlled_sink() {
        // Regression for the adapter rewrite: on the same enumeration,
        // BoundedSink (the workload instrument) and a raw ControlledSink
        // (the request-layer rule) must admit exactly the same number of
        // results and stop at the same emission.
        use pathenum::{CountingSink, Index};
        let g = datasets::gg();
        for limit in [1u64, 10, 100, 1_000] {
            let q = generate_queries(&g, QueryGenConfig::paper_default(1, 5, 7))[0];
            let index = Index::build(&g, q);

            let mut bounded = BoundedSink::new(Some(limit), None);
            let mut counters = pathenum::Counters::default();
            let bounded_control = pathenum::enumerate::idx_dfs(&index, &mut bounded, &mut counters);

            let mut controlled =
                pathenum::ControlledSink::new(CountingSink::default(), Some(limit), None, None);
            let mut counters = pathenum::Counters::default();
            let controlled_control =
                pathenum::enumerate::idx_dfs(&index, &mut controlled, &mut counters);

            assert_eq!(bounded.count, controlled.emitted(), "limit={limit}");
            assert_eq!(bounded_control, controlled_control, "limit={limit}");
            assert_eq!(
                controlled.emitted() == limit,
                controlled.termination() == pathenum::Termination::LimitReached,
                "limit={limit}"
            );
        }
    }

    #[test]
    fn bounded_sink_times_out() {
        let mut sink = BoundedSink::new(None, Some(Duration::ZERO));
        let mut stopped = false;
        for _ in 0..1000 {
            if sink.emit(&[0]) == SearchControl::Stop {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
        assert!(sink.timed_out);
    }

    #[test]
    fn summary_statistics() {
        let g = datasets::gg();
        let queries = generate_queries(&g, QueryGenConfig::paper_default(5, 4, 3));
        let summary = run_query_set(Algorithm::PathEnum, &g, &queries, MeasureConfig::default());
        assert_eq!(summary.measurements.len(), 5);
        assert!(summary.mean_query_time_ms >= 0.0);
        assert_eq!(summary.timeout_fraction, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let ds: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&ds, 50.0), 5.0);
        assert_eq!(percentile_ms(&ds, 100.0), 10.0);
        assert_eq!(percentile_ms(&ds, 99.9), 10.0);
        assert_eq!(percentile_ms(&ds, 10.0), 1.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let ds: Vec<Duration> = [5u64, 1, 3, 2, 4]
            .iter()
            .map(|&m| Duration::from_millis(m))
            .collect();
        let cdf = cdf_points(&ds);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf[0], (1.0, 0.2));
        assert_eq!(cdf[4], (5.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn regression_recovers_a_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let r = linear_regression(&xs, &ys).unwrap();
        assert!((r.slope - 2.0).abs() < 1e-12);
        assert!((r.intercept - 1.0).abs() < 1e-12);
        assert!((r.r_squared - 1.0).abs() < 1e-12);
        assert!(linear_regression(&[1.0], &[1.0]).is_none());
        assert!(linear_regression(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn throughput_positive_when_results_exist() {
        let g = datasets::gg();
        let q = generate_queries(&g, QueryGenConfig::paper_default(1, 5, 4))[0];
        let m = run_query(Algorithm::BcDfs, &g, q, MeasureConfig::default());
        if m.results > 0 {
            assert!(m.throughput() > 0.0);
        }
    }
}
