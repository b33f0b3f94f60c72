//! Open-loop overload harness over the admission-controlled
//! [`CatalogService`] — what `reproduce overload` drives.
//!
//! Requests *arrive* on a fixed schedule regardless of completions, and
//! latency is the *sojourn* from intended arrival to completion or
//! rejection, so queueing delay under overload — or the fast shed that
//! replaces it — is what the report measures. Closed-loop serving is
//! measured by `benchmark/`.

use std::time::{Duration, Instant};

use pathenum::{CatalogOutcome, CatalogRequest, CatalogService, PathEnumError, QueryRequest};

/// Outcome of one open-loop overload replay through a
/// [`CatalogService`]: every arrival's full [`CatalogOutcome`] plus its
/// sojourn time (intended arrival → completion/rejection).
#[derive(Debug)]
pub struct OverloadReport {
    /// Per-arrival outcomes, in arrival order. Shed arrivals carry
    /// [`PathEnumError::Overloaded`]; completed ones the full response.
    pub outcomes: Vec<CatalogOutcome>,
    /// Per-arrival sojourn (intended arrival to completion; for shed
    /// arrivals, to the moment of rejection — effectively zero).
    pub sojourns: Vec<Duration>,
    /// Wall-clock time of the whole replay (last completion included).
    pub wall: Duration,
}

impl OverloadReport {
    /// Arrivals in the replay.
    pub fn arrivals(&self) -> usize {
        self.outcomes.len()
    }

    /// Arrivals that completed with a response.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.response.is_ok()).count()
    }

    /// Arrivals shed by admission control.
    pub fn shed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.response, Err(PathEnumError::Overloaded { .. })))
            .count()
    }

    /// Shed arrivals as a fraction of all arrivals.
    pub fn shed_rate(&self) -> f64 {
        self.shed() as f64 / (self.arrivals().max(1)) as f64
    }

    /// Completions whose sojourn met `sla`.
    pub fn within_sla(&self, sla: Duration) -> usize {
        self.outcomes
            .iter()
            .zip(&self.sojourns)
            .filter(|(o, &sojourn)| o.response.is_ok() && sojourn <= sla)
            .count()
    }

    /// **Goodput**: completions that met `sla`, per wall-clock second.
    /// Under overload this is the metric that separates bounded
    /// admission from an unbounded FIFO — both complete roughly
    /// `capacity × wall` queries, but the FIFO's completions all sit
    /// behind an ever-growing queue and blow the SLA.
    pub fn goodput(&self, sla: Duration) -> f64 {
        self.within_sla(sla) as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Open-loop overload replay through an admission-controlled
/// [`CatalogService`]: `requests` arrive in order, paced at `interval`,
/// each submitted for `tenant` against the graph registered as
/// `graph_name`. Sojourns run from the *intended* arrival, so queueing
/// delay — or the fast rejection that replaces it — is what the report
/// measures.
///
/// Pacing re-anchors when the submitter itself falls behind schedule:
/// the next intended arrival is
/// `max(previous + interval, now)`. A submitter descheduled for a few
/// milliseconds on a noisy machine thus resumes at the configured rate
/// instead of compressing the missed arrivals into a burst the measured
/// service never asked for. Under genuine overload (`interval` below
/// the pool's service rate) the submitter is perpetually late and
/// submits back-to-back either way, so offered load at or above
/// capacity is unaffected.
pub fn run_overload(
    service: &CatalogService,
    graph_name: &str,
    tenant: &str,
    requests: Vec<QueryRequest<'static>>,
    interval: Duration,
) -> OverloadReport {
    let start = Instant::now();
    let mut arrivals = Vec::with_capacity(requests.len());
    let mut tickets = Vec::with_capacity(requests.len());
    // `thread::sleep` overshoots by tens of microseconds — enough to
    // silently halve a microsecond-scale arrival rate. Sleep only to
    // within a coarse margin of the intended instant, then spin.
    const SPIN_MARGIN: Duration = Duration::from_micros(200);
    let mut intended = start;
    for (i, request) in requests.into_iter().enumerate() {
        if i > 0 {
            intended += interval;
        }
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            if wait > SPIN_MARGIN {
                std::thread::sleep(wait - SPIN_MARGIN);
            }
            while Instant::now() < intended {
                std::hint::spin_loop();
            }
        } else {
            intended = Instant::now();
        }
        arrivals.push(intended);
        tickets.push(service.submit(CatalogRequest::new(graph_name, tenant, request)));
    }
    let mut outcomes = Vec::with_capacity(tickets.len());
    let mut sojourns = Vec::with_capacity(tickets.len());
    for (ticket, arrival) in tickets.into_iter().zip(arrivals) {
        let outcome = ticket.wait_outcome();
        sojourns.push(outcome.finished.saturating_duration_since(arrival));
        outcomes.push(outcome);
    }
    OverloadReport {
        outcomes,
        sojourns,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::querygen::{generate_queries, QueryGenConfig};
    use pathenum::query::Query;
    use pathenum::{CountingSink, PathEnumConfig, QueryEngine};
    use std::sync::Arc;

    fn skewed_stream(distinct: &[Query], repeats: usize) -> Vec<Query> {
        distinct
            .iter()
            .cycle()
            .take(distinct.len() * repeats)
            .copied()
            .collect()
    }

    fn sequential_counts(graph: &pathenum_graph::CsrGraph, stream: &[Query]) -> Vec<u64> {
        let mut engine = QueryEngine::new(graph, PathEnumConfig::default());
        stream
            .iter()
            .map(|&q| {
                let mut sink = CountingSink::default();
                engine
                    .execute_into(&QueryRequest::from_query(q), &mut sink)
                    .expect("harness queries are valid")
                    .num_results()
            })
            .collect()
    }

    #[test]
    fn overload_replay_accounts_for_every_arrival() {
        use pathenum::{AdmissionConfig, CatalogConfig};

        let graph = Arc::new(datasets::gg());
        let distinct = generate_queries(&graph, QueryGenConfig::paper_default(3, 4, 7));
        let stream = skewed_stream(&distinct, 4);
        let expected = sequential_counts(&graph, &stream);
        let requests = || {
            stream
                .iter()
                .map(|&q| QueryRequest::from_query(q))
                .collect()
        };

        // Admission disabled: every arrival completes, matching the
        // sequential engine.
        let calm = CatalogService::new(
            PathEnumConfig::default(),
            CatalogConfig {
                workers: 2,
                ..CatalogConfig::default()
            },
        );
        calm.catalog().register("gg", Arc::clone(&graph));
        let report = run_overload(
            &calm,
            "gg",
            "tenant-a",
            requests(),
            Duration::from_micros(100),
        );
        assert_eq!(report.arrivals(), stream.len());
        assert_eq!(report.shed(), 0);
        let counts: Vec<u64> = report
            .outcomes
            .iter()
            .map(|o| o.response.as_ref().unwrap().num_results())
            .collect();
        assert_eq!(counts, expected);
        assert!(report.goodput(Duration::from_secs(60)) > 0.0);

        // A starved budget with a bounded tenant queue sheds, but every
        // arrival still resolves as completed-or-shed.
        let tight = CatalogService::new(
            PathEnumConfig::default(),
            CatalogConfig {
                workers: 1,
                admission: AdmissionConfig {
                    cost_budget: Some(1),
                    max_queue_per_tenant: 1,
                    interactive_cost_threshold: 1,
                },
                ..CatalogConfig::default()
            },
        );
        tight.catalog().register("gg", Arc::clone(&graph));
        let report = run_overload(
            &tight,
            "gg",
            "tenant-a",
            requests(),
            Duration::from_micros(10),
        );
        assert_eq!(report.completed() + report.shed(), stream.len());
        assert!(report.shed_rate() >= 0.0);
    }
}
