//! Cost-based admission control for the serving path.
//!
//! A pool that queues every submission forever fails under sustained
//! overload: the queue grows without bound and every request's sojourn
//! time grows with it — the classic unbounded-FIFO collapse. The
//! planner already prices every request — for the results its `limit`
//! lets it read: the bounded search space `min(preliminary, k · limit)`
//! when that is within `tau`, else the modeled `t_dfs`/`t_join` that
//! drive the IDX-DFS / IDX-JOIN choice (see
//! [`crate::optimizer::decide`]) — so the serving layer can *charge*
//! each request its modeled cost before queueing it:
//!
//! * a configurable **in-flight cost budget** bounds the total modeled
//!   cost admitted but not yet completed — over-budget requests are
//!   rejected *fast* with [`PathEnumError::Overloaded`] and a coarse
//!   retry hint, instead of queueing forever;
//! * a bounded **per-tenant queue** keeps one chatty tenant from
//!   starving the rest;
//! * a **two-lane dispatch** ([`Lane`]) classifies requests by modeled
//!   cost: cheap (interactive) queries are popped ahead of expensive
//!   (batch) ones, so point lookups keep flowing while analytical scans
//!   drain behind them.
//!
//! [`AdmissionConfig::disabled`] turns all of this off — every request
//! is admitted onto a single FIFO lane, the unbounded baseline the
//! `reproduce overload` experiment measures against.
//!
//! [`PathEnumError::Overloaded`]: crate::PathEnumError::Overloaded

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::request::PathEnumError;

/// Which dispatch queue an admitted request is placed on.
///
/// Workers pop the interactive lane first; the batch lane only drains
/// when no interactive work is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Cheap queries (modeled cost at or below the configured
    /// threshold): popped first so they keep flowing under load.
    Interactive,
    /// Expensive queries: drain behind interactive traffic.
    Batch,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Interactive => write!(f, "interactive"),
            Lane::Batch => write!(f, "batch"),
        }
    }
}

/// Knobs of the admission layer.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Total modeled cost admitted but not yet completed. `None`
    /// disables admission control entirely (every request admitted,
    /// single FIFO lane — the PR 5 baseline).
    pub cost_budget: Option<u64>,
    /// Maximum requests one tenant may have admitted-but-incomplete at
    /// once (queued *or* running). `0` means unlimited.
    pub max_queue_per_tenant: usize,
    /// Modeled cost at or below which a request rides the interactive
    /// lane; above it, the batch lane.
    pub interactive_cost_threshold: u64,
}

impl AdmissionConfig {
    /// Admission control off: everything admitted, one FIFO lane.
    pub fn disabled() -> Self {
        AdmissionConfig {
            cost_budget: None,
            max_queue_per_tenant: 0,
            interactive_cost_threshold: u64::MAX,
        }
    }

    /// Whether this configuration enforces anything.
    pub fn is_enabled(&self) -> bool {
        self.cost_budget.is_some() || self.max_queue_per_tenant > 0
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::disabled()
    }
}

/// The verdict the admission layer reached for one request — an
/// EXPLAIN-style record of *why* a request was admitted or shed.
///
/// Its `Display` renders the decision the way
/// [`PhysicalPlan`](crate::PhysicalPlan) renders an EXPLAIN block:
///
/// ```text
/// AdmissionDecision
///   tenant:            analytics
///   estimated cost:    1820
///   in-flight cost:    3400 / 4096 budget
///   tenant queue:      2 / 8 slots
///   lane:              batch (threshold 256)
///   verdict:           shed (budget exceeded; retry in ~1ms)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// Tenant the request was charged to.
    pub tenant: String,
    /// The request's modeled cost (its admission price):
    /// [`PhysicalPlan::modeled_cost`](crate::plan::PhysicalPlan::modeled_cost),
    /// the price of what the request will run under its own `limit` —
    /// a `limit(10)` request with `10 k <= tau` is charged at most
    /// `10 k`, whatever the query would cost to enumerate in full.
    pub estimated_cost: u64,
    /// In-flight modeled cost at decision time (before this request).
    pub in_flight_cost: u64,
    /// The configured budget, if admission is enabled.
    pub cost_budget: Option<u64>,
    /// The tenant's admitted-but-incomplete requests at decision time.
    pub tenant_queue_depth: usize,
    /// The per-tenant queue bound (`0` = unlimited).
    pub max_queue_per_tenant: usize,
    /// The lane the request was (or would have been) dispatched on.
    pub lane: Lane,
    /// The interactive/batch cost threshold.
    pub interactive_cost_threshold: u64,
    /// `None` if admitted; the rejection if shed.
    pub rejected: Option<PathEnumError>,
}

impl AdmissionDecision {
    /// Whether the request was admitted.
    pub fn admitted(&self) -> bool {
        self.rejected.is_none()
    }
}

impl std::fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "AdmissionDecision")?;
        writeln!(f, "  tenant:            {}", self.tenant)?;
        writeln!(f, "  estimated cost:    {}", self.estimated_cost)?;
        match self.cost_budget {
            Some(budget) => writeln!(
                f,
                "  in-flight cost:    {} / {} budget",
                self.in_flight_cost, budget
            )?,
            None => writeln!(
                f,
                "  in-flight cost:    {} (no budget)",
                self.in_flight_cost
            )?,
        }
        if self.max_queue_per_tenant > 0 {
            writeln!(
                f,
                "  tenant queue:      {} / {} slots",
                self.tenant_queue_depth, self.max_queue_per_tenant
            )?;
        } else {
            writeln!(
                f,
                "  tenant queue:      {} (unbounded)",
                self.tenant_queue_depth
            )?;
        }
        writeln!(
            f,
            "  lane:              {} (threshold {})",
            self.lane, self.interactive_cost_threshold
        )?;
        match &self.rejected {
            None => write!(f, "  verdict:           admitted"),
            Some(PathEnumError::Overloaded { retry_hint }) => write!(
                f,
                "  verdict:           shed (overloaded; retry in ~{retry_hint:?})"
            ),
            Some(err) => write!(f, "  verdict:           rejected ({err})"),
        }
    }
}

/// Lifetime counters of one [`AdmissionController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (charged against the budget).
    pub admitted: u64,
    /// Requests shed with [`Overloaded`](PathEnumError::Overloaded).
    pub shed: u64,
}

/// Charges modeled plan costs against an in-flight budget and bounds
/// per-tenant queues. See the [module docs](self).
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    in_flight_cost: AtomicU64,
    /// Admitted-but-incomplete request counts per tenant (queued *or*
    /// running; decremented on release).
    pending: Mutex<HashMap<String, u64>>,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionController {
    /// A controller enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            in_flight_cost: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Modeled cost currently admitted but not yet released.
    pub fn in_flight_cost(&self) -> u64 {
        // ordering: advisory read; admission decisions re-read the charge
        // under the `pending` mutex, which provides the ordering.
        self.in_flight_cost.load(Ordering::Relaxed)
    }

    /// Lifetime admitted/shed counters.
    pub fn stats(&self) -> AdmissionStats {
        // ordering: advisory stats reads; a lagging value is acceptable.
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// The lane a request of `cost` rides when admitted. With admission
    /// disabled everything shares one FIFO (interactive) lane so the
    /// baseline stays strictly PR 5-shaped.
    pub fn lane_for(&self, cost: u64) -> Lane {
        if !self.config.is_enabled() || cost <= self.config.interactive_cost_threshold {
            Lane::Interactive
        } else {
            Lane::Batch
        }
    }

    /// Tries to admit a request of modeled `cost` for `tenant`,
    /// recording the full decision. On success the cost is charged and
    /// the tenant slot taken — the caller **must** pair this with
    /// exactly one [`release`](Self::release).
    pub fn try_admit(&self, tenant: &str, cost: u64) -> AdmissionDecision {
        let lane = self.lane_for(cost);
        // ordering: pre-lock peek for the decision record only; the
        // authoritative budget check re-reads under the `pending` mutex.
        let in_flight = self.in_flight_cost.load(Ordering::Relaxed);
        let mut decision = AdmissionDecision {
            tenant: tenant.to_string(),
            estimated_cost: cost,
            in_flight_cost: in_flight,
            cost_budget: self.config.cost_budget,
            tenant_queue_depth: 0,
            max_queue_per_tenant: self.config.max_queue_per_tenant,
            lane,
            interactive_cost_threshold: self.config.interactive_cost_threshold,
            rejected: None,
        };

        let mut pending = crate::sync::lock_recovering(&self.pending);
        let depth = pending.get(tenant).copied().unwrap_or(0);
        decision.tenant_queue_depth = depth as usize;

        if self.config.max_queue_per_tenant > 0
            && depth as usize >= self.config.max_queue_per_tenant
        {
            decision.rejected = Some(self.shed_with_hint(depth));
            return decision;
        }
        if let Some(budget) = self.config.cost_budget {
            // First-come-first-admitted: a request is shed only when the
            // budget is already occupied. A single over-budget giant on
            // an idle controller still runs (cost saturates, it just
            // blocks everything until released).
            // ordering: read under the `pending` mutex, which serializes
            // every check-then-charge sequence; the mutex, not the atomic,
            // carries the ordering.
            let in_flight = self.in_flight_cost.load(Ordering::Relaxed);
            decision.in_flight_cost = in_flight;
            if in_flight > 0 && in_flight.saturating_add(cost) > budget {
                decision.rejected = Some(self.shed_with_hint(depth));
                return decision;
            }
        }

        *pending.entry(tenant.to_string()).or_insert(0) += 1;
        // The charge must land before the `pending` mutex is released:
        // charging after the drop opened a window where a concurrent
        // `try_admit` could pass the budget check against the stale
        // `in_flight_cost` and over-admit past the budget.
        // ordering: performed under the `pending` mutex (see above).
        self.in_flight_cost.fetch_add(cost, Ordering::Relaxed);
        drop(pending);
        // ordering: advisory monotone counter; publishes no other memory.
        self.admitted.fetch_add(1, Ordering::Relaxed);
        decision
    }

    /// Releases an admitted request's budget charge and tenant slot.
    pub fn release(&self, tenant: &str, cost: u64) {
        // ordering: single-location RMW; the release may race an admit's
        // budget check, but an uncharge seen late only delays admission
        // (never over-admits), so no cross-location ordering is needed.
        self.in_flight_cost.fetch_sub(cost, Ordering::Relaxed);
        let mut pending = crate::sync::lock_recovering(&self.pending);
        if let Some(depth) = pending.get_mut(tenant) {
            *depth = depth.saturating_sub(1);
            if *depth == 0 {
                pending.remove(tenant);
            }
        }
    }

    /// A coarse, advisory retry hint scaled by how deep the shedding
    /// tenant's backlog already is — deeper backlog, longer back-off.
    fn shed_with_hint(&self, tenant_depth: u64) -> PathEnumError {
        // ordering: advisory monotone counter; publishes no other memory.
        self.shed.fetch_add(1, Ordering::Relaxed);
        let base = Duration::from_micros(500);
        let hint = base.saturating_mul(tenant_depth.clamp(1, 200) as u32);
        PathEnumError::Overloaded {
            retry_hint: hint.min(Duration::from_millis(100)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_admits_everything_on_one_lane() {
        let ctl = AdmissionController::new(AdmissionConfig::disabled());
        for cost in [1u64, 1 << 40, u64::MAX / 2] {
            let decision = ctl.try_admit("anyone", cost);
            assert!(decision.admitted());
            assert_eq!(decision.lane, Lane::Interactive);
        }
        assert_eq!(ctl.stats().shed, 0);
    }

    #[test]
    fn budget_sheds_when_occupied_but_admits_a_lone_giant() {
        let config = AdmissionConfig {
            cost_budget: Some(100),
            max_queue_per_tenant: 0,
            interactive_cost_threshold: 10,
        };
        let ctl = AdmissionController::new(config);
        // A lone over-budget request still runs.
        assert!(ctl.try_admit("a", 500).admitted());
        // But the budget is now saturated: everything else sheds.
        let shed = ctl.try_admit("a", 1);
        assert!(!shed.admitted());
        assert!(matches!(
            shed.rejected,
            Some(PathEnumError::Overloaded { .. })
        ));
        ctl.release("a", 500);
        assert_eq!(ctl.in_flight_cost(), 0);
        assert!(ctl.try_admit("a", 1).admitted());
        assert_eq!(
            ctl.stats(),
            AdmissionStats {
                admitted: 2,
                shed: 1
            }
        );
    }

    #[test]
    fn tenant_queue_bound_is_per_tenant() {
        let config = AdmissionConfig {
            cost_budget: None,
            max_queue_per_tenant: 2,
            interactive_cost_threshold: 10,
        };
        let ctl = AdmissionController::new(config);
        assert!(ctl.try_admit("a", 1).admitted());
        assert!(ctl.try_admit("a", 1).admitted());
        assert!(!ctl.try_admit("a", 1).admitted(), "a's slots are full");
        assert!(ctl.try_admit("b", 1).admitted(), "b is unaffected");
        ctl.release("a", 1);
        assert!(ctl.try_admit("a", 1).admitted(), "release frees a slot");
    }

    #[test]
    fn lanes_split_on_the_cost_threshold() {
        let config = AdmissionConfig {
            cost_budget: Some(1_000_000),
            max_queue_per_tenant: 8,
            interactive_cost_threshold: 50,
        };
        let ctl = AdmissionController::new(config);
        assert_eq!(ctl.lane_for(50), Lane::Interactive);
        assert_eq!(ctl.lane_for(51), Lane::Batch);
    }

    /// Regression for a check-then-charge race: `try_admit` used to
    /// charge `in_flight_cost` *after* releasing the `pending` mutex, so
    /// two threads could both pass the budget check against the stale
    /// charge and jointly over-admit. With the charge under the lock, the
    /// admitted cost can exceed the budget by at most one request (the
    /// documented over-budget-giant allowance), never by a race.
    #[test]
    fn concurrent_admits_never_overshoot_the_budget() {
        let budget = 100u64;
        let cost = 7u64;
        let config = AdmissionConfig {
            cost_budget: Some(budget),
            max_queue_per_tenant: 0,
            interactive_cost_threshold: 256,
        };
        let ctl = AdmissionController::new(config);
        let worst_case = budget + cost - 1;
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let ctl = &ctl;
                scope.spawn(move || {
                    let tenant = format!("tenant-{worker}");
                    for _ in 0..64 {
                        let decision = ctl.try_admit(&tenant, cost);
                        assert!(ctl.in_flight_cost() <= worst_case);
                        if decision.rejected.is_none() {
                            std::thread::yield_now();
                            ctl.release(&tenant, cost);
                        }
                    }
                });
            }
        });
        assert_eq!(ctl.in_flight_cost(), 0);
    }

    #[test]
    fn decision_display_reads_like_an_explain() {
        let config = AdmissionConfig {
            cost_budget: Some(4096),
            max_queue_per_tenant: 8,
            interactive_cost_threshold: 256,
        };
        let ctl = AdmissionController::new(config);
        let decision = ctl.try_admit("analytics", 1820);
        let rendered = decision.to_string();
        assert!(rendered.contains("AdmissionDecision"));
        assert!(rendered.contains("estimated cost:    1820"));
        assert!(rendered.contains("4096 budget"));
        assert!(rendered.contains("lane:              batch"));
        assert!(rendered.contains("verdict:           admitted"));
    }
}
