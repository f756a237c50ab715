//! Shared-microservice multiplexing: priority scheduling and the
//! Theorem-1 resource-usage comparisons (§2.3, §4.3, §5.3.2, Appendix A).
//!
//! A microservice shared by several services must decide how to order
//! concurrent requests. Erms:
//!
//! 1. computes an *initial* latency target per service
//!    ([`plan_service`](crate::scaling::plan_service) with each service's own
//!    workload);
//! 2. gives the service with the **lower** initial latency target at a
//!    shared microservice the **higher** priority — a low target signals
//!    that the service is full of latency-sensitive microservices
//!    (§5.3.2);
//! 3. recomputes every service's targets with *modified workloads*: at a
//!    shared microservice, service `k` experiences the cumulative rate
//!    `Σ_{l ≤ k} γ_{l,i}` of all higher-or-equal-priority services, because
//!    its requests wait behind theirs (Eqs. 13–14).
//!
//! [`SharingScenario`] reproduces the paper's analytic comparison (Fig. 5,
//! Theorem 1) between FCFS sharing, non-sharing partitioning, and priority
//! scheduling; [`mm1`] holds the M/M/1 sanity analysis of §2.3.

use std::collections::BTreeMap;

use crate::app::{App, WorkloadVector};
use crate::error::Result;
use crate::ids::{MicroserviceId, ServiceId};
use crate::scaling::{EffectiveWorkloads, ServicePlan};

/// Orders services at every shared microservice by their initial latency
/// targets: lower target first (= higher priority).
///
/// `initial_plans` must contain a [`ServicePlan`] for every service that
/// references a shared microservice; services without a plan (e.g. idle
/// ones) are placed last. Ties break by service id for determinism.
pub fn assign_priorities(
    app: &App,
    initial_plans: &BTreeMap<ServiceId, ServicePlan>,
) -> BTreeMap<MicroserviceId, Vec<ServiceId>> {
    let mut priorities = BTreeMap::new();
    for ms in app.shared_microservices() {
        let mut users = app.services_using(ms);
        users.sort_by(|&x, &y| {
            let tx = initial_plans
                .get(&x)
                .and_then(|p| p.ms_targets_ms.get(&ms))
                .copied()
                .unwrap_or(f64::INFINITY);
            let ty = initial_plans
                .get(&y)
                .and_then(|p| p.ms_targets_ms.get(&ms))
                .copied()
                .unwrap_or(f64::INFINITY);
            tx.partial_cmp(&ty)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        priorities.insert(ms, users);
    }
    priorities
}

/// Builds the modified effective-workload map of one service under
/// priority scheduling (§5.3.2): at every shared microservice the service
/// experiences the cumulative call rate of all services with equal or
/// higher priority; at exclusive microservices it experiences its own
/// rate.
///
/// # Errors
///
/// Propagates id lookup failures from the app.
pub(crate) fn cumulative_workloads(
    app: &App,
    service: ServiceId,
    workloads: &WorkloadVector,
    priorities: &BTreeMap<MicroserviceId, Vec<ServiceId>>,
) -> Result<EffectiveWorkloads> {
    let svc = app.service(service)?;
    let own_rate = workloads.rate(service).as_per_minute();
    let mut eff = EffectiveWorkloads::new();
    for ms in svc.graph.microservices() {
        let own = own_rate * svc.graph.calls_per_request(ms);
        let value = match priorities.get(&ms) {
            Some(order) => {
                // Sum over services ordered before (and including) this one.
                let mut acc = 0.0;
                for &other in order {
                    let other_svc = app.service(other)?;
                    acc += workloads.rate(other).as_per_minute()
                        * other_svc.graph.calls_per_request(ms);
                    if other == service {
                        break;
                    }
                }
                acc
            }
            None => own,
        };
        eff.insert(ms, value);
    }
    Ok(eff)
}

/// Total workloads per microservice (FCFS sharing: every request waits
/// behind the full arrival stream).
pub(crate) fn total_workloads(
    app: &App,
    service: ServiceId,
    workloads: &WorkloadVector,
) -> Result<EffectiveWorkloads> {
    let svc = app.service(service)?;
    Ok(svc
        .graph
        .microservices()
        .into_iter()
        .map(|ms| (ms, app.microservice_workload(ms, workloads)))
        .collect())
}

/// The two-service sharing scenario of Fig. 5 / Appendix A: service 1 calls
/// `U → P`, service 2 calls `H → P`, with `P` shared.
///
/// All slopes `a` are in ms per (call/min per container), intercepts `b` in
/// ms, resource demands `r` in dominant-share units, and workloads `γ` in
/// calls/min.
///
/// ```
/// use erms_core::multiplexing::SharingScenario;
///
/// let s = SharingScenario {
///     u: (0.08, 3.0, 0.1),
///     h: (0.02, 3.0, 0.1),
///     p: (0.03, 2.0, 0.1),
///     gamma1: 40_000.0,
///     gamma2: 40_000.0,
///     sla1: 300.0,
///     sla2: 300.0,
/// };
/// let cmp = s.compare().expect("feasible");
/// // Theorem 1: priority <= non-sharing <= FCFS sharing.
/// assert!(cmp.priority <= cmp.non_sharing);
/// assert!(cmp.non_sharing <= cmp.sharing_fcfs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingScenario {
    /// Slope, intercept and container demand of microservice `U`.
    pub u: (f64, f64, f64),
    /// Slope, intercept and container demand of microservice `H`.
    pub h: (f64, f64, f64),
    /// Slope, intercept and container demand of the shared microservice `P`.
    pub p: (f64, f64, f64),
    /// Workload of service 1 (calls/min).
    pub gamma1: f64,
    /// Workload of service 2 (calls/min).
    pub gamma2: f64,
    /// SLA of service 1 (ms).
    pub sla1: f64,
    /// SLA of service 2 (ms).
    pub sla2: f64,
}

impl SharingScenario {
    fn slack1(&self) -> f64 {
        self.sla1 - self.u.1 - self.p.1
    }

    fn slack2(&self) -> f64 {
        self.sla2 - self.h.1 - self.p.1
    }

    fn feasible(&self) -> bool {
        self.slack1() > 0.0 && self.slack2() > 0.0 && self.gamma1 >= 0.0 && self.gamma2 >= 0.0
    }

    /// Optimal resource usage under FCFS sharing (both services experience
    /// `γ₁+γ₂` at `P`; Eq. 16). Solved exactly by a 1-D convex search over
    /// the latency `P` contributes.
    ///
    /// Returns `None` when either SLA is infeasible.
    pub(crate) fn ru_sharing_fcfs(&self) -> Option<f64> {
        if !self.feasible() {
            return None;
        }
        let (a_u, _, r_u) = self.u;
        let (a_h, _, r_h) = self.h;
        let (a_p, _, r_p) = self.p;
        let total = self.gamma1 + self.gamma2;
        let (s1, s2) = (self.slack1(), self.slack2());
        let cap = s1.min(s2);
        // t = a_p * total / n_p is the P-latency both services see.
        let ru = |t: f64| {
            a_p * total / t * r_p
                + a_u * self.gamma1 / (s1 - t) * r_u
                + a_h * self.gamma2 / (s2 - t) * r_h
        };
        Some(golden_min(ru, 1e-9 * cap, cap * (1.0 - 1e-9)))
    }

    /// Optimal resource usage when `P`'s containers are partitioned per
    /// service (non-sharing; Eq. 18): two independent chains solved in
    /// closed form.
    pub(crate) fn ru_non_sharing(&self) -> Option<f64> {
        if !self.feasible() {
            return None;
        }
        let (a_u, _, r_u) = self.u;
        let (a_h, _, r_h) = self.h;
        let (a_p, _, r_p) = self.p;
        let ru1 = {
            let s = (a_u * self.gamma1 * r_u).sqrt() + (a_p * self.gamma1 * r_p).sqrt();
            s * s / self.slack1()
        };
        let ru2 = {
            let s = (a_h * self.gamma2 * r_h).sqrt() + (a_p * self.gamma2 * r_p).sqrt();
            s * s / self.slack2()
        };
        Some(ru1 + ru2)
    }

    /// Optimal resource usage under Erms priority scheduling (service 1
    /// prioritised at `P`; Eqs. 13–14), solved exactly by a 1-D convex
    /// search over `n_p`'s latency contribution to service 1.
    pub(crate) fn ru_priority(&self) -> Option<f64> {
        if !self.feasible() {
            return None;
        }
        let (a_u, _, r_u) = self.u;
        let (a_h, _, r_h) = self.h;
        let (a_p, _, r_p) = self.p;
        let total = self.gamma1 + self.gamma2;
        let (s1, s2) = (self.slack1(), self.slack2());
        // t1 = a_p*γ1/n_p (P latency seen by service 1);
        // service 2 sees t2 = t1 * total/γ1.
        if self.gamma1 <= 0.0 {
            // Degenerate: service 1 idle, single chain for service 2.
            let s = (a_h * self.gamma2 * r_h).sqrt() + (a_p * self.gamma2 * r_p).sqrt();
            return Some(s * s / s2);
        }
        let ratio = total / self.gamma1;
        let cap = s1.min(s2 / ratio);
        let ru = |t1: f64| {
            let n_p = a_p * self.gamma1 / t1;
            let t2 = t1 * ratio;
            n_p * r_p + a_u * self.gamma1 / (s1 - t1) * r_u + a_h * self.gamma2 / (s2 - t2) * r_h
        };
        Some(golden_min(ru, 1e-9 * cap, cap * (1.0 - 1e-9)))
    }

    /// The scenario with the two services exchanged (service 2 becomes the
    /// prioritised one).
    #[must_use]
    pub(crate) fn swapped(&self) -> SharingScenario {
        SharingScenario {
            u: self.h,
            h: self.u,
            gamma1: self.gamma2,
            gamma2: self.gamma1,
            sla1: self.sla2,
            sla2: self.sla1,
            ..*self
        }
    }

    /// Optimal resource usage under priority scheduling with the *better*
    /// of the two priority orders — this is what Erms does: the service
    /// whose initial latency target at the shared microservice is lower
    /// gets priority (§5.3.2), which coincides with the cheaper order.
    pub(crate) fn ru_priority_best(&self) -> Option<f64> {
        let a = self.ru_priority()?;
        let b = self.swapped().ru_priority()?;
        Some(a.min(b))
    }

    /// The closed-form upper bound on priority-scheduling resource usage
    /// from Eq. (19) of Appendix A (valid in the symmetric-slack setting
    /// analysed there).
    pub fn ru_priority_upper_bound(&self) -> Option<f64> {
        if !self.feasible() {
            return None;
        }
        let (a_u, _, r_u) = self.u;
        let (a_h, _, r_h) = self.h;
        let (a_p, _, r_p) = self.p;
        let total = self.gamma1 + self.gamma2;
        let s = (a_h * self.gamma2 * r_h).sqrt() + (a_p * total * r_p).sqrt();
        Some(
            s * s / self.slack1()
                + a_u * self.gamma1 * r_u
                + (a_u * a_p * r_u * r_p).sqrt() * self.gamma1,
        )
    }

    /// Evaluates all three schemes; the Theorem-1 ordering is
    /// `priority ≤ non_sharing ≤ sharing_fcfs` in the symmetric-slack
    /// setting of Appendix A. Priority scheduling uses the better of the
    /// two orders (`ru_priority_best`), as Erms'
    /// target-driven priority assignment would.
    pub fn compare(&self) -> Option<SchemeComparison> {
        Some(SchemeComparison {
            sharing_fcfs: self.ru_sharing_fcfs()?,
            non_sharing: self.ru_non_sharing()?,
            priority: self.ru_priority_best()?,
        })
    }
}

/// Resource usage of the three scheduling schemes at a shared microservice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeComparison {
    /// FCFS sharing (scheme ① of Fig. 5).
    pub sharing_fcfs: f64,
    /// Container partitioning (scheme ② of Fig. 5).
    pub non_sharing: f64,
    /// Erms priority scheduling (scheme ③ of Fig. 5).
    pub priority: f64,
}

/// Golden-section search for the minimum of a unimodal function on
/// `[lo, hi]`.
fn golden_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> f64 {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let (mut lo, mut hi) = (lo, hi);
    let mut x1 = hi - PHI * (hi - lo);
    let mut x2 = lo + PHI * (hi - lo);
    let (mut f1, mut f2) = (f(x1), f(x2));
    for _ in 0..200 {
        if (hi - lo).abs() < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - PHI * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + PHI * (hi - lo);
            f2 = f(x2);
        }
    }
    f(0.5 * (lo + hi))
}

/// M/M/1 sanity analysis used in §2.3: *sharing* a fixed amount
/// of serving capacity achieves a lower mean response time than
/// partitioning it, even though SLA-driven scaling can still favour
/// separation.
pub mod mm1 {
    /// Mean response time of an M/M/1 queue with arrival rate `lambda` and
    /// service rate `mu` (same time unit), `W = 1/(μ − λ)`.
    ///
    /// Returns `None` for an overloaded queue (`λ ≥ μ`).
    pub(crate) fn mean_response_time(lambda: f64, mu: f64) -> Option<f64> {
        if lambda < mu && mu > 0.0 {
            Some(1.0 / (mu - lambda))
        } else {
            None
        }
    }

    /// Mean response time when two Poisson streams (`λ₁`, `λ₂`) *share* one
    /// queue whose service rate is the pooled capacity `μ₁+μ₂`.
    pub fn pooled(lambda1: f64, lambda2: f64, mu1: f64, mu2: f64) -> Option<f64> {
        mean_response_time(lambda1 + lambda2, mu1 + mu2)
    }

    /// Workload-weighted mean response time when the streams are served by
    /// *partitioned* capacities `μ₁` and `μ₂`.
    pub fn partitioned(lambda1: f64, lambda2: f64, mu1: f64, mu2: f64) -> Option<f64> {
        let w1 = mean_response_time(lambda1, mu1)?;
        let w2 = mean_response_time(lambda2, mu2)?;
        let total = lambda1 + lambda2;
        if total <= 0.0 {
            return Some(0.0);
        }
        Some((lambda1 * w1 + lambda2 * w2) / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, RequestRate, Sla};
    use crate::latency::{Interference, LatencyProfile};
    use crate::resources::Resources;
    use crate::scaling::{own_workloads, plan_service, ScalerConfig};

    fn fig5_scenario() -> SharingScenario {
        SharingScenario {
            u: (0.08, 3.0, 0.1),
            h: (0.02, 3.0, 0.1),
            p: (0.03, 2.0, 0.1),
            gamma1: 40_000.0,
            gamma2: 40_000.0,
            sla1: 300.0,
            sla2: 300.0,
        }
    }

    #[test]
    fn theorem1_ordering_holds() {
        let cmp = fig5_scenario().compare().unwrap();
        assert!(
            cmp.priority <= cmp.non_sharing + 1e-9,
            "priority {} vs non-sharing {}",
            cmp.priority,
            cmp.non_sharing
        );
        assert!(
            cmp.non_sharing <= cmp.sharing_fcfs + 1e-9,
            "non-sharing {} vs sharing {}",
            cmp.non_sharing,
            cmp.sharing_fcfs
        );
    }

    #[test]
    fn upper_bound_bounds_priority() {
        let s = fig5_scenario();
        let exact = s.ru_priority().unwrap();
        let bound = s.ru_priority_upper_bound().unwrap();
        assert!(exact <= bound + 1e-6, "exact {exact} bound {bound}");
    }

    #[test]
    fn equal_sensitivity_closes_the_gap() {
        // Theorem 1's equality condition: a_u·R_u = a_h·R_h makes
        // non-sharing equal to FCFS sharing.
        let mut s = fig5_scenario();
        s.h = s.u;
        s.sla2 = s.sla1;
        let cmp = s.compare().unwrap();
        assert!(
            (cmp.non_sharing - cmp.sharing_fcfs).abs() / cmp.sharing_fcfs < 1e-3,
            "{cmp:?}"
        );
    }

    #[test]
    fn infeasible_scenario_returns_none() {
        let mut s = fig5_scenario();
        s.sla1 = 4.0; // below b_u + b_p = 5
        assert!(s.ru_sharing_fcfs().is_none());
        assert!(s.ru_non_sharing().is_none());
        assert!(s.ru_priority().is_none());
        assert!(s.compare().is_none());
    }

    #[test]
    fn mm1_sharing_beats_partitioning_in_mean() {
        // §2.3: pooling capacity is better for the mean processing time.
        let pooled = mm1::pooled(40.0, 40.0, 50.0, 50.0).unwrap();
        let parted = mm1::partitioned(40.0, 40.0, 50.0, 50.0).unwrap();
        assert!(pooled < parted, "pooled {pooled} vs partitioned {parted}");
    }

    #[test]
    fn mm1_overload_is_none() {
        assert!(mm1::mean_response_time(10.0, 10.0).is_none());
        assert!(mm1::mean_response_time(11.0, 10.0).is_none());
    }

    fn sharing_app() -> (App, [MicroserviceId; 3], [ServiceId; 2]) {
        let mut b = AppBuilder::new("fig5");
        let u = b.microservice("U", LatencyProfile::linear(0.08, 3.0), Resources::default());
        let h = b.microservice("H", LatencyProfile::linear(0.02, 3.0), Resources::default());
        let p = b.microservice("P", LatencyProfile::linear(0.03, 2.0), Resources::default());
        let s1 = b.service("svc1", Sla::p95_ms(300.0), |g| {
            let root = g.entry(u);
            g.call_seq(root, p);
        });
        let s2 = b.service("svc2", Sla::p95_ms(300.0), |g| {
            let root = g.entry(h);
            g.call_seq(root, p);
        });
        (b.build().unwrap(), [u, h, p], [s1, s2])
    }

    #[test]
    fn priorities_prefer_lower_target() {
        let (app, [_, _, p], [s1, s2]) = sharing_app();
        let rate = RequestRate::per_minute(40_000.0);
        let cfg = ScalerConfig::default();
        let mut plans = BTreeMap::new();
        for svc in [s1, s2] {
            let eff = own_workloads(&app, svc, rate).unwrap();
            plans.insert(
                svc,
                plan_service(&app, svc, rate, &eff, Interference::default(), &cfg).unwrap(),
            );
        }
        // Service 1 contains the more sensitive U, so P gets a *lower*
        // target there (Eq. 5 shifts budget to U) -> service 1 first.
        let priorities = assign_priorities(&app, &plans);
        assert_eq!(priorities[&p], vec![s1, s2]);
    }

    #[test]
    fn cumulative_workloads_stack_by_priority() {
        let (app, [u, _, p], [s1, s2]) = sharing_app();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(1000.0));
        w.set(s2, RequestRate::per_minute(500.0));
        let priorities: BTreeMap<_, _> = [(p, vec![s1, s2])].into_iter().collect();
        let eff1 = cumulative_workloads(&app, s1, &w, &priorities).unwrap();
        let eff2 = cumulative_workloads(&app, s2, &w, &priorities).unwrap();
        assert!((eff1[&p] - 1000.0).abs() < 1e-9, "high priority sees own");
        assert!((eff2[&p] - 1500.0).abs() < 1e-9, "low priority sees all");
        assert!((eff1[&u] - 1000.0).abs() < 1e-9, "exclusive ms sees own");
    }

    #[test]
    fn total_workloads_sum_all_services() {
        let (app, [_, _, p], [s1, s2]) = sharing_app();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(1000.0));
        w.set(s2, RequestRate::per_minute(500.0));
        let eff = total_workloads(&app, s1, &w).unwrap();
        assert!((eff[&p] - 1500.0).abs() < 1e-9);
    }
}
