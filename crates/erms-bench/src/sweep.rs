//! The static workload × SLA sweep shared by the Fig. 11/12/14 harnesses
//! (§6.3.1): all DeathStarBench-like applications, workloads from 600 to
//! 100 000 req/min, SLAs from 50 to 200 ms, all schemes.
//!
//! Planning happens at the *observed* cluster interference; the
//! statistics-driven baselines internally anchor to their profiling
//! reference (they are not interference-aware, §2.2), which is the main
//! source of their SLA violations in Fig. 12.
//!
//! # Parallel evaluation engine
//!
//! [`static_sweep`] fans the grid out over (sla, app, rate, scheme) cells
//! with rayon. Every cell is independent: it reads the immutable
//! [`AppCatalog`] (apps built once per SLA level, not once per cell),
//! constructs its own scheme instance, and plans. The Erms cells share one
//! [`PlanCache`], so each (app, SLA) pair derives its merge trees once and
//! every other rate replays them. Results come back in input-cell order,
//! which is exactly the serial loop order — [`static_sweep`] is
//! bit-identical, record for record, to [`static_sweep_serial`], and a
//! determinism test in `erms-bench/tests` holds it to that.

use std::sync::Arc;

use rayon::prelude::*;

use erms_baselines::{Firm, GrandSlam, Rhythm};
use erms_core::app::{App, RequestRate, WorkloadVector};
use erms_core::autoscaler::{Autoscaler, ScalingPlan};
use erms_core::cache::PlanCache;
use erms_core::evaluate::service_latency;
use erms_core::latency::Interference;
use erms_core::manager::Erms;

use crate::{plan_static, violation_probability};

/// Which schemes a sweep includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSet {
    /// Erms, Firm, GrandSLAm, Rhythm (the Fig. 11/12 line-up).
    Full,
    /// Erms with FCFS scheduling instead of priorities plus the baselines
    /// (the Fig. 14a ablation).
    LatencyTargetOnly,
}

impl SchemeSet {
    /// Number of schemes in the line-up.
    pub(crate) fn len(self) -> usize {
        4
    }

    /// Builds the `index`-th scheme of the line-up, sharing `cache` with
    /// the Erms planner when one is given.
    fn scheme(self, index: usize, cache: Option<&Arc<PlanCache>>) -> Box<dyn Autoscaler> {
        let erms: Box<dyn Autoscaler> = {
            let erms = match self {
                SchemeSet::Full => Erms::new(),
                SchemeSet::LatencyTargetOnly => Erms::fcfs(),
            };
            match cache {
                Some(cache) => Box::new(erms.with_cache(Arc::clone(cache))),
                None => Box::new(erms),
            }
        };
        match index {
            0 => erms,
            1 => Box::new(Firm::new()),
            2 => Box::new(GrandSlam::new()),
            3 => Box::new(Rhythm::new()),
            _ => unreachable!("scheme index out of range"),
        }
    }
}

/// One (application, workload, SLA, scheme) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Application name.
    pub app: String,
    /// Per-service request rate, req/min.
    pub workload: f64,
    /// SLA threshold, ms.
    pub sla_ms: f64,
    /// Scheme name.
    pub scheme: String,
    /// Total containers allocated.
    pub containers: u64,
    /// Mean SLA-violation probability across the app's services.
    pub violation: f64,
    /// Mean predicted-P95 / SLA ratio across services.
    pub latency_ratio: f64,
}

/// Builds the three benchmark apps at one SLA level.
pub fn apps_at(sla_ms: f64) -> Vec<(String, App)> {
    erms_workload::apps::deathstarbench(sla_ms)
        .into_iter()
        .map(|b| (b.app.name().to_string(), b.app))
        .collect()
}

/// The immutable (SLA level → benchmark apps) table of one sweep, built
/// once up front and shared read-only by every worker.
///
/// The serial sweep used to rebuild all apps for every (app, rate, scheme)
/// cell; apps at a given SLA never change across cells, so the catalog
/// hoists that reconstruction out of the grid entirely.
#[derive(Debug)]
pub struct AppCatalog {
    slas_ms: Vec<f64>,
    apps: Vec<Vec<(String, App)>>,
}

impl AppCatalog {
    /// Builds the benchmark apps at every given SLA level.
    pub fn new(slas_ms: &[f64]) -> Self {
        Self {
            slas_ms: slas_ms.to_vec(),
            apps: slas_ms.iter().map(|&sla| apps_at(sla)).collect(),
        }
    }

    /// The SLA levels, in construction order.
    pub(crate) fn slas_ms(&self) -> &[f64] {
        &self.slas_ms
    }

    /// The `(name, app)` pairs at the `sla_index`-th SLA level.
    pub(crate) fn apps_at(&self, sla_index: usize) -> &[(String, App)] {
        &self.apps[sla_index]
    }
}

/// Evaluates a plan: mean violation probability and latency/SLA ratio
/// across services, at the true cluster interference.
pub fn evaluate_plan(
    app: &App,
    plan: &ScalingPlan,
    workloads: &WorkloadVector,
    itf: Interference,
    cv: f64,
) -> (f64, f64) {
    let mut violation = 0.0;
    let mut ratio = 0.0;
    let mut count = 0usize;
    for (sid, svc) in app.services() {
        let p95 = service_latency(app, plan, workloads, sid, &itf).unwrap_or(f64::INFINITY);
        violation += violation_probability(p95, svc.sla.threshold_ms, cv);
        ratio += (p95 / svc.sla.threshold_ms).min(10.0);
        count += 1;
    }
    (violation / count.max(1) as f64, ratio / count.max(1) as f64)
}

/// One grid cell: plan `scheme_index`'s scheme for (`app`, `rate`, `sla`)
/// and evaluate it. `None` when planning fails (e.g. infeasible SLA) —
/// the serial loop skips those cells too.
#[allow(clippy::too_many_arguments)] // private helper mirroring the grid axes one-to-one
fn sweep_cell(
    app_name: &str,
    app: &App,
    rate: f64,
    sla_ms: f64,
    itf: Interference,
    set: SchemeSet,
    scheme_index: usize,
    cache: Option<&Arc<PlanCache>>,
) -> Option<SweepRecord> {
    let w = WorkloadVector::uniform(app, RequestRate::per_minute(rate));
    let mut scheme = set.scheme(scheme_index, cache);
    // One controller round per window for every scheme — Firm's RL tuner
    // adjusts one bottleneck at a time, so this is exactly the lag the
    // paper observes (16.5% violations, §6.3).
    let rounds = 1;
    let plan = plan_static(scheme.as_mut(), app, &w, itf, rounds).ok()?;
    let (violation, latency_ratio) = evaluate_plan(app, &plan, &w, itf, 0.3);
    Some(SweepRecord {
        app: app_name.to_string(),
        workload: rate,
        sla_ms,
        scheme: scheme.name().to_string(),
        containers: plan.total_containers(),
        violation,
        latency_ratio,
    })
}

/// Runs the full sweep in parallel and returns one record per setting per
/// scheme, in the same order as [`static_sweep_serial`].
pub fn static_sweep(
    workloads_per_min: &[f64],
    slas_ms: &[f64],
    itf: Interference,
    set: SchemeSet,
) -> Vec<SweepRecord> {
    let catalog = AppCatalog::new(slas_ms);
    let cache = Arc::new(PlanCache::new());
    static_sweep_on(&catalog, workloads_per_min, itf, set, &cache)
}

/// [`static_sweep`] over a pre-built catalog and an explicit shared
/// [`PlanCache`] (hit/miss counters readable by the caller afterwards).
pub fn static_sweep_on(
    catalog: &AppCatalog,
    workloads_per_min: &[f64],
    itf: Interference,
    set: SchemeSet,
    cache: &Arc<PlanCache>,
) -> Vec<SweepRecord> {
    // Enumerate cells in serial-loop order; rayon returns results in that
    // same order, so the flattened records match the serial sweep exactly.
    let mut cells: Vec<(usize, usize, f64, usize)> = Vec::new();
    for sla_index in 0..catalog.slas_ms().len() {
        for app_index in 0..catalog.apps_at(sla_index).len() {
            for &rate in workloads_per_min {
                for scheme_index in 0..set.len() {
                    cells.push((sla_index, app_index, rate, scheme_index));
                }
            }
        }
    }
    cells
        .into_par_iter()
        .map(|(sla_index, app_index, rate, scheme_index)| {
            let sla = catalog.slas_ms()[sla_index];
            let (app_name, app) = &catalog.apps_at(sla_index)[app_index];
            sweep_cell(
                app_name,
                app,
                rate,
                sla,
                itf,
                set,
                scheme_index,
                Some(cache),
            )
        })
        .collect::<Vec<Option<SweepRecord>>>()
        .into_iter()
        .flatten()
        .collect()
}

/// The pre-parallelism reference implementation: one thread, no catalog,
/// no plan cache — apps are rebuilt per SLA level on every invocation and
/// every cell derives its merge trees from scratch.
///
/// Kept verbatim as the baseline the determinism test compares
/// [`static_sweep`] against.
pub fn static_sweep_serial(
    workloads_per_min: &[f64],
    slas_ms: &[f64],
    itf: Interference,
    set: SchemeSet,
) -> Vec<SweepRecord> {
    let mut records = Vec::new();
    for &sla in slas_ms {
        for (app_name, app) in apps_at(sla) {
            for &rate in workloads_per_min {
                for scheme_index in 0..set.len() {
                    if let Some(record) =
                        sweep_cell(&app_name, &app, rate, sla, itf, set, scheme_index, None)
                    {
                        records.push(record);
                    }
                }
            }
        }
    }
    records
}

/// Mean of a metric per scheme.
pub fn mean_by_scheme(
    records: &[SweepRecord],
    metric: impl Fn(&SweepRecord) -> f64,
) -> Vec<(String, f64)> {
    let mut names: Vec<String> = records.iter().map(|r| r.scheme.clone()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.scheme == name)
                .map(&metric)
                .collect();
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            (name, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Send + Sync audit backing the parallel fan-out: everything a
    /// worker cell touches must be shareable/sendable across threads.
    #[test]
    fn parallel_cell_inputs_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<App>();
        assert_send_sync::<AppCatalog>();
        assert_send_sync::<PlanCache>();
        assert_send_sync::<Interference>();
        assert_send_sync::<WorkloadVector>();
        assert_send_sync::<SchemeSet>();
        assert_send_sync::<SweepRecord>();
    }
}
