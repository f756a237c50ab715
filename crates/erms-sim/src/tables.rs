//! Dense per-index lookup tables for the DES engine, split by access
//! temperature.
//!
//! `MicroserviceId` and `ServiceId` are dense `u32` indices assigned from
//! zero by the app builders (`erms-core/src/ids.rs`), so every per-event
//! `BTreeMap` lookup in the old engine was an O(log n) walk to find a slot
//! a `Vec` index reaches directly. [`SimTables`] is built once per run
//! from the [`Simulation`](crate::runtime::Simulation) configuration and
//! the `App`, and is laid out structure-of-arrays by how often the event
//! loop touches each field:
//!
//! * [`HotTables`] — columns read on (nearly) every event: arrival rates,
//!   per-container thread counts, pre-parameterised service-time samplers
//!   and the flattened priority-class lookup. One field = one dense
//!   array, so an `on_ready`/`on_done` touches only the cache lines of
//!   the columns it actually reads instead of dragging a whole per-ms
//!   row through the cache.
//! * [`ServiceTable`] — the flattened dependency graphs, read once per
//!   stage advance (warm, but bulky: kept as per-service rows so one
//!   service's fan-out walks contiguous memory).
//! * [`ColdTables`] — touched only at engine setup (queue construction)
//!   or never on the event path.
//!
//! The lognormal service-time parameters (σ² = ln(1+CV²),
//! μ = ln(mean) − σ²/2, and √σ²) are constants of a deployment, so
//! [`ServiceTimeSampler`] computes them here once instead of twice per
//! sample — with the identical floating-point operation order, so samples
//! stay bit-for-bit equal to
//! [`ServiceTimeModel::sample`](crate::service_time::ServiceTimeModel::sample).

use erms_core::app::{Service, WorkloadVector};
use erms_core::ids::{MicroserviceId, NodeId, ServiceId};
use rand::Rng;

use crate::runtime::{Scheduling, Simulation};
use crate::service_time::{standard_normal, ServiceTimeModel};

/// A lognormal service-time sampler with its parameters precomputed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServiceTimeSampler {
    mean: f64,
    mu: f64,
    sqrt_sigma2: f64,
    stochastic: bool,
}

impl ServiceTimeSampler {
    /// Parameterises the sampler for one deployment: the model under its
    /// containers' interference level. Uses the exact floating-point
    /// expressions of `ServiceTimeModel::sample` so the precomputed path
    /// produces bit-identical draws.
    pub(crate) fn new(model: ServiceTimeModel, itf: erms_core::latency::Interference) -> Self {
        let mean = model.mean_ms(itf);
        if model.cv <= 1e-9 {
            return Self {
                mean,
                mu: 0.0,
                sqrt_sigma2: 0.0,
                stochastic: false,
            };
        }
        let sigma2 = (1.0 + model.cv * model.cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self {
            mean,
            mu,
            sqrt_sigma2: sigma2.sqrt(),
            stochastic: true,
        }
    }

    /// Draws one service time.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        if !self.stochastic {
            return self.mean;
        }
        (self.mu + self.sqrt_sigma2 * standard_normal(rng)).exp()
    }
}

/// Sentinel in [`HotTables::class_off`] for single-class microservices:
/// every service is class 0 and no per-service row exists.
const SINGLE_CLASS: u32 = u32::MAX;

/// Per-event columns, one dense array per field (see the module docs).
/// All indexed by `MicroserviceId::index()` except `rate_per_ms`
/// (`ServiceId::index()`) and `class_of` (offset + `ServiceId::index()`).
#[derive(Debug, Clone)]
pub(crate) struct HotTables {
    /// Arrival rate per `ServiceId::index()`, requests per ms.
    pub(crate) rate_per_ms: Vec<f64>,
    /// Threads per container.
    pub(crate) threads: Vec<u32>,
    /// Pre-parameterised service-time sampler at each deployment's
    /// interference.
    pub(crate) samplers: Vec<ServiceTimeSampler>,
    /// Offset of each microservice's per-service class row in `class_of`,
    /// or [`SINGLE_CLASS`].
    class_off: Vec<u32>,
    /// Flattened priority classes: rows of `service_count` entries, one
    /// row per prioritised microservice.
    class_of: Vec<u32>,
}

impl HotTables {
    /// Threads per container of microservice index `mi`.
    #[inline]
    pub(crate) fn threads(&self, mi: usize) -> usize {
        self.threads[mi] as usize
    }

    /// The priority class of a service at microservice index `mi`.
    #[inline]
    pub(crate) fn class(&self, mi: usize, service: ServiceId) -> usize {
        let off = self.class_off[mi];
        if off == SINGLE_CLASS {
            0
        } else {
            self.class_of[off as usize + service.index()] as usize
        }
    }
}

/// Build/setup-time columns, indexed by `MicroserviceId::index()`. Never
/// read inside the event loop: `n_classes` sizes each container's queue
/// vector once when the engine lays out deployment state.
#[derive(Debug, Clone)]
pub(crate) struct ColdTables {
    /// Number of priority classes (1 = FCFS / no priorities here).
    pub(crate) n_classes: Vec<u32>,
}

/// Flattened per-service dependency-graph tables, indexed by
/// `NodeId::index()`. The engine's stage fan-out walks these dense arrays
/// instead of chasing `App → Service → DependencyGraph → Node` pointers
/// on every completion event.
#[derive(Debug, Clone)]
pub(crate) struct ServiceTable {
    /// Root node of the service's graph.
    pub(crate) root_node: NodeId,
    /// Microservice of the root node.
    pub(crate) root_ms: MicroserviceId,
    /// Microservice per node.
    pub(crate) node_ms: Vec<MicroserviceId>,
    /// Whole part of each node's call multiplicity.
    pub(crate) node_whole: Vec<u32>,
    /// Fractional part of each node's multiplicity, pre-clamped to
    /// `[0, 1]` exactly as the per-event computation clamped it; `0.0`
    /// for integral multiplicities (no RNG draw).
    pub(crate) node_frac: Vec<f64>,
    /// Per node: `(start, count)` span of its stages in `stage_spans`.
    pub(crate) node_stages: Vec<(u32, u32)>,
    /// Per stage: `(start, count)` span of its children in `children`.
    pub(crate) stage_spans: Vec<(u32, u32)>,
    /// Child node ids, flattened stage by stage.
    pub(crate) children: Vec<NodeId>,
}

impl ServiceTable {
    fn build(svc: &Service) -> Self {
        let graph = &svc.graph;
        let n = graph.len();
        let mut node_ms = vec![MicroserviceId::new(0); n];
        let mut node_whole = vec![0u32; n];
        let mut node_frac = vec![0.0f64; n];
        let mut node_stages = vec![(0u32, 0u32); n];
        let mut stage_spans = Vec::new();
        let mut children = Vec::new();
        for (id, node) in graph.iter() {
            let i = id.index();
            node_ms[i] = node.microservice;
            let m = node.multiplicity;
            node_whole[i] = m.floor() as u32;
            node_frac[i] = (m - m.floor()).clamp(0.0, 1.0);
            node_stages[i] = (stage_spans.len() as u32, node.stages.len() as u32);
            for stage in &node.stages {
                stage_spans.push((children.len() as u32, stage.len() as u32));
                children.extend(stage.iter().copied());
            }
        }
        let root_node = graph.root();
        Self {
            root_node,
            root_ms: node_ms[root_node.index()],
            node_ms,
            node_whole,
            node_frac,
            node_stages,
            stage_spans,
            children,
        }
    }

    /// All `(parent_ms, child_ms)` dependency edges of the service, one
    /// per graph edge in node/stage order — the per-edge view that shard
    /// boundary flags and cut statistics are computed from.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (MicroserviceId, MicroserviceId)> + '_ {
        self.node_ms.iter().enumerate().flat_map(move |(ni, &pms)| {
            let (stages_start, stages_count) = self.node_stages[ni];
            (0..stages_count as usize).flat_map(move |stage| {
                let (children_start, children_count) =
                    self.stage_spans[stages_start as usize + stage];
                let span = children_start as usize..(children_start + children_count) as usize;
                self.children[span]
                    .iter()
                    .map(move |&child| (pms, self.node_ms[child.index()]))
            })
        })
    }
}

/// All immutable lookup tables of one run, laid out densely by id index
/// and grouped by access temperature (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct SimTables {
    /// Per-event columns.
    pub(crate) hot: HotTables,
    /// Flattened dependency graphs by `ServiceId::index()`.
    pub(crate) services: Vec<ServiceTable>,
    /// Setup-only columns.
    pub(crate) cold: ColdTables,
}

impl SimTables {
    /// Builds the tables from a validated simulation configuration.
    pub(crate) fn build(
        sim: &Simulation<'_>,
        workloads: &WorkloadVector,
        priorities: &std::collections::BTreeMap<MicroserviceId, Vec<ServiceId>>,
    ) -> Self {
        let service_count = sim.app.service_count();
        let mut rate_per_ms = vec![0.0; service_count];
        for (sid, rate) in workloads.iter() {
            rate_per_ms[sid.index()] = rate.as_per_ms();
        }
        let ms_count = sim.app.microservice_count();
        let mut threads = Vec::with_capacity(ms_count);
        let mut samplers = Vec::with_capacity(ms_count);
        let mut class_off = Vec::with_capacity(ms_count);
        let mut class_of = Vec::new();
        let mut n_classes = Vec::with_capacity(ms_count);
        for (ms_id, _) in sim.app.microservices() {
            match (sim.config.scheduling, priorities.get(&ms_id)) {
                (Scheduling::Priority { .. }, Some(order)) if !order.is_empty() => {
                    // +1 catch-all lowest class for services outside the
                    // priority order.
                    let classes = order.len() + 1;
                    class_off.push(class_of.len() as u32);
                    let row_start = class_of.len();
                    class_of.resize(row_start + service_count, (classes - 1) as u32);
                    for (rank, &svc) in order.iter().enumerate() {
                        // Ids outside the app (never matched by any call)
                        // are ignored, as the map-based lookup ignored
                        // them.
                        if svc.index() < service_count {
                            class_of[row_start + svc.index()] = rank as u32;
                        }
                    }
                    n_classes.push(classes as u32);
                }
                _ => {
                    class_off.push(SINGLE_CLASS);
                    n_classes.push(1);
                }
            }
            threads.push(
                sim.threads
                    .get(&ms_id)
                    .copied()
                    .unwrap_or(sim.config.default_threads)
                    .max(1) as u32,
            );
            let model = sim.service_times.get(&ms_id).copied().unwrap_or_default();
            samplers.push(ServiceTimeSampler::new(model, sim.uniform_itf));
        }
        let services = sim
            .app
            .services()
            .map(|(_, svc)| ServiceTable::build(svc))
            .collect();
        Self {
            hot: HotTables {
                rate_per_ms,
                threads,
                samplers,
                class_off,
                class_of,
            },
            services,
            cold: ColdTables { n_classes },
        }
    }
}
