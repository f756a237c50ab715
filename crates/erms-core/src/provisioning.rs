//! Interference-aware resource provisioning (§5.4).
//!
//! The *Online Scaling* module decides **how many** containers each
//! microservice needs; this module decides **where** they run. Containers
//! of one microservice spread across hosts with different background load
//! (batch jobs colocated with microservices, §2.1) experience different
//! interference, unbalancing the performance of supposedly-identical
//! containers and causing SLA violations. Erms therefore places (and
//! releases) containers so as to minimise *resource unbalance*: the
//! deviation of every host's utilisation from the cluster-wide mean.
//!
//! Solving the underlying non-linear integer program exactly is NP-hard;
//! like the paper, we use a greedy descent and optionally partition the
//! hosts into fixed groups and solve each group independently (the POP
//! technique \[31\]), trading a little quality for a large speed-up.
//!
//! The [`PlacementPolicy::KubernetesDefault`] baseline reproduces the
//! stock scheduler the paper compares against (Fig. 15): least-requested
//! spreading that sees only container *requests* — it is blind to the
//! background (batch) utilisation that actually causes interference.

use std::collections::BTreeMap;

use crate::app::App;
use crate::autoscaler::ScalingPlan;
use crate::error::{Error, Result};
use crate::ids::MicroserviceId;
use crate::latency::Interference;
use crate::resources::HostClass;

/// Procurement model of a host: stable on-demand capacity or reclaimable
/// spot capacity.
///
/// Spot hosts are cheap elastic capacity the provider may take back with an
/// advance notice; the provisioning layer cordons a host once a reclamation
/// notice is posted, and the spot-aware resilience ladder evacuates its
/// containers to surviving capacity inside the grace window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostLifecycle {
    /// Regular capacity: stays until it fails.
    #[default]
    OnDemand,
    /// Reclaimable capacity: the provider may post a reclamation notice and
    /// take the host back after a grace window.
    Spot,
}

/// Physical failure domain of a host. Hosts sharing a rack share a switch
/// and a power feed; hosts sharing a zone share cooling and a power grid —
/// so faults are *correlated* along these coordinates, and
/// `ClusterFaultPlan::FailDomain` can take out a whole rack or zone at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct FailureDomain {
    /// Availability zone index.
    pub zone: u32,
    /// Rack index within the zone.
    pub rack: u32,
}

impl FailureDomain {
    /// Creates a (zone, rack) coordinate.
    pub fn new(zone: u32, rack: u32) -> Self {
        Self { zone, rack }
    }
}

/// One physical host: capacity, invisible background (batch) usage, and the
/// containers currently placed on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// CPU capacity in cores.
    pub cpu_capacity: f64,
    /// Memory capacity in MB.
    pub mem_capacity: f64,
    /// CPU used by colocated batch jobs (cores) — visible to utilisation
    /// probes (Prometheus) but *not* to request-based schedulers.
    pub background_cpu: f64,
    /// Memory used by colocated batch jobs (MB).
    pub background_mem: f64,
    /// Procurement model (on-demand vs reclaimable spot).
    pub lifecycle: HostLifecycle,
    /// Physical (zone, rack) coordinate for correlated failures.
    pub domain: FailureDomain,
    /// Multiplier on utilisation-derived interference (from the host class;
    /// 1.0 = paper-uniform behaviour).
    pub interference_scale: f64,
    /// Pending reclamation notice: the controller round at (or after) which
    /// the provider takes this host back. `None` = no notice posted.
    pub reclaim_at_round: Option<u64>,
    containers: BTreeMap<MicroserviceId, u32>,
    /// Vertical-scaling factors: per-microservice multiplier on container
    /// resource requests (resize-in-place). Absent = 1.0.
    resize: BTreeMap<MicroserviceId, u64>,
}

impl Host {
    /// Creates an empty on-demand host with neutral interference in domain
    /// (0, 0). The paper's hosts have 32 cores and 64 GB (§6.1).
    pub fn new(cpu_capacity: f64, mem_capacity: f64) -> Self {
        Self {
            cpu_capacity,
            mem_capacity,
            background_cpu: 0.0,
            background_mem: 0.0,
            lifecycle: HostLifecycle::OnDemand,
            domain: FailureDomain::default(),
            interference_scale: 1.0,
            reclaim_at_round: None,
            containers: BTreeMap::new(),
            resize: BTreeMap::new(),
        }
    }

    /// A paper-shaped host (32 cores, 64 GB).
    pub fn paper_host() -> Self {
        Self::new(32.0, 64.0 * 1024.0)
    }

    /// Creates an empty host shaped by a [`HostClass`].
    pub fn from_class(class: &HostClass) -> Self {
        let mut host = Self::new(class.cpu, class.memory_mb);
        host.interference_scale = class.interference_scale;
        host
    }

    /// Builder: sets the procurement lifecycle.
    pub fn with_lifecycle(mut self, lifecycle: HostLifecycle) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Builder: sets the (zone, rack) failure domain.
    pub fn with_domain(mut self, domain: FailureDomain) -> Self {
        self.domain = domain;
        self
    }

    /// Whether this is reclaimable spot capacity.
    pub fn is_spot(&self) -> bool {
        self.lifecycle == HostLifecycle::Spot
    }

    /// Whether a reclamation notice is pending on this host.
    pub fn reclaiming(&self) -> bool {
        self.reclaim_at_round.is_some()
    }

    /// The vertical-scaling factor applied to containers of `ms` on this
    /// host (1.0 when never resized).
    pub fn resize_factor(&self, ms: MicroserviceId) -> f64 {
        self.resize
            .get(&ms)
            .map(|&bits| f64::from_bits(bits))
            .unwrap_or(1.0)
    }

    fn set_resize(&mut self, ms: MicroserviceId, factor: f64) {
        if (factor - 1.0).abs() < 1e-12 {
            self.resize.remove(&ms);
        } else {
            self.resize.insert(ms, factor.to_bits());
        }
    }

    /// Current placements on this host, in microservice-id order — the
    /// export half of snapshot/restore for out-of-process persistence.
    pub fn placements(&self) -> impl Iterator<Item = (MicroserviceId, u32)> + '_ {
        self.containers.iter().map(|(&ms, &count)| (ms, count))
    }

    /// Per-microservice vertical-resize factors in effect on this host
    /// (factors indistinguishable from 1.0 are never stored, so every
    /// yielded entry is a real squeeze).
    pub fn resize_factors(&self) -> impl Iterator<Item = (MicroserviceId, f64)> + '_ {
        self.resize
            .iter()
            .map(|(&ms, &bits)| (ms, f64::from_bits(bits)))
    }

    /// Restores the mutable placement state captured by
    /// [`placements`](Self::placements) and
    /// [`resize_factors`](Self::resize_factors). The maps are taken
    /// verbatim — no re-normalisation — so restore ∘ export is the
    /// identity down to f64 bit patterns, which snapshot-driven warm
    /// re-plans rely on.
    pub fn restore_placements(
        &mut self,
        containers: impl IntoIterator<Item = (MicroserviceId, u32)>,
        resize: impl IntoIterator<Item = (MicroserviceId, f64)>,
    ) {
        self.containers = containers.into_iter().collect();
        self.resize = resize
            .into_iter()
            .map(|(ms, factor)| (ms, factor.to_bits()))
            .collect();
    }

    /// Containers of `ms` currently on this host.
    pub fn containers_of(&self, ms: MicroserviceId) -> u32 {
        self.containers.get(&ms).copied().unwrap_or(0)
    }

    /// Total containers on this host.
    pub fn container_count(&self) -> u32 {
        self.containers.values().sum()
    }

    /// CPU and memory consumed by placed containers (by request size,
    /// scaled by any vertical-resize factor in effect).
    fn container_usage(&self, app: &App) -> (f64, f64) {
        let mut cpu = 0.0;
        let mut mem = 0.0;
        for (&ms, &count) in &self.containers {
            if let Ok(m) = app.microservice(ms) {
                let factor = self.resize_factor(ms);
                cpu += m.resources.cpu * factor * count as f64;
                mem += m.resources.memory_mb * factor * count as f64;
            }
        }
        (cpu, mem)
    }

    /// Actual utilisation including background load, as a pair of
    /// fractions.
    pub fn utilization(&self, app: &App) -> (f64, f64) {
        self.utilization_from(self.container_usage(app))
    }

    fn utilization_from(&self, (cpu, mem): (f64, f64)) -> (f64, f64) {
        (
            ((cpu + self.background_cpu) / self.cpu_capacity).clamp(0.0, 1.0),
            ((mem + self.background_mem) / self.mem_capacity).clamp(0.0, 1.0),
        )
    }

    /// Utilisation from container *requests* only — what the Kubernetes
    /// default scheduler sees.
    pub fn requested_utilization(&self, app: &App) -> (f64, f64) {
        self.requested_utilization_from(self.container_usage(app))
    }

    fn requested_utilization_from(&self, (cpu, mem): (f64, f64)) -> (f64, f64) {
        (
            (cpu / self.cpu_capacity).clamp(0.0, 1.0),
            (mem / self.mem_capacity).clamp(0.0, 1.0),
        )
    }

    /// Utilisation scaled by the host class's interference profile — the
    /// pressure colocated containers actually *feel* on this hardware.
    /// Identical to [`Host::utilization`] when `interference_scale == 1.0`.
    pub fn felt_utilization(&self, app: &App) -> (f64, f64) {
        self.felt_utilization_from(self.container_usage(app))
    }

    fn felt_utilization_from(&self, usage: (f64, f64)) -> (f64, f64) {
        let (c, m) = self.utilization_from(usage);
        (
            (c * self.interference_scale).clamp(0.0, 1.0),
            (m * self.interference_scale).clamp(0.0, 1.0),
        )
    }

    /// Whether one more container requesting `(need_cpu, need_mem)` fits
    /// next to the containers using `(cpu, mem)`. Cordoned (reclaiming)
    /// hosts fit nothing.
    fn fits(&self, (cpu, mem): (f64, f64), (need_cpu, need_mem): (f64, f64)) -> bool {
        !self.reclaiming()
            && cpu + self.background_cpu + need_cpu <= self.cpu_capacity
            && mem + self.background_mem + need_mem <= self.mem_capacity
    }

    /// The greedy placement score of this host under `policy` given its
    /// container usage `used`; the least-scored host that fits wins.
    fn placement_score(&self, used: (f64, f64), policy: PlacementPolicy) -> f64 {
        match policy {
            PlacementPolicy::KubernetesDefault => {
                // Least-requested: only container requests count.
                let (c, m) = self.requested_utilization_from(used);
                c + m
            }
            PlacementPolicy::InterferenceAware { .. } => {
                // Actual utilisation including background load, scaled by
                // the host class's interference profile: filling the host
                // where the new container would *feel* the least pressure
                // is the greedy step that most reduces unbalance across a
                // heterogeneous mix.
                let (c, m) = self.felt_utilization_from(used);
                c + m
            }
        }
    }

    /// Removes one container of `ms`, which the caller knows is here.
    fn release_one(&mut self, ms: MicroserviceId) {
        let entry = self
            .containers
            .get_mut(&ms)
            .expect("the caller picked a host holding `ms`");
        *entry -= 1;
        if *entry == 0 {
            self.containers.remove(&ms);
        }
    }

    /// The interference containers on this host experience (§5.2 uses host
    /// CPU and memory utilisation, here scaled by the class profile).
    pub fn interference(&self, app: &App) -> Interference {
        let (c, m) = self.felt_utilization(app);
        Interference::new(c, m)
    }
}

/// Container placement across a cluster of hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    hosts: Vec<Host>,
    /// Cluster-wide vertical-scaling factors (f64 bit patterns), mirrored
    /// onto every host so per-host utilisation stays self-contained. Kept
    /// here so hosts added later inherit the factors.
    resize: BTreeMap<MicroserviceId, u64>,
}

impl ClusterState {
    /// Creates a cluster of identical empty hosts.
    pub fn new(hosts: Vec<Host>) -> Self {
        Self {
            hosts,
            resize: BTreeMap::new(),
        }
    }

    /// The paper's 20-host evaluation cluster (§6.1).
    pub fn paper_cluster() -> Self {
        Self::new((0..20).map(|_| Host::paper_host()).collect())
    }

    /// Read access to the hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Mutable access to the hosts (e.g. to inject background load).
    pub fn hosts_mut(&mut self) -> &mut [Host] {
        &mut self.hosts
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the cluster has no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Total containers of `ms` across the cluster.
    pub fn containers_of(&self, ms: MicroserviceId) -> u32 {
        self.hosts.iter().map(|h| h.containers_of(ms)).sum()
    }

    /// Cluster-average interference — the value the Online Scaling module
    /// feeds into the profiling model (§5.3.1).
    pub fn average_interference(&self, app: &App) -> Interference {
        mean_felt(self.hosts.iter().map(|h| h.felt_utilization(app)))
    }

    /// Average interference experienced by the containers of `ms`
    /// (container-weighted), or the cluster average if it has none.
    pub fn microservice_interference(&self, app: &App, ms: MicroserviceId) -> Interference {
        let mut weight = 0.0;
        let mut cpu = 0.0;
        let mut mem = 0.0;
        for h in &self.hosts {
            let count = h.containers_of(ms) as f64;
            if count > 0.0 {
                let (c, m) = h.felt_utilization(app);
                cpu += c * count;
                mem += m * count;
                weight += count;
            }
        }
        if weight > 0.0 {
            Interference::new(cpu / weight, mem / weight)
        } else {
            self.average_interference(app)
        }
    }

    /// Cluster-wide vertical-resize factors (the values mirrored onto every
    /// host), for snapshot export.
    pub fn resize_factors(&self) -> impl Iterator<Item = (MicroserviceId, f64)> + '_ {
        self.resize
            .iter()
            .map(|(&ms, &bits)| (ms, f64::from_bits(bits)))
    }

    /// Restores cluster-wide vertical-resize factors captured by
    /// [`resize_factors`](Self::resize_factors), verbatim (no
    /// re-normalisation) — the hosts' own per-host factors are restored
    /// separately via [`Host::restore_placements`].
    pub fn restore_resize_factors(
        &mut self,
        factors: impl IntoIterator<Item = (MicroserviceId, f64)>,
    ) {
        self.resize = factors
            .into_iter()
            .map(|(ms, factor)| (ms, factor.to_bits()))
            .collect();
    }

    /// Appends a host to the cluster (e.g. a replacement after a failure).
    /// The host inherits any cluster-wide vertical-resize factors.
    pub fn add_host(&mut self, host: Host) {
        let mut host = host;
        for (&ms, &bits) in &self.resize {
            host.set_resize(ms, f64::from_bits(bits));
        }
        self.hosts.push(host);
    }

    /// Removes host `index` from the cluster, returning it together with
    /// every container that was resident on it — the "host failure" fault:
    /// all resident containers are lost and must be re-placed by the next
    /// controller round.
    ///
    /// Returns `None` when `index` is out of bounds.
    pub fn fail_host(&mut self, index: usize) -> Option<Host> {
        if index >= self.hosts.len() {
            return None;
        }
        Some(self.hosts.remove(index))
    }

    /// Removes up to `count` containers of `ms` from the cluster (most
    /// loaded hosts first), returning how many were actually removed — the
    /// "container crash" fault at cluster level.
    pub fn crash_containers(&mut self, app: &App, ms: MicroserviceId, count: u32) -> u32 {
        let mut usage = UsageCache::new(&self.hosts, app);
        let mut removed = 0;
        while removed < count {
            let Some(victim) = usage.most_loaded_holding(&self.hosts, ms) else {
                break;
            };
            self.hosts[victim].release_one(ms);
            usage.refresh(&self.hosts, app, victim);
            removed += 1;
        }
        removed
    }

    /// Total containers across all hosts and microservices.
    pub fn total_containers(&self) -> u64 {
        self.hosts.iter().map(|h| h.container_count() as u64).sum()
    }

    /// Resource unbalance (§5.4): the mean squared deviation of host
    /// utilisation (CPU and memory) from the cluster-wide mean.
    pub fn unbalance(&self, app: &App) -> f64 {
        unbalance_of(self.hosts.iter().map(|h| h.felt_utilization(app)))
    }

    // ---- vertical scaling (resize-in-place) ----------------------------

    /// The cluster-wide vertical-scaling factor in effect for `ms`.
    pub fn resize_factor(&self, ms: MicroserviceId) -> f64 {
        self.resize
            .get(&ms)
            .map(|&bits| f64::from_bits(bits))
            .unwrap_or(1.0)
    }

    /// Resizes every container of `ms` in place: existing and future
    /// containers request `factor` × their configured resources. This is
    /// the second actuator next to horizontal replicas — under a capacity
    /// crunch the ladder squeezes containers before shedding demand.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive (a controller bug, not
    /// an operational condition).
    pub fn resize_in_place(&mut self, ms: MicroserviceId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "resize factor must be finite and positive"
        );
        if (factor - 1.0).abs() < 1e-12 {
            self.resize.remove(&ms);
        } else {
            self.resize.insert(ms, factor.to_bits());
        }
        for h in &mut self.hosts {
            h.set_resize(ms, factor);
        }
    }

    /// Applies one vertical-scaling factor to every microservice of `app`.
    /// `factor = 1.0` restores full-size containers.
    pub fn set_uniform_resize(&mut self, app: &App, factor: f64) {
        // Restoring full size where nothing was ever resized removes
        // nothing: skip the microservices × hosts walk of empty maps.
        if (factor - 1.0).abs() < 1e-12
            && self.resize.is_empty()
            && self.hosts.iter().all(|h| h.resize.is_empty())
        {
            return;
        }
        for (ms, _) in app.microservices() {
            self.resize_in_place(ms, factor);
        }
    }

    // ---- spot reclamation control plane --------------------------------

    /// Number of spot hosts currently in the cluster.
    pub fn spot_host_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.is_spot()).count()
    }

    /// Posts a reclamation notice on host `index`: the provider takes the
    /// host back at controller round `due_round`. The host is cordoned
    /// immediately (no new placements land on it). Returns `false` when
    /// `index` is out of bounds.
    pub fn post_reclaim_notice(&mut self, index: usize, due_round: u64) -> bool {
        match self.hosts.get_mut(index) {
            Some(h) => {
                h.reclaim_at_round = Some(due_round);
                true
            }
            None => false,
        }
    }

    /// Posts reclamation notices on up to `count` spot hosts without a
    /// pending notice (lowest index first — deterministic), due at
    /// `due_round`. Returns how many notices were posted. This is the
    /// "burst reclamation" the provider issues when it wants capacity back.
    pub fn post_spot_reclamations(&mut self, count: usize, due_round: u64) -> usize {
        let mut posted = 0;
        for h in &mut self.hosts {
            if posted >= count {
                break;
            }
            if h.is_spot() && !h.reclaiming() {
                h.reclaim_at_round = Some(due_round);
                posted += 1;
            }
        }
        posted
    }

    /// Indices of hosts with a pending reclamation notice.
    pub fn reclaiming_hosts(&self) -> Vec<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.reclaiming())
            .map(|(i, _)| i)
            .collect()
    }

    /// Executes every reclamation whose notice is due at or before `round`:
    /// the provider takes the hosts back, destroying any containers still
    /// resident. Returns `(hosts_reclaimed, containers_lost)`.
    pub fn execute_due_reclamations(&mut self, round: u64) -> (usize, u32) {
        let mut hosts = 0;
        let mut containers = 0u32;
        let mut i = self.hosts.len();
        while i > 0 {
            i -= 1;
            if matches!(self.hosts[i].reclaim_at_round, Some(due) if due <= round) {
                containers += self.hosts[i].container_count();
                self.hosts.remove(i);
                hosts += 1;
            }
        }
        (hosts, containers)
    }

    /// Drains every container off hosts with a pending reclamation notice —
    /// the evacuation half of the spot-aware ladder rung. The drained
    /// containers are *not* re-placed here; the caller re-runs
    /// [`provision`] so they land on surviving capacity under the normal
    /// placement policy. Returns `(hosts_drained, containers_drained)`.
    pub fn evacuate_reclaiming(&mut self) -> (usize, u32) {
        let mut hosts = 0;
        let mut containers = 0u32;
        for h in &mut self.hosts {
            if h.reclaiming() {
                hosts += 1;
                containers += h.container_count();
                h.containers.clear();
            }
        }
        (hosts, containers)
    }

    /// Fails every host in a (zone, rack) coordinate — or a whole zone when
    /// `rack` is `None` — the correlated-failure fault. All resident
    /// containers are lost. Returns `(hosts_failed, containers_lost)`.
    pub fn fail_domain(&mut self, zone: u32, rack: Option<u32>) -> (usize, u32) {
        let mut hosts = 0;
        let mut containers = 0u32;
        let mut i = self.hosts.len();
        while i > 0 {
            i -= 1;
            let d = self.hosts[i].domain;
            if d.zone == zone && rack.is_none_or(|r| d.rack == r) {
                containers += self.hosts[i].container_count();
                self.hosts.remove(i);
                hosts += 1;
            }
        }
        (hosts, containers)
    }
}

/// Cluster-average of per-host felt utilisation pairs (zero for no hosts).
fn mean_felt(felt: impl ExactSizeIterator<Item = (f64, f64)>) -> Interference {
    if felt.len() == 0 {
        return Interference::new(0.0, 0.0);
    }
    let n = felt.len() as f64;
    let (c, m) = felt.fold((0.0, 0.0), |(ac, am), (c, m)| (ac + c, am + m));
    Interference::new(c / n, m / n)
}

/// Mean squared deviation of per-host felt utilisation pairs from their
/// mean (zero for no hosts).
fn unbalance_of(felt: impl ExactSizeIterator<Item = (f64, f64)> + Clone) -> f64 {
    if felt.len() == 0 {
        return 0.0;
    }
    let mean = mean_felt(felt.clone());
    let n = felt.len() as f64;
    felt.map(|(c, m)| (c - mean.cpu).powi(2) + (m - mean.memory).powi(2))
        .sum::<f64>()
        / n
}

/// Each host's [`Host::container_usage`], computed once per pass and
/// recomputed — by the same function, never updated incrementally — for a
/// host after each container placed on or released from it. Readings go
/// through the same expressions as the uncached accessors, so a pass over
/// the cache makes bit-identical choices.
struct UsageCache(Vec<(f64, f64)>);

impl UsageCache {
    fn new(hosts: &[Host], app: &App) -> Self {
        Self(hosts.iter().map(|h| h.container_usage(app)).collect())
    }

    fn refresh(&mut self, hosts: &[Host], app: &App, index: usize) {
        self.0[index] = hosts[index].container_usage(app);
    }

    /// The host holding a container of `ms` with the highest actual
    /// utilisation (CPU + memory, background included), the last one on a
    /// tie; `None` when no host holds one.
    fn most_loaded_holding(&self, hosts: &[Host], ms: MicroserviceId) -> Option<usize> {
        hosts
            .iter()
            .zip(&self.0)
            .enumerate()
            .filter(|(_, (h, _))| h.containers_of(ms) > 0)
            .max_by(|(_, (a, &ua)), (_, (b, &ub))| {
                let (ac, am) = a.utilization_from(ua);
                let (bc, bm) = b.utilization_from(ub);
                (ac + am).total_cmp(&(bc + bm))
            })
            .map(|(i, _)| i)
    }
}

/// Which placement algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Erms' interference-aware placement, with hosts statically divided
    /// into `groups` equal partitions solved independently (POP \[31\]).
    /// `groups = 1` solves the whole cluster at once.
    InterferenceAware {
        /// Number of POP partitions (≥ 1).
        groups: usize,
    },
    /// The Kubernetes default scheduler: least-requested spreading, blind
    /// to background utilisation.
    KubernetesDefault,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy::InterferenceAware { groups: 1 }
    }
}

/// Applies a scaling plan to the cluster: releases surplus containers and
/// places missing ones according to `policy`. Returns the number of
/// placements and releases performed.
///
/// The application is **transactional**: on any failure `state` is left
/// exactly as it was — partial releases/placements are rolled back — so a
/// caller (notably the resilience ladder in
/// [`resilience`](crate::resilience)) can retry with a relaxed policy or a
/// degraded plan without first repairing the cluster.
///
/// # Errors
///
/// Returns [`Error::InsufficientCapacity`] when the plan requests more CPU
/// than the cluster can hold (memory is checked the same way through the
/// placement loop).
pub fn provision(
    state: &mut ClusterState,
    app: &App,
    plan: &ScalingPlan,
    policy: PlacementPolicy,
) -> Result<ProvisionReport> {
    provision_with_resize(state, app, plan, policy, 1.0)
}

/// [`provision`] with a uniform vertical-scaling factor applied first:
/// every container of `app` requests `resize_factor` × its configured
/// resources. `1.0` restores full-size containers, so a plain
/// [`provision`] call after a squeezed round automatically grows the
/// containers back. Transactional like [`provision`]: on error `state`
/// keeps its previous contents *and* its previous resize factors.
pub fn provision_with_resize(
    state: &mut ClusterState,
    app: &App,
    plan: &ScalingPlan,
    policy: PlacementPolicy,
    resize_factor: f64,
) -> Result<ProvisionReport> {
    // Work on a scratch copy and commit atomically on success. A journal of
    // inverse operations would avoid the clone, but even for hundreds of
    // hosts the clone copies only each host's two small per-microservice
    // maps — a fraction of what the pass itself reads — and it makes the
    // rollback trivially correct under every failure path.
    let mut working = state.clone();
    working.set_uniform_resize(app, resize_factor);
    let report = provision_in_place(&mut working, app, plan, policy)?;
    *state = working;
    Ok(report)
}

/// The non-transactional provisioning pass; may leave `state` partially
/// mutated on error, which [`provision`] hides behind a scratch copy.
///
/// Costs O(hosts + entries + hosts × containers moved), an entry being one
/// (microservice, count) pair on a host: one walk of every host's entries
/// counts the planned microservices' containers, and a [`UsageCache`]
/// re-reads only the hosts a placement or release touched.
fn provision_in_place(
    state: &mut ClusterState,
    app: &App,
    plan: &ScalingPlan,
    policy: PlacementPolicy,
) -> Result<ProvisionReport> {
    // Capacity sanity check on CPU. Hosts with a pending reclamation
    // notice are cordoned: they contribute no capacity and accept no new
    // placements — whatever lands there would be destroyed at the grace
    // deadline anyway.
    let requested: f64 = plan
        .iter()
        .map(|(ms, c)| {
            app.microservice(ms)
                .map(|m| m.resources.cpu * state.resize_factor(ms) * c as f64)
                .unwrap_or(0.0)
        })
        .sum();
    let available: f64 = state
        .hosts
        .iter()
        .filter(|h| !h.reclaiming())
        .map(|h| (h.cpu_capacity - h.background_cpu).max(0.0))
        .sum();
    if requested > available {
        return Err(Error::InsufficientCapacity {
            requested_cpu: requested,
            available_cpu: available,
        });
    }

    // Current containers of each planned microservice, in plan order (the
    // plan iterates in id order, so a binary search finds an entry's slot).
    let planned: Vec<(MicroserviceId, u32)> = plan.iter().collect();
    let mut current = vec![0u32; planned.len()];
    for h in &state.hosts {
        for (&ms, &count) in &h.containers {
            if let Ok(j) = planned.binary_search_by_key(&ms, |&(m, _)| m) {
                current[j] += count;
            }
        }
    }
    let mut usage = UsageCache::new(&state.hosts, app);
    let mut placed = 0u32;
    let mut released = 0u32;

    // Releases first: free the most-loaded hosts.
    for (&(ms, target), current) in planned.iter().zip(&mut current) {
        while *current > target {
            let victim = usage
                .most_loaded_holding(&state.hosts, ms)
                // Invariant, not user-reachable: `current` counts the
                // containers of `ms` still placed, so some host has one.
                .expect("a positive count implies a host has one");
            state.hosts[victim].release_one(ms);
            usage.refresh(&state.hosts, app, victim);
            *current -= 1;
            released += 1;
        }
    }

    // Placements. A host's score depends on nothing but its usage, so it
    // is computed once per host and again beside each usage refresh.
    let group_count = match policy {
        PlacementPolicy::InterferenceAware { groups } => groups.max(1),
        PlacementPolicy::KubernetesDefault => 1,
    };
    let host_count = state.hosts.len();
    let mut scores: Vec<f64> = state
        .hosts
        .iter()
        .zip(&usage.0)
        .map(|(h, &used)| h.placement_score(used, policy))
        .collect();
    let mut next_group = 0usize;
    for (&(ms, target), current) in planned.iter().zip(&mut current) {
        let m = app.microservice(ms)?;
        let factor = state.resize_factor(ms);
        let need = (m.resources.cpu * factor, m.resources.memory_mb * factor);
        while *current < target {
            // Candidate hosts: the POP group for interference-aware mode,
            // the whole cluster for the Kubernetes baseline. Cordoned
            // (reclaiming) hosts are never candidates.
            let group = next_group % group_count;
            next_group += 1;
            let hosts = &state.hosts;
            let fits = |i: &usize| hosts[*i].fits(usage.0[*i], need);
            let least = |x: &usize, y: &usize| scores[*x].total_cmp(&scores[*y]);
            let best = (group..host_count)
                .step_by(group_count)
                .filter(fits)
                .min_by(least)
                // Group full: fall back to any host with room.
                .or_else(|| (0..host_count).filter(fits).min_by(least));
            let Some(best) = best else {
                return Err(Error::InsufficientCapacity {
                    requested_cpu: requested,
                    available_cpu: available,
                });
            };
            *state.hosts[best].containers.entry(ms).or_insert(0) += 1;
            usage.refresh(&state.hosts, app, best);
            scores[best] = state.hosts[best].placement_score(usage.0[best], policy);
            *current += 1;
            placed += 1;
        }
    }

    Ok(ProvisionReport {
        placed,
        released,
        unbalance: unbalance_of(
            state
                .hosts
                .iter()
                .zip(&usage.0)
                .map(|(h, &used)| h.felt_utilization_from(used)),
        ),
    })
}

/// Summary of one provisioning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisionReport {
    /// Containers newly placed.
    pub placed: u32,
    /// Containers released.
    pub released: u32,
    /// Post-round resource unbalance of the cluster (§5.4).
    pub unbalance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, Sla};
    use crate::latency::LatencyProfile;
    use crate::resources::Resources;

    fn app_with_one_ms() -> (App, MicroserviceId) {
        let mut b = AppBuilder::new("p");
        let m = b.microservice(
            "m",
            LatencyProfile::linear(0.01, 1.0),
            Resources::new(1.0, 1024.0),
        );
        b.service("s", Sla::p95_ms(100.0), |g| {
            g.entry(m);
        });
        (b.build().unwrap(), m)
    }

    fn cluster(n: usize) -> ClusterState {
        ClusterState::new((0..n).map(|_| Host::paper_host()).collect())
    }

    /// The provisioning pass before the count pass and the usage cache:
    /// it probes every host for every planned microservice and recomputes
    /// host usage at every comparison. Kept verbatim as the oracle the
    /// cached pass must match bit for bit.
    fn provision_in_place_reference(
        state: &mut ClusterState,
        app: &App,
        plan: &ScalingPlan,
        policy: PlacementPolicy,
    ) -> Result<ProvisionReport> {
        // Capacity sanity check on CPU. Hosts with a pending reclamation
        // notice are cordoned: they contribute no capacity and accept no new
        // placements — whatever lands there would be destroyed at the grace
        // deadline anyway.
        let requested: f64 = plan
            .iter()
            .map(|(ms, c)| {
                app.microservice(ms)
                    .map(|m| m.resources.cpu * state.resize_factor(ms) * c as f64)
                    .unwrap_or(0.0)
            })
            .sum();
        let available: f64 = state
            .hosts
            .iter()
            .filter(|h| !h.reclaiming())
            .map(|h| (h.cpu_capacity - h.background_cpu).max(0.0))
            .sum();
        if requested > available {
            return Err(Error::InsufficientCapacity {
                requested_cpu: requested,
                available_cpu: available,
            });
        }

        let mut placed = 0u32;
        let mut released = 0u32;

        // Releases first: free the most-loaded hosts.
        for (ms, target) in plan.iter() {
            let mut current = state.containers_of(ms);
            while current > target {
                let victim = state
                    .hosts
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| h.containers_of(ms) > 0)
                    .max_by(|(_, a), (_, b)| {
                        let (ac, am) = a.utilization(app);
                        let (bc, bm) = b.utilization(app);
                        (ac + am).total_cmp(&(bc + bm))
                    })
                    .map(|(i, _)| i)
                    // Invariant, not user-reachable: the loop condition
                    // `current > target` holds only while containers_of(ms) > 0,
                    // so some host must have one.
                    .expect("containers_of > 0 implies a host has one");
                let host = &mut state.hosts[victim];
                let entry = host.containers.get_mut(&ms).expect("victim has container");
                *entry -= 1;
                if *entry == 0 {
                    host.containers.remove(&ms);
                }
                current -= 1;
                released += 1;
            }
        }

        // Placements.
        let group_count = match policy {
            PlacementPolicy::InterferenceAware { groups } => groups.max(1),
            PlacementPolicy::KubernetesDefault => 1,
        };
        let host_count = state.hosts.len();
        let mut next_group = 0usize;
        for (ms, target) in plan.iter() {
            let m = app.microservice(ms)?;
            let factor = state.resize_factor(ms);
            let (need_cpu, need_mem) = (m.resources.cpu * factor, m.resources.memory_mb * factor);
            let mut current = state.containers_of(ms);
            while current < target {
                // Candidate hosts: the POP group for interference-aware mode,
                // the whole cluster for the Kubernetes baseline. Cordoned
                // (reclaiming) hosts are never candidates.
                let group = next_group % group_count;
                next_group += 1;
                let fits = |i: usize| -> bool {
                    let h = &state.hosts[i];
                    let (cpu, mem) = h.container_usage(app);
                    !h.reclaiming()
                        && cpu + h.background_cpu + need_cpu <= h.cpu_capacity
                        && mem + h.background_mem + need_mem <= h.mem_capacity
                };
                let candidates: Vec<usize> = (0..host_count)
                    .filter(|i| group_count == 1 || i % group_count == group)
                    .filter(|&i| fits(i))
                    .collect();
                let candidates = if candidates.is_empty() {
                    // Group full: fall back to any host with room.
                    (0..host_count).filter(|&i| fits(i)).collect()
                } else {
                    candidates
                };
                let Some(&best) = candidates.iter().min_by(|&&x, &&y| {
                    let score = |i: usize| -> f64 {
                        let h = &state.hosts[i];
                        match policy {
                            PlacementPolicy::KubernetesDefault => {
                                // Least-requested: only container requests count.
                                let (c, mm) = h.requested_utilization(app);
                                c + mm
                            }
                            PlacementPolicy::InterferenceAware { .. } => {
                                // Actual utilisation including background load,
                                // scaled by the host class's interference
                                // profile: filling the host where the new
                                // container would *feel* the least pressure is
                                // the greedy step that most reduces unbalance
                                // across a heterogeneous mix.
                                let (c, mm) = h.felt_utilization(app);
                                c + mm
                            }
                        }
                    };
                    score(x).total_cmp(&score(y))
                }) else {
                    return Err(Error::InsufficientCapacity {
                        requested_cpu: requested,
                        available_cpu: available,
                    });
                };
                *state.hosts[best].containers.entry(ms).or_insert(0) += 1;
                current += 1;
                placed += 1;
            }
        }

        Ok(ProvisionReport {
            placed,
            released,
            unbalance: state.unbalance(app),
        })
    }

    /// [`provision_with_resize`] over the oracle, with the resize applied
    /// one microservice at a time as before the no-op shortcut.
    fn provision_with_resize_reference(
        state: &mut ClusterState,
        app: &App,
        plan: &ScalingPlan,
        policy: PlacementPolicy,
        resize_factor: f64,
    ) -> Result<ProvisionReport> {
        let mut working = state.clone();
        for (ms, _) in app.microservices() {
            working.resize_in_place(ms, resize_factor);
        }
        let report = provision_in_place_reference(&mut working, app, plan, policy)?;
        *state = working;
        Ok(report)
    }

    /// (cpu, memory MB, interference scale) of the generated host classes.
    const HOST_SHAPES: [(f64, f64, f64); 4] = [
        (8.0, 16_384.0, 1.0),
        (16.0, 32_768.0, 1.3),
        (32.0, 65_536.0, 0.9),
        (64.0, 131_072.0, 1.6),
    ];

    /// Microservice ids the generators draw from: the app's own plus two it
    /// does not know.
    const MS_IDS: u32 = 8;

    /// One generated host: shape, background (cpu, mem) fractions,
    /// lifecycle code, (microservice, count) placements and per-host
    /// resize factors.
    type HostSpec = (usize, f64, f64, u8, Vec<(u32, u32)>, Vec<(u32, f64)>);

    fn generated_app(resources: &[(f64, f64)]) -> App {
        let mut b = AppBuilder::new("p");
        for (i, &(cpu, mem)) in resources.iter().enumerate() {
            let m = b.microservice(
                format!("m{i}"),
                LatencyProfile::linear(0.01, 1.0),
                Resources::new(cpu, mem),
            );
            b.service(format!("s{i}"), Sla::p95_ms(100.0), |g| {
                g.entry(m);
            });
        }
        b.build().unwrap()
    }

    fn generated_cluster(hosts: &[HostSpec], cluster_resize: (u8, &[(u32, f64)])) -> ClusterState {
        let mut state = ClusterState::new(Vec::new());
        for (i, (shape, bg_cpu, bg_mem, life, placed, resized)) in hosts.iter().enumerate() {
            let (cpu, mem, scale) = HOST_SHAPES[*shape];
            let mut h = Host::new(cpu, mem);
            h.interference_scale = scale;
            h.background_cpu = cpu * bg_cpu;
            h.background_mem = mem * bg_mem;
            if life % 2 == 1 {
                h = h.with_lifecycle(HostLifecycle::Spot);
            }
            h.restore_placements(
                placed.iter().map(|&(ms, n)| (MicroserviceId::new(ms), n)),
                resized.iter().map(|&(ms, f)| (MicroserviceId::new(ms), f)),
            );
            state.hosts.push(h);
            if *life >= 2 {
                state.post_reclaim_notice(i, 3);
            }
        }
        let (mode, factors) = cluster_resize;
        let factors = factors.iter().map(|&(ms, f)| (MicroserviceId::new(ms), f));
        match mode {
            // Cluster-wide factors mirrored onto every host.
            1 => factors.for_each(|(ms, f)| state.resize_in_place(ms, f)),
            // Cluster-wide factors restored verbatim, hosts untouched.
            2 => state.restore_resize_factors(factors),
            _ => {}
        }
        state
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The count pass and the usage cache change what a pass costs,
        /// never what it does: the same cluster state, the same report
        /// (unbalance to the bit) and the same error as the oracle, and an
        /// error leaves the cluster as it was.
        #[test]
        fn cached_pass_matches_the_oracle(
            resources in proptest::collection::vec((0.1f64..2.0, 128.0f64..4096.0), 1..7),
            hosts in proptest::collection::vec(
                (
                    0usize..HOST_SHAPES.len(),
                    0.0f64..0.7,
                    0.0f64..0.7,
                    0u8..4,
                    proptest::collection::vec((0u32..MS_IDS, 1u32..6), 0..5),
                    proptest::collection::vec((0u32..MS_IDS, 0.5f64..1.5), 0..3),
                ),
                1..9,
            ),
            (cluster_mode, cluster_factors) in
                (0u8..3, proptest::collection::vec((0u32..MS_IDS, 0.5f64..1.5), 0..3)),
            targets in proptest::collection::vec((0u32..40, 0u8..4, 1u32..10), 0..9),
            (policy, resize) in (0u8..3, 0u8..2),
        ) {
            let app = generated_app(&resources);
            let state = generated_cluster(&hosts, (cluster_mode, &cluster_factors));
            let mut plan = ScalingPlan::new("t");
            for &(pick, kind, count) in &targets {
                // One entry in forty names a microservice the app does not
                // know (which fails the pass); kind 0 is an explicit
                // scale-to-zero; microservices the plan never names stay
                // uncovered.
                let ms = if pick == 0 { MS_IDS - 1 } else { pick % resources.len() as u32 };
                plan.set_containers(MicroserviceId::new(ms), if kind == 0 { 0 } else { count });
            }
            let policy = match policy {
                0 => PlacementPolicy::InterferenceAware { groups: 1 },
                1 => PlacementPolicy::InterferenceAware { groups: 4 },
                _ => PlacementPolicy::KubernetesDefault,
            };
            let resize = if resize == 0 { 1.0 } else { 0.8 };

            let mut fast = state.clone();
            let got = provision_with_resize(&mut fast, &app, &plan, policy, resize);
            let mut slow = state.clone();
            let want = provision_with_resize_reference(&mut slow, &app, &plan, policy, resize);
            proptest::prop_assert_eq!(&fast, &slow);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    proptest::prop_assert_eq!(got, want);
                    proptest::prop_assert_eq!(got.unbalance.to_bits(), want.unbalance.to_bits());
                }
                (Err(got), Err(want)) => {
                    proptest::prop_assert_eq!(got, want);
                    proptest::prop_assert_eq!(&fast, &state);
                }
                (got, want) => proptest::prop_assert!(false, "got {got:?}, oracle {want:?}"),
            }
        }
    }

    #[test]
    fn placement_reaches_target_counts() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(4);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        let report = provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert_eq!(report.placed, 10);
        assert_eq!(state.containers_of(ms), 10);
    }

    #[test]
    fn scale_down_releases_from_most_loaded() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(2);
        state.hosts_mut()[1].background_cpu = 20.0;
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 8);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        plan.set_containers(ms, 4);
        let report = provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert_eq!(report.released, 4);
        assert_eq!(state.containers_of(ms), 4);
        // The loaded host should have shed more containers.
        assert!(state.hosts()[0].containers_of(ms) >= state.hosts()[1].containers_of(ms));
    }

    #[test]
    fn interference_aware_avoids_background_load() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(2);
        state.hosts_mut()[0].background_cpu = 24.0; // 75% busy
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert!(
            state.hosts()[1].containers_of(ms) > state.hosts()[0].containers_of(ms),
            "should prefer the idle host: {:?} vs {:?}",
            state.hosts()[0].containers_of(ms),
            state.hosts()[1].containers_of(ms)
        );
    }

    #[test]
    fn kubernetes_default_is_blind_to_background_load() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(2);
        state.hosts_mut()[0].background_cpu = 24.0;
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        provision(&mut state, &app, &plan, PlacementPolicy::KubernetesDefault).unwrap();
        // Requests are equal on both hosts, so k8s spreads evenly despite
        // the background load.
        assert_eq!(state.hosts()[0].containers_of(ms), 5);
        assert_eq!(state.hosts()[1].containers_of(ms), 5);
        // And the resulting unbalance exceeds the interference-aware one.
        let k8s_unbalance = state.unbalance(&app);
        let mut state2 = cluster(2);
        state2.hosts_mut()[0].background_cpu = 24.0;
        provision(&mut state2, &app, &plan, PlacementPolicy::default()).unwrap();
        assert!(state2.unbalance(&app) < k8s_unbalance);
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let (app, ms) = app_with_one_ms();
        let mut state = ClusterState::new(vec![Host::new(2.0, 4096.0)]);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 100);
        assert!(matches!(
            provision(&mut state, &app, &plan, PlacementPolicy::default()),
            Err(Error::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn pop_grouping_still_places_all() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(8);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 20);
        provision(
            &mut state,
            &app,
            &plan,
            PlacementPolicy::InterferenceAware { groups: 4 },
        )
        .unwrap();
        assert_eq!(state.containers_of(ms), 20);
    }

    #[test]
    fn microservice_interference_weighted_by_containers() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(2);
        state.hosts_mut()[0].background_cpu = 16.0; // 50% on host 0
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 4);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        let itf = state.microservice_interference(&app, ms);
        assert!(itf.cpu > 0.0 && itf.cpu < 1.0);
        // Unknown microservice falls back to cluster average.
        let other = MicroserviceId::new(99);
        let avg = state.average_interference(&app);
        let fallback = state.microservice_interference(&app, other);
        assert!((fallback.cpu - avg.cpu).abs() < 1e-12);
    }

    #[test]
    fn unbalance_zero_for_identical_hosts() {
        let (app, _) = app_with_one_ms();
        let state = cluster(3);
        assert!(state.unbalance(&app) < 1e-12);
    }

    #[test]
    fn host_from_class_carries_shape_and_scale() {
        let h = Host::from_class(&HostClass::large());
        assert_eq!(h.cpu_capacity, 64.0);
        assert_eq!(h.interference_scale, 0.9);
        assert!(!h.is_spot());
        let s = Host::from_class(&HostClass::small()).with_lifecycle(HostLifecycle::Spot);
        assert!(s.is_spot());
    }

    #[test]
    fn interference_scale_shifts_placement_across_classes() {
        let (app, ms) = app_with_one_ms();
        // Two hosts with identical capacity and background load; the noisy
        // class (scale > 1) must receive fewer containers.
        let mut noisy = Host::paper_host();
        noisy.interference_scale = 1.5;
        let mut state = ClusterState::new(vec![Host::paper_host(), noisy]);
        state.hosts_mut()[0].background_cpu = 8.0;
        state.hosts_mut()[1].background_cpu = 8.0;
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert!(
            state.hosts()[0].containers_of(ms) > state.hosts()[1].containers_of(ms),
            "quiet host should win: {} vs {}",
            state.hosts()[0].containers_of(ms),
            state.hosts()[1].containers_of(ms)
        );
    }

    #[test]
    fn cordoned_host_receives_no_placements() {
        let (app, ms) = app_with_one_ms();
        let mut state = cluster(3);
        assert!(state.post_reclaim_notice(1, 5));
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 12);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert_eq!(state.hosts()[1].containers_of(ms), 0);
        assert_eq!(state.containers_of(ms), 12);
    }

    #[test]
    fn reclamation_lifecycle_notice_evacuate_execute() {
        let (app, ms) = app_with_one_ms();
        let spot = Host::paper_host().with_lifecycle(HostLifecycle::Spot);
        let mut state = ClusterState::new(vec![Host::paper_host(), spot.clone(), spot]);
        assert_eq!(state.spot_host_count(), 2);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 9);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();

        // Provider wants one spot host back at round 4.
        assert_eq!(state.post_spot_reclamations(1, 4), 1);
        assert_eq!(state.reclaiming_hosts(), vec![1]);
        // Nothing due yet at round 3.
        assert_eq!(state.execute_due_reclamations(3), (0, 0));
        assert_eq!(state.len(), 3);

        // Evacuate, re-place, then execute: no containers are lost.
        let (hosts, drained) = state.evacuate_reclaiming();
        assert_eq!(hosts, 1);
        assert!(drained > 0);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        let (gone, lost) = state.execute_due_reclamations(4);
        assert_eq!((gone, lost), (1, 0));
        assert_eq!(state.len(), 2);
        assert_eq!(state.containers_of(ms), 9);
    }

    #[test]
    fn unevacuated_reclamation_destroys_containers() {
        let (app, ms) = app_with_one_ms();
        let spot = Host::paper_host().with_lifecycle(HostLifecycle::Spot);
        let mut state = ClusterState::new(vec![Host::paper_host(), spot]);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 8);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        let on_spot = state.hosts()[1].containers_of(ms);
        assert!(on_spot > 0);
        state.post_spot_reclamations(1, 2);
        let (gone, lost) = state.execute_due_reclamations(2);
        assert_eq!(gone, 1);
        assert_eq!(lost, on_spot);
        assert_eq!(state.containers_of(ms), 8 - on_spot);
    }

    #[test]
    fn fail_domain_takes_rack_and_zone() {
        let mk = |zone, rack| Host::paper_host().with_domain(FailureDomain::new(zone, rack));
        let mut state = ClusterState::new(vec![mk(0, 0), mk(0, 0), mk(0, 1), mk(1, 0)]);
        // Rack (0, 0): two hosts.
        assert_eq!(state.fail_domain(0, Some(0)).0, 2);
        assert_eq!(state.len(), 2);
        // Whole zone 0: the remaining (0, 1) host.
        assert_eq!(state.fail_domain(0, None).0, 1);
        assert_eq!(state.len(), 1);
        assert_eq!(state.hosts()[0].domain, FailureDomain::new(1, 0));
    }

    #[test]
    fn resize_in_place_squeezes_and_restores() {
        let (app, ms) = app_with_one_ms();
        // One 8-core host: 8 full-size (1.0-core) containers fill it.
        let mut state = ClusterState::new(vec![Host::new(8.0, 64.0 * 1024.0)]);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        assert!(matches!(
            provision(&mut state, &app, &plan, PlacementPolicy::default()),
            Err(Error::InsufficientCapacity { .. })
        ));
        // At 0.75× each container requests 0.75 cores: 10 fit.
        provision_with_resize(&mut state, &app, &plan, PlacementPolicy::default(), 0.75).unwrap();
        assert_eq!(state.containers_of(ms), 10);
        assert_eq!(state.resize_factor(ms), 0.75);
        let (cpu, _) = state.hosts()[0].utilization(&app);
        assert!(cpu <= 1.0 + 1e-9);
        // A plain provision at a feasible target restores full size.
        plan.set_containers(ms, 6);
        provision(&mut state, &app, &plan, PlacementPolicy::default()).unwrap();
        assert_eq!(state.resize_factor(ms), 1.0);
        assert_eq!(state.hosts()[0].resize_factor(ms), 1.0);
    }

    #[test]
    fn failed_resize_leaves_factors_untouched() {
        let (app, ms) = app_with_one_ms();
        let mut state = ClusterState::new(vec![Host::new(4.0, 64.0 * 1024.0)]);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 100);
        let before = state.clone();
        assert!(
            provision_with_resize(&mut state, &app, &plan, PlacementPolicy::default(), 0.5)
                .is_err()
        );
        assert_eq!(state, before);
        assert_eq!(state.resize_factor(ms), 1.0);
    }

    #[test]
    fn added_host_inherits_resize_factors() {
        let (app, ms) = app_with_one_ms();
        let mut state = ClusterState::new(vec![Host::new(8.0, 64.0 * 1024.0)]);
        let mut plan = ScalingPlan::new("t");
        plan.set_containers(ms, 10);
        provision_with_resize(&mut state, &app, &plan, PlacementPolicy::default(), 0.5).unwrap();
        state.add_host(Host::paper_host());
        assert_eq!(state.hosts()[1].resize_factor(ms), 0.5);
    }
}
