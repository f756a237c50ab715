//! Applications: deployed microservices, online services, SLAs and
//! workloads.
//!
//! An [`App`] is the unit Erms manages: a set of *microservices* (each
//! deployed as a fleet of identical containers) plus a set of *online
//! services*, each with an SLA and a tree-shaped
//! [`DependencyGraph`] over those
//! microservices. A microservice referenced by multiple services is a
//! *shared microservice* (§2.3).

use std::collections::BTreeMap;

use crate::error::{Error, Result};
use crate::graph::{DependencyGraph, GraphBuilder};
use crate::ids::{MicroserviceId, ServiceId};
use crate::latency::LatencyProfile;
use crate::resources::Resources;

/// A service-level agreement on tail end-to-end latency (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sla {
    /// The latency percentile the SLA is defined on (e.g. `0.95`).
    pub percentile: f64,
    /// The latency threshold in milliseconds.
    pub threshold_ms: f64,
}

impl Sla {
    /// An SLA on the 95th-percentile end-to-end latency, as used throughout
    /// the paper's evaluation (§6.1).
    pub fn p95_ms(threshold_ms: f64) -> Self {
        Self {
            percentile: 0.95,
            threshold_ms,
        }
    }
}

/// A request arrival rate.
///
/// The paper expresses workloads in requests per minute (600 – 100 000 in
/// §6.1); this newtype prevents unit confusion with per-second or per-ms
/// rates.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct RequestRate(f64);

impl RequestRate {
    /// A rate expressed in requests per minute.
    ///
    /// A negative or NaN rate is taken as 0 without a word: no rate is
    /// refused here. `+∞` is kept as it is. A caller that must tell a bad
    /// rate from a zero one checks it before calling (the daemon's
    /// workloads decoder and the CLI do).
    pub fn per_minute(requests: f64) -> Self {
        Self(requests.max(0.0))
    }

    /// A rate expressed in requests per second.
    pub fn per_second(requests: f64) -> Self {
        Self::per_minute(requests * 60.0)
    }

    /// The rate in requests per minute.
    pub fn as_per_minute(self) -> f64 {
        self.0
    }

    /// The rate in requests per millisecond (used by the simulator).
    pub fn as_per_ms(self) -> f64 {
        self.0 / 60_000.0
    }

    /// Scales the rate by a factor.
    #[must_use]
    pub(crate) fn scaled(self, factor: f64) -> Self {
        Self::per_minute(self.0 * factor)
    }
}

/// Per-service request rates for one scaling round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadVector {
    rates: BTreeMap<ServiceId, RequestRate>,
}

impl WorkloadVector {
    /// Creates an empty workload vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the request rate of a service.
    pub fn set(&mut self, service: ServiceId, rate: RequestRate) {
        self.rates.insert(service, rate);
    }

    /// The request rate of a service, or zero if unset.
    pub fn rate(&self, service: ServiceId) -> RequestRate {
        self.rates.get(&service).copied().unwrap_or_default()
    }

    /// Iterates over `(service, rate)` pairs in service-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, RequestRate)> + '_ {
        self.rates.iter().map(|(&s, &r)| (s, r))
    }

    /// Builds a uniform workload vector over all of an app's services.
    pub fn uniform(app: &App, rate: RequestRate) -> Self {
        let mut w = Self::new();
        for (id, _) in app.services() {
            w.set(id, rate);
        }
        w
    }
}

impl FromIterator<(ServiceId, RequestRate)> for WorkloadVector {
    fn from_iter<T: IntoIterator<Item = (ServiceId, RequestRate)>>(iter: T) -> Self {
        Self {
            rates: iter.into_iter().collect(),
        }
    }
}

/// A deployed microservice: its latency profile and container shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Microservice {
    /// Human-readable name (unique within the app by convention, not
    /// enforced).
    pub name: String,
    /// Piecewise-linear latency profile (Eq. 15).
    pub profile: LatencyProfile,
    /// Resource request of one container.
    pub resources: Resources,
}

/// An online service: a named request type with an SLA and a dependency
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Human-readable name.
    pub name: String,
    /// End-to-end tail-latency SLA.
    pub sla: Sla,
    /// The tree-shaped dependency graph of this service.
    pub graph: DependencyGraph,
}

/// A validated application: microservices plus services.
///
/// Construct with [`AppBuilder`]. Names, ids, resources and graphs are
/// fixed at construction; only a microservice's latency profile can be
/// replaced afterwards ([`App::set_profile`], under the check `build` runs),
/// which is how an online refit updates the model. Scaling decisions are
/// pure functions of an `App`, a [`WorkloadVector`] and an interference
/// level, which keeps the controller logic easy to reason about and test.
#[derive(Debug, Clone, PartialEq)]
pub struct App {
    name: String,
    microservices: Vec<Microservice>,
    services: Vec<Service>,
}

impl App {
    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deployed microservices.
    pub fn microservice_count(&self) -> usize {
        self.microservices.len()
    }

    /// Number of online services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Looks up a microservice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMicroservice`] for a foreign id.
    pub fn microservice(&self, id: MicroserviceId) -> Result<&Microservice> {
        self.microservices
            .get(id.index())
            .ok_or(Error::UnknownMicroservice(id))
    }

    /// Looks up a service.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownService`] for a foreign id.
    pub fn service(&self, id: ServiceId) -> Result<&Service> {
        self.services
            .get(id.index())
            .ok_or(Error::UnknownService(id))
    }

    /// Replaces the latency profile of microservice `ms`, after the check
    /// [`AppBuilder::build`] makes of every profile. A rejected profile
    /// leaves the app unchanged.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownMicroservice`] for a foreign id;
    /// * [`Error::InvalidProfile`] if the profile fails validation.
    pub fn set_profile(&mut self, ms: MicroserviceId, profile: LatencyProfile) -> Result<()> {
        let micro = self
            .microservices
            .get_mut(ms.index())
            .ok_or(Error::UnknownMicroservice(ms))?;
        profile.validate().map_err(|reason| Error::InvalidProfile {
            microservice: ms,
            reason,
        })?;
        micro.profile = profile;
        Ok(())
    }

    /// Iterates over `(MicroserviceId, &Microservice)`.
    pub fn microservices(&self) -> impl Iterator<Item = (MicroserviceId, &Microservice)> + '_ {
        self.microservices
            .iter()
            .enumerate()
            .map(|(i, m)| (MicroserviceId::new(i as u32), m))
    }

    /// Iterates over `(ServiceId, &Service)`.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &Service)> + '_ {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| (ServiceId::new(i as u32), s))
    }

    /// The services whose graphs reference microservice `ms`, in id order.
    pub fn services_using(&self, ms: MicroserviceId) -> Vec<ServiceId> {
        self.services()
            .filter(|(_, s)| s.graph.microservices().contains(&ms))
            .map(|(id, _)| id)
            .collect()
    }

    /// Microservices referenced by two or more services (§2.3), in id order.
    pub fn shared_microservices(&self) -> Vec<MicroserviceId> {
        self.microservices()
            .map(|(id, _)| id)
            .filter(|&id| self.services_using(id).len() >= 2)
            .collect()
    }

    /// Total calls per minute arriving at microservice `ms` under a
    /// workload vector, summed over all services (and over repeat call
    /// sites within one service).
    pub fn microservice_workload(&self, ms: MicroserviceId, workloads: &WorkloadVector) -> f64 {
        self.services()
            .map(|(sid, svc)| workloads.rate(sid).as_per_minute() * svc.graph.calls_per_request(ms))
            .sum()
    }

    /// Finds a microservice id by name (first match).
    pub fn microservice_by_name(&self, name: &str) -> Option<MicroserviceId> {
        self.microservices()
            .find(|(_, m)| m.name == name)
            .map(|(id, _)| id)
    }

    /// Finds a service id by name (first match).
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services()
            .find(|(_, s)| s.name == name)
            .map(|(id, _)| id)
    }
}

/// Builds and validates an [`App`].
///
/// See the crate-level example. Microservices are declared first; each
/// service is then described by a closure receiving a
/// [`GraphBuilder`].
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    microservices: Vec<Microservice>,
    services: Vec<Service>,
}

impl AppBuilder {
    /// Starts building an application with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            microservices: Vec::new(),
            services: Vec::new(),
        }
    }

    /// Declares a microservice and returns its id.
    pub fn microservice(
        &mut self,
        name: impl Into<String>,
        profile: LatencyProfile,
        resources: Resources,
    ) -> MicroserviceId {
        let id = MicroserviceId::new(self.microservices.len() as u32);
        self.microservices.push(Microservice {
            name: name.into(),
            profile,
            resources,
        });
        id
    }

    /// Declares an online service whose dependency graph is described by
    /// `build`, and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the closure does not declare an entry node — a service
    /// without a graph is a programming error caught at construction.
    pub fn service(
        &mut self,
        name: impl Into<String>,
        sla: Sla,
        build: impl FnOnce(&mut GraphBuilder),
    ) -> ServiceId {
        let mut builder = GraphBuilder::new();
        build(&mut builder);
        let graph = builder
            .build()
            .expect("service graph must declare an entry node");
        let id = ServiceId::new(self.services.len() as u32);
        self.services.push(Service {
            name: name.into(),
            sla,
            graph,
        });
        id
    }

    /// Declares an online service from a pre-built dependency graph
    /// (useful when graphs come from trace extraction or a generator
    /// rather than the closure DSL).
    pub fn raw_service(
        &mut self,
        name: impl Into<String>,
        sla: Sla,
        graph: DependencyGraph,
    ) -> ServiceId {
        let id = ServiceId::new(self.services.len() as u32);
        self.services.push(Service {
            name: name.into(),
            sla,
            graph,
        });
        id
    }

    /// Peeks at a declared microservice's latency profile while building
    /// (e.g. to compute feasible SLAs for generated services).
    pub fn microservice_profile(&self, id: MicroserviceId) -> Option<&LatencyProfile> {
        self.microservices.get(id.index()).map(|m| &m.profile)
    }

    /// Validates and finalises the application.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownMicroservice`] if a graph references an undeclared
    ///   microservice;
    /// * [`Error::InvalidProfile`] if a latency profile fails validation;
    /// * [`Error::InvalidParameter`] for non-positive multiplicities or
    ///   non-positive SLA thresholds.
    pub fn build(self) -> Result<App> {
        for (i, m) in self.microservices.iter().enumerate() {
            m.profile
                .validate()
                .map_err(|reason| Error::InvalidProfile {
                    microservice: MicroserviceId::new(i as u32),
                    reason,
                })?;
        }
        for svc in &self.services {
            if !(svc.sla.threshold_ms.is_finite() && svc.sla.threshold_ms > 0.0) {
                return Err(Error::InvalidParameter(format!(
                    "service {} has non-positive SLA threshold",
                    svc.name
                )));
            }
            if !(svc.sla.percentile > 0.0 && svc.sla.percentile < 1.0) {
                return Err(Error::InvalidParameter(format!(
                    "service {} has percentile outside (0, 1)",
                    svc.name
                )));
            }
            for (_, node) in svc.graph.iter() {
                if node.microservice.index() >= self.microservices.len() {
                    return Err(Error::UnknownMicroservice(node.microservice));
                }
                if !(node.multiplicity.is_finite() && node.multiplicity > 0.0) {
                    return Err(Error::InvalidParameter(format!(
                        "node in service {} has non-positive multiplicity",
                        svc.name
                    )));
                }
            }
        }
        Ok(App {
            name: self.name,
            microservices: self.microservices,
            services: self.services,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_service_app() -> (App, [MicroserviceId; 3], [ServiceId; 2]) {
        let mut b = AppBuilder::new("demo");
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

    /// The silent clamp `per_minute` documents: negative and NaN rates
    /// become 0, an infinite one stays infinite.
    #[test]
    fn per_minute_clamps_negative_and_nan_rates_to_zero() {
        for clamped in [-5.0, -0.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(
                RequestRate::per_minute(clamped).as_per_minute(),
                0.0,
                "{clamped}"
            );
        }
        assert_eq!(
            RequestRate::per_minute(f64::INFINITY).as_per_minute(),
            f64::INFINITY
        );
        assert_eq!(RequestRate::per_minute(12.5).as_per_minute(), 12.5);
    }

    #[test]
    fn shared_microservice_detection() {
        let (app, [u, h, p], [s1, s2]) = two_service_app();
        assert_eq!(app.shared_microservices(), vec![p]);
        assert_eq!(app.services_using(p), vec![s1, s2]);
        assert_eq!(app.services_using(u), vec![s1]);
        assert_eq!(app.services_using(h), vec![s2]);
    }

    #[test]
    fn microservice_workload_aggregates_services() {
        let (app, [_, _, p], [s1, s2]) = two_service_app();
        let mut w = WorkloadVector::new();
        w.set(s1, RequestRate::per_minute(1000.0));
        w.set(s2, RequestRate::per_minute(500.0));
        assert!((app.microservice_workload(p, &w) - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_name() {
        let (app, [u, _, _], [s1, _]) = two_service_app();
        assert_eq!(app.microservice_by_name("U"), Some(u));
        assert_eq!(app.service_by_name("svc1"), Some(s1));
        assert_eq!(app.microservice_by_name("nope"), None);
    }

    #[test]
    fn unknown_ids_error() {
        let (app, _, _) = two_service_app();
        assert!(app.microservice(MicroserviceId::new(99)).is_err());
        assert!(app.service(ServiceId::new(99)).is_err());
    }

    #[test]
    fn set_profile_checks_what_build_checks() {
        let (mut app, [u, _, p], _) = two_service_app();
        let kneed = LatencyProfile::kneed(0.01, 2.0, 0.08, 500.0);
        app.set_profile(p, kneed.clone()).unwrap();
        assert_eq!(app.microservice(p).unwrap().profile, kneed);
        let before = app.clone();
        let foreign = MicroserviceId::new(3);
        assert!(matches!(
            app.set_profile(foreign, kneed),
            Err(Error::UnknownMicroservice(id)) if id == foreign
        ));
        let not_finite = LatencyProfile::linear(f64::NAN, 1.0);
        assert!(matches!(
            app.set_profile(u, not_finite),
            Err(Error::InvalidProfile { microservice, .. }) if microservice == u
        ));
        assert_eq!(app, before);
    }

    #[test]
    fn build_rejects_bad_sla() {
        let mut b = AppBuilder::new("bad");
        let m = b.microservice("m", LatencyProfile::linear(0.1, 1.0), Resources::default());
        b.service("s", Sla::p95_ms(-1.0), |g| {
            g.entry(m);
        });
        assert!(matches!(b.build(), Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn build_rejects_bad_percentile() {
        let mut b = AppBuilder::new("bad");
        let m = b.microservice("m", LatencyProfile::linear(0.1, 1.0), Resources::default());
        b.service(
            "s",
            Sla {
                percentile: 1.5,
                threshold_ms: 100.0,
            },
            |g| {
                g.entry(m);
            },
        );
        assert!(b.build().is_err());
    }

    #[test]
    fn request_rate_units() {
        let r = RequestRate::per_minute(60_000.0);
        assert!((r.as_per_ms() - 1.0).abs() < 1e-12);
        assert_eq!(RequestRate::per_second(10.0).as_per_minute(), 600.0);
        assert_eq!(r.scaled(0.5).as_per_minute(), 30_000.0);
    }

    #[test]
    fn uniform_workload_covers_all_services() {
        let (app, _, [s1, s2]) = two_service_app();
        let w = WorkloadVector::uniform(&app, RequestRate::per_minute(100.0));
        assert_eq!(w.rate(s1).as_per_minute(), 100.0);
        assert_eq!(w.rate(s2).as_per_minute(), 100.0);
        assert_eq!(w.iter().count(), 2);
    }

    #[test]
    fn workload_from_iterator() {
        let w: WorkloadVector = [(ServiceId::new(0), RequestRate::per_minute(5.0))]
            .into_iter()
            .collect();
        assert_eq!(w.rate(ServiceId::new(0)).as_per_minute(), 5.0);
        assert_eq!(w.rate(ServiceId::new(1)).as_per_minute(), 0.0);
    }
}
