//! Online re-profiling: the closed loop of the paper's deployed system
//! (§5.1, Fig. 9).
//!
//! In the real Erms, Jaeger spans flow into the Profiling module, which
//! continuously re-fits the piecewise-linear latency models that
//! Scheduling and Deployment consume. This module is that loop for the
//! simulator: sampled [`SpanRecord`]s from a
//! [`TelemetryCollector`] are
//! windowed into per-microservice `(workload, tail-latency)`
//! observations ([`window_samples`]), accumulated across observation
//! rounds by [`OnlineProfiler`], and re-fit via
//! `erms_profilers::piecewise` into the `App` whose profiles the
//! planners (`ErmsScaler`, `ResilientManager`) consume directly
//! ([`OnlineProfiler::refit`]: the fit, [`OnlineProfiler::fit`], then the
//! in-place [`install`] of what was fitted).
//!
//! # Window semantics
//!
//! Spans are bucketed by `(microservice, ⌊start_ms / window_ms⌋)`. Each
//! window with at least [`WindowConfig::min_samples`] spans yields one
//! profiler sample:
//!
//! * latency — the windowed nearest-rank percentile
//!   ([`WindowConfig::percentile`]) of span own-latencies, via
//!   `erms_core::stats`;
//! * workload γ — sampled span count, scaled up by `1 / sampling` to
//!   estimate true window traffic, converted to calls **per minute per
//!   container** (`× 60000 / window_ms / containers`) — the unit the
//!   latency profiles are parameterised in (Eq. 15's per-container
//!   workload).
//!
//! Windows below `min_samples` are discarded: their percentile estimate
//! is noise, and a biased-low γ with a real tail latency would bend the
//! fitted knee the wrong way.

use std::collections::BTreeMap;

use erms_core::app::App;
use erms_core::ids::MicroserviceId;
use erms_core::latency::{Interference, LatencyProfile};
use erms_core::stats;
use erms_profilers::dataset::Sample;
use erms_profilers::piecewise::PiecewiseFitter;
use erms_sim::telemetry::SpanRecord;

use crate::collector::TelemetryCollector;

/// Windowing parameters for span → observation conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Window length in simulation ms.
    pub window_ms: f64,
    /// Tail percentile extracted per window (e.g. 0.95).
    pub percentile: f64,
    /// Minimum sampled spans for a window to produce an observation.
    pub min_samples: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            window_ms: 1_000.0,
            percentile: 0.95,
            min_samples: 8,
        }
    }
}

/// Buckets spans into `(microservice, window)` cells and emits one
/// profiler [`Sample`] per dense-enough cell. `sampling` is the span
/// sampling rate the spans were collected at (used to scale counts back
/// to true traffic); `containers` is the deployment the spans were
/// observed under.
///
/// A `sampling` that is not finite or not above zero is treated as 1.0,
/// and one above 1.0 is clamped to 1.0. A cell yields no sample when it
/// holds fewer than [`WindowConfig::min_samples`] spans, when its
/// microservice has no containers in `containers`, or when its γ is not
/// finite — a positive but tiny `sampling` (e.g. a subnormal) scales the
/// count past `f64::MAX`.
pub fn window_samples<'a>(
    spans: impl IntoIterator<Item = &'a SpanRecord>,
    containers: &BTreeMap<MicroserviceId, u32>,
    itf: Interference,
    sampling: f64,
    config: &WindowConfig,
) -> BTreeMap<MicroserviceId, Vec<Sample>> {
    let window_ms = if config.window_ms.is_finite() && config.window_ms > 0.0 {
        config.window_ms
    } else {
        1_000.0
    };
    let sampling = if sampling.is_finite() && sampling > 0.0 {
        sampling.min(1.0)
    } else {
        1.0
    };
    // One (microservice, window, latency) row per span, grouped by sorting
    // on the first two: a run of equal keys is a cell, and the runs come out
    // in the order a map keyed the same way would iterate. (A map probe per
    // span cost twice what the sort does, under the caller's lock.) Inside a
    // run the order is whatever the sort left; `stats::percentile` selects
    // by `total_cmp`, so it returns the same bits for any order.
    let mut rows: Vec<(MicroserviceId, u64, f64)> = spans
        .into_iter()
        .map(|span| {
            let window = (span.start_ms / window_ms).floor().max(0.0) as u64;
            (span.microservice, window, span.latency_ms())
        })
        .collect();
    rows.sort_unstable_by_key(|&(ms, window, _)| (ms, window));
    let mut out: BTreeMap<MicroserviceId, Vec<Sample>> = BTreeMap::new();
    let mut latencies = Vec::new();
    for cell in rows.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if cell.len() < config.min_samples.max(1) {
            continue;
        }
        let ms = cell[0].0;
        let n = containers.get(&ms).copied().unwrap_or(0);
        if n == 0 {
            continue;
        }
        // Sampled count → estimated true count → per-minute per-container.
        let gamma = (cell.len() as f64 / sampling) * (60_000.0 / window_ms) / f64::from(n);
        if !gamma.is_finite() {
            continue;
        }
        latencies.clear();
        latencies.extend(cell.iter().map(|&(_, _, latency)| latency));
        let tail = stats::percentile(&latencies, config.percentile);
        out.entry(ms)
            .or_default()
            .push(Sample::new(tail, gamma, itf.cpu, itf.memory));
    }
    out
}

/// Outcome of one [`OnlineProfiler::refit`] round.
#[derive(Debug, Clone)]
pub struct RefitOutcome {
    /// The app with re-fitted latency profiles installed (identical ids
    /// and topology; microservices without enough data keep their old
    /// profile). Hand this to `ErmsScaler::new`,
    /// `IncrementalPlanner::replan_auto` or `ResilientManager::run_round`
    /// to re-plan.
    pub app: App,
    /// Microservices whose profile was re-fitted this round.
    pub refitted: Vec<MicroserviceId>,
    /// Microservices that kept their previous profile (not enough
    /// samples, or the fit failed validation).
    pub kept: Vec<MicroserviceId>,
}

impl RefitOutcome {
    /// `true` when at least one profile was re-fitted.
    #[must_use]
    pub fn changed(&self) -> bool {
        !self.refitted.is_empty()
    }
}

/// Cap on retained samples per microservice; oldest are dropped first
/// (bounded memory over an unbounded run).
const MAX_SAMPLES: usize = 2_048;

/// Accumulates windowed observations across rounds and re-fits
/// per-microservice piecewise-linear profiles (with the default
/// [`PiecewiseFitter`]) on demand.
#[derive(Debug, Clone)]
pub struct OnlineProfiler {
    window: WindowConfig,
    samples: BTreeMap<MicroserviceId, Vec<Sample>>,
}

impl Default for OnlineProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineProfiler {
    /// Creates a profiler with the default window settings.
    #[must_use]
    pub fn new() -> Self {
        Self {
            window: WindowConfig::default(),
            samples: BTreeMap::new(),
        }
    }

    /// Replaces the windowing configuration.
    #[must_use]
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Windows the collector's sampled spans (under deployment
    /// `containers` at interference `itf`) and appends the resulting
    /// observations. Returns how many samples were added.
    pub fn ingest(
        &mut self,
        collector: &TelemetryCollector,
        containers: &BTreeMap<MicroserviceId, u32>,
        itf: Interference,
    ) -> usize {
        self.ingest_spans(
            collector.spans(),
            containers,
            itf,
            collector.config().sampling,
        )
    }

    /// Windows raw spans — already detached from any collector, e.g.
    /// shipped over the network by a remote client — and appends the
    /// resulting observations. `sampling` is the rate the spans were
    /// sampled at. Returns how many samples were added.
    pub fn ingest_spans<'a>(
        &mut self,
        spans: impl IntoIterator<Item = &'a SpanRecord>,
        containers: &BTreeMap<MicroserviceId, u32>,
        itf: Interference,
        sampling: f64,
    ) -> usize {
        let windowed = window_samples(spans, containers, itf, sampling, &self.window);
        let mut added = 0;
        for (ms, samples) in windowed {
            added += samples.len();
            let bucket = self.samples.entry(ms).or_default();
            bucket.extend(samples);
            if bucket.len() > MAX_SAMPLES {
                let drop = bucket.len() - MAX_SAMPLES;
                bucket.drain(..drop);
            }
        }
        added
    }

    /// The retained per-microservice observations, for snapshot export.
    #[must_use]
    pub fn samples(&self) -> &BTreeMap<MicroserviceId, Vec<Sample>> {
        &self.samples
    }

    /// Restores observations captured by [`samples`](Self::samples),
    /// verbatim — no windowing, capping or re-ordering — so a restored
    /// profiler refits bit-identically to the one that was exported.
    pub fn restore_samples(&mut self, samples: BTreeMap<MicroserviceId, Vec<Sample>>) {
        self.samples = samples;
    }

    /// Re-fits every microservice with enough retained observations and
    /// returns a copy of `app` (same names, ids and dependency graphs)
    /// carrying the updated profiles. A microservice keeps its old
    /// profile when it has too few samples or its fit fails validation —
    /// the loop degrades to the stale model instead of poisoning the
    /// planner.
    ///
    /// This is [`fit`](Self::fit) then [`install`] into a clone of `app`; a
    /// caller that owns its app installs into it in place instead, and one
    /// that must not hold a lock while fitting runs the two apart.
    #[must_use]
    pub fn refit(&self, app: &App) -> RefitOutcome {
        let mut app = app.clone();
        let Installed { refitted, kept } = install(&mut app, self.fit());
        RefitOutcome {
            app,
            refitted,
            kept,
        }
    }

    /// The fit step of [`refit`](Self::refit): a fresh profile for every
    /// microservice in the window whose fit is usable, and nothing for the
    /// others. A pure function of [`samples`](Self::samples).
    #[must_use]
    pub fn fit(&self) -> BTreeMap<MicroserviceId, LatencyProfile> {
        // The fitter needs at least two minimum-size segments to
        // consider a knee; below that a fit would be pure noise.
        let fitter = PiecewiseFitter::default();
        let need = (2 * fitter.min_segment_samples).max(4);
        self.samples
            .iter()
            .filter(|(_, samples)| samples.len() >= need)
            .filter_map(|(&ms, samples)| {
                let mut profile = fitter.fit(samples).ok()?;
                // Least squares over the convex pre-knee region can tilt
                // the low segment into a negative zero-load intercept,
                // which would make the planner treat the microservice as
                // free at low load. Clamp to the physical floor — the
                // segment stays conservative everywhere it is actually
                // evaluated (the high segment is untouched, so the knee
                // itself keeps its fitted position).
                profile.low.b = profile.low.b.max(0.0);
                profile.validate().is_ok().then_some((ms, profile))
            })
            .collect()
    }
}

/// What [`install`] did to an app: the microservices that took a fit and
/// those that kept their profile, each in id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Installed {
    /// Microservices whose profile was replaced by its fit.
    pub refitted: Vec<MicroserviceId>,
    /// Microservices whose profile was left as it was.
    pub kept: Vec<MicroserviceId>,
}

/// The install step of [`OnlineProfiler::refit`]: writes the profiles of
/// `fits` into `app` in place ([`App::set_profile`]) and touches nothing
/// else. A microservice of `app` without a fit keeps its profile; a fit for
/// a microservice `app` does not have is ignored; with no fits the app is
/// left as it was, bit for bit.
///
/// It is all or nothing: if one fit fails the profile check
/// `AppBuilder::build` makes, no profile is written, so an app is never
/// left with half of a round's fits. ([`OnlineProfiler::fit`] hands out
/// validated profiles only, so from it every fit lands.)
pub fn install(app: &mut App, mut fits: BTreeMap<MicroserviceId, LatencyProfile>) -> Installed {
    fits.retain(|&ms, _| app.microservice(ms).is_ok());
    if fits.values().any(|profile| profile.validate().is_err()) {
        fits.clear();
    }
    let kept = app
        .microservices()
        .map(|(ms, _)| ms)
        .filter(|ms| !fits.contains_key(ms))
        .collect();
    let refitted = fits.keys().copied().collect();
    for (ms, profile) in fits {
        let set = app.set_profile(ms, profile);
        debug_assert!(set.is_ok(), "ids and profiles were checked: {set:?}");
    }
    Installed { refitted, kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::app::{AppBuilder, Sla};
    use erms_core::ids::ServiceId;
    use erms_core::latency::{CutoffModel, Segment};
    use erms_core::resources::Resources;
    use proptest::prelude::*;

    /// The windowing as it was written first, one map probe per span: the
    /// oracle [`window_samples`] is held to, bit for bit.
    fn window_samples_by_map<'a>(
        spans: impl IntoIterator<Item = &'a SpanRecord>,
        containers: &BTreeMap<MicroserviceId, u32>,
        itf: Interference,
        sampling: f64,
        config: &WindowConfig,
    ) -> BTreeMap<MicroserviceId, Vec<Sample>> {
        let window_ms = if config.window_ms.is_finite() && config.window_ms > 0.0 {
            config.window_ms
        } else {
            1_000.0
        };
        let sampling = if sampling.is_finite() && sampling > 0.0 {
            sampling.min(1.0)
        } else {
            1.0
        };
        let mut cells: BTreeMap<(MicroserviceId, u64), Vec<f64>> = BTreeMap::new();
        for span in spans {
            let window = (span.start_ms / window_ms).floor().max(0.0) as u64;
            cells
                .entry((span.microservice, window))
                .or_default()
                .push(span.latency_ms());
        }
        let mut out: BTreeMap<MicroserviceId, Vec<Sample>> = BTreeMap::new();
        for ((ms, _window), latencies) in cells {
            if latencies.len() < config.min_samples.max(1) {
                continue;
            }
            let n = containers.get(&ms).copied().unwrap_or(0);
            if n == 0 {
                continue;
            }
            let tail = stats::percentile(&latencies, config.percentile);
            let gamma = (latencies.len() as f64 / sampling) * (60_000.0 / window_ms) / f64::from(n);
            out.entry(ms)
                .or_default()
                .push(Sample::new(tail, gamma, itf.cpu, itf.memory));
        }
        out
    }

    fn bits(
        samples: &BTreeMap<MicroserviceId, Vec<Sample>>,
    ) -> Vec<(MicroserviceId, Vec<[u64; 4]>)> {
        samples
            .iter()
            .map(|(&ms, bucket)| {
                let bucket = bucket
                    .iter()
                    .map(|s| [s.latency_ms, s.gamma, s.cpu, s.mem].map(f64::to_bits))
                    .collect();
                (ms, bucket)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Grouping by sort returns the map the per-span probe returned, in
        /// every bit: spans out of order, ties in latency, negative starts,
        /// microservices without containers, thin windows.
        #[test]
        fn sorted_grouping_equals_the_map_probe(
            rows in prop::collection::vec((0u32..6, -500.0f64..6_000.0, 0u32..40), 0..400),
            deployed in prop::collection::vec(0u32..4, 6),
            sampling in 0.05f64..1.5,
            (min_samples, window_ms, percentile) in (0usize..5, 100.0f64..2_000.0, 0.0f64..1.0),
        ) {
            // Latencies from a small set, so cells hold equal values.
            let spans: Vec<SpanRecord> = rows
                .iter()
                .map(|&(ms, start, step)| span(ms, start, f64::from(step) * 0.37))
                .collect();
            let containers: BTreeMap<_, _> = deployed
                .iter()
                .enumerate()
                .map(|(ms, &n)| (MicroserviceId::new(ms as u32), n))
                .collect();
            let itf = Interference::new(0.3, 0.1);
            let config = WindowConfig { window_ms, percentile, min_samples };
            let sorted = window_samples(spans.iter(), &containers, itf, sampling, &config);
            let probed = window_samples_by_map(spans.iter(), &containers, itf, sampling, &config);
            prop_assert_eq!(bits(&sorted), bits(&probed));
        }
    }

    /// The install as it was first written, a rebuild of the whole app
    /// through `AppBuilder`: the oracle [`install`] is held to, bit for bit.
    fn install_by_rebuild(
        app: &App,
        mut fits: BTreeMap<MicroserviceId, LatencyProfile>,
    ) -> RefitOutcome {
        let mut refitted = Vec::new();
        let mut kept = Vec::new();
        let mut b = AppBuilder::new(app.name());
        for (ms, micro) in app.microservices() {
            let profile = match fits.remove(&ms) {
                Some(profile) => {
                    refitted.push(ms);
                    profile
                }
                None => {
                    kept.push(ms);
                    micro.profile.clone()
                }
            };
            b.microservice(micro.name.clone(), profile, micro.resources);
        }
        for (_, svc) in app.services() {
            b.raw_service(svc.name.clone(), svc.sla, svc.graph.clone());
        }
        match b.build() {
            Ok(rebuilt) => RefitOutcome {
                app: rebuilt,
                refitted,
                kept,
            },
            Err(_) => RefitOutcome {
                app: app.clone(),
                refitted: Vec::new(),
                kept: app.microservices().map(|(ms, _)| ms).collect(),
            },
        }
    }

    /// A profile drawn from `seed`: parameters from a table of signed
    /// zeros, a subnormal, huge and ordinary values, a constant or an
    /// infinite knee, and one profile in eight made invalid by a NaN.
    fn profile_from(seed: u64) -> LatencyProfile {
        const VALUES: [f64; 10] = [
            0.0,
            -0.0,
            5e-324,
            1e300,
            0.1,
            0.30000000000000004,
            2.5,
            -3.75,
            9000.0,
            1.0,
        ];
        let mut state = seed;
        let mut roll = |sides: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % sides
        };
        let mut value = || VALUES[roll(VALUES.len() as u64) as usize];
        let mut segment = || Segment::new(value(), value(), value(), value());
        let (mut low, high) = (segment(), segment());
        let cutoff = match roll(3) {
            0 => f64::INFINITY,
            1 => 0.0,
            _ => 750.5,
        };
        if roll(8) == 0 {
            low.alpha = f64::NAN;
        }
        LatencyProfile::new(low, high, CutoffModel::Constant(cutoff))
    }

    /// `count` microservices in one chain, profiles drawn from `seed`.
    fn chain_app(count: u32, seed: u64) -> App {
        let mut b = AppBuilder::new("chain");
        let ids: Vec<MicroserviceId> = (0..count)
            .map(|i| {
                let mut profile = profile_from(seed ^ u64::from(i));
                profile.low.alpha = profile.low.alpha.max(0.0);
                b.microservice(format!("m{i}"), profile, Resources::new(0.1, 200.0))
            })
            .collect();
        b.service("s", Sla::p95_ms(100.0), |g| {
            let mut at = g.entry(ids[0]);
            for &ms in &ids[1..] {
                at = g.call_seq(at, ms);
            }
        });
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Writing the fits in place leaves the app the rebuild made, every
        /// profile bit included (`Debug` prints each `f64` exactly), and
        /// reports the same microservices: fits for ids the app lacks, an
        /// empty map, and maps holding a profile that fails validation.
        #[test]
        fn in_place_install_equals_the_rebuild(
            (count, seed) in (1u32..7, any::<u64>()),
            fits in prop::collection::vec((0u32..10, any::<u64>()), 0..6),
        ) {
            let app = chain_app(count, seed);
            let fits: BTreeMap<MicroserviceId, LatencyProfile> = fits
                .into_iter()
                .map(|(ms, seed)| (MicroserviceId::new(ms), profile_from(seed)))
                .collect();
            let oracle = install_by_rebuild(&app, fits.clone());
            let mut patched = app.clone();
            let installed = install(&mut patched, fits.clone());
            prop_assert_eq!(format!("{patched:?}"), format!("{:?}", oracle.app));
            prop_assert_eq!(&installed.refitted, &oracle.refitted);
            prop_assert_eq!(&installed.kept, &oracle.kept);
            if installed.refitted.is_empty() {
                prop_assert_eq!(format!("{patched:?}"), format!("{app:?}"));
            }
            if fits.keys().all(|ms| ms.index() >= count as usize) {
                prop_assert!(installed.refitted.is_empty());
            }
        }
    }

    /// A profiler whose window fits nothing hands back its input app, and
    /// `install` with no fits leaves the app it is given as it was.
    #[test]
    fn nothing_fitted_changes_nothing() {
        let app = chain_app(3, 7);
        let refit = OnlineProfiler::new().refit(&app);
        assert!(!refit.changed());
        assert_eq!(format!("{:?}", refit.app), format!("{app:?}"));
        assert_eq!(refit.kept.len(), 3);
        let mut patched = app.clone();
        let installed = install(&mut patched, BTreeMap::new());
        assert_eq!(installed.kept, refit.kept);
        assert_eq!(format!("{patched:?}"), format!("{app:?}"));
    }

    fn span(ms: u32, start: f64, latency: f64) -> SpanRecord {
        SpanRecord {
            service: ServiceId::new(0),
            microservice: MicroserviceId::new(ms),
            container: 0,
            priority_class: 0,
            start_ms: start,
            end_ms: start + latency,
        }
    }

    #[test]
    fn windows_scale_counts_by_sampling_and_containers() {
        let mut spans = Vec::new();
        // 40 spans in window 0 of ms 0, constant 5 ms latency.
        for i in 0..40 {
            spans.push(span(0, f64::from(i) * 20.0, 5.0));
        }
        let containers: BTreeMap<_, _> = [(MicroserviceId::new(0), 4u32)].into();
        let out = window_samples(
            spans.iter(),
            &containers,
            Interference::new(0.2, 0.2),
            0.5,
            &WindowConfig {
                window_ms: 1_000.0,
                percentile: 0.95,
                min_samples: 8,
            },
        );
        let samples = &out[&MicroserviceId::new(0)];
        assert_eq!(samples.len(), 1);
        // 40 sampled / 0.5 sampling = 80 true calls per 1 s window
        // = 4 800 per minute / 4 containers = 1 200 per container.
        assert!((samples[0].gamma - 1_200.0).abs() < 1e-9);
        assert!((samples[0].latency_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_windows_and_zero_containers_are_dropped() {
        let spans = [span(0, 0.0, 5.0), span(1, 0.0, 5.0)];
        let containers: BTreeMap<_, _> = [(MicroserviceId::new(0), 1u32)].into();
        let out = window_samples(
            spans.iter(),
            &containers,
            Interference::new(0.2, 0.2),
            1.0,
            &WindowConfig {
                window_ms: 1_000.0,
                percentile: 0.95,
                min_samples: 2,
            },
        );
        // ms 0: one span < min_samples. ms 1: no containers.
        assert!(out.is_empty());
    }

    #[test]
    fn tiny_positive_sampling_never_stores_an_infinite_gamma() {
        let spans: Vec<SpanRecord> = (0..40).map(|i| span(0, f64::from(i) * 20.0, 5.0)).collect();
        let containers: BTreeMap<_, _> = [(MicroserviceId::new(0), 2u32)].into();
        let itf = Interference::new(0.2, 0.2);
        let mut profiler = OnlineProfiler::new();
        assert_eq!(
            profiler.ingest_spans(spans.iter(), &containers, itf, 1.0),
            1
        );
        // Each of these passes `> 0`, and the cell's count divided by it
        // overflows.
        for sampling in [1e-320, 5e-324, f64::MIN_POSITIVE] {
            profiler.ingest_spans(spans.iter(), &containers, itf, sampling);
        }
        let retained: Vec<&Sample> = profiler.samples().values().flatten().collect();
        for s in &retained {
            assert!(s.gamma.is_finite() && s.latency_ms.is_finite(), "{s:?}");
        }
        assert_eq!(retained.len(), 1, "only the sampling = 1.0 cell is kept");
    }
}
