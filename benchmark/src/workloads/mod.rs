//! The five workloads and the run shape they share.
//!
//! Every workload does *fixed work*: a repetition is the same operations on
//! the same inputs every time, so counts repeat exactly and only host time
//! varies. A run is set-up (with one warm-up operation, several times over
//! when set-up time is being measured), then a number of timed repetitions
//! derived from `--seconds`. A traced run is one set-up, one traced
//! repetition and one untraced reference repetition, followed by the layer
//! probes that need this workload's inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::{Span, Tracer};

pub mod control_mix;
pub mod des;
pub mod drift_loop;
pub mod http;
pub mod replan_churn;

/// Host seconds one repetition is sized to take on the 2-core reference
/// host; `--seconds` buys one repetition per this many seconds. Short on
/// purpose: the host's speed wanders by a fifth in phases of a few seconds,
/// and a median over many repetitions shorter than a phase sits in the
/// common phase, where one over a few long repetitions averages the mix.
pub const REP_SECONDS: f64 = 1.5;

/// What the command line asked of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    /// Smoke mode: one set-up, one repetition of a tenth of the work.
    pub quick: bool,
}

impl Params {
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            (f64::from(self.seconds) / REP_SECONDS).round().max(1.0) as usize
        }
    }

    fn setups(&self) -> usize {
        if self.quick || self.trace {
            1
        } else {
            5
        }
    }

    /// A per-repetition count, cut to a tenth in smoke mode.
    pub fn sized(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall-clock of the repetition's operations.
    pub wall_s: f64,
    /// Latency of every operation (episode, run, round or query), ms.
    pub op_ms: Vec<f64>,
    /// Work units completed (see the README's table per workload).
    pub work: f64,
    /// Calls into the program that can fail: HTTP requests, simulation
    /// runs, decodes.
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One entry per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed repetition of an untraced run; the one traced
    /// repetition of a traced run.
    pub reps: Vec<Rep>,
    /// Traced run only: the same repetition once more with tracing off,
    /// which the tracing overhead is taken against. It runs second, so
    /// the shadow replay never has to catch up with it.
    pub reference: Option<Rep>,
    /// `VmHWM` after set-up and the first timed repetition, MB.
    pub peak_rss_mb: f64,
    /// Containers in the final applied plan(s).
    pub plan_containers: f64,
    /// Correctness gates that failed; empty means the outputs are correct.
    pub gate_failures: Vec<String>,
    /// Per-layer metrics this workload measured (traced run only). Names
    /// it leaves out are reported as 0: the layer did no work here.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced repetition, and how many operations they cover.
    pub spans: Vec<Span>,
    pub traced_ops: u64,
}

impl Outcome {
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Runs the shared shape: `setup` (kept from the last of several when
/// set-up time is being measured, the others torn down), then the
/// repetitions. Returns the final state for gates and probes; the caller
/// tears it down.
pub fn drive<S>(
    params: &Params,
    out: &mut Outcome,
    mut setup: impl FnMut() -> S,
    mut rep: impl FnMut(&mut S, &mut Tracer) -> Rep,
    mut teardown: impl FnMut(S),
) -> S {
    let mut state = None;
    for _ in 0..params.setups() {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let start = Instant::now();
        state = Some(setup());
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    if params.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        out.reps.push(rep(&mut state, &mut tracer));
        out.spans = tracer.into_spans();
        out.reference = Some(rep(&mut state, &mut Tracer::off()));
    } else {
        // A host half again as slow as the reference one stops early
        // rather than run into the driver's time limit.
        let started = Instant::now();
        let limit = f64::from(params.seconds).max(REP_SECONDS) * 1.5;
        for _ in 0..params.reps() {
            out.reps.push(rep(&mut state, &mut Tracer::off()));
            if out.reps.len() == 1 {
                // Later repetitions add nothing the first did not allocate,
                // only what the allocator failed to give back.
                out.peak_rss_mb = crate::host::peak_rss_mb();
            }
            if started.elapsed().as_secs_f64() > limit {
                break;
            }
        }
    }
    state
}

/// splitmix64 over a seed and a stream index: independent generator seeds
/// (topologies, DES runs, span salts) from the one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
