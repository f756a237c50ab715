//! Allocation discipline of the DES hot path: the arrival → ready → done
//! event loop must not clone per-event `Vec`s or structs. With every
//! per-event clone removed, heap *allocation calls* during a run come only
//! from amortized container growth (doubling) — O(log events) — plus a
//! fixed per-structure setup cost. This test pins that down by running the
//! same scenario at 1x and 8x duration under a counting global allocator:
//! 8x the events must cost far less than 8x the allocation calls.
//!
//! (This file is its own crate, so the facade's `forbid(unsafe_code)` does
//! not apply; the `unsafe` here is confined to the allocator shim.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use erms::core::prelude::*;
use erms::sim::runtime::{SimConfig, Simulation};
use erms::sim::service_time::derive_from_profile;
use erms::sim::FaultPlan;
use erms::telemetry::{TelemetryCollector, TelemetryConfig};
use erms::workload::apps::fig5_app;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every allocator entry point (alloc, realloc — a `Vec` doubling
/// is a realloc) and the bytes asked for (a realloc asks for what it grows
/// by), and forwards to the system allocator.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let grown = new_size.saturating_sub(layout.size());
        ALLOC_BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What one counted run reports: (events processed, allocator calls made
/// during `run` itself, requests generated, bytes asked for during `run`).
type Counted = (u64, u64, u64, u64);

/// Runs the Fig. 5 scenario for `duration_ms` and counts it. With
/// `sampling = Some(rate)` a telemetry collector is attached; it is
/// constructed *outside* the counted window (ring and sketch tables are
/// preallocated up front), so the count isolates the sink's per-event
/// marginal cost.
fn run_counted(duration_ms: f64, sampling: Option<f64>) -> Counted {
    run_counted_inner(duration_ms, sampling, None, false)
}

/// The sharded variant: same scenario through `run_sharded` at `shards`
/// shards. Telemetry sinks are not attached (the shard engine takes one
/// sink per shard; the merge cost is covered by erms-telemetry's tests).
fn run_counted_sharded(duration_ms: f64, shards: usize) -> Counted {
    run_counted_inner(duration_ms, None, Some(shards), false)
}

/// The fault-churn variant: container crash, cold start and spot
/// reclamation all inside the first 2 s (so short and long runs see the
/// identical fault prefix), plus a 2% front-door drop rate for ongoing
/// call-slot churn. Exercises the calendar queue's steady state under
/// fault events and the call arena's free-list reuse.
fn run_counted_faulted(duration_ms: f64) -> Counted {
    run_counted_inner(duration_ms, None, None, true)
}

fn run_counted_inner(
    duration_ms: f64,
    sampling: Option<f64>,
    shards: Option<usize>,
    faults: bool,
) -> Counted {
    let (app, [u, h, _p], [s1, s2]) = fig5_app(300.0);
    let itf = Interference::new(0.3, 0.3);
    let mut w = WorkloadVector::new();
    w.set(s1, RequestRate::per_minute(20_000.0));
    w.set(s2, RequestRate::per_minute(20_000.0));
    let plan = ErmsScaler::new(&app).plan(&w, itf).expect("feasible plan");

    let mut sim = Simulation::new(
        &app,
        SimConfig {
            duration_ms,
            warmup_ms: 0.0,
            seed: 11,
            trace_sampling: 0.0,
            ..SimConfig::default()
        },
    );
    for (ms, m) in app.microservices() {
        let (model, threads) = derive_from_profile(&m.profile, itf, 0.75);
        sim.set_service_time(ms, model);
        sim.set_threads(ms, threads);
    }
    sim.set_uniform_interference(itf);
    if faults {
        sim.set_fault_plan(
            FaultPlan::new()
                .crash(u, 500.0, 1)
                .cold_start(h, 1, 400.0)
                .spot_reclamation(h, 1_000.0, 1, 300.0)
                .with_drop_probability(0.02),
        );
    }
    let containers: BTreeMap<_, _> = app
        .microservices()
        .map(|(ms, _)| (ms, plan.containers(ms)))
        .collect();
    let mut priorities = BTreeMap::new();
    for ms in app.shared_microservices() {
        if let Some(order) = plan.priority_order(ms) {
            priorities.insert(ms, order.to_vec());
        }
    }

    let mut collector = sampling.map(|rate| {
        TelemetryCollector::for_app(
            &app,
            TelemetryConfig {
                sampling: rate,
                ring_capacity: 65_536,
                seed: 0x51AB,
                relative_error: 0.01,
            },
        )
    });

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let result = match (collector.as_mut(), shards) {
        (Some(collector), _) => sim
            .run_with_sink(&w, &containers, &priorities, collector)
            .expect("sim runs"),
        (None, Some(k)) => sim
            .run_sharded(&w, &containers, &priorities, k)
            .expect("sim runs"),
        (None, None) => sim.run(&w, &containers, &priorities).expect("sim runs"),
    };
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    if let Some(collector) = &collector {
        assert!(collector.spans_seen() > 0, "sink saw no spans");
    }
    (result.events, allocs, result.generated, bytes)
}

/// The counters are global to the test binary: each test holds this for
/// its whole body, so no two counted windows overlap.
static COUNTED_WINDOW: Mutex<()> = Mutex::new(());

#[test]
fn event_loop_allocations_grow_sublinearly_with_events() {
    let _window = COUNTED_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let (events_short, allocs_short, ..) = run_counted(4_000.0, None);
    let (events_long, allocs_long, ..) = run_counted(32_000.0, None);

    let event_ratio = events_long as f64 / events_short as f64;
    let alloc_ratio = allocs_long as f64 / allocs_short as f64;
    assert!(
        event_ratio > 6.0,
        "8x duration should process ~8x events (got {event_ratio:.2}x: \
         {events_short} -> {events_long})"
    );

    // A single per-event clone anywhere on the hot path would drive the
    // allocation ratio to the event ratio. Amortized growth keeps it near
    // 1; allow generous headroom for BTreeMap rebalancing and the result
    // assembly.
    assert!(
        alloc_ratio < event_ratio / 2.0,
        "allocation calls must grow sublinearly with events: {allocs_short} allocs \
         for {events_short} events vs {allocs_long} allocs for {events_long} events \
         ({alloc_ratio:.2}x allocs for {event_ratio:.2}x events)"
    );

    // Absolute bound: well under one allocation per event in steady state.
    let marginal = (allocs_long - allocs_short) as f64 / (events_long - events_short) as f64;
    assert!(
        marginal < 0.5,
        "marginal allocations per event must stay below 0.5, got {marginal:.3}"
    );

    // Same discipline with the telemetry sink attached at 1% sampling:
    // the ring buffer is preallocated and sketch buckets grow O(log), so
    // the sink must stay allocation-lean — well under one marginal
    // allocator call per event.
    let (sink_events_short, sink_allocs_short, ..) = run_counted(4_000.0, Some(0.01));
    let (sink_events_long, sink_allocs_long, ..) = run_counted(32_000.0, Some(0.01));
    let sink_marginal = (sink_allocs_long - sink_allocs_short) as f64
        / (sink_events_long - sink_events_short) as f64;
    assert!(
        sink_marginal < 1.0,
        "telemetry sink must stay allocation-lean: {sink_marginal:.3} marginal \
         allocs/event ({sink_allocs_short} allocs for {sink_events_short} events vs \
         {sink_allocs_long} allocs for {sink_events_long} events)"
    );
    // The sink adds no per-event clones: its marginal cost stays close to
    // the bare engine's.
    assert!(
        sink_marginal < marginal + 0.5,
        "sink marginal ({sink_marginal:.3}) should stay near bare-engine \
         marginal ({marginal:.3})"
    );

    // The sharded engine must hold the same discipline: call slots live in
    // a reused arena, mailbox buffers are swapped back after every drain
    // (capacity ping-pong, never dropped), and per-shard heaps grow
    // amortized — so the K = 4 path stays under 0.5 marginal allocator
    // calls per event too.
    let (shard_events_short, shard_allocs_short, ..) = run_counted_sharded(4_000.0, 4);
    let (shard_events_long, shard_allocs_long, ..) = run_counted_sharded(32_000.0, 4);
    let shard_marginal = (shard_allocs_long - shard_allocs_short) as f64
        / (shard_events_long - shard_events_short) as f64;
    assert!(
        shard_marginal < 0.5,
        "sharded path must stay below 0.5 marginal allocs/event, got \
         {shard_marginal:.3} ({shard_allocs_short} allocs for {shard_events_short} \
         events vs {shard_allocs_long} allocs for {shard_events_long} events)"
    );

    // Calendar-queue steady state under fault churn: with the fault
    // prefix (crash, cold start, spot reclamation) inside both windows
    // and a 2% drop rate churning the call arena throughout, the extra
    // 28 s of simulated time must cost essentially *zero* extra
    // allocator calls per event. The queue's bottom run and bucket
    // vectors reach their working capacity during the short window and
    // are reused in place from then on; released call slots and popped
    // entries recycle through free lists, never through the allocator.
    // The loose 0.05 headroom covers the tail of Vec doublings
    // (result vectors, bucket array rebuilds) — O(log events), not O(n).
    let (churn_events_short, churn_allocs_short, ..) = run_counted_faulted(4_000.0);
    let (churn_events_long, churn_allocs_long, ..) = run_counted_faulted(32_000.0);
    let churn_marginal = (churn_allocs_long - churn_allocs_short) as f64
        / (churn_events_long - churn_events_short) as f64;
    assert!(
        churn_marginal < 0.05,
        "calendar queue must reach a zero-allocation steady state under \
         fault churn: {churn_marginal:.4} marginal allocs/event \
         ({churn_allocs_short} allocs for {churn_events_short} events vs \
         {churn_allocs_long} allocs for {churn_events_long} events)"
    );
}

/// A run nobody observes keeps nothing per call. Past its fixed setup, the
/// bytes a sink-less run asks the allocator for grow with the *requests*
/// it generates — the 8-byte end-to-end latency each leaves in
/// `SimResult::service_latencies`, plus amortised growth — never with the
/// calls those requests fan out into (several per request here): an
/// always-on per-call recorder costs at least its row per call and breaks
/// the bound.
#[test]
fn unobserved_runs_keep_nothing_per_call() {
    let _window = COUNTED_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    type Run = fn(f64) -> Counted;
    let engines: [(&str, Run); 2] = [
        ("run", |ms| run_counted(ms, None)),
        ("run_sharded K=2", |ms| run_counted_sharded(ms, 2)),
    ];
    for (engine, run) in engines {
        let (_, _, generated_short, bytes_short) = run(4_000.0);
        let (_, _, generated_long, bytes_long) = run(32_000.0);
        let per_request =
            (bytes_long - bytes_short) as f64 / (generated_long - generated_short) as f64;
        assert!(
            per_request < 24.0,
            "{engine}: {per_request:.1} marginal bytes per request ({bytes_short} B for \
             {generated_short} requests vs {bytes_long} B for {generated_long})"
        );
    }
}
