//! Heap bounds of a snapshot: `snapshot::save` streams the registry into
//! the file and `snapshot::load` decodes it straight from the text, so
//! neither holds the document as a `Json` tree. Under a counting global
//! allocator this pins the peak of live heap bytes each one adds, on a
//! registry shaped like the benchmark's `control_mix` tenant: the
//! 1000-microservice synthetic app over 200 hosts, a window of 2 048
//! samples on each of 8 microservices, an applied plan and a full history.
//! The tree forms peaked at ≈ 4.9× the file's bytes on save and ≈ 6.3× on
//! load.
//!
//! (This file is its own crate, so the facade's `forbid(unsafe_code)` does
//! not apply; the `unsafe` here is confined to the allocator shim.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};

use erms::control::{snapshot, Registry};
use erms::core::prelude::*;
use erms::core::resilience::HISTORY_LIMIT;
use erms::profilers::dataset::Sample;
use erms::trace::synth::{generate, SynthConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Tracks the bytes currently allocated and their high-water mark, and
/// forwards to the system allocator.
struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns what it returns with the most heap it held at any
/// moment beyond what was live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed) - before)
}

/// A value with all seventeen significant digits, as measured latencies
/// and per-container rates have.
fn digits(i: usize, scale: f64) -> f64 {
    scale * (1.0 + (i as f64 * 0.618_033_988_749_894_8).fract())
}

/// The `control_mix` tenant, built directly rather than through the daemon.
fn control_mix_registry() -> Registry {
    let app = generate(&SynthConfig::scaled(1000, 42)).app;
    let mut registry = Registry::new((0..200).map(|_| Host::paper_host()).collect());
    let handle = registry.create("mix", app).expect("create");
    let mut tenant = handle.lock().unwrap();
    tenant.workloads = tenant
        .app
        .services()
        .enumerate()
        .map(|(i, (sid, _))| (sid, RequestRate::per_minute(90.0 * (i % 37 + 1) as f64)))
        .collect();
    assert!(!tenant.replan().skipped);
    let window: BTreeMap<MicroserviceId, Vec<Sample>> = (0..8)
        .map(|ms| {
            let bucket = (0..2_048)
                .map(|i| {
                    let k = ms * 2_048 + i;
                    Sample::new(digits(k, 7.0), digits(k + 1, 900.0), 0.25, 0.5)
                })
                .collect();
            (MicroserviceId::new(ms as u32), bucket)
        })
        .collect();
    tenant.profiler.restore_samples(window);
    let record = tenant.history.back().expect("one round").clone();
    tenant.history = (1..=HISTORY_LIMIT as u64)
        .map(|round| {
            let mut r = record.clone();
            r.round = round;
            r
        })
        .collect::<VecDeque<_>>();
    tenant.spans_ingested = 1_200_000;
    tenant.samples_ingested = 150_000;
    drop(tenant);
    registry
}

#[test]
fn a_snapshot_is_never_a_tree_in_memory() {
    let registry = control_mix_registry();
    let path = std::env::temp_dir().join(format!(
        "erms-snapshot-allocations-{}.json",
        std::process::id()
    ));
    let (written, save_peak) = peak_of(|| snapshot::save(&registry, &path).expect("save"));
    let (restored, load_peak) = peak_of(|| snapshot::load(&path).expect("load"));
    std::fs::remove_file(&path).ok();
    let bytes = written as usize;
    eprintln!(
        "snapshot {bytes} B: save peak {save_peak} B ({:.2}× the file), \
         load peak {load_peak} B ({:.2}×)",
        save_peak as f64 / bytes as f64,
        load_peak as f64 / bytes as f64,
    );
    assert!(bytes > 1_000_000, "a control_mix-sized snapshot: {bytes} B");
    assert!(
        save_peak <= 512 * 1024,
        "save held {save_peak} B of heap for a {bytes} B snapshot"
    );
    assert!(
        load_peak as f64 <= 3.5 * bytes as f64,
        "load held {load_peak} B of heap for a {bytes} B snapshot"
    );
    // What was loaded is what was saved.
    let plan = |r: &Registry| r.with_tenant("mix", |t| t.plan().cloned()).unwrap();
    assert_eq!(plan(&restored), plan(&registry));
    let held = |r: &Registry| r.with_tenant("mix", |t| t.profiler.samples().clone());
    assert_eq!(held(&restored), held(&registry));
}
