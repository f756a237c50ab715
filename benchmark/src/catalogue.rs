//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists exactly
//! these (a unit test compares them), and `run --list` prints them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated or model quantity: repeats exactly for a fixed seed, so
    /// `aa` demands equality instead of agreement within the bound.
    pub exact: bool,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "drift_loop",
        why: "whole pipeline on one critical path (DES, sink, HTTP/JSON ingest, refit, plan, provision), small app: the only run whose layers must sum",
    },
    Workload {
        name: "des_hot",
        why: "erms-sim alone, cache-resident: Social Network under its own plan, priority scheduling; codec and planner changes must not move it",
    },
    Workload {
        name: "des_taobao",
        why: "erms-sim alone, 5000-microservice tables that miss cache, FCFS, deep queues: a footprint saving shows here and not on des_hot",
    },
    Workload {
        name: "replan_churn",
        why: "erms-core planner and provisioning over HTTP, tiny workload updates in and a 92 KB plan out; DES and span ingest idle",
    },
    Workload {
        name: "control_mix",
        why: "erms-control and erms-telemetry: closed-loop span writer beside an open-loop 200/s plan reader on one tenant lock; DES idle",
    },
];

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "plan_containers",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 73] = [
    layer("sim.runtime.ns_per_event", "ns", Lower),
    layer("sim.runtime.events", "count", Lower),
    layer("sim.runtime.events_per_req", "count", Lower),
    layer("sim.runtime.sink_overhead_pct", "%", Lower),
    layer("sim.equeue.ns_per_op.occ256", "ns", Lower),
    layer("sim.equeue.ns_per_op.occ64k", "ns", Lower),
    layer("sim.shard.k1_ratio", "ratio", Lower),
    layer("sim.shard.k4_serial_ratio", "ratio", Lower),
    layer("sim.shard.k4_threads_ratio", "ratio", Lower),
    layer("sim.shard.windows", "count", Lower),
    layer("sim.shard.messages", "count", Lower),
    layer("sim.shard.cut_fraction", "ratio", Lower),
    layer("sim.partition.build_ms", "ms", Lower),
    layer("telemetry.collector.spans_offered", "count", Lower),
    layer("telemetry.collector.spans_kept", "count", Higher),
    layer("telemetry.sketch.ns_per_insert", "ns", Lower),
    layer("telemetry.sketch.merge_us", "us", Lower),
    layer("telemetry.online.ingest_spans_per_s", "1/s", Higher),
    layer("telemetry.online.samples_per_batch", "count", Higher),
    layer("telemetry.online.refit_ms.first", "ms", Lower),
    layer("telemetry.online.refit_ms.last", "ms", Lower),
    layer("profilers.piecewise.fit_us", "us", Lower),
    layer("core.planner.cold_ms", "ms", Lower),
    layer("core.planner.warm_ms.d01", "ms", Lower),
    layer("core.planner.warm_ms.d10", "ms", Lower),
    layer("core.planner.warm_ms.d50", "ms", Lower),
    layer("core.planner.reuse_ratio", "ratio", Higher),
    layer("core.cache.hit_ratio", "ratio", Higher),
    layer("core.resilience.round_ms", "ms", Lower),
    layer("core.provisioning.apply_ms", "ms", Lower),
    layer("core.provisioning.containers_moved", "count", Lower),
    layer("core.resilience.degraded_rounds", "count", Lower),
    layer("core.resilience.skipped_rounds", "count", Lower),
    layer("control.json.render_mb_per_s.spans", "MB/s", Higher),
    layer("control.json.parse_mb_per_s.spans", "MB/s", Higher),
    layer("control.json.render_mb_per_s.plan", "MB/s", Higher),
    layer("control.json.parse_mb_per_s.plan", "MB/s", Higher),
    layer("control.codec.span_encode_ms", "ms", Lower),
    layer("control.codec.span_decode_ms", "ms", Lower),
    layer("control.codec.plan_encode_ms", "ms", Lower),
    layer("control.codec.plan_decode_ms", "ms", Lower),
    layer("control.http.floor_us", "us", Lower),
    layer("control.http.ingest_overhead_ms", "ms", Lower),
    layer("control.http.bytes_in", "B", Lower),
    layer("control.http.bytes_out", "B", Lower),
    layer("control.http.stop_idle_conn_ms", "ms", Lower),
    layer("control.tenant.ingest_ms", "ms", Lower),
    layer("control.tenant.replan_ms", "ms", Lower),
    layer("control.tenant.create_ms", "ms", Lower),
    layer("control.tenant.lock_ratio", "ratio", Higher),
    layer("control.ingest.batch_ms_p95", "ms", Lower),
    layer("control.mix.gen_late_ms_p95", "ms", Lower),
    layer("control.server.metrics_render_us", "us", Lower),
    layer("control.snapshot.save_ms", "ms", Lower),
    layer("control.snapshot.load_ms", "ms", Lower),
    layer("control.snapshot.bytes", "B", Lower),
    layer("trace.synth.generate_ms.1000", "ms", Lower),
    layer("trace.synth.generate_ms.5000", "ms", Lower),
    layer("model.recovery_rounds", "count", Lower),
    layer("model.sla_violation_pct", "%", Lower),
    layer("trace.sim.runtime.self_ms", "ms", Lower),
    layer("trace.telemetry.online.self_ms", "ms", Lower),
    layer("trace.core.resilience.self_ms", "ms", Lower),
    layer("trace.control.json.self_ms", "ms", Lower),
    layer("trace.control.codec.self_ms", "ms", Lower),
    layer("trace.control.http.self_ms", "ms", Lower),
    layer("trace.control.tenant.self_ms", "ms", Lower),
    layer("trace.control.snapshot.self_ms", "ms", Lower),
    layer("trace.harness.self_ms", "ms", Lower),
    layer("trace.op_ms", "ms", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// `BENCHMARK.json` as the catalogue defines it.
pub fn benchmark_json(command: &[&str], run_seconds: u32) -> String {
    let quoted = |s: &str| format!("\"{s}\"");
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        command
            .iter()
            .map(|s| quoted(s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {run_seconds},\n");
    out += "  \"workloads\": [\n";
    out += &WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's rule for a name: starts with a letter or digit, then at
    /// most 64 letters, digits, `_`, `.` and `-` in all.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's rule for a unit: at most 16 letters, digits and `_/%.-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_validator_follows_the_contract() {
        for good in [
            "wall_s",
            "sim.equeue.ns_per_op.occ64k",
            "9lives",
            "a-b",
            "x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ä", "a%", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for good in ["ms", "1/s", "MB/s", "%", "count"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_is_within_the_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.bound == 0.25));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for layer in crate::trace::Layer::BUDGET {
            let name = format!("trace.{}.self_ms", layer.name());
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// What `run --list` prints is what `BENCHMARK.json` declares: the file
    /// is the catalogue rendered, byte for byte.
    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(&crate::COMMAND, crate::RUN_SECONDS)
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
