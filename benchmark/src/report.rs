//! From a workload's [`Outcome`] to named metrics: the text table, the
//! result line the acceptance driver reads, and the detail line the
//! all-workloads command merges into its report.

use std::collections::BTreeMap;

use erms::control::Json;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Layer};
use crate::workloads::{Outcome, Params, Rep};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Per-repetition spread (IQR / median) of a host-time metric: its
    /// noise floor within this run.
    pub noise: Option<f64>,
    /// Sample count and percentile, where the metric has them.
    pub note: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
    pub lines: Vec<Line>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

fn line(name: &str, value: f64, noise: Option<f64>, note: String) -> Line {
    Line {
        name: name.to_string(),
        value,
        unit: unit_of(name).to_string(),
        noise,
        note,
    }
}

fn listed(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    shown.join(" ")
}

fn end_to_end(params: &Params, outcome: &Outcome) -> Vec<Line> {
    let reps = &outcome.reps;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // The tail percentile is chosen on the pooled sample count; its value,
    // like the median's, is the median over repetitions of the
    // per-repetition percentile, so that one repetition the host stalled
    // (a tenth of the samples) cannot own the whole tail. The count is the
    // planned one: a run cut short by a slow host still reports the
    // percentile its name stands for.
    let n: usize = reps.iter().map(|r| r.op_ms.len()).sum();
    let tail = stats::tail_percentile(params.reps() * reps[0].op_ms.len());
    let walls = per_rep(&|r| r.wall_s);
    let p50s = per_rep(&|r| stats::percentile(&r.op_ms, 0.50));
    let tails = per_rep(&|r| stats::percentile(&r.op_ms, tail));
    let rates = per_rep(&|r| r.work / r.wall_s);
    let over = |values: &[f64]| format!("median of {} repetitions: {}", reps.len(), listed(values));
    vec![
        line(
            "setup_s",
            stats::median(&outcome.setup_s),
            Some(stats::spread(&outcome.setup_s)),
            format!("median of {} set-ups", outcome.setup_s.len()),
        ),
        line(
            "wall_s",
            stats::median(&walls),
            Some(stats::spread(&walls)),
            over(&walls),
        ),
        line(
            "peak_rss_mb",
            outcome.peak_rss_mb,
            None,
            "VmHWM after the first repetition".to_string(),
        ),
        line(
            "op_ms_p50",
            stats::median(&p50s),
            Some(stats::spread(&p50s)),
            format!("n={n}, {}", over(&p50s)),
        ),
        line(
            "op_ms_tail",
            stats::median(&tails),
            Some(stats::spread(&tails)),
            format!("p{:.0}, n={n}, {}", tail * 100.0, over(&tails)),
        ),
        line(
            "work_per_s",
            stats::median(&rates),
            Some(stats::spread(&rates)),
            String::new(),
        ),
        line(
            "plan_containers",
            outcome.plan_containers,
            None,
            "model".to_string(),
        ),
    ]
}

/// Per-layer metrics: what the workload's probes measured, the budget from
/// the traced repetition's spans, and 0 for every layer idle here.
fn per_layer(outcome: &Outcome) -> Vec<Line> {
    let mut values: BTreeMap<&str, f64> = outcome.layers.clone();
    let ops = outcome.traced_ops.max(1) as f64;
    let by_layer = trace::layer_self_ms(&outcome.spans);
    let own = |layer: Layer| by_layer.get(&layer).copied().unwrap_or(0.0) / ops;
    let names: Vec<String> = Layer::BUDGET
        .iter()
        .map(|l| format!("trace.{}.self_ms", l.name()))
        .collect();
    for (layer, name) in Layer::BUDGET.into_iter().zip(&names) {
        values.insert(name, own(layer));
    }
    let op_ms: f64 = Layer::BUDGET.into_iter().map(own).sum();
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.spans", outcome.spans.len() as f64);
    if op_ms > 0.0 {
        values.insert(
            "trace.unattributed_pct",
            own(Layer::Harness) / op_ms * 100.0,
        );
        // The untraced reference repetition ran the same operations.
        if let Some(reference) = &outcome.reference {
            let untraced = stats::mean(&reference.op_ms);
            values
                .entry("trace.overhead_pct")
                .or_insert((op_ms - untraced) / untraced * 100.0);
        }
    }
    PER_LAYER
        .iter()
        .map(|m| {
            line(
                m.name,
                values.get(m.name).copied().unwrap_or(0.0),
                None,
                String::new(),
            )
        })
        .collect()
}

impl Report {
    pub fn new(workload: &str, params: &Params, outcome: &Outcome) -> Self {
        Self {
            workload: workload.to_string(),
            trace: params.trace,
            attempted: outcome.reps.iter().map(|r| r.attempted).sum::<u64>().max(1),
            failed: outcome.reps.iter().map(|r| r.failed).sum(),
            gate_failures: outcome.gate_failures.clone(),
            lines: if params.trace {
                per_layer(outcome)
            } else {
                end_to_end(params, outcome)
            },
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.lines.iter().find(|l| l.name == name).map(|l| l.value)
    }

    pub fn print_text(&self) {
        for l in &self.lines {
            let noise = l
                .noise
                .map_or(String::new(), |n| format!("  noise {:.2}%", n * 100.0));
            let note = if l.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", l.note)
            };
            println!(
                "{:<12} {:<40} {:>16.4} {:<6}{noise}{note}",
                self.workload, l.name, l.value, l.unit
            );
        }
        for failure in &self.gate_failures {
            println!("{:<12} GATE FAILED: {failure}", self.workload);
        }
    }

    /// The result object of the acceptance contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.lines.iter().map(|l| {
                    (
                        l.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(l.value)),
                            ("unit", Json::str(&l.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// What the contract's object has no room for.
    pub fn detail_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("trace", Json::Bool(self.trace)),
            (
                "noise",
                Json::obj(
                    self.lines
                        .iter()
                        .filter_map(|l| Some((l.name.clone(), Json::Num(l.noise?)))),
                ),
            ),
            (
                "notes",
                Json::obj(
                    self.lines
                        .iter()
                        .filter(|l| !l.note.is_empty())
                        .map(|l| (l.name.clone(), Json::str(&l.note))),
                ),
            ),
            (
                "gate_failures",
                Json::Arr(self.gate_failures.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Rebuilds a child process's report from its last two output lines.
    pub fn parse(detail: &Json, contract: &Json) -> Option<Self> {
        let noise = detail.get("noise")?;
        let notes = detail.get("notes")?;
        let lines = contract
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| {
                Some(Line {
                    name: name.clone(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                    noise: noise.get(name).and_then(Json::as_f64),
                    note: notes
                        .get(name)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            workload: detail.get("workload")?.as_str()?.to_string(),
            trace: detail.get("trace")?.as_bool()?,
            attempted: contract.get("attempted")?.as_f64()? as u64,
            failed: contract.get("failed")?.as_f64()? as u64,
            gate_failures: detail
                .get("gate_failures")?
                .as_arr()?
                .iter()
                .filter_map(|g| g.as_str().map(str::to_string))
                .collect(),
            lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_survives_the_trip_through_its_two_lines() {
        let report = Report {
            workload: "des_hot".to_string(),
            trace: false,
            attempted: 10,
            failed: 0,
            gate_failures: vec!["digest".to_string()],
            lines: vec![
                line(
                    "wall_s",
                    2.5125,
                    Some(0.0123),
                    "median of 5 repetitions".to_string(),
                ),
                line("plan_containers", 289.0, None, String::new()),
            ],
        };
        let detail = Json::parse(&report.detail_json().render()).unwrap();
        let contract = Json::parse(&report.contract_json().render()).unwrap();
        assert_eq!(Report::parse(&detail, &contract), Some(report));
        let keys: Vec<&str> = contract
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
