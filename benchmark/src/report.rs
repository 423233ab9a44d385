//! What one workload run is configured by and what it produces.

use std::path::PathBuf;

use crate::json::Value;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::spread;

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: drives every operation sequence. The data seed is
    /// separate and fixed.
    pub seed: u64,
    /// Measured seconds the counts are sized for; counts scale linearly
    /// with it, so a run never stops on a clock.
    pub seconds: f64,
    /// `--quick`: a tenth of the counts, marked in the output.
    pub quick: bool,
    /// Traced run: a third of the counts, spans recorded, per-layer
    /// metrics reported.
    pub trace: bool,
    /// Where reports, span files and scratch databases go.
    pub out_dir: PathBuf,
}

impl Config {
    /// Count multiplier of an untraced run relative to the nominal one.
    fn base_scale(&self) -> f64 {
        let quick = if self.quick { 0.1 } else { 1.0 };
        self.seconds / crate::NOMINAL_SECONDS * quick
    }

    /// `nominal` scaled to this run (a third of it when traced), at
    /// least `min`.
    pub fn count(&self, nominal: usize, min: usize) -> usize {
        let trace = if self.trace { 1.0 / 3.0 } else { 1.0 };
        ((nominal as f64 * self.base_scale() * trace).round() as usize).max(min)
    }

    /// [`Config::count`] for a phase only the traced run has, which is
    /// therefore not thirded.
    pub fn count_traced_only(&self, nominal: usize, min: usize) -> usize {
        ((nominal as f64 * self.base_scale()).round() as usize).max(min)
    }

    /// Repetitions of a whole set-up (7) or recovery (9): odd, so the
    /// median is a measured value; fewer only under `--quick`.
    pub fn reps(&self, nominal: usize) -> usize {
        if self.quick {
            3
        } else {
            nominal
        }
    }
}

/// Counts operations attempted and failed; a failed, refused or wrongly
/// answered operation counts as missing.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Those that failed the check.
    pub failed: u64,
    /// The first few failures, for the printed report.
    pub examples: Vec<String>,
}

impl Check {
    /// Records one checked operation; `what` describes it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(what());
            }
        }
    }

    /// Folds another thread's counts in.
    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// FNV-1a of the executed operation sequence.
    pub op_sequence_hash: u64,
    /// Operation outcomes.
    pub check: Check,
    /// End-to-end metrics: `(name, value, per-block readings if recorded)`.
    pub end_to_end: Vec<(&'static str, f64, Vec<f64>)>,
    /// Per-layer metrics this workload's layers produced.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Free-form facts a reader needs beside the numbers (client counts,
    /// flush policy, sample counts).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            op_sequence_hash: 0,
            check: Check::default(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e_with_blocks(name, value, &[]);
    }

    /// Records an end-to-end metric together with its readings along the
    /// run — the block medians of a phase, or the single repetitions /
    /// cycles the value was estimated from. Their spread is printed beside
    /// the value, so one run shows the noise it saw.
    pub fn e2e_with_blocks(&mut self, name: &'static str, value: f64, per_block: &[f64]) {
        assert!(
            metrics::end_to_end(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.end_to_end.push((name, value, per_block.to_vec()));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::per_layer(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.per_layer.push((name, value));
    }

    /// Records a note.
    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.notes.push((key, value.to_string()));
    }

    /// Whether every checked operation passed.
    pub fn correct(&self) -> bool {
        self.check.failed == 0 && self.check.attempted > 0
    }

    /// The full report object, as `run` stores it per workload.
    pub fn to_json(&self) -> Value {
        let mut e2e = Value::obj();
        for (name, value, blocks) in &self.end_to_end {
            let m = metrics::end_to_end(name).expect("catalogued");
            let mut o = Value::obj();
            o.set("value", *value).set("unit", m.unit);
            if !blocks.is_empty() {
                o.set("block_spread", spread(blocks));
                o.set(
                    "blocks",
                    blocks.iter().map(|&b| Value::Num(b)).collect::<Vec<_>>(),
                );
            }
            e2e.set(name, o);
        }
        let mut layers = Value::obj();
        for &(name, value) in &self.per_layer {
            let m = metrics::per_layer(name).expect("catalogued");
            let mut o = Value::obj();
            o.set("value", value)
                .set("unit", m.unit)
                .set("exact", m.exact);
            layers.set(name, o);
        }
        let mut notes = Value::obj();
        for (k, v) in &self.notes {
            notes.set(k, v.as_str());
        }
        let mut doc = Value::obj();
        doc.set(
            "op_sequence_hash",
            format!("{:016x}", self.op_sequence_hash),
        )
        .set("attempted", self.check.attempted)
        .set("failed", self.check.failed)
        .set("end_to_end", e2e)
        .set("per_layer", layers)
        .set("notes", notes);
        doc
    }

    /// The driver's result line: every end-to-end metric of an untraced
    /// run, every per-layer metric of a traced one (0 where the workload
    /// does no work in that layer).
    pub fn driver_line(&self, trace: bool) -> String {
        let mut out = Value::obj();
        let mut ms = Value::obj();
        let mut put = |name: &str, unit: &str, value: f64| {
            let mut o = Value::obj();
            o.set("value", value).set("unit", unit);
            ms.set(name, o);
        };
        if trace {
            for m in &PER_LAYER {
                let v = self.per_layer.iter().find(|(n, _)| *n == m.name);
                put(m.name, m.unit, v.map_or(0.0, |&(_, v)| v));
            }
        } else {
            for m in &END_TO_END {
                let v = self.end_to_end.iter().find(|(n, ..)| *n == m.name);
                let v = v.unwrap_or_else(|| panic!("{} did not report {}", self.workload, m.name));
                put(m.name, m.unit, v.1);
            }
        }
        out.set("correct", self.correct())
            .set("attempted", self.check.attempted)
            .set("failed", self.check.failed)
            .set("metrics", ms);
        out.to_json()
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        println!("  op_sequence_hash        {:016x}", self.op_sequence_hash);
        println!(
            "  attempted / failed      {} / {}",
            self.check.attempted, self.check.failed
        );
        for e in &self.check.examples {
            println!("  FAILED: {e}");
        }
        for (name, value, blocks) in &self.end_to_end {
            let m = metrics::end_to_end(name).expect("catalogued");
            let noise = if blocks.is_empty() {
                String::new()
            } else {
                format!(
                    "  ({} readings spread {:.1}%)",
                    blocks.len(),
                    spread(blocks) * 100.0
                )
            };
            println!("  {name:<24}{value:>14.4} {:<5}{noise}", m.unit);
        }
        for &(name, value) in &self.per_layer {
            let m = metrics::per_layer(name).expect("catalogued");
            let exact = if m.exact { "  =" } else { "" };
            println!("  {name:<34}{value:>16.4} {:<6}{exact}", m.unit);
        }
        for (k, v) in &self.notes {
            println!("  note {k}: {v}");
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker / client width: the machine's parallelism, the ceiling on
/// runnable threads everywhere in the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}
