//! `swans-benchmark`: the repo's benchmark. Four fixed-sequence workloads,
//! eight end-to-end metrics each, and a per-layer trace — measured from
//! outside, through the crates' public functions only. See `README.md`.

mod compare;
mod json;
mod metrics;
mod mixed_rw;
mod paper;
mod reference;
mod report;
mod requests;
mod serve_read;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use metrics::WORKLOADS;
use report::{Config, Report};

/// Measured seconds the nominal counts are sized for on the reference box
/// (`run_seconds` in `BENCHMARK.json`); `--seconds` scales the counts.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// The data seed: fixed, separate from the workload seed.
pub const DATA_SEED: u64 = 42;
/// Distinct properties, as in the real Barton data set.
pub const N_PROPERTIES: usize = 222;

/// Fisher-Yates shuffle driven by the benchmark's own generator.
pub fn shuffle<T>(rng: &mut swans_datagen::rng::StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// One named execution counter of a session (0 if the engine has none).
pub fn session_counter(session: &swans_core::Session, name: &str) -> u64 {
    session
        .stat_counters()
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

const USAGE: &str = "\
usage:
  swans-benchmark run --all [--seed N] [--seconds S] [--quick] [--trace 0|1] [--out FILE] [--out-dir DIR]
  swans-benchmark [run] --workload NAME [--seed N] [--seconds S] [--quick] [--trace 0|1] [--out-dir DIR]
  swans-benchmark compare PARENT.json CHANGE.json
  swans-benchmark noise [--runs N] [--seed N] [--quick] [--out-dir DIR]
workloads: paper_col paper_row serve_read mixed_rw";

/// Parsed command line: positional words and `--flag [value]` pairs.
struct Args {
    words: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        const SWITCHES: [&str; 2] = ["all", "quick"];
        let mut words = Vec::new();
        let mut flags = HashMap::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                None => words.push(arg),
                Some(name) if SWITCHES.contains(&name) => {
                    flags.insert(name.to_string(), String::new());
                }
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
            }
        }
        Ok(Self { words, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    /// `--trace 0|1`, if given.
    fn trace(&self) -> Result<Option<bool>, String> {
        match self.flags.get("trace").map(String::as_str) {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(v) => Err(format!("--trace: expected 0 or 1, got {v:?}")),
        }
    }

    fn config(&self, trace: bool) -> Result<Config, String> {
        let seconds: f64 = self.get("seconds", NOMINAL_SECONDS)?;
        if !(1.0..=60.0).contains(&seconds) {
            return Err(format!("--seconds: {seconds} is outside 1..=60"));
        }
        Ok(Config {
            seed: self.get("seed", 1)?,
            seconds,
            quick: self.has("quick"),
            trace,
            out_dir: PathBuf::from(self.get("out-dir", "benchmark/out".to_string())?),
        })
    }
}

fn run_workload(name: &str, cfg: &Config) -> Result<Report, String> {
    match name {
        "paper_col" => Ok(paper::run(cfg, swans_core::EngineKind::Column)),
        "paper_row" => Ok(paper::run(cfg, swans_core::EngineKind::Row)),
        "serve_read" => Ok(serve_read::run(cfg)),
        "mixed_rw" => Ok(mixed_rw::run(cfg)),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn report_path(cfg: &Config, workload: &str) -> PathBuf {
    cfg.out_dir.join(format!(
        "report-{workload}-trace{}.json",
        u8::from(cfg.trace)
    ))
}

/// One workload in this process: prints every metric, writes the report
/// file, and ends with the driver's result line.
fn run_one(name: &str, cfg: &Config) -> Result<bool, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let report = run_workload(name, cfg)?;
    report.print();
    let path = report_path(cfg, name);
    std::fs::write(&path, report.to_json().to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.driver_line(cfg.trace));
    Ok(report.correct())
}

/// Every workload, each in a process of its own (so `peak_rss_mb` is the
/// workload's), untraced and/or traced; returns the merged run object.
fn run_all(cfg: &Config, traces: &[bool]) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut workloads = Value::obj();
    let mut correct = true;
    for (name, _) in WORKLOADS {
        let mut merged = Value::obj();
        for &trace in traces {
            let child_cfg = Config {
                trace,
                ..cfg.clone()
            };
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&cfg.out_dir);
            if cfg.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("starting {name}: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{name} (trace {}) did not finish: {status}",
                    u8::from(trace)
                ));
            }
            let path = report_path(&child_cfg, name);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text)?;
            let count = |key| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            correct &= count("failed") == 0.0 && count("attempted") > 0.0;
            // End-to-end numbers come only from the untraced run, per-layer
            // ones only from the traced run.
            let keep: &[&str] = if trace {
                &["per_layer"]
            } else {
                &[
                    "op_sequence_hash",
                    "attempted",
                    "failed",
                    "end_to_end",
                    "notes",
                ]
            };
            for key in keep {
                if let Some(v) = doc.get(key) {
                    merged.set(key, v.clone());
                }
            }
            if trace {
                for (key, as_key) in [("failed", "traced_failed"), ("notes", "traced_notes")] {
                    if let Some(v) = doc.get(key) {
                        merged.set(as_key, v.clone());
                    }
                }
            }
        }
        workloads.set(name, merged);
    }
    let mut run = Value::obj();
    run.set("seed", cfg.seed)
        .set("seconds", cfg.seconds)
        .set("quick", cfg.quick)
        .set("nproc", report::nproc())
        .set("workloads", workloads);
    Ok((run, correct))
}

/// Appends `run` to the JSON list in `path` (created if absent).
fn append_run(path: &Path, run: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)?
            .as_arr()
            .ok_or("not a JSON list of runs")?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(run);
    std::fs::write(path, Value::Arr(runs).to_json_pretty()).map_err(|e| e.to_string())
}

fn main_inner() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let command = args.words.first().map_or("run", String::as_str);
    match command {
        "run" if args.has("all") => {
            let traces = match args.trace()? {
                Some(t) => vec![t],
                None => vec![false, true],
            };
            let cfg = args.config(false)?;
            std::fs::create_dir_all(&cfg.out_dir)
                .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
            let (run, correct) = run_all(&cfg, &traces)?;
            let out = args.get("out", cfg.out_dir.join("runs.json"))?;
            append_run(&out, run).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("run appended to {}", out.display());
            Ok(correct)
        }
        "run" => {
            let name: String = args.get("workload", String::new())?;
            if name.is_empty() {
                return Err(USAGE.into());
            }
            let cfg = args.config(args.trace()?.unwrap_or(false))?;
            run_one(&name, &cfg)?;
            // The result line says whether the answers were right; the
            // exit code only says the benchmark itself ran.
            Ok(true)
        }
        "compare" => {
            let [_, a, b] = args.words.as_slice() else {
                return Err(USAGE.into());
            };
            let a = compare::RunSet::load(Path::new(a))?;
            let b = compare::RunSet::load(Path::new(b))?;
            Ok(!compare::compare(&a, &b)?)
        }
        "noise" => {
            let runs: usize = args.get("runs", 5)?;
            let cfg = args.config(false)?;
            std::fs::create_dir_all(&cfg.out_dir)
                .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
            let mut paths = Vec::new();
            for set in ["a", "b"] {
                let path = cfg.out_dir.join(format!("noise-{set}.json"));
                let _ = std::fs::remove_file(&path);
                for i in 0..runs {
                    println!("-- noise set {set}, run {} of {runs} --", i + 1);
                    let (run, _) = run_all(&cfg, &[false])?;
                    append_run(&path, run).map_err(|e| format!("{}: {e}", path.display()))?;
                }
                paths.push(path);
            }
            let a = compare::RunSet::load(&paths[0])?;
            let b = compare::RunSet::load(&paths[1])?;
            Ok(compare::noise(&a, &b))
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("swans-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
