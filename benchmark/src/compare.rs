//! `compare A.json B.json` and the `noise` acceptance rule: medians,
//! quartiles and a verdict per workload × end-to-end metric, against the
//! bound the benchmark fixed for that metric.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles, spread};

/// What a metric did between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the run-to-run spread.
    Improved,
    /// Worse by more than the metric's bound.
    Regressed,
    /// Within the bound, and not better by more than the spread.
    Unchanged,
    /// A side's run-to-run spread exceeds the bound, so a change of the
    /// size the bound guards against could not be seen.
    Unresolved,
}

impl Verdict {
    /// Lower-case name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Inter-quartile share of the median; 0 for a single run.
fn run_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        0.0
    } else {
        iqr_share(xs)
    }
}

/// The verdict on `b` (the change) against `a` (the parent).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let is_better = |x: f64, than: f64| match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let (ma, mb) = (median(a), median(b));
    // Positive = worse, as a share of the parent's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let noise = run_spread(a).max(run_spread(b));
    if noise > bound {
        // Too noisy to resolve — unless the two sets do not even overlap.
        let separated = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
        return if separated {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > noise {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// A file of runs: a JSON list, each run holding every workload's report.
pub struct RunSet {
    runs: Vec<Value>,
    /// Whether the runs are `--quick` ones.
    pub quick: bool,
}

impl RunSet {
    /// Loads `path`, refusing a file that mixes quick and full runs.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of a run file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let runs = doc.as_arr().ok_or("expected a JSON list of runs")?.to_vec();
        let flags: Vec<bool> = runs
            .iter()
            .map(|r| {
                r.get("quick")
                    .and_then(Value::as_bool)
                    .ok_or("run without a `quick` flag")
            })
            .collect::<Result<_, _>>()?;
        let quick = *flags.first().ok_or("no runs in the file")?;
        if flags.iter().any(|&q| q != quick) {
            return Err("file mixes --quick and full runs".into());
        }
        Ok(Self { runs, quick })
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// One value per run of `workload`'s end-to-end `metric`.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| {
                r.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// Operations that failed, summed over runs and workloads.
    pub fn failed(&self) -> f64 {
        self.runs
            .iter()
            .filter_map(|r| r.get("workloads")?.as_obj())
            .flatten()
            .filter_map(|(_, w)| w.get("failed")?.as_f64())
            .sum()
    }
}

fn quartile_text(xs: &[f64]) -> String {
    if xs.len() < 2 {
        return format!("{:>11.4} [single run]", xs[0]);
    }
    let [q1, q2, q3] = quartiles(xs);
    format!("{q2:>11.4} [{q1:.4} .. {q3:.4}]")
}

/// Prints the comparison table; returns whether anything regressed.
pub fn compare(a: &RunSet, b: &RunSet) -> Result<bool, String> {
    if a.quick != b.quick {
        return Err("refusing to compare --quick runs with full runs".into());
    }
    println!(
        "parent: {} runs, change: {} runs{}",
        a.len(),
        b.len(),
        if a.quick { " (--quick)" } else { "" }
    );
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        println!("== {workload} ==");
        for m in &END_TO_END {
            let (xa, xb) = (a.values(workload, m.name), b.values(workload, m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("  {:<24} missing on one side", m.name);
                continue;
            }
            let v = verdict(&xa, &xb, m.better, m.bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "  {:<24}{} -> {}  {:+7.2}%  bound {:>4.1}%  {}",
                m.name,
                quartile_text(&xa),
                quartile_text(&xb),
                (median(&xb) / median(&xa) - 1.0) * 100.0,
                m.bound * 100.0,
                v.name()
            );
        }
    }
    if a.failed() + b.failed() > 0.0 {
        println!(
            "failed operations: parent {}, change {}",
            a.failed(),
            b.failed()
        );
    }
    Ok(regressed)
}

/// Whether two sets of runs of the *same* code agree, for one metric: the
/// set medians differ by less than half the bound, and within each set
/// `(max − min) / median` stays within the bound.
pub fn sets_agree(a: &[f64], b: &[f64], bound: f64) -> bool {
    let drift = (median(a) - median(b)).abs() / median(a);
    drift < bound / 2.0 && spread(a) <= bound && spread(b) <= bound
}

/// Prints the noise table for two sets of the same code; returns whether
/// every workload × metric passed [`sets_agree`].
pub fn noise(a: &RunSet, b: &RunSet) -> bool {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        println!("== {workload} ==");
        for m in &END_TO_END {
            let (xa, xb) = (a.values(workload, m.name), b.values(workload, m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("  {:<24} missing", m.name);
                ok = false;
                continue;
            }
            let agree = sets_agree(&xa, &xb, m.bound);
            ok &= agree;
            println!(
                "  {:<24} medians {:>11.4} / {:>11.4}  drift {:>5.2}%  spread {:>5.2}% / {:>5.2}%  bound {:>4.1}%  {}",
                m.name,
                median(&xa),
                median(&xb),
                (median(&xa) - median(&xb)).abs() / median(&xa) * 100.0,
                spread(&xa) * 100.0,
                spread(&xb) * 100.0,
                m.bound * 100.0,
                if agree { "ok" } else { "DISAGREE" }
            );
        }
    }
    let failed = a.failed() + b.failed();
    if failed > 0.0 {
        println!("failed operations: {failed}");
    }
    ok && failed == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET_A: [f64; 5] = [100.0, 101.0, 99.5, 100.5, 100.2];

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let lower = |b: &[f64]| verdict(&QUIET_A, b, Better::Lower, 0.10);
        assert_eq!(
            lower(&[100.4, 99.8, 100.9, 100.1, 100.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            lower(&[115.0, 116.0, 114.5, 115.5, 115.2]),
            Verdict::Regressed
        );
        assert_eq!(lower(&[90.0, 91.0, 89.5, 90.5, 90.2]), Verdict::Improved);
        // Worse, but within the bound: not a regression.
        assert_eq!(
            lower(&[105.0, 106.0, 104.5, 105.5, 105.2]),
            Verdict::Unchanged
        );
        // Direction flips for a higher-is-better metric.
        let higher = |b: &[f64]| verdict(&QUIET_A, b, Better::Higher, 0.10);
        assert_eq!(
            higher(&[115.0, 116.0, 114.5, 115.5, 115.2]),
            Verdict::Improved
        );
        assert_eq!(higher(&[85.0, 86.0, 84.5, 85.5, 85.2]), Verdict::Regressed);
    }

    #[test]
    fn a_noisy_side_is_unresolved_unless_the_sets_separate() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(
            verdict(&QUIET_A, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &QUIET_A, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, yet every run of the change beats every run of the parent.
        let far = [40.0, 55.0, 35.0, 50.0, 45.0];
        assert_eq!(
            verdict(&QUIET_A, &far, Better::Lower, 0.10),
            Verdict::Improved
        );
        // The same spread is fine under a looser bound.
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.60),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noise_rule_bounds_drift_and_spread() {
        assert!(sets_agree(
            &QUIET_A,
            &[100.9, 101.5, 100.2, 101.0, 100.7],
            0.10
        ));
        // Medians 6% apart: more than half of a 10% bound.
        assert!(!sets_agree(
            &QUIET_A,
            &[106.0, 106.5, 105.8, 106.2, 106.1],
            0.10
        ));
        // One wide set.
        assert!(!sets_agree(
            &QUIET_A,
            &[100.0, 112.0, 99.0, 100.5, 100.2],
            0.10
        ));
    }

    fn run_file(quick: &[bool], value: f64) -> String {
        let runs: Vec<String> = quick
            .iter()
            .map(|q| {
                format!(
                    r#"{{"seed":1,"quick":{q},"workloads":{{"paper_col":{{"failed":0,"end_to_end":{{"op_pass_ms":{{"value":{value},"unit":"ms"}}}}}}}}}}"#
                )
            })
            .collect();
        format!("[{}]", runs.join(","))
    }

    #[test]
    fn quick_runs_are_not_compared_with_full_ones() {
        let full = RunSet::parse(&run_file(&[false, false], 10.0)).expect("parses");
        let quick = RunSet::parse(&run_file(&[true, true], 10.0)).expect("parses");
        assert_eq!(full.values("paper_col", "op_pass_ms"), vec![10.0, 10.0]);
        assert!(full.values("paper_col", "setup_s").is_empty());
        assert!(compare(&full, &quick).is_err());
        assert!(compare(&quick, &full).is_err());
        assert!(
            RunSet::parse(&run_file(&[true, false], 10.0)).is_err(),
            "a mixed file is refused"
        );
        assert_eq!(compare(&full, &full), Ok(false));
        let slower = RunSet::parse(&run_file(&[false, false], 12.0)).expect("parses");
        assert_eq!(
            compare(&full, &slower),
            Ok(true),
            "a 20% slower pass is a regression"
        );
    }
}
