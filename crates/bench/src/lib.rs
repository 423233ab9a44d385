//! # swans-bench
//!
//! The paper-table harness: one binary per table/figure of the paper
//! (run `cargo run -p swans-bench --release --bin <target>`). Performance
//! of the system itself is measured by the repo's benchmark (`benchmark/`,
//! declared in `BENCHMARK.json`), not here.
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — data set details |
//! | `fig1`   | Figure 1 — cumulative frequency distributions |
//! | `table2` | Table 2 — query-space coverage |
//! | `table3` | Table 3 — machine configurations |
//! | `table4` | Table 4 — repetition of the C-Store experiment |
//! | `table5` | Table 5 — data relevant to a query |
//! | `fig5`   | Figure 5 — I/O read history for q3 and q5 |
//! | `table6` | Table 6 — cold runs, full configuration matrix |
//! | `table7` | Table 7 — hot runs, full configuration matrix |
//! | `fig6`   | Figure 6 — execution time vs number of properties |
//! | `fig7`   | Figure 7 — splitting scalability experiment |
//! | `all_experiments` | everything above, writing EXPERIMENTS.md |
//!
//! Environment knobs: `SWANS_SCALE` (fraction of the 50.3M-triple Barton
//! data set to synthesize, default 0.02), `SWANS_REPEATS` (averaging, the
//! paper uses 3; default 3), `SWANS_SEED`.

pub mod experiments;
pub mod paper;

use swans_datagen::{generate, BartonConfig};
use swans_rdf::Dataset;

/// Harness configuration, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Data-set scale (fraction of full Barton).
    pub scale: f64,
    /// Measured repetitions per cell.
    pub repeats: usize,
    /// Generator seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads `SWANS_SCALE`, `SWANS_REPEATS`, `SWANS_SEED`.
    pub fn from_env() -> Self {
        fn parse<T: std::str::FromStr>(k: &str) -> Option<T> {
            std::env::var(k).ok().and_then(|v| v.parse().ok())
        }
        Self {
            scale: parse("SWANS_SCALE").unwrap_or(0.02),
            repeats: parse("SWANS_REPEATS").unwrap_or(3),
            seed: parse("SWANS_SEED").unwrap_or(42),
        }
    }

    /// Generates the benchmark data set for this configuration.
    pub fn dataset(&self) -> Dataset {
        generate(&BartonConfig {
            scale: self.scale,
            seed: self.seed,
            n_properties: 222,
        })
    }

    /// The simulated machine-B profile with the seek penalty scaled to the
    /// data-set scale (see [`swans_core::scaled_profile`]).
    pub fn machine_b(&self) -> swans_storage::MachineProfile {
        swans_core::scaled_profile(swans_storage::MachineProfile::B, self.scale)
    }

    /// Scaled machine A.
    pub fn machine_a(&self) -> swans_storage::MachineProfile {
        swans_core::scaled_profile(swans_storage::MachineProfile::A, self.scale)
    }
}

/// Restricts a data set to the triples of the given properties (the
/// C-Store load of footnote 2: "C-Store is loaded with data associated
/// with 28 properties").
pub fn restrict_to_properties(ds: &Dataset, props: &[swans_rdf::Id]) -> Dataset {
    let set: std::collections::HashSet<_> = props.iter().copied().collect();
    let mut out = ds.clone();
    out.triples.retain(|t| set.contains(&t.p));
    out
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with 3 decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio with 2 decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    fn restrict_keeps_only_listed_properties() {
        let mut ds = Dataset::new();
        ds.add("a", "p1", "x");
        ds.add("b", "p2", "y");
        let p1 = ds.expect_id("p1");
        let r = restrict_to_properties(&ds, &[p1]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.triples[0].p, p1);
    }

    #[test]
    fn env_defaults() {
        // No env vars set in the test runner → defaults.
        let cfg = HarnessConfig::from_env();
        assert!(cfg.scale > 0.0);
        assert!(cfg.repeats >= 1);
    }
}
