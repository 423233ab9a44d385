//! Runs every experiment and writes the full Markdown report to stdout.
//! Pass a file path argument to also write it there.
use std::io::Write;

fn main() {
    let cfg = swans_bench::HarnessConfig::from_env();
    eprintln!(
        "[swans-bench] generating data set (scale {}, seed {})...",
        cfg.scale, cfg.seed
    );
    let ds = cfg.dataset();
    eprintln!("[swans-bench] {} triples", ds.len());

    let mut report = String::new();
    report.push_str(&format!(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run -p swans-bench --release --bin all_experiments`\n\
         at data scale {} ({} triples), {} repetition(s) per cell, seed {}.\n\n\
         Absolute seconds are not comparable to the paper's (scaled synthetic\n\
         data, simulated I/O, modern host CPU); the reproduction targets are\n\
         the *orderings, ratios and crossovers* noted under each artifact.\n\n",
        cfg.scale,
        ds.len(),
        cfg.repeats,
        cfg.seed
    ));

    report.push_str(&swans_bench::experiments::table1(&cfg, &ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::fig1(&ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::table2(&ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::table3());
    report.push('\n');
    report.push_str(&swans_bench::experiments::table4(&cfg, &ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::table5(&cfg, &ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::fig5(&cfg, &ds));
    report.push('\n');
    let (t6, t7) = swans_bench::experiments::tables_6_and_7(&cfg, &ds);
    report.push_str(&t6);
    report.push('\n');
    report.push_str(&t7);
    report.push('\n');
    report.push_str(&swans_bench::experiments::fig6(&cfg, &ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::fig7(&cfg, &ds));
    report.push('\n');
    report.push_str(&swans_bench::experiments::verdict());

    print!("{report}");
    if let Some(path) = std::env::args().nth(1) {
        let mut f = std::fs::File::create(&path).expect("create report file");
        f.write_all(report.as_bytes()).expect("write report");
        eprintln!("[swans-bench] report written to {path}");
    }
}
