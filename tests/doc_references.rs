//! The user-facing docs point only at things that exist.
//!
//! Walks `README.md`, `ARCHITECTURE.md` and the verify skill (plans and
//! history — `ROADMAP.md`, `CHANGES.md` — are exempt) and checks, offline:
//!
//! * every back-ticked repo path (`crates/…`, `tests/…`, `examples/…`,
//!   `scripts/…`, `benchmark/…`, `src/…`, `.github/…`, `.claude/…`)
//!   exists, after stripping a `:line` suffix and expanding one `{a,b}`
//!   group;
//! * every `--bin` / `--test` / `--example NAME` names a real target;
//! * every back-ticked `layer.metric` whose layer `BENCHMARK.json` knows
//!   names one of its metrics.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 3] = [
    "README.md",
    "ARCHITECTURE.md",
    ".claude/skills/verify/SKILL.md",
];

const PATH_PREFIXES: [&str; 8] = [
    "crates/",
    "tests/",
    "examples/",
    "scripts/",
    "benchmark/",
    "src/",
    ".github/",
    ".claude/",
];

/// Intentional non-files: the verify skill's throwaway probe example.
const ALLOWED_MISSING: [&str; 1] = ["examples/probe_tmp.rs"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Inline code spans outside fenced blocks.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.trim().to_string())
        .collect()
}

/// `a/{x,y}/b` → `a/x/b`, `a/y/b` (one group, no nesting).
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// File stems of the `.rs` files directly in `dir`.
fn stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let path = e.ok()?.path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(str::to_string))?
        })
        .collect()
}

#[test]
fn docs_reference_only_existing_paths_targets_and_metrics() {
    let bench = read("BENCHMARK.json");
    let metrics: BTreeSet<&str> = bench
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .filter(|name| name.contains('.'))
        .collect();
    let layers: BTreeSet<&str> = metrics.iter().filter_map(|m| m.split('.').next()).collect();

    let mut bins = stems(&root().join("src/bin"));
    let mut tests = stems(&root().join("tests"));
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = krate.expect("crate dir").path();
        bins.extend(stems(&krate.join("src/bin")));
        tests.extend(stems(&krate.join("tests")));
    }
    bins.insert("swans-benchmark".into()); // benchmark/Cargo.toml's [[bin]]
    let examples = stems(&root().join("examples"));

    let mut broken = Vec::new();
    let (mut paths, mut metric_refs, mut targets) = (0, 0, 0);
    for doc in DOCS {
        let text = read(doc);
        for span in code_spans(&text) {
            if PATH_PREFIXES.iter().any(|p| span.starts_with(p)) {
                // `scripts/x.sh [args]`, `crates/…/y.rs:120`: the path alone.
                let word = span.split_whitespace().next().unwrap_or_default();
                let path = word.split(':').next().unwrap_or_default();
                for p in expand_braces(path) {
                    paths += 1;
                    if !ALLOWED_MISSING.contains(&p.as_str()) && !root().join(&p).exists() {
                        broken.push(format!("{doc}: path `{span}`"));
                    }
                }
            }
            let metric_like = span.split('.').count() >= 2
                && span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
                && !span.ends_with(".rs")
                && !span.ends_with(".md");
            let layer = span.split('.').next().unwrap_or_default();
            if metric_like && layers.contains(layer) {
                metric_refs += 1;
                if !metrics.contains(span.as_str()) {
                    broken.push(format!("{doc}: metric `{span}`"));
                }
            }
        }
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let name =
                pair[1].trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_' && c != '-');
            let known = match pair[0].trim_start_matches('`') {
                "--bin" => &bins,
                "--test" => &tests,
                "--example" => &examples,
                _ => continue,
            };
            targets += 1;
            if !known.contains(name) {
                broken.push(format!("{doc}: target `{} {name}`", pair[0]));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale doc references:\n{}",
        broken.join("\n")
    );
    // The walk itself must find something, or it checks nothing.
    assert!(
        paths >= 20 && metric_refs >= 10 && targets >= 10,
        "walker found only {paths} paths, {metric_refs} metrics, {targets} targets"
    );
}
