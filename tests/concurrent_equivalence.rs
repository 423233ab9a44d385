//! Concurrency torture suite: N reader threads × 1 writer on every
//! engine × layout configuration at pool widths {1, 2, 8}.
//!
//! The writer applies an ordered sequence of acknowledged batches —
//! inserts, tombstone deletes, merges, checkpoints — while readers
//! continuously open snapshot sessions and re-run the same query. The
//! invariants under test are exactly the snapshot-publication contract:
//!
//! * **prefix**: every reader observes exactly the batches `0..=j` for
//!   some `j` — never a later batch without all earlier ones;
//! * **never torn**: a batch is observed with *all* of its triples or
//!   none of them (readers see commit boundaries, not intermediate
//!   engine state);
//! * **never regressing**: the observed prefix length and the snapshot
//!   version are monotone per reader, and bit-stable within one pinned
//!   session;
//! * **sequential twin**: when the dust settles, the tortured database
//!   answers identically to a twin that applied the same batches with no
//!   concurrency at all — on every configuration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use swans_core::{Database, StoreConfig};
use swans_rdf::Dataset;

/// Pool widths under test (engine-internal parallelism × serving
/// concurrency).
const WIDTHS: [usize; 3] = [1, 2, 8];
/// Triples per batch (beyond the churn triple) — the tear detector.
const PAYLOAD: usize = 3;

/// Quick mode (`SWANS_SERVE_QUICK=1`): fewer batches and readers, one
/// width. CI's sanitizer job runs this suite under ThreadSanitizer, where
/// every access is instrumented; the interleavings are what matter there,
/// not the volume.
fn quick() -> bool {
    std::env::var_os("SWANS_SERVE_QUICK").is_some_and(|v| v == "1")
}

fn n_batches() -> usize {
    if quick() {
        10
    } else {
        24
    }
}

fn n_readers() -> usize {
    if quick() {
        2
    } else {
        3
    }
}

/// The seed data set carries batch 0, so every term the readers' query
/// mentions is in the dictionary from version 1 on.
fn seed_dataset() -> Dataset {
    let mut ds = Dataset::new();
    for (s, p, o) in batch_triples(0) {
        ds.add(&s, &p, &o);
    }
    ds.add("<other>", "<type>", "<Text>");
    ds
}

fn batch_subject(k: usize) -> String {
    format!("<batch-{k:04}>")
}

/// Batch `k`: `PAYLOAD` payload triples on one subject (all-or-nothing
/// visibility is checked per subject) plus one churn triple that later
/// batches tombstone.
fn batch_triples(k: usize) -> Vec<(String, String, String)> {
    let s = batch_subject(k);
    let mut triples: Vec<(String, String, String)> = (0..PAYLOAD)
        .map(|i| (s.clone(), "<payload>".to_string(), format!("<item-{i}>")))
        .collect();
    triples.push((
        format!("<vol-{k:04}>"),
        "<volatile>".to_string(),
        "<x>".to_string(),
    ));
    triples
}

const OBSERVE: &str = "SELECT ?b ?o WHERE { ?b <payload> ?o }";
const CHURN: &str = "SELECT ?v ?o WHERE { ?v <volatile> ?o }";

/// Parses one observation into `batch index → item count`, asserting the
/// tear detector on the way.
fn observed_prefix(rows: &[Vec<String>], label: &str) -> usize {
    let mut per_batch: BTreeMap<usize, usize> = BTreeMap::new();
    for row in rows {
        let b = row[0]
            .strip_prefix("<batch-")
            .and_then(|r| r.strip_suffix('>'))
            .and_then(|r| r.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("{label}: unexpected subject {:?}", row[0]));
        *per_batch.entry(b).or_default() += 1;
    }
    let mut expect = 0usize;
    for (&b, &count) in &per_batch {
        assert_eq!(b, expect, "{label}: gap in observed batches — not a prefix");
        assert_eq!(
            count, PAYLOAD,
            "{label}: batch {b} observed torn ({count}/{PAYLOAD} triples)"
        );
        expect += 1;
    }
    assert!(
        expect > 0,
        "{label}: batch 0 is in the seed and must be seen"
    );
    expect
}

/// One torture run: spawn the readers, drive the writer, join, then diff
/// the end state against a sequentially built twin.
fn torture(db: &Database, config: &StoreConfig, label: &str) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // ---- readers -------------------------------------------------
        for r in 0..n_readers() {
            let done = &done;
            let label = format!("{label} reader {r}");
            scope.spawn(move || {
                let mut last_prefix = 1;
                let mut last_version = 0;
                let mut iterations = 0u32;
                while !done.load(Ordering::Acquire) || iterations < 2 {
                    iterations += 1;
                    let session = db.session().expect("built-in engines fork");
                    assert!(
                        session.version() >= last_version,
                        "{label}: version regressed {last_version} -> {}",
                        session.version()
                    );
                    last_version = session.version();
                    let first = session.query(OBSERVE).expect("observe").decoded();
                    let prefix = observed_prefix(&first, &label);
                    assert!(
                        prefix >= last_prefix,
                        "{label}: prefix regressed {last_prefix} -> {prefix}"
                    );
                    last_prefix = prefix;
                    // Bit-stable within the pinned session, whatever the
                    // writer publishes meanwhile.
                    let again = session.query(OBSERVE).expect("observe").decoded();
                    assert_eq!(first, again, "{label}: a pinned session wavered");
                }
            });
        }

        // ---- the writer ---------------------------------------------
        for k in 1..=n_batches() {
            let triples = batch_triples(k);
            db.insert(triples.iter().map(|(s, p, o)| (&**s, &**p, &**o)))
                .expect("insert batch");
            if k % 3 == 0 {
                // Tombstone an older churn triple (never payload: the
                // prefix invariant is on payload only).
                let vol = format!("<vol-{:04}>", k - 2);
                db.delete([(vol.as_str(), "<volatile>", "<x>")])
                    .expect("delete churn");
            }
            if k % 4 == 0 {
                db.merge().expect("merge");
            }
            if k % 5 == 0 {
                db.checkpoint().expect("checkpoint");
            }
        }
        done.store(true, Ordering::Release);
    });

    // ---- sequential twin ---------------------------------------------
    let twin = Database::open(seed_dataset(), config.clone()).expect("twin opens");
    for k in 1..=n_batches() {
        let triples = batch_triples(k);
        twin.insert(triples.iter().map(|(s, p, o)| (&**s, &**p, &**o)))
            .expect("twin insert");
        if k % 3 == 0 {
            let vol = format!("<vol-{:04}>", k - 2);
            twin.delete([(vol.as_str(), "<volatile>", "<x>")])
                .expect("twin delete");
        }
        if k % 4 == 0 {
            twin.merge().expect("twin merge");
        }
    }
    for q in [OBSERVE, CHURN] {
        let mut got = db.query(q).expect("final query").decoded();
        let mut want = twin.query(q).expect("twin query").decoded();
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "{label}: concurrent end state != sequential twin"
        );
    }
    assert_eq!(
        observed_prefix(&db.query(OBSERVE).expect("final").decoded(), label),
        n_batches() + 1,
        "{label}: final state must contain every acknowledged batch"
    );
}

/// The full matrix: 6 configurations × 3 widths (1 × 1 in quick mode),
/// in-memory.
#[test]
fn readers_observe_exact_prefixes_on_every_config_and_width() {
    let configs = StoreConfig::paper_matrix();
    let (configs, widths): (Vec<StoreConfig>, &[usize]) = if quick() {
        (configs.into_iter().take(2).collect(), &WIDTHS[1..2])
    } else {
        (configs, &WIDTHS[..])
    };
    for config in &configs {
        for &w in widths {
            let config = config.clone().with_threads(w);
            let label = format!("{} @{w}T", config.label());
            let db = Database::open(seed_dataset(), config.clone()).expect("opens");
            torture(&db, &config, &label);
        }
    }
}

/// The same torture on a durable database: checkpoints are real (WAL
/// truncation under concurrent readers), and the end state survives a
/// reopen.
#[test]
#[cfg_attr(miri, ignore)] // real file I/O
fn durable_torture_checkpoints_and_reopens() {
    use swans_core::{DurabilityOptions, Layout};

    let dir = std::env::temp_dir().join(format!("swans-serve-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig::column(Layout::VerticallyPartitioned).with_threads(2);
    let db = Database::import_at(
        &dir,
        seed_dataset(),
        config.clone(),
        DurabilityOptions::default(),
    )
    .expect("imports");
    torture(&db, &config, "durable column vert/SO @2T");
    drop(db);

    let db = Database::open_at(&dir, config).expect("reopens");
    assert_eq!(
        observed_prefix(
            &db.query(OBSERVE).expect("recovered query").decoded(),
            "durable reopen"
        ),
        n_batches() + 1,
        "every acknowledged batch survives the reopen"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
