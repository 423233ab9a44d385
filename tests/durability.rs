//! The crash matrix: every acknowledged batch survives recovery, no torn
//! batch half-applies, and the recovered database is indistinguishable —
//! all 12 benchmark queries, all 6 engine × layout configurations — from a
//! twin that never crashed.
//!
//! The harness runs a mixed insert/delete/merge/checkpoint workload
//! against a durable database with an armed [`FaultState`], sweeping every
//! fault-injection point (every write, fsync, truncation and rename the
//! durability layer performs) × every fault kind (crash, torn write,
//! silent bit flip, transient I/O error). Each trial kills the process
//! model mid-workload, reopens the directory fault-free, and checks
//! *prefix consistency*: the recovered state is `apply(acked batches)` or
//! `apply(acked batches + the one in-flight batch)` — nothing less (an
//! acknowledged batch vanished), nothing else (a batch half-applied).
//!
//! `SWANS_CRASH_QUICK=1` thins the sweep for CI smoke runs (every other
//! injection point, crash + torn-write kinds only).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use swans_core::{normalize_result, Database, DurabilityOptions, Error, Layout, StoreConfig};
use swans_plan::queries::{vocab, QueryId};
use swans_rdf::{Dataset, SortOrder};
use swans_storage::{FaultKind, FaultPolicy, FaultState, SNAPSHOT_FILE, WAL_FILE};

type Term3 = (String, String, String);

fn quick() -> bool {
    matches!(std::env::var("SWANS_CRASH_QUICK"), Ok(v) if !v.is_empty() && v != "0")
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "swans-crash-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a pristine durable directory (snapshot + WAL) into `dst` — much
/// cheaper than re-importing the seed data set for every trial.
fn clone_dir(seed: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("creates trial dir");
    for name in [SNAPSHOT_FILE, WAL_FILE] {
        let src = seed.join(name);
        if src.exists() {
            std::fs::copy(&src, dst.join(name)).expect("copies seed file");
        }
    }
}

fn base_dataset() -> Dataset {
    swans_datagen::generate(&swans_datagen::BartonConfig {
        scale: 0.0002, // ~10k triples
        seed: 41,
        n_properties: 40,
    })
}

/// One step of the workload, at the *term* level: dictionary ids may come
/// out differently after a recovery (orphaned terms of unacknowledged
/// batches legitimately survive), so the ground truth is a bag of term
/// triples, never of ids.
enum WorkOp {
    Insert(Vec<Term3>),
    Delete(Vec<Term3>),
    Merge,
    Checkpoint,
}

impl WorkOp {
    fn is_batch(&self) -> bool {
        matches!(self, WorkOp::Insert(_) | WorkOp::Delete(_))
    }

    fn label(&self) -> &'static str {
        match self {
            WorkOp::Insert(_) => "insert",
            WorkOp::Delete(_) => "delete",
            WorkOp::Merge => "merge",
            WorkOp::Checkpoint => "checkpoint",
        }
    }
}

/// A mixed workload derived from the data set so mutations hit the
/// benchmark queries' own properties, with a mid-stream engine merge and
/// an explicit checkpoint so the sweep crosses the snapshot-publication
/// and WAL-truncation windows, not just plain appends.
fn workload(ds: &Dataset) -> Vec<WorkOp> {
    let decode = |i: usize| {
        let t = ds.triples[i];
        (
            ds.dict.term(t.s).to_string(),
            ds.dict.term(t.p).to_string(),
            ds.dict.term(t.o).to_string(),
        )
    };
    let ins1: Vec<Term3> = (0..30)
        .flat_map(|i| {
            let s = format!("<upd-s{i}>");
            [
                (s.clone(), vocab::TYPE.to_string(), vocab::TEXT.to_string()),
                (
                    s.clone(),
                    vocab::LANGUAGE.to_string(),
                    vocab::FRENCH.to_string(),
                ),
                (s, vocab::ORIGIN.to_string(), vocab::DLC.to_string()),
            ]
        })
        .collect();
    let dels1: Vec<Term3> = (0..ds.len()).step_by(97).map(decode).collect();
    let ins2: Vec<Term3> = (0..20)
        .map(|i| {
            (
                format!("<upd-s{i}>"),
                "<updated-by>".to_string(),
                "\"writer\"".to_string(),
            )
        })
        .collect();
    let dels2: Vec<Term3> = (0..30)
        .step_by(2)
        .map(|i| {
            (
                format!("<upd-s{i}>"),
                vocab::LANGUAGE.to_string(),
                vocab::FRENCH.to_string(),
            )
        })
        .collect();
    let ins3: Vec<Term3> = (0..15)
        .map(|i| {
            (
                format!("<late-s{i}>"),
                vocab::TYPE.to_string(),
                vocab::TEXT.to_string(),
            )
        })
        .collect();
    let dels3: Vec<Term3> = (0..ds.len()).skip(50).step_by(131).map(decode).collect();
    vec![
        WorkOp::Insert(ins1),
        WorkOp::Delete(dels1),
        WorkOp::Merge,
        WorkOp::Insert(ins2),
        WorkOp::Delete(dels2),
        WorkOp::Checkpoint,
        WorkOp::Insert(ins3),
        WorkOp::Delete(dels3),
    ]
}

fn run_op(db: &Database, op: &WorkOp) -> Result<(), Error> {
    fn strs(ts: &[Term3]) -> impl Iterator<Item = (&str, &str, &str)> {
        ts.iter()
            .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str()))
    }
    match op {
        WorkOp::Insert(ts) => db.insert(strs(ts)).map(|_| ()),
        WorkOp::Delete(ts) => db.delete(strs(ts)).map(|_| ()),
        WorkOp::Merge => db.merge(),
        WorkOp::Checkpoint => db.checkpoint(),
    }
}

/// Applies `op` to the term-level model with [`Dataset::apply`]'s
/// semantics: inserts extend the bag, a delete removes *every* copy of
/// each named triple, merges and checkpoints change nothing logical.
fn model_apply(bag: &mut Vec<Term3>, op: &WorkOp) {
    match op {
        WorkOp::Insert(ts) => bag.extend(ts.iter().cloned()),
        WorkOp::Delete(ts) => bag.retain(|t| !ts.contains(t)),
        WorkOp::Merge | WorkOp::Checkpoint => {}
    }
}

fn canon(mut bag: Vec<Term3>) -> Vec<Term3> {
    bag.sort_unstable();
    bag
}

fn db_bag(db: &Database) -> Vec<Term3> {
    let ds = db.dataset();
    canon(
        ds.triples
            .iter()
            .map(|t| {
                (
                    ds.dict.term(t.s).to_string(),
                    ds.dict.term(t.p).to_string(),
                    ds.dict.term(t.o).to_string(),
                )
            })
            .collect(),
    )
}

fn run_all(db: &Database, ctx: &swans_plan::queries::QueryContext) -> Vec<Vec<Vec<u64>>> {
    QueryId::ALL
        .iter()
        .map(|&q| normalize_result(q, db.run_benchmark(q, ctx).rows))
        .collect()
}

/// The twin check for one recovered directory: every configuration
/// answers all 12 queries identically, and a never-crashed database
/// bulk-loaded with the recovered data set cannot be told apart.
fn verify_against_twins(dir: &Path) {
    let mut reference: Option<Vec<Vec<Vec<u64>>>> = None;
    for config in StoreConfig::paper_matrix() {
        let db = Database::open_at(dir, config.clone()).expect("recovered dir reopens");
        let ctx = db.benchmark_context(28);
        let answers = run_all(&db, &ctx);
        let twin = Database::open(db.dataset(), config.clone()).expect("twin bulk-loads");
        assert_eq!(
            run_all(&twin, &ctx),
            answers,
            "{}: a never-crashed twin of the recovered state disagrees",
            config.label()
        );
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(
                &answers,
                r,
                "{}: recovered directory answers differently under this configuration",
                config.label()
            ),
        }
    }
}

#[derive(Clone, Copy)]
enum KindTag {
    Crash,
    Torn,
    Flip,
    Err,
}

/// Torn lengths and flipped bits vary with the injection index so the
/// sweep covers many positions within the faulted buffers.
fn kind_for(tag: KindTag, i: u64) -> FaultKind {
    match tag {
        KindTag::Crash => FaultKind::CrashBefore,
        KindTag::Torn => FaultKind::Torn {
            keep: (i as usize).wrapping_mul(7) % 29,
        },
        KindTag::Flip => FaultKind::FlipBit {
            bit: i.wrapping_mul(2_654_435_761),
        },
        KindTag::Err => FaultKind::Error,
    }
}

/// The crash matrix itself. For every injection point × fault kind:
/// run the workload until the fault kills (or errors) the process model,
/// reopen fault-free, and assert prefix consistency. Distinct recovered
/// states are then each proven equivalent to a never-crashed twin on all
/// 12 queries × 6 configurations.
#[test]
#[cfg_attr(miri, ignore)] // real file I/O, large sweep
fn crash_matrix_recovers_a_consistent_prefix_at_every_injection_point() {
    let ds = base_dataset();
    let ops = workload(&ds);
    let config = StoreConfig::column(Layout::TripleStore(SortOrder::Spo));

    // The term-level ground truth after each workload prefix.
    let mut bag: Vec<Term3> = (0..ds.len())
        .map(|i| {
            let t = ds.triples[i];
            (
                ds.dict.term(t.s).to_string(),
                ds.dict.term(t.p).to_string(),
                ds.dict.term(t.o).to_string(),
            )
        })
        .collect();
    let mut states: Vec<Vec<Term3>> = vec![canon(bag.clone())];
    for op in &ops {
        model_apply(&mut bag, op);
        states.push(canon(bag.clone()));
    }

    // Seed directory: the imported base data set, checkpointed.
    let seed = scratch("seed");
    drop(
        Database::import_at(&seed, ds, config.clone(), DurabilityOptions::default())
            .expect("seed imports"),
    );

    // Dry run on a copy: count the faultable operations the workload
    // performs and sanity-check the model against a crash-free run.
    let total_ops = {
        let dir = scratch("dry");
        clone_dir(&seed, &dir);
        let faults = FaultState::new();
        let db = Database::open_at_with(
            &dir,
            config.clone(),
            DurabilityOptions {
                faults: Some(faults.clone()),
                ..DurabilityOptions::default()
            },
        )
        .expect("dry run opens");
        for op in &ops {
            run_op(&db, op).expect("dry run is fault-free");
        }
        assert_eq!(
            db_bag(&db),
            *states.last().expect("states nonempty"),
            "the term-level model disagrees with a crash-free run"
        );
        let _ = std::fs::remove_dir_all(&dir);
        faults.ops()
    };
    assert!(
        total_ops >= 15,
        "workload too small to be a sweep: {total_ops} ops"
    );

    let (kinds, step): (&[KindTag], usize) = if quick() {
        (&[KindTag::Crash, KindTag::Torn], 2)
    } else {
        (
            &[KindTag::Crash, KindTag::Torn, KindTag::Flip, KindTag::Err],
            1,
        )
    };

    // Distinct recovered states → the directory that produced each, kept
    // for the (expensive) 12-query × 6-config twin verification.
    let mut distinct: BTreeMap<Vec<Term3>, PathBuf> = BTreeMap::new();
    let mut trials = 0u32;

    for &tag in kinds {
        for i in (0..total_ops).step_by(step) {
            trials += 1;
            let kind = kind_for(tag, i);
            let dir = scratch("trial");
            clone_dir(&seed, &dir);

            let faults = FaultState::new();
            faults.arm(FaultPolicy { at_op: i, kind });
            let db = Database::open_at_with(
                &dir,
                config.clone(),
                DurabilityOptions {
                    faults: Some(faults.clone()),
                    ..DurabilityOptions::default()
                },
            )
            .expect("a clean reopen performs no faultable operation");

            // Run until the fault fires; any error is treated as fatal
            // (the process model is killed and the directory reopened).
            let mut completed = ops.len();
            for (k, op) in ops.iter().enumerate() {
                if run_op(&db, op).is_err() {
                    completed = k;
                    break;
                }
            }
            drop(db);
            assert!(
                completed < ops.len(),
                "{:?} at op {i}: the fault never fired (of {total_ops} ops)",
                kind
            );

            // Recovery must always succeed — a torn or corrupt WAL tail is
            // a clean end of log, never an error, never a panic.
            let recovered = Database::open_at(&dir, config.clone())
                .unwrap_or_else(|e| panic!("{kind:?} at op {i}: recovery failed: {e}"));
            assert!(
                recovered.recovery_report().is_some(),
                "durable reopen must carry a recovery report"
            );
            let got = db_bag(&recovered);
            drop(recovered);

            // Prefix consistency: exactly the acknowledged batches, plus
            // at most the one batch in flight when the fault hit (durable
            // in the WAL but unacknowledged — keeping it is allowed,
            // tearing it is not).
            let acked = &states[completed];
            let in_flight = ops[completed].is_batch().then(|| {
                let mut next = states[completed].clone();
                model_apply(&mut next, &ops[completed]);
                canon(next)
            });
            let ok = got == *acked || in_flight.as_ref() == Some(&got);
            assert!(
                ok,
                "{:?} at op {i} (failed during {} #{completed}): recovered state is neither \
                 apply(acked) ({} triples) nor apply(acked + in-flight) — got {} triples",
                kind,
                ops[completed].label(),
                acked.len(),
                got.len()
            );

            match distinct.entry(got) {
                Entry::Occupied(_) => {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                Entry::Vacant(slot) => {
                    slot.insert(dir);
                }
            }
        }
    }

    assert!(
        distinct.len() >= 3,
        "the sweep only ever recovered {} distinct states over {trials} trials — \
         it is not crossing batch boundaries",
        distinct.len()
    );

    // Every distinct recovered state is indistinguishable from a
    // never-crashed twin: all 12 queries × all 6 configurations.
    for dir in distinct.values() {
        verify_against_twins(dir);
    }

    for dir in distinct.values() {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&seed);
}

/// External single-bit corruption of the files themselves (not a modeled
/// write fault): a flip anywhere in the WAL yields a clean prefix of the
/// logged batches; a flip anywhere in the snapshot is *detected* — a typed
/// error, never a panic, never a silently wrong database.
#[test]
#[cfg_attr(miri, ignore)] // real file I/O
fn recovery_is_total_under_single_bit_file_corruption() {
    let mut ds = Dataset::new();
    ds.add("<s1>", "<type>", "<Text>");
    ds.add("<s2>", "<type>", "<Date>");
    ds.add("<s1>", "<lang>", "\"fre\"");
    ds.add("<s3>", "<origin>", "<DLC>");
    let config = StoreConfig::column(Layout::VerticallyPartitioned);

    // Seed: snapshot of the base data plus two un-checkpointed batches in
    // the WAL.
    let seed = scratch("flip-seed");
    let mut states: Vec<Vec<Term3>> = Vec::new();
    {
        let db = Database::import_at(&seed, ds, config.clone(), DurabilityOptions::default())
            .expect("imports");
        states.push(db_bag(&db));
        db.insert([("<s4>", "<type>", "<Text>"), ("<s4>", "<lang>", "\"deu\"")])
            .expect("inserts");
        states.push(db_bag(&db));
        db.delete([("<s2>", "<type>", "<Date>")]).expect("deletes");
        states.push(db_bag(&db));
    }

    for target in [WAL_FILE, SNAPSHOT_FILE] {
        let pristine = std::fs::read(seed.join(target)).expect("reads seed file");
        assert!(
            !pristine.is_empty(),
            "{target} must be non-empty for this test"
        );
        for pos in (0..pristine.len()).step_by(7) {
            for bit in [0u8, 4] {
                let dir = scratch("flip");
                clone_dir(&seed, &dir);
                let mut bytes = pristine.clone();
                bytes[pos] ^= 1 << bit;
                std::fs::write(dir.join(target), &bytes).expect("writes corrupted file");

                match Database::open_at(&dir, config.clone()) {
                    Ok(db) => {
                        assert_eq!(
                            target, WAL_FILE,
                            "a corrupt snapshot must never open (byte {pos} bit {bit})"
                        );
                        let got = db_bag(&db);
                        assert!(
                            states.contains(&got),
                            "{target} byte {pos} bit {bit}: recovered state is not a \
                             prefix of the logged batches"
                        );
                    }
                    Err(e) => {
                        // A detected-corrupt snapshot is the only
                        // acceptable failure, and it is a typed error.
                        assert_eq!(
                            target, SNAPSHOT_FILE,
                            "WAL corruption must recover to a prefix, got error: {e}"
                        );
                        assert!(
                            matches!(e, Error::Io(_)),
                            "corruption must surface as Error::Io, got: {e}"
                        );
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&seed);
}
