//! `mixed_rw`: one writer committing seeded insert/delete batches to a
//! durable database while one reader runs the four request classes in
//! process; then recovery. The only workload where the WAL, the write
//! store, merge, checkpoint and snapshot publication run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use swans_core::{Database, DurabilityOptions, Durable, Layout, RdfStore, StoreConfig};
use swans_datagen::rng::StdRng;
use swans_datagen::{generate, BartonConfig};
use swans_plan::{compile_sparql, sparql};
use swans_rdf::{Dataset, Delta};

use crate::reference::{fnv1a, Answer};
use crate::report::{peak_rss_mb, Check, Config, Report};
use crate::requests::{hash_requests, Request, RequestMix, CLASSES};
use crate::stats::{block_ranges, median, quiet_high, quiet_low, ClassMetrics, ClassSamples};
use crate::trace::Tracer;
use crate::{DATA_SEED, N_PROPERTIES};

/// Fraction of the full Barton data set (≈ 0.5 M triples).
const SCALE: f64 = 0.01;
const BLOCKS: usize = 5;
/// Triples per batch.
const BATCH: usize = 50;
/// Buffered mutations at which the column engine merges: with
/// [`BATCH`]-triple commits, every [`CYCLE`]-th commit carries a merge and
/// the checkpoint that follows it.
const MERGE_THRESHOLD: usize = 1_000;
const CYCLE: usize = MERGE_THRESHOLD / BATCH;
/// Measured merge cycles.
const CYCLES: usize = 12;
/// Commits after the last measured cycle, so that the directory is left
/// mid-cycle and recovery has a WAL tail to replay.
const TAIL: usize = CYCLE / 2;
/// Requests pre-generated for the reader (it wraps around if it gets
/// through them before the writer is done).
const READER_LIST: usize = 30_000;
/// The writer inserts new subjects under these properties. None is the
/// catalogue property and no reader subject is touched, so every reader
/// answer stays what it was on the imported data — and checkable.
const WRITER_PROPS: [&str; 5] = [
    "<title>",
    "<creator>",
    "<date>",
    "<subject>",
    "<description>",
];
/// Distinct literals the writer's objects are drawn from.
const WRITER_LITERALS: usize = 5_000;

fn store_config() -> StoreConfig {
    StoreConfig::column(Layout::VerticallyPartitioned).with_merge_threshold(MERGE_THRESHOLD)
}

/// One commit: `BATCH` new triples inserted, or an earlier batch deleted.
struct Batch {
    /// `None` for an insert; for a delete, the index of the insert batch
    /// whose triples it removes.
    deletes: Option<usize>,
    triples: Vec<[String; 3]>,
}

/// The writer's commits. Each insert batch is ten new subjects with one
/// triple per [`WRITER_PROPS`] entry. From the second merge cycle on,
/// every fourth commit instead deletes a batch inserted one cycle earlier:
/// its triples are merged by then, so the delete buffers [`BATCH`]
/// tombstones (deleting still-pending inserts would cancel them and move
/// the merge off the cycle boundary).
fn batches(rng: &mut StdRng, n: usize) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::with_capacity(n);
    let mut subject = 0usize;
    for i in 0..n {
        if i >= CYCLE && i % 4 == 3 {
            let target = i - CYCLE - 3;
            let triples = out[target].triples.clone();
            out.push(Batch {
                deletes: Some(target),
                triples,
            });
            continue;
        }
        let mut triples = Vec::with_capacity(BATCH);
        for _ in 0..BATCH / WRITER_PROPS.len() {
            for p in WRITER_PROPS {
                triples.push([
                    format!("<wsub{subject:07}>"),
                    p.to_string(),
                    format!("\"w{}\"", rng.random_range(0..WRITER_LITERALS)),
                ]);
            }
            subject += 1;
        }
        out.push(Batch {
            deletes: None,
            triples,
        });
    }
    out
}

fn hash_batches(mut h: u64, batches: &[Batch]) -> u64 {
    for b in batches {
        h = fnv1a(h, &[u8::from(b.deletes.is_some())]);
        for t in &b.triples {
            for term in t {
                h = fnv1a(h, term.as_bytes());
            }
        }
    }
    h
}

fn commit(db: &Database, b: &Batch) -> Result<usize, swans_core::Error> {
    let terms = b.triples.iter().map(|[s, p, o]| (&**s, &**p, &**o));
    match b.deletes {
        None => db.insert(terms),
        Some(_) => db.delete(terms),
    }
}

/// Scratch copies of each layer under a commit, driven with the same
/// batches so the traced run can time the layers one by one.
struct Replica {
    dataset: Dataset,
    store: RdfStore,
    durable: Durable,
}

/// One commit as the writer saw it.
struct CommitSample {
    ms: f64,
    /// Whether the write store was empty afterwards: the commit merged.
    merged: bool,
    /// Seconds since the drive started, at start and end of the commit.
    from: f64,
    to: f64,
}

/// One read as the reader saw it.
struct ReadSample {
    class: usize,
    ms: f64,
    /// Seconds since the drive started, at the end of the read.
    at: f64,
}

/// What one writer-beside-reader phase produced.
struct Drive {
    commits: Vec<CommitSample>,
    reads: Vec<ReadSample>,
    delta_union_scans: u64,
}

/// Runs `batches` on the writer (this thread) while one reader thread
/// loops `requests`, until the writer is done. With tracers, every
/// operation is recorded span by span.
fn drive(
    db: &Database,
    batches: &[Batch],
    requests: &[Request],
    check: &mut Check,
    tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Drive {
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let scheme = db.config().layout.scheme();
    let (writer_trace, reader_trace) = tracers.unzip();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut reads = Vec::new();
            let mut check = Check::default();
            let mut unions = 0u64;
            let mut tracer = reader_trace;
            let mut op = batches.len() as u32;
            for r in requests.iter().cycle() {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let t = Instant::now();
                let got = match tracer.as_deref_mut() {
                    None => db
                        .query(&r.sparql)
                        .map(|rs| Answer::of_terms(&rs.decoded()))
                        .ok(),
                    // The same read, layer by layer.
                    Some(tr) => {
                        let root = tr.root("op.read", op);
                        op += 1;
                        tr.child(root, "plan.parse", || sparql::parse(&r.sparql).is_ok());
                        let snapshot = tr.child(root, "core.snapshot", || db.snapshot());
                        let compiled = tr.child(root, "plan.compile", || {
                            compile_sparql(&r.sparql, snapshot.dataset(), scheme)
                        });
                        let got = compiled.ok().and_then(|c| {
                            let session =
                                tr.child(root, "core.session_pin", || db.session()).ok()?;
                            let rs = tr
                                .child(root, "engine.execute", || session.execute_plan(&c.plan))
                                .ok()?;
                            let rows = tr.child(root, "rdf.decode", || rs.decoded());
                            unions += crate::session_counter(&session, "delta_union_scans");
                            Some(Answer::of_terms(&rows))
                        });
                        tr.close(root);
                        got
                    }
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                check.expect(got == Some(r.expect), || {
                    format!("read beside the writer {}: {got:?}", r.sparql)
                });
                reads.push(ReadSample {
                    class: r.class,
                    ms,
                    at: started.elapsed().as_secs_f64(),
                });
            }
            (reads, check, unions)
        });

        let mut commits = Vec::with_capacity(batches.len());
        let mut tracer = writer_trace;
        for (i, b) in batches.iter().enumerate() {
            let from = started.elapsed().as_secs_f64();
            let t = Instant::now();
            let outcome = match tracer.as_deref_mut() {
                Some(tr) => {
                    let root = tr.root("op.commit", i as u32);
                    let outcome = tr.child(root, "core.commit", || commit(db, b));
                    tr.close(root);
                    outcome
                }
                None => commit(db, b),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            check.expect(matches!(outcome, Ok(n) if n == b.triples.len()), || {
                format!("commit {i}: {outcome:?}")
            });
            commits.push(CommitSample {
                ms,
                merged: db.pending_delta() == 0,
                from,
                to: started.elapsed().as_secs_f64(),
            });
        }
        done.store(true, Ordering::Release);
        let (reads, reader_check, delta_union_scans) = reader.join().expect("reader thread");
        check.absorb(reader_check);
        let on_boundary = |(i, c): (usize, &CommitSample)| c.merged == ((i + 1) % CYCLE == 0);
        check.expect(commits.iter().enumerate().all(on_boundary), || {
            format!("merges did not land on every {CYCLE}th commit")
        });
        Drive {
            commits,
            reads,
            delta_union_scans,
        }
    })
}

/// Drives commit `i` (batch `b`) once more, layer by layer, through each
/// crate's public functions on the scratch copies: one `replica.*` child
/// span per layer under a root that carries the commit's operation id.
///
/// This runs after the drive, not between its commits: with this work on
/// the writer thread between two commits, the commits themselves measured
/// about twice as fast as they do back to back — the traced drive would
/// not have been the untraced one.
fn replay_commit(tr: &mut Tracer, i: usize, rep: &mut Replica, b: &Batch) {
    let root = tr.root("op.commit.replica", i as u32);
    let mut delta = Delta::new();
    for [s, p, o] in &b.triples {
        if b.deletes.is_none() {
            delta.insert(rep.dataset.encode(s, p, o));
        } else if let Some(t) = rep.dataset.try_encode(s, p, o) {
            delta.delete(t);
        }
    }
    let Replica {
        dataset,
        store,
        durable,
    } = rep;
    tr.child(root, "replica.storage.wal_append", || {
        durable.append_batch(&dataset.dict, &delta)
    })
    .expect("scratch WAL append");
    tr.child(root, "replica.colstore.apply", || store.apply(&delta))
        .expect("scratch apply");
    tr.child(root, "replica.rdf.dataset_apply", || dataset.apply(&delta));
    if (i + 1) % CYCLE == 0 {
        tr.child(root, "replica.colstore.merge", || store.merge())
            .expect("scratch merge");
        tr.child(root, "replica.core.checkpoint", || {
            durable.checkpoint(dataset)
        })
        .expect("scratch checkpoint");
    }
    tr.close(root);
}

/// Operation classes of the latency metrics: a plain commit, then the
/// reader classes beside the writer.
const N_OP_CLASSES: usize = 1 + CLASSES.len();

/// What one drive reduces to.
struct DriveMetrics {
    /// Latency over [`N_OP_CLASSES`] classes, blocked by merge cycles.
    lat: ClassMetrics,
    /// Slowest commit of each merge cycle (the merge-carrying one).
    worst_per_cycle: Vec<f64>,
    /// Acknowledged commits per second of each merge cycle.
    commits_per_s: Vec<f64>,
    /// Slowest read of each merge cycle.
    stall_per_cycle: Vec<f64>,
    merge_ms: Vec<f64>,
}

fn reduce(drive: &Drive, cycles: usize) -> DriveMetrics {
    let blocks = block_ranges(cycles, BLOCKS);
    let mut samples = ClassSamples::default();
    let (mut worst_per_cycle, mut commits_per_s) = (Vec::new(), Vec::new());
    let (mut stall_per_cycle, mut merge_ms) = (Vec::new(), Vec::new());
    let mut reads = drive.reads.iter().peekable();
    for (block, cycles_in_block) in blocks.iter().enumerate() {
        for cycle in cycles_in_block.clone() {
            let range = cycle * CYCLE..(cycle + 1) * CYCLE;
            let (from, to) = (
                drive.commits[range.start].from,
                drive.commits[range.end - 1].to,
            );
            for i in range.clone() {
                if drive.commits[i].merged {
                    merge_ms.push(drive.commits[i].ms);
                } else {
                    samples.push(0, block, drive.commits[i].ms);
                }
            }
            // Reads are in time order: those that ended inside this cycle.
            let mut slowest = 0.0f64;
            while let Some(r) = reads.next_if(|r| r.at <= to) {
                if r.at > from {
                    samples.push(1 + r.class, block, r.ms);
                    slowest = slowest.max(r.ms);
                }
            }
            stall_per_cycle.push(slowest);
            worst_per_cycle.push(
                range
                    .clone()
                    .map(|i| drive.commits[i].ms)
                    .fold(0.0, f64::max),
            );
            commits_per_s.push(CYCLE as f64 / (to - from));
        }
    }
    DriveMetrics {
        lat: samples.reduce(N_OP_CLASSES),
        worst_per_cycle,
        commits_per_s,
        stall_per_cycle,
        merge_ms,
    }
}

fn scratch_dir(cfg: &Config, tag: &str) -> PathBuf {
    let dir = cfg
        .out_dir
        .join(format!("mixed_rw-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    generate(&BartonConfig {
        scale: SCALE,
        seed: DATA_SEED,
        n_properties: N_PROPERTIES,
    })
}

/// One in-process read of each class: `(total milliseconds, answers)`.
fn reader_pass(db: &Database, one_per_class: &[&Request]) -> (f64, Vec<Option<Answer>>) {
    let t = Instant::now();
    let answers = one_per_class
        .iter()
        .map(|r| {
            db.query(&r.sparql)
                .map(|rs| Answer::of_terms(&rs.decoded()))
                .ok()
        })
        .collect();
    (t.elapsed().as_secs_f64() * 1e3, answers)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::new("mixed_rw");
    let options = DurabilityOptions::default();

    // Set-up: generate + import into a fresh durable directory.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut import_s = Vec::new();
    let mut kept: Option<(Database, PathBuf)> = None;
    for rep in 0..cfg.reps(7) {
        if let Some((db, dir)) = kept.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch_dir(cfg, &format!("db{rep}"));
        let started = Instant::now();
        let ds = dataset();
        generate_s.push(started.elapsed().as_secs_f64());
        let t = Instant::now();
        let db = Database::import_at(&dir, ds, store_config(), options.clone()).expect("imports");
        import_s.push(t.elapsed().as_secs_f64());
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((db, dir));
    }
    let (db, dir) = kept.expect("at least one set-up");
    let imported = db.dataset();
    let imported_triples = imported.len();

    // Seeded sequences and expectations (untimed).
    let cycles = cfg.count(CYCLES, 2);
    let measured = cycles * CYCLE;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // A traced run drives the measured commits twice: untraced, then traced.
    let n_batches = measured * if cfg.trace { 2 } else { 1 } + TAIL;
    let all_batches = batches(&mut rng, n_batches);
    let mut mix = RequestMix::new(&imported);
    let requests = mix.generate(&mut rng, cfg.count(READER_LIST, 1_000));
    report.op_sequence_hash = hash_requests(hash_batches(0, &all_batches), &requests);
    let one_per_class: Vec<&Request> = (0..CLASSES.len())
        .map(|c| {
            requests
                .iter()
                .find(|r| r.class == c)
                .expect("every class is drawn")
        })
        .collect();

    let mut check = Check::default();
    let io_before = db.storage().stats();

    // Warm: one reader pass, discarded. (The writer has no warm state to
    // build: every commit sees a data set one batch larger.)
    reader_pass(&db, &one_per_class);
    let drive_untraced = drive(&db, &all_batches[..measured], &requests, &mut check, None);
    let metrics = reduce(&drive_untraced, cycles);

    // Traced run: the same number of cycles again, span by span.
    let mut traced = None;
    if cfg.trace {
        let scratch = scratch_dir(cfg, "replica");
        let current = (*db.dataset()).clone();
        let mut replica = Replica {
            store: RdfStore::try_load(
                &current,
                store_config().with_merge_threshold(usize::MAX / 2),
            )
            .expect("scratch store"),
            durable: Durable::create_from(&scratch, &current, options.clone())
                .expect("scratch durable directory"),
            dataset: current,
        };
        let mut writer_trace = Tracer::new();
        let mut reader_trace = writer_trace.sibling();
        let traced_batches = &all_batches[measured..2 * measured];
        let d = drive(
            &db,
            traced_batches,
            &requests,
            &mut check,
            Some((&mut writer_trace, &mut reader_trace)),
        );
        writer_trace.absorb(reader_trace);
        for (i, b) in traced_batches.iter().enumerate() {
            replay_commit(&mut writer_trace, i, &mut replica, b);
        }
        // What `Arc::make_mut` pays inside every commit while a snapshot
        // pins the previous version: a copy of the whole data set.
        for k in 0..9 {
            let root = writer_trace.root("probe.rdf.dataset_clone", u32::MAX - k);
            let copy = (*db.dataset()).clone();
            writer_trace.close(root);
            drop(copy);
        }
        let _ = std::fs::remove_dir_all(&scratch);
        traced = Some((d, writer_trace));
    }

    // The tail: leaves the directory mid-cycle.
    let tail = &all_batches[n_batches - TAIL..];
    for (i, b) in tail.iter().enumerate() {
        let outcome = commit(&db, b);
        check.expect(outcome.is_ok(), || format!("tail commit {i}: {outcome:?}"));
    }

    // What must survive: every acknowledged batch.
    let deleted: std::collections::HashSet<usize> =
        all_batches.iter().filter_map(|b| b.deletes).collect();
    // Every batch is an insert or the delete of one.
    let expected_triples = imported_triples + BATCH * (all_batches.len() - 2 * deleted.len());
    let live_triples = db.dataset().len();
    check.expect(live_triples == expected_triples, || {
        format!("live database holds {live_triples} triples, expected {expected_triples}")
    });
    let io = db.storage().stats().since(&io_before);
    let commits_total = all_batches.len() as f64;
    let triples_committed = (all_batches.len() * BATCH) as f64;
    let (snapshot_bytes, wal_bytes) = (
        db.snapshot_bytes().unwrap_or(0),
        db.wal_bytes().unwrap_or(0),
    );
    let (_, live_answers) = reader_pass(&db, &one_per_class);
    drop(db);

    // Recovery, repeated: reopen, then the first reader pass.
    let mut recover_s = Vec::new();
    let mut cold_ms = Vec::new();
    let mut reopened = None;
    for _ in 0..cfg.reps(15) {
        drop(reopened.take());
        let t = Instant::now();
        let db = Database::open_at(&dir, store_config()).expect("reopens");
        let recover = t.elapsed().as_secs_f64();
        let (pass_ms, answers) = reader_pass(&db, &one_per_class);
        recover_s.push(recover);
        cold_ms.push(recover * 1e3 + pass_ms);
        check.expect(answers == live_answers, || {
            "reopened directory answers differently from the live database".into()
        });
        reopened = Some(db);
    }
    let db = reopened.expect("at least one recovery");
    let recovered = db.dataset().len();
    check.expect(recovered == expected_triples, || {
        format!("reopened directory holds {recovered} triples, expected {expected_triples}")
    });
    let replayed = db.recovery_report().map_or(0, |r| r.replayed_batches);
    check.expect(replayed == TAIL as u64, || {
        format!("recovery replayed {replayed} batches, expected {TAIL}")
    });
    // Batch by batch: its first subject has all five triples, or none.
    for (i, b) in all_batches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.deletes.is_none())
    {
        let alive = !deleted.contains(&i);
        let q = format!("SELECT ?p ?o WHERE {{ {} ?p ?o }}", b.triples[0][0]);
        let rows = db.query(&q).map(|rs| rs.len()).ok();
        let want = if alive { WRITER_PROPS.len() } else { 0 };
        check.expect(rows == Some(want), || {
            format!("batch {i}: {rows:?} rows after recovery, expected {want}")
        });
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    report.e2e_with_blocks("setup_s", quiet_low(&setup_s), &setup_s);
    report.e2e("op_geomean_ms", metrics.lat.geomean);
    report.e2e_with_blocks(
        "op_pass_ms",
        metrics.lat.pass,
        &metrics.lat.block_pass_median,
    );
    report.e2e_with_blocks(
        "worst_op_ms",
        quiet_low(&metrics.worst_per_cycle),
        &metrics.worst_per_cycle,
    );
    report.e2e_with_blocks("cold_pass_ms", quiet_low(&cold_ms), &cold_ms);
    report.e2e_with_blocks(
        "throughput_ops_s",
        quiet_high(&metrics.commits_per_s),
        &metrics.commits_per_s,
    );
    report.e2e(
        "disk_bytes_per_triple",
        (snapshot_bytes + wal_bytes) as f64 / expected_triples as f64,
    );

    report.note("triples", imported_triples);
    report.note(
        "commits",
        format!("{measured} measured in {cycles} merge cycles + {TAIL} tail, {BATCH} triples each"),
    );
    report.note("threads", "1 writer + 1 reader, closed loop");
    report.note(
        "flush_policy",
        format!(
            "sync_on_commit={} verify_appends={} (the defaults); fsync cost is this sandbox's",
            options.sync_on_commit, options.verify_appends
        ),
    );
    report.note("reads_beside_writer", drive_untraced.reads.len());
    let mut plain: Vec<f64> = drive_untraced
        .commits
        .iter()
        .filter(|c| !c.merged)
        .map(|c| c.ms)
        .collect();
    plain.sort_by(f64::total_cmp);
    let at = |p: usize| plain[(plain.len() - 1) * p / 100];
    report.note(
        "plain_commit_ms_p5_p10_p25_p50_p90",
        format!(
            "{:.1} {:.1} {:.1} {:.1} {:.1}",
            at(5),
            at(10),
            at(25),
            at(50),
            at(90)
        ),
    );

    if let Some((d, tracer)) = traced {
        let traced_metrics = reduce(&d, cycles);
        report.layer("datagen.generate_s", median(&generate_s));
        report.layer("rdf.dict_terms", imported.dict.len() as f64);
        report.layer("core.import_s", median(&import_s));
        report.layer("core.recover_s", median(&recover_s));
        report.layer("core.commit_plain_ms", metrics.lat.class_quiet[0]);
        report.layer("core.commit_merge_ms", quiet_low(&metrics.merge_ms));
        let reads: Vec<f64> = drive_untraced.reads.iter().map(|r| r.ms).collect();
        report.layer("core.read_p50_ms", median(&reads));
        report.layer("core.read_stall_ms", median(&metrics.stall_per_cycle));
        let wall = drive_untraced.commits[measured - 1].to - drive_untraced.commits[0].from;
        report.layer("core.reads_per_s", reads.len() as f64 / wall);
        report.layer(
            "core.session_pin_us",
            tracer.median_of("core.session_pin", 1e-3),
        );
        report.layer(
            "core.checkpoint_s",
            tracer.median_of("replica.core.checkpoint", 1e-9),
        );
        report.layer(
            "colstore.merge_ms",
            tracer.median_of("replica.colstore.merge", 1e-6),
        );
        let merges = |d: &Drive| d.commits.iter().filter(|c| c.merged).count();
        report.layer(
            "colstore.merges",
            (merges(&drive_untraced) + merges(&d)) as f64,
        );
        report.layer("colstore.delta_union_scans", d.delta_union_scans as f64);
        report.layer(
            "rdf.dataset_clone_ms",
            tracer.median_of("probe.rdf.dataset_clone", 1e-6),
        );
        report.layer(
            "storage.wal_append_fsync_us",
            tracer.median_of("replica.storage.wal_append", 1e-3),
        );
        report.layer("storage.syncs_per_commit", io.syncs as f64 / commits_total);
        report.layer(
            "storage.bytes_written_per_triple",
            io.bytes_synced as f64 / triples_committed,
        );
        report.layer(
            "storage.wal_bytes_per_triple",
            wal_bytes as f64 / (TAIL * BATCH) as f64,
        );
        report.layer("storage.checkpoint_bytes", snapshot_bytes as f64);
        report.layer("plan.parse_us", tracer.median_of("plan.parse", 1e-3));
        report.layer("plan.compile_us", tracer.median_of("plan.compile", 1e-3));
        // The traced drive ran the same operations, only with spans.
        // Compared on block medians: the first commits of a second drive
        // run fast, and on these few samples the low decile would read
        // that start-up mode, not the overhead.
        report.layer(
            "harness.trace_overhead_pct",
            (median(&traced_metrics.lat.block_pass_median)
                / median(&metrics.lat.block_pass_median)
                - 1.0)
                * 100.0,
        );
        report.note(
            "trace_child_coverage",
            format!("{:.3}", tracer.child_coverage("op.read")),
        );
        write_trace(&cfg.out_dir, &tracer);
    }

    report.check.absorb(check);
    report.e2e("peak_rss_mb", peak_rss_mb());
    report
}

fn write_trace(out_dir: &Path, tracer: &Tracer) {
    let path = out_dir.join("trace-mixed_rw.json");
    std::fs::write(&path, tracer.to_json("mixed_rw").to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_batches_and_other_seed_differs() {
        let hash = |seed| hash_batches(0, &batches(&mut StdRng::seed_from_u64(seed), 3 * CYCLE));
        assert_eq!(hash(1), hash(1));
        assert_ne!(hash(1), hash(2));
    }

    /// Every commit buffers exactly `BATCH` operations, so the merge lands
    /// on every `CYCLE`-th commit: deletes only ever name triples inserted
    /// a full cycle earlier (merged by then), each batch at most once.
    #[test]
    fn deletes_target_merged_batches_only() {
        let all = batches(&mut StdRng::seed_from_u64(5), 4 * CYCLE + TAIL);
        let mut seen = std::collections::HashSet::new();
        for (i, b) in all.iter().enumerate() {
            assert_eq!(b.triples.len(), BATCH);
            if let Some(target) = b.deletes {
                assert!(
                    target / CYCLE < i / CYCLE,
                    "batch {i} deletes unmerged batch {target}"
                );
                assert!(all[target].deletes.is_none());
                assert_eq!(all[target].triples, b.triples);
                assert!(seen.insert(target), "batch {target} deleted twice");
            }
        }
        assert!(all[..CYCLE].iter().all(|b| b.deletes.is_none()));
        assert!(!seen.is_empty());
    }
}
