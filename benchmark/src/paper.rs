//! `paper_col` and `paper_row`: the paper's 12 queries × 3 layouts = 36
//! operation classes through `Database::run_benchmark`, hot and cold, on
//! the column and the row engine respectively.

use std::sync::Arc;
use std::time::Instant;

use swans_btree::{BTree, BTreeOptions};
use swans_core::{profile_for, Database, EngineKind, Layout, QueryRun, StoreConfig};
use swans_datagen::rng::StdRng;
use swans_datagen::{generate, BartonConfig};
use swans_plan::props::PropsContext;
use swans_plan::{build_plan, estimate_rows, optimize_cbo, verify, QueryContext, QueryId, Scheme};
use swans_rdf::{Dataset, SortOrder};
use swans_storage::{MachineProfile, StorageManager};

use crate::reference::{self, fnv1a, Answer};
use crate::report::{nproc, peak_rss_mb, Check, Config, Report};
use crate::stats::{median, quiet_low, ClassSamples};
use crate::trace::Tracer;
use crate::{DATA_SEED, N_PROPERTIES};

/// Fraction of the full Barton data set (≈ 0.5 M triples).
const SCALE: f64 = 0.01;
/// The paper's 28 "interesting" properties.
const N_INTERESTING: usize = 28;
const LAYOUTS: [(Layout, &str); 3] = [
    (Layout::VerticallyPartitioned, "vert"),
    (Layout::TripleStore(SortOrder::Pso), "pso"),
    (Layout::TripleStore(SortOrder::Spo), "spo"),
];
const N_CLASSES: usize = LAYOUTS.len() * QueryId::ALL.len();
const BLOCKS: usize = 5;

/// Nominal pass counts of one engine's workload.
struct Passes {
    hot: usize,
    wide: usize,
    cold: usize,
}

/// Per-layer metric names that differ by engine.
struct Names {
    workload: &'static str,
    open: [&'static str; 3],
    exec: [&'static str; 3],
}

fn plan_for(engine: EngineKind) -> (Passes, Names) {
    match engine {
        EngineKind::Column => (
            Passes {
                hot: 30,
                wide: 30,
                cold: 8,
            },
            Names {
                workload: "paper_col",
                open: [
                    "colstore.open_s.vert",
                    "colstore.open_s.pso",
                    "colstore.open_s.spo",
                ],
                exec: [
                    "colstore.exec_ms.vert",
                    "colstore.exec_ms.pso",
                    "colstore.exec_ms.spo",
                ],
            },
        ),
        // A row pass costs ≈ 4× a column pass on this data; the counts keep
        // the two workloads the same length.
        EngineKind::Row => (
            Passes {
                hot: 10,
                wide: 0,
                cold: 3,
            },
            Names {
                workload: "paper_row",
                open: [
                    "rowstore.open_s.vert",
                    "rowstore.open_s.pso",
                    "rowstore.open_s.spo",
                ],
                exec: [
                    "rowstore.exec_ms.vert",
                    "rowstore.exec_ms.pso",
                    "rowstore.exec_ms.spo",
                ],
            },
        ),
    }
}

/// Everything one set-up builds.
struct Loaded {
    ds: Arc<Dataset>,
    /// One database per layout at width 1.
    narrow: Vec<Database>,
    /// One per layout at width `nproc` (column engine only).
    wide: Vec<Database>,
}

/// Seconds of one set-up, split by part.
struct SetupTime {
    total: f64,
    generate: f64,
    open: [f64; 3],
}

fn set_up(engine: EngineKind) -> (Loaded, SetupTime) {
    let started = Instant::now();
    let ds = Arc::new(generate(&BartonConfig {
        scale: SCALE,
        seed: DATA_SEED,
        n_properties: N_PROPERTIES,
    }));
    let generate_s = started.elapsed().as_secs_f64();
    // Machine B with the seek penalty scaled to the data, as the paper
    // harness does: the cold numbers keep the paper's seek/transfer balance.
    let machine = profile_for(&ds, MachineProfile::B);
    let config = |layout| match engine {
        EngineKind::Column => StoreConfig::column(layout).on_machine(machine),
        EngineKind::Row => StoreConfig::row(layout).on_machine(machine),
    };
    let mut open = [0.0; 3];
    let mut narrow = Vec::new();
    let mut wide = Vec::new();
    for (i, (layout, label)) in LAYOUTS.iter().enumerate() {
        let t = Instant::now();
        let db =
            Database::open(ds.clone(), config(*layout)).unwrap_or_else(|e| panic!("{label}: {e}"));
        open[i] = t.elapsed().as_secs_f64();
        narrow.push(db);
        if engine == EngineKind::Column {
            let cfg = config(*layout).with_threads(nproc());
            wide.push(Database::open(ds.clone(), cfg).unwrap_or_else(|e| panic!("{label}: {e}")));
        }
    }
    let time = SetupTime {
        total: started.elapsed().as_secs_f64(),
        generate: generate_s,
        open,
    };
    (Loaded { ds, narrow, wide }, time)
}

/// `passes` seeded permutations of the 36 classes, concatenated.
fn sequence(rng: &mut StdRng, passes: usize) -> Vec<Vec<usize>> {
    (0..passes)
        .map(|_| {
            let mut perm: Vec<usize> = (0..N_CLASSES).collect();
            crate::shuffle(rng, &mut perm);
            perm
        })
        .collect()
}

fn hash_sequence(mut h: u64, seq: &[Vec<usize>]) -> u64 {
    for pass in seq {
        let bytes: Vec<u8> = pass.iter().map(|&c| c as u8).collect();
        h = fnv1a(h, &bytes);
    }
    h
}

/// Shared, read-only state of the measured phases.
struct Bench<'a> {
    names: &'a Names,
    loaded: &'a Loaded,
    ctx: &'a QueryContext,
    expected: &'a [Answer],
}

impl Bench<'_> {
    /// Executes class `class` on `dbs` and checks its answer; returns the
    /// wall milliseconds of the call and the run.
    fn op(&self, dbs: &[Database], class: usize, check: &mut Check) -> (f64, QueryRun) {
        let (layout, qi) = (class / QueryId::ALL.len(), class % QueryId::ALL.len());
        let q = QueryId::ALL[qi];
        let t = Instant::now();
        let mut run = dbs[layout].run_benchmark(q, self.ctx);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let got = Answer::of_query(q, std::mem::take(&mut run.rows));
        check.expect(got == self.expected[qi], || {
            format!(
                "{q} on {}: {got:?}, expected {:?}",
                LAYOUTS[layout].1, self.expected[qi]
            )
        });
        (ms, run)
    }

    /// Runs one pass over `classes` on `dbs`, one sample per operation.
    fn pass(
        &self,
        dbs: &[Database],
        classes: &[usize],
        block: usize,
        samples: &mut ClassSamples,
        check: &mut Check,
    ) {
        for &class in classes {
            samples.push(class, block, self.op(dbs, class, check).0);
        }
    }
}

/// Runs the workload for `engine`.
pub fn run(cfg: &Config, engine: EngineKind) -> Report {
    let (passes, names) = plan_for(engine);
    let mut report = Report::new(names.workload);
    let column = engine == EngineKind::Column;

    // Set-up, repeated; the last one is kept and measured on.
    let mut times = Vec::new();
    let mut loaded = None;
    for _ in 0..cfg.reps(7) {
        drop(loaded.take());
        let (l, t) = set_up(engine);
        loaded = Some(l);
        times.push(t);
    }
    let loaded = loaded.expect("at least one set-up");
    let ds = &loaded.ds;
    let ctx = QueryContext::from_dataset(ds, N_INTERESTING);

    // Expected answers (untimed): one per query, shared by the layouts.
    let expected: Vec<Answer> = QueryId::ALL
        .iter()
        .map(|&q| {
            let plan = build_plan(q, Scheme::TripleStore, &ctx);
            Answer::of_query(q, reference::execute(&plan, &ds.triples))
        })
        .collect();
    let bench = Bench {
        names: &names,
        loaded: &loaded,
        ctx: &ctx,
        expected: &expected,
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hot_seq = sequence(&mut rng, cfg.count(passes.hot, 1));
    let wide_seq = sequence(&mut rng, if column { cfg.count(passes.wide, 1) } else { 0 });
    let cold_seq = sequence(&mut rng, cfg.count(passes.cold, 1));
    let warm_seq = sequence(&mut rng, 1);
    report.op_sequence_hash = [&hot_seq, &wide_seq, &cold_seq]
        .iter()
        .fold(0, |h, s| hash_sequence(h, s));

    let mut check = Check::default();
    let mut discard = Check::default();

    // One discarded pass at each width, then the measured passes in
    // rounds — a width-1 pass, a width-nproc pass, and every few rounds a
    // cold pass — so that the samples behind every metric span the whole
    // run: a noisy spell on the host then slows a part of each metric's
    // samples, which the quiet estimate ignores, and not all of one's.
    //
    // Cold: the pool is emptied before every operation, and an operation's
    // cost is its wall time plus the machine model's I/O time for the
    // pages it read. (The hot pass after a cold one re-touches its pages;
    // that only costs pool bookkeeping, in a fraction of the samples.)
    let (mut hot, mut wide, mut cold) = <[ClassSamples; 3]>::default().into();
    let (mut cold_bytes, mut cold_seeks, mut cold_io_s) = (0u64, 0u64, 0.0);
    bench.pass(
        &loaded.narrow,
        &warm_seq[0],
        0,
        &mut ClassSamples::default(),
        &mut discard,
    );
    if column {
        bench.pass(
            &loaded.wide,
            &warm_seq[0],
            0,
            &mut ClassSamples::default(),
            &mut discard,
        );
    }
    let rounds = hot_seq.len().max(wide_seq.len());
    let mut cold_passes = cold_seq.iter().enumerate().peekable();
    for round in 0..rounds {
        let block = |n: usize| round * BLOCKS.min(n) / n;
        if let Some(classes) = hot_seq.get(round) {
            bench.pass(
                &loaded.narrow,
                classes,
                block(hot_seq.len()),
                &mut hot,
                &mut check,
            );
        }
        if let Some(classes) = wide_seq.get(round) {
            bench.pass(
                &loaded.wide,
                classes,
                block(wide_seq.len()),
                &mut wide,
                &mut check,
            );
        }
        // Cold pass k of C runs once (k + 1) / (C + 1) of the rounds are done.
        while let Some((pass, classes)) =
            cold_passes.next_if(|(k, _)| (k + 1) * rounds <= (round + 1) * (cold_seq.len() + 1))
        {
            for &class in classes {
                loaded.narrow[class / QueryId::ALL.len()].make_cold();
                let (ms, run) = bench.op(&loaded.narrow, class, &mut check);
                cold.push(class, pass, ms + run.io.io_seconds * 1e3);
                if pass == 0 {
                    cold_bytes += run.io.bytes_read;
                    cold_seeks += run.io.seeks;
                    cold_io_s += run.io.io_seconds;
                }
            }
        }
    }
    let lat = hot.reduce(N_CLASSES);
    let cold = cold.reduce(N_CLASSES);
    let wide = column.then(|| wide.reduce(N_CLASSES));

    let setup_total: Vec<f64> = times.iter().map(|t| t.total).collect();
    report.e2e_with_blocks("setup_s", quiet_low(&setup_total), &setup_total);
    report.e2e("op_geomean_ms", lat.geomean);
    report.e2e_with_blocks("op_pass_ms", lat.pass, &lat.block_pass_median);
    report.e2e("worst_op_ms", lat.worst);
    report.e2e_with_blocks("cold_pass_ms", cold.pass, &cold.block_pass_median);
    // Classes per second of one quiet pass: at width nproc on the column
    // engine, at width 1 on the row engine.
    let pass_ms = wide.as_ref().map_or(lat.pass, |w| w.pass);
    report.e2e("throughput_ops_s", N_CLASSES as f64 / (pass_ms / 1e3));
    let disk: u64 = loaded.narrow.iter().map(Database::disk_bytes).sum();
    report.e2e("disk_bytes_per_triple", disk as f64 / ds.len() as f64);

    report.note("triples", ds.len());
    report.note("classes", N_CLASSES);
    report.note("clients", "1, closed loop");
    report.note(
        "width",
        if column {
            format!("1 and {}", nproc())
        } else {
            "1".into()
        },
    );
    report.note("hot_samples_per_class", lat.min_samples);
    report.note(
        "cold_io",
        "machine B model, seeks scaled to the data set; not a device",
    );

    if cfg.trace {
        let median_of =
            |part: &dyn Fn(&SetupTime) -> f64| median(&times.iter().map(part).collect::<Vec<_>>());
        report.layer("datagen.generate_s", median_of(&|t| t.generate));
        report.layer("rdf.dict_terms", ds.dict.len() as f64);
        for (i, name) in names.open.iter().enumerate() {
            report.layer(name, median_of(&|t| t.open[i]));
        }
        report.layer("storage.cold_bytes_read", cold_bytes as f64);
        report.layer("storage.cold_seeks", cold_seeks as f64);
        report.layer("storage.cold_io_model_s", cold_io_s);
        trace_layers(
            cfg,
            &mut report,
            &bench,
            &hot_seq,
            lat.pass,
            wide.as_ref().map(|w| w.pass),
        );
        if !column {
            btree_layers(&mut report, ds, cfg.seed);
        }
    }

    report.check.absorb(check);
    // Last: everything above counts toward the peak.
    report.e2e("peak_rss_mb", peak_rss_mb());
    report
}

/// The traced replay: the same hot sequence with each operation driven
/// step by step through the public functions `run_benchmark` is made of,
/// one child span per layer.
fn trace_layers(
    cfg: &Config,
    report: &mut Report,
    bench: &Bench,
    hot_seq: &[Vec<usize>],
    untraced_pass_ms: f64,
    wide_pass_ms: Option<f64>,
) {
    let (names, loaded) = (bench.names, bench.loaded);
    let column = !loaded.wide.is_empty();
    // What the column engine plans against; it re-plans (memoized) and can
    // verify inside `execute`, so the harness replays both on the side.
    let pctxs: Vec<PropsContext> = loaded
        .narrow
        .iter()
        .map(Database::explain_context)
        .collect();
    let mut tracer = Tracer::new();
    let mut class_of_op = Vec::new();
    let mut check = Check::default();
    for pass in hot_seq {
        for &class in pass {
            let (layout, qi) = (class / QueryId::ALL.len(), class % QueryId::ALL.len());
            let (db, q) = (&loaded.narrow[layout], QueryId::ALL[qi]);
            let root = tracer.root("op", class_of_op.len() as u32);
            class_of_op.push(class);
            let plan = tracer.child(root, "plan.build", || {
                build_plan(q, db.config().layout.scheme(), bench.ctx)
            });
            if column {
                let opt = tracer.child(root, "replica.plan.optimize_cbo", || {
                    optimize_cbo(plan.clone(), &pctxs[layout])
                });
                tracer.child(root, "replica.plan.verify", || {
                    verify(&opt, &pctxs[layout]).is_ok()
                });
            }
            let snapshot = tracer.child(root, "core.snapshot", || db.snapshot());
            let rows = tracer.child(root, "engine.execute", || {
                snapshot.run_plan(&plan).map(|run| run.rows)
            });
            tracer.close(root);
            let got = rows.map(|r| Answer::of_query(q, r));
            check.expect(got.as_ref().ok() == Some(&bench.expected[qi]), || {
                format!("traced {q}: {got:?}")
            });
        }
    }
    report.check.absorb(check);

    // Per class: the operation without its replicas, and the engine span.
    let spans = tracer.spans();
    let mut real = vec![Vec::new(); N_CLASSES];
    let mut exec = vec![Vec::new(); N_CLASSES];
    let mut replica_ns = vec![0u64; class_of_op.len()];
    for s in spans {
        if s.name.starts_with("replica.") {
            replica_ns[s.op as usize] += s.ns();
        }
    }
    for s in spans {
        let class = class_of_op[s.op as usize];
        if s.parent.is_none() {
            real[class].push((s.ns() - replica_ns[s.op as usize]) as f64 / 1e6);
        } else if s.name == "engine.execute" {
            exec[class].push(s.ns() as f64 / 1e6);
        }
    }
    let traced_pass_ms: f64 = real.iter().map(|c| quiet_low(c)).sum();
    report.layer(
        "harness.trace_overhead_pct",
        (traced_pass_ms / untraced_pass_ms - 1.0) * 100.0,
    );
    for (l, name) in names.exec.iter().enumerate() {
        let per_layout = &exec[l * QueryId::ALL.len()..(l + 1) * QueryId::ALL.len()];
        report.layer(name, per_layout.iter().map(|c| quiet_low(c)).sum());
    }
    report.note(
        "trace_child_coverage",
        format!("{:.3}", tracer.child_coverage("op")),
    );

    if column {
        report.layer(
            "plan.optimize_us",
            tracer.median_of("replica.plan.optimize_cbo", 1e-3),
        );
        report.layer(
            "plan.verify_us",
            tracer.median_of("replica.plan.verify", 1e-3),
        );
        let wide_pass_ms = wide_pass_ms.expect("column engine ran the wide passes");
        report.layer("colstore.wide_speedup", untraced_pass_ms / wide_pass_ms);
        column_counters(report, bench, &pctxs);
    }

    let path = cfg.out_dir.join(format!("trace-{}.json", names.workload));
    std::fs::write(&path, tracer.to_json(names.workload).to_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

/// One pass over the 36 classes on fresh sessions: the column engine's
/// dispatch counters (exact at width 1), its parallel counters at width
/// `nproc`, and the cost model's root-cardinality q-errors.
fn column_counters(report: &mut Report, bench: &Bench, pctxs: &[PropsContext]) {
    /// `(engine counter, per-layer metric, read at width nproc)`.
    const COUNTERS: [(&str, &str, bool); 12] = [
        ("merge_joins", "colstore.merge_joins", false),
        ("hash_joins", "colstore.hash_joins", false),
        ("leapfrog_dispatches", "colstore.leapfrog_dispatches", false),
        ("sorted_group_counts", "colstore.sorted_group_counts", false),
        ("hash_group_counts", "colstore.hash_group_counts", false),
        (
            "run_kernel_dispatches",
            "colstore.run_kernel_dispatches",
            false,
        ),
        ("runs_expanded", "colstore.runs_expanded", false),
        (
            "scan_bytes_compressed",
            "colstore.scan_bytes_compressed",
            false,
        ),
        ("scan_bytes_logical", "colstore.scan_bytes_logical", false),
        ("peak_mem_bytes", "colstore.peak_mem_bytes", false),
        ("morsels", "colstore.morsels", true),
        ("parallel_tasks", "colstore.parallel_tasks", true),
    ];
    let mut sums = [0u64; COUNTERS.len()];
    let mut q_errors = Vec::new();
    for (dbs, is_wide) in [(&bench.loaded.narrow, false), (&bench.loaded.wide, true)] {
        for (layout, db) in dbs.iter().enumerate() {
            let session = db.session().expect("column engine forks");
            for q in QueryId::ALL {
                let run = session
                    .run_benchmark(q, bench.ctx)
                    .expect("benchmark query runs");
                if !is_wide {
                    let plan = build_plan(q, db.config().layout.scheme(), bench.ctx);
                    let est =
                        estimate_rows(&optimize_cbo(plan, &pctxs[layout]), &pctxs[layout]).max(1.0);
                    let actual = (run.rows.len() as f64).max(1.0);
                    q_errors.push((est / actual).max(actual / est));
                }
            }
            for (slot, (counter, _, at_wide)) in sums.iter_mut().zip(COUNTERS) {
                if at_wide == is_wide {
                    let v = crate::session_counter(&session, counter);
                    // A high-water mark, not a sum.
                    *slot = if counter == "peak_mem_bytes" {
                        (*slot).max(v)
                    } else {
                        *slot + v
                    };
                }
            }
        }
    }
    for (sum, (_, metric, _)) in sums.iter().zip(COUNTERS) {
        report.layer(metric, *sum as f64);
    }
    report.layer(
        "plan.q_error_max",
        q_errors.iter().copied().fold(1.0, f64::max),
    );
    report.layer(
        "plan.q_error_geomean",
        swans_core::geometric_mean(&q_errors),
    );
}

/// The B+tree under the row engine, on its own: bulk load, point probes
/// and one full scan over the workload's SPO rows.
fn btree_layers(report: &mut Report, ds: &Dataset, seed: u64) {
    let storage = StorageManager::new(MachineProfile::B);
    let rows: Vec<u64> = ds.triples.iter().flat_map(|t| t.as_row()).collect();
    let t = Instant::now();
    let tree = BTree::bulk_load(&storage, "bench/spo", 3, rows, BTreeOptions::default());
    report.layer("btree.bulk_load_s", t.elapsed().as_secs_f64());

    const PROBES: usize = 10_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..PROBES)
        .map(|_| ds.triples[rng.random_range(0..ds.len())].s)
        .collect();
    let t = Instant::now();
    let hits: usize = keys.iter().map(|&s| tree.probe(&[s]).len()).sum();
    report.layer(
        "btree.probe_ns",
        t.elapsed().as_nanos() as f64 / PROBES as f64,
    );
    assert!(hits >= PROBES, "every probed subject is stored");

    let t = Instant::now();
    let scanned = tree.scan(tree.full_range()).count();
    report.layer(
        "btree.scan_ns_per_row",
        t.elapsed().as_nanos() as f64 / scanned as f64,
    );
    assert_eq!(scanned, ds.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        let hash = |seed| hash_sequence(0, &sequence(&mut StdRng::seed_from_u64(seed), 4));
        assert_eq!(hash(1), hash(1));
        assert_ne!(hash(1), hash(2));
        // Every pass holds every class exactly once.
        for pass in sequence(&mut StdRng::seed_from_u64(9), 3) {
            let mut sorted = pass.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..N_CLASSES).collect::<Vec<_>>());
        }
    }
}
