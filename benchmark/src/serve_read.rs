//! `serve_read`: Zipf-distributed SPARQL requests of four classes over
//! real loopback HTTP against `swans_serve`, closed loop; the traced run
//! adds a layer-by-layer replica of each request and an open-loop phase.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use swans_core::{profile_for, Database, Layout, StoreConfig};
use swans_datagen::rng::StdRng;
use swans_datagen::{generate, BartonConfig};
use swans_plan::{compile_sparql, optimize_cbo, sparql, verify};
use swans_rdf::Dataset;
use swans_serve::{http_request, percent_encode, serve_with, ServeConfig, Server};
use swans_storage::MachineProfile;

use crate::json::{self, Value};
use crate::reference::Answer;
use crate::report::{nproc, peak_rss_mb, Check, Config, Report};
use crate::requests::{hash_requests, Request, RequestMix, CLASSES};
use crate::stats::{
    block_ranges, median, quiet_high, quiet_low, supported_percentile, ClassSamples,
};
use crate::trace::Tracer;
use crate::{DATA_SEED, N_PROPERTIES};

/// Fraction of the full Barton data set (≈ 1.0 M triples).
const SCALE: f64 = 0.02;
/// The measured phases run in this many rounds (a part of phase A, a part
/// of phase B, a part of the cold passes), each a block of samples.
const BLOCKS: usize = 5;
/// Each round's part of phase B is cut into this many blocks, the unit
/// its throughput is computed over.
const THROUGHPUT_BLOCKS: usize = 4;
/// Phase A: one closed-loop client (latency).
const PHASE_A: usize = 4_000;
/// Phase B: `nproc` closed-loop clients draining one shared list
/// (throughput).
const PHASE_B: usize = 6_000;
/// Cold passes of one request per class.
const COLD_PASSES: usize = 100;
/// Phase C (traced run only): open loop at a fixed rate.
const PHASE_C: usize = 1_000;
const PHASE_C_RATE: f64 = 100.0;
/// Threads the open-loop generator sends from. They sleep until a
/// request is due and block on its reply, so at this rate at most one or
/// two are ever runnable.
const PHASE_C_SENDERS: usize = 4;

struct Served {
    ds: Arc<Dataset>,
    db: Arc<Database>,
    server: Server,
}

struct SetupTime {
    total: f64,
    generate: f64,
    open: f64,
}

fn set_up() -> (Served, SetupTime) {
    let started = Instant::now();
    let ds = Arc::new(generate(&BartonConfig {
        scale: SCALE,
        seed: DATA_SEED,
        n_properties: N_PROPERTIES,
    }));
    let generate_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let config = StoreConfig::column(Layout::VerticallyPartitioned)
        .on_machine(profile_for(&ds, MachineProfile::B));
    let db = Arc::new(Database::open(ds.clone(), config).expect("opens"));
    let open = t.elapsed().as_secs_f64();
    // As many workers as cores: the default (4 × cores, at least 8) is
    // sized for simulated I/O waits and oversubscribes a CPU-bound box.
    let serve_config = ServeConfig {
        workers: nproc(),
        ..ServeConfig::default()
    };
    let server =
        serve_with(db.clone(), "127.0.0.1:0", serve_config).expect("binds a loopback port");
    let time = SetupTime {
        total: started.elapsed().as_secs_f64(),
        generate: generate_s,
        open,
    };
    (Served { ds, db, server }, time)
}

/// The decoded answer in a `/query` response body.
fn answer_of_body(body: &str) -> Option<Answer> {
    let doc = json::parse(body).ok()?;
    let rows: Vec<Vec<&str>> = doc
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|row| {
            row.as_arr()
                .map(|r| r.iter().filter_map(Value::as_str).collect())
        })
        .collect::<Option<_>>()?;
    let answer = Answer::of_terms(&rows);
    (doc.get("row_count")?.as_f64()? == answer.rows as f64).then_some(answer)
}

/// Sends one request; returns its round-trip milliseconds and body length
/// if it was answered `200` with the expected rows.
fn http_op(addr: SocketAddr, r: &Request, check: &mut Check) -> Option<(f64, usize)> {
    let target = format!("/query?q={}", percent_encode(&r.sparql));
    let t = Instant::now();
    let reply = http_request(addr, "GET", &target, "");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = matches!(&reply, Ok((200, body)) if answer_of_body(body) == Some(r.expect));
    check.expect(ok, || match &reply {
        Ok((status, body)) => format!(
            "{}: HTTP {status}: {}",
            r.sparql,
            &body[..body.len().min(120)]
        ),
        Err(e) => format!("{}: {e}", r.sparql),
    });
    ok.then(|| (ms, reply.map_or(0, |(_, body)| body.len())))
}

/// One closed-loop client over `requests`, recorded as block `block`;
/// returns the response bytes received.
fn phase_a(
    addr: SocketAddr,
    requests: &[Request],
    block: usize,
    samples: &mut ClassSamples,
    check: &mut Check,
) -> usize {
    let mut bytes = 0;
    for r in requests {
        if let Some((ms, len)) = http_op(addr, r, check) {
            samples.push(r.class, block, ms);
            bytes += len;
        }
    }
    bytes
}

/// `threads` threads draining `requests` through one shared index: each
/// takes the next unsent request, runs `send` on it and keeps what it
/// returns. Returns everything kept, in no particular order.
fn drain<T: Send>(
    threads: usize,
    requests: &[Request],
    check: &mut Check,
    send: impl Fn(usize, &Request, &mut Check) -> Option<T> + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Vec<T>, Check)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut kept = Vec::new();
                    let mut check = Check::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = requests.get(i) else { break };
                        kept.extend(send(i, r, &mut check));
                    }
                    (kept, check)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Vec::new();
    for (kept, c) in per_thread {
        all.extend(kept);
        check.absorb(c);
    }
    all
}

/// `clients` closed-loop clients draining one shared list; returns the
/// 200-OK per second of each of [`THROUGHPUT_BLOCKS`] consecutive blocks
/// of completions.
fn phase_b(addr: SocketAddr, clients: usize, requests: &[Request], check: &mut Check) -> Vec<f64> {
    let started = Instant::now();
    let mut done = drain(clients, requests, check, |_, r, check| {
        http_op(addr, r, check).map(|_| started.elapsed().as_secs_f64())
    });
    done.sort_by(f64::total_cmp);
    block_ranges(done.len(), THROUGHPUT_BLOCKS)
        .into_iter()
        .map(|r| {
            let from = if r.start == 0 { 0.0 } else { done[r.start - 1] };
            r.len() as f64 / (done[r.end - 1] - from)
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::new("serve_read");

    let mut times = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..cfg.reps(7) {
        if let Some(old) = served.take() {
            old.server.shutdown();
        }
        let (s, t) = set_up();
        served = Some(s);
        times.push(t);
    }
    let Served { ds, db, server } = served.expect("at least one set-up");
    let addr = server.addr();

    // The seeded request lists and their expected answers (untimed).
    let mut mix = RequestMix::new(&ds);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_a = cfg.count(PHASE_A, BLOCKS * 20);
    let n_b = cfg.count(PHASE_B, BLOCKS * 20);
    let warm = mix.generate(&mut rng, n_a / 10);
    let list_a = mix.generate(&mut rng, n_a);
    let list_b = mix.generate(&mut rng, n_b);
    // Cold: pass p uses the p-th request of each class in this list.
    let cold_passes = cfg.count(COLD_PASSES, 1);
    let cold_list = mix.generate(&mut rng, 100 * cold_passes.max(5));
    let list_c = if cfg.trace {
        mix.generate(&mut rng, cfg.count_traced_only(PHASE_C, 20))
    } else {
        Vec::new()
    };
    report.op_sequence_hash = [&list_a, &list_b, &cold_list, &list_c]
        .iter()
        .fold(0, |h, l| hash_requests(h, l));

    let mut check = Check::default();
    let mut discard = Check::default();

    // One discarded part of each phase, then the measured phases in
    // rounds, so that the samples behind every metric span the whole run:
    // a noisy spell on the host then slows a part of each metric's
    // samples, which the quiet estimate ignores, and not all of one's.
    phase_a(addr, &warm, 0, &mut ClassSamples::default(), &mut discard);
    phase_b(addr, nproc(), &warm, &mut discard);
    let (mut lat, mut cold) = (ClassSamples::default(), ClassSamples::default());
    let mut throughput = Vec::new();
    let mut body_bytes = 0;
    let (mut cold_bytes, mut cold_seeks, mut cold_io_s) = (0u64, 0u64, 0.0);
    let parts = |n: usize| {
        block_ranges(n, BLOCKS)
            .into_iter()
            .chain(std::iter::repeat(0..0))
    };
    let rounds = parts(n_a)
        .zip(parts(n_b))
        .zip(parts(cold_passes))
        .take(BLOCKS);
    for (round, ((part_a, part_b), cold_part)) in rounds.enumerate() {
        // Phase A: latency, one client.
        body_bytes += phase_a(addr, &list_a[part_a], round, &mut lat, &mut check);
        // Phase B: throughput, nproc clients.
        throughput.extend(phase_b(addr, nproc(), &list_b[part_b], &mut check));
        // Cold: in process, the pool emptied before every request; cost is
        // wall time plus the machine model's I/O time.
        for pass in cold_part {
            for class in 0..CLASSES.len() {
                let r = cold_list
                    .iter()
                    .filter(|r| r.class == class)
                    .nth(pass)
                    .expect("the cold list holds enough of every class");
                db.make_cold();
                let t = Instant::now();
                let timed = db.query_timed(&r.sparql);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let got = timed
                    .as_ref()
                    .ok()
                    .map(|(rs, _)| Answer::of_terms(&rs.decoded()));
                check.expect(got == Some(r.expect), || {
                    format!("cold {}: {got:?}", r.sparql)
                });
                if let Ok((_, run)) = timed {
                    cold.push(class, round, ms + run.io.io_seconds * 1e3);
                    if pass == 0 {
                        cold_bytes += run.io.bytes_read;
                        cold_seeks += run.io.seeks;
                        cold_io_s += run.io.io_seconds;
                    }
                }
            }
        }
    }
    let latency_samples = lat.samples.len();
    let lat = lat.reduce(CLASSES.len());
    let cold = cold.reduce(CLASSES.len());

    let setup_total: Vec<f64> = times.iter().map(|t| t.total).collect();
    report.e2e_with_blocks("setup_s", quiet_low(&setup_total), &setup_total);
    report.e2e("op_geomean_ms", lat.geomean);
    report.e2e_with_blocks("op_pass_ms", lat.pass, &lat.block_pass_median);
    report.e2e("worst_op_ms", lat.worst);
    report.e2e_with_blocks("cold_pass_ms", cold.pass, &cold.block_pass_median);
    report.e2e_with_blocks("throughput_ops_s", quiet_high(&throughput), &throughput);
    report.e2e(
        "disk_bytes_per_triple",
        db.disk_bytes() as f64 / ds.len() as f64,
    );

    report.note("triples", ds.len());
    report.note(
        "classes",
        CLASSES.join("/") + " drawn 70/15/10/5, Zipf(1.0) subjects",
    );
    report.note(
        "clients",
        format!("phase A 1, phase B {}, closed loop", nproc()),
    );
    report.note("server_workers", nproc());
    report.note("latency_samples_min_per_class", lat.min_samples);
    report.note(
        "cold_io",
        "machine B model, seeks scaled to the data set; not a device",
    );

    if cfg.trace {
        report.layer(
            "datagen.generate_s",
            median(&times.iter().map(|t| t.generate).collect::<Vec<_>>()),
        );
        report.layer("rdf.dict_terms", ds.dict.len() as f64);
        report.layer(
            "colstore.open_s.vert",
            median(&times.iter().map(|t| t.open).collect::<Vec<_>>()),
        );
        report.layer("storage.cold_bytes_read", cold_bytes as f64);
        report.layer("storage.cold_seeks", cold_seeks as f64);
        report.layer("storage.cold_io_model_s", cold_io_s);
        report.layer(
            "serve.response_bytes_per_req",
            body_bytes as f64 / latency_samples.max(1) as f64,
        );
        let mut tracer = Tracer::new();
        traced_replay(&mut report, &mut tracer, &ds, &db, addr, &list_a, lat.pass);
        open_loop(&mut report, addr, &list_c);
        let path = cfg.out_dir.join("trace-serve_read.json");
        std::fs::write(&path, tracer.to_json("serve_read").to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }

    // Anything the server shed or cancelled was an operation lost.
    let lost = server.shed_requests() + server.cancelled_queries();
    check.expect(lost == 0, || {
        format!("server shed or cancelled {lost} requests")
    });
    if cfg.trace {
        report.layer("serve.shed_requests", server.shed_requests() as f64);
        report.layer("serve.cancelled_queries", server.cancelled_queries() as f64);
    }
    server.shutdown();
    report.check.absorb(check);
    report.e2e("peak_rss_mb", peak_rss_mb());
    report
}

/// The traced replay of phase A: each operation is the real HTTP round
/// trip plus, as `replica.*` children, the same query driven in process —
/// once through `Database::query`, once layer by layer.
fn traced_replay(
    report: &mut Report,
    tracer: &mut Tracer,
    ds: &Dataset,
    db: &Database,
    addr: SocketAddr,
    requests: &[Request],
    untraced_pass_ms: f64,
) {
    let scheme = db.config().layout.scheme();
    let pctx = db.explain_context();
    let mut check = Check::default();
    let (mut decode_ns, mut decoded_terms) = (0u64, 0usize);
    for (i, r) in requests.iter().enumerate() {
        let root = tracer.root("op", i as u32);
        tracer.child(root, "serve.http_roundtrip", || {
            http_op(addr, r, &mut check)
        });
        let whole = tracer.child(root, "replica.core.query", || {
            db.query(&r.sparql)
                .map(|rs| Answer::of_terms(&rs.decoded()))
        });
        check.expect(whole.as_ref().ok() == Some(&r.expect), || {
            format!("in-process {}: {whole:?}", r.sparql)
        });

        let parsed = tracer.child(root, "replica.plan.parse", || sparql::parse(&r.sparql));
        let compiled = tracer.child(root, "replica.plan.compile", || {
            compile_sparql(&r.sparql, ds, scheme)
        });
        let (Ok(_), Ok(compiled)) = (parsed, compiled) else {
            check.expect(false, || format!("{} does not compile", r.sparql));
            tracer.close(root);
            continue;
        };
        let optimized = tracer.child(root, "replica.plan.optimize_cbo", || {
            optimize_cbo(compiled.plan.clone(), &pctx)
        });
        tracer.child(root, "replica.plan.verify", || {
            verify(&optimized, &pctx).is_ok()
        });
        let session = tracer.child(root, "replica.core.session_pin", || {
            db.session().expect("column engine forks")
        });
        let results = tracer.child(root, "replica.engine.execute", || {
            session.execute_plan(&compiled.plan)
        });
        if let Ok(results) = results {
            let before = tracer.spans().len();
            let rows = tracer.child(root, "replica.rdf.decode", || results.decoded());
            decode_ns += tracer.spans()[before].ns();
            decoded_terms += rows.iter().map(Vec::len).sum::<usize>();
            check.expect(Answer::of_terms(&rows) == r.expect, || {
                format!("layer-by-layer {}", r.sparql)
            });
        }
        tracer.close(root);
    }
    report.check.absorb(check);

    // Per class: the real round trip, and the in-process whole query.
    let mut http = vec![Vec::new(); CLASSES.len()];
    let mut inproc = vec![Vec::new(); CLASSES.len()];
    for s in tracer.spans() {
        let class = requests[s.op as usize].class;
        match s.name {
            "serve.http_roundtrip" => http[class].push(s.ns() as f64 / 1e3),
            "replica.core.query" => inproc[class].push(s.ns() as f64 / 1e3),
            _ => {}
        }
    }
    let inproc_names = [
        "core.query_inproc_us.point",
        "core.query_inproc_us.bound",
        "core.query_inproc_us.star",
        "core.query_inproc_us.catalog",
    ];
    let overhead_names = [
        "serve.http_overhead_us.point",
        "serve.http_overhead_us.bound",
        "serve.http_overhead_us.star",
        "serve.http_overhead_us.catalog",
    ];
    for class in 0..CLASSES.len() {
        let (h, q) = (quiet_low(&http[class]), quiet_low(&inproc[class]));
        report.layer(inproc_names[class], q);
        report.layer(overhead_names[class], h - q);
    }
    let traced_pass_ms: f64 = http.iter().map(|c| quiet_low(c) / 1e3).sum();
    report.layer(
        "harness.trace_overhead_pct",
        (traced_pass_ms / untraced_pass_ms - 1.0) * 100.0,
    );
    report.layer(
        "plan.parse_us",
        tracer.median_of("replica.plan.parse", 1e-3),
    );
    report.layer(
        "plan.compile_us",
        tracer.median_of("replica.plan.compile", 1e-3),
    );
    report.layer(
        "plan.optimize_us",
        tracer.median_of("replica.plan.optimize_cbo", 1e-3),
    );
    report.layer(
        "plan.verify_us",
        tracer.median_of("replica.plan.verify", 1e-3),
    );
    report.layer(
        "core.session_pin_us",
        tracer.median_of("replica.core.session_pin", 1e-3),
    );
    report.layer(
        "rdf.decode_ns_per_term",
        decode_ns as f64 / decoded_terms.max(1) as f64,
    );
    report.note(
        "trace_child_coverage",
        format!("{:.3}", tracer.child_coverage("op")),
    );

    // No write store here: a reader session never takes the union path.
    let session = db.session().expect("column engine forks");
    for r in requests.iter().take(20) {
        let _ = session.query(&r.sparql);
    }
    let unions = crate::session_counter(&session, "delta_union_scans");
    report.layer("colstore.delta_union_scans", unions as f64);
}

/// Phase C: open loop at [`PHASE_C_RATE`], each request timed from the
/// moment it was due, not from when a sender got to it.
fn open_loop(report: &mut Report, addr: SocketAddr, requests: &[Request]) {
    let interval = Duration::from_secs_f64(1.0 / PHASE_C_RATE);
    let started = Instant::now();
    let samples = drain(
        PHASE_C_SENDERS,
        requests,
        &mut report.check,
        |i, r, check| {
            let due = started + interval * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let late_ms = due.elapsed().as_secs_f64() * 1e3;
            http_op(addr, r, check).map(|_| (due.elapsed().as_secs_f64() * 1e3, late_ms))
        },
    );
    let (mut latency, mut late): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
    latency.sort_by(f64::total_cmp);
    late.sort_by(f64::total_cmp);
    let (pct, p99) = supported_percentile(&latency, 99.0);
    report.layer("serve.open_p50_ms", median(&latency));
    report.layer("serve.open_p99_ms", p99);
    report.layer(
        "serve.open_late_p99_ms",
        supported_percentile(&late, 99.0).1,
    );
    report.note(
        "open_loop",
        format!("{} requests at {PHASE_C_RATE} req/s; tail is p{pct} (highest with 10 samples beyond it)", latency.len()),
    );
}
