//! Resource-governance torture suite: adversarial queries killed by
//! deadlines, memory limits, and cooperative cancellation at every
//! injection point, on all six engine × layout configurations — always
//! surfacing as a typed `EngineError::Cancelled`, never a panic, never
//! a poisoned lock, with snapshot refcounts provably returning to
//! baseline and concurrent well-behaved queries unaffected.
//!
//! `SWANS_GOV_QUICK=1` thins the data set and iteration counts for CI
//! sanitizer runs.

use std::sync::Arc;
use std::time::Duration;

use swans_core::{CancelReason, Database, EngineError, Error, Layout, QueryBudget, StoreConfig};
use swans_rdf::{Dataset, SortOrder};

fn quick() -> bool {
    std::env::var_os("SWANS_GOV_QUICK").is_some()
}

/// Hot-key scale: the adversarial self-join below produces `n_hot²`
/// rows.
fn n_hot() -> usize {
    if quick() {
        150
    } else {
        700
    }
}

/// A data set with one pathologically hot key: every subject carries
/// `<p> <hot>`, so joining on the object is a full cross product —
/// exactly the query shape resource governance exists to contain —
/// plus a small well-behaved property for control queries.
fn skew_dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new();
    for i in 0..n {
        ds.add(&format!("<s{i}>"), "<p>", "<hot>");
        ds.add(&format!("<s{i}>"), "<q>", &format!("<v{}>", i % 7));
    }
    ds
}

/// The adversarial cross product, at three output widths.
const BLOW_UPS: &[&str] = &[
    "SELECT ?a WHERE { ?a <p> ?v . ?b <p> ?v }",
    "SELECT ?a ?b WHERE { ?a <p> ?v . ?b <p> ?v }",
    "SELECT ?a ?b ?v WHERE { ?a <p> ?v . ?b <p> ?v }",
];

/// A cheap, well-behaved control query.
const CONTROL: &str = "SELECT ?s ?v WHERE { ?s <q> ?v }";

/// Unwraps the `Cancelled` out of a query result, panicking (with
/// context) on anything else.
fn expect_cancelled(
    label: &str,
    result: Result<swans_core::ResultSet, Error>,
) -> (CancelReason, swans_core::PartialStats) {
    match result {
        Err(Error::Engine(EngineError::Cancelled { reason, partial })) => (reason, partial),
        Ok(r) => panic!(
            "{label}: expected Cancelled, query completed with {} rows",
            r.len()
        ),
        Err(e) => panic!("{label}: expected Cancelled, got {e}"),
    }
}

/// Every kill site × every config × every width: an already-expired
/// deadline, a just-started deadline (expires at the first cooperative
/// check), a pre-latched cancellation token, and a memory limit the
/// cross product must overflow mid-build. After every kill the same
/// session keeps answering the control query bit-identically — clean
/// cancellation, no poisoned state.
#[test]
fn budget_kills_are_typed_and_clean_on_all_six_configs() {
    let ds = skew_dataset(n_hot());
    for config in StoreConfig::paper_matrix() {
        let label = config.label();
        let db = Database::open(ds.clone(), config).expect("opens");
        let session = db.session().expect("forks");
        let reference = session.query(CONTROL).expect("control query").into_ids();

        for (w, blow_up) in BLOW_UPS.iter().enumerate() {
            // Deadline already expired at submission.
            let budget = QueryBudget::unlimited()
                .with_deadline(std::time::Instant::now() - Duration::from_millis(1));
            let (reason, partial) =
                expect_cancelled(&label, session.query_budgeted(blow_up, &budget));
            assert_eq!(reason, CancelReason::Timeout, "{label} width {w}");
            assert_eq!(budget.cancel_reason(), Some(CancelReason::Timeout));
            let _ = partial.elapsed_ms; // partial stats always present

            // Deadline expiring between submission and the first
            // cooperative check.
            let budget = QueryBudget::unlimited().with_timeout(Duration::from_nanos(1));
            let (reason, _) = expect_cancelled(&label, session.query_budgeted(blow_up, &budget));
            assert_eq!(reason, CancelReason::Timeout, "{label} width {w}");

            // Cancellation token latched before the query starts (the
            // shutdown path).
            let budget = QueryBudget::unlimited();
            budget.cancel();
            let (reason, _) = expect_cancelled(&label, session.query_budgeted(blow_up, &budget));
            assert_eq!(reason, CancelReason::Shutdown, "{label} width {w}");

            // Memory limit the cross product must blow through while
            // materializing — the kill lands mid-build, not after.
            let budget = QueryBudget::unlimited().with_mem_limit(64 << 10);
            let (reason, partial) =
                expect_cancelled(&label, session.query_budgeted(blow_up, &budget));
            assert_eq!(reason, CancelReason::MemoryLimit, "{label} width {w}");
            assert!(
                partial.peak_mem_bytes >= 64 << 10,
                "{label} width {w}: peak {} must have reached the limit",
                partial.peak_mem_bytes
            );

            // Clean cancellation: the very same session answers the
            // control query bit-identically after every kill.
            assert_eq!(
                session
                    .query(CONTROL)
                    .expect("control after kills")
                    .into_ids(),
                reference,
                "{label} width {w}: session poisoned by a cancelled query"
            );
        }

        // A generous budget lets the adversarial query complete, and its
        // peak-memory accounting is visible to the caller.
        let budget = QueryBudget::unlimited().with_mem_limit(1 << 30);
        let rows = session
            .query_budgeted(BLOW_UPS[1], &budget)
            .unwrap_or_else(|e| panic!("{label}: generous budget must suffice: {e}"));
        assert_eq!(rows.len(), n_hot() * n_hot(), "{label}");
        assert!(
            budget.peak_mem_bytes() > 0,
            "{label}: peak accounting missing"
        );
    }
}

/// Mid-execution cancellation from another thread, at a sweep of
/// delays: the query either completes or dies with the typed Shutdown
/// reason — never a panic — and the session stays usable either way.
#[test]
fn mid_execution_cancel_from_another_thread_is_clean() {
    let ds = skew_dataset(n_hot());
    let delays_us: &[u64] = if quick() {
        &[0, 200, 1000]
    } else {
        &[0, 50, 200, 500, 1000, 5000]
    };
    for config in [
        StoreConfig::column(Layout::VerticallyPartitioned),
        StoreConfig::row(Layout::TripleStore(SortOrder::Pso)),
    ] {
        let label = config.label();
        let db = Database::open(ds.clone(), config).expect("opens");
        let session = db.session().expect("forks");
        let reference = session.query(CONTROL).expect("control").into_ids();
        let mut cancelled = 0usize;
        for &delay in delays_us {
            let budget = QueryBudget::unlimited();
            let canceller = {
                let budget = budget.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(delay));
                    budget.cancel();
                })
            };
            match session.query_budgeted(BLOW_UPS[1], &budget) {
                Ok(rows) => assert_eq!(rows.len(), n_hot() * n_hot(), "{label}"),
                Err(Error::Engine(EngineError::Cancelled { reason, .. })) => {
                    assert_eq!(reason, CancelReason::Shutdown, "{label}");
                    cancelled += 1;
                }
                Err(e) => panic!("{label}: cancellation must be typed, got {e}"),
            }
            canceller.join().expect("canceller thread");
            assert_eq!(
                session.query(CONTROL).expect("control").into_ids(),
                reference,
                "{label}: session unusable after a delayed cancel"
            );
        }
        // The sweep brackets the query's runtime: at least the
        // immediate cancel must land.
        assert!(cancelled > 0, "{label}: no delay produced a cancellation");
    }
}

/// Well-behaved queries on their own sessions are unaffected while an
/// adversary's queries are being killed next door: every round answers
/// bit-identically to an undisturbed twin, and the writer keeps
/// committing throughout.
#[test]
fn concurrent_well_behaved_queries_are_unaffected_by_kills() {
    let rounds = if quick() { 4 } else { 10 };
    for config in [
        StoreConfig::column(Layout::VerticallyPartitioned),
        StoreConfig::row(Layout::VerticallyPartitioned),
    ] {
        let label = config.label();
        let db = Database::open(skew_dataset(n_hot()), config).expect("opens");
        std::thread::scope(|scope| {
            let db = &db;
            let label = &label;
            // The adversary: a stream of queries dying on memory limits
            // and deadlines.
            scope.spawn(move || {
                let session = db.session().expect("forks");
                for i in 0..rounds * 2 {
                    let budget = if i % 2 == 0 {
                        QueryBudget::unlimited().with_mem_limit(32 << 10)
                    } else {
                        QueryBudget::unlimited().with_timeout(Duration::from_nanos(1))
                    };
                    let result = session.query_budgeted(BLOW_UPS[2], &budget);
                    assert!(
                        matches!(result, Err(Error::Engine(EngineError::Cancelled { .. }))),
                        "{label}: adversary query must die typed"
                    );
                }
            });
            // The bystander: unbudgeted queries on a private session,
            // compared round by round against an undisturbed twin.
            scope.spawn(move || {
                let session = db.session().expect("forks");
                let twin = db.session().expect("forks");
                let expected = twin.query(CONTROL).expect("twin").into_ids();
                for round in 0..rounds {
                    assert_eq!(
                        session.query(CONTROL).expect("bystander").into_ids(),
                        expected,
                        "{label} round {round}: bystander disturbed by kills"
                    );
                }
            });
            // The writer keeps publishing under both.
            for i in 0..rounds {
                db.insert([(
                    format!("<w{i}>").as_str(),
                    "<q>",
                    format!("<v{}>", i % 7).as_str(),
                )])
                .expect("churn insert");
            }
        });
    }
}

/// Cancelled queries must not leak snapshots: a session whose query was
/// killed releases its pinned version on drop, and `Arc` strong counts
/// return exactly to baseline.
#[test]
fn cancelled_queries_leak_no_snapshots() {
    let db = Database::open(
        skew_dataset(n_hot()),
        StoreConfig::column(Layout::VerticallyPartitioned),
    )
    .expect("opens");
    let current = db.snapshot();
    let baseline = Arc::strong_count(&current);
    let weak = Arc::downgrade(&current);
    {
        let session = db.session().expect("forks");
        assert_eq!(Arc::strong_count(&current), baseline + 1);
        for blow_up in BLOW_UPS {
            let budget = QueryBudget::unlimited().with_mem_limit(16 << 10);
            expect_cancelled("leak probe", session.query_budgeted(blow_up, &budget));
        }
        drop(session);
    }
    assert_eq!(
        Arc::strong_count(&current),
        baseline,
        "cancelled queries must not retain snapshot refs"
    );
    // And with every strong handle gone, the version deallocates: a
    // kill must not stash the snapshot anywhere hidden.
    db.insert([("<fresh>", "<q>", "<v0>")]).expect("publishes");
    drop(current);
    assert!(
        weak.upgrade().is_none(),
        "dropped version still alive — snapshot leak"
    );
}

/// `Database`-level budgeted entry points (no session) behave
/// identically, including on the writer-lock fallback path.
#[test]
fn database_level_budgets_work_without_sessions() {
    let db = Database::open(
        skew_dataset(if quick() { 100 } else { 300 }),
        StoreConfig::row(Layout::VerticallyPartitioned),
    )
    .expect("opens");
    let budget = QueryBudget::unlimited().with_mem_limit(16 << 10);
    let (reason, _) = expect_cancelled("db-level", db.query_budgeted(BLOW_UPS[1], &budget));
    assert_eq!(reason, CancelReason::MemoryLimit);
    // Unbudgeted queries still work right after.
    assert!(!db.query(CONTROL).expect("control").is_empty());
}

fn served_db() -> Arc<Database> {
    Arc::new(
        Database::open(
            skew_dataset(60),
            StoreConfig::column(Layout::VerticallyPartitioned),
        )
        .expect("opens"),
    )
}

/// Overload shedding at the front door: with one worker parked on a
/// slow client and the admission queue full, further requests are shed
/// immediately with `503` + `Retry-After` — and service resumes once
/// the pressure clears.
#[test]
fn overloaded_server_sheds_with_503_and_retry_after() {
    use std::net::TcpStream;

    let server = swans_serve::serve_with(
        served_db(),
        "127.0.0.1:0",
        swans_serve::ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..swans_serve::ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();

    // Two connections that never send a request: one parks the only
    // worker in its read (the default 30s read timeout holds it there
    // for the whole test), the other fills the queue.
    let parked: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // Now probes must be shed with the backoff header. Probing retries
    // on a generous deadline: on a loaded runner the accept thread may
    // not have queued both parked connections yet, in which case an
    // early probe is admitted (and itself fills the queue for the next
    // round) or times out — either way a later probe observes the shed.
    let mut sheds = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while sheds == 0 && std::time::Instant::now() < deadline {
        match swans_serve::http_request_full(addr, "GET", "/stats", "", Duration::from_secs(2)) {
            Ok((503, headers, body)) => {
                sheds += 1;
                assert!(
                    headers.iter().any(|(n, _)| n == "retry-after"),
                    "503 shed response must carry Retry-After, got {headers:?}"
                );
                assert!(body.contains("overloaded"), "unexpected shed body: {body}");
            }
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(sheds > 0, "full queue must shed requests");
    assert!(
        server.shed_requests() >= sheds,
        "shed counter must record the refusals"
    );

    // Pressure clears: the parked clients hang up, the worker frees up,
    // and the very same server answers again — with the shed episode on
    // the books in /stats.
    drop(parked);
    std::thread::sleep(Duration::from_millis(50));
    let q = swans_serve::percent_encode(CONTROL);
    let (status, body) =
        swans_serve::http_request(addr, "GET", &format!("/query?q={q}"), "").expect("recovers");
    assert_eq!(status, 200, "server must recover after shedding: {body}");
    let (status, stats) = swans_serve::http_request(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"governance\"") && stats.contains("\"shed_requests\""),
        "stats must expose governance counters: {stats}"
    );
    server.shutdown();
}

/// Per-request deadlines inherited from admission: a request whose
/// deadline has passed is cancelled cooperatively inside the engine and
/// answered `503` + `Retry-After`, and `/stats` counts it.
#[test]
fn expired_request_deadline_cancels_over_http() {
    let server = swans_serve::serve_with(
        served_db(),
        "127.0.0.1:0",
        swans_serve::ServeConfig {
            request_timeout: Duration::from_nanos(1),
            ..swans_serve::ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();
    let q = swans_serve::percent_encode(BLOW_UPS[1]);
    let (status, headers, body) = swans_serve::http_request_full(
        addr,
        "GET",
        &format!("/query?q={q}"),
        "",
        Duration::from_secs(10),
    )
    .expect("responds");
    assert_eq!(status, 503, "expired deadline must cancel: {body}");
    assert!(headers.iter().any(|(n, _)| n == "retry-after"));
    assert!(
        body.contains("deadline"),
        "cancellation body names the reason: {body}"
    );
    assert_eq!(server.cancelled_queries(), 1);
    let (_, stats) = swans_serve::http_request(addr, "GET", "/stats", "").expect("stats");
    assert!(
        stats.contains("\"cancelled_queries\":1"),
        "stats must count the cancellation: {stats}"
    );
    server.shutdown();
}

/// A per-query memory limit configured at the server caps what any one
/// HTTP query may materialize.
#[test]
fn server_memory_limit_caps_http_queries() {
    let server = swans_serve::serve_with(
        served_db(),
        "127.0.0.1:0",
        swans_serve::ServeConfig {
            query_mem_limit: Some(8 << 10),
            ..swans_serve::ServeConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();
    let q = swans_serve::percent_encode(BLOW_UPS[1]);
    let (status, body) =
        swans_serve::http_request(addr, "GET", &format!("/query?q={q}"), "").expect("responds");
    assert_eq!(status, 503, "memory blow-up must be capped: {body}");
    assert!(body.contains("memory"), "body names the reason: {body}");
    // A query fitting the budget still answers.
    let q = swans_serve::percent_encode(CONTROL);
    let (status, _) =
        swans_serve::http_request(addr, "GET", &format!("/query?q={q}"), "").expect("responds");
    assert_eq!(status, 200);
    server.shutdown();
}

/// Hostile HTTP at the socket: oversized request lines and declared
/// bodies come back `413`, malformed requests `400` — the server never
/// buffers unbounded input and keeps serving afterwards.
#[test]
fn hostile_http_input_gets_typed_rejections() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = swans_serve::serve(served_db(), "127.0.0.1:0").expect("binds");
    let addr = server.addr();
    let raw_status = |bytes: &[u8]| -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(bytes).expect("writes");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("status line");
        line.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed response: {line:?}"))
    };
    // Oversized: a request line that never ends, and a body declared
    // far over the cap (the server answers before reading it).
    assert_eq!(raw_status(&vec![b'a'; 10 << 10]), 413);
    assert_eq!(
        raw_status(b"POST /update HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
        413
    );
    // Malformed: no target, bad content-length, binary garbage.
    assert_eq!(raw_status(b"GET\r\n\r\n"), 400);
    assert_eq!(
        raw_status(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
        400
    );
    assert_eq!(raw_status(b"\xff\xfe\xfd\r\n\r\n"), 400);
    // And the server is unharmed.
    let q = swans_serve::percent_encode(CONTROL);
    let (status, _) =
        swans_serve::http_request(addr, "GET", &format!("/query?q={q}"), "").expect("responds");
    assert_eq!(status, 200);
    server.shutdown();
}

/// The engine's own governance counters: cancelled queries and the
/// peak-memory high-water mark are visible per session.
#[test]
fn governance_counters_surface_in_session_stats() {
    let db = Database::open(
        skew_dataset(n_hot()),
        StoreConfig::column(Layout::VerticallyPartitioned),
    )
    .expect("opens");
    let session = db.session().expect("forks");
    let counter = |name: &str, counters: &[(&'static str, u64)]| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let before = session.stat_counters();
    assert_eq!(counter("cancelled_queries", &before), 0);
    let budget = QueryBudget::unlimited().with_mem_limit(32 << 10);
    expect_cancelled(
        "counter probe",
        session.query_budgeted(BLOW_UPS[1], &budget),
    );
    let after = session.stat_counters();
    assert_eq!(counter("cancelled_queries", &after), 1);
    assert!(
        counter("peak_mem_bytes", &after) >= 32 << 10,
        "peak high-water mark must record the overflowing build"
    );
}
