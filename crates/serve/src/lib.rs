#![warn(missing_docs)]

//! # swans-serve
//!
//! A SPARQL-over-HTTP front door for [`swans_core::Database`] — built on
//! nothing but `std`: a `TcpListener`, a **bounded worker pool** fed by a
//! **bounded admission queue**, and a hand-rolled slice of HTTP/1.1
//! (exactly what the four routes below need, no more).
//!
//! The point of the crate is not the HTTP — it is what serving demands
//! of the engine: **every request runs on its own pinned snapshot**
//! ([`Database::session`]), so a burst of concurrent clients reads a
//! consistent version each, never blocks the writer, and never torn-reads
//! a half-applied batch. `POST /update` goes through the same writer path
//! as the embedded API (WAL-acknowledged before visible).
//!
//! ## Resource governance
//!
//! The server refuses to melt down under overload instead of queueing
//! unboundedly:
//!
//! * **Admission control** — accepted connections enter a bounded queue
//!   ([`ServeConfig::queue_depth`]); when it is full the request is
//!   **shed** immediately with `503 Service Unavailable` and a
//!   `Retry-After` header, costing the server microseconds instead of a
//!   thread.
//! * **Deadlines** — every admitted request inherits a deadline from its
//!   admission time ([`ServeConfig::request_timeout`]); queries carry it
//!   into the engine as a [`QueryBudget`] and are cooperatively
//!   cancelled mid-execution when it expires, answering `503` with
//!   `Retry-After` rather than hogging a worker.
//! * **Memory budgets** — [`ServeConfig::query_mem_limit`] caps what a
//!   single query may materialize (hash tables, join results, ...);
//!   exceeding it cancels the query cleanly.
//! * **Slow clients** — sockets get both read *and* write timeouts, so
//!   a client that stops reading its response cannot pin a worker.
//! * **Parse hardening** — request line, header block, and body sizes
//!   are capped (`413`/`400` with a JSON error, never a panic, never an
//!   unbounded buffer).
//!
//! ```no_run
//! use std::sync::Arc;
//! use swans_core::{Database, Layout, StoreConfig};
//! use swans_rdf::Dataset;
//!
//! let mut ds = Dataset::new();
//! ds.add("<s1>", "<type>", "<Text>");
//! let db = Arc::new(Database::open(ds, StoreConfig::column(Layout::VerticallyPartitioned))?);
//! let server = swans_serve::serve(db, "127.0.0.1:0")?;
//! println!("listening on http://{}", server.addr());
//! // curl "http://<addr>/query?q=SELECT%20?s%20WHERE%20%7B%20?s%20<type>%20<Text>%20%7D"
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Routes
//!
//! | Route | Method | Body / params | Returns |
//! |---|---|---|---|
//! | `/query` | GET/POST | `?q=<sparql>` (percent-encoded) or raw body | `{"version","columns","rows","row_count"}` |
//! | `/explain` | GET/POST | same as `/query` | `{"version","plan"}` (annotated + verified text) |
//! | `/stats` | GET | — | `{"version","triples","pending","requests","governance","counters","io"}` |
//! | `/update` | POST | lines `+ <s> <p> <o>` / `- <s> <p> <o>` | `{"inserted","deleted","version"}` |
//!
//! Errors come back as `400 {"error": "..."}`; oversized requests as
//! `413`; unknown routes as `404`; overload and deadline/memory
//! cancellation as `503` with `Retry-After`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swans_core::{CancelReason, Database, EngineError, Error, QueryBudget, ResultSet};

mod json;

pub use json::escape as json_escape;

/// Tuning knobs for [`serve_with`]: pool sizing, admission control,
/// timeouts, and request-size caps. Start from [`ServeConfig::default`]
/// and override fields.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests (the maximum number of requests
    /// in flight). Request handling is dominated by (simulated) I/O
    /// waits, not CPU, so the default oversubscribes the cores:
    /// `4 × available_parallelism`, at least 8 — concurrent scans keep
    /// overlapping their waits even on a single-core host.
    pub workers: usize,
    /// Accepted connections waiting for a worker beyond this are shed
    /// with `503` + `Retry-After` instead of queueing unboundedly.
    pub queue_depth: usize,
    /// Socket read timeout — how long a worker waits for a slow client
    /// to *send* its request.
    pub read_timeout: Duration,
    /// Socket write timeout — how long a worker waits for a slow client
    /// to *drain* its response.
    pub write_timeout: Duration,
    /// End-to-end deadline per request, measured from **admission**
    /// (accept time), queueing included. Queries carry the remainder
    /// into the engine as a [`QueryBudget`] deadline.
    pub request_timeout: Duration,
    /// Value of the `Retry-After` header on shed / cancelled responses.
    pub retry_after_secs: u64,
    /// Maximum request-line length in bytes (method + target + version).
    pub max_request_line: usize,
    /// Maximum total header block size in bytes.
    pub max_header_bytes: usize,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
    /// Per-query memory budget in bytes (`None` = unmetered): what one
    /// query may materialize in join/group tables and results before it
    /// is cancelled with [`CancelReason::MemoryLimit`].
    pub query_mem_limit: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: (std::thread::available_parallelism().map_or(2, std::num::NonZero::get) * 4)
                .max(8),
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            max_request_line: 8 << 10,
            max_header_bytes: 64 << 10,
            max_body_bytes: 16 << 20,
            query_mem_limit: None,
        }
    }
}

/// A running HTTP server: the bound address plus the handle needed to
/// stop it. Dropping the value **without** calling [`Server::shutdown`]
/// leaves the accept and worker threads running for the life of the
/// process.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    db: Arc<Database>,
    config: ServeConfig,
    stop: AtomicBool,
    /// Total requests answered (any route, any status), shed included.
    requests: AtomicU64,
    /// Requests currently being handled by a worker.
    active: AtomicU64,
    /// Requests refused at admission with `503` (queue full).
    shed_requests: AtomicU64,
    /// Queries cancelled by deadline, memory limit, or shutdown.
    cancelled_queries: AtomicU64,
    /// High-water mark of any single query's accounted memory.
    peak_mem_bytes: AtomicU64,
    /// Admitted connections waiting for a worker, with admission time.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<(TcpStream, Instant)>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `db` with the default [`ServeConfig`] until [`Server::shutdown`].
/// Each read request pins its own snapshot version.
pub fn serve(db: Arc<Database>, addr: &str) -> std::io::Result<Server> {
    serve_with(db, addr, ServeConfig::default())
}

/// [`serve`] with explicit [`ServeConfig`] governance settings.
pub fn serve_with(db: Arc<Database>, addr: &str, config: ServeConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let n_workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        db,
        config,
        stop: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        active: AtomicU64::new(0),
        shed_requests: AtomicU64::new(0),
        cancelled_queries: AtomicU64::new(0),
        peak_mem_bytes: AtomicU64::new(0),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
    });
    let workers = (0..n_workers)
        .map(|_| {
            let worker_shared = shared.clone();
            std::thread::spawn(move || worker_loop(&worker_shared))
        })
        .collect();
    let accept_shared = shared.clone();
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.stop.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let admitted = Instant::now();
            let shed = {
                let mut q = accept_shared.lock_queue();
                if q.len() >= accept_shared.config.queue_depth {
                    Some(stream)
                } else {
                    q.push_back((stream, admitted));
                    accept_shared.queue_cv.notify_one();
                    None
                }
            };
            if let Some(stream) = shed {
                // Load shedding: answer 503 on a throwaway thread so a
                // slow shed client can never stall the accept loop. The
                // write timeout bounds the thread's lifetime.
                accept_shared.shed_requests.fetch_add(1, Ordering::AcqRel);
                accept_shared.requests.fetch_add(1, Ordering::AcqRel);
                let retry = accept_shared.config.retry_after_secs;
                let write_timeout = accept_shared.config.write_timeout;
                std::thread::spawn(move || {
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(write_timeout));
                    let _ = respond_with(
                        &mut stream,
                        "503 Service Unavailable",
                        &format!("Retry-After: {retry}\r\n"),
                        &json::error("server overloaded, retry later"),
                    );
                });
            }
        }
    });
    Ok(Server {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

/// One worker: pops admitted connections until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut q = shared.lock_queue();
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(conn) = q.pop_front() {
                    break conn;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.active.fetch_add(1, Ordering::AcqRel);
        let (stream, admitted) = conn;
        let _ = handle_connection(shared, stream, admitted);
        shared.active.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Server {
    /// The bound address (resolves the ephemeral port of `":0"` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests answered so far (shed requests included).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Acquire)
    }

    /// Requests refused at admission with `503` because the queue was
    /// full.
    pub fn shed_requests(&self) -> u64 {
        self.shared.shed_requests.load(Ordering::Acquire)
    }

    /// Queries cancelled by deadline, memory limit, or shutdown.
    pub fn cancelled_queries(&self) -> u64 {
        self.shared.cancelled_queries.load(Ordering::Acquire)
    }

    /// Stops accepting, wakes the workers, waits for in-flight requests
    /// to drain (bounded at five seconds), and joins every thread.
    /// Connections still queued but never picked up are closed unserved.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.shared.queue_cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One parsed request: the slice of HTTP/1.1 the routes need.
struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    /// Decoded `q=` parameter, if present.
    q: Option<String>,
    body: Vec<u8>,
}

/// A request refused at the parse layer, with the HTTP status it maps
/// to: `400` for malformed input, `413` for anything over the
/// [`ServeConfig`] size caps.
#[derive(Debug)]
enum ParseError {
    /// Malformed request → `400 Bad Request`.
    Bad(String),
    /// Over a size cap → `413 Payload Too Large`.
    TooLarge(String),
    /// Socket-level failure (client went away, timeout): no response
    /// can usefully be sent.
    Io(std::io::Error),
}

impl ParseError {
    fn into_response(self) -> Result<(&'static str, String), std::io::Error> {
        match self {
            ParseError::Bad(msg) => Ok(("400 Bad Request", json::error(&msg))),
            ParseError::TooLarge(msg) => Ok(("413 Payload Too Large", json::error(&msg))),
            ParseError::Io(e) => Err(e),
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn bad_request(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one line of at most `max` bytes. `Ok(None)` means clean EOF
/// before any byte; a line that hits the cap without a newline is a
/// [`ParseError::TooLarge`].
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    max: usize,
    what: &str,
) -> Result<Option<String>, ParseError> {
    let mut line = String::new();
    let n = (&mut *reader)
        .take(max as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                ParseError::Bad(format!("{what} is not UTF-8"))
            } else {
                ParseError::Io(e)
            }
        })?;
    if n == 0 {
        return Ok(None);
    }
    if n > max && !line.ends_with('\n') {
        return Err(ParseError::TooLarge(format!("{what} over {max} bytes")));
    }
    Ok(Some(line))
}

/// Parses one HTTP request under the [`ServeConfig`] size caps. Written
/// against [`BufRead`] so the hardening tests can drive it with raw byte
/// slices.
fn read_request<R: BufRead>(
    reader: &mut R,
    config: &ServeConfig,
) -> Result<Option<Request>, ParseError> {
    let Some(line) = read_line_limited(reader, config.max_request_line, "request line")? else {
        return Ok(None); // connection closed before a request
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing target".into()))?;
    let (path, query_string) = match target.split_once('?') {
        Some((p, qs)) => (p, Some(qs)),
        None => (target, None),
    };
    let q = query_string.and_then(|qs| {
        qs.split('&')
            .find_map(|kv| kv.strip_prefix("q="))
            .map(percent_decode)
    });
    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let remaining = config.max_header_bytes.saturating_sub(header_bytes);
        let Some(header) = read_line_limited(reader, remaining.max(1), "header block")? else {
            return Err(ParseError::Bad("connection closed mid-headers".into()));
        };
        header_bytes += header.len();
        if header_bytes > config.max_header_bytes {
            return Err(ParseError::TooLarge(format!(
                "header block over {} bytes",
                config.max_header_bytes
            )));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Bad("bad content-length".into()))?;
            }
        }
    }
    // A front door for test traffic, not the open internet: still, never
    // let one request buffer unbounded memory.
    if content_length > config.max_body_bytes {
        return Err(ParseError::TooLarge(format!(
            "body over {} bytes",
            config.max_body_bytes
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        q,
        body,
    }))
}

/// Decodes `%XX` escapes and `+`-as-space (the form/query encoding curl
/// and browsers produce).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Writes a response with `extra` headers (each `\r\n`-terminated)
/// spliced into the head.
fn respond_with(
    stream: &mut TcpStream,
    status: &str,
    extra: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n{extra}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn handle_connection(
    shared: &Shared,
    mut stream: TcpStream,
    admitted: Instant,
) -> std::io::Result<()> {
    let config = &shared.config;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let parsed = match read_request(&mut reader, config) {
        Ok(None) => return Ok(()), // closed before a request: not counted
        Ok(Some(req)) => Ok(req),
        Err(e) => Err(e),
    };
    shared.requests.fetch_add(1, Ordering::AcqRel);
    let (status, extra, body) = match parsed {
        // On a socket-level failure there is nobody left to answer.
        Err(e) => {
            let (status, body) = e.into_response()?;
            (status, String::new(), body)
        }
        Ok(req) => {
            let deadline = admitted + config.request_timeout;
            let (status, body) = route(shared, &req, deadline);
            let extra = if status.starts_with("503") {
                format!("Retry-After: {}\r\n", config.retry_after_secs)
            } else {
                String::new()
            };
            (status, extra, body)
        }
    };
    respond_with(&mut stream, status, &extra, &body)
}

fn route(shared: &Shared, req: &Request, deadline: Instant) -> (&'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET" | "POST", "/query") => match sparql_of(req) {
            Ok(sparql) => run_query(shared, &sparql, deadline),
            Err(msg) => ("400 Bad Request", json::error(msg)),
        },
        ("GET" | "POST", "/explain") => match sparql_of(req) {
            Ok(sparql) => run_explain(&shared.db, &sparql),
            Err(msg) => ("400 Bad Request", json::error(msg)),
        },
        ("GET", "/stats") => ("200 OK", stats_json(shared)),
        ("POST", "/update") => run_update(&shared.db, &req.body),
        _ => ("404 Not Found", json::error("no such route")),
    }
}

fn sparql_of(req: &Request) -> Result<String, &'static str> {
    if let Some(q) = &req.q {
        return Ok(q.clone());
    }
    if !req.body.is_empty() {
        return String::from_utf8(req.body.clone()).map_err(|_| "body is not UTF-8");
    }
    Err("missing query: pass ?q=<sparql> or a request body")
}

/// The per-request [`QueryBudget`]: the admission deadline plus the
/// configured memory limit.
fn request_budget(config: &ServeConfig, deadline: Instant) -> QueryBudget {
    let mut budget = QueryBudget::unlimited().with_deadline(deadline);
    if let Some(limit) = config.query_mem_limit {
        budget = budget.with_mem_limit(limit);
    }
    budget
}

/// Executes on a pinned per-request session: the reported `version` is
/// the one answered from, and the request's budget (deadline + memory
/// limit) rides along — a cancelled query answers `503` so the client
/// knows to back off.
fn run_query(shared: &Shared, sparql: &str, deadline: Instant) -> (&'static str, String) {
    let db = &shared.db;
    let budget = request_budget(&shared.config, deadline);
    let outcome = db.session().and_then(|session| {
        let results = session.query_budgeted(sparql, &budget)?;
        Ok((session.version(), results))
    });
    shared
        .peak_mem_bytes
        .fetch_max(budget.peak_mem_bytes(), Ordering::AcqRel);
    match outcome {
        Ok((version, results)) => ("200 OK", results_json(version, &results)),
        Err(Error::Engine(EngineError::Cancelled { reason, partial })) => {
            shared.cancelled_queries.fetch_add(1, Ordering::AcqRel);
            let why = match reason {
                CancelReason::Timeout => "query deadline exceeded",
                CancelReason::MemoryLimit => "query memory limit exceeded",
                CancelReason::Shutdown => "server shutting down",
            };
            (
                "503 Service Unavailable",
                format!(
                    "{{\"error\":\"{}\",\"elapsed_ms\":{},\"peak_mem_bytes\":{}}}",
                    json::escape(why),
                    partial.elapsed_ms,
                    partial.peak_mem_bytes,
                ),
            )
        }
        Err(e) => ("400 Bad Request", json::error(&e.to_string())),
    }
}

fn run_explain(db: &Database, sparql: &str) -> (&'static str, String) {
    let version = db.snapshot().version();
    match db.explain_text(sparql) {
        Ok(plan) => (
            "200 OK",
            format!(
                "{{\"version\":{version},\"plan\":\"{}\"}}",
                json::escape(&plan)
            ),
        ),
        Err(e) => ("400 Bad Request", json::error(&e.to_string())),
    }
}

fn results_json(version: u64, results: &ResultSet) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!("{{\"version\":{version},\"columns\":["));
    for (i, c) in results.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json::escape(c)));
    }
    out.push_str("],\"rows\":[");
    for (i, row) in results.decoded().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, term) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", json::escape(term)));
        }
        out.push(']');
    }
    out.push_str(&format!("],\"row_count\":{}}}", results.len()));
    out
}

fn stats_json(shared: &Shared) -> String {
    let snap = shared.db.snapshot();
    let io = shared.db.storage().stats();
    let counters = match shared.db.session() {
        Ok(session) => session
            .stat_counters()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
        Err(_) => String::new(),
    };
    let queue_depth = shared.lock_queue().len();
    format!(
        "{{\"version\":{},\"triples\":{},\"pending\":{},\"requests\":{},\
         \"governance\":{{\"shed_requests\":{},\"cancelled_queries\":{},\"peak_mem_bytes\":{},\
         \"queue_depth\":{queue_depth},\"queue_capacity\":{},\"workers\":{},\"active\":{}}},\
         \"counters\":{{{counters}}},\
         \"io\":{{\"bytes_read\":{},\"read_calls\":{},\"seeks\":{},\"bytes_written\":{},\
         \"syncs\":{},\"bytes_synced\":{},\"io_seconds\":{}}}}}",
        snap.version(),
        snap.dataset().len(),
        snap.pending_delta(),
        shared.requests.load(Ordering::Acquire),
        shared.shed_requests.load(Ordering::Acquire),
        shared.cancelled_queries.load(Ordering::Acquire),
        shared.peak_mem_bytes.load(Ordering::Acquire),
        shared.config.queue_depth,
        shared.config.workers.max(1),
        shared.active.load(Ordering::Acquire),
        io.bytes_read,
        io.read_calls,
        io.seeks,
        io.bytes_written,
        io.syncs,
        io.bytes_synced,
        io.io_seconds,
    )
}

/// One `(subject, predicate, object)` term triple from the update body.
type TermTriple = [String; 3];

/// Parses the update mini-language: one mutation per line, `+` inserts,
/// `-` deletes, terms whitespace-separated with the object extending to
/// the end of the line (so quoted literals may contain spaces). Blank
/// lines and `#` comments are skipped.
fn parse_updates(body: &[u8]) -> Result<(Vec<TermTriple>, Vec<TermTriple>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (op, rest) = line.split_at(1);
        let rest = rest.trim_start();
        let mut it = rest.splitn(3, char::is_whitespace);
        let (s, p, o) = match (it.next(), it.next(), it.next()) {
            (Some(s), Some(p), Some(o)) if !o.trim().is_empty() => (s, p, o.trim()),
            _ => return Err(format!("line {}: expected `+|- <s> <p> <o>`", n + 1)),
        };
        let triple = [s.to_string(), p.to_string(), o.to_string()];
        match op {
            "+" => inserts.push(triple),
            "-" => deletes.push(triple),
            other => return Err(format!("line {}: unknown op {other:?}", n + 1)),
        }
    }
    Ok((inserts, deletes))
}

fn run_update(db: &Database, body: &[u8]) -> (&'static str, String) {
    let (inserts, deletes) = match parse_updates(body) {
        Ok(parsed) => parsed,
        Err(msg) => return ("400 Bad Request", json::error(&msg)),
    };
    let applied = db
        .insert(inserts.iter().map(|[s, p, o]| (&**s, &**p, &**o)))
        .and_then(|ins| {
            let del = db.delete(deletes.iter().map(|[s, p, o]| (&**s, &**p, &**o)))?;
            Ok((ins, del))
        });
    match applied {
        Ok((inserted, deleted)) => (
            "200 OK",
            format!(
                "{{\"inserted\":{inserted},\"deleted\":{deleted},\"version\":{}}}",
                db.snapshot().version()
            ),
        ),
        Err(e) => ("400 Bad Request", json::error(&e.to_string())),
    }
}

/// A minimal blocking HTTP client for tests and benchmarks: sends one
/// request, returns `(status_code, body)` with a 30-second read timeout.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let (status, _, body) = http_request_full(addr, method, target, body, Duration::from_secs(30))?;
    Ok((status, body))
}

/// A decoded HTTP response as [`http_request_full`] returns it: status
/// code, headers (lower-cased names), body.
pub type HttpResponse = (u16, Vec<(String, String)>, String);

/// [`http_request`] with a caller-chosen read timeout, also returning
/// the response headers (lower-cased names) so tests can assert on
/// `retry-after` and friends.
pub fn http_request_full(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    read_timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: swans\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_request("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, String::from_utf8_lossy(&body).into_owned()))
}

/// Percent-encodes a SPARQL string for use in a `?q=` parameter.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_round_trip() {
        let q = "SELECT ?s WHERE { ?s <type> \"a b\" }";
        assert_eq!(percent_decode(&percent_encode(q)), q);
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%", "dangling escape is literal");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex is literal");
    }

    #[test]
    fn update_language_parses() {
        let body = b"# a comment\n+ <s> <p> \"a literal with spaces\"\n\n- <s2> <p2> <o2>\n";
        let (ins, del) = parse_updates(body).expect("parses");
        assert_eq!(
            ins,
            vec![[
                "<s>".to_string(),
                "<p>".to_string(),
                "\"a literal with spaces\"".to_string()
            ]]
        );
        assert_eq!(
            del,
            vec![["<s2>".to_string(), "<p2>".to_string(), "<o2>".to_string()]]
        );
        assert!(parse_updates(b"* <s> <p> <o>").is_err());
        assert!(parse_updates(b"+ <s> <p>").is_err());
    }

    fn parse(bytes: &[u8], config: &ServeConfig) -> Result<Option<Request>, ParseError> {
        read_request(&mut std::io::Cursor::new(bytes), config)
    }

    #[test]
    fn parse_happy_path() {
        let config = ServeConfig::default();
        let req = parse(b"GET /query?q=SELECT HTTP/1.1\r\nHost: x\r\n\r\n", &config)
            .expect("parses")
            .expect("a request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.q.as_deref(), Some("SELECT"));
        let req = parse(
            b"POST /update HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
            &config,
        )
        .expect("parses")
        .expect("a request");
        assert_eq!(req.body, b"body");
    }

    /// The hardening sweep: every malformed / oversized / truncated /
    /// binary-garbage request must come back as a typed `400`/`413` (or
    /// clean EOF), never a panic and never an unbounded buffer.
    #[test]
    fn parse_rejects_hostile_input() {
        let config = ServeConfig {
            max_request_line: 64,
            max_header_bytes: 128,
            max_body_bytes: 256,
            ..ServeConfig::default()
        };
        let too_large: &[&[u8]] = &[
            // Request line over the cap, with and without a newline ever
            // arriving.
            &[b'G'; 1000],
            b"GET /aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n",
            // Unbounded header block.
            b"GET / HTTP/1.1\r\nA: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
              aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n",
            // Body over the cap (declared; never buffered).
            b"POST / HTTP/1.1\r\nContent-Length: 100000000\r\n\r\n",
        ];
        for bytes in too_large {
            match parse(bytes, &config) {
                Err(ParseError::TooLarge(_)) => {}
                other => panic!(
                    "expected TooLarge for {:?}..., got {}",
                    &bytes[..bytes.len().min(24)],
                    match other {
                        Ok(_) => "Ok".to_string(),
                        Err(ParseError::Bad(m)) => format!("Bad({m})"),
                        Err(ParseError::Io(e)) => format!("Io({e})"),
                        Err(ParseError::TooLarge(_)) => unreachable!(),
                    }
                ),
            }
        }
        let bad: &[&[u8]] = &[
            b"\r\n",
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: x", // closed mid-headers
            b"\xff\xfe\xfd\r\n\r\n",      // not UTF-8
        ];
        for bytes in bad {
            assert!(
                matches!(parse(bytes, &config), Err(ParseError::Bad(_))),
                "expected Bad for {bytes:?}"
            );
        }
        // Truncated bodies surface as I/O errors (the socket died), and
        // empty input is a clean EOF, not an error.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", &config),
            Err(ParseError::Io(_))
        ));
        assert!(matches!(parse(b"", &config), Ok(None)));
    }
}
