//! The experiment server: TCP acceptor, connection readers, worker-shard pool.
//!
//! One [`Server`] owns the full 216-case benchmark suite, a [`WorkQueues`] shard pool
//! sized by [`ServerConfig::shards`], and the listener. Each case compiles its
//! reference once per server, on its first heavy request ([`CacheStats`]). Light
//! operations (`ping`, `stats`, `shutdown`) are answered inline on the connection's
//! reader thread; heavy ones (`compile`, `simulate`, `run_session`) are enqueued to
//! the shard keyed by FNV(case, sample) — so repeated requests for one case land on a
//! warm worker — with work-stealing and a typed `busy` reply when every queue is full.
//!
//! `run_session` streams the session's [`RunEvent`]s to the client *as they
//! happen* through a [`WireObserver`] plugged into the engine's observer seam, then
//! sends the terminal reply. Graceful shutdown stops accepting, lets connection
//! readers finish the line they're on, drains every queued job, and joins all
//! threads — no request is dropped without a reply.

use std::collections::HashMap;
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rechisel_benchsuite::case::BenchmarkCase;
use rechisel_benchsuite::runner::run_sample_with_engine;
use rechisel_benchsuite::suite::full_suite;
use rechisel_core::{ChiselCompiler, Engine, Observer, RunEvent, WorkflowConfig};
use rechisel_sim::EngineKind;

use crate::json::{parse, Json};
use crate::queue::WorkQueues;
use crate::wire::{
    decode_request, encode_event, error_reply, ok_reply, ErrorKind, Op, Request, SERVED_LANGUAGE,
};

/// Server tunables. `Default` suits tests: an ephemeral loopback port and one worker
/// per available core (capped).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker/shard count.
    pub shards: usize,
    /// Bounded per-shard queue capacity (backpressure trips when all are full).
    pub queue_capacity: usize,
    /// Maximum request line length in bytes; longer lines get an `oversized` reply.
    pub max_line_bytes: usize,
    /// Per-request read deadline: once the first byte of a line arrives, the full
    /// line must follow within this window or the connection gets a `timeout`
    /// reply and is closed. Idle connections (no partial line) are unaffected.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
            queue_capacity: 128,
            max_line_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Monotonic counters the `stats` op reports (all relaxed; monitoring only).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    replies: AtomicU64,
    events: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    sessions: AtomicU64,
    jobs_in_flight: AtomicU64,
    jobs_high_water: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// A point-in-time snapshot of the server-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests received (parsed or not).
    pub requests: u64,
    /// Terminal replies sent (ok or error).
    pub replies: u64,
    /// Streamed event lines sent.
    pub events: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Error replies sent (including `busy`).
    pub errors: u64,
    /// Sessions run to completion.
    pub sessions: u64,
    /// Jobs currently queued or executing.
    pub jobs_in_flight: u64,
    /// High-water mark of `jobs_in_flight`.
    pub jobs_high_water: u64,
}

/// Counters of the per-case reference compiles.
///
/// Every heavy request (`compile`, `simulate`, `run_session`) for a known case
/// counts once: the first one for a case compiles its reference and counts a miss;
/// every later one, and every one that waited for that compile, counts a hit. So
/// `misses` is the number of distinct cases served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Heavy requests that found their case's reference compiled.
    pub hits: u64,
    /// Heavy requests that compiled their case's reference.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the server has served no heavy request.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the `compile` op reports about a case's reference.
struct CompiledReference {
    fingerprint: String,
    verilog_bytes: usize,
}

/// A suite case and its reference, compiled once, by the case's first heavy request.
struct ServedCase {
    case: BenchmarkCase,
    /// The compiled reference, or the first diagnostic of a failed compile.
    compiled: OnceLock<Result<CompiledReference, String>>,
}

impl ServedCase {
    /// The compiled reference, compiling it on the first call. The call that compiled
    /// counts a miss and gets `false`; every other call, including one that waited
    /// for that compile, counts a hit and gets `true`.
    fn reference(&self, counters: &Counters) -> (&Result<CompiledReference, String>, bool) {
        let mut compiled_here = false;
        let reference = self.compiled.get_or_init(|| {
            compiled_here = true;
            let reference = self.case.reference();
            match ChiselCompiler::new().compile(reference) {
                Ok(compiled) => Ok(CompiledReference {
                    fingerprint: reference.fingerprint().to_string(),
                    verilog_bytes: compiled.verilog.len(),
                }),
                Err(diags) => Err(diags
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "compile failed".into())),
            }
        });
        let counter = if compiled_here { &counters.cache_misses } else { &counters.cache_hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (reference, !compiled_here)
    }
}

/// A heavy request's case, as [`lookup_case`] found it.
struct Lookup<'a> {
    case: &'a BenchmarkCase,
    reference: &'a Result<CompiledReference, String>,
    /// False only for the request that compiled the reference.
    cached: bool,
}

/// Per-connection state shared between the reader thread and workers: the write
/// half (serialized by a mutex so event lines never interleave) plus a pending-job
/// count so a closing connection can drain its jobs first.
struct ConnState {
    writer: Mutex<TcpStream>,
    pending: Mutex<usize>,
    drained: Condvar,
    /// Set when a write fails (client gone); further output is skipped.
    dead: AtomicBool,
}

impl ConnState {
    /// Writes one protocol line; on failure marks the connection dead (jobs keep
    /// running but stop producing output).
    fn send(&self, inner: &Inner, line: &Json, is_event: bool) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut encoded = line.encode();
        encoded.push('\n');
        let mut writer = self.writer.lock().expect("connection writer poisoned");
        if writer.write_all(encoded.as_bytes()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            return;
        }
        if is_event {
            inner.counters.events.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.counters.replies.fetch_add(1, Ordering::Relaxed);
            if line.get("ok").and_then(Json::as_bool) == Some(false) {
                inner.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn job_started(&self) {
        *self.pending.lock().expect("pending counter poisoned") += 1;
    }

    fn job_finished(&self) {
        let mut pending = self.pending.lock().expect("pending counter poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every job attributed to this connection has replied.
    fn wait_drained(&self) {
        let pending = self.pending.lock().expect("pending counter poisoned");
        let _guard =
            self.drained.wait_while(pending, |p| *p > 0).expect("pending counter poisoned");
    }
}

/// A queued heavy job: the request plus the connection to answer on.
struct Job {
    conn: Arc<ConnState>,
    request: Request,
}

/// State shared by the acceptor, connection readers and workers.
struct Inner {
    cases: HashMap<String, ServedCase>,
    queues: WorkQueues<Job>,
    counters: Counters,
    config: ServerConfig,
    shutting_down: AtomicBool,
    /// Set by the wire `shutdown` op; [`ServerHandle::wait_shutdown_requested`]
    /// parks on it (the binary's main thread uses this).
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Inner {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            replies: self.counters.replies.load(Ordering::Relaxed),
            events: self.counters.events.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            sessions: self.counters.sessions.load(Ordering::Relaxed),
            jobs_in_flight: self.counters.jobs_in_flight.load(Ordering::Relaxed),
            jobs_high_water: self.counters.jobs_high_water.load(Ordering::Relaxed),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.cache_hits.load(Ordering::Relaxed),
            misses: self.counters.cache_misses.load(Ordering::Relaxed),
        }
    }

    fn job_enqueued(&self) {
        let now = self.counters.jobs_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.jobs_high_water.fetch_max(now, Ordering::Relaxed);
    }

    fn job_done(&self) {
        self.counters.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// An [`Observer`] that forwards every run event over the wire as it happens.
///
/// This is the serving side of the Observer seam from `rechisel_core::engine`:
/// plugged into `Engine::builder().observer(..)`, the client sees
/// `IterationStarted` / `FeedbackProduced` / … lines live during the reflection
/// loop, not an after-the-fact dump.
pub struct WireObserver {
    conn: Arc<ConnState>,
    inner: Arc<Inner>,
    id: u64,
}

impl Observer for WireObserver {
    fn on_event(&mut self, event: &RunEvent) {
        self.conn.send(&self.inner, &encode_event(self.id, event), true);
    }
}

/// A running server: join handles plus the shared state.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The server entry point; see the [module docs](self).
pub struct Server;

impl Server {
    /// Binds the listener, loads the suite, spawns the worker pool and acceptor,
    /// and returns a handle. The server runs until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cases = full_suite()
            .into_iter()
            .map(|case| (case.id.clone(), ServedCase { case, compiled: OnceLock::new() }))
            .collect();
        let inner = Arc::new(Inner {
            cases,
            queues: WorkQueues::new(config.shards, config.queue_capacity),
            counters: Counters::default(),
            config,
            shutting_down: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });

        let workers = (0..inner.queues.shard_count())
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rechisel-worker-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn worker")
            })
            .collect();

        let connections = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("rechisel-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &inner, &connections))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle { inner, addr, acceptor: Some(acceptor), workers, connections })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the per-case reference compiles.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    /// Server counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.snapshot()
    }

    /// True once a client sent the wire `shutdown` op (or
    /// [`shutdown`][Self::shutdown] ran).
    pub fn shutdown_requested(&self) -> bool {
        *self.inner.shutdown_requested.lock().expect("shutdown flag poisoned")
    }

    /// Parks until a client requests shutdown over the wire.
    pub fn wait_shutdown_requested(&self) {
        let requested = self.inner.shutdown_requested.lock().expect("shutdown flag poisoned");
        let _guard =
            self.inner.shutdown_cv.wait_while(requested, |r| !*r).expect("shutdown flag poisoned");
    }

    /// Graceful shutdown: stop accepting, reject new work with `shutting_down`,
    /// drain every queued job (each still gets its reply), then join all threads.
    pub fn shutdown(mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        request_shutdown(&self.inner);
        // Unblock the acceptor's blocking `accept` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Readers notice the flag within their poll interval and finish; workers
        // drain the queues before exiting.
        let conns = std::mem::take(&mut *self.connections.lock().expect("connection list"));
        for conn in conns {
            let _ = conn.join();
        }
        self.inner.queues.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn request_shutdown(inner: &Inner) {
    *inner.shutdown_requested.lock().expect("shutdown flag poisoned") = true;
    inner.shutdown_cv.notify_all();
}

fn acceptor_loop(
    listener: &TcpListener,
    inner: &Arc<Inner>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        let handle = std::thread::Builder::new()
            .name("rechisel-conn".into())
            .spawn(move || connection_loop(stream, &inner))
            .expect("spawn connection thread");
        connections.lock().expect("connection list").push(handle);
    }
}

/// How often a blocked read wakes to re-check deadlines and the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

fn connection_loop(stream: TcpStream, inner: &Arc<Inner>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnState {
        writer: Mutex::new(writer),
        pending: Mutex::new(0),
        drained: Condvar::new(),
        dead: AtomicBool::new(false),
    });
    let mut reader = stream;
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Deadline of the line currently being assembled (armed at its first byte).
    let mut line_started: Option<Instant> = None;
    // When a line overflowed, discard bytes until its terminating newline.
    let mut discarding = false;

    loop {
        if conn.dead.load(Ordering::Relaxed) {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // client closed
            Ok(n) => {
                let mut rest = &chunk[..n];
                while let Some(pos) = rest.iter().position(|b| *b == b'\n') {
                    let (head, tail) = rest.split_at(pos);
                    rest = &tail[1..];
                    if discarding {
                        discarding = false;
                        buffer.clear();
                        line_started = None;
                        continue;
                    }
                    buffer.extend_from_slice(head);
                    let line = std::mem::take(&mut buffer);
                    line_started = None;
                    handle_line(&line, &conn, inner);
                    if inner.shutting_down.load(Ordering::SeqCst)
                        && conn.dead.load(Ordering::Relaxed)
                    {
                        break;
                    }
                }
                if discarding {
                    continue;
                }
                if !rest.is_empty() {
                    if buffer.is_empty() {
                        line_started = Some(Instant::now());
                    }
                    buffer.extend_from_slice(rest);
                    if buffer.len() > inner.config.max_line_bytes {
                        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                        conn.send(
                            inner,
                            &error_reply(None, ErrorKind::Oversized, "request line too long"),
                            false,
                        );
                        buffer.clear();
                        line_started = None;
                        discarding = true;
                    }
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock || e.kind() == IoErrorKind::TimedOut => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(started) = line_started {
                    if started.elapsed() > inner.config.read_timeout {
                        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
                        conn.send(
                            inner,
                            &error_reply(
                                None,
                                ErrorKind::Timeout,
                                "request line not completed within the read deadline",
                            ),
                            false,
                        );
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    // Wait for in-flight jobs of this connection to reply before closing the
    // socket — part of the "no request dropped without a reply" guarantee.
    conn.wait_drained();
    let _ = reader.shutdown(Shutdown::Both);
}

fn handle_line(line: &[u8], conn: &Arc<ConnState>, inner: &Arc<Inner>) {
    // Tolerate CRLF line endings and skip blank lines silently.
    let line = match line.last() {
        Some(b'\r') => &line[..line.len() - 1],
        _ => line,
    };
    if line.is_empty() {
        return;
    }
    inner.counters.requests.fetch_add(1, Ordering::Relaxed);

    let Ok(text) = std::str::from_utf8(line) else {
        conn.send(inner, &error_reply(None, ErrorKind::BadRequest, "invalid UTF-8"), false);
        return;
    };
    let value = match parse(text) {
        Ok(v) => v,
        Err(e) => {
            conn.send(
                inner,
                &error_reply(None, ErrorKind::BadRequest, &format!("invalid JSON: {e}")),
                false,
            );
            return;
        }
    };
    let request = match decode_request(&value) {
        Ok(r) => r,
        Err((id, kind, message)) => {
            conn.send(inner, &error_reply(id, kind, &message), false);
            return;
        }
    };

    match &request.op {
        // Light ops answer inline on the reader thread.
        Op::Ping => {
            conn.send(inner, &ok_reply(request.id, [("pong", Json::Bool(true))]), false);
        }
        Op::Stats => {
            conn.send(inner, &stats_reply(request.id, inner), false);
        }
        Op::Shutdown => {
            inner.shutting_down.store(true, Ordering::SeqCst);
            // Raise the flag before the ack goes out, so a client that has read the
            // ack always finds `shutdown_requested()` true.
            request_shutdown(inner);
            conn.send(inner, &ok_reply(request.id, [("stopping", Json::Bool(true))]), false);
        }
        // Heavy ops go to the shard pool.
        Op::Compile { case } | Op::Simulate { case, .. } | Op::RunSession { case, .. } => {
            if inner.shutting_down.load(Ordering::SeqCst) {
                conn.send(
                    inner,
                    &error_reply(Some(request.id), ErrorKind::ShuttingDown, "server is draining"),
                    false,
                );
                return;
            }
            let sample = match &request.op {
                Op::RunSession { sample, .. } => *sample,
                _ => 0,
            };
            let hint = shard_hint(case, sample, inner.queues.shard_count());
            let id = request.id;
            conn.job_started();
            inner.job_enqueued();
            let job = Job { conn: Arc::clone(conn), request };
            if let Err(rejected) = inner.queues.try_push(hint, job) {
                rejected.conn.job_finished();
                inner.job_done();
                inner.counters.busy.fetch_add(1, Ordering::Relaxed);
                let kind = if inner.queues.is_closed() {
                    ErrorKind::ShuttingDown
                } else {
                    ErrorKind::Busy
                };
                conn.send(inner, &error_reply(Some(id), kind, "all work queues are full"), false);
            }
        }
    }
}

/// FNV-1a over `case` and `sample`: same case+sample → same shard (warm caches);
/// distinct samples spread across the pool.
fn shard_hint(case: &str, sample: u32, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in case.as_bytes().iter().chain(sample.to_le_bytes().iter()) {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    (hash as usize) % shards
}

fn stats_reply(id: u64, inner: &Inner) -> Json {
    let cache = inner.cache_stats();
    let server = inner.snapshot();
    ok_reply(
        id,
        [
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(cache.hits)),
                    ("misses", Json::from(cache.misses)),
                    ("hit_rate", Json::from(cache.hit_rate())),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("requests", Json::from(server.requests)),
                    ("replies", Json::from(server.replies)),
                    ("events", Json::from(server.events)),
                    ("busy", Json::from(server.busy)),
                    ("errors", Json::from(server.errors)),
                    ("sessions", Json::from(server.sessions)),
                    ("jobs_in_flight", Json::from(server.jobs_in_flight)),
                    ("jobs_high_water", Json::from(server.jobs_high_water)),
                    ("queue_depth", Json::from(inner.queues.depth())),
                ]),
            ),
        ],
    )
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    while let Some(job) = inner.queues.pop(index) {
        run_job(inner, job);
    }
}

fn run_job(inner: &Arc<Inner>, job: Job) {
    let Job { conn, request } = job;
    let id = request.id;
    let reply = match request.op {
        Op::Compile { case } => compile_op(inner, id, &case),
        Op::Simulate { case, engine } => simulate_op(inner, id, &case, engine),
        Op::RunSession { case, sample, model, max_iterations, engine } => {
            session_op(inner, &conn, id, &case, sample, &model, max_iterations, engine)
        }
        // Light ops never reach the queue.
        Op::Ping | Op::Stats | Op::Shutdown => {
            error_reply(Some(id), ErrorKind::Internal, "light op reached the worker pool")
        }
    };
    conn.send(inner, &reply, false);
    conn.job_finished();
    inner.job_done();
}

/// Finds a heavy request's case; the case's first heavy request compiles its
/// reference (a miss), every other one finds it compiled (a hit).
fn lookup_case<'a>(inner: &'a Inner, id: u64, case: &str) -> Result<Lookup<'a>, Json> {
    let Some(served) = inner.cases.get(case) else {
        return Err(error_reply(
            Some(id),
            ErrorKind::UnknownCase,
            &format!("no suite case `{case}` ({} cases loaded)", inner.cases.len()),
        ));
    };
    let (reference, cached) = served.reference(&inner.counters);
    Ok(Lookup { case: &served.case, reference, cached })
}

fn compile_op(inner: &Inner, id: u64, case: &str) -> Json {
    let lookup = match lookup_case(inner, id, case) {
        Ok(lookup) => lookup,
        Err(reply) => return reply,
    };
    match lookup.reference {
        Ok(reference) => ok_reply(
            id,
            [
                ("fingerprint", Json::from(reference.fingerprint.as_str())),
                ("cached", Json::Bool(lookup.cached)),
                ("verilog_bytes", Json::from(reference.verilog_bytes)),
            ],
        ),
        Err(message) => error_reply(Some(id), ErrorKind::CompileError, message),
    }
}

fn simulate_op(inner: &Inner, id: u64, case: &str, engine: EngineKind) -> Json {
    let case = match lookup_case(inner, id, case) {
        Ok(lookup) => lookup.case,
        Err(reply) => return reply,
    };
    let tester = case.tester_with_engine(engine);
    let report = tester.test(tester.reference());
    ok_reply(
        id,
        [
            ("passed", Json::Bool(report.passed())),
            ("points", Json::from(report.total_points)),
            ("failures", Json::from(report.failures.len())),
        ],
    )
}

#[allow(clippy::too_many_arguments)]
fn session_op(
    inner: &Arc<Inner>,
    conn: &Arc<ConnState>,
    id: u64,
    case: &str,
    sample: u32,
    model: &rechisel_llm::ModelProfile,
    max_iterations: u32,
    engine: EngineKind,
) -> Json {
    let case = match lookup_case(inner, id, case) {
        Ok(lookup) => lookup.case,
        Err(reply) => return reply,
    };
    let observer = WireObserver { conn: Arc::clone(conn), inner: Arc::clone(inner), id };
    let session_engine = Engine::builder()
        .config(WorkflowConfig::paper_default().with_max_iterations(max_iterations))
        .sim_engine(engine)
        .observer(observer)
        .build();
    let result = run_sample_with_engine(&session_engine, case, model, SERVED_LANGUAGE, sample);
    inner.counters.sessions.fetch_add(1, Ordering::Relaxed);
    ok_reply(
        id,
        [
            ("success", Json::Bool(result.success)),
            ("success_iteration", result.success_iteration.map(Json::from).unwrap_or(Json::Null)),
            ("iterations", Json::from(result.statuses.len())),
            ("escapes", Json::from(result.escapes)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hints_are_stable_and_spread() {
        let a = shard_hint("hdlbits/vector5", 0, 8);
        assert_eq!(a, shard_hint("hdlbits/vector5", 0, 8), "stable");
        let hints: std::collections::HashSet<_> =
            (0..32).map(|s| shard_hint("hdlbits/vector5", s, 8)).collect();
        assert!(hints.len() > 1, "samples spread across shards");
    }

    #[test]
    fn concurrent_lookups_compile_a_case_once() {
        let case = full_suite().into_iter().next().expect("a suite case");
        let served = ServedCase { case, compiled: OnceLock::new() };
        let counters = Counters::default();
        let threads = 8;
        let start = std::sync::Barrier::new(threads);
        let cached: Vec<bool> = std::thread::scope(|scope| {
            let lookups: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        served.reference(&counters).1
                    })
                })
                .collect();
            lookups.into_iter().map(|l| l.join().expect("lookup thread")).collect()
        });
        assert_eq!(cached.iter().filter(|c| !**c).count(), 1, "exactly one lookup compiled");
        assert_eq!(counters.cache_misses.load(Ordering::Relaxed), 1);
        assert_eq!(counters.cache_hits.load(Ordering::Relaxed), threads as u64 - 1);
        assert!(served.compiled.get().expect("compiled").is_ok());
    }

    #[test]
    fn default_config_is_bounded() {
        let config = ServerConfig::default();
        assert!(config.shards >= 1 && config.shards <= 8);
        assert!(config.queue_capacity > 0);
        assert!(config.max_line_bytes >= 1024);
    }
}
