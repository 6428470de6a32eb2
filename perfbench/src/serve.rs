//! The `serve` workload: an in-process `rechisel-serve` with one shard per core,
//! driven over TCP by a closed loop of one client connection per core.
//!
//! The seed draws one request list: 80% `run_session` (case, model and sample,
//! cap 10), 10% `compile` and 10% `simulate`. Each client takes the next request of
//! the list only after its previous reply arrived. Every reply is checked
//! afterwards against the same request run in-process.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rechisel_benchsuite::runner::run_sample_with_engine;
use rechisel_benchsuite::BenchmarkCase;
use rechisel_core::{Engine, WorkflowConfig};
use rechisel_llm::ModelProfile;
use rechisel_serve::client::{Client, SessionRequest};
use rechisel_serve::server::{Server, ServerConfig, ServerHandle};
use rechisel_serve::wire::{model_by_name, MODEL_NAMES, SERVED_LANGUAGE};

use crate::stats::{
    heap_in_use_mb, median, par_map, peak_rss_mb, percentile, thread_cpu_ns, Fnv, Metric, SplitMix,
};
use crate::sweep::{build_suite, session_hash};
use crate::trace::{Item, TracedArm, Tracer};
use crate::Outcome;

/// Iteration cap of every `run_session` request.
pub const SESSION_CAP: u32 = 10;

/// Requests of the list that the outcome digest covers, whether or not the timed
/// loop got that far.
pub const DIGEST_PREFIX: usize = 64;

/// One request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `run_session` of a case, model (index into `MODEL_NAMES`) and sample.
    Session {
        /// Suite index.
        case: usize,
        /// Model index.
        model: usize,
        /// Sample index.
        sample: u32,
    },
    /// `compile` of a case's reference.
    Compile {
        /// Suite index.
        case: usize,
    },
    /// `simulate` of a case's reference against itself.
    Simulate {
        /// Suite index.
        case: usize,
    },
}

/// The seeded request list, consumed in order by every client. Sessions walk the
/// (case, model) grid in shuffled laps, each pair once per lap with a drawn sample,
/// so the few hundred sessions a run serves cover cases and models evenly and the
/// session pass rate does not hinge on which pairs a draw favoured; `compile` and
/// `simulate` pick any case.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SplitMix,
    cases: usize,
    deck: Vec<(usize, usize)>,
}

impl Stream {
    /// The request list of `seed` over `cases` cases.
    pub fn new(seed: u64, cases: usize) -> Self {
        Self { rng: SplitMix::new(seed), cases, deck: Vec::new() }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let any_case = self.rng.below(self.cases as u64) as usize;
        match self.rng.below(10) {
            0 => Request::Compile { case: any_case },
            1 => Request::Simulate { case: any_case },
            _ => {
                if self.deck.is_empty() {
                    let models = MODEL_NAMES.len();
                    self.deck =
                        (0..self.cases * models).map(|i| (i / models, i % models)).collect();
                    for i in (1..self.deck.len()).rev() {
                        self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
                    }
                }
                let (case, model) = self.deck.pop().expect("a refilled deck");
                Request::Session { case, model, sample: self.rng.below(10) as u32 }
            }
        }
    }
}

/// The first `n` requests of the list for `seed`.
pub fn request_list(seed: u64, cases: usize, n: usize) -> Vec<Request> {
    let mut stream = Stream::new(seed, cases);
    (0..n).map(|_| stream.next_request()).collect()
}

/// What the server answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A `run_session` summary.
    Session {
        /// Succeeded within the cap.
        success: bool,
        /// Iterations evaluated.
        iterations: u64,
        /// Escape firings.
        escapes: u64,
    },
    /// A `compile` reply.
    Compile {
        /// The reference's fingerprint.
        fingerprint: String,
    },
    /// A `simulate` reply.
    Simulate {
        /// Every point passed.
        passed: bool,
        /// Points checked.
        points: u64,
    },
    /// A transport, protocol or server error.
    Error(String),
}

/// One request as served.
#[derive(Debug, Clone)]
pub struct Served {
    /// The request.
    pub request: Request,
    /// Send to terminal reply, ns.
    pub latency_ns: u64,
    /// The reply.
    pub reply: Reply,
}

fn send(client: &mut Client, suite: &[BenchmarkCase], request: Request) -> Reply {
    let outcome = match request {
        Request::Session { case, model, sample } => client
            .run_session(
                &SessionRequest::new(suite[case].id.as_str())
                    .sample(sample)
                    .model(MODEL_NAMES[model])
                    .max_iterations(SESSION_CAP),
            )
            .map(|o| Reply::Session {
                success: o.success,
                iterations: o.iterations,
                escapes: o.escapes,
            }),
        Request::Compile { case } => {
            client.compile(&suite[case].id).map(|c| Reply::Compile { fingerprint: c.fingerprint })
        }
        Request::Simulate { case } => client
            .simulate(&suite[case].id)
            .map(|s| Reply::Simulate { passed: s.passed, points: s.points }),
    };
    outcome.unwrap_or_else(|e| Reply::Error(e.to_string()))
}

/// Starts the server `reps` times (shutting down all but the last); returns the
/// last handle and the median start time, as CPU time of the starting thread (it
/// builds the suite and binds the listener; the spawned workers start idle).
///
/// # Errors
///
/// Propagates a failure to bind a loopback port.
pub fn setup(shards: usize, reps: usize) -> std::io::Result<(ServerHandle, f64)> {
    let config = ServerConfig { shards, ..ServerConfig::default() };
    let mut times = Vec::with_capacity(reps);
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = handle.take() {
            previous.shutdown();
        }
        let start = thread_cpu_ns();
        handle = Some(Server::start(config.clone())?);
        times.push((thread_cpu_ns() - start) as f64 / 1e9);
    }
    Ok((handle.expect("at least one start"), median(&times)))
}

/// The closed loop: `clients` connections, each taking the next request of the
/// shared list and sending it once its previous reply arrived, until `seconds` have
/// passed. Returns every served request and the loop's wall time.
pub fn load(
    addr: SocketAddr,
    suite: &[BenchmarkCase],
    seed: u64,
    clients: usize,
    seconds: f64,
) -> (Vec<Served>, Duration) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let stream = Mutex::new(Stream::new(seed, suite.len()));
    let next = || stream.lock().expect("request list").next_request();
    let served: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            let reply = Reply::Error(e.to_string());
                            return vec![Served { request: next(), latency_ns: 0, reply }];
                        }
                    };
                    let mut log = Vec::new();
                    while Instant::now() < deadline {
                        let request = next();
                        let sent = Instant::now();
                        let reply = send(&mut client, suite, request);
                        log.push(Served {
                            request,
                            latency_ns: sent.elapsed().as_nanos() as u64,
                            reply,
                        });
                    }
                    log
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    (served.into_iter().flatten().collect(), wall)
}

/// The in-process twin of the server's `run_session`.
fn session_engine() -> Engine {
    Engine::builder()
        .config(WorkflowConfig::paper_default().with_max_iterations(SESSION_CAP))
        .build()
}

fn models() -> Vec<ModelProfile> {
    MODEL_NAMES.iter().map(|n| model_by_name(n).expect("a served model")).collect()
}

/// The reply the server must give to `request`, and the in-process compute time of
/// a session as CPU time on its thread (an outcome hash rides along for the
/// digest).
fn expected(
    engine: &Engine,
    models: &[ModelProfile],
    suite: &[BenchmarkCase],
    request: Request,
) -> (Reply, Option<u64>, u64) {
    match request {
        Request::Session { case, model, sample } => {
            let start = thread_cpu_ns();
            let result = run_sample_with_engine(
                engine,
                &suite[case],
                &models[model],
                SERVED_LANGUAGE,
                sample,
            );
            let ns = thread_cpu_ns() - start;
            let reply = Reply::Session {
                success: result.success,
                iterations: result.statuses.len() as u64,
                escapes: u64::from(result.escapes),
            };
            (reply, Some(ns), session_hash(&result))
        }
        Request::Compile { case } => {
            let fingerprint = suite[case].reference().fingerprint().to_string();
            let mut h = Fnv::default();
            h.bytes(fingerprint.as_bytes());
            (Reply::Compile { fingerprint }, None, h.finish())
        }
        Request::Simulate { case } => {
            let points = suite[case].tester().testbench().checked_points() as u64;
            (Reply::Simulate { passed: true, points }, None, points)
        }
    }
}

/// The digest over the first [`DIGEST_PREFIX`] requests of the list.
pub fn digest(seed: u64, suite: &[BenchmarkCase], threads: usize) -> u64 {
    let engine = session_engine();
    let models = models();
    let requests = request_list(seed, suite.len(), DIGEST_PREFIX);
    let hashes =
        par_map(requests.len(), threads, |i| expected(&engine, &models, suite, requests[i]).2);
    crate::sweep::digest(&hashes)
}

fn p50_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e3
}

/// Runs the `serve` workload; with `trace`, the per-layer metrics instead of the
/// end-to-end ones.
pub fn run(seed: u64, threads: usize, seconds: f64, trace: bool) -> Outcome {
    let suite = build_suite();
    let (handle, setup_s) = match setup(threads, if trace { 1 } else { 31 }) {
        Ok(started) => started,
        Err(e) => {
            eprintln!("perfbench: cannot start the server: {e}");
            return Outcome::new(1, 1, 0);
        }
    };
    let (served, wall) = load(handle.addr(), &suite, seed, threads, seconds);
    let peak_heap_mb = heap_in_use_mb();
    let stats = handle.stats();
    let cache = handle.cache_stats();
    handle.shutdown();

    // The correctness check, in-process and untimed by the loop.
    let engine = session_engine();
    let models = models();
    let verdicts = par_map(served.len(), threads, |i| {
        let (want, compute_ns, hash) = expected(&engine, &models, &suite, served[i].request);
        (want == served[i].reply, compute_ns, hash)
    });
    let failed = verdicts.iter().filter(|(ok, ..)| !ok).count() as u64;
    for (s, _) in served.iter().zip(&verdicts).filter(|(_, (ok, ..))| !ok).take(5) {
        eprintln!("perfbench: {:?} got {:?}", s.request, s.reply);
    }

    // (request, compute ns, in-process outcome hash) of every run_session.
    let sessions: Vec<(&Served, u64, u64)> = served
        .iter()
        .zip(&verdicts)
        .filter_map(|(s, (_, compute, hash))| compute.map(|c| (s, c, *hash)))
        .collect();
    let successes = sessions
        .iter()
        .filter(|(s, ..)| matches!(s.reply, Reply::Session { success: true, .. }))
        .count();
    let mut latencies: Vec<u64> = served.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let n = latencies.len();
    let p50 = percentile(&latencies, 0.5) as f64 / 1e3;
    let p99 = percentile(&latencies, 0.99) as f64 / 1e3;

    let mut outcome = Outcome::new(served.len() as u64, failed, digest(seed, &suite, threads));
    outcome.note(format!(
        "requests: {n} over {threads} connections to {threads} shards in {:.3} s ({} run_session)",
        wall.as_secs_f64(),
        sessions.len()
    ));
    outcome.note(format!(
        "latency_p50_us {p50:.1} us, latency_p99_us {p99:.1} us (n={n}); peak resident set {:.1} MB",
        peak_rss_mb()
    ));

    if !trace {
        outcome.metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_per_s", n as f64 / wall.as_secs_f64(), "1/s"),
            Metric::new("latency_p50_us", p50, "us"),
            Metric::new("latency_p99_us", p99, "us"),
            Metric::new("pass_at_1", successes as f64 / sessions.len().max(1) as f64, "ratio"),
            Metric::new("peak_heap_mb", peak_heap_mb, "MB"),
        ];
        return outcome;
    }

    // The same run_session requests, traced in-process, for the other layers.
    let items: Vec<Item> = sessions
        .iter()
        .map(|(s, ..)| match s.request {
            Request::Session { case, model, sample } => Item { case, model, attempt: sample },
            _ => unreachable!("only sessions carry a compute time"),
        })
        .collect();
    let arm = TracedArm::new(&engine, SERVED_LANGUAGE);
    let mut tracer = Tracer::default();
    let traced_hashes = tracer.run(&arm, &models, &suite, &items, threads, true);
    let untraced_hashes: Vec<u64> = sessions.iter().map(|(.., hash)| *hash).collect();
    outcome.failed += tracer.failed + crate::sweep::mismatches(&untraced_hashes, &traced_hashes);
    let compute_ns: u64 = sessions.iter().map(|(_, c, _)| c).sum();
    let of_kind = |want: fn(&Request) -> bool| -> Vec<u64> {
        served.iter().filter(|s| want(&s.request)).map(|s| s.latency_ns).collect()
    };
    // No sweep runs here, so `benchsuite.sweep.busy_ratio` stays 0.
    outcome.metrics = tracer.metrics(1, compute_ns, 0.0);
    outcome.metrics.extend([
        Metric::new(
            "serve.run_session.p50_us",
            p50_us(of_kind(|r| matches!(r, Request::Session { .. }))),
            "us",
        ),
        Metric::new(
            "serve.compile.p50_us",
            p50_us(of_kind(|r| matches!(r, Request::Compile { .. }))),
            "us",
        ),
        Metric::new(
            "serve.simulate.p50_us",
            p50_us(of_kind(|r| matches!(r, Request::Simulate { .. }))),
            "us",
        ),
        Metric::new(
            "serve.compute_us",
            p50_us(sessions.iter().map(|(_, c, _)| *c).collect()),
            "us",
        ),
        Metric::new(
            "serve.wait_us",
            p50_us(sessions.iter().map(|(s, c, _)| s.latency_ns.saturating_sub(*c)).collect()),
            "us",
        ),
        Metric::new("serve.cache.hit_ratio", cache.hit_rate(), "ratio"),
        Metric::new("serve.events", stats.events as f64 / sessions.len().max(1) as f64, "count"),
        Metric::new("serve.busy", stats.busy as f64, "count"),
    ]);
    tracer.print_table(1);
    tracer.write_sample(&format!("trace-serve-seed{seed}"));
    outcome
}
