//! End-to-end tests of the serve subsystem: real TCP server, real clients.
//!
//! The headline property (PR acceptance): two clients submitting the same suite
//! case concurrently both receive the streamed `RunEvent`s of their session, those
//! events are **identical** to a direct in-process `Session` run with a
//! `CollectingObserver`, and the case's reference is compiled once: the first heavy
//! request counts a miss, the other a hit. Around it: the compile-once counters under
//! concurrent mixed requests, busy backpressure with nothing dropped, graceful
//! shutdown draining in-flight jobs, and the stats surface.

use std::time::Duration;

use rechisel_benchsuite::case::BenchmarkCase;
use rechisel_benchsuite::runner::run_sample_with_engine;
use rechisel_benchsuite::suite::full_suite;
use rechisel_core::{CollectingObserver, Engine, RunEvent, WorkflowConfig, WorkflowResult};
use rechisel_llm::{Language, ModelProfile};
use rechisel_serve::client::{Client, ClientError, SessionRequest};
use rechisel_serve::server::{Server, ServerConfig};
use rechisel_sim::EngineKind;

/// The paper's case-study circuit — first case of the suite, present in every build.
const CASE_ID: &str = "hdlbits/vector5";
/// A second suite case, for tests that need two.
const OTHER_CASE_ID: &str = "hdlbits/full_adder";
const MAX_ITERATIONS: u32 = 3;

fn suite_case(id: &str) -> BenchmarkCase {
    full_suite().into_iter().find(|c| c.id == id).unwrap_or_else(|| panic!("no case {id}"))
}

/// Runs the case in process exactly as the server does, capturing events.
fn direct_run(case: &BenchmarkCase, sample: u32) -> (WorkflowResult, Vec<RunEvent>) {
    let observer = CollectingObserver::new();
    let engine = Engine::builder()
        .config(WorkflowConfig::paper_default().with_max_iterations(MAX_ITERATIONS))
        .sim_engine(EngineKind::Compiled)
        .observer(observer.clone())
        .build();
    let result =
        run_sample_with_engine(&engine, case, &ModelProfile::gpt4o(), Language::Chisel, sample);
    (result, observer.take())
}

#[test]
fn two_concurrent_clients_stream_parity_events_and_share_one_compile() {
    let handle = Server::start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    // The reference answer, computed without any server involved.
    let case = suite_case(CASE_ID);
    let (expected_result, expected_events) = direct_run(&case, 0);
    assert!(!expected_events.is_empty(), "a session always emits events");

    // Two clients submit the same (case, sample) concurrently.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.run_session(
                        &SessionRequest::new(CASE_ID).sample(0).max_iterations(MAX_ITERATIONS),
                    )
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    for outcome in outcomes {
        let outcome = outcome.expect("session ran");
        // Byte-for-byte event parity with the in-process run: same kinds, same
        // spec/attempt attribution, same order.
        assert_eq!(outcome.events, expected_events, "streamed events match the direct run");
        assert_eq!(outcome.success, expected_result.success);
        assert_eq!(outcome.success_iteration, expected_result.success_iteration);
        assert_eq!(outcome.iterations as usize, expected_result.statuses.len());
        assert_eq!(outcome.escapes, u64::from(expected_result.escapes));
    }

    // One case, two concurrent sessions: the reference compiled once, and the
    // other request was a hit (a request that waited for the compile counts as one).
    let cache = handle.cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 1), "stats: {cache:?}");

    let stats = handle.stats();
    assert_eq!(stats.sessions, 2);
    assert_eq!(stats.busy, 0);
    handle.shutdown();
}

#[test]
fn concurrent_mixed_requests_compile_each_case_once() {
    let handle = Server::start(ServerConfig::default()).expect("server starts");
    let addr = handle.addr();
    let cases = [CASE_ID, OTHER_CASE_ID];
    let clients = 4;
    let start = std::sync::Barrier::new(clients);

    // Each client sends compile, simulate and run_session for both cases, its first
    // request for each case being a compile; so whichever request compiles a case's
    // reference is a compile, and its reply alone says `cached: false`.
    let uncached: Vec<Vec<&str>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                let start = &start;
                scope.spawn(move || {
                    let mut conn = Client::connect(addr).expect("connect");
                    // Every client sends its first compile at once.
                    start.wait();
                    let order = [cases[client % 2], cases[(client + 1) % 2]];
                    let mut uncached = Vec::new();
                    for case in order {
                        if !conn.compile(case).expect("compile").cached {
                            uncached.push(case);
                        }
                    }
                    for case in order {
                        assert!(conn.simulate(case).expect("simulate").passed);
                        let request = SessionRequest::new(case).sample(client as u32);
                        conn.run_session(&request.max_iterations(1)).expect("session");
                    }
                    uncached
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    let requests = (clients * cases.len() * 3) as u64;
    let cache = handle.cache_stats();
    assert_eq!(cache.misses, 2, "each case's reference compiled once (stats: {cache:?})");
    assert_eq!(cache.hits, requests - 2, "every other heavy request is a hit");
    let mut uncached: Vec<&str> = uncached.into_iter().flatten().collect();
    uncached.sort_unstable();
    assert_eq!(uncached, [OTHER_CASE_ID, CASE_ID], "one uncached compile reply per case");

    // Once compiled, a case stays compiled.
    let mut client = Client::connect(addr).expect("connect");
    for case in cases {
        assert!(client.compile(case).expect("compile").cached);
    }
    assert_eq!(handle.cache_stats().misses, 2);
    handle.shutdown();
}

#[test]
fn oversubmitted_tiny_queues_reply_busy_but_never_drop_a_request() {
    let config = ServerConfig { shards: 1, queue_capacity: 1, ..ServerConfig::default() };
    let handle = Server::start(config).expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let requests = 12;
    let mut ids = Vec::new();
    for sample in 0..requests {
        let req = SessionRequest::new(CASE_ID).sample(sample).max_iterations(1);
        ids.push(client.start_session(&req).expect("send"));
    }
    let outcomes = client.drain_sessions(&ids).expect("every request gets a terminal reply");
    assert_eq!(outcomes.len(), requests as usize, "no request dropped without a reply");

    let mut ok = 0u32;
    let mut busy = 0u32;
    for (_, outcome) in outcomes {
        match outcome {
            Ok(_) => ok += 1,
            Err(e) if e.is_busy() => busy += 1,
            Err(e) => panic!("unexpected error under over-submit: {e:?}"),
        }
    }
    assert!(ok >= 1, "the worker made progress");
    assert!(busy >= 1, "backpressure engaged on a 1×1 queue under {requests} pipelined jobs");
    assert_eq!(handle.stats().busy, u64::from(busy));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let config = ServerConfig { shards: 2, queue_capacity: 64, ..ServerConfig::default() };
    let handle = Server::start(config).expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut ids = Vec::new();
    for sample in 0..6 {
        let req = SessionRequest::new(CASE_ID).sample(sample).max_iterations(2);
        ids.push(client.start_session(&req).expect("send"));
    }

    // A second client asks the server to stop while those six are in flight.
    let mut admin = Client::connect(handle.addr()).expect("connect admin");
    admin.shutdown_server().expect("shutdown acknowledged");
    assert!(handle.shutdown_requested());
    handle.shutdown();

    // Every accepted job was drained to a terminal reply before the socket closed.
    let outcomes = client.drain_sessions(&ids).expect("drained replies survive shutdown");
    assert_eq!(outcomes.len(), 6);
    for (id, outcome) in outcomes {
        match outcome {
            Ok(session) => assert!(!session.events.is_empty(), "id {id} streamed events"),
            Err(ClientError::Server { kind, .. }) => {
                assert_eq!(kind, "shutting_down", "id {id}: only a typed late-reject is allowed")
            }
            Err(other) => panic!("id {id} dropped: {other:?}"),
        }
    }
}

#[test]
fn requests_after_shutdown_get_a_typed_shutting_down_reply() {
    let handle = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown acknowledged");

    // The reader thread is still draining this connection; a heavy op submitted
    // after the flag flips is rejected with a typed error, not silence.
    let err = client
        .run_session(&SessionRequest::new(CASE_ID).max_iterations(1))
        .expect_err("rejected during shutdown");
    match err {
        ClientError::Server { kind, .. } => assert_eq!(kind, "shutting_down"),
        // The acceptor may already have closed the socket: equally a reply-or-close,
        // never a hang.
        ClientError::Io(_) | ClientError::Protocol(_) => {}
    }
    handle.shutdown();
}

#[test]
fn stats_surface_reports_cache_and_server_counters() {
    let handle = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");
    let cold = client.compile(CASE_ID).expect("compile");
    assert!(!cold.cached);
    assert!(!cold.fingerprint.is_empty());
    assert!(cold.verilog_bytes > 0);
    let warm = client.compile(CASE_ID).expect("compile again");
    assert!(warm.cached, "second compile was a hit");
    assert_eq!(warm.fingerprint, cold.fingerprint);

    let sim = client.simulate(CASE_ID).expect("simulate");
    assert!(sim.passed, "the reference passes its own testbench");
    assert!(sim.points > 0);

    // One miss (the first compile) and two hits (the second compile, the simulate).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_hits(), 2, "stats: {stats:?}");
    assert_eq!(stats.cache_misses(), 1);
    assert!((stats.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    assert_eq!(stats.server_busy(), 0);
    handle.shutdown();
}

#[test]
fn unknown_case_and_model_are_typed_errors() {
    let handle = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");

    match client.compile("no/such/case") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "unknown_case"),
        other => panic!("expected unknown_case, got {other:?}"),
    }
    match client.run_session(&SessionRequest::new(CASE_ID).model("gpt-9000")) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "unknown_model"),
        other => panic!("expected unknown_model, got {other:?}"),
    }
    // The connection survives typed rejections.
    client.ping().expect("still serving");
    handle.shutdown();

    // Retry timeout path: a loopback port that was just released refuses connects
    // until the deadline passes.
    let vacant = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let vacant_addr = vacant.local_addr().expect("addr");
    drop(vacant);
    assert!(Client::connect_with_retry(vacant_addr, Duration::from_millis(200)).is_err());
}
