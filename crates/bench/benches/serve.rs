//! `serve/` — request latency and throughput of the experiment server.
//!
//! Every datapoint drives a real `rechisel-serve` instance over loopback TCP with the
//! blocking client, so the measured cost is the full path: request encode → framing →
//! job queue → worker → reply (plus streamed events for sessions). The server
//! compiles each case's reference once, on the case's first request, so every timed
//! `compile` is a lookup of that compiled reference; the `substrate` and `pipeline/`
//! groups time the check/lower/emit work itself. The calibration spin is re-emitted
//! here so a standalone `bench_gate --group serve/` run normalizes the same way as the
//! `sim/` group. Direct p99 and throughput measurements (requests/sec, compile p99,
//! sessions/sec) are printed at the end.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rechisel_serve::client::{Client, SessionRequest};
use rechisel_serve::server::{Server, ServerConfig};

/// The paper's case-study circuit — always the first case of the suite.
const CASE_ID: &str = "hdlbits/vector5";

/// Fixed pure-CPU work identical to the `sim/` group's spin, so one calibration id
/// normalizes both groups (bench_gate takes the min across a shared sidecar).
fn calibration_spin() -> u64 {
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..4096 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= x >> 31;
    }
    z
}

/// p50/p99 over one operation repeated `n` times.
fn percentiles(n: usize, mut op: impl FnMut()) -> (Duration, Duration) {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        op();
        samples.push(start.elapsed());
    }
    samples.sort_unstable();
    (samples[(n - 1) / 2], samples[(n - 1) * 99 / 100])
}

fn bench_serve(c: &mut Criterion) {
    c.bench_function("sim/_calibration/spin", |b| b.iter(|| black_box(calibration_spin())));

    let server = Server::start(ServerConfig::default()).expect("bench server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.compile(CASE_ID).expect("compile the case's reference");

    c.bench_function("serve/rpc/ping", |b| b.iter(|| client.ping().expect("ping")));
    c.bench_function("serve/compile/cached", |b| {
        b.iter(|| {
            let reply = client.compile(CASE_ID).expect("cached compile");
            assert!(reply.cached);
        })
    });
    let request = SessionRequest::new(CASE_ID).max_iterations(1);
    c.bench_function("serve/session/run", |b| {
        b.iter(|| client.run_session(&request).expect("session"))
    });

    // Direct throughput/latency numbers for the log (not gated):
    println!();
    let pings = 400;
    let start = Instant::now();
    for _ in 0..pings {
        client.ping().expect("ping");
    }
    let rps = f64::from(pings) / start.elapsed().as_secs_f64();
    println!("serve/rpc: {rps:.0} requests/sec (sequential pings over one connection)");

    let (p50, p99) = percentiles(200, || {
        client.compile(CASE_ID).expect("cached compile");
    });
    println!("serve/compile cached: p50 {p50:?}, p99 {p99:?}");

    let clients = 4usize;
    let per_client = 25u32;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut c = Client::connect(server.addr()).expect("connect");
                for sample in 0..per_client {
                    let req = SessionRequest::new(CASE_ID).sample(sample).max_iterations(1);
                    c.run_session(&req).expect("session");
                }
            });
        }
    });
    let sps = (clients as f64 * f64::from(per_client)) / start.elapsed().as_secs_f64();
    println!("serve/session: {sps:.0} sessions/sec ({clients} closed-loop clients)");

    server.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_serve
}
criterion_main!(benches);
