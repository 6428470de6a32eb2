//! Serving quickstart: start the experiment server in process, talk to it with the
//! blocking client — compile a case's reference (once per server), run a ReChisel
//! session with live-streamed run events, and read the stats surface.
//!
//! The same wire protocol is what `rechisel-serve` (the standalone binary) speaks and
//! what `rechisel-load` (the load generator) drives; this example just keeps both
//! ends in one process.
//!
//! Run with `cargo run --example serve_quickstart`.

use rechisel::serve::client::{Client, SessionRequest};
use rechisel::serve::server::{Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ephemeral loopback port; the handle owns the worker pool and the suite,
    // whose cases each compile their reference on their first request.
    let handle = Server::start(ServerConfig::default())?;
    println!("server listening on {}", handle.addr());

    let mut client = Client::connect(handle.addr())?;
    client.ping()?;

    // The case's first request compiles its reference (check -> lower -> emit);
    // every later request finds it compiled.
    let case = "hdlbits/vector5";
    let cold = client.compile(case)?;
    println!(
        "compile #1: fingerprint {} ({} bytes of Verilog), cached = {}",
        cold.fingerprint, cold.verilog_bytes, cold.cached
    );
    let warm = client.compile(case)?;
    println!("compile #2: cached = {}", warm.cached);

    // The reference design passes its own testbench through the same worker pool.
    let sim = client.simulate(case)?;
    println!("simulate: passed = {}, {} checked points", sim.passed, sim.points);

    // A full ReChisel session: generate -> compile -> simulate -> reflect, with every
    // RunEvent streamed back over the wire as it happens.
    let outcome = client.run_session(
        &SessionRequest::new(case).sample(0).model("claude-3.5-sonnet").max_iterations(5),
    )?;
    println!("session: success = {} after {} iterations", outcome.success, outcome.iterations);
    for event in &outcome.events {
        println!("  event: {:?}", event.kind);
    }

    let stats = client.stats()?;
    println!(
        "stats: cache {} hits / {} misses (hit rate {:.2})",
        stats.cache_hits(),
        stats.cache_misses(),
        stats.cache_hit_rate()
    );

    handle.shutdown();
    println!("server drained and stopped");
    Ok(())
}
