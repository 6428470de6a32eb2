//! `rechisel-serve` — run the experiment server until a client sends `shutdown`
//! (or the process receives SIGINT/SIGTERM, which the OS turns into process exit).
//!
//! ```text
//! rechisel-serve [--addr HOST:PORT] [--shards N] [--queue-capacity N]
//!                [--max-line-bytes N] [--read-timeout-ms N]
//! ```
//!
//! `--shards` is the worker count, and `--queue-capacity` bounds the one job queue
//! they all pop: a heavy request that finds that many jobs waiting gets `busy`.

use std::time::Duration;

use rechisel_serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: rechisel-serve [--addr HOST:PORT] [--shards N] [--queue-capacity N] \
         [--max-line-bytes N] [--read-timeout-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:4547".into(), ..ServerConfig::default() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--shards" => config.shards = parse_num(&value("--shards"), "--shards"),
            "--queue-capacity" => {
                config.queue_capacity = parse_num(&value("--queue-capacity"), "--queue-capacity")
            }
            "--max-line-bytes" => {
                config.max_line_bytes = parse_num(&value("--max-line-bytes"), "--max-line-bytes")
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_num(
                    &value("--read-timeout-ms"),
                    "--read-timeout-ms",
                ))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("rechisel-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("rechisel-serve listening on {}", handle.addr());

    handle.wait_shutdown_requested();
    println!("rechisel-serve: shutdown requested, draining");
    let stats = handle.stats();
    let cache = handle.cache_stats();
    handle.shutdown();
    println!(
        "rechisel-serve: served {} requests ({} sessions, {} busy, {} errors); \
         cache {}/{} hits/misses",
        stats.requests, stats.sessions, stats.busy, stats.errors, cache.hits, cache.misses
    );
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("invalid value `{text}` for {flag}");
        usage()
    })
}
