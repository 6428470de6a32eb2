//! # rechisel-serve
//!
//! The serving layer of the ReChisel reproduction: compile / simulate /
//! run-session over a newline-delimited JSON line protocol on TCP, built entirely
//! on `std` (no async runtime, no HTTP library — the workspace is offline by
//! design).
//!
//! Pieces:
//!
//! * [`server`] — the [`Server`]: acceptor + per-connection reader
//!   threads + a fixed pool of workers that all pop one bounded job queue, with
//!   typed `busy` backpressure and graceful drain on shutdown.
//! * One compile per suite case: the first heavy request for a case compiles its
//!   reference, and every later request, or one that waited for that compile,
//!   counts a hit in [`CacheStats`].
//! * [`server::WireObserver`] — the `Observer` seam from `rechisel_core::engine`
//!   pointed at a socket: session run events stream to the client live.
//! * [`client`] — the blocking [`Client`] used by the integration
//!   tests and the `rechisel-load` generator binary.
//! * [`wire`] / [`json`] — the protocol reference: request/reply/event encoding
//!   over a hand-rolled JSON parser.
//!
//! # Quickstart
//!
//! ```
//! use rechisel_serve::client::{Client, SessionRequest};
//! use rechisel_serve::server::{Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.ping().unwrap();
//!
//! let compiled = client.compile("hdlbits/vector5").unwrap();
//! assert!(!compiled.cached, "the case's first request compiles its reference");
//! assert!(client.compile("hdlbits/vector5").unwrap().cached, "later ones find it compiled");
//!
//! let outcome =
//!     client.run_session(&SessionRequest::new("hdlbits/vector5").max_iterations(2)).unwrap();
//! assert!(!outcome.events.is_empty(), "events streamed during the run");
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod json;
mod queue;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, DrainedSessions, SessionOutcome, SessionRequest};
pub use server::{CacheStats, Server, ServerConfig, ServerHandle, ServerStats, WireObserver};
pub use wire::{ErrorKind, Op, Request};
