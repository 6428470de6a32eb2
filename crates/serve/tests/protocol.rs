//! Protocol robustness: a server fed malformed, truncated or oversized request
//! lines must answer every one with a typed error — and never panic, never wedge a
//! worker, never leave a line unanswered.
//!
//! The property test drives one shared server (a `static OnceLock`, because the
//! offline proptest stub generates whole test functions and cannot capture locals)
//! with deterministic mutations derived from a seeded RNG; after every malformed
//! line the same connection must still answer `ping`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use rechisel_serve::client::Client;
use rechisel_serve::json::Json;
use rechisel_serve::server::{Server, ServerConfig, ServerHandle};

const MAX_LINE_BYTES: usize = 4096;

/// One shared robustness-target server for the whole test binary.
fn server() -> &'static ServerHandle {
    static SERVER: OnceLock<ServerHandle> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::start(ServerConfig {
            max_line_bytes: MAX_LINE_BYTES,
            shards: 2,
            ..ServerConfig::default()
        })
        .expect("robustness server starts")
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic malformed line: never blank, never containing a newline,
/// always under the server's line ceiling.
fn malformed_line(seed: u64) -> String {
    let mut state = seed;
    let valid = r#"{"id":7,"op":"run_session","case":"hdlbits/vector5","max_iterations":2}"#;
    let line = match splitmix(&mut state) % 8 {
        // Printable garbage that is not JSON at all.
        0 => {
            let len = 1 + (splitmix(&mut state) % 64) as usize;
            (0..len)
                .map(|_| char::from(b'!' + (splitmix(&mut state) % 90) as u8))
                .collect::<String>()
        }
        // A valid request truncated mid-token.
        1 => {
            let cut = 1 + (splitmix(&mut state) as usize) % (valid.len() - 1);
            valid[..cut].to_string()
        }
        // Valid JSON of the wrong shape.
        2 => "[1,2,3]".into(),
        3 => "\"just a string\"".into(),
        4 => r#"{"id":7}"#.into(),
        // Unknown / mistyped fields.
        5 => r#"{"id":7,"op":"frobnicate"}"#.into(),
        6 => r#"{"id":"seven","op":42}"#.into(),
        // Structurally broken nesting.
        _ => {
            let depth = 1 + (splitmix(&mut state) % 64) as usize;
            "{\"a\":".repeat(depth)
        }
    };
    assert!(!line.trim().is_empty() && !line.contains('\n') && line.len() < MAX_LINE_BYTES);
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every malformed line gets one typed error reply, and the connection (and the
    /// workers behind it) keeps serving afterwards.
    #[test]
    fn malformed_lines_get_typed_errors_and_never_wedge_the_server(seed in 0u64..1_000_000) {
        let mut client = Client::connect(server().addr()).expect("connect");
        let line = malformed_line(seed);
        let reply = client.send_raw_line(&line).expect("a reply line always comes back");
        prop_assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "malformed input `{}` must be rejected, got {}",
            line,
            reply.encode()
        );
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        prop_assert!(
            matches!(kind.as_str(), "bad_request" | "oversized"),
            "unexpected error kind `{}` for `{}`",
            kind,
            line
        );
        // The same connection still serves — no worker wedged, no state corrupted.
        client.ping().expect("server still serving after malformed line");
    }
}

#[test]
fn oversized_lines_get_a_typed_reply_and_the_connection_survives() {
    let mut client = Client::connect(server().addr()).expect("connect");
    let huge = format!(r#"{{"id":1,"op":"ping","pad":"{}"}}"#, "x".repeat(2 * MAX_LINE_BYTES));
    let reply = client.send_raw_line(&huge).expect("typed reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("oversized")
    );
    // The remainder of the oversized line is discarded up to its newline; the
    // connection then resumes normal framing.
    client.ping().expect("connection survives an oversized line");
}

#[test]
fn blank_lines_are_skipped_not_answered() {
    // Empty lines produce no reply at all, so this is proved with raw framing: the
    // first reply line on the wire answers the first real request.
    let mut raw = TcpStream::connect(server().addr()).expect("connect raw");
    raw.write_all(b"\n\r\n{\"id\":3,\"op\":\"ping\"}\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let reply = rechisel_serve::json::parse(line.trim_end()).expect("json reply");
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(3), "empty lines produce no replies");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    // Whitespace-only is NOT blank: it is a malformed request and gets a typed,
    // id-less rejection.
    raw.write_all(b"   \n").expect("write");
    line.clear();
    reader.read_line(&mut line).expect("read");
    let reply = rechisel_serve::json::parse(line.trim_end()).expect("json reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad_request")
    );
}

#[test]
fn stalled_partial_lines_time_out_with_a_typed_reply() {
    // A dedicated server with an aggressive read deadline.
    let handle = Server::start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .expect("server starts");

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // First byte starts the per-line deadline; then the line never completes.
    raw.write_all(b"{\"id\":9,\"op\":\"pi").expect("partial write");

    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("timeout reply arrives");
    let reply = rechisel_serve::json::parse(line.trim_end()).expect("json reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("timeout")
    );
    // The server closes the connection after a timeout: EOF, not a hang.
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("EOF after timeout reply");
    assert_eq!(n, 0, "connection closed after the timeout reply");
    handle.shutdown();
}
