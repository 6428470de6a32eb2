//! The `rechisel-serve` binary's argument checks: a worker count or a queue bound of
//! zero is a usage error, reported before the server binds a port or starts a worker.

use std::process::Command;

#[test]
fn zero_workers_or_queue_slots_exit_with_the_usage_line() {
    for flag in ["--shards", "--queue-capacity"] {
        let output = Command::new(env!("CARGO_BIN_EXE_rechisel-serve"))
            .args(["--addr", "127.0.0.1:0", flag, "0"])
            .output()
            .expect("the server binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} 0: {stderr}");
        assert!(stderr.contains(&format!("{flag} must be at least 1")), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} 0 started listening");
    }
}
