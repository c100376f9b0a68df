//! Failure drill: a shard worker that stops answering mid-run must end in
//! a named error, counted as a failed run, instead of a hang.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn a_stalled_shard_worker_is_killed_and_counted_as_a_failure() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "shard2-5k",
            "--seconds",
            "1",
            "--drill",
            "stall",
        ])
        .output()
        .expect("perfbench runs");
    let elapsed = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a failed run must not exit 0\n{stderr}"
    );
    assert!(
        stderr.contains("shard worker stalled"),
        "the error must be named\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":2,"),
        "{last}"
    );
    // Two runs, each cut off by the drill's 2 s watchdog: far from a hang.
    assert!(elapsed < Duration::from_secs(90), "took {elapsed:?}");
}
