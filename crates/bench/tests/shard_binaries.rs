//! End-to-end tests of the binaries, spawned via `CARGO_BIN_EXE_*`: the
//! real `dco-perf` sharded mode (re-exec'd workers over stdio pipes) and
//! the command line of every binary.
//!
//! The lib tests (`shard_run`) already prove shard-count invariance over
//! in-memory links; these prove the *process* plumbing — spawn, framed
//! pipes, result harvest, exit codes — on the actual binaries.

use std::process::{Command, Stdio};

fn perf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dco-perf"))
}

/// `dco-perf --shards 2` at a toy population: two worker processes must
/// fold back to the single-process canonical digest, and the report must
/// record both. This is the per-push CI smoke in miniature.
#[test]
fn dco_perf_shards_reproduces_canonical_digest_across_processes() {
    let out = perf()
        .args(["--shards", "2", "--populations", "100", "--stdout"])
        .output()
        .expect("spawn dco-perf");
    assert!(
        out.status.success(),
        "dco-perf --shards 2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("utf8 report");
    assert!(json.contains("\"schema\": \"dco-perf/v2\""), "{json}");
    assert!(json.contains("\"order\": \"keyed\""), "{json}");
    assert!(json.contains("\"k\": 2"), "{json}");
    let value = |key: &str| {
        let at = json.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        json[at..].split(',').next().unwrap().to_string()
    };
    assert_eq!(value("root_digest"), value("trace_digest"), "{json}");
}

/// `--churn` reaches the measured run in every mode: the report says so
/// and records a different workload from the static one.
#[test]
fn dco_perf_churn_measures_the_churn_workload() {
    let report = |churn: bool| {
        let mut cmd = perf();
        cmd.args(["--populations", "60", "--runs", "1", "--stdout"]);
        if churn {
            cmd.arg("--churn");
        }
        let out = cmd.output().expect("spawn dco-perf");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 report")
    };
    let churn = report(true);
    assert!(churn.contains("\"churn\": true"), "{churn}");
    let digest = |json: &str| json.split("\"trace_digest\"").nth(1).map(str::to_string);
    assert_ne!(digest(&churn), digest(&report(false)));
}

/// A worker whose orchestrator died (stdin at EOF) must exit nonzero
/// promptly instead of hanging on the dead pipe.
#[test]
fn shard_worker_with_dead_pipe_exits_nonzero_without_hanging() {
    let out = perf()
        .args([
            "--shard-worker",
            "0",
            "--shards",
            "2",
            "--populations",
            "100",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn worker");
    assert!(!out.status.success(), "worker must fail on a dead pipe");
}

/// Nonsense worker coordinates are rejected up front.
#[test]
fn shard_worker_index_out_of_range_is_rejected() {
    let out = perf()
        .args([
            "--shard-worker",
            "5",
            "--shards",
            "2",
            "--populations",
            "100",
        ])
        .stdin(Stdio::null())
        .output()
        .expect("spawn worker");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shard-worker"), "{err}");
}

/// Every binary answers `--help` with its usage block and exit 0, and
/// refuses an unknown argument with a non-zero exit before doing any work.
#[test]
fn every_binary_answers_help_and_rejects_unknown_arguments() {
    let bins = [
        ("dco-perf", env!("CARGO_BIN_EXE_dco-perf")),
        ("dco-sweep", env!("CARGO_BIN_EXE_dco-sweep")),
        ("figures", env!("CARGO_BIN_EXE_figures")),
        ("ablations", env!("CARGO_BIN_EXE_ablations")),
        ("run_scenario", env!("CARGO_BIN_EXE_run_scenario")),
    ];
    for (name, exe) in bins {
        let help = Command::new(exe).arg("--help").output().expect(name);
        assert!(help.status.success(), "{name} --help failed");
        let text = String::from_utf8_lossy(&help.stdout);
        assert!(text.starts_with(name), "{name} --help printed:\n{text}");
        let bogus = Command::new(exe).arg("--bogus").output().expect(name);
        assert!(!bogus.status.success(), "{name} accepted --bogus");
        assert!(bogus.stdout.is_empty(), "{name} did work on --bogus");
    }
    // A flag that needs a value and has none is refused too, and
    // `dco-perf` needs exactly one of `--out FILE` and `--stdout`.
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_ablations"), &["--scale"][..]),
        (env!("CARGO_BIN_EXE_dco-perf"), &["--populations", "10"][..]),
        (
            env!("CARGO_BIN_EXE_dco-perf"),
            &["--stdout", "--out", "x.json"][..],
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        assert!(!out.status.success(), "{exe} accepted {args:?}");
        assert!(out.stdout.is_empty(), "{exe} did work on {args:?}");
    }
}
