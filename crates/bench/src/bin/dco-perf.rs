//! `dco-perf` — the recorded performance figures of the simulator core.
//!
//! Times the figures workload — §IV parameters (DCO, 100 chunks, 32
//! neighbors, 200 s horizon, seed 42) with the population scaled up — at
//! each population tier and writes one `dco-perf/v2` report.
//!
//! ```text
//! dco-perf [--populations 1000,10000] [--runs 3] [--churn] [--shards K]
//!          (--out FILE | --stdout)
//! dco-perf --digests
//! ```
//!
//! * Each tier makes `--runs` runs of the single-process FIFO engine
//!   (`run_with_stats`).
//! * `--shards K` makes each run two: the key-ordered engine at `K = 1` in
//!   this process (the canonical run), then the same workload over `K`
//!   re-execs of this binary (the hidden `--shard-worker` mode), each
//!   owning a contiguous ring arc and exchanging cross-shard messages in
//!   lookahead-sized epochs over its stdio pipes.
//! * `--churn` switches to the figs 11–12 churn model
//!   (`ChurnConfig::paper_fig11`).
//! * `--digests` prints the golden digest table of `tests/determinism.rs`.
//!
//! Each tier is [`check`]ed before anything is written: repeat runs must
//! agree, a tier in [`PINS`] must reproduce its events and digest, and a
//! sharded run must fold back to its canonical run. A failure exits
//! non-zero naming the tier.
//!
//! The report is `{"schema": "dco-perf/v2", "records": [record]}`; one
//! record per invocation, its fields listed in EXPERIMENTS.md
//! "Performance". Peak live bytes come from the counting global allocator.

use std::process::ExitCode;
use std::time::Instant;

use dco_bench::shard_run::{orchestrate, run_shard_worker, run_single_canonical, MergedRun};
use dco_bench::sweep::json::Json;
use dco_bench::{run_with_stats, usage_block, Method, RunParams};
use dco_shard::link::PipeLink;
use dco_shard::procpool::{reap_failure, spawn_worker, WorkerProc};
use dco_sim::counters::perf::{CountingAlloc, PerfMeter, PerfSample};
use dco_sim::counters::CounterSnapshot;
use dco_sim::time::{SimDuration, SimTime};
use dco_workload::{ChurnConfig, ScenarioGrid};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCHEMA: &str = "dco-perf/v2";
const DEFAULT_POPULATIONS: [u32; 2] = [1_000, 10_000];
const DEFAULT_RUNS: usize = 3;

/// The engine's tie-break order among same-instant events: the
/// single-queue FIFO engine every figure runs on (pinned by its trace
/// digest), or the canonical-key engine of sharded runs at `K = 1`
/// (pinned by owned events and the order-independent set digest).
const FIFO: &str = "fifo";
const KEYED: &str = "keyed";

/// Pinned tiers of the figures workload: `(churn, order, n_nodes) →
/// (events, digest)`. Where each row was first recorded:
///
/// * FIFO static 1k/5k/10k: the seed engine, before the hot-path overhaul;
/// * FIFO static 50k/100k: the retained-observer engine, before the flat
///   layout;
/// * FIFO churn 1k/10k: the engine before the churn books were flattened;
///   50k on the flat engine, the first that fits the tier;
/// * keyed: the `K = 1` canonical run
///   (`dco-perf --shards 1 --populations N [--churn] --stdout`).
///
/// A tier missing here is measured and self-checked, but not pinned.
const PINS: &[(bool, &str, u32, u64, u64)] = &[
    (false, FIFO, 1_000, 7_258_472, 0xfedd_21ae_0462_f672),
    (false, FIFO, 5_000, 42_659_350, 0xabe2_aa4c_859a_84cc),
    (false, FIFO, 10_000, 91_365_887, 0x10ef_10a0_8935_a8b8),
    (false, FIFO, 50_000, 572_125_634, 0x5b90_2f59_2f12_da68),
    (false, FIFO, 100_000, 1_270_885_329, 0x79c2_50f0_fd68_ba07),
    (true, FIFO, 1_000, 13_019_723, 0x7054_7214_70b6_2603),
    (true, FIFO, 10_000, 152_428_043, 0x8f05_16e3_66f1_8e2e),
    (true, FIFO, 50_000, 830_212_465, 0xb2e5_7273_57d3_b252),
    (false, KEYED, 1_000, 7_280_215, 0x2afc_390e_2ce4_91bd),
    (false, KEYED, 10_000, 90_461_498, 0x88ef_a932_000b_b76d),
    (true, KEYED, 1_000, 13_000_317, 0x9c2b_e5aa_ec6f_2a3c),
    (true, KEYED, 10_000, 153_109_518, 0x506c_0da9_4974_3478),
];

/// The pinned `(events, digest)` of a tier, if it has one.
fn pin(churn: bool, order: &str, n_nodes: u32) -> Option<(u64, u64)> {
    PINS.iter()
        .find(|&&(c, o, n, ..)| (c, o, n) == (churn, order, n_nodes))
        .map(|&(.., events, digest)| (events, digest))
}

/// The figures workload at population `n_nodes`: §IV defaults, seed 42,
/// and the figs 11–12 churn model when `churn` is set.
fn figures_params(n_nodes: u32, churn: bool) -> RunParams {
    let mut p = RunParams::paper_default(42);
    p.n_nodes = n_nodes;
    if churn {
        p.churn = Some(ChurnConfig::paper_fig11());
    }
    p
}

/// One measured run of a tier.
struct Run {
    /// The single-process run; its `events` count what the pins count,
    /// all dispatched events (FIFO) or owned events (keyed).
    sample: PerfSample,
    /// Trace digest (FIFO) or set digest (keyed).
    digest: u64,
    received_pct: f64,
    counters: CounterSnapshot,
    /// With `--shards`: the K-process run and its wall clock in ms, from
    /// spawn to the last worker's exit.
    sharded: Option<(f64, MergedRun)>,
}

/// Makes one run of `params`: the FIFO engine when `shards == 0`, else
/// the canonical run followed by the `shards`-process run.
fn measure_run(params: &RunParams, shards: u8) -> Result<Run, String> {
    let meter = PerfMeter::start();
    if shards == 0 {
        let stats = run_with_stats(Method::Dco, params);
        return Ok(Run {
            sample: meter.finish(stats.proof.events),
            digest: stats.proof.trace_digest,
            received_pct: stats.result.received_pct,
            counters: stats.proof.snapshot,
            sharded: None,
        });
    }
    let single = run_single_canonical(params).map_err(|e| e.to_string())?;
    let sample = meter.finish(single.owned_events);
    let t0 = Instant::now();
    let merged = run_workers(params, shards)?;
    Ok(Run {
        sample,
        digest: single.set_digest,
        received_pct: single.figures.received_pct,
        counters: single.counters,
        sharded: Some((t0.elapsed().as_secs_f64() * 1e3, merged)),
    })
}

/// Spawns `k` shard workers, relays their epochs and folds their results.
fn run_workers(params: &RunParams, k: u8) -> Result<MergedRun, String> {
    let mut workers: Vec<WorkerProc> = Vec::with_capacity(usize::from(k));
    for me in 0..k {
        let churn = if params.churn.is_some() {
            " --churn"
        } else {
            ""
        };
        let argv = format!(
            "--shard-worker {me} --shards {k} --populations {}{churn}",
            params.n_nodes
        );
        let argv: Vec<String> = argv.split(' ').map(String::from).collect();
        match spawn_worker(&argv, usize::from(me)) {
            Ok(w) => workers.push(w),
            Err(e) => return Err(reap_failure(workers, e).to_string()),
        }
    }
    let merged = {
        let mut links: Vec<_> = workers.iter_mut().map(|w| &mut w.link).collect();
        orchestrate(params, &mut links)
    };
    let merged = match merged {
        Ok(m) => m,
        Err(e) => return Err(reap_failure(workers, e).to_string()),
    };
    // Reap every worker before reporting the first failure.
    let finished: Vec<_> = workers.into_iter().map(WorkerProc::finish).collect();
    match finished.into_iter().find_map(Result::err) {
        Some(e) => Err(e.to_string()),
        None => Ok(merged),
    }
}

/// Checks a measured tier before it may be reported: every run
/// reproduces the first, a pinned tier reproduces its pin, and every
/// sharded run folds back to its canonical run (root digest, owned events,
/// counters, received %). The error names the tier.
fn check(churn: bool, order: &str, n_nodes: u32, runs: &[Run]) -> Result<(), String> {
    let name = format!("n={n_nodes} churn={churn} order={order}");
    let first = runs.first().ok_or(format!("{name}: no runs"))?;
    let got = (first.sample.events, first.digest);
    if let Some(want) = pin(churn, order, n_nodes).filter(|&want| want != got) {
        return Err(format!(
            "{name}: (events, digest) {got:x?} != pin {want:x?}"
        ));
    }
    for (i, run) in runs.iter().enumerate() {
        let again = (run.sample.events, run.digest);
        if again != got {
            return Err(format!(
                "{name}: run {} {again:x?} != run 1 {got:x?}",
                i + 1
            ));
        }
        let Some((_, m)) = &run.sharded else { continue };
        let received = m.figures.received_pct.to_bits() == run.received_pct.to_bits();
        let folds = [
            ("root digest", m.root_digest == run.digest),
            ("owned events", m.owned_events == run.sample.events),
            ("counters", m.counters == run.counters),
            ("received %", received),
        ];
        if let Some((what, _)) = folds.iter().find(|(_, same)| !same) {
            let k = m.workers.len();
            return Err(format!(
                "{name} K={k}: {what} differs from the canonical run"
            ));
        }
    }
    Ok(())
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn ms_json(walls: &[f64]) -> Json {
    Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect())
}

fn shard_json(sharded: &[&(f64, MergedRun)], tier_wall_median: f64) -> Json {
    let walls: Vec<f64> = sharded.iter().map(|(wall, _)| *wall).collect();
    let wall_median = median(&walls);
    let m = &sharded[sharded.len() - 1].1;
    let workers = m.workers.iter().map(|w| {
        Json::obj(vec![
            ("shard", Json::Int(u64::from(w.shard))),
            ("owned_events", Json::Int(w.owned_events)),
            ("events_processed", Json::Int(w.events_processed)),
            ("remote_msgs_sent", Json::Int(w.remote_msgs_sent)),
            ("set_digest", Json::hex(w.set_digest)),
            ("wall_ms", Json::Num(w.wall_ms)),
            ("allocs", Json::Int(w.allocs)),
            ("peak_live_bytes", Json::Int(w.peak_live_bytes)),
        ])
    });
    let peak_max = m.workers.iter().map(|w| w.peak_live_bytes).max();
    Json::obj(vec![
        ("k", Json::Int(m.workers.len() as u64)),
        ("wall_ms_runs", ms_json(&walls)),
        ("wall_ms_median", Json::Num(wall_median)),
        ("speedup", Json::Num(tier_wall_median / wall_median)),
        ("root_digest", Json::hex(m.root_digest)),
        ("owned_events", Json::Int(m.owned_events)),
        ("events_processed", Json::Int(m.events_processed)),
        ("epochs", Json::Int(m.epochs)),
        ("cross_shard_msgs", Json::Int(m.remote_msgs)),
        ("cross_shard_batches", Json::Int(m.forwarded_batches)),
        ("cross_shard_bytes", Json::Int(m.forwarded_bytes)),
        ("peak_live_bytes_max", Json::Int(peak_max.unwrap_or(0))),
        ("received_pct", Json::Num(m.figures.received_pct)),
        ("workers", Json::Arr(workers.collect())),
    ])
}

fn tier_json((n_nodes, runs): &(u32, Vec<Run>)) -> Json {
    let samples: Vec<&PerfSample> = runs.iter().map(|r| &r.sample).collect();
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ms()).collect();
    let wall_median = median(&walls);
    let first = &runs[0];
    let events = first.sample.events;
    // Allocator figures: the least turnover and the highest water marks
    // over the runs (runs are deterministic; this is robust to a cold
    // first run).
    let allocs = samples.iter().map(|s| s.alloc.allocs).min().unwrap_or(0);
    let alloc_bytes = samples.iter().map(|s| s.alloc.bytes).min().unwrap_or(0);
    let peak = samples.iter().map(|s| s.peak_live_bytes).max().unwrap_or(0);
    let live_end = samples.iter().map(|s| s.live_bytes_end).max().unwrap_or(0);
    let sharded: Vec<_> = runs.iter().filter_map(|r| r.sharded.as_ref()).collect();
    let shard = match sharded.is_empty() {
        true => Json::Null,
        false => shard_json(&sharded, wall_median),
    };
    let events_per_sec = events as f64 / (wall_median / 1e3);
    let bytes_per_node = peak / u64::from((*n_nodes).max(1));
    Json::obj(vec![
        ("n_nodes", Json::Int(u64::from(*n_nodes))),
        ("wall_ms_runs", ms_json(&walls)),
        ("wall_ms_median", Json::Num(wall_median)),
        ("events", Json::Int(events)),
        ("events_per_sec", Json::Num(events_per_sec)),
        ("allocs", Json::Int(allocs)),
        ("alloc_bytes", Json::Int(alloc_bytes)),
        ("peak_live_bytes", Json::Int(peak)),
        ("bytes_per_node", Json::Int(bytes_per_node)),
        ("live_bytes_end", Json::Int(live_end)),
        ("received_pct", Json::Num(first.received_pct)),
        ("trace_digest", Json::hex(first.digest)),
        ("shard", shard),
    ])
}

fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The whole report: one record of this invocation's tiers.
fn report_json(args: &Args, order: &str, tiers: &[(u32, Vec<Run>)]) -> Json {
    let p = figures_params(0, args.churn);
    let record = Json::obj(vec![
        ("label", Json::str("current")),
        ("host_cores", Json::Int(host_cores())),
        (
            "scenario",
            Json::obj(vec![
                ("method", Json::str("DCO")),
                ("n_chunks", Json::Int(u64::from(p.n_chunks))),
                ("neighbors", Json::Int(p.neighbors as u64)),
                ("horizon_s", Json::Int(p.horizon.as_secs())),
                ("seed", Json::Int(p.seed)),
                ("churn", Json::Bool(args.churn)),
                ("order", Json::str(order)),
            ]),
        ),
        ("runs", Json::Int(args.runs as u64)),
        ("tiers", Json::Arr(tiers.iter().map(tier_json).collect())),
    ]);
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("records", Json::Arr(vec![record])),
    ])
}

/// Measures, checks and reports every tier of `args`.
fn run_tiers(args: &Args) -> Result<(), String> {
    let (k, order) = (args.shards, if args.shards == 0 { FIFO } else { KEYED });
    let cores = host_cores();
    eprintln!(
        "dco-perf: populations {:?}, {} runs, churn={}, order={order}, shards={k}, host cores {cores}",
        args.populations, args.runs, args.churn
    );
    if cores < u64::from(k) {
        eprintln!("dco-perf: note: {k} workers on {cores} core(s) time-slice; expect speedup <= 1");
    }
    let mut tiers = Vec::with_capacity(args.populations.len());
    for &n in &args.populations {
        let params = figures_params(n, args.churn);
        let mut runs = Vec::with_capacity(args.runs);
        for i in 1..=args.runs {
            let run = measure_run(&params, args.shards)?;
            let (s, mib) = (&run.sample, run.sample.peak_live_bytes >> 20);
            let (ms, ev) = (s.wall_ms(), s.events);
            eprintln!(
                "  n={n} run {i}: {ms:.1} ms, {ev} events, peak {mib} MiB, {:#018x}",
                run.digest
            );
            if let Some((wall_ms, m)) = &run.sharded {
                let (msgs, bytes) = (m.remote_msgs, m.forwarded_bytes);
                eprintln!("    K={k}: {wall_ms:.1} ms, {msgs} cross-shard msgs, {bytes} bytes");
            }
            runs.push(run);
        }
        check(args.churn, order, n, &runs)?;
        let pinned = pin(args.churn, order, n).map_or("", |_| ", matches its pin");
        eprintln!("  n={n}: checked{pinned}");
        tiers.push((n, runs));
    }
    let json = report_json(args, order, &tiers).render_pretty();
    match &args.out {
        None => print!("{json}"),
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("dco-perf: wrote {path}");
        }
    }
    Ok(())
}

/// Hidden `--shard-worker` mode: run one shard's arc of the figures
/// workload, speaking the epoch protocol over this process's stdio.
fn shard_worker_main(args: &Args, me: u8) -> Result<(), String> {
    if me >= args.shards {
        return Err(format!("--shard-worker {me} needs --shards > {me}"));
    }
    let params = figures_params(args.populations[0], args.churn);
    let mut link = PipeLink::new(std::io::stdin(), std::io::stdout());
    run_shard_worker(&params, args.shards, me, &mut link).map_err(|e| format!("worker {me}: {e}"))
}

/// Prints the golden trace-digest table for the five cross-protocol seeds:
/// every method, with and without churn, on the small determinism cell.
/// The output is the Rust table pinned in `tests/determinism.rs`.
fn print_digest_table() {
    let seeds = ScenarioGrid::seed_list(0xC2055, 5);
    println!("const GOLDEN_DIGESTS: &[(&str, bool, u64, u64)] = &[");
    for method in [
        Method::Dco,
        Method::Pull,
        Method::Push,
        Method::Tree,
        Method::TreeStar,
    ] {
        for churn in [false, true] {
            for &seed in &seeds {
                let params = RunParams {
                    n_nodes: 20,
                    n_chunks: 8,
                    neighbors: 8,
                    churn: churn.then(|| ChurnConfig::paper_fig12(25)),
                    horizon: SimTime::from_secs(50),
                    tree_degree: Some(2),
                    fill_offset: SimDuration::from_secs(5),
                    seed,
                };
                let digest = run_with_stats(method, &params).proof.trace_digest;
                println!(
                    "    ({:?}, {churn}, {seed:#x}, {digest:#018x}),",
                    method.label()
                );
            }
        }
    }
    println!("];");
}

#[derive(Default)]
struct Args {
    populations: Vec<u32>,
    runs: usize,
    churn: bool,
    /// Worker processes per sharded run; 0 runs the FIFO engine instead.
    shards: u8,
    /// Where the report goes; `None` is stdout.
    out: Option<String>,
    digests: bool,
    /// Hidden: this process is shard worker `me` of `shards` — speak the
    /// epoch protocol on stdin/stdout and exit.
    shard_worker: Option<u8>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        populations: DEFAULT_POPULATIONS.to_vec(),
        runs: DEFAULT_RUNS,
        ..Args::default()
    };
    let mut stdout = false;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} expects a value"));
        match arg.as_str() {
            "--populations" => {
                args.populations = value()?
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().map_err(|e| format!("{s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--churn" => args.churn = true,
            "--shards" => {
                args.shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards needs at least 1".to_string());
                }
            }
            "--out" => args.out = Some(value()?),
            "--stdout" => stdout = true,
            "--digests" => args.digests = true,
            "--shard-worker" => {
                args.shard_worker = Some(value()?.parse().map_err(|e| format!("{arg}: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.runs == 0 || args.populations.is_empty() {
        return Err("need at least one run and one population".to_string());
    }
    let measuring = !args.digests && args.shard_worker.is_none();
    if measuring && stdout == args.out.is_some() {
        return Err("give exactly one of --out FILE and --stdout".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let usage = usage_block(include_str!("dco-perf.rs"));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{usage}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dco-perf: {e}");
            eprint!("usage: {usage}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.digests {
        print_digest_table();
        Ok(())
    } else if let Some(me) = args.shard_worker {
        shard_worker_main(&args, me)
    } else {
        run_tiers(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dco-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_metrics::observer::FigureMetrics;
    use dco_sim::counters::perf::AllocStats;

    fn run(events: u64, digest: u64) -> Run {
        let sample = PerfSample {
            wall_ns: 1_000_000,
            events,
            alloc: AllocStats::default(),
            peak_live_bytes: 0,
            live_bytes_end: 0,
        };
        let counters = CounterSnapshot {
            control_total: 3,
            data_total: 1,
            by_tag: Vec::new(),
            control_per_sec: vec![3],
            dropped_dead: 0,
            dropped_fault: 0,
        };
        Run {
            sample,
            digest,
            received_pct: 100.0,
            counters,
            sharded: None,
        }
    }

    #[test]
    fn check_rejects_a_doctored_tier_by_name() {
        let (events, digest) = pin(false, FIFO, 1_000).unwrap();
        assert_eq!(check(false, FIFO, 1_000, &[run(events, digest)]), Ok(()));
        for doctored in [run(events, digest ^ 1), run(events + 1, digest)] {
            let err = check(false, FIFO, 1_000, &[doctored]).unwrap_err();
            assert!(
                err.starts_with("n=1000 churn=false order=fifo: (events, digest)"),
                "{err}"
            );
        }
        // An unpinned tier still has to agree with itself.
        let err = check(true, FIFO, 7, &[run(10, 1), run(10, 2)]).unwrap_err();
        assert!(err.starts_with("n=7 churn=true order=fifo: run 2"), "{err}");
    }

    #[test]
    fn check_rejects_a_sharded_run_that_does_not_fold_back() {
        let canonical = run(10, 0xAB);
        let sharded = |doctor: fn(&mut MergedRun)| {
            let mut m = MergedRun {
                workers: Vec::new(),
                epochs: 1,
                forwarded_batches: 0,
                forwarded_bytes: 0,
                root_digest: 0xAB,
                owned_events: 10,
                events_processed: 10,
                remote_msgs: 0,
                counters: canonical.counters.clone(),
                figures: FigureMetrics {
                    received_by_second: Vec::new(),
                    expected_pairs: 0,
                    mean_mesh_delay: 0.0,
                    fill_at_offsets: Vec::new(),
                    received_pct: 100.0,
                },
            };
            doctor(&mut m);
            let mut r = run(10, 0xAB);
            r.sharded = Some((1.0, m));
            check(false, KEYED, 7, &[r])
        };
        assert_eq!(sharded(|_| {}), Ok(()));
        type Doctor = fn(&mut MergedRun);
        let doctored: [(&str, Doctor); 4] = [
            ("root digest", |m| m.root_digest ^= 1),
            ("owned events", |m| m.owned_events += 1),
            ("counters", |m| m.counters.control_total += 1),
            ("received %", |m| m.figures.received_pct = 99.0),
        ];
        for (what, doctor) in doctored {
            let want =
                format!("n=7 churn=false order=keyed K=0: {what} differs from the canonical run");
            assert_eq!(sharded(doctor), Err(want));
        }
    }

    /// Every tier a committed `BENCH_*.json` records for a pinned
    /// `(churn, order, N)` carries exactly the pinned events and digest.
    /// [`Json`] pretty-prints one key per line, so a line scan reads them.
    #[test]
    fn committed_reports_agree_with_the_pins() {
        let files = [
            include_str!("../../../../BENCH_sim_core.json"),
            include_str!("../../../../BENCH_scale.json"),
            include_str!("../../../../BENCH_churn_scale.json"),
            include_str!("../../../../BENCH_shard.json"),
        ];
        let mut pinned = 0;
        for text in files {
            assert!(text.contains(&format!("\"schema\": \"{SCHEMA}\"")));
            let (mut churn, mut order, mut n, mut events) = (false, String::new(), 0, 0);
            for line in text.lines() {
                let Some((key, v)) = line.trim().split_once(": ") else {
                    continue;
                };
                let v = v.trim_end_matches(',').trim_matches('"');
                match key {
                    "\"churn\"" => churn = v == "true",
                    "\"order\"" => order = v.to_string(),
                    "\"n_nodes\"" => n = v.parse().unwrap(),
                    "\"events\"" => events = v.parse().unwrap(),
                    "\"trace_digest\"" => {
                        let Some(want) = pin(churn, &order, n) else {
                            continue;
                        };
                        let digest = u64::from_str_radix(&v[2..], 16).unwrap();
                        assert_eq!((events, digest), want, "churn={churn} {order} n={n}");
                        pinned += 1;
                    }
                    _ => {}
                }
            }
        }
        // sim_core: seed engine + current at 1k/5k/10k; scale: 1k-100k;
        // churn: 1k/10k/50k; shard: keyed 1k/10k.
        assert_eq!(pinned, 6 + 4 + 3 + 2);
    }
}
