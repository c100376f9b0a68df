//! `perfbench` — the repository's benchmark of the DCO simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the named workload (or all four in turn) for about `--seconds`
//! host seconds and checks every run's simulated outcome against the
//! pinned reference. The last line on stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it is a full report: host, samples, outcome, pin status.
//! `README.md` in this directory describes workloads and metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dco_baselines::PullProtocol;
use dco_bench::runner::RunParams;
use dco_bench::sweep::json::Json;
use dco_core::proto::DcoProtocol;
use dco_sim::counters::perf::CountingAlloc;
use dco_workload::ChurnConfig;

mod host;
mod layers;
mod link;
mod pins;
mod probes;
mod shard;
mod single;
mod stats;

use layers::{Layers, END_TO_END, SHARD_WORKERS};
use pins::Outcome;
use shard::{ShardPlan, STALL_TIMEOUT};
use single::{Overlay, Sample};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The benchmark's workloads. See `README.md` for why each was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Static2k,
    Churn1k,
    Pull1k,
    Shard2x5k,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Static2k,
        Workload::Churn1k,
        Workload::Pull1k,
        Workload::Shard2x5k,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Static2k => "static-2k",
            Workload::Churn1k => "churn-1k",
            Workload::Pull1k => "pull-1k",
            Workload::Shard2x5k => "shard2-5k",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The figures workload (§IV: 100 chunks, 32 neighbours, 200 s) at
    /// this workload's population, churn model and seed.
    fn params(self, seed: u64) -> RunParams {
        let mut p = RunParams::paper_default(seed);
        p.n_nodes = match self {
            Workload::Static2k => 2_000,
            Workload::Shard2x5k => 5_000,
            Workload::Churn1k | Workload::Pull1k => 1_000,
        };
        if self == Workload::Churn1k {
            p.churn = Some(ChurnConfig::paper_fig11());
        }
        p
    }
}

/// Runs per invocation never drop below this, so every median has at
/// least two samples.
const MIN_RUNS: usize = 2;
/// No new run starts after this much measuring, whatever `--seconds`
/// says, so an invocation ends well inside three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(100);
/// Set-up is milliseconds, so only a median over many repetitions is
/// steady, and repetitions taken in one burst share that moment's host
/// noise. So one round of repetitions precedes every run, spreading them
/// over the invocation. A single-process round discards `SETUP_WARMUP`
/// repetitions (the first ones fault in fresh pages, later ones reuse
/// them), then takes at least `SETUP_ROUND_MIN`, more until
/// `SETUP_ROUND_BUDGET` is spent, at most `SETUP_ROUND_MAX`.
const SETUP_WARMUP: usize = 3;
const SETUP_ROUND_MIN: usize = 5;
const SETUP_ROUND_MAX: usize = 50;
const SETUP_ROUND_BUDGET: Duration = Duration::from_millis(250);
/// Spawn-to-barrier repetitions per round of the sharded workload; the
/// invocation's very first one is discarded as a warm-up.
const SHARD_SETUP_ROUND: usize = 4;
/// Failure drill: the stalled worker's barrier, and the watchdog limit.
const DRILL_STALL_EPOCH: u64 = 10;
const DRILL_STALL_TIMEOUT: Duration = Duration::from_secs(2);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    drill_stall: bool,
}

/// The hidden worker mode's arguments: shard `me` of the sharded
/// workload's [`SHARD_WORKERS`].
struct WorkerArgs {
    me: u8,
    seed: u64,
    trace: bool,
    stall_at_epoch: Option<u64>,
}

enum Mode {
    Bench(Args),
    Worker(WorkerArgs),
}

const USAGE: &str = "usage: perfbench --workload <static-2k|churn-1k|pull-1k|shard2-5k|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: pins::PIN_SEED,
        seconds: 30.0,
        trace: false,
        drill_stall: false,
    };
    let mut worker: Option<WorkerArgs> = None;
    let mut it = argv;
    let num = |flag: &str, v: Option<String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
        v.parse().map_err(|e| format!("{flag} {v}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let v = it.next().ok_or("--workload expects a value")?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => args.seed = num("--seed", it.next())?,
            "--seconds" => {
                let s = num("--seconds", it.next())?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                args.seconds = s as f64;
            }
            "--trace" => {
                args.trace = match num("--trace", it.next())? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("--trace {t}: expected 0 or 1")),
                }
            }
            "--drill" => match it.next().as_deref() {
                Some("stall") => args.drill_stall = true,
                other => return Err(format!("--drill {other:?}: the only drill is `stall`")),
            },
            "--shard-worker" => {
                worker = Some(WorkerArgs {
                    me: u8::try_from(num("--shard-worker", it.next())?)
                        .map_err(|e| e.to_string())?,
                    seed: 0,
                    trace: false,
                    stall_at_epoch: None,
                })
            }
            "--stall-at-epoch" => {
                let v = num(&arg, it.next())?;
                worker
                    .as_mut()
                    .ok_or("--stall-at-epoch needs --shard-worker")?
                    .stall_at_epoch = Some(v);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(mut w) = worker {
        if w.me >= SHARD_WORKERS {
            return Err(format!(
                "--shard-worker {}: at most {}",
                w.me,
                SHARD_WORKERS - 1
            ));
        }
        w.seed = args.seed;
        w.trace = args.trace;
        return Ok(Mode::Worker(w));
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Mode::Bench(args))
}

/// Everything one workload's invocation measured.
struct WorkloadResult {
    workload: Workload,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    samples: Vec<Sample>,
    setup_samples: Vec<f64>,
    outcome: Option<Outcome>,
    pinned: bool,
    layers: Option<Layers>,
}

impl WorkloadResult {
    fn new(workload: Workload, seed: u64) -> Self {
        WorkloadResult {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            setup_samples: Vec::new(),
            outcome: None,
            pinned: pins::pin_for(workload.name(), seed).is_some(),
            layers: None,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.outcome.is_some()
    }

    /// Records one run's result: a panic, an error, or an outcome that
    /// must match the pin and the first run.
    fn record(&mut self, seed: u64, result: Result<(Sample, Outcome), String>) -> bool {
        self.attempted += 1;
        let checked = result.and_then(|(sample, outcome)| {
            pins::check(self.workload.name(), seed, &outcome, self.outcome.as_ref())?;
            Ok((sample, outcome))
        });
        match checked {
            Ok((sample, outcome)) => {
                self.outcome.get_or_insert(outcome);
                self.samples.push(sample);
                true
            }
            Err(e) => {
                eprintln!(
                    "perfbench: {}: run {} failed: {e}",
                    self.workload.name(),
                    self.attempted
                );
                self.failed += 1;
                self.failures.push(e);
                false
            }
        }
    }

    /// End-to-end metrics: medians over the successful runs.
    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64, usize)> {
        let med = |f: fn(&Sample) -> f64| {
            let xs: Vec<f64> = self.samples.iter().map(f).collect();
            stats::median(&xs).unwrap_or(0.0)
        };
        let n = self.samples.len();
        let setup = stats::median(&self.setup_samples).unwrap_or(0.0);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (v, count) = match name {
                    "wall_s" => (med(|s| s.wall_s), n),
                    "setup_s" => (setup, self.setup_samples.len()),
                    "events_per_s" => (med(Sample::events_per_s), n),
                    "peak_mem_mib" => (med(|s| s.peak_bytes as f64 / (1024.0 * 1024.0)), n),
                    other => unreachable!("END_TO_END lists {other} without a rule"),
                };
                (name, unit, v, count)
            })
            .collect()
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p))))
}

fn shard_plan(params: RunParams, traced: bool, drill_stall: bool) -> ShardPlan {
    ShardPlan {
        params,
        traced,
        stall_at_epoch: drill_stall.then_some(DRILL_STALL_EPOCH),
        stall_timeout: if drill_stall {
            DRILL_STALL_TIMEOUT
        } else {
            STALL_TIMEOUT
        },
    }
}

/// One plain (untraced) run of `w`.
fn plain_run(
    w: Workload,
    params: &RunParams,
    drill_stall: bool,
) -> Result<(Sample, Outcome), String> {
    guarded(|| match w {
        Workload::Static2k | Workload::Churn1k => Ok(single::run_plain::<DcoProtocol>(params)),
        Workload::Pull1k => Ok(single::run_plain::<PullProtocol>(params)),
        Workload::Shard2x5k => shard::run(&shard_plan(params.clone(), false, drill_stall))
            .map(|r| (r.sample, r.outcome))
            .map_err(|e| e.to_string()),
    })
}

/// One round of set-up timings; the median over all rounds is `setup_s`.
fn setup_round(w: Workload, params: &RunParams, first: bool) -> Result<Vec<f64>, String> {
    fn reps<P: Overlay>(params: &RunParams) -> Vec<f64> {
        // The previous simulator is dropped only after the next one is
        // built, so freed blocks never sit at the top of the heap, where
        // the allocator may hand them back to the OS. Every repetition
        // then reuses warm memory instead of some repetitions faulting
        // in fresh pages.
        let mut prev = None;
        for _ in 0..SETUP_WARMUP {
            prev = Some(single::install::<P>(params));
        }
        let t0 = Instant::now();
        let mut out = Vec::new();
        while out.len() < SETUP_ROUND_MIN
            || (t0.elapsed() < SETUP_ROUND_BUDGET && out.len() < SETUP_ROUND_MAX)
        {
            let inst = single::install::<P>(params);
            out.push(inst.setup_s());
            prev = Some(inst);
        }
        drop(prev);
        out
    }
    guarded(|| match w {
        Workload::Static2k | Workload::Churn1k => Ok(reps::<DcoProtocol>(params)),
        Workload::Pull1k => Ok(reps::<PullProtocol>(params)),
        Workload::Shard2x5k => (0..SHARD_SETUP_ROUND + usize::from(first))
            .map(|_| shard::setup_only(&shard_plan(params.clone(), false, false)))
            .skip(usize::from(first))
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| e.to_string()),
    })
}

/// The end-to-end measurement: plain runs, each after a round of set-up
/// repetitions, until `seconds` would be exceeded (at least
/// [`MIN_RUNS`]).
fn measure(w: Workload, args: &Args) -> WorkloadResult {
    let params = w.params(args.seed);
    let mut res = WorkloadResult::new(w, args.seed);
    let start = Instant::now();
    let mut last = 0.0;
    while res.attempted < MIN_RUNS as u64
        || (start.elapsed().as_secs_f64() + last <= args.seconds && start.elapsed() < HARD_LIMIT)
    {
        let t = Instant::now();
        match setup_round(w, &params, res.setup_samples.is_empty()) {
            Ok(s) => res.setup_samples.extend(s),
            Err(e) => {
                res.attempted += 1;
                res.failed += 1;
                res.failures.push(format!("set-up: {e}"));
            }
        }
        res.record(args.seed, plain_run(w, &params, args.drill_stall));
        last = t.elapsed().as_secs_f64();
    }
    res
}

/// The traced measurement: one plain run, one traced run that must
/// reproduce it, the replay probes, and the per-layer numbers.
fn measure_traced(w: Workload, args: &Args) -> WorkloadResult {
    let params = w.params(args.seed);
    let mut res = WorkloadResult::new(w, args.seed);
    if !res.record(args.seed, plain_run(w, &params, args.drill_stall)) {
        return res;
    }
    let plain_wall = res.samples[0].wall_s;
    let traced = guarded(|| match w {
        Workload::Static2k | Workload::Churn1k => {
            let t = single::run_traced::<DcoProtocol>(&params);
            Ok((t.sample, t.outcome, layers::dco_layers(&t, args.seed)))
        }
        Workload::Pull1k => {
            let t = single::run_traced::<PullProtocol>(&params);
            Ok((t.sample, t.outcome, layers::pull_layers(&t, args.seed)))
        }
        Workload::Shard2x5k => {
            let r = shard::run(&shard_plan(params.clone(), true, args.drill_stall))
                .map_err(|e| e.to_string())?;
            Ok((r.sample, r.outcome, layers::shard_layers(&r)))
        }
    });
    let (result, layers) = match traced {
        Ok((sample, outcome, layers)) => (Ok((sample, outcome)), Some(layers)),
        Err(e) => (Err(e), None),
    };
    if res.record(args.seed, result) {
        let mut layers = layers.expect("a successful traced run has layers");
        layers.insert(
            "trace.overhead".to_string(),
            res.samples[1].wall_s / plain_wall.max(1e-9),
        );
        res.layers = Some(layers);
    }
    res
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// The full report line of one workload.
fn report_json(args: &Args, host: &host::Host, r: &WorkloadResult) -> Json {
    let series = |f: fn(&Sample) -> f64| Json::Arr(r.samples.iter().map(|s| num(f(s))).collect());
    let walls: Vec<f64> = r.samples.iter().map(|s| s.wall_s).collect();
    let wall_quartiles = stats::quartiles(&walls).map_or(Json::Null, |q| {
        Json::Arr(q.iter().map(|&x| num(x)).collect())
    });
    let e2e = r
        .end_to_end()
        .into_iter()
        .map(|(name, unit, v, n)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", num(v)),
                    ("unit", Json::str(unit)),
                    ("samples", Json::Int(n as u64)),
                ]),
            )
        })
        .collect();
    let not_exercised = r.layers.as_ref().map_or(Json::Null, |l| {
        Json::Arr(
            layers::per_layer_catalog()
                .into_iter()
                .filter(|(n, _)| !l.contains_key(n))
                .map(|(n, _)| Json::Str(n))
                .collect(),
        )
    });
    let outcome = r.outcome.map_or(Json::Null, |o| {
        Json::obj(vec![
            ("digest", Json::hex(o.digest)),
            ("events", Json::Int(o.events)),
            ("received_pct", num(o.received_pct)),
            ("mean_mesh_delay", num(o.mean_mesh_delay)),
            ("overhead_units", Json::Int(o.overhead_units)),
        ])
    });
    Json::obj(vec![
        ("report", Json::str("perfbench")),
        ("workload", Json::str(r.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host.json()),
        ("attempted", Json::Int(r.attempted)),
        ("failed", Json::Int(r.failed)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
        ("outcome", outcome),
        (
            "check",
            Json::str(if r.pinned {
                "pinned outcome"
            } else {
                "runs agree (no pin at this seed)"
            }),
        ),
        ("end_to_end", Json::Obj(e2e)),
        ("wall_s_quartiles", wall_quartiles),
        (
            "samples",
            Json::obj(vec![
                ("wall_s", series(|s| s.wall_s)),
                (
                    "setup_s",
                    Json::Arr(r.setup_samples.iter().map(|&x| num(x)).collect()),
                ),
                ("run_setup_s", series(|s| s.setup_s)),
                ("dispatch_s", series(|s| s.dispatch_s)),
                ("events", series(|s| s.events as f64)),
                ("peak_bytes", series(|s| s.peak_bytes as f64)),
            ]),
        ),
        ("not_exercised", not_exercised),
    ])
}

/// The metrics of the result line. `prefix` qualifies names when one
/// invocation runs several workloads.
fn metrics_json(r: &WorkloadResult, trace: bool, prefix: &str) -> Vec<(String, Json)> {
    let metric = |v: f64, unit: &str| Json::obj(vec![("value", num(v)), ("unit", Json::str(unit))]);
    if trace {
        let empty = Layers::new();
        let l = r.layers.as_ref().unwrap_or(&empty);
        layers::per_layer_catalog()
            .into_iter()
            .map(|(name, unit)| {
                let v = l.get(&name).copied().unwrap_or(0.0);
                (format!("{prefix}{name}"), metric(v, unit))
            })
            .collect()
    } else {
        r.end_to_end()
            .into_iter()
            .map(|(name, unit, v, _)| (format!("{prefix}{name}"), metric(v, unit)))
            .collect()
    }
}

fn main() -> ExitCode {
    let mode = match parse_args(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = match mode {
        Mode::Worker(w) => {
            let params = Workload::Shard2x5k.params(w.seed);
            return match shard::worker_main(&params, w.me, w.trace, w.stall_at_epoch) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: shard worker {}: {e}", w.me);
                    ExitCode::FAILURE
                }
            };
        }
        Mode::Bench(a) => a,
    };
    // `dco_shard::procpool` captures each worker's stderr to a file in the
    // temp directory; keep those files inside the build directory.
    let tmp = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("perfbench-tmp")));
    if let Some(dir) = tmp.filter(|d| std::fs::create_dir_all(d).is_ok()) {
        std::env::set_var("TMPDIR", dir);
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        eprintln!(
            "perfbench: {} seed {} ({} s{})",
            w.name(),
            args.seed,
            args.seconds,
            if args.trace { ", traced" } else { "" }
        );
        let r = if args.trace {
            measure_traced(w, &args)
        } else {
            measure(w, &args)
        };
        for (name, unit, v, n) in r.end_to_end() {
            eprintln!(
                "  {:<10} {name:<13} {v:>14.6} {unit:<4} (median of {n})",
                w.name()
            );
        }
        eprintln!(
            "  {:<10} {} of {} runs failed; outcome {}",
            w.name(),
            r.failed,
            r.attempted,
            r.outcome.map_or("none".to_string(), |o| o.to_string())
        );
        results.push(r);
    }
    // Probed after measuring: it starts `rustc` and `git` processes.
    let host = host::Host::probe();
    for r in &results {
        println!("{}", report_json(&args, &host, r).render());
    }
    let several = results.len() > 1;
    let mut metrics = Vec::new();
    for r in &results {
        let prefix = if several {
            format!("{}.", r.workload.name())
        } else {
            String::new()
        };
        metrics.extend(metrics_json(r, args.trace, &prefix));
    }
    if let Some((bad, _)) = metrics.iter().find(|(n, _)| !stats::valid_name(n)) {
        eprintln!("perfbench: invalid metric name {bad}");
        return ExitCode::FAILURE;
    }
    let correct = results.iter().all(WorkloadResult::correct);
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        (
            "attempted".to_string(),
            Json::Int(results.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".to_string(),
            Json::Int(results.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Mode, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn benchmark_arguments_parse() {
        let Ok(Mode::Bench(a)) = parse("--workload churn-1k --seed 7 --seconds 12 --trace 1")
        else {
            panic!("bench mode expected");
        };
        assert_eq!(a.workloads, vec![Workload::Churn1k]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let Ok(Mode::Bench(a)) = parse("--workload all") else {
            panic!("bench mode expected");
        };
        assert_eq!(a.workloads.len(), 4);
    }

    #[test]
    fn bad_arguments_are_named_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload static-2k --trace 2",
            "--workload static-2k --seconds 0",
            "--workload static-2k --frobnicate",
            "--stall-at-epoch 3",
            "--shard-worker 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn workload_names_are_valid_metric_prefixes() {
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
