//! The sharded workload: [`SHARD_WORKERS`] worker processes driven over
//! stdio pipes.
//!
//! Workers are re-execs of this binary in its hidden `--shard-worker`
//! mode, spawned and reaped with `dco_shard::procpool`, so a failed
//! worker's exit status and stderr tail are part of the reported error.
//! The orchestrator here differs from `dco-perf --shards` in three ways
//! the benchmark needs: a watchdog kills every worker when none has sent
//! a frame for [`STALL_TIMEOUT`] and the run ends in a named error instead
//! of a hang; set-up is timed from spawn to the first epoch barrier; and
//! a traced run collects each worker's link telemetry.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dco_bench::runner::RunParams;
use dco_bench::shard_run::{merge_relay, run_shard_worker, MergedRun};
use dco_shard::epoch::{run_orchestrator, tag, RelayReport};
use dco_shard::link::{FrameLink, PipeLink};
use dco_shard::procpool::{reap_failure, spawn_worker, WorkerProc};
use dco_sim::wire::decode_exact;

use crate::layers::{maint_msgs, SHARD_WORKERS};
use crate::link::{Progress, StallLink, TimedLink, WatchedLink, WorkerTelemetry, TELEMETRY};
use crate::pins::Outcome;
use crate::single::Sample;

/// No frame from any worker for this long means a worker is stuck. One
/// epoch at N = 5000 takes milliseconds, and a worker's set-up well under
/// a second, so this is two orders of magnitude past any honest pause.
pub const STALL_TIMEOUT: Duration = Duration::from_secs(15);

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// No frame arrived for the stall timeout; every worker was killed.
    Stalled {
        /// The shard the orchestrator was waiting on.
        shard: usize,
        /// Seconds without a frame.
        idle_s: f64,
    },
    /// A worker could not be spawned, or exited unsuccessfully.
    WorkerFailed {
        /// The worker's shard.
        shard: usize,
        /// What happened, with the worker's stderr tail.
        detail: String,
    },
    /// The epoch protocol or the result merge failed.
    Relay(io::Error),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Stalled { shard, idle_s } => write!(
                f,
                "shard worker stalled: no frame for {idle_s:.1} s while waiting on shard \
                 {shard}; all workers killed"
            ),
            ShardError::WorkerFailed { shard, detail } => {
                write!(f, "shard worker {shard} failed: {detail}")
            }
            ShardError::Relay(e) => write!(f, "sharded relay failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// How to run the sharded workload.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// The workload parameters every worker rebuilds.
    pub params: RunParams,
    /// Workers time their links and the orchestrator captures batches.
    pub traced: bool,
    /// Failure drill: the last worker stops at this epoch barrier.
    pub stall_at_epoch: Option<u64>,
    /// Watchdog limit.
    pub stall_timeout: Duration,
}

impl ShardPlan {
    fn worker_args(&self, me: u8) -> Vec<String> {
        let mut argv = vec![
            "--shard-worker".to_string(),
            me.to_string(),
            "--seed".to_string(),
            self.params.seed.to_string(),
            "--trace".to_string(),
            u8::from(self.traced).to_string(),
        ];
        if let (Some(e), true) = (self.stall_at_epoch, me + 1 == SHARD_WORKERS) {
            argv.extend(["--stall-at-epoch".to_string(), e.to_string()]);
        }
        argv
    }
}

/// `kill(2)`. `std::process::Child::kill` needs the `Child`, which
/// `WorkerProc` keeps next to the link the orchestrator is blocked on, so
/// the watchdog signals by process id instead.
fn kill_pid(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: `kill` takes plain integers. `pid` is a child of this
        // process that has not been waited for (the watchdog is stopped
        // before any worker is reaped), so the id cannot have been reused.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
}

/// Kills every worker once no frame has arrived for the timeout. Killing
/// closes the workers' pipes, so the blocked orchestrator read returns
/// and the run unwinds.
struct Watchdog {
    progress: Arc<Progress>,
    done: Arc<AtomicBool>,
    /// Seconds without a frame when the watchdog fired.
    fired: Arc<Mutex<Option<f64>>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(pids: Vec<u32>, timeout: Duration) -> Watchdog {
        let progress = Progress::new();
        let done = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(Mutex::new(None));
        let thread = {
            let (progress, done, fired) =
                (Arc::clone(&progress), Arc::clone(&done), Arc::clone(&fired));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let idle = progress.idle();
                    if idle >= timeout {
                        *fired.lock().expect("the watchdog is the only writer") =
                            Some(idle.as_secs_f64());
                        pids.iter().for_each(|&p| kill_pid(p));
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        };
        Watchdog {
            progress,
            done,
            fired,
            thread: Some(thread),
        }
    }

    /// Stops and joins the watchdog; then the stall it reported, if any.
    fn stop(&mut self) -> Option<ShardError> {
        self.done.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.take() {
            // The watchdog only sleeps, reads atomics and kills; a panic
            // there has nothing to report beyond the run's own result.
            let _ = h.join();
        }
        let idle_s = (*self.fired.lock().unwrap_or_else(|p| p.into_inner()))?;
        Some(ShardError::Stalled {
            shard: self.progress.waiting_on(),
            idle_s,
        })
    }
}

type Link<'a> = WatchedLink<&'a mut PipeLink<std::process::ChildStdout, std::process::ChildStdin>>;

/// What the orchestrator collected from the workers' links.
struct Relayed {
    report: RelayReport,
    relay_end: Instant,
    /// The slowest worker's first epoch barrier: the end of set-up.
    setup_end: Option<Instant>,
    telemetry: Vec<WorkerTelemetry>,
    captured: Vec<Vec<u8>>,
}

/// Live workers under a watchdog.
struct Pool {
    workers: Vec<WorkerProc>,
    watchdog: Watchdog,
}

impl Pool {
    fn spawn(plan: &ShardPlan) -> Result<Pool, ShardError> {
        let mut workers = Vec::new();
        for me in 0..SHARD_WORKERS {
            let shard = usize::from(me);
            match spawn_worker(&plan.worker_args(me), shard) {
                Ok(w) => workers.push(w),
                Err(e) => {
                    let e = reap_failure(workers, e);
                    return Err(ShardError::WorkerFailed {
                        shard,
                        detail: format!("spawn: {e}"),
                    });
                }
            }
        }
        let pids = workers.iter().map(|w| w.child.id()).collect();
        Ok(Pool {
            workers,
            watchdog: Watchdog::start(pids, plan.stall_timeout),
        })
    }

    /// The workers' links, wrapped for the watchdog and, when `capture`,
    /// for the codec probes.
    fn links(&mut self, capture: bool) -> Vec<Link<'_>> {
        let progress = &self.watchdog.progress;
        self.workers
            .iter_mut()
            .map(|w| WatchedLink::new(&mut w.link, w.shard, Arc::clone(progress), capture))
            .collect()
    }

    /// Runs the epoch protocol to the end; a traced run then reads each
    /// worker's telemetry frame.
    fn relay(&mut self, traced: bool) -> io::Result<Relayed> {
        let mut links = self.links(traced);
        let report = run_orchestrator(&mut links)?;
        let relay_end = Instant::now();
        let mut telemetry = Vec::new();
        if traced {
            for link in links.iter_mut() {
                let (t, p) = link.recv()?;
                if t != TELEMETRY {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected telemetry, got tag {t}"),
                    ));
                }
                let decoded = decode_exact::<WorkerTelemetry>(&p)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                telemetry.push(decoded);
            }
        }
        Ok(Relayed {
            report,
            relay_end,
            setup_end: links.iter().filter_map(|l| l.first_barrier).max(),
            telemetry,
            captured: links
                .iter_mut()
                .flat_map(|l| std::mem::take(&mut l.captured))
                .collect(),
        })
    }

    /// Waits for every worker; the first unsuccessful exit is the error,
    /// and the workers after it are killed and reaped.
    fn finish(mut self) -> Result<(), ShardError> {
        if let Some(stall) = self.watchdog.stop() {
            return Err(self.fail_with(stall));
        }
        let mut workers = std::mem::take(&mut self.workers).into_iter();
        while let Some(w) = workers.next() {
            let shard = w.shard;
            if let Err(e) = w.finish() {
                let e = reap_failure(workers.collect(), e);
                return Err(ShardError::WorkerFailed {
                    shard,
                    detail: e.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Kills and reaps every worker after `cause`. A stall explains any
    /// relay error that follows the watchdog's kill.
    fn fail(mut self, cause: io::Error) -> ShardError {
        match self.watchdog.stop() {
            Some(stall) => self.fail_with(stall),
            None => ShardError::Relay(reap_failure(std::mem::take(&mut self.workers), cause)),
        }
    }

    fn fail_with(mut self, err: ShardError) -> ShardError {
        let cause = io::Error::other(err.to_string());
        reap_failure(std::mem::take(&mut self.workers), cause);
        err
    }
}

impl Drop for Pool {
    /// An early return or a panic cannot leak workers: whatever is still
    /// held is killed and reaped.
    fn drop(&mut self) {
        self.watchdog.stop();
        if !self.workers.is_empty() {
            let cause = io::Error::other("abandoned");
            reap_failure(std::mem::take(&mut self.workers), cause);
        }
    }
}

/// One sharded run, end to end.
pub struct ShardRun {
    /// Host cost: set-up is spawn to the first barrier of the slowest
    /// worker; dispatch is from there to the last `RESULT`.
    pub sample: Sample,
    /// The folded outcome.
    pub outcome: Outcome,
    /// The merged run (counters, relay totals).
    pub merged: MergedRun,
    /// Host seconds of `merge_relay` (observer union and figure fold).
    pub extract_s: f64,
    /// Per-worker link telemetry (traced runs).
    pub telemetry: Vec<WorkerTelemetry>,
    /// Captured cross-shard batches (traced runs).
    pub captured: Vec<Vec<u8>>,
}

/// Runs the sharded workload once.
pub fn run(plan: &ShardPlan) -> Result<ShardRun, ShardError> {
    let t0 = Instant::now();
    let mut pool = Pool::spawn(plan)?;
    let relayed = match pool.relay(plan.traced) {
        Ok(r) => r,
        Err(e) => return Err(pool.fail(e)),
    };
    pool.finish()?;
    let t_merge = Instant::now();
    let merged = merge_relay(&plan.params, &relayed.report).map_err(ShardError::Relay)?;
    let extract_s = t_merge.elapsed().as_secs_f64();
    let c = &merged.counters;
    let outcome = Outcome {
        digest: merged.root_digest,
        events: merged.owned_events,
        received_pct: merged.figures.received_pct,
        mean_mesh_delay: merged.figures.mean_mesh_delay,
        // As `dco_bench::runner::overhead_units` counts it: control
        // messages except Chord ring maintenance.
        overhead_units: c.control_total - maint_msgs(c),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let setup_end = relayed.setup_end.unwrap_or(relayed.relay_end);
    let sample = Sample {
        setup_s: setup_end.duration_since(t0).as_secs_f64(),
        dispatch_s: relayed.relay_end.duration_since(setup_end).as_secs_f64(),
        wall_s,
        events: merged.owned_events,
        peak_bytes: merged.workers.iter().map(|w| w.peak_live_bytes).sum(),
    };
    Ok(ShardRun {
        sample,
        outcome,
        merged,
        extract_s,
        telemetry: relayed.telemetry,
        captured: relayed.captured,
    })
}

/// Set-up alone: spawns the workers, waits until every one reports its
/// first epoch barrier, then kills them. Returns spawn-to-barrier seconds.
pub fn setup_only(plan: &ShardPlan) -> Result<f64, ShardError> {
    let t0 = Instant::now();
    let mut pool = Pool::spawn(plan)?;
    let reached = pool.links(false).iter_mut().try_for_each(|link| loop {
        if link.recv()?.0 == tag::EPOCH_DONE {
            return Ok(());
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();
    match reached {
        // Dropping the pool kills and reaps the workers.
        Ok(()) => Ok(setup_s),
        Err(e) => Err(pool.fail(e)),
    }
}

/// The hidden worker mode: runs shard `me` of [`SHARD_WORKERS`] over this
/// process's stdio.
pub fn worker_main(
    params: &RunParams,
    me: u8,
    traced: bool,
    stall_at_epoch: Option<u64>,
) -> io::Result<()> {
    let k = SHARD_WORKERS;
    let pipe = PipeLink::new(io::stdin(), io::stdout());
    match (traced, stall_at_epoch) {
        (_, Some(e)) => run_shard_worker(params, k, me, &mut StallLink::new(pipe, e)),
        (false, None) => run_shard_worker(params, k, me, &mut { pipe }),
        (true, None) => {
            let mut link = TimedLink::new(pipe);
            run_shard_worker(params, k, me, &mut link)?;
            let (telemetry, mut pipe) = link.finish();
            pipe.send(TELEMETRY, &dco_sim::wire::encode_to_vec(&telemetry))?;
            pipe.flush()
        }
    }
}
