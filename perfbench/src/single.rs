//! Single-process workloads: set-up, plain runs and the traced run.
//!
//! Everything here calls the simulator's public API from outside; nothing
//! inside the program is instrumented. The traced run differs from the
//! plain one only in driving `Simulator::run_until` in one-second slices
//! (digest-neutral: the queue pops the same events in the same order) and
//! in timing the calls around it.

use std::time::Instant;

use dco_baselines::{BaselineConfig, PullProtocol};
use dco_bench::runner::{overhead_units, RunParams};
use dco_core::proto::{DcoConfig, DcoProtocol};
use dco_metrics::StreamObserver;
use dco_sim::counters::perf::PerfMeter;
use dco_sim::engine::{Protocol, Simulator};
use dco_sim::net::NetConfig;
use dco_sim::time::{SimDuration, SimTime};

use crate::pins::Outcome;

/// A protocol the benchmark can run: how to build it from the run
/// parameters and where its reception records live.
pub trait Overlay: Protocol + Sized {
    /// The protocol configured as `dco_bench::run_with_stats` configures it.
    fn make(params: &RunParams) -> Self;
    /// The stream observer the figures are folded from.
    fn observer(&self) -> &StreamObserver;
}

impl Overlay for DcoProtocol {
    fn make(params: &RunParams) -> Self {
        let mut cfg = if params.churn.is_some() {
            DcoConfig::paper_churn(params.n_nodes, params.n_chunks)
        } else {
            DcoConfig::paper_default(params.n_nodes, params.n_chunks)
        };
        cfg.neighbors = params.neighbors;
        DcoProtocol::new(cfg)
    }
    fn observer(&self) -> &StreamObserver {
        &self.obs
    }
}

impl Overlay for PullProtocol {
    fn make(params: &RunParams) -> Self {
        let mut cfg = BaselineConfig::paper_default(params.n_nodes, params.n_chunks);
        cfg.neighbors = params.neighbors;
        PullProtocol::new(cfg)
    }
    fn observer(&self) -> &StreamObserver {
        &self.obs
    }
}

/// A simulator with the scenario installed, and how long that took.
pub struct Installed<P: Protocol> {
    /// Ready to run from t = 0.
    pub sim: Simulator<P>,
    /// Host seconds to build the protocol and the simulator.
    pub build_s: f64,
    /// Host seconds inside `Scenario::install`.
    pub install_s: f64,
    /// Joins and leaves the churn schedule scripted (0 when static).
    pub churn_events: u64,
}

impl<P: Protocol> Installed<P> {
    /// The benchmark's set-up time: build plus install.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.install_s
    }
}

/// Builds the simulator and installs the workload's scenario.
pub fn install<P: Overlay>(params: &RunParams) -> Installed<P> {
    let t0 = Instant::now();
    let mut sim = Simulator::with_capacity(
        P::make(params),
        NetConfig::paper_model(),
        params.seed,
        params.n_nodes as usize,
    );
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let schedule = params.scenario().install(&mut sim);
    let install_s = t1.elapsed().as_secs_f64();
    let churn_events = schedule.events.iter().map(|(_, s)| s.len() as u64).sum();
    Installed {
        sim,
        build_s,
        install_s,
        churn_events,
    }
}

/// Folds the figures and reads the outcome; returns it with the fold's
/// host seconds.
pub fn outcome<P: Overlay>(sim: &Simulator<P>, params: &RunParams) -> (Outcome, f64) {
    let t0 = Instant::now();
    let fold = sim.protocol().observer().fold_figures(
        params.horizon,
        &[SimDuration::from_secs(2), params.fill_offset],
    );
    let extract_s = t0.elapsed().as_secs_f64();
    let outcome = Outcome {
        digest: sim.trace_digest(),
        events: sim.stats().events_processed,
        received_pct: fold.received_pct,
        mean_mesh_delay: fold.mean_mesh_delay,
        overhead_units: overhead_units(sim.counters()),
    };
    (outcome, extract_s)
}

/// The host cost of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Build and install.
    pub setup_s: f64,
    /// Inside `run_until`.
    pub dispatch_s: f64,
    /// Start of set-up to the folded outcome.
    pub wall_s: f64,
    /// Events dispatched (owned events when sharded).
    pub events: u64,
    /// Peak live heap bytes (summed over worker processes when sharded).
    pub peak_bytes: u64,
}

impl Sample {
    /// Events per host second of dispatch.
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.dispatch_s.max(1e-9)
    }
}

/// One plain run: the end-to-end measurement.
pub fn run_plain<P: Overlay>(params: &RunParams) -> (Sample, Outcome) {
    let meter = PerfMeter::start();
    let t0 = Instant::now();
    let mut inst = install::<P>(params);
    let t1 = Instant::now();
    inst.sim.run_until(params.horizon);
    let dispatch_s = t1.elapsed().as_secs_f64();
    let (outcome, _) = outcome(&inst.sim, params);
    let wall_s = t0.elapsed().as_secs_f64();
    let perf = meter.finish(outcome.events);
    let sample = Sample {
        setup_s: inst.setup_s(),
        dispatch_s,
        wall_s,
        events: outcome.events,
        peak_bytes: perf.peak_live_bytes,
    };
    (sample, outcome)
}

/// What the traced run records per one-second slice of `run_until`.
#[derive(Clone, Debug, Default)]
pub struct Slices {
    /// Host microseconds per dispatched event, per non-empty slice.
    pub us_per_event: Vec<f64>,
    /// `pending_events()` at each slice edge.
    pub queue_depth: Vec<f64>,
}

/// A finished traced run, kept alive for the replay probes.
pub struct Traced<P: Protocol> {
    /// The simulator after the horizon.
    pub sim: Simulator<P>,
    /// Host cost, as in a plain run.
    pub sample: Sample,
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Per-slice records.
    pub slices: Slices,
    /// Span around `Scenario::install`.
    pub install_s: f64,
    /// Span around `StreamObserver::fold_figures`.
    pub extract_s: f64,
    /// Joins and leaves scripted.
    pub churn_events: u64,
}

/// One traced run: `run_until` in one-second slices, each timed.
pub fn run_traced<P: Overlay>(params: &RunParams) -> Traced<P> {
    let meter = PerfMeter::start();
    let t0 = Instant::now();
    let mut inst = install::<P>(params);
    let mut slices = Slices::default();
    let t1 = Instant::now();
    let end = params.horizon.as_micros();
    let mut edge = 0u64;
    while edge < end {
        edge = (edge + 1_000_000).min(end);
        let events_before = inst.sim.stats().events_processed;
        let ts = Instant::now();
        inst.sim.run_until(SimTime::from_micros(edge));
        let dt = ts.elapsed().as_secs_f64();
        let events = inst.sim.stats().events_processed - events_before;
        if events > 0 {
            slices.us_per_event.push(dt * 1e6 / events as f64);
        }
        slices.queue_depth.push(inst.sim.pending_events() as f64);
    }
    let dispatch_s = t1.elapsed().as_secs_f64();
    let (outcome, extract_s) = outcome(&inst.sim, params);
    let wall_s = t0.elapsed().as_secs_f64();
    let perf = meter.finish(outcome.events);
    Traced {
        sample: Sample {
            setup_s: inst.setup_s(),
            dispatch_s,
            wall_s,
            events: outcome.events,
            peak_bytes: perf.peak_live_bytes,
        },
        outcome,
        slices,
        install_s: inst.install_s,
        extract_s,
        churn_events: inst.churn_events,
        sim: inst.sim,
    }
}
