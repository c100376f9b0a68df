//! `FrameLink` wrappers on the shard links.
//!
//! * [`WatchedLink`] — orchestrator side, always on: stamps every received
//!   frame into a shared [`Progress`] so a watchdog can tell a stalled
//!   worker from a slow one, notes when each worker first reaches the
//!   epoch barrier (the end of its set-up), and in traced runs keeps
//!   copies of a few cross-shard batches for the codec probes.
//! * [`TimedLink`] — worker side, traced runs only: times every `send`,
//!   `flush` and `recv`, and the wait for each `EPOCH_GO`.
//! * [`StallLink`] — worker side, failure drill only: stops answering at
//!   one epoch barrier, like a worker stuck in a livelock.
//!
//! All three pass frames through unchanged.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dco_shard::epoch::tag;
use dco_shard::link::FrameLink;
use dco_sim::wire::{WireCodec, WireError, WireReader};

/// Frame tag of the worker's telemetry, sent after its `RESULT` frame in
/// traced runs. Outside the epoch protocol's tag range.
pub const TELEMETRY: u8 = 0xB0;

/// Liveness shared between the orchestrator's links and its watchdog.
pub struct Progress {
    t0: Instant,
    /// Nanoseconds after `t0` of the last frame received on any link.
    last_frame_ns: AtomicU64,
    /// The shard whose link the orchestrator is blocked on.
    waiting_on: AtomicUsize,
}

impl Progress {
    /// Starts the clock now.
    pub fn new() -> Arc<Progress> {
        Arc::new(Progress {
            t0: Instant::now(),
            last_frame_ns: AtomicU64::new(0),
            waiting_on: AtomicUsize::new(0),
        })
    }

    /// Time since the last received frame (or since the start).
    pub fn idle(&self) -> Duration {
        let last = Duration::from_nanos(self.last_frame_ns.load(Relaxed));
        self.t0.elapsed().saturating_sub(last)
    }

    /// The shard the orchestrator last waited on.
    pub fn waiting_on(&self) -> usize {
        self.waiting_on.load(Relaxed)
    }

    fn stamp(&self) {
        let ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_frame_ns.store(ns, Relaxed);
    }
}

/// Cross-shard batches a traced run keeps for the codec probes.
const CAPTURE_BATCHES: usize = 64;
/// Barrier count after which batches are captured: past the join burst,
/// so the captured mix is the steady streaming mix.
const CAPTURE_AFTER_EPOCH: u64 = 400;

/// Orchestrator-side link: see the module docs.
pub struct WatchedLink<L> {
    inner: L,
    shard: usize,
    progress: Arc<Progress>,
    /// When this worker's first `EPOCH_DONE` arrived.
    pub first_barrier: Option<Instant>,
    barriers: u64,
    capture: bool,
    /// Captured `MSGS` payloads (`[dest][batch]`), traced runs only.
    pub captured: Vec<Vec<u8>>,
}

impl<L: FrameLink> WatchedLink<L> {
    /// Wraps shard `shard`'s link; `capture` keeps batches for probes.
    pub fn new(inner: L, shard: usize, progress: Arc<Progress>, capture: bool) -> Self {
        WatchedLink {
            inner,
            shard,
            progress,
            first_barrier: None,
            barriers: 0,
            capture,
            captured: Vec::new(),
        }
    }
}

impl<L: FrameLink> FrameLink for WatchedLink<L> {
    fn send(&mut self, t: u8, payload: &[u8]) -> io::Result<()> {
        self.inner.send(t, payload)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        self.progress.waiting_on.store(self.shard, Relaxed);
        let frame = self.inner.recv()?;
        self.progress.stamp();
        match frame.0 {
            tag::EPOCH_DONE => {
                self.first_barrier.get_or_insert_with(Instant::now);
                self.barriers += 1;
            }
            tag::MSGS
                if self.capture
                    && self.barriers >= CAPTURE_AFTER_EPOCH
                    && self.captured.len() < CAPTURE_BATCHES =>
            {
                self.captured.push(frame.1.clone());
            }
            _ => {}
        }
        Ok(frame)
    }
}

/// What a traced worker measured on its link, shipped to the orchestrator
/// in the [`TELEMETRY`] frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerTelemetry {
    /// Worker wall clock from link creation to the `RESULT` frame.
    pub wall_s: f64,
    /// Time inside `send` and `flush`.
    pub send_s: f64,
    /// Time blocked inside `recv`.
    pub recv_s: f64,
    /// Per epoch: time blocked in `recv` between `EPOCH_DONE` and
    /// `EPOCH_GO`, nanoseconds.
    pub epoch_wait_ns: Vec<u64>,
}

impl WorkerTelemetry {
    /// Worker time not spent on the link.
    pub fn compute_s(&self) -> f64 {
        (self.wall_s - self.send_s - self.recv_s).max(0.0)
    }
}

impl WireCodec for WorkerTelemetry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wall_s.encode(out);
        self.send_s.encode(out);
        self.recv_s.encode(out);
        self.epoch_wait_ns.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WorkerTelemetry {
            wall_s: r.get()?,
            send_s: r.get()?,
            recv_s: r.get()?,
            epoch_wait_ns: r.get()?,
        })
    }
}

/// Worker-side timing link: see the module docs.
pub struct TimedLink<L> {
    inner: L,
    t0: Instant,
    send: Duration,
    recv: Duration,
    /// `recv` time accumulated since the last `EPOCH_DONE`.
    epoch_wait: Duration,
    epoch_wait_ns: Vec<u64>,
}

impl<L: FrameLink> TimedLink<L> {
    /// Starts the worker clock now.
    pub fn new(inner: L) -> Self {
        TimedLink {
            inner,
            t0: Instant::now(),
            send: Duration::ZERO,
            recv: Duration::ZERO,
            epoch_wait: Duration::ZERO,
            epoch_wait_ns: Vec::new(),
        }
    }

    /// The measurements so far, and the underlying link.
    pub fn finish(self) -> (WorkerTelemetry, L) {
        let t = WorkerTelemetry {
            wall_s: self.t0.elapsed().as_secs_f64(),
            send_s: self.send.as_secs_f64(),
            recv_s: self.recv.as_secs_f64(),
            epoch_wait_ns: self.epoch_wait_ns,
        };
        (t, self.inner)
    }
}

impl<L: FrameLink> FrameLink for TimedLink<L> {
    fn send(&mut self, t: u8, payload: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.send(t, payload);
        self.send += start.elapsed();
        if t == tag::EPOCH_DONE {
            self.epoch_wait = Duration::ZERO;
        }
        r
    }
    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.flush();
        self.send += start.elapsed();
        r
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        let start = Instant::now();
        let frame = self.inner.recv();
        let waited = start.elapsed();
        self.recv += waited;
        self.epoch_wait += waited;
        if matches!(frame, Ok((tag::EPOCH_GO, _))) {
            let ns = u64::try_from(self.epoch_wait.as_nanos()).unwrap_or(u64::MAX);
            self.epoch_wait_ns.push(ns);
        }
        frame
    }
}

/// Failure-drill link: never reports barrier `stall_at`, blocking instead.
pub struct StallLink<L> {
    inner: L,
    stall_at: u64,
}

impl<L: FrameLink> StallLink<L> {
    /// Stalls at epoch barrier `stall_at`.
    pub fn new(inner: L, stall_at: u64) -> Self {
        StallLink { inner, stall_at }
    }
}

impl<L: FrameLink> FrameLink for StallLink<L> {
    fn send(&mut self, t: u8, payload: &[u8]) -> io::Result<()> {
        if t == tag::EPOCH_DONE && payload == self.stall_at.to_le_bytes() {
            // Stuck but alive, pipes open: only a watchdog ends this.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        self.inner.send(t, payload)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        self.inner.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_shard::link::channel_pair;
    use dco_sim::wire::{decode_exact, encode_to_vec};

    fn frames() -> Vec<(u8, Vec<u8>)> {
        vec![
            (tag::MSGS, vec![1, 0xFF, 0, 7, 42]),
            (tag::EPOCH_DONE, 0u64.to_le_bytes().to_vec()),
            (tag::INJECT, Vec::new()),
            (tag::EPOCH_GO, 0u64.to_le_bytes().to_vec()),
            (tag::RESULT, (0..=255u8).collect()),
        ]
    }

    /// Frames sent through a `TimedLink` arrive at a `WatchedLink` on the
    /// far side of a channel pair byte for byte, in both directions.
    #[test]
    fn wrappers_pass_frames_through_byte_for_byte() {
        let (a, b) = channel_pair();
        let mut worker = TimedLink::new(a);
        let mut orch = WatchedLink::new(b, 0, Progress::new(), true);
        for (t, p) in frames() {
            worker.send(t, &p).unwrap();
            worker.flush().unwrap();
            assert_eq!(orch.recv().unwrap(), (t, p.clone()));
            orch.send(t, &p).unwrap();
            orch.flush().unwrap();
            assert_eq!(worker.recv().unwrap(), (t, p));
        }
        assert!(orch.first_barrier.is_some());
        let (telemetry, _) = worker.finish();
        assert_eq!(telemetry.epoch_wait_ns.len(), 1, "one EPOCH_GO received");
        assert!(telemetry.wall_s >= telemetry.send_s + telemetry.recv_s);
    }

    #[test]
    fn telemetry_round_trips() {
        let t = WorkerTelemetry {
            wall_s: 1.5,
            send_s: 0.25,
            recv_s: 0.125,
            epoch_wait_ns: vec![1, 2, 3],
        };
        let back: WorkerTelemetry = decode_exact(&encode_to_vec(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(t.compute_s(), 1.125);
    }

    #[test]
    fn progress_idle_resets_on_every_frame() {
        let (mut a, b) = channel_pair();
        let progress = Progress::new();
        let mut orch = WatchedLink::new(b, 3, Arc::clone(&progress), false);
        std::thread::sleep(Duration::from_millis(20));
        assert!(progress.idle() >= Duration::from_millis(20));
        a.send(tag::INJECT, b"x").unwrap();
        orch.recv().unwrap();
        assert!(progress.idle() < Duration::from_millis(20));
        assert_eq!(progress.waiting_on(), 3);
    }
}
