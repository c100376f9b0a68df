//! The calendar queue's memory must track the events it holds, not the
//! largest bucket each ring slot has ever held.
//!
//! A burst that walks the ring visits every slot once per window; if a
//! drained slot kept its vector's capacity, the ring would end up holding
//! one burst's worth of capacity per slot while only one burst is pending.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: a concurrent test would move the live-bytes high-water mark.

use dco_sim::counters::perf::{AllocStats, CountingAlloc};
use dco_sim::queue::EventQueue;
use dco_sim::rng::SimRng;
use dco_sim::time::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The calendar's bucket width (`2^BUCKET_SHIFT` µs) and ring size
/// (`RING_BUCKETS`), as `dco_sim::queue` defines them.
const BUCKET_US: u64 = 1 << 13;
const RING_BUCKETS: u64 = 512;

/// Pending events at every instant: a pop is always followed by a push.
const DEPTH: u64 = 10_000;
/// Of which this many travel together as one burst.
const BURST: u64 = 1_000;

#[test]
fn peak_memory_tracks_pending_events_not_slot_history() {
    let mut rng = SimRng::seed_from_u64(9);
    // Background events re-arm anywhere in the ring window; burst events
    // (payload 1) re-arm one bucket later, so the burst lands in every
    // slot of the ring in turn.
    let mut rearm = |now: u64, burst: bool| {
        let buckets = if burst {
            1
        } else {
            rng.gen_range(1..RING_BUCKETS)
        };
        (now / BUCKET_US + buckets) * BUCKET_US + rng.gen_range(0..BUCKET_US)
    };

    AllocStats::reset_peak();
    let before = AllocStats::live_bytes();
    let mut q = EventQueue::new();
    for i in 0..DEPTH {
        let burst = i < BURST;
        q.push(SimTime::from_micros(rearm(0, burst)), u64::from(burst));
    }
    // More than two full ring windows, so every slot drains and refills
    // at least twice, once with the burst in it.
    let end = 2 * RING_BUCKETS * BUCKET_US + 3 * BUCKET_US;
    let mut pops = 0u64;
    loop {
        let (at, kind) = q.pop().expect("depth is constant");
        pops += 1;
        if at.as_micros() >= end {
            break;
        }
        q.push(SimTime::from_micros(rearm(at.as_micros(), kind == 1)), kind);
    }
    let grown = AllocStats::peak_live_bytes() - before;
    assert_eq!(q.len() as u64, DEPTH - 1);
    assert!(
        pops > 2 * RING_BUCKETS * BURST,
        "only {pops} pops: the burst did not walk two windows"
    );

    // A calendar entry is a time, a 128-bit tie-break key and the payload.
    let entry = std::mem::size_of::<(SimTime, u128, u64)>() as u64;
    let pending_bytes = DEPTH * entry;
    assert!(
        grown < 4 * pending_bytes,
        "peak live bytes grew by {grown}, {:.1}x the {pending_bytes} bytes of \
         {DEPTH} pending events",
        grown as f64 / pending_bytes as f64
    );
}
