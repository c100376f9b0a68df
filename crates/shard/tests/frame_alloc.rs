//! A frame's length prefix is untrusted input: `read_frame` must not
//! allocate what the prefix claims before the bytes have arrived.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: a concurrent test would move the live-bytes high-water mark.

use std::io;

use dco_shard::frame::{read_frame, MAX_FRAME};
use dco_sim::counters::perf::{AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn lying_length_prefix_fails_without_allocating_the_claimed_size() {
    // Five bytes: a prefix claiming a maximal frame, the tag, then EOF.
    let mut input = (MAX_FRAME as u32).to_le_bytes().to_vec();
    input.push(7);

    AllocStats::reset_peak();
    let before = AllocStats::live_bytes();
    let err = read_frame(&mut &input[..]).unwrap_err();
    let grown = AllocStats::peak_live_bytes() - before;

    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(grown < 1 << 20, "peak live bytes grew by {grown}");
}
