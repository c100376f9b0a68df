//! Replay probes: time one layer function in isolation, on inputs shaped
//! by the run that just finished (its queue depth, its ring and chunk
//! keys, its providers per key, its population).
//!
//! Each probe repeats its script [`ROUNDS`] times and reports the median,
//! in nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use dco_core::proto::DcoMsg;
use dco_core::{ChunkIndex, ChunkNamer, ChunkSeq, IndexTable, SelectPolicy};
use dco_dht::chord::{ChordConfig, ChordNet, RouteDecision, RouteStep};
use dco_dht::{hash_node, ChordId, Peer};
use dco_metrics::StreamObserver;
use dco_sim::engine::RemoteMsg;
use dco_sim::msg::SizeBits;
use dco_sim::net::{Kbps, Pipe};
use dco_sim::node::NodeId;
use dco_sim::queue::EventQueue;
use dco_sim::rng::SimRng;
use dco_sim::time::{SimDuration, SimTime};
use dco_sim::wire::{decode_exact, WireCodec};

use crate::stats::median;

/// Repetitions of each probe script.
pub const ROUNDS: usize = 5;

fn median_of_rounds(mut round: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    median(&xs).expect("ROUNDS > 0")
}

/// `EventQueue` push + pop pairs at steady depth `depth`, with delays
/// drawn over one simulated second (the run's latency + timer range).
pub fn queue_push_pop_ns(depth: usize, seed: u64) -> f64 {
    const OPS: usize = 400_000;
    let depth = depth.max(1);
    let mut rng = SimRng::seed_from_u64(seed);
    let delays: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..1_000_000u64)).collect();
    median_of_rounds(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.push(SimTime::from_micros(delays[i % delays.len()]), i as u64);
        }
        let t0 = Instant::now();
        for i in 0..OPS {
            let (at, x) = q.pop().expect("queue stays at depth");
            let next = at.saturating_add(SimDuration::from_micros(delays[i % delays.len()]));
            q.push(next, black_box(x));
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// `Pipe::admit` over one pipe per node, the sender drawn at random, a
/// data transfer with the run's share of data among sends (else a
/// zero-size control message).
pub fn pipe_admit_ns(n_nodes: usize, data_share: f64, chunk: SizeBits, seed: u64) -> f64 {
    const OPS: usize = 1_000_000;
    let mut rng = SimRng::seed_from_u64(seed);
    let script: Vec<(u32, bool)> = (0..OPS)
        .map(|_| {
            let node = rng.gen_range(0..n_nodes.max(1) as u32);
            (node, rng.gen_bool(data_share.clamp(0.0, 1.0)))
        })
        .collect();
    median_of_rounds(|| {
        let mut pipes: Vec<Pipe> = (0..n_nodes.max(1)).map(|_| Pipe::new(Kbps(600))).collect();
        let t0 = Instant::now();
        for (i, &(node, data)) in script.iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * 10);
            let size = if data { chunk } else { SizeBits::ZERO };
            black_box(pipes[node as usize].admit(now, size));
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// Lookups from live ring members toward the stream's chunk keys.
fn route_script(ring: &ChordNet, keys: &[ChordId], seed: u64) -> Vec<(NodeId, ChordId)> {
    const LOOKUPS: usize = 20_000;
    let members: Vec<NodeId> = ring.members().map(|m| m.me().node).collect();
    if members.is_empty() || keys.is_empty() {
        return Vec::new();
    }
    let mut rng = SimRng::seed_from_u64(seed);
    (0..LOOKUPS)
        .map(|_| {
            let from = *rng.choose(&members).expect("members is non-empty");
            (from, *rng.choose(keys).expect("keys is non-empty"))
        })
        .collect()
}

/// Routing decisions a lookup may take before it is cut off (a stale
/// finger table under churn can loop).
const MAX_HOPS: usize = 64;

/// Uncached greedy routing (`ChordNet::route_next`) on the run's ring.
/// Returns (ns per routing decision, hops per lookup).
pub fn route_uncached(ring: &ChordNet, keys: &[ChordId], seed: u64) -> (f64, f64) {
    let script = route_script(ring, keys, seed);
    if script.is_empty() {
        return (0.0, 0.0);
    }
    let mut hops_per_lookup = 0.0;
    let ns = median_of_rounds(|| {
        let (mut decisions, mut hops) = (0u64, 0u64);
        let t0 = Instant::now();
        for &(from, key) in &script {
            let mut at = from;
            for _ in 0..MAX_HOPS {
                decisions += 1;
                match black_box(ring.route_next(at, key)) {
                    Some(RouteDecision::Forward(p)) => {
                        hops += 1;
                        at = p.node;
                    }
                    Some(RouteDecision::DeliverAt(_)) => {
                        hops += 1;
                        break;
                    }
                    Some(RouteDecision::Deliver) | None => break,
                }
            }
        }
        let ns = t0.elapsed().as_nanos() as f64 / decisions as f64;
        hops_per_lookup = hops as f64 / script.len() as f64;
        ns
    });
    (ns, hops_per_lookup)
}

/// Memoized routing (`ChordNet::route_next_cached`) on a static ring over
/// `n_nodes` built as DCO builds its own: one warm-up pass fills the
/// route cache, as the run's repeated chunk keys do, then the timed
/// passes hit it.
pub fn route_cached_ns(n_nodes: u32, neighbors: usize, keys: &[ChordId], seed: u64) -> f64 {
    let peers: Vec<Peer> = (0..n_nodes)
        .map(|i| Peer::new(hash_node(NodeId(i)), NodeId(i)))
        .collect();
    let cfg = ChordConfig {
        successor_list_len: neighbors.max(1),
        ..ChordConfig::default()
    };
    let mut ring = ChordNet::build_static(&peers, cfg);
    let script = route_script(&ring, keys, seed);
    if script.is_empty() {
        return 0.0;
    }
    let pass = |ring: &mut ChordNet| {
        let mut decisions = 0u64;
        let t0 = Instant::now();
        for &(from, key) in &script {
            let mut at = from;
            for _ in 0..MAX_HOPS {
                decisions += 1;
                match black_box(ring.route_next_cached(at, key)) {
                    Some(RouteStep::Forward(n)) => at = n,
                    _ => break,
                }
            }
        }
        t0.elapsed().as_nanos() as f64 / decisions as f64
    };
    pass(&mut ring);
    median_of_rounds(|| pass(&mut ring))
}

/// The stream's chunk keys, named as DCO names them.
pub fn chunk_keys(namer: &ChunkNamer, n_chunks: u32) -> Vec<ChordId> {
    (0..n_chunks).map(|s| namer.id_of(ChunkSeq(s))).collect()
}

/// `IndexTable::select` under the paper's sufficient-bandwidth rule, with
/// `providers` indices per key over `n_keys` keys; advertised spare
/// bandwidth is spread around the stream rate so both the qualifying and
/// the degraded branches run.
pub fn index_select_ns(n_keys: u32, providers: usize, n_nodes: u32, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut table = IndexTable::new();
    let keys: Vec<ChordId> = (0..n_keys.max(1))
        .map(|k| ChordId(dco_sim::rng::splitmix64(u64::from(k) ^ seed)))
        .collect();
    for (k, &key) in keys.iter().enumerate() {
        for p in 0..providers.max(1) {
            let holder = (k * 7919 + p) as u32 % n_nodes.max(1);
            table.register(
                key,
                ChunkIndex {
                    seq: ChunkSeq(k as u32),
                    holder: NodeId(holder),
                    avail: Kbps(rng.gen_range(0..600u32)),
                    held_count: rng.gen_range(0..100u32),
                },
            );
        }
    }
    let script: Vec<(ChordId, NodeId)> = (0..OPS)
        .map(|_| {
            let key = *rng.choose(&keys).expect("keys is non-empty");
            (key, NodeId(rng.gen_range(0..n_nodes.max(1))))
        })
        .collect();
    median_of_rounds(|| {
        let t0 = Instant::now();
        for &(key, requester) in &script {
            black_box(table.select(
                key,
                Kbps(300),
                SelectPolicy::SufficientBandwidth,
                &[requester],
                &mut rng,
            ));
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// `StreamObserver::record_received` over every (node, chunk) pair of the
/// run's population: chunks in order, nodes shuffled within each chunk,
/// as a stream spreads.
pub fn record_ns(n_nodes: u32, n_chunks: u32, seed: u64) -> f64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut nodes: Vec<u32> = (0..n_nodes).collect();
    let mut script = Vec::with_capacity(n_nodes as usize * n_chunks as usize);
    for seq in 0..n_chunks {
        rng.shuffle(&mut nodes);
        let t = u64::from(seq) * 1_000_000;
        script.extend(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| (seq, NodeId(n), SimTime::from_micros(t + i as u64))),
        );
    }
    if script.is_empty() {
        return 0.0;
    }
    median_of_rounds(|| {
        let mut obs = StreamObserver::new(n_nodes as usize, n_chunks as usize);
        let t0 = Instant::now();
        for &(seq, node, t) in &script {
            obs.record_received(seq, node, t);
        }
        black_box(&obs);
        t0.elapsed().as_nanos() as f64 / script.len() as f64
    })
}

/// Decode and re-encode of captured cross-shard batches (`[dest][batch]`
/// payloads). Returns (encode ns/msg, decode ns/msg).
pub fn codec_ns(batches: &[Vec<u8>]) -> (f64, f64) {
    let bodies: Vec<&[u8]> = batches.iter().filter_map(|b| b.get(1..)).collect();
    let decoded: Vec<Vec<RemoteMsg<DcoMsg>>> =
        bodies.iter().filter_map(|b| decode_exact(b).ok()).collect();
    let msgs: usize = decoded.iter().map(Vec::len).sum();
    if msgs == 0 || decoded.len() != bodies.len() {
        return (0.0, 0.0);
    }
    let decode = median_of_rounds(|| {
        let t0 = Instant::now();
        for _ in 0..20 {
            for b in &bodies {
                black_box(decode_exact::<Vec<RemoteMsg<DcoMsg>>>(b).expect("decoded once"));
            }
        }
        t0.elapsed().as_nanos() as f64 / (20 * msgs) as f64
    });
    let encode = median_of_rounds(|| {
        let mut out = Vec::new();
        let t0 = Instant::now();
        for _ in 0..20 {
            for batch in &decoded {
                out.clear();
                batch.encode(&mut out);
                black_box(&out);
            }
        }
        t0.elapsed().as_nanos() as f64 / (20 * msgs) as f64
    });
    (encode, decode)
}
