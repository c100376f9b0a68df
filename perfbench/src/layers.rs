//! The metric catalog and the per-layer numbers of a traced run.
//!
//! Every name here is listed, with the same unit, in `BENCHMARK.json`
//! (checked by a test). A traced run reports every per-layer metric; one
//! whose layer the workload does not run reads 0 and is listed under
//! `not_exercised` in the report line.

use std::collections::BTreeMap;

use dco_baselines::PullProtocol;
use dco_core::proto::DcoProtocol;
use dco_sim::counters::CounterSnapshot;
use dco_sim::engine::Simulator;
use dco_sim::msg::SizeBits;

use crate::probes;
use crate::shard::ShardRun;
use crate::single::{Overlay, Traced};
use crate::stats::{median, percentile};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_mem_mib", "MiB"),
];

/// `dco.*` message kinds, reported as `core.msgs.<kind>`.
pub const DCO_KINDS: &[&str] = &[
    "attach", "busy", "dereg", "handover", "insert", "lookup", "promote", "provider", "request",
    "stable",
];

/// `pull.*` message kinds, reported as `baselines.msgs.<kind>`.
pub const PULL_KINDS: &[&str] = &["bufmap", "miss", "request"];

/// Shard workers of the sharded workload.
pub const SHARD_WORKERS: u8 = 2;

/// Per-layer metrics: `(name, unit)`, in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| c.push((name.to_string(), unit));
    add("sim.us_per_event.p50", "us");
    add("sim.us_per_event.p95", "us");
    add("sim.queue.depth.p50", "count");
    add("sim.queue.depth.max", "count");
    add("sim.queue.push_pop_ns", "ns");
    add("sim.pipe.admit_ns", "ns");
    add("sim.events", "count");
    add("sim.data_msgs", "count");
    add("sim.control_msgs", "count");
    add("sim.timers_fired", "count");
    add("sim.dead_drop_ratio", "ratio");
    add("dht.route.cached_ns_per_hop", "ns");
    add("dht.route.uncached_ns_per_hop", "ns");
    add("dht.route.hops_per_lookup", "count");
    add("dht.maint_msgs", "count");
    add("dht.maint_share", "ratio");
    for k in DCO_KINDS {
        add(&format!("core.msgs.{k}"), "count");
    }
    add("core.fetch_fail_ratio", "ratio");
    add("core.provider_none_ratio", "ratio");
    add("core.index.select_ns", "ns");
    for k in PULL_KINDS {
        add(&format!("baselines.msgs.{k}"), "count");
    }
    add("metrics.extract_s", "s");
    add("metrics.record_ns", "ns");
    add("metrics.duplicate_ratio", "ratio");
    add("workload.install_s", "s");
    add("workload.churn_events", "count");
    add("shard.epochs", "count");
    add("shard.cross_msgs", "count");
    add("shard.cross_bytes", "bytes");
    add("shard.bytes_per_msg", "bytes");
    for w in 0..SHARD_WORKERS {
        add(&format!("shard.worker.{w}.compute_s"), "s");
        add(&format!("shard.worker.{w}.wait_s"), "s");
        add(&format!("shard.worker.{w}.send_s"), "s");
    }
    add("shard.skew", "ratio");
    add("shard.epoch_wait_us.p50", "us");
    add("shard.epoch_wait_us.p99", "us");
    add("shard.encode_ns_per_msg", "ns");
    add("shard.decode_ns_per_msg", "ns");
    add("trace.overhead", "ratio");
    c
}

/// Per-layer values of one traced run, by name.
pub type Layers = BTreeMap<String, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn put(l: &mut Layers, name: &str, v: f64) {
    l.insert(name.to_string(), v);
}

fn put_percentile(l: &mut Layers, name: &str, xs: &[f64], p: f64) {
    if let Some(v) = percentile(xs, p) {
        put(l, name, v);
    }
}

/// Control messages under the tag prefix `prefix`.
fn tag_sum(c: &CounterSnapshot, prefix: &str) -> u64 {
    c.by_tag
        .iter()
        .filter(|(t, _)| t.starts_with(prefix))
        .map(|(_, n)| n)
        .sum()
}

/// Chord ring-maintenance messages: the `chord.*` tags.
pub fn maint_msgs(c: &CounterSnapshot) -> u64 {
    tag_sum(c, "chord.")
}

/// Message counts by layer, from the run's (or the merged) counters. An
/// overlay that sends any message of a family reports every kind of it,
/// so a kind it never sent reads 0 rather than "not exercised".
fn counter_layers(l: &mut Layers, c: &CounterSnapshot) {
    let maint = maint_msgs(c) as f64;
    put(l, "sim.data_msgs", c.data_total as f64);
    put(l, "sim.control_msgs", c.control_total as f64);
    put(l, "dht.maint_msgs", maint);
    put(l, "dht.maint_share", ratio(maint, c.control_total as f64));
    for (family, layer, kinds) in [
        ("dco.", "core", DCO_KINDS),
        ("pull.", "baselines", PULL_KINDS),
    ] {
        if tag_sum(c, family) == 0 {
            continue;
        }
        for kind in kinds {
            put(l, &format!("{layer}.msgs.{kind}"), 0.0);
        }
        for (tag, n) in &c.by_tag {
            if let Some(kind) = tag.strip_prefix(family) {
                put(l, &format!("{layer}.msgs.{kind}"), *n as f64);
            }
        }
    }
}

/// Layers every single-process overlay shares: engine, queue, pipes,
/// observer, workload.
fn engine_layers<P: Overlay>(t: &Traced<P>, seed: u64) -> Layers {
    let mut l = Layers::new();
    let sim: &Simulator<P> = &t.sim;
    let (stats, c) = (sim.stats(), sim.counters());
    put_percentile(&mut l, "sim.us_per_event.p50", &t.slices.us_per_event, 50.0);
    put_percentile(&mut l, "sim.us_per_event.p95", &t.slices.us_per_event, 95.0);
    let depth_p50 = percentile(&t.slices.queue_depth, 50.0);
    if let Some(d) = depth_p50 {
        put(&mut l, "sim.queue.depth.p50", d);
    }
    let depth_max = t.slices.queue_depth.iter().copied().fold(0.0, f64::max);
    put(&mut l, "sim.queue.depth.max", depth_max);
    let depth = depth_p50
        .or_else(|| median(&t.slices.queue_depth))
        .unwrap_or(1.0);
    put(
        &mut l,
        "sim.queue.push_pop_ns",
        probes::queue_push_pop_ns(depth as usize, seed),
    );
    let sends = (c.data_total() + c.control_total()) as f64;
    let chunk = SizeBits::from_kilobits(300);
    put(
        &mut l,
        "sim.pipe.admit_ns",
        probes::pipe_admit_ns(
            sim.num_nodes(),
            ratio(c.data_total() as f64, sends),
            chunk,
            seed,
        ),
    );
    put(&mut l, "sim.events", stats.events_processed as f64);
    put(&mut l, "sim.timers_fired", stats.timers_fired as f64);
    put(
        &mut l,
        "sim.dead_drop_ratio",
        ratio(
            (c.dropped_dead() + stats.sends_from_dead) as f64,
            sends + stats.sends_from_dead as f64,
        ),
    );
    counter_layers(&mut l, &c.snapshot());
    let obs = sim.protocol().observer();
    put(&mut l, "metrics.extract_s", t.extract_s);
    put(
        &mut l,
        "metrics.record_ns",
        probes::record_ns(obs.n_nodes() as u32, obs.n_chunks() as u32, seed),
    );
    put(
        &mut l,
        "metrics.duplicate_ratio",
        ratio(obs.duplicate_receptions() as f64, c.data_total() as f64),
    );
    put(&mut l, "workload.install_s", t.install_s);
    put(&mut l, "workload.churn_events", t.churn_events as f64);
    l
}

/// Per-layer values of a traced DCO run (static or churn).
pub fn dco_layers(t: &Traced<DcoProtocol>, seed: u64) -> Layers {
    let mut l = engine_layers(t, seed);
    let p = t.sim.protocol();
    let cfg = p.config();
    let keys = probes::chunk_keys(p.namer(), cfg.n_chunks);
    let (uncached, hops) = probes::route_uncached(p.chord(), &keys, seed);
    put(&mut l, "dht.route.uncached_ns_per_hop", uncached);
    put(&mut l, "dht.route.hops_per_lookup", hops);
    if cfg.static_ring {
        put(
            &mut l,
            "dht.route.cached_ns_per_hop",
            probes::route_cached_ns(cfg.n_nodes, cfg.neighbors, &keys, seed),
        );
    }
    let c = t.sim.counters();
    put(
        &mut l,
        "core.fetch_fail_ratio",
        ratio(p.fetch_failures as f64, c.tagged("dco.request") as f64),
    );
    put(
        &mut l,
        "core.provider_none_ratio",
        ratio(p.provider_none as f64, p.lookups_delivered as f64),
    );
    let indices: usize = (0..cfg.n_nodes)
        .map(|n| p.index_count(dco_sim::node::NodeId(n)))
        .sum();
    let per_key = (indices / cfg.n_chunks.max(1) as usize).max(1);
    put(
        &mut l,
        "core.index.select_ns",
        probes::index_select_ns(cfg.n_chunks, per_key, cfg.n_nodes, seed),
    );
    l
}

/// Per-layer values of a traced pull-mesh run.
pub fn pull_layers(t: &Traced<PullProtocol>, seed: u64) -> Layers {
    engine_layers(t, seed)
}

/// Per-layer values of a traced sharded run.
pub fn shard_layers(run: &ShardRun) -> Layers {
    let mut l = Layers::new();
    let m = &run.merged;
    let c = &m.counters;
    put(&mut l, "sim.events", m.owned_events as f64);
    counter_layers(&mut l, c);
    let sends = (c.data_total + c.control_total) as f64;
    put(
        &mut l,
        "sim.dead_drop_ratio",
        ratio(c.dropped_dead as f64, sends),
    );
    let dups: u64 = m.workers.iter().map(|w| w.obs.duplicates).sum();
    put(
        &mut l,
        "metrics.duplicate_ratio",
        ratio(dups as f64, c.data_total as f64),
    );
    put(&mut l, "metrics.extract_s", run.extract_s);
    put(&mut l, "shard.epochs", m.epochs as f64);
    put(&mut l, "shard.cross_msgs", m.remote_msgs as f64);
    put(&mut l, "shard.cross_bytes", m.forwarded_bytes as f64);
    put(
        &mut l,
        "shard.bytes_per_msg",
        ratio(m.forwarded_bytes as f64, m.remote_msgs as f64),
    );
    let mut waits_us = Vec::new();
    for (w, t) in run.telemetry.iter().enumerate() {
        put(
            &mut l,
            &format!("shard.worker.{w}.compute_s"),
            t.compute_s(),
        );
        put(&mut l, &format!("shard.worker.{w}.wait_s"), t.recv_s);
        put(&mut l, &format!("shard.worker.{w}.send_s"), t.send_s);
        waits_us.extend(t.epoch_wait_ns.iter().map(|&ns| ns as f64 / 1e3));
    }
    let compute: Vec<f64> = run.telemetry.iter().map(|t| t.compute_s()).collect();
    let (lo, hi) = compute
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if !compute.is_empty() {
        put(&mut l, "shard.skew", ratio(hi, lo));
    }
    put_percentile(&mut l, "shard.epoch_wait_us.p50", &waits_us, 50.0);
    put_percentile(&mut l, "shard.epoch_wait_us.p99", &waits_us, 99.0);
    let (enc, dec) = probes::codec_ns(&run.captured);
    if enc > 0.0 {
        put(&mut l, "shard.encode_ns_per_msg", enc);
        put(&mut l, "shard.decode_ns_per_msg", dec);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let cat = per_layer_catalog();
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(cat.len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root lists exactly this catalog,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let squeeze: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let mut all: Vec<(String, &str)> = per_layer_catalog();
        all.extend(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)));
        for (name, unit) in &all {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squeeze.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(squeeze.matches("\"unit\":").count(), all.len());
    }
}
