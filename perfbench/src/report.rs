//! What one run reports: end-to-end metrics over untraced rounds, or
//! per-layer metrics and the attribution table from a traced round.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::backends;
use crate::grid::{Grid, Sizes};
use crate::stats::{keep_fastest, median, nanos, peak_rss_mib, quartiles, Latency};
use crate::trace::{SpanTotals, Tracer};

/// One round: set-up, warm-up, then a timed window over the workload's
/// fixed seeded op list.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time of the set-up (inputs excluded).
    pub setup: Duration,
    /// Wall time of the timed window.
    pub window: Duration,
    /// The window in laps, ns, split at the same op-list steps in every
    /// round.
    pub laps: Vec<u64>,
    /// Ops completed in the window.
    pub ops: u64,
    /// Ops that failed or were refused unexpectedly.
    pub failed: u64,
    /// Whether every output check held.
    pub correct: bool,
    /// Latency samples, ns (`u64::MAX` for a failed op).
    pub samples: Vec<u64>,
    /// Logical ticks the simulated hardware charged in the window.
    pub sim_ticks: u64,
    /// Raw totals from the program's counters, read after the window.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Round {
    /// A raw counter total (0 when not recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// A raw counter total divided by the op count.
    pub fn per_op(&self, name: &str) -> f64 {
        self.count(name) / self.ops.max(1) as f64
    }

    /// Wall time per op in the window, ns.
    pub fn ns_per_op(&self) -> f64 {
        nanos(self.window) as f64 / self.ops.max(1) as f64
    }
}

/// One row of an attribution table: a layer's modelled cost per op.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer (and primitive) the cost belongs to.
    pub layer: String,
    /// Calls per op, from the program's counters.
    pub calls_per_op: f64,
    /// Grid cost per op, ns.
    pub ns_per_op: f64,
}

impl Row {
    /// A row of `calls` per op at a flat `ns_each`.
    pub fn flat(layer: &str, calls_per_op: f64, ns_each: f64) -> Row {
        Row {
            layer: layer.to_string(),
            calls_per_op,
            ns_per_op: calls_per_op * ns_each,
        }
    }
}

/// A workload: seeded inputs plus the rounds run over them.
pub trait Workload {
    /// Runs one round, recording spans into `tr` when it is enabled.
    fn round(&self, tr: &Tracer) -> Round;

    /// The operand sizes the grid should time, from a traced round.
    fn sizes(&self, traced: &Round) -> Sizes;

    /// Per-layer metrics from a traced round's counters and spans, and
    /// the rows of the attribution table priced by `grid`.
    fn layers(
        &self,
        traced: &Round,
        spans: &BTreeMap<&'static str, SpanTotals>,
        grid: &Grid,
        m: &mut Metrics,
    ) -> Vec<Row>;
}

/// A named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The per-layer metric names and units every traced run prints.
pub fn per_layer_spec() -> Vec<(String, &'static str)> {
    let mut spec: Vec<(String, &'static str)> = [
        ("crypto.sha256.ns_per_kib", "ns/KiB"),
        ("crypto.aead.seal_ns", "ns"),
        ("crypto.aead.open_ns", "ns"),
        ("crypto.sign.sign_ns", "ns"),
        ("crypto.sign.verify_ns", "ns"),
        ("crypto.dh.ns", "ns"),
        ("net.channel.seal_ns", "ns"),
        ("net.channel.open_ns", "ns"),
        ("net.channel.seal_numbered_ns", "ns"),
        ("net.channel.records_per_op", "count"),
        ("net.session.group_encode_ns", "ns"),
        ("net.session.group_decode_ns", "ns"),
        ("net.session.requests_per_group", "count"),
        ("net.sim.packets_per_op", "count"),
        ("net.sim.bytes_per_op", "B"),
        ("net.sim.dropped_ratio", "ratio"),
        ("net.sim.send_ns", "ns"),
        ("core.remote.submit_ns", "ns"),
        ("core.remote.flush_us", "us"),
        ("core.remote.pump_us", "us"),
        ("core.remote.poll_us", "us"),
        ("core.remote.handshake_us", "us"),
        ("core.remote.resume_us", "us"),
        ("core.remote.full_attestations", "count"),
        ("core.remote.resumes", "count"),
        ("core.remote.refused_ratio", "ratio"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for name in backends::NAMES {
        spec.push((format!("substrate.fabric.invoke_ns.{name}"), "ns"));
    }
    for name in backends::NAMES {
        spec.push((
            format!("substrate.fabric.invoke_batch_ns_per_call.{name}"),
            "ns",
        ));
    }
    spec.extend(
        [
            ("substrate.fabric.grant_ns", "ns"),
            ("substrate.fabric.revoke_ns", "ns"),
            ("substrate.fabric.spawn_ns", "ns"),
            ("substrate.fabric.destroy_ns", "ns"),
            ("substrate.fabric.seal_ns", "ns"),
            ("substrate.fabric.mem_ns", "ns"),
            ("substrate.fabric.invocations_per_op", "count"),
            ("substrate.fabric.denied_ratio", "ratio"),
            ("substrate.sim_ticks_per_op", "ticks"),
            ("telemetry.span_ns", "ns"),
            ("telemetry.spans_per_op", "count"),
            ("telemetry.counter_incr_ns", "ns"),
            ("substrate.shard.overloaded_ratio", "ratio"),
            ("substrate.shard.xshard_calls_per_op", "count"),
            ("substrate.shard.post_ns", "ns"),
            ("apps.fleet.shed_ratio", "ratio"),
            ("apps.fleet.wan_retransmit_ratio", "ratio"),
            ("apps.fleet.duplicate_ratio", "ratio"),
            ("apps.fleet.drain_ticks", "count"),
            ("apps.fleet.tick_us", "us"),
            ("core.supervisor.respawns", "count"),
            ("core.supervisor.quarantines", "count"),
            ("registry.certify_us", "us"),
            ("registry.resolve_us", "us"),
            ("registry.cache_hit_ratio", "ratio"),
            ("registry.refusals", "count"),
            ("wot.ingest_us", "us"),
            ("wot.converge_us", "us"),
            ("wot.iterations_per_converge", "count"),
            ("wot.rows_rebuilt", "count"),
            ("wot.stale_ratio", "ratio"),
            ("attrib.covered_share", "share"),
            ("attrib.residual_us_per_op", "us"),
            ("trace.overhead_share", "share"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    spec
}

/// Per-layer metric values, checked against [`per_layer_spec`].
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Every spec'd metric in spec order, unset ones as 0 (the layer
    /// did no work in this workload).
    ///
    /// # Panics
    ///
    /// On a metric name missing from [`per_layer_spec`].
    pub fn resolve(&self) -> Vec<Metric> {
        let spec = per_layer_spec();
        for name in self.values.keys() {
            assert!(
                spec.iter().any(|(n, _)| n == name),
                "per-layer metric {name} missing from the spec"
            );
        }
        spec.into_iter()
            .map(|(name, unit)| Metric {
                value: self.values.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }
}

/// Mean span duration of `name`, ns (0 when never recorded).
pub fn span_ns(spans: &BTreeMap<&'static str, SpanTotals>, name: &str) -> f64 {
    spans.get(name).map_or(0.0, SpanTotals::mean_ns)
}

/// Fewest untraced rounds a run reports over.
pub const MIN_ROUNDS: usize = 3;

/// The end-to-end metrics, folded in from untraced rounds one at a
/// time so that memory does not grow with the number of rounds.
///
/// Every round runs the same op list, splits its window into the same
/// laps and times the same sampled ops. Each lap and each sampled op is
/// taken from the round in which it ran fastest: time lost to other
/// tenants of a shared host then counts only where every round lost it,
/// while any cost the program pays at a fixed point of the list stays in
/// every round. Throughput is the ops of one round over the sum of the
/// fastest laps; the latencies are read from the fastest samples. Set-up
/// is the median across rounds. Peak RSS is read once [`MIN_ROUNDS`]
/// rounds are in, so it covers the same work in every run: later rounds
/// rebuild the same state, and the allocator's heap may still step up
/// by a few MiB at a moment that depends on timing, not on the program.
#[derive(Default)]
pub struct EndToEnd {
    rounds: usize,
    peak_rss_mib: f64,
    ops: u64,
    laps: Vec<u64>,
    samples: Vec<u64>,
    setup: Vec<f64>,
    thr: Vec<f64>,
    tail: Vec<f64>,
}

impl EndToEnd {
    /// Folds in one round and prints its own figures.
    ///
    /// # Panics
    ///
    /// When the round's laps or samples do not line up with earlier
    /// rounds': they ran over one op list, so that is a benchmark bug.
    pub fn add(&mut self, r: &Round) {
        let lat = Latency::of(&mut r.samples.clone());
        let secs = r.window.as_secs_f64();
        println!(
            "round {}: setup {:.4} s, window {:.4} s in {} laps, {} ops ({} failed), \
             p50 {:.3} us, tail p{:.2} {:.3} us over {} samples, {} sim ticks",
            self.rounds,
            r.setup.as_secs_f64(),
            secs,
            r.laps.len(),
            r.ops,
            r.failed,
            lat.p50_ns / 1e3,
            lat.tail_pct,
            lat.tail_ns / 1e3,
            lat.samples,
            r.sim_ticks
        );
        assert!(
            (self.rounds == 0 || r.ops == self.ops)
                && keep_fastest(&mut self.laps, &r.laps)
                && keep_fastest(&mut self.samples, &r.samples),
            "rounds over one op list must time the same ops, laps and samples"
        );
        self.rounds += 1;
        if self.rounds == MIN_ROUNDS {
            self.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
        }
        self.ops = r.ops;
        self.setup.push(r.setup.as_secs_f64());
        self.thr.push(r.ops as f64 / secs.max(1e-9));
        self.tail.push(lat.tail_ns / 1e3);
    }

    /// The metrics over every round folded in.
    pub fn metrics(&self) -> Vec<Metric> {
        for (name, v) in [
            ("throughput_per_s", &self.thr),
            ("latency_tail_us", &self.tail),
        ] {
            let (q1, med, q3) = quartiles(v);
            println!("rounds {name}: median {med:.4}, q1 {q1:.4}, q3 {q3:.4}");
        }
        let window_ns = self.laps.iter().sum::<u64>().max(1);
        let lat = Latency::of(&mut self.samples.clone());
        println!(
            "fastest laps over {} rounds: window {:.4} s, p50 {:.3} us, tail p{:.2} {:.3} us",
            self.rounds,
            window_ns as f64 / 1e9,
            lat.p50_ns / 1e3,
            lat.tail_pct,
            lat.tail_ns / 1e3
        );
        vec![
            Metric {
                name: "throughput_per_s".into(),
                value: self.ops as f64 * 1e9 / window_ns as f64,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_us".into(),
                value: lat.p50_ns / 1e3,
                unit: "us",
            },
            Metric {
                name: "latency_tail_us".into(),
                value: lat.tail_ns / 1e3,
                unit: "us",
            },
            Metric {
                name: "peak_rss_mb".into(),
                value: self.peak_rss_mib,
                unit: "MiB",
            },
            Metric {
                name: "setup_s".into(),
                value: median(&self.setup),
                unit: "s",
            },
        ]
    }
}

/// Prints the attribution table and returns (covered share, residual
/// µs per op).
pub fn attribution(workload: &str, measured_ns: f64, rows: &[Row]) -> (f64, f64) {
    println!(
        "attribution {workload}: measured {:.3} us/op (untraced)",
        measured_ns / 1e3
    );
    println!(
        "attribution {:<44} {:>12} {:>12} {:>8}",
        "layer", "calls/op", "us/op", "share"
    );
    let mut covered = 0.0;
    for r in rows {
        covered += r.ns_per_op;
        println!(
            "attribution {:<44} {:>12.4} {:>12.4} {:>7.1}%",
            r.layer,
            r.calls_per_op,
            r.ns_per_op / 1e3,
            100.0 * r.ns_per_op / measured_ns
        );
    }
    let residual = measured_ns - covered;
    println!(
        "attribution {:<44} {:>12} {:>12.4} {:>7.1}%",
        "residual (no layer)",
        "",
        residual / 1e3,
        100.0 * residual / measured_ns
    );
    (covered / measured_ns, residual / 1e3)
}

/// Writes the result line: the one JSON object the caller parses.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
