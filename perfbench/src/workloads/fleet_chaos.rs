//! `fleet_chaos`: a moderate `FleetWorld` on a two-shard software pool,
//! ticked many times under recurring churn: periodic crash waves, one
//! burst round that overruns the bounded shard inboxes, one firmware
//! recall, and steady WAN loss. An op is one reading acked at the
//! utility; latency is the wall time of one `FleetWorld::tick`.
//!
//! The shard backends are wrapped in [`Probe`]s so the benchmark can
//! count and time the world's calls into the substrate layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use lateral_apps::fleet::{FleetConfig, FleetStats, FleetWorld, FLEET_FW_V2_NAME};
use lateral_crypto::rng::Drbg;
use lateral_net::channel::BackoffSchedule;
use lateral_substrate::fault::{ChurnEvent, ChurnPlan};
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::Substrate;

use crate::grid::{Grid, Sizes};
use crate::probe::{Probe, ProbeLog};
use crate::report::{span_ns, Metrics, Round, Row, Workload};
use crate::stats::{nanos, Laps};
use crate::trace::{SpanTotals, Tracer};

/// Meters in the fleet.
const METERS: u32 = 600;
/// Utility shards.
const SHARDS: u32 = 2;
/// Production ticks per round; the world then drains.
const TICKS: u64 = 800;
/// Ticks between crash waves.
const WAVE_EVERY: u64 = 40;
/// Ticks run untimed before the window.
const WARM_TICKS: u64 = 100;
/// Ticks per lap of the timed window.
const LAP_TICKS: u64 = 8;
/// Wire bytes of one encoded reading.
const READING_BYTES: f64 = 11.0;

/// The seeded fleet scenario.
pub struct FleetChaos {
    config: FleetConfig,
}

/// The seed moves when each wave, the burst and the recall land and
/// how deep each wave cuts, within fixed ranges, so every seed carries
/// the same load shape.
fn scenario(rng: &mut Drbg) -> FleetConfig {
    let mut churn = ChurnPlan::new();
    let mut at = WAVE_EVERY / 2;
    while at < TICKS {
        let tick = at + rng.gen_range(WAVE_EVERY / 2);
        churn.push(ChurnEvent::crash_fraction(
            tick,
            10_000 + rng.gen_range(10_000) as u32,
        ));
        at += WAVE_EVERY;
    }
    // Early, so the median tick is well inside the post-recall fleet.
    churn.push(ChurnEvent::recall(
        TICKS / 5 + rng.gen_range(TICKS / 20),
        FLEET_FW_V2_NAME,
    ));
    FleetConfig {
        meters: METERS,
        shards: SHARDS,
        inbox_capacity: (METERS / SHARDS) as usize + 20,
        rounds: TICKS,
        churn,
        drop_every: 7,
        v2_fraction_ppm: 100_000,
        burst_round: Some(TICKS / 3 + rng.gen_range(TICKS / 2)),
        backoff: BackoffSchedule::capped(1, 8, 4),
        restart_backoff: 3,
        max_restarts: 8,
    }
}

fn stat_counts(s: &FleetStats) -> [(&'static str, u64); 13] {
    [
        ("produced", s.produced),
        ("produced_wh", s.produced_wh),
        ("wan_batches", s.wan_batches),
        ("wan_retransmissions", s.wan_retransmissions),
        ("wan_timeouts", s.wan_timeouts),
        ("wan_duplicates", s.wan_duplicates),
        ("delivered", s.delivered),
        ("shed", s.shed),
        ("acked", s.acked),
        ("respawns", s.respawns),
        (
            "quarantines",
            s.quarantined_by_recall
                + s.quarantined_by_distrust
                + s.quarantined_on_respawn
                + s.quarantined_by_budget,
        ),
        ("crashes", s.crashes),
        ("drain_ticks", s.drain_ticks),
    ]
}

impl FleetChaos {
    /// Generates the churn plan and fleet configuration for `seed`.
    pub fn new(seed: u64) -> FleetChaos {
        let mut rng = Drbg::from_seed(format!("perfbench fleet_chaos {seed}").as_bytes());
        FleetChaos {
            config: scenario(&mut rng),
        }
    }
}

impl Workload for FleetChaos {
    fn round(&self, tr: &Tracer) -> Round {
        let log = Rc::new(RefCell::new(ProbeLog::default()));
        let t = Instant::now();
        let pool: Vec<Box<dyn Substrate>> = (0..SHARDS)
            .map(|_| {
                Box::new(Probe::new(
                    Box::new(SoftwareSubstrate::new("perfbench-fleet")),
                    log.clone(),
                    tr.clone(),
                )) as Box<dyn Substrate>
            })
            .collect();
        let mut world = FleetWorld::new(pool, self.config.clone());
        let setup = t.elapsed();

        for _ in 0..WARM_TICKS {
            world.tick();
        }
        let before = *world.stats();
        let probe_before = *log.borrow();
        let (delivered_before, dropped_before) =
            (world.network.delivered(), world.network.dropped());
        let packets_before = world.network.recorded().len();

        let mut samples = Vec::new();
        let mut drain_ticks = 0u64;
        let mut laps = Laps::start(LAP_TICKS);
        while world.round() < TICKS || world.pending() > 0 {
            if world.round() >= TICKS {
                drain_ticks += 1;
                if drain_ticks > 512 {
                    break;
                }
            }
            tr.set_op(world.round());
            let start = Instant::now();
            tr.span("apps.fleet.tick", || world.tick());
            samples.push(nanos(start.elapsed()));
            laps.step();
        }
        let (window, laps) = laps.finish();

        let after = *world.stats();
        let probe = *log.borrow();
        let mut counts: BTreeMap<&'static str, f64> = stat_counts(&after)
            .iter()
            .zip(stat_counts(&before))
            .map(|((k, a), (_, b))| (*k, (a - b) as f64))
            .collect();
        counts.insert("drain_ticks", drain_ticks as f64);
        counts.insert("ticks", samples.len() as f64);
        counts.insert("probe_calls", (probe.calls - probe_before.calls) as f64);
        counts.insert("payloads", (probe.payloads - probe_before.payloads) as f64);
        counts.insert("xshard", (probe.xshard - probe_before.xshard) as f64);
        counts.insert("fabric_spans", (probe.spans - probe_before.spans) as f64);
        counts.insert(
            "net_delivered",
            (world.network.delivered() - delivered_before) as f64,
        );
        counts.insert("dropped", (world.network.dropped() - dropped_before) as f64);
        for p in &world.network.recorded()[packets_before..] {
            *counts.entry("packets").or_default() += 1.0;
            *counts.entry("bytes").or_default() += p.payload.len() as f64;
        }

        // Conservation: every produced reading acked, and the shard
        // aggregators hold exactly the produced count and watt-hours.
        let stats = world.stats();
        let totals = world.shard_totals();
        let correct = world.pending() == 0
            && stats.acked == stats.produced
            && totals.iter().map(|(c, _)| c).sum::<u64>() == stats.acked
            && totals.iter().map(|(_, wh)| wh).sum::<u64>() == stats.produced_wh;
        Round {
            setup,
            window,
            laps,
            ops: after.acked - before.acked,
            failed: 0,
            correct,
            samples,
            sim_ticks: probe.clock - probe_before.clock,
            counts,
        }
    }

    fn sizes(&self, traced: &Round) -> Sizes {
        let batch = traced.count("payloads") / traced.count("probe_calls").max(1.0);
        Sizes {
            record_bytes: traced.count("bytes") / traced.count("packets").max(1.0),
            signed_bytes: 32,
            invoke_bytes: READING_BYTES,
            batch_len: batch.round().max(1.0) as usize,
            batch_bytes: READING_BYTES as usize,
            group_len: 1,
            group_bytes: 16,
            packet_bytes: traced.count("bytes") / traced.count("packets").max(1.0),
        }
    }

    fn layers(
        &self,
        traced: &Round,
        spans: &BTreeMap<&'static str, SpanTotals>,
        grid: &Grid,
        m: &mut Metrics,
    ) -> Vec<Row> {
        let per = |k: &str| traced.per_op(k);
        let c = |k: &str| traced.count(k);
        m.set("net.channel.records_per_op", per("packets"));
        m.set("net.sim.packets_per_op", per("packets"));
        m.set("net.sim.bytes_per_op", per("bytes"));
        m.set(
            "net.sim.dropped_ratio",
            c("dropped") / c("packets").max(1.0),
        );
        m.set("substrate.fabric.invocations_per_op", per("payloads"));
        m.set(
            "substrate.sim_ticks_per_op",
            traced.sim_ticks as f64 / traced.ops as f64,
        );
        m.set("telemetry.spans_per_op", per("fabric_spans"));
        m.set(
            "substrate.shard.overloaded_ratio",
            c("shed") / (c("shed") + c("acked")).max(1.0),
        );
        m.set("substrate.shard.xshard_calls_per_op", per("xshard"));
        m.set("apps.fleet.shed_ratio", c("shed") / c("produced").max(1.0));
        m.set(
            "apps.fleet.wan_retransmit_ratio",
            c("wan_retransmissions") / c("wan_batches").max(1.0),
        );
        m.set(
            "apps.fleet.duplicate_ratio",
            c("wan_duplicates") / c("wan_batches").max(1.0),
        );
        m.set("apps.fleet.drain_ticks", c("drain_ticks"));
        m.set(
            "apps.fleet.tick_us",
            span_ns(spans, "apps.fleet.tick") / 1e3,
        );
        m.set("core.supervisor.respawns", c("respawns"));
        m.set("core.supervisor.quarantines", c("quarantines"));

        let sealed_bytes = per("delivered") * READING_BYTES;
        let opened = per("net_delivered");
        let opened_bytes = per("bytes") * c("net_delivered") / c("packets").max(1.0);
        vec![
            Row {
                layer: "net.channel seal_numbered".into(),
                calls_per_op: per("wan_batches"),
                ns_per_op: grid.chan_seal_numbered.base * per("wan_batches")
                    + grid.chan_seal_numbered.per_byte * sealed_bytes,
            },
            Row {
                layer: "net.channel open_numbered".into(),
                calls_per_op: opened,
                ns_per_op: grid.chan_open_numbered.base * opened
                    + grid.chan_open_numbered.per_byte * opened_bytes,
            },
            Row {
                layer: "net.sim send+recv".into(),
                calls_per_op: per("packets"),
                ns_per_op: grid.net_send.base * per("packets")
                    + grid.net_send.per_byte * per("bytes"),
            },
            Row::flat(
                "substrate.shard post+drain",
                per("shed") + per("acked"),
                grid.shard_post,
            ),
            Row::flat(
                "substrate.fabric invoke_batch (software)",
                per("payloads"),
                grid.backends[0].batch_call,
            ),
            Row::flat(
                "crypto.sign verify (respawn re-attest)",
                per("respawns"),
                grid.verify,
            ),
        ]
    }
}
