//! `invoke_mix`: a seeded list of public `Substrate` calls, round-robin
//! over all six backends. About 90% are reads (`invoke` with 16 B–1 KiB
//! payloads, `invoke_batch` with 2–256 calls); about 10% are writes,
//! each paired with its inverse (grant/revoke, spawn/destroy,
//! seal/unseal, mem_write/mem_read). Some revokes are followed by a call
//! on the revoked cap, whose refusal is expected. Fabric dispatch, the
//! capability check and telemetry recording do nearly all the work.
//! Op kinds and sizes are stratified, so every seed carries the same
//! load in a different order.

use std::collections::BTreeMap;
use std::time::Instant;

use lateral_crypto::rng::Drbg;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;
use lateral_substrate::{DomainId, SubstrateError};

use super::{seeded_bytes, stratified};
use crate::backends;
use crate::grid::{Grid, Sizes};
use crate::report::{Metrics, Round, Row, Workload};
use crate::stats::{nanos, Laps};
use crate::trace::{SpanTotals, Tracer};

/// Slots in the timed window of one round; a slot is one read, or one
/// write with its inverse (and, after some revokes, a refused call).
const SLOTS: usize = 100_000;
/// Slots run untimed before the window.
const WARM_SLOTS: usize = 10_000;
/// One op in this many is timed individually; the sampled ops are
/// fixed by their index, so every round times the same ops.
const SAMPLE_EVERY: usize = 16;
/// Ops per lap of the timed window.
const LAP_OPS: u64 = 1_000;
/// Private memory of the service domain, bytes (4 pages).
const MEM_BYTES: usize = 4 * 4096;

#[derive(Clone, Copy, Debug)]
enum Kind {
    Invoke { off: u16, len: u16 },
    Batch { count: u16, len: u16 },
    Grant,
    Revoke,
    DeniedInvoke,
    Spawn,
    Destroy,
    Seal { off: u16, len: u16 },
    Unseal,
    MemWrite { at: u16, off: u16, len: u16 },
    MemRead,
}

#[derive(Clone, Copy, Debug)]
struct Op {
    backend: u8,
    kind: Kind,
}

/// The seeded op list (warm-up ops first) and payload bytes.
pub struct InvokeMix {
    ops: Vec<Op>,
    warm: usize,
    bytes: Vec<u8>,
}

/// Per-backend state of a round.
struct Lane {
    sub: Box<dyn Substrate>,
    client: DomainId,
    server: DomainId,
    cap: ChannelCap,
    granted: Option<ChannelCap>,
    revoked: Option<ChannelCap>,
    spawned: Option<DomainId>,
    sealed: Option<(Vec<u8>, u16, u16)>,
    written: Option<(u16, u16, u16)>,
}

/// What one slot of the op list does.
#[derive(Clone, Copy)]
enum Slot {
    Invoke,
    Batch,
    GrantRevoke { denied: bool },
    SpawnDestroy,
    SealUnseal,
    WriteRead,
}

/// `slots` slots in fixed shares, seeded order: 65% `invoke`, 29.5%
/// `invoke_batch`, 5.5% write pairs split evenly over the four kinds,
/// one grant pair in four followed by a call on the revoked cap.
/// Payload lengths, batch lengths and batch payload lengths are
/// stratified log-uniform draws.
fn gen_ops(rng: &mut Drbg, slots: usize) -> Vec<Op> {
    let writes = slots * 55 / 1000;
    let invokes = slots * 650 / 1000;
    let batches = slots - writes - invokes;
    let mut kinds: Vec<Slot> = (0..writes)
        .map(|j| match j % 4 {
            0 => Slot::GrantRevoke {
                denied: (j / 4) % 4 == 0,
            },
            1 => Slot::SpawnDestroy,
            2 => Slot::SealUnseal,
            _ => Slot::WriteRead,
        })
        .chain((0..invokes).map(|_| Slot::Invoke))
        .chain((0..batches).map(|_| Slot::Batch))
        .collect();
    rng.shuffle(&mut kinds);
    // Seal and mem-write pairs carry a payload too.
    let payloads = invokes + (0..writes).filter(|j| j % 4 >= 2).count();
    let mut lens = stratified(rng, payloads, 16, 1024).into_iter();
    let mut counts = stratified(rng, batches, 2, 256).into_iter();
    let mut batch_lens = stratified(rng, batches, 16, 256).into_iter();
    let mut payload = |rng: &mut Drbg| {
        let len = lens.next().expect("one length per payload") as u16;
        (rng.gen_range(4096) as u16, len)
    };

    let mut ops = Vec::with_capacity(slots + 2 * writes);
    for (i, slot) in kinds.into_iter().enumerate() {
        let backend = (i % backends::NAMES.len()) as u8;
        let mut push = |kind| ops.push(Op { backend, kind });
        match slot {
            Slot::Invoke => {
                let (off, len) = payload(rng);
                push(Kind::Invoke { off, len });
            }
            Slot::Batch => push(Kind::Batch {
                count: counts.next().expect("one count per batch") as u16,
                len: batch_lens.next().expect("one length per batch") as u16,
            }),
            Slot::GrantRevoke { denied } => {
                push(Kind::Grant);
                push(Kind::Revoke);
                if denied {
                    push(Kind::DeniedInvoke);
                }
            }
            Slot::SpawnDestroy => {
                push(Kind::Spawn);
                push(Kind::Destroy);
            }
            Slot::SealUnseal => {
                let (off, len) = payload(rng);
                push(Kind::Seal { off, len });
                push(Kind::Unseal);
            }
            Slot::WriteRead => {
                let (off, len) = payload(rng);
                let at = rng.gen_range((MEM_BYTES - usize::from(len)) as u64) as u16;
                push(Kind::MemWrite { at, off, len });
                push(Kind::MemRead);
            }
        }
    }
    ops
}

impl InvokeMix {
    /// Generates the op list for `seed`.
    pub fn new(seed: u64) -> InvokeMix {
        let mut rng = Drbg::from_seed(format!("perfbench invoke_mix {seed}").as_bytes());
        let mut ops = gen_ops(&mut rng, WARM_SLOTS);
        let warm = ops.len();
        ops.extend(gen_ops(&mut rng, SLOTS));
        InvokeMix {
            ops,
            warm,
            bytes: seeded_bytes(&mut rng, 8192),
        }
    }

    fn payload(&self, off: u16, len: u16) -> &[u8] {
        &self.bytes[usize::from(off)..usize::from(off) + usize::from(len)]
    }

    fn setup() -> Vec<Lane> {
        (0..backends::NAMES.len())
            .map(|idx| {
                let mut sub = backends::make(idx, "perfbench-invoke");
                let server = sub
                    .spawn(DomainSpec::named("mix-server"), Box::new(Echo))
                    .expect("spawn server");
                let client = sub
                    .spawn(DomainSpec::named("mix-client"), Box::new(Echo))
                    .expect("spawn client");
                let cap = sub.grant_channel(client, server, Badge(1)).expect("grant");
                Lane {
                    sub,
                    client,
                    server,
                    cap,
                    granted: None,
                    revoked: None,
                    spawned: None,
                    sealed: None,
                    written: None,
                }
            })
            .collect()
    }

    /// Runs one op. `Ok(false)` is a wrong output; `Err` an unexpected
    /// refusal.
    fn exec(&self, lane: &mut Lane, kind: Kind, tr: &Tracer) -> Result<bool, SubstrateError> {
        let sub = lane.sub.as_mut();
        Ok(match kind {
            Kind::Invoke { off, len } => {
                let p = self.payload(off, len);
                tr.span("substrate.fabric.invoke", || {
                    sub.invoke(lane.client, &lane.cap, p)
                })? == p
            }
            Kind::Batch { count, len } => {
                let views: Vec<&[u8]> = (0..count)
                    .map(|i| self.payload(i.wrapping_mul(31) % 2048, len))
                    .collect();
                let replies = tr.span("substrate.fabric.invoke_batch", || {
                    sub.invoke_batch(lane.client, &lane.cap, &views)
                })?;
                replies.len() == views.len() && replies.iter().zip(&views).all(|(r, v)| r == v)
            }
            Kind::Grant => {
                let cap = tr.span("substrate.fabric.grant", || {
                    sub.grant_channel(lane.client, lane.server, Badge(7))
                })?;
                lane.granted = Some(cap);
                true
            }
            Kind::Revoke => {
                let cap = lane.granted.take().expect("grant precedes revoke");
                tr.span("substrate.fabric.revoke", || sub.revoke_channel(&cap))?;
                lane.revoked = Some(cap);
                true
            }
            Kind::DeniedInvoke => {
                let cap = lane
                    .revoked
                    .take()
                    .expect("revoke precedes the denied call");
                let out = tr.span("substrate.fabric.invoke", || {
                    sub.invoke(lane.client, &cap, b"x")
                });
                matches!(out, Err(SubstrateError::InvalidCapability(_)))
            }
            Kind::Spawn => {
                let id = tr.span("substrate.fabric.spawn", || {
                    sub.spawn(
                        DomainSpec::named("mix-transient").with_mem_pages(1),
                        Box::new(Echo),
                    )
                })?;
                lane.spawned = Some(id);
                true
            }
            Kind::Destroy => {
                let id = lane.spawned.take().expect("spawn precedes destroy");
                tr.span("substrate.fabric.destroy", || sub.destroy(id))?;
                true
            }
            Kind::Seal { off, len } => {
                let blob = tr.span("substrate.fabric.seal", || {
                    sub.seal(lane.server, self.payload(off, len))
                })?;
                lane.sealed = Some((blob, off, len));
                true
            }
            Kind::Unseal => {
                let (blob, off, len) = lane.sealed.take().expect("seal precedes unseal");
                tr.span("substrate.fabric.unseal", || sub.unseal(lane.server, &blob))?
                    == self.payload(off, len)
            }
            Kind::MemWrite { at, off, len } => {
                tr.span("substrate.fabric.mem_write", || {
                    sub.mem_write(lane.server, usize::from(at), self.payload(off, len))
                })?;
                lane.written = Some((at, off, len));
                true
            }
            Kind::MemRead => {
                let (at, off, len) = lane.written.take().expect("write precedes read");
                tr.span("substrate.fabric.mem_read", || {
                    sub.mem_read(lane.server, usize::from(at), usize::from(len))
                })? == self.payload(off, len)
            }
        })
    }
}

fn fabric_totals(lanes: &[Lane]) -> [f64; 3] {
    let mut t = [0.0; 3];
    for lane in lanes {
        let f = lane
            .sub
            .fabric_ref()
            .expect("every backend runs on the fabric");
        t[0] += f.stats().total_invocations() as f64;
        t[1] += f.stats().total_denials() as f64;
        t[2] += f.telemetry().spans_recorded() as f64;
    }
    t
}

impl Workload for InvokeMix {
    fn round(&self, tr: &Tracer) -> Round {
        let t = Instant::now();
        let mut lanes = Self::setup();
        let setup = t.elapsed();

        let mut round = Round {
            setup,
            correct: true,
            ..Round::default()
        };
        for op in &self.ops[..self.warm] {
            let ok = self.exec(
                &mut lanes[usize::from(op.backend)],
                op.kind,
                &Tracer::new(false),
            );
            round.correct &= matches!(ok, Ok(true));
        }
        let ticks_before: u64 = lanes.iter().map(|l| l.sub.now()).sum();
        let fabric_before = fabric_totals(&lanes);
        let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();

        let mut laps = Laps::start(LAP_OPS);
        for (i, op) in self.ops[self.warm..].iter().enumerate() {
            tr.set_op(i as u64);
            let lane = &mut lanes[usize::from(op.backend)];
            let sampled = i % SAMPLE_EVERY == 0;
            let start = sampled.then(Instant::now);
            let out = self.exec(lane, op.kind, tr);
            if let Some(start) = start {
                let ns = nanos(start.elapsed());
                round.samples.push(if out.is_ok() { ns } else { u64::MAX });
            }
            match out {
                Ok(ok) => round.correct &= ok,
                Err(_) => round.failed += 1,
            }
            laps.step();
        }
        (round.window, round.laps) = laps.finish();
        round.ops = (self.ops.len() - self.warm) as u64;

        round.sim_ticks = lanes.iter().map(|l| l.sub.now()).sum::<u64>() - ticks_before;
        let fabric_after = fabric_totals(&lanes);
        for op in &self.ops[self.warm..] {
            let name = match op.kind {
                Kind::Invoke { .. } | Kind::DeniedInvoke => "invoke",
                Kind::Batch { count, .. } => {
                    *by_kind.entry("batch_calls").or_default() += f64::from(count);
                    "batch"
                }
                Kind::Grant => "grant",
                Kind::Revoke => "revoke",
                Kind::Spawn => "spawn",
                Kind::Destroy => "destroy",
                Kind::Seal { .. } => "seal",
                Kind::Unseal => "unseal",
                Kind::MemWrite { .. } => "mem_write",
                Kind::MemRead => "mem_read",
            };
            *by_kind.entry(name).or_default() += 1.0;
        }
        round.counts = by_kind;
        round
            .counts
            .insert("invocations", fabric_after[0] - fabric_before[0]);
        round
            .counts
            .insert("denials", fabric_after[1] - fabric_before[1]);
        round
            .counts
            .insert("spans", fabric_after[2] - fabric_before[2]);
        round
    }

    fn sizes(&self, _traced: &Round) -> Sizes {
        let (mut inv, mut inv_bytes, mut batches, mut calls, mut batch_bytes) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for op in &self.ops[self.warm..] {
            match op.kind {
                Kind::Invoke { len, .. } => {
                    inv += 1.0;
                    inv_bytes += f64::from(len);
                }
                Kind::Batch { count, len } => {
                    batches += 1.0;
                    calls += f64::from(count);
                    batch_bytes += f64::from(count) * f64::from(len);
                }
                _ => {}
            }
        }
        Sizes {
            record_bytes: 256.0,
            signed_bytes: 32,
            invoke_bytes: inv_bytes / inv,
            batch_len: (calls / batches).round() as usize,
            batch_bytes: (batch_bytes / calls).round() as usize,
            group_len: 1,
            group_bytes: 16,
            packet_bytes: 256.0,
        }
    }

    fn layers(
        &self,
        traced: &Round,
        _spans: &BTreeMap<&'static str, SpanTotals>,
        grid: &Grid,
        m: &mut Metrics,
    ) -> Vec<Row> {
        m.set(
            "substrate.fabric.invocations_per_op",
            traced.per_op("invocations"),
        );
        m.set(
            "substrate.fabric.denied_ratio",
            traced.count("denials") / traced.count("invocations").max(1.0),
        );
        m.set(
            "substrate.sim_ticks_per_op",
            traced.sim_ticks as f64 / traced.ops as f64,
        );
        m.set("telemetry.spans_per_op", traced.per_op("spans"));

        // Every backend takes one op in six, so each op type's cost is
        // the mean over backends. Spans, the capability check and trace
        // recording run inside these calls and are priced with them.
        let mut invoke = 0.0;
        for op in &self.ops[self.warm..] {
            let c = &grid.backends[usize::from(op.backend)];
            invoke += match op.kind {
                Kind::Invoke { len, .. } => c.invoke.at(f64::from(len)),
                Kind::DeniedInvoke => c.invoke.base,
                Kind::Batch { count, .. } => c.batch_call * f64::from(count),
                _ => 0.0,
            };
        }
        let ops = traced.ops as f64;
        let mean = |f: fn(&crate::grid::BackendCosts) -> f64| {
            grid.backends.iter().map(f).sum::<f64>() / grid.backends.len() as f64
        };
        let per = |k: &str| traced.per_op(k);
        vec![
            Row {
                layer: "substrate.fabric invoke + invoke_batch".into(),
                calls_per_op: per("invoke") + per("batch_calls"),
                ns_per_op: invoke / ops,
            },
            Row::flat("substrate.fabric grant", per("grant"), mean(|c| c.grant)),
            Row::flat("substrate.fabric revoke", per("revoke"), mean(|c| c.revoke)),
            Row::flat("substrate.fabric spawn", per("spawn"), mean(|c| c.spawn)),
            Row::flat(
                "substrate.fabric destroy",
                per("destroy"),
                mean(|c| c.destroy),
            ),
            Row::flat("substrate.fabric seal", per("seal"), mean(|c| c.seal)),
            Row::flat("substrate.fabric unseal", per("unseal"), mean(|c| c.unseal)),
            Row::flat(
                "substrate.fabric mem_write",
                per("mem_write"),
                mean(|c| c.mem_write),
            ),
            Row::flat(
                "substrate.fabric mem_read",
                per("mem_read"),
                mean(|c| c.mem_read),
            ),
        ]
    }
}
