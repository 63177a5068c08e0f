//! `remote_session`: a handful of `RemoteClient`s share one `Network`
//! with one `RemoteServer` exporting an attested counter component.
//! Each session is a seeded mix of multiplexed groups (window 1–32) and
//! lock-step requests with 16 B–4 KiB payloads, and ends with
//! `disconnect`; the client's next session starts with a ticket
//! `resume`. Every few sessions the server's epoch moves, so the next
//! resume of each client is refused and the full attested handshake
//! runs instead. An op is one request answered; its latency runs from
//! `submit`/`send_request` to the reply being polled, and for a
//! session's first request it starts before the reconnect.
//!
//! The software substrate cannot attest, so the exported component runs
//! on the attesting microkernel backend.

use std::collections::BTreeMap;
use std::time::Instant;

use lateral_core::composer::{compose, Assembly};
use lateral_core::manifest::{AppManifest, ComponentManifest};
use lateral_core::remote::{establish, RemoteClient, RemoteServer, ServiceExport};
use lateral_core::CoreError;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_net::channel::ChannelPolicy;
use lateral_net::session::SessionEpoch;
use lateral_net::sim::Network;
use lateral_net::Addr;
use lateral_substrate::attest::TrustPolicy;
use lateral_substrate::cap::Badge;
use lateral_substrate::component::Component;
use lateral_substrate::testkit::Counter;

use super::{seeded_bytes, stratified};
use crate::backends;
use crate::grid::{Grid, Sizes};
use crate::report::{span_ns, Metrics, Round, Row, Workload};
use crate::stats::{nanos, Laps};
use crate::trace::{SpanTotals, Tracer};

/// Clients sharing the server.
const CLIENTS: usize = 4;
/// Sessions in the timed window of one round.
const SESSIONS: usize = 500;
/// Sessions run untimed before the window.
const WARM_SESSIONS: usize = 50;
/// The server's epoch moves before one session in this many.
const EPOCH_EVERY: usize = 10;
/// Client and server in-flight window; groups never exceed it.
const WINDOW: usize = 32;
/// One request in this many is a latency sample (fixed by index). About
/// a thousand samples put the tail near p99, inside the population of
/// requests riding the largest groups; more would push it onto the few
/// sessions that open with a full handshake and a large group.
const SAMPLE_EVERY: u64 = 16;
/// Sessions per lap of the timed window.
const LAP_SESSIONS: u64 = 5;

/// Wire frame kinds of `core::remote`, read off recorded packets.
const FRAME_REQUEST: u8 = 3;
const FRAME_REPLY: u8 = 4;
const FRAME_REQ_GROUP: u8 = 6;
const FRAME_REPLY_GROUP: u8 = 7;

#[derive(Clone, Debug)]
enum Segment {
    Group(Vec<(u16, u16)>),
    LockStep(Vec<(u16, u16)>),
}

#[derive(Clone, Debug)]
struct Session {
    client: usize,
    move_epoch: bool,
    segments: Vec<Segment>,
}

/// Seeded sessions, payload bytes and identity keys.
pub struct RemoteSession {
    sessions: Vec<Session>,
    bytes: Vec<u8>,
    client_keys: Vec<SigningKey>,
    server_key: SigningKey,
}

struct World {
    asm: Assembly,
    net: Network,
    server: RemoteServer,
    clients: Vec<RemoteClient>,
    epoch: SessionEpoch,
}

fn counter_factory(_: &ComponentManifest) -> Option<Box<dyn Component>> {
    Some(Box::new(Counter::default()))
}

/// Sessions with 1–8 segments in equal shares, one segment in four
/// lock-step (1–4 requests), the rest multiplexed groups with
/// log-uniform windows. Windows, lock-step lengths and payload sizes are
/// stratified, so every seed carries the same load in a different order.
fn gen_sessions(rng: &mut Drbg, n: usize) -> Vec<Session> {
    let mut counts: Vec<usize> = (0..n).map(|i| 1 + i % 8).collect();
    rng.shuffle(&mut counts);
    let total: usize = counts.iter().sum();
    let mut lockstep: Vec<bool> = (0..total).map(|i| i % 4 == 0).collect();
    rng.shuffle(&mut lockstep);
    let locks = lockstep.iter().filter(|&&l| l).count();
    let mut windows = stratified(rng, total - locks, 1, WINDOW as u64).into_iter();
    let mut lock_lens: Vec<usize> = (0..locks).map(|i| 1 + i % 4).collect();
    rng.shuffle(&mut lock_lens);
    let lock_requests = lock_lens.iter().sum();
    let mut lock_sizes = stratified(rng, lock_requests, 16, 4096).into_iter();
    let mut lock_lens = lock_lens.into_iter();
    let mut kinds = lockstep.into_iter();
    let entries = |rng: &mut Drbg, sizes: &mut dyn Iterator<Item = u64>, k: usize| {
        (0..k)
            .map(|_| {
                let len = sizes.next().expect("one size per request") as u16;
                (rng.gen_range(4096) as u16, len)
            })
            .collect::<Vec<_>>()
    };
    counts
        .into_iter()
        .enumerate()
        .map(|(i, segments)| Session {
            client: i % CLIENTS,
            move_epoch: i > 0 && i % EPOCH_EVERY == 0,
            segments: (0..segments)
                .map(|_| {
                    if kinds.next().expect("one kind per segment") {
                        let k = lock_lens.next().expect("one length per lock-step segment");
                        Segment::LockStep(entries(rng, &mut lock_sizes, k))
                    } else {
                        let w = windows.next().expect("one window per group") as usize;
                        let mut sizes = stratified(rng, w, 16, 4096).into_iter();
                        Segment::Group(entries(rng, &mut sizes, w))
                    }
                })
                .collect(),
        })
        .collect()
}

fn frame_kind(p: &lateral_net::sim::Packet) -> u8 {
    p.payload.first().copied().unwrap_or(u8::MAX)
}

impl RemoteSession {
    /// Generates sessions, payloads and keys for `seed`.
    pub fn new(seed: u64) -> RemoteSession {
        let mut rng = Drbg::from_seed(format!("perfbench remote_session {seed}").as_bytes());
        RemoteSession {
            sessions: gen_sessions(&mut rng, WARM_SESSIONS + SESSIONS),
            bytes: seeded_bytes(&mut rng, 8192),
            client_keys: (0..CLIENTS)
                .map(|_| SigningKey::generate(&mut rng))
                .collect(),
            server_key: SigningKey::generate(&mut rng),
        }
    }

    fn payload(&self, (off, len): (u16, u16)) -> &[u8] {
        &self.bytes[usize::from(off)..usize::from(off) + usize::from(len)]
    }

    fn setup(&self) -> World {
        let mk = backends::microkernel("perfbench-remote");
        let mut factory = counter_factory;
        let mut asm = compose(
            &AppManifest::new("perfbench-remote", vec![ComponentManifest::new("counter")]),
            vec![Box::new(mk)],
            &mut factory,
        )
        .expect("assembly composes");
        let mut trust = TrustPolicy::new();
        trust.trust_platform(SigningKey::from_seed(backends::PLATFORM_KEY_SEED).verifying_key());
        trust.expect_measurement(asm.measurement("counter").expect("counter is placed"));
        let mut net = Network::new("perfbench-remote");
        let mut server = RemoteServer::bind(
            &mut net,
            Addr::new("svc"),
            ServiceExport {
                component: "counter".to_string(),
                badge: Badge(0xBE),
                identity: self.server_key.clone(),
                client_policy: ChannelPolicy::open(),
                attest: true,
            },
        );
        server.set_window(WINDOW);
        let epoch = SessionEpoch {
            revocation: 0,
            trust: 0,
            regrant: 0,
        };
        server.set_epoch(epoch);
        let clients = self
            .client_keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let mut c = RemoteClient::new(
                    &mut net,
                    Addr::new(&format!("client{i}")),
                    Addr::new("svc"),
                    key.clone(),
                    ChannelPolicy::open().with_attestation(trust.clone()),
                    None,
                );
                c.set_window(WINDOW);
                establish(&mut net, &mut c, None, &mut server, &mut asm)
                    .expect("first session attests");
                c
            })
            .collect();
        World {
            asm,
            net,
            server,
            clients,
            epoch,
        }
    }
}

/// Progress through a round: served count, samples, checks.
struct Ledger {
    served: u64,
    requests: u64,
    failed: u64,
    correct: bool,
    samples: Vec<u64>,
}

impl Ledger {
    /// Records one answered request started at `start`.
    fn answer(&mut self, start: Instant, reply: Result<Vec<u8>, CoreError>, timed: bool) {
        let index = self.requests;
        self.requests += 1;
        let ok = reply.is_ok();
        match reply {
            Ok(bytes) => {
                self.served += 1;
                self.correct &= bytes == self.served.to_le_bytes();
            }
            Err(_) => self.failed += 1,
        }
        if timed && index.is_multiple_of(SAMPLE_EVERY) {
            self.samples
                .push(if ok { nanos(start.elapsed()) } else { u64::MAX });
        }
    }
}

/// Reconnects `client`: ticket resume, or the full attested handshake
/// when the server refuses the ticket.
fn reconnect(w: &mut World, client: usize, tr: &Tracer) -> Result<(), CoreError> {
    let c = &mut w.clients[client];
    let resumed = tr.span("core.remote.resume", || -> Result<bool, CoreError> {
        c.resume(&mut w.net)?;
        w.server.pump(&mut w.net, &mut w.asm)?;
        Ok(c.poll_handshake(&mut w.net, None).is_ok() && c.connected())
    })?;
    if resumed {
        return Ok(());
    }
    tr.span("core.remote.handshake", || {
        establish(&mut w.net, c, None, &mut w.server, &mut w.asm)
    })
}

fn run_session(
    inp: &RemoteSession,
    w: &mut World,
    s: &Session,
    tr: &Tracer,
    led: &mut Ledger,
    timed: bool,
) {
    if s.move_epoch {
        w.epoch.regrant += 1;
        w.server.set_epoch(w.epoch);
    }
    let mut first_start = Some(Instant::now());
    if !w.clients[s.client].connected() && reconnect(w, s.client, tr).is_err() {
        led.correct = false;
    }
    for seg in &s.segments {
        match seg {
            Segment::Group(entries) => {
                let mut starts = Vec::with_capacity(entries.len());
                let mut ids = Vec::with_capacity(entries.len());
                for &e in entries {
                    starts.push(first_start.take().unwrap_or_else(Instant::now));
                    let c = &mut w.clients[s.client];
                    ids.push(tr.span("core.remote.submit", || c.submit(inp.payload(e))));
                }
                let c = &mut w.clients[s.client];
                let sent = tr
                    .span("core.remote.flush", || c.flush(&mut w.net))
                    .and_then(|_| {
                        tr.span("core.remote.pump", || w.server.pump(&mut w.net, &mut w.asm))
                    });
                let mut replies = Vec::with_capacity(entries.len());
                if sent.is_ok() {
                    while replies.len() < entries.len() {
                        let c = &mut w.clients[s.client];
                        match tr.span("core.remote.poll", || c.poll_group_replies(&mut w.net)) {
                            Ok(batch) if !batch.is_empty() => replies.extend(batch),
                            _ => break,
                        }
                    }
                }
                // Replies come back in ascending id order, one per
                // submission.
                let mut got = replies.into_iter();
                for (start, id) in starts.into_iter().zip(ids) {
                    let reply = match (id, got.next()) {
                        (Ok(id), Some((rid, r))) if rid == id => r,
                        (Ok(_), Some(_)) => {
                            led.correct = false;
                            Err(CoreError::Substrate("reply out of order".into()))
                        }
                        (Err(e), _) => Err(e),
                        (Ok(_), None) => Err(CoreError::Substrate("reply lost".into())),
                    };
                    led.answer(start, reply, timed);
                }
            }
            Segment::LockStep(entries) => {
                for &e in entries {
                    let start = first_start.take().unwrap_or_else(Instant::now);
                    let c = &mut w.clients[s.client];
                    let reply = tr
                        .span("core.remote.submit", || {
                            c.send_request(&mut w.net, inp.payload(e))
                        })
                        .and_then(|()| {
                            tr.span("core.remote.pump", || w.server.pump(&mut w.net, &mut w.asm))
                        })
                        .and_then(|_| {
                            let c = &mut w.clients[s.client];
                            tr.span("core.remote.poll", || c.poll_reply(&mut w.net))
                        })
                        .and_then(|r| r.ok_or_else(|| CoreError::Substrate("reply lost".into())));
                    led.answer(start, reply, timed);
                }
            }
        }
    }
    w.clients[s.client].disconnect();
}

/// Counter readings taken before and after the window.
fn snapshot(w: &mut World) -> BTreeMap<&'static str, f64> {
    let m = w.server.telemetry().metrics();
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    c.insert("attestations", m.counter("remote.attestations") as f64);
    c.insert("full_sessions", m.counter("remote.sessions") as f64);
    c.insert("resumes", m.counter("remote.resumes") as f64);
    c.insert("resume_rejects", m.counter("remote.resume_rejects") as f64);
    c.insert("overloads", m.counter("remote.overloads") as f64);
    let mut spans = w.server.telemetry().spans_recorded();
    for cl in &w.clients {
        spans += cl.telemetry().spans_recorded();
        *c.entry("overloads").or_default() +=
            cl.telemetry().metrics().counter("remote.overloads") as f64;
    }
    c.insert("remote_spans", spans as f64);
    let sub = w.asm.substrate_mut(0);
    let f = sub.fabric_ref().expect("microkernel runs on the fabric");
    c.insert("invocations", f.stats().total_invocations() as f64);
    c.insert("fabric_spans", f.telemetry().spans_recorded() as f64);
    c.insert("ticks", sub.now() as f64);
    c.insert("delivered", w.net.delivered() as f64);
    c.insert("dropped", w.net.dropped() as f64);
    c
}

impl Workload for RemoteSession {
    fn round(&self, tr: &Tracer) -> Round {
        let t = Instant::now();
        let mut w = self.setup();
        let setup = t.elapsed();
        let mut led = Ledger {
            served: 0,
            requests: 0,
            failed: 0,
            correct: true,
            samples: Vec::new(),
        };
        // The first sessions find every client connected by set-up.
        for s in &self.sessions[..WARM_SESSIONS] {
            run_session(self, &mut w, s, &Tracer::new(false), &mut led, false);
        }
        let warm_requests = led.requests;
        let warm_failed = led.failed;
        let before = snapshot(&mut w);
        let packets_before = w.net.recorded().len();

        let mut laps = Laps::start(LAP_SESSIONS);
        for (i, s) in self.sessions[WARM_SESSIONS..].iter().enumerate() {
            tr.set_op(i as u64);
            run_session(self, &mut w, s, tr, &mut led, true);
            laps.step();
        }
        let (window, laps) = laps.finish();

        let after = snapshot(&mut w);
        let mut counts: BTreeMap<&'static str, f64> = after
            .iter()
            .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
            .collect();
        for p in &w.net.recorded()[packets_before..] {
            let kind = frame_kind(p);
            let bytes = p.payload.len() as f64;
            *counts.entry("packets").or_default() += 1.0;
            *counts.entry("bytes").or_default() += bytes;
            if matches!(
                kind,
                FRAME_REQUEST | FRAME_REPLY | FRAME_REQ_GROUP | FRAME_REPLY_GROUP
            ) {
                *counts.entry("records").or_default() += 1.0;
                *counts.entry("record_bytes").or_default() += bytes;
            }
            if kind == FRAME_REQ_GROUP {
                *counts.entry("groups").or_default() += 1.0;
            }
        }
        for s in &self.sessions[WARM_SESSIONS..] {
            for seg in &s.segments {
                if let Segment::Group(e) = seg {
                    *counts.entry("group_requests").or_default() += e.len() as f64;
                    for &(_, len) in e {
                        *counts.entry("group_payload_bytes").or_default() += f64::from(len);
                    }
                }
            }
        }
        Round {
            setup,
            window,
            laps,
            ops: led.requests - warm_requests,
            failed: led.failed - warm_failed,
            correct: led.correct,
            samples: led.samples,
            sim_ticks: counts["ticks"] as u64,
            counts,
        }
    }

    fn sizes(&self, traced: &Round) -> Sizes {
        let groups = traced.count("group_requests").max(1.0);
        Sizes {
            record_bytes: traced.count("record_bytes") / traced.count("records").max(1.0),
            signed_bytes: 32,
            invoke_bytes: traced.count("group_payload_bytes") / groups,
            batch_len: 1,
            batch_bytes: 16,
            group_len: (groups / traced.count("groups").max(1.0)).round() as usize,
            group_bytes: (traced.count("group_payload_bytes") / groups).round() as usize,
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
        m.set("net.channel.records_per_op", per("records"));
        m.set(
            "net.session.requests_per_group",
            traced.count("group_requests") / traced.count("groups").max(1.0),
        );
        m.set("net.sim.packets_per_op", per("packets"));
        m.set("net.sim.bytes_per_op", per("bytes"));
        m.set(
            "net.sim.dropped_ratio",
            traced.count("dropped") / traced.count("packets").max(1.0),
        );
        m.set(
            "core.remote.submit_ns",
            span_ns(spans, "core.remote.submit"),
        );
        m.set(
            "core.remote.flush_us",
            span_ns(spans, "core.remote.flush") / 1e3,
        );
        m.set(
            "core.remote.pump_us",
            span_ns(spans, "core.remote.pump") / 1e3,
        );
        m.set(
            "core.remote.poll_us",
            span_ns(spans, "core.remote.poll") / 1e3,
        );
        m.set(
            "core.remote.handshake_us",
            span_ns(spans, "core.remote.handshake") / 1e3,
        );
        m.set(
            "core.remote.resume_us",
            span_ns(spans, "core.remote.resume") / 1e3,
        );
        m.set(
            "core.remote.full_attestations",
            traced.count("attestations"),
        );
        m.set("core.remote.resumes", traced.count("resumes"));
        let attempts = traced.ops as f64 + traced.count("resumes") + traced.count("resume_rejects");
        m.set(
            "core.remote.refused_ratio",
            (traced.count("resume_rejects") + traced.count("overloads")) / attempts,
        );
        m.set("substrate.fabric.invocations_per_op", per("invocations"));
        m.set(
            "substrate.sim_ticks_per_op",
            traced.sim_ticks as f64 / traced.ops as f64,
        );
        m.set(
            "telemetry.spans_per_op",
            per("remote_spans") + per("fabric_spans"),
        );

        let sizes = self.sizes(traced);
        let (records, rbytes) = (per("records"), per("record_bytes"));
        let handshakes = per("full_sessions");
        vec![
            Row {
                layer: "net.channel seal".into(),
                calls_per_op: records,
                ns_per_op: grid.chan_seal.base * records + grid.chan_seal.per_byte * rbytes,
            },
            Row {
                layer: "net.channel open".into(),
                calls_per_op: records,
                ns_per_op: grid.chan_open.base * records + grid.chan_open.per_byte * rbytes,
            },
            Row::flat(
                "net.session group codec (req+reply)",
                per("groups"),
                grid.group_encode + grid.group_decode,
            ),
            Row {
                layer: "net.sim send+recv".into(),
                calls_per_op: per("packets"),
                ns_per_op: grid.net_send.base * per("packets")
                    + grid.net_send.per_byte * per("bytes"),
            },
            Row::flat(
                "substrate.fabric invoke (microkernel)",
                per("invocations"),
                grid.backends[1].invoke.at(sizes.invoke_bytes),
            ),
            Row::flat(
                "telemetry span (client+server)",
                per("remote_spans"),
                grid.span,
            ),
            Row::flat(
                "crypto handshake (2 dh + 3 sign + 3 verify)",
                handshakes,
                2.0 * grid.dh + 3.0 * grid.sign + 3.0 * grid.verify,
            ),
        ]
    }
}
