//! The layer-cost grid: every public primitive timed in isolation at
//! the sizes a workload uses (warm-up, then repeated timed batches,
//! reduced to the median and quartiles). The attribution multiplies
//! these costs by the per-op counts read from the program's counters.

use std::hint::black_box;
use std::time::Instant;

use lateral_crypto::aead::Aead;
use lateral_crypto::dh::EphemeralSecret;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_net::channel::SecureChannel;
use lateral_net::session::{
    decode_reply_group, decode_request_group, encode_reply_group, encode_request_group, ReplyEntry,
    RequestEntry, STATUS_OK,
};
use lateral_net::sim::Network;
use lateral_net::Addr;
use lateral_substrate::cap::Badge;
use lateral_substrate::shard::{shard_channels, ShardId};
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;
use lateral_substrate::DomainId;
use lateral_telemetry::{SpanId, Telemetry, TraceContext};

use crate::backends;
use crate::report::Metrics;
use crate::stats::{nanos, quartiles};

/// Timed repetitions per primitive.
const REPS: usize = 9;
/// Target length of one timed repetition.
const REP_NS: u64 = 3_000_000;
/// Minimum warm-up before the first timed repetition.
const WARM_NS: u64 = 6_000_000;
/// Small and large operand sizes for the size-dependent fits.
const SMALL: usize = 64;
const LARGE: usize = 4096;

/// The operand sizes a workload uses; every size-dependent primitive
/// is reported at these sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Mean plaintext bytes per sealed channel record.
    pub record_bytes: f64,
    /// Bytes of a signed message.
    pub signed_bytes: usize,
    /// Mean `invoke` payload bytes.
    pub invoke_bytes: f64,
    /// Mean `invoke_batch` length.
    pub batch_len: usize,
    /// Mean `invoke_batch` payload bytes per call.
    pub batch_bytes: usize,
    /// Mean requests per session group.
    pub group_len: usize,
    /// Mean payload bytes per group request.
    pub group_bytes: usize,
    /// Mean bytes per network packet.
    pub packet_bytes: f64,
}

/// A cost that grows linearly with operand size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Linear {
    /// Fixed cost per call, ns.
    pub base: f64,
    /// Marginal cost per byte, ns.
    pub per_byte: f64,
}

impl Linear {
    fn fit(small: f64, large: f64) -> Linear {
        let per_byte = ((large - small) / (LARGE - SMALL) as f64).max(0.0);
        Linear {
            base: (small - per_byte * SMALL as f64).max(0.0),
            per_byte,
        }
    }

    /// Cost of one call on `bytes` bytes, ns.
    pub fn at(&self, bytes: f64) -> f64 {
        self.base + self.per_byte * bytes
    }
}

/// Per-backend substrate costs, ns per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendCosts {
    pub invoke: Linear,
    pub batch_call: f64,
    pub grant: f64,
    pub revoke: f64,
    pub spawn: f64,
    pub destroy: f64,
    pub seal: f64,
    pub unseal: f64,
    pub mem_write: f64,
    pub mem_read: f64,
}

/// The measured grid.
#[derive(Clone, Debug, Default)]
pub struct Grid {
    pub sha256: Linear,
    pub aead_seal: Linear,
    pub aead_open: Linear,
    pub sign: f64,
    pub verify: f64,
    pub dh: f64,
    pub chan_seal: Linear,
    pub chan_open: Linear,
    pub chan_seal_numbered: Linear,
    pub chan_open_numbered: Linear,
    /// Request group encode + reply group encode, per group pair.
    pub group_encode: f64,
    /// Request group decode + reply group decode, per group pair.
    pub group_decode: f64,
    /// `Network::send` + `recv` of one packet.
    pub net_send: Linear,
    /// One telemetry span opened and closed.
    pub span: f64,
    pub counter_incr: f64,
    /// `ShardPost::post` plus the inbox drain, per call.
    pub shard_post: f64,
    pub backends: [BackendCosts; 6],
}

/// Times `run(n)` — which performs `n` calls and returns the
/// nanoseconds they took — and returns ns per call as (median, q1, q3)
/// over [`REPS`] repetitions, after calibration and warm-up. `cap`
/// bounds the calls per repetition for primitives that accumulate
/// state.
fn per_call(name: &str, cap: u64, mut run: impl FnMut(u64) -> u64) -> f64 {
    let mut n = 1u64;
    let per = loop {
        let spent = run(n);
        if spent >= 500_000 || n >= cap {
            break (spent / n).max(1);
        }
        n = (n * 4).min(cap);
    };
    let calls = (REP_NS / per).clamp(1, cap);
    let warm = Instant::now();
    while nanos(warm.elapsed()) < WARM_NS {
        black_box(run(calls));
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| run(calls) as f64 / calls as f64)
        .collect();
    let (q1, med, q3) = quartiles(&samples);
    println!(
        "grid {name:<44} {med:>12.1} ns/call  (q1 {q1:.1}, q3 {q3:.1}, {calls} calls x {REPS})"
    );
    med
}

fn clock(n: u64, mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    nanos(t.elapsed())
}

fn linear(name: &str, cap: u64, mut at: impl FnMut(usize, u64) -> u64) -> Linear {
    let small = per_call(&format!("{name}@{SMALL}B"), cap, |n| at(SMALL, n));
    let large = per_call(&format!("{name}@{LARGE}B"), cap, |n| at(LARGE, n));
    Linear::fit(small, large)
}

fn channel_pair() -> (SecureChannel, SecureChannel) {
    let shared = [7u8; 32];
    (
        SecureChannel::from_shared(&shared, true),
        SecureChannel::from_shared(&shared, false),
    )
}

fn crypto(g: &mut Grid, sizes: &Sizes) {
    g.sha256 = linear("crypto.sha256", u64::MAX, |len, n| {
        let buf = vec![0x5au8; len];
        clock(n, || {
            black_box(lateral_crypto::sha256::sha256(black_box(&buf)));
        })
    });
    let aead = Aead::new(&[3u8; 32]);
    g.aead_seal = linear("crypto.aead.seal", u64::MAX, |len, n| {
        let buf = vec![0x5au8; len];
        clock(n, || {
            black_box(aead.seal(1, b"aad", black_box(&buf)));
        })
    });
    g.aead_open = linear("crypto.aead.open", u64::MAX, |len, n| {
        let boxed = aead.seal(1, b"aad", &vec![0x5au8; len]);
        clock(n, || {
            black_box(aead.open(1, b"aad", black_box(&boxed)).expect("authentic"));
        })
    });
    let key = SigningKey::from_seed(b"perfbench grid signer");
    let vk = key.verifying_key();
    let msg = vec![0x42u8; sizes.signed_bytes];
    g.sign = per_call("crypto.sign.sign", u64::MAX, |n| {
        clock(n, || {
            black_box(key.sign(black_box(&msg)));
        })
    });
    let sig = key.sign(&msg);
    g.verify = per_call("crypto.sign.verify", u64::MAX, |n| {
        clock(n, || {
            vk.verify(black_box(&msg), &sig).expect("valid signature");
        })
    });
    let mut rng = Drbg::from_seed(b"perfbench grid dh");
    let peer = EphemeralSecret::generate(&mut rng).public_share();
    g.dh = per_call("crypto.dh (generate+agree)", u64::MAX, |n| {
        clock(n, || {
            let eph = EphemeralSecret::generate(&mut rng);
            black_box(eph.agree(&peer, b"info").expect("valid share"));
        })
    });
}

fn channel(g: &mut Grid) {
    g.chan_seal = linear("net.channel.seal", u64::MAX, |len, n| {
        let (mut tx, _) = channel_pair();
        let buf = vec![0x5au8; len];
        clock(n, || {
            black_box(tx.seal(black_box(&buf)));
        })
    });
    g.chan_seal_numbered = linear("net.channel.seal_numbered", u64::MAX, |len, n| {
        let (mut tx, _) = channel_pair();
        let buf = vec![0x5au8; len];
        clock(n, || {
            black_box(tx.seal_numbered(black_box(&buf)));
        })
    });
    // Opening enforces order, so each repetition opens records sealed
    // beforehand, outside the clock.
    g.chan_open = linear("net.channel.open", 4096, |len, n| {
        let (mut tx, mut rx) = channel_pair();
        let records: Vec<Vec<u8>> = (0..n).map(|_| tx.seal(&vec![0x5au8; len])).collect();
        let mut it = records.iter();
        clock(n, || {
            let r = it.next().expect("one record per call");
            black_box(rx.open(r).expect("in order"));
        })
    });
    g.chan_open_numbered = linear("net.channel.open_numbered", 4096, |len, n| {
        let (mut tx, mut rx) = channel_pair();
        let records: Vec<Vec<u8>> = (0..n)
            .map(|_| tx.seal_numbered(&vec![0x5au8; len]))
            .collect();
        let mut it = records.iter();
        clock(n, || {
            let r = it.next().expect("one record per call");
            black_box(rx.open_numbered(r).expect("in order"));
        })
    });
}

fn session_codec(g: &mut Grid, sizes: &Sizes) {
    let ctx = TraceContext {
        trace_id: 1,
        parent: SpanId(2),
    };
    let requests: Vec<RequestEntry> = (0..sizes.group_len.max(1) as u64)
        .map(|id| RequestEntry {
            id,
            ctx,
            payload: vec![0x5a; sizes.group_bytes],
        })
        .collect();
    let replies: Vec<ReplyEntry> = (0..sizes.group_len.max(1) as u64)
        .map(|id| ReplyEntry {
            id,
            status: STATUS_OK,
            payload: id.to_le_bytes().to_vec(),
        })
        .collect();
    g.group_encode = per_call("net.session.group_encode (req+reply)", u64::MAX, |n| {
        clock(n, || {
            black_box(encode_request_group(black_box(&requests)));
            black_box(encode_reply_group(black_box(&replies)));
        })
    });
    let (req, rep) = (
        encode_request_group(&requests),
        encode_reply_group(&replies),
    );
    g.group_decode = per_call("net.session.group_decode (req+reply)", u64::MAX, |n| {
        clock(n, || {
            black_box(decode_request_group(black_box(&req)).expect("well-formed"));
            black_box(decode_reply_group(black_box(&rep)).expect("well-formed"));
        })
    });
}

fn network(g: &mut Grid) {
    // `Network` records every packet, so a repetition is capped and
    // starts from a fresh network.
    g.net_send = linear("net.sim.send+recv", 2048, |len, n| {
        let mut net = Network::new("perfbench grid");
        let (a, b) = (Addr::new("a"), Addr::new("b"));
        net.register(a.clone());
        net.register(b.clone());
        let buf = vec![0x5au8; len];
        clock(n, || {
            net.send(&a, &b, black_box(&buf)).expect("registered");
            black_box(net.recv(&b).expect("registered"));
        })
    });
}

fn telemetry(g: &mut Grid) {
    let mut tel = Telemetry::new();
    g.span = per_call("telemetry.span (begin+end)", u64::MAX, |n| {
        clock(n, || {
            let at = tel.tick();
            let s = tel.begin_span("request", "remote", at);
            let at = tel.tick();
            tel.end_span(s, at, lateral_telemetry::outcome::OK);
        })
    });
    g.counter_incr = per_call("telemetry.counter_incr", u64::MAX, |n| {
        clock(n, || tel.metrics_mut().incr("remote.requests", 1))
    });
}

fn shard_post(g: &mut Grid) {
    let (inboxes, post) = shard_channels(1, 1024);
    g.shard_post = per_call("substrate.shard.post+drain", 1024, |n| {
        let t = Instant::now();
        for _ in 0..n {
            post.post(ShardId(0), DomainId(0), vec![0u8; 11])
                .expect("inbox has room");
        }
        inboxes[0].drain(|_, p| Ok(p.to_vec()));
        nanos(t.elapsed())
    });
}

fn backend(idx: usize, sizes: &Sizes) -> BackendCosts {
    let name = backends::NAMES[idx];
    let mut sub = backends::make(idx, "perfbench-grid");
    let sub = sub.as_mut();
    let server = sub
        .spawn(DomainSpec::named("grid-server"), Box::new(Echo))
        .expect("spawn server");
    let client = sub
        .spawn(DomainSpec::named("grid-client"), Box::new(Echo))
        .expect("spawn client");
    let cap = sub.grant_channel(client, server, Badge(1)).expect("grant");
    let mut c = BackendCosts::default();

    let invoke = |sub: &mut dyn Substrate, len: usize, n: u64| {
        let buf = vec![0x5au8; len];
        clock(n, || {
            black_box(sub.invoke(client, &cap, black_box(&buf)).expect("echo"));
        })
    };
    let small = per_call(
        &format!("substrate.fabric.invoke.{name}@{SMALL}B"),
        u64::MAX,
        |n| invoke(sub, SMALL, n),
    );
    let large = per_call(
        &format!("substrate.fabric.invoke.{name}@{LARGE}B"),
        u64::MAX,
        |n| invoke(sub, LARGE, n),
    );
    c.invoke = Linear::fit(small, large);

    let payloads = vec![vec![0x5au8; sizes.batch_bytes]; sizes.batch_len.max(1)];
    let views: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    c.batch_call = per_call(
        &format!("substrate.fabric.invoke_batch.{name}"),
        u64::MAX,
        |n| {
            clock(n, || {
                black_box(sub.invoke_batch(client, &cap, &views).expect("echo batch"));
            })
        },
    ) / views.len() as f64;

    // Rights and domains accumulate, so these run in capped rounds that
    // undo their own work outside the clock.
    c.grant = per_call(&format!("substrate.fabric.grant.{name}"), 32, |n| {
        let t = Instant::now();
        let caps: Vec<_> = (0..n)
            .map(|i| {
                sub.grant_channel(client, server, Badge(100 + i))
                    .expect("grant")
            })
            .collect();
        let spent = nanos(t.elapsed());
        caps.iter()
            .for_each(|cap| sub.revoke_channel(cap).expect("revoke"));
        spent
    });
    c.revoke = per_call(&format!("substrate.fabric.revoke.{name}"), 32, |n| {
        let caps: Vec<_> = (0..n)
            .map(|i| {
                sub.grant_channel(client, server, Badge(100 + i))
                    .expect("grant")
            })
            .collect();
        let t = Instant::now();
        caps.iter()
            .for_each(|cap| sub.revoke_channel(cap).expect("revoke"));
        nanos(t.elapsed())
    });
    let spec = || DomainSpec::named("grid-transient").with_mem_pages(1);
    c.spawn = per_call(&format!("substrate.fabric.spawn.{name}"), 16, |n| {
        let t = Instant::now();
        let ids: Vec<_> = (0..n)
            .map(|_| sub.spawn(spec(), Box::new(Echo)).expect("spawn"))
            .collect();
        let spent = nanos(t.elapsed());
        ids.iter().for_each(|&d| sub.destroy(d).expect("destroy"));
        spent
    });
    c.destroy = per_call(&format!("substrate.fabric.destroy.{name}"), 16, |n| {
        let ids: Vec<_> = (0..n)
            .map(|_| sub.spawn(spec(), Box::new(Echo)).expect("spawn"))
            .collect();
        let t = Instant::now();
        ids.iter().for_each(|&d| sub.destroy(d).expect("destroy"));
        nanos(t.elapsed())
    });
    let data = vec![0x5au8; sizes.invoke_bytes as usize];
    c.seal = per_call(&format!("substrate.fabric.seal.{name}"), u64::MAX, |n| {
        clock(n, || {
            black_box(sub.seal(server, black_box(&data)).expect("seal"));
        })
    });
    let blob = sub.seal(server, &data).expect("seal");
    c.unseal = per_call(&format!("substrate.fabric.unseal.{name}"), u64::MAX, |n| {
        clock(n, || {
            black_box(sub.unseal(server, black_box(&blob)).expect("unseal"));
        })
    });
    c.mem_write = per_call(
        &format!("substrate.fabric.mem_write.{name}"),
        u64::MAX,
        |n| {
            clock(n, || {
                sub.mem_write(server, 0, black_box(&data)).expect("write")
            })
        },
    );
    c.mem_read = per_call(
        &format!("substrate.fabric.mem_read.{name}"),
        u64::MAX,
        |n| {
            clock(n, || {
                black_box(sub.mem_read(server, 0, data.len()).expect("read"));
            })
        },
    );
    c
}

impl Grid {
    /// Times every primitive at `sizes`.
    pub fn measure(sizes: &Sizes) -> Grid {
        let mut g = Grid::default();
        crypto(&mut g, sizes);
        channel(&mut g);
        session_codec(&mut g, sizes);
        network(&mut g);
        telemetry(&mut g);
        shard_post(&mut g);
        for idx in 0..backends::NAMES.len() {
            g.backends[idx] = backend(idx, sizes);
        }
        g
    }

    /// The grid's per-layer metrics at `sizes`.
    pub fn metrics(&self, sizes: &Sizes, m: &mut Metrics) {
        let rec = sizes.record_bytes;
        m.set("crypto.sha256.ns_per_kib", self.sha256.at(1024.0));
        m.set("crypto.aead.seal_ns", self.aead_seal.at(rec));
        m.set("crypto.aead.open_ns", self.aead_open.at(rec));
        m.set("crypto.sign.sign_ns", self.sign);
        m.set("crypto.sign.verify_ns", self.verify);
        m.set("crypto.dh.ns", self.dh);
        m.set("net.channel.seal_ns", self.chan_seal.at(rec));
        m.set("net.channel.open_ns", self.chan_open.at(rec));
        m.set(
            "net.channel.seal_numbered_ns",
            self.chan_seal_numbered.at(rec),
        );
        m.set("net.session.group_encode_ns", self.group_encode);
        m.set("net.session.group_decode_ns", self.group_decode);
        m.set("net.sim.send_ns", self.net_send.at(sizes.packet_bytes));
        m.set("telemetry.span_ns", self.span);
        m.set("telemetry.counter_incr_ns", self.counter_incr);
        m.set("substrate.shard.post_ns", self.shard_post);
        let n = self.backends.len() as f64;
        let mean = |f: fn(&BackendCosts) -> f64| self.backends.iter().map(f).sum::<f64>() / n;
        for (idx, name) in backends::NAMES.iter().enumerate() {
            let c = &self.backends[idx];
            m.set(
                &format!("substrate.fabric.invoke_ns.{name}"),
                c.invoke.at(sizes.invoke_bytes),
            );
            m.set(
                &format!("substrate.fabric.invoke_batch_ns_per_call.{name}"),
                c.batch_call,
            );
        }
        m.set("substrate.fabric.grant_ns", mean(|c| c.grant));
        m.set("substrate.fabric.revoke_ns", mean(|c| c.revoke));
        m.set("substrate.fabric.spawn_ns", mean(|c| c.spawn));
        m.set("substrate.fabric.destroy_ns", mean(|c| c.destroy));
        m.set(
            "substrate.fabric.seal_ns",
            mean(|c| (c.seal + c.unseal) / 2.0),
        );
        m.set(
            "substrate.fabric.mem_ns",
            mean(|c| (c.mem_write + c.mem_read) / 2.0),
        );
    }
}
