//! `trust_ingest`: a `Registry` with an attached `TrustGraph`, holding a
//! published image population, driven by a seeded, pre-signed proof
//! stream. Writes are `ingest_proof` bursts (re-reviews, trust edges,
//! revocations; each applied proof bumps the trust epoch and retires
//! every cached verdict). Reads are `certify` / `resolve_digest`
//! stretches skewed over a hot set of images. An op is one registry
//! call. The first read of each stretch starts with an explicit
//! `converge`, the work that read would otherwise trigger lazily.

use std::collections::BTreeMap;
use std::time::Instant;

use lateral_crypto::rng::Drbg;
use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_registry::{ManifestDraft, Registry, RegistryError, SignedManifest};
use lateral_wot::{ConvergeReport, Proof, Rating, ReviewProof, Revocation, TrustGraph, TrustProof};

use crate::grid::{Grid, Sizes};
use crate::report::{span_ns, Metrics, Round, Row, Workload};
use crate::stats::{nanos, Laps};
use crate::trace::{SpanTotals, Tracer};

/// Reviewer population.
const REVIEWERS: usize = 120;
/// Published images.
const IMAGES: usize = 300;
/// Reviews per image in the initial population.
const REVIEWS_PER_IMAGE: usize = 3;
/// Images in the hot set reads skew toward.
const HOT: usize = 30;
/// Write-burst / read-stretch cycles in the timed window.
const CYCLES: usize = 80;
/// Cycles run untimed before the window.
const WARM_CYCLES: usize = 6;
/// Cycles per lap of the timed window.
const LAP_CYCLES: u64 = 1;
/// One op in this many is a latency sample (fixed by index). The tail
/// then sits inside the population of proof ingests rather than on the
/// edge of the rare converge-first reads.
const SAMPLE_EVERY: u64 = 32;
/// Admission threshold of the wot-threshold pass, milli-units.
const THRESHOLD_MILLI: i64 = 0;

#[derive(Clone, Copy, Debug)]
enum Read {
    Certify(u16),
    Resolve(u16),
}

struct Cycle {
    writes: Vec<Proof>,
    reads: Vec<Read>,
}

/// Seeded, pre-signed inputs: images, manifests, proofs.
pub struct TrustIngest {
    publisher: SigningKey,
    root: [u8; 32],
    images: Vec<(Vec<u8>, SignedManifest)>,
    initial: Vec<Proof>,
    cycles: Vec<Cycle>,
    signed_bytes: usize,
}

fn image_digest(images: &[(Vec<u8>, SignedManifest)], i: u16) -> Digest {
    images[usize::from(i)].1.digest
}

fn signing_len(p: &Proof) -> usize {
    match p {
        Proof::Review(p) => p.signing_message().len(),
        Proof::Trust(p) => p.signing_message().len(),
        Proof::Revocation(p) => p.signing_message().len(),
    }
}

impl TrustIngest {
    /// Generates keys, images and the signed proof stream for `seed`.
    pub fn new(seed: u64) -> TrustIngest {
        let mut rng = Drbg::from_seed(format!("perfbench trust_ingest {seed}").as_bytes());
        let publisher = SigningKey::generate(&mut rng);
        let reviewers: Vec<SigningKey> = (0..REVIEWERS)
            .map(|_| SigningKey::generate(&mut rng))
            .collect();
        let images: Vec<(Vec<u8>, SignedManifest)> = (0..IMAGES)
            .map(|i| {
                let image = format!("perfbench image {i} of seed {seed}").into_bytes();
                let manifest =
                    ManifestDraft::new(&format!("img{i}"), &image).sign(&publisher, None);
                (image, manifest)
            })
            .collect();

        // Every proof a reviewer issued, so revocations target real ids.
        let mut issued: Vec<(usize, Digest)> = Vec::new();
        let mut initial = Vec::new();
        for i in 1..REVIEWERS {
            let voucher = (i - 1) / 2;
            let p = TrustProof::issue(
                &reviewers[voucher],
                &reviewers[i].verifying_key(),
                Rating::High,
                1,
            );
            issued.push((voucher, p.id()));
            initial.push(Proof::Trust(p));
        }
        for (s, (_, m)) in images.iter().enumerate() {
            for k in 0..REVIEWS_PER_IMAGE {
                let r = rng.gen_range(REVIEWERS as u64) as usize;
                let rating = if (s + k) % 5 == 0 {
                    Rating::Trust
                } else {
                    Rating::High
                };
                let p = ReviewProof::issue(&reviewers[r], m.digest, rating, 1);
                issued.push((r, p.id()));
                initial.push(Proof::Review(p));
            }
        }

        let total = WARM_CYCLES + CYCLES;
        let cycles = (0..total)
            .map(|c| {
                let epoch = 2 + c as u64;
                let writes = (0..10 + rng.gen_range(31))
                    .map(|_| match rng.gen_range(10) {
                        0 if !issued.is_empty() => {
                            let victim = rng.gen_range(issued.len() as u64) as usize;
                            let (issuer, id) = issued.swap_remove(victim);
                            Proof::Revocation(Revocation::issue(&reviewers[issuer], id, epoch))
                        }
                        1 | 2 => {
                            let a = rng.gen_range(REVIEWERS as u64) as usize;
                            let b =
                                (a + 1 + rng.gen_range(REVIEWERS as u64 - 1) as usize) % REVIEWERS;
                            let rating = *rng.choose(&Rating::ALL).expect("nonempty");
                            let p = TrustProof::issue(
                                &reviewers[a],
                                &reviewers[b].verifying_key(),
                                rating,
                                epoch,
                            );
                            issued.push((a, p.id()));
                            Proof::Trust(p)
                        }
                        _ => {
                            let r = rng.gen_range(REVIEWERS as u64) as usize;
                            let s = rng.gen_range(IMAGES as u64) as u16;
                            let rating = *rng.choose(&Rating::ALL).expect("nonempty");
                            let p = ReviewProof::issue(
                                &reviewers[r],
                                image_digest(&images, s),
                                rating,
                                epoch,
                            );
                            issued.push((r, p.id()));
                            Proof::Review(p)
                        }
                    })
                    .collect();
                let reads = (0..200 + rng.gen_range(401))
                    .map(|_| {
                        let img = if rng.gen_range(10) == 0 {
                            rng.gen_range(IMAGES as u64)
                        } else {
                            rng.gen_range(HOT as u64)
                        } as u16;
                        // Certify hits then make up most samples, so the
                        // median sits inside one population.
                        if rng.gen_range(10) == 0 {
                            Read::Resolve(img)
                        } else {
                            Read::Certify(img)
                        }
                    })
                    .collect();
                Cycle { writes, reads }
            })
            .collect::<Vec<_>>();
        let stream: Vec<&Proof> = cycles.iter().flat_map(|c| &c.writes).collect();
        let signed_bytes =
            stream.iter().map(|p| signing_len(p)).sum::<usize>() / stream.len().max(1);
        TrustIngest {
            root: reviewers[0].verifying_key().to_bytes(),
            publisher,
            images,
            initial,
            cycles,
            signed_bytes,
        }
    }

    fn setup(&self) -> Registry {
        let mut registry = Registry::new("perfbench-registry");
        registry.trust_root(&self.publisher.verifying_key());
        for (image, manifest) in &self.images {
            registry
                .publish(image, manifest.clone())
                .expect("manifest matches image");
        }
        let mut graph = TrustGraph::new();
        graph.seed_root(&self.root);
        registry.attach_wot(graph, THRESHOLD_MILLI);
        for p in &self.initial {
            registry.ingest_proof(p).expect("initial proof verifies");
        }
        registry.wot_graph_mut().expect("graph attached").converge();
        registry
    }
}

#[derive(Default)]
struct Ledger {
    ops: u64,
    failed: u64,
    samples: Vec<u64>,
    converges: u64,
    iterations: u64,
    rows_rebuilt: u64,
}

impl Ledger {
    fn record(&mut self, start: Instant, ok: bool, timed: bool) {
        if timed && self.ops.is_multiple_of(SAMPLE_EVERY) {
            self.samples
                .push(if ok { nanos(start.elapsed()) } else { u64::MAX });
        }
        self.ops += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn run_cycle(
    inp: &TrustIngest,
    reg: &mut Registry,
    c: &Cycle,
    tr: &Tracer,
    led: &mut Ledger,
    timed: bool,
) {
    for p in &c.writes {
        let start = Instant::now();
        let ok = tr.span("wot.ingest", || reg.ingest_proof(p)).is_ok();
        led.record(start, ok, timed);
    }
    for (i, read) in c.reads.iter().enumerate() {
        let start = Instant::now();
        if i == 0 {
            let report: ConvergeReport = tr.span("wot.converge", || {
                reg.wot_graph_mut().expect("graph attached").converge()
            });
            led.converges += 1;
            led.iterations += report.iterations;
            led.rows_rebuilt += report.rows_rebuilt;
        }
        let ok = match *read {
            Read::Certify(img) => tr
                .span("registry.certify", || {
                    reg.certify(image_digest(&inp.images, img))
                })
                .is_ok(),
            // A refusal for a digest below the threshold is an answer.
            Read::Resolve(img) => matches!(
                tr.span("registry.resolve", || reg
                    .resolve_digest(image_digest(&inp.images, img))),
                Ok(_) | Err(RegistryError::Uncertified { .. })
            ),
        };
        led.record(start, ok, timed);
    }
}

fn snapshot(reg: &mut Registry) -> BTreeMap<&'static str, f64> {
    let r = reg.stats();
    let w = reg.wot_graph_mut().expect("graph attached").stats();
    [
        ("cache_hits", r.cache_hits),
        ("cache_misses", r.cache_misses),
        ("resolves", r.resolves),
        ("refusals", r.refusals),
        ("wot_proofs", r.wot_proofs),
        ("applied", w.proofs_applied + w.revocations_applied),
        ("stale", w.proofs_stale),
        ("refused_revoked", w.proofs_refused_revoked),
        ("orphaned", w.revocations_orphaned),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .collect()
}

impl Workload for TrustIngest {
    fn round(&self, tr: &Tracer) -> Round {
        let t = Instant::now();
        let mut reg = self.setup();
        let setup = t.elapsed();
        let mut led = Ledger::default();
        for c in &self.cycles[..WARM_CYCLES] {
            run_cycle(self, &mut reg, c, &Tracer::new(false), &mut led, false);
        }
        let (warm_ops, warm_failed) = (led.ops, led.failed);
        let before = snapshot(&mut reg);
        let converges_before = (led.converges, led.iterations, led.rows_rebuilt);

        let mut laps = Laps::start(LAP_CYCLES);
        for (i, c) in self.cycles[WARM_CYCLES..].iter().enumerate() {
            tr.set_op(i as u64);
            run_cycle(self, &mut reg, c, tr, &mut led, true);
            laps.step();
        }
        let (window, laps) = laps.finish();

        let after = snapshot(&mut reg);
        let mut counts: BTreeMap<&'static str, f64> =
            after.iter().map(|(k, v)| (*k, v - before[k])).collect();
        counts.insert("converges", (led.converges - converges_before.0) as f64);
        counts.insert("iterations", (led.iterations - converges_before.1) as f64);
        counts.insert(
            "rows_rebuilt",
            (led.rows_rebuilt - converges_before.2) as f64,
        );
        let writes: usize = self.cycles[WARM_CYCLES..]
            .iter()
            .map(|c| c.writes.len())
            .sum();
        counts.insert("writes", writes as f64);

        // The warm graph must equal a cold recompute of the same state.
        let graph = reg.wot_graph_mut().expect("graph attached");
        let warm = graph.scores_digest();
        graph.force_full();
        let correct = warm == graph.scores_digest();
        Round {
            setup,
            window,
            laps,
            ops: led.ops - warm_ops,
            failed: led.failed - warm_failed,
            correct,
            samples: led.samples,
            sim_ticks: 0,
            counts,
        }
    }

    fn sizes(&self, _traced: &Round) -> Sizes {
        Sizes {
            record_bytes: 256.0,
            signed_bytes: self.signed_bytes,
            invoke_bytes: 64.0,
            batch_len: 16,
            batch_bytes: 16,
            group_len: 1,
            group_bytes: 16,
            packet_bytes: 256.0,
        }
    }

    fn layers(
        &self,
        traced: &Round,
        spans: &BTreeMap<&'static str, SpanTotals>,
        grid: &Grid,
        m: &mut Metrics,
    ) -> Vec<Row> {
        let c = |k: &str| traced.count(k);
        let per = |k: &str| traced.per_op(k);
        m.set(
            "registry.certify_us",
            span_ns(spans, "registry.certify") / 1e3,
        );
        m.set(
            "registry.resolve_us",
            span_ns(spans, "registry.resolve") / 1e3,
        );
        m.set(
            "registry.cache_hit_ratio",
            c("cache_hits") / (c("cache_hits") + c("cache_misses")).max(1.0),
        );
        m.set("registry.refusals", c("refusals"));
        m.set("wot.ingest_us", span_ns(spans, "wot.ingest") / 1e3);
        m.set("wot.converge_us", span_ns(spans, "wot.converge") / 1e3);
        m.set(
            "wot.iterations_per_converge",
            c("iterations") / c("converges").max(1.0),
        );
        m.set("wot.rows_rebuilt", c("rows_rebuilt"));
        m.set("wot.stale_ratio", c("stale") / c("wot_proofs").max(1.0));
        vec![
            Row::flat(
                "crypto.sign verify (proof ingest)",
                per("writes"),
                grid.verify,
            ),
            Row::flat(
                "crypto.sign verify (certify pipeline)",
                per("cache_misses"),
                grid.verify,
            ),
            Row::flat(
                "wot converge (measured span)",
                per("converges"),
                span_ns(spans, "wot.converge"),
            ),
        ]
    }
}
