//! The four workloads and the seeded input helpers they share.

mod fleet_chaos;
mod invoke_mix;
mod remote_session;
mod trust_ingest;

use lateral_crypto::rng::Drbg;

use crate::report::Workload;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "invoke_mix",
    "remote_session",
    "fleet_chaos",
    "trust_ingest",
];

/// Generates the inputs of workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "invoke_mix" => Box::new(invoke_mix::InvokeMix::new(seed)),
        "remote_session" => Box::new(remote_session::RemoteSession::new(seed)),
        "fleet_chaos" => Box::new(fleet_chaos::FleetChaos::new(seed)),
        "trust_ingest" => Box::new(trust_ingest::TrustIngest::new(seed)),
        _ => return None,
    })
}

/// The value at quantile `u` of a log-uniform distribution over
/// `[lo, hi]` (sizes spanning decades: most small, some large).
fn log_uniform_at(u: f64, lo: u64, hi: u64) -> u64 {
    let v = (lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln());
    (v.exp().round() as u64).clamp(lo, hi)
}

/// `n` log-uniform values over `[lo, hi]` taken at fixed quantiles, in
/// seeded order. Every seed gets the same multiset, so the seed moves
/// which op carries which size, never the size distribution itself (a
/// tail read from a few of the largest ops stays put across seeds).
pub fn stratified(rng: &mut Drbg, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n)
        .map(|i| log_uniform_at((i as f64 + 0.5) / n as f64, lo, hi))
        .collect();
    rng.shuffle(&mut v);
    v
}

/// `len` seeded bytes.
pub fn seeded_bytes(rng: &mut Drbg, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}
