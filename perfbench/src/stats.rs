//! Order statistics and process measurements shared by every workload.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by linear interpolation
/// between order statistics (the "exclusive" method Python's
/// `statistics.quantiles` uses by default).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |p: f64| {
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(0.25), median(&v), at(0.75))
}

/// A round's latency samples reduced to the median and the tail: the
/// highest percentile with at least ten samples beyond it. Samples are
/// nanoseconds; a failed or refused op is recorded as `u64::MAX`, so it
/// misses every latency limit.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Median latency, ns.
    pub p50_ns: f64,
    /// Tail latency, ns.
    pub tail_ns: f64,
    /// The percentile the tail was read at.
    pub tail_pct: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Latency {
    /// Reduces `samples` (consumed and sorted in place).
    pub fn of(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return Latency {
                p50_ns: 0.0,
                tail_ns: 0.0,
                tail_pct: 0.0,
                samples: 0,
            };
        }
        let tail_idx = n.saturating_sub(11);
        Latency {
            p50_ns: samples[n / 2] as f64,
            tail_ns: samples[tail_idx] as f64,
            tail_pct: 100.0 * (tail_idx + 1) as f64 / n as f64,
            samples: n,
        }
    }
}

/// A timed window split into laps that end after fixed numbers of
/// steps of the op list (ops, sessions, ticks or cycles). Every round
/// over the same list splits at the same places, so rounds can be
/// compared lap by lap.
pub struct Laps {
    every: u64,
    steps: u64,
    start: Instant,
    last: Instant,
    ns: Vec<u64>,
}

impl Laps {
    /// Starts the window clock; a lap ends every `every` steps.
    pub fn start(every: u64) -> Laps {
        let now = Instant::now();
        Laps {
            every: every.max(1),
            steps: 0,
            start: now,
            last: now,
            ns: Vec::new(),
        }
    }

    /// Marks one more step done, ending a lap every `every` steps.
    pub fn step(&mut self) {
        self.steps += 1;
        if self.steps.is_multiple_of(self.every) {
            self.close();
        }
    }

    fn close(&mut self) {
        let now = Instant::now();
        self.ns.push(nanos(now - self.last));
        self.last = now;
    }

    /// Stops the window clock, closing a partial last lap. Returns the
    /// whole window and the laps.
    pub fn finish(mut self) -> (Duration, Vec<u64>) {
        if !self.steps.is_multiple_of(self.every) || self.ns.is_empty() {
            self.close();
        }
        (self.last - self.start, self.ns)
    }
}

/// Lowers each element of `fastest` to the matching one of `next`, so
/// that over several rounds every position keeps its quickest reading.
/// An empty `fastest` takes `next` whole. Returns false, leaving
/// `fastest` as it was, when the two differ in length.
pub fn keep_fastest(fastest: &mut Vec<u64>, next: &[u64]) -> bool {
    if fastest.is_empty() {
        fastest.extend_from_slice(next);
        return true;
    }
    if fastest.len() != next.len() {
        return false;
    }
    for (f, n) in fastest.iter_mut().zip(next) {
        *f = (*f).min(*n);
    }
    true
}

/// Elapsed nanoseconds as `u64`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut s: Vec<u64> = (1..=1000).collect();
        let l = Latency::of(&mut s);
        assert_eq!(l.tail_ns, 990.0);
        assert_eq!(l.p50_ns, 501.0);
        assert!((l.tail_pct - 99.0).abs() < 1e-9);
    }

    #[test]
    fn keep_fastest_takes_each_position_from_its_quickest_round() {
        let mut f = Vec::new();
        assert!(keep_fastest(&mut f, &[5, 1, 9]));
        assert!(keep_fastest(&mut f, &[3, 4, 9]));
        assert_eq!(f, [3, 1, 9]);
        assert!(!keep_fastest(&mut f, &[0, 0]));
        assert_eq!(f, [3, 1, 9]);
    }

    #[test]
    fn laps_split_at_fixed_step_counts() {
        let mut laps = Laps::start(3);
        for _ in 0..7 {
            laps.step();
        }
        let (window, ns) = laps.finish();
        // Laps close after steps 3 and 6; finish closes the partial
        // third.
        assert_eq!(ns.len(), 3);
        assert_eq!(nanos(window), ns.iter().sum::<u64>());
    }
}
