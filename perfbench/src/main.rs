//! End-to-end and per-layer benchmark of the lateral workspace.
//!
//! ```text
//! lateral-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads, one per end-to-end path: `invoke_mix` (substrate
//! calls over all six backends), `remote_session` (attested remote
//! requests), `fleet_chaos` (meter readings acked at the utility) and
//! `trust_ingest` (registry calls over a web-of-trust proof stream).
//! Each is a closed loop on one thread over a fixed op list generated
//! from the seed; the program only ever sees the generated inputs.
//!
//! `--trace 0` runs one discarded round, then untraced rounds — set-up,
//! warm-up, timed window over the same op list — for `--seconds` (at
//! least three), and reports each lap and sampled op from the round
//! where it ran fastest. `--trace 1` alternates untraced rounds
//! with traced ones (spans around the benchmark's own calls into each
//! layer), reads the program's counters, times the layer-cost grid at
//! the workload's sizes, and prints the attribution table. The last
//! stdout line is always the JSON result.

mod backends;
mod cpus;
mod grid;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use grid::Grid;
use report::{EndToEnd, Metric, Metrics, Workload, MIN_ROUNDS};
use stats::median;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one round and discards it, so first-touch costs of the process
/// (page faults, allocator growth, cold caches) stay out of every
/// reported figure.
fn warm_up(w: &dyn Workload) -> bool {
    w.round(&Tracer::new(false)).correct
}

/// Runs rounds until `budget` after `start` is spent, counting the
/// discarded one: another round starts only if a round of the mean
/// length so far still fits. Each round, the discarded one too, runs
/// pinned to the next allowed core in turn.
fn untraced(w: &dyn Workload, start: Instant, budget: Duration) -> (bool, u64, u64, Vec<Metric>) {
    let rounds_start = Instant::now();
    let mut cores = cpus::Rotation::new();
    println!("cores: rounds rotate over {}", cores.len());
    cores.advance();
    let mut correct = warm_up(w);
    let (mut attempted, mut failed) = (0, 0);
    let mut e2e = EndToEnd::default();
    for done in 0.. {
        let mean = rounds_start.elapsed() / (done + 1);
        if done as usize >= MIN_ROUNDS && start.elapsed() + mean > budget {
            break;
        }
        cores.advance();
        let r = w.round(&Tracer::new(false));
        correct &= r.correct;
        attempted += r.ops;
        failed += r.failed;
        e2e.add(&r);
    }
    (correct, attempted, failed, e2e.metrics())
}

fn traced(name: &str, w: &dyn Workload) -> (bool, u64, u64, Vec<Metric>) {
    // Untraced and traced rounds alternate, so host drift lands on both
    // sides of the overhead comparison; spans come from the last one.
    let warm = warm_up(w);
    let mut untraced = vec![w.round(&Tracer::new(false))];
    let mut traced = Vec::new();
    let mut spans = Default::default();
    for _ in 0..2 {
        let tracer = Tracer::new(true);
        traced.push(w.round(&tracer));
        spans = tracer.totals();
        untraced.push(w.round(&Tracer::new(false)));
    }
    for (span, t) in &spans {
        println!(
            "span {span:<36} count {:>9} ops {:>7} total {:>10.3} ms self {:>10.3} ms mean {:>9.3} us",
            t.count,
            t.ops,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.mean_ns() / 1e3
        );
    }
    let last = traced.last().expect("two traced rounds");
    let sizes = w.sizes(last);
    println!("sizes {sizes:?}");
    let grid = Grid::measure(&sizes);

    let mut m = Metrics::default();
    grid.metrics(&sizes, &mut m);
    let rows = w.layers(last, &spans, &grid, &mut m);
    let per_op =
        |rs: &[report::Round]| median(&rs.iter().map(|r| r.ns_per_op()).collect::<Vec<_>>());
    let (plain, with_spans) = (per_op(&untraced), per_op(&traced));
    let (covered, residual) = report::attribution(name, plain, &rows);
    m.set("attrib.covered_share", covered);
    m.set("attrib.residual_us_per_op", residual);
    let overhead = with_spans / plain - 1.0;
    println!(
        "trace overhead {name}: traced {:.3} us/op vs untraced {:.3} us/op ({:+.2}%)",
        with_spans / 1e3,
        plain / 1e3,
        100.0 * overhead
    );
    m.set("trace.overhead_share", overhead);

    let all: Vec<&report::Round> = untraced.iter().chain(&traced).collect();
    let correct = warm && all.iter().all(|r| r.correct);
    let attempted = all.iter().map(|r| r.ops).sum();
    let failed = all.iter().map(|r| r.failed).sum();
    (correct, attempted, failed, m.resolve())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lateral-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "lateral-perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args.workload, w.as_ref())
    } else {
        // Input generation counts against the run's seconds too.
        untraced(w.as_ref(), start, Duration::from_secs(args.seconds))
    };
    report::print_result(correct, attempted, failed, &metrics);
    ExitCode::SUCCESS
}
