#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--holdout 9001]
                                [--trace] [--out results.json]

Runs every workload once per seed through run.py (one process at a time),
then prints, for each end-to-end metric, the median and quartiles across
seeds and the spread (q3 - q1) / median, flagged against the metric's
bound in BENCHMARK.json: FAIL above the bound, warn above a third of it.
`--holdout` runs one more seed and checks every end-to-end metric stays
within its bound of the seed set's median. `--trace` runs each workload
traced twice on the first seed, reports the tracing overhead, the
attribution residual and covered share, and checks that every count
metric (unit count, ticks, ratio, B) repeats exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_UNITS = {"count", "ticks", "ratio", "B"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(spec, workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed: {lines[-1][:300]}")
    result["log"] = lines[:-1]
    return result


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def worse_by(better, value, base):
    """How much worse `value` is than `base`, as a share of `base`."""
    return (base - value) / base if better == "higher" else (value - base) / base


def spread_report(spec, workload, runs):
    rows = []
    ok = True
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        if m["name"] == "setup_s":
            flag = "-"
        elif spread > bound:
            flag, ok = "FAIL", False
        elif spread > bound / 3:
            flag = "warn"
        else:
            flag = "ok"
        rows.append((m["name"], m["unit"], med, q1, q3, spread, bound, flag))
    print(f"\n## {workload}: {len(runs)} runs\n")
    print("| metric | unit | median | q1 | q3 | spread | bound | flag |")
    print("|---|---|---|---|---|---|---|---|")
    for name, unit, med, q1, q3, spread, bound, flag in rows:
        print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} | {flag} |")
    return ok, {r[0]: r[2] for r in rows}


def holdout_report(spec, workload, medians, result):
    ok = True
    print(f"\nheld-out seed, {workload}:")
    for m in spec["end_to_end"]:
        v = result["metrics"][m["name"]]["value"]
        d = worse_by(m["better"], v, medians[m["name"]])
        flag = "ok" if d <= m["bound"] else "FAIL"
        ok &= flag == "ok"
        print(f"  {m['name']:<18} {v:>14.6g} vs median {medians[m['name']]:>14.6g}: "
              f"{100 * d:+.2f}% worse (bound {100 * m['bound']:.0f}%) {flag}")
    return ok


def trace_report(spec, workload, seed):
    a, b = run_one(spec, workload, seed, 1), run_one(spec, workload, seed, 1)
    names = {m["name"] for m in spec["per_layer"]}
    missing = names - set(a["metrics"])
    ma, mb = a["metrics"], b["metrics"]
    drift = [k for k, v in ma.items() if v["unit"] in EXACT_UNITS and v["value"] != mb[k]["value"]]
    print(f"\ntraced {workload} (seed {seed}, two runs):")
    for key in ("trace.overhead_share", "attrib.covered_share", "attrib.residual_us_per_op"):
        print(f"  {key:<28} {ma[key]['value']:>10.4f} {mb[key]['value']:>10.4f}")
    for line in a["log"]:
        if line.startswith("attribution"):
            print("  " + line)
    print(f"  per-layer metrics missing: {sorted(missing) or 'none'}")
    print(f"  counts that did not repeat exactly: {drift or 'none'}")
    return not missing and not drift


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--holdout", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = seed_list(args.seeds)
    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        runs = [run_one(spec, workload, s, 0) for s in seeds]
        good, medians = spread_report(spec, workload, runs)
        ok &= good
        raw[workload] = {"seeds": seeds, "metrics": [r["metrics"] for r in runs]}
        if args.holdout is not None:
            result = run_one(spec, workload, args.holdout, 0)
            ok &= holdout_report(spec, workload, medians, result)
            raw[workload]["holdout"] = result["metrics"]
        if args.trace:
            ok &= trace_report(spec, workload, seeds[0])
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1))
    print("\nsteady: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
