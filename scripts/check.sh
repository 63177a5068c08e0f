#!/usr/bin/env sh
# Full local gate: everything CI would run, in the order that fails
# fastest. Run from the repository root:
#
#   sh scripts/check.sh
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Run-twice determinism gate over every experiment. Each experiment
# runs twice and the outputs must be byte-identical — except lines
# tagged "wall-clock" (throughput measurements) and "host-cores" (E14's
# shard-count sweep tops out at the host core count), which are
# inherently machine-dependent and stripped before comparing. Each
# experiment then declares its gate markers once, below: what its
# report must say (`require`) and must never say (`forbid`).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# require FILE PATTERN: FILE must match the extended regex PATTERN.
require() {
    if ! grep -qE "$2" "$1"; then
        echo "$exp output is missing \"$2\"" >&2
        exit 1
    fi
}

# forbid FILE PATTERN: FILE must not match the extended regex PATTERN.
forbid() {
    if grep -qE "$2" "$1"; then
        echo "$exp output reports \"$2\"" >&2
        exit 1
    fi
}

# wrote FILE: the experiment must have written its BENCH file.
wrote() {
    if ! test -f "$1"; then
        echo "$exp did not write $1" >&2
        exit 1
    fi
}

for exp in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18; do
    echo "==> determinism gate: $exp twice"
    raw="$tmpdir/$exp-raw.txt"
    det="$tmpdir/$exp-a.txt"
    cargo run --release -q -p lateral-bench --bin repro -- "$exp" > "$raw"
    grep -vE "wall-clock|host-cores" "$raw" > "$det"
    cargo run --release -q -p lateral-bench --bin repro -- "$exp" \
        | grep -vE "wall-clock|host-cores" > "$tmpdir/$exp-b.txt"
    if ! cmp -s "$det" "$tmpdir/$exp-b.txt"; then
        echo "DETERMINISM VIOLATION: two identical $exp runs diverged:" >&2
        diff "$det" "$tmpdir/$exp-b.txt" >&2 || true
        exit 1
    fi
    case "$exp" in
    e11)
        require "$det" "registry-trace digest"
        ;;
    e12)
        require "$det" "telemetry digest"
        require "$det" "backend-invariant: yes"
        require "$det" "propagated: yes"
        forbid "$det" "backend-invariant: NO"
        ;;
    e13)
        require "$raw" "invocations/sec"
        require "$det" "backend-invariant: yes"
        forbid "$det" "backend-invariant: NO"
        ;;
    e14)
        require "$raw" "invocations/sec"
        require "$raw" "round trips/sec"
        require "$det" "backend-invariant: yes"
        forbid "$det" "backend-invariant: NO"
        wrote BENCH_E14.json
        ;;
    e15)
        require "$raw" "readings/sec"
        require "$det" "backend-invariant: yes"
        forbid "$det" "backend-invariant: NO"
        wrote BENCH_E15.json
        ;;
    e16)
        require "$raw" "proofs ingested/sec"
        require "$det" "backend-invariant: yes"
        require "$det" "identical: yes"
        require "$det" "wave free: yes"
        forbid "$det" "backend-invariant: NO"
        forbid "$det" "identical: NO"
        wrote BENCH_E16.json
        ;;
    e17)
        require "$raw" "rounds/sec"
        require "$det" "backend-invariant: yes"
        require "$det" "clean +intact"
        forbid "$det" "backend-invariant: NO"
        forbid "$det" "VIOLATION|DIVERGED"
        wrote BENCH_E17.json
        ;;
    e18)
        require "$raw" "requests/sec"
        require "$det" "backend-invariant: yes"
        require "$det" "conserved: yes"
        require "$det" "rotated: yes"
        forbid "$det" "backend-invariant: NO"
        forbid "$det" "conserved: NO"
        forbid "$det" "rotated: NO"
        wrote BENCH_E18.json
        ;;
    esac
done

echo "==> all checks passed"
