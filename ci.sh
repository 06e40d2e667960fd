#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 tests, and a perf smoke run.
#
# Usage: ./ci.sh          # full gate (fmt, clippy, tests, perf smoke)
#        SKIP_PERF=1 ./ci.sh   # skip the perf smoke (e.g. on loaded CI boxes)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

# Hidden-input gate: a result must be a function of its Scenario alone,
# so the crates that produce results may read only allow-listed env vars
# (the audit switch, supervisor test hooks, a CCA trace). The engine's
# worker count, BBRDOM_JOBS, is read by the repro binary alone: library
# callers pass the engine they built.
echo "==> env var allow-list (result-producing crates)"
env_reads=$(grep -rnE 'env::var(_os)?\(' \
    crates/netsim/src crates/cca/src crates/fluid/src crates/core/src crates/experiments/src \
    | grep -vE 'env::var(_os)?\("(BBRDOM_AUDIT|BBRDOM_TEST_POISON_[A-Z_]+|BBRDOM_VIVACE_TRACE)"\)' \
    | grep -vE '^crates/experiments/src/bin/repro\.rs:[0-9]+:.*env::var\("BBRDOM_JOBS"\)' \
    || true)
if [[ -n "$env_reads" ]]; then
    echo "env var read outside the allow-list (hash it into the Scenario instead):"
    echo "$env_reads"
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Doc gate runs BEFORE the test suite so doc rot fails fast: every public
# item of the first-party crates must document cleanly (broken intra-doc
# links, bad code fences and missing docs are hard errors).
echo "==> cargo doc (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p bbrdom-core -p bbrdom-netsim -p bbrdom-cca -p bbrdom-fluid \
    -p bbrdom-experiments -p bbrdom-bench

echo "==> tier-1 tests (workspace, release)"
cargo test --release --workspace

# Re-run the suite with the runtime invariant auditor armed: every
# simulation in every test now verifies packet conservation, queue
# bounds and report finiteness at runtime (see crates/netsim/src/audit.rs).
echo "==> audited test pass (BBRDOM_AUDIT=1)"
BBRDOM_AUDIT=1 cargo test --release --workspace -q

# End-to-end benchmark tests: the e2e smoke run of every workload and
# the check of each workload's pinned output digests and counts (the
# only pin on fluid-kernel output at figure scale). e2ebench is a
# workspace of its own, so the workspace test runs above skip it.
echo "==> e2ebench tests (smoke run + output pins)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

# Fault-injection smoke: drive the impairment sweep (wire loss, outage,
# delay spike) end to end through the repro binary's fail-soft path.
echo "==> fault smoke sweep (repro ext-faults --smoke)"
cargo run --release -p bbrdom-experiments --bin repro -- ext-faults --smoke \
    --out "${TMPDIR:-/tmp}/bbrdom-ci-faults"

# Churn smoke: the open-loop workload engine end to end — flow spawn,
# teardown, slot recycling, FCT percentiles, NE-under-churn — through
# the repro binary.
echo "==> churn smoke (repro ext-churn --smoke)"
cargo run --release -p bbrdom-experiments --bin repro -- ext-churn --smoke \
    --out "${TMPDIR:-/tmp}/bbrdom-ci-churn"

# Parking-lot smoke: the multi-bottleneck topology end to end — chain
# lowering, per-hop routing with cross traffic, payoff assembly over the
# long flows only — through the repro binary.
echo "==> parking-lot smoke (repro ext-parkinglot --smoke)"
cargo run --release -p bbrdom-experiments --bin repro -- ext-parkinglot --smoke \
    --out "${TMPDIR:-/tmp}/bbrdom-ci-parkinglot"

# Parallel-engine smoke: the NE pipeline (fig 9) run serial/uncached,
# then parallel with a cold disk cache, then again warm. All three CSV
# sets must be byte-identical — parallelism and caching are only
# legitimate if they are invisible in the output.
echo "==> parallel NE smoke (repro 9: serial vs --jobs 2 vs warm cache)"
ne_out="${TMPDIR:-/tmp}/bbrdom-ci-ne"
rm -rf "$ne_out"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --no-cache --out "$ne_out/serial"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$ne_out/parallel"
diff -r "$ne_out/serial" "$ne_out/parallel"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$ne_out/warm"
diff -r "$ne_out/serial" "$ne_out/warm"

# Supervised sweep smoke: the same NE pipeline sharded across two
# crash-isolated worker processes, with one worker SIGKILLed shortly
# after launch. The supervisor must absorb the kill (retry the
# forfeited leases on the survivor / a replacement) and the figures
# must still be byte-identical to the serial run; a second supervised
# run against the same cache is the resume path: it must match too, with
# every cell served from the store (zero simulations on stderr).
echo "==> supervised sweep smoke (repro 9 --supervise 2, one worker SIGKILLed)"
sv_out="${TMPDIR:-/tmp}/bbrdom-ci-supervised"
rm -rf "$sv_out"
(
    # Kill the first worker that appears (pid files live under the
    # supervisor's work dir). Give up quietly after 60 polls — the
    # smoke batch may finish before a kill lands, which is fine: the
    # assertion is output identity either way.
    for _ in $(seq 60); do
        pidfile=$(find "$sv_out/cache/supervise" -name 'worker-*.pid' 2>/dev/null | head -1)
        if [[ -n "$pidfile" ]]; then
            kill -9 "$(cat "$pidfile")" 2>/dev/null || true
            exit 0
        fi
        sleep 0.1
    done
) &
killer=$!
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --supervise 2 --jobs 1 --watchdog 10 \
    --cache-dir "$sv_out/cache" --out "$sv_out/supervised"
wait "$killer" || true
diff -r --exclude=cache "$ne_out/serial" "$sv_out/supervised"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --supervise 2 --jobs 1 --watchdog 10 \
    --cache-dir "$sv_out/cache" --out "$sv_out/resumed" \
    2> "$sv_out/resumed.log" || { cat "$sv_out/resumed.log"; exit 1; }
cat "$sv_out/resumed.log"
diff -r --exclude=cache "$ne_out/serial" "$sv_out/resumed"
grep -F "(0 simulated (0 events)" "$sv_out/resumed.log" >/dev/null \
    || { echo "supervised rerun against a warm cache still simulated something"; exit 1; }

# Adaptive NE smoke: the model-guided search with early termination must
# land every observed NE within one grid step of the dense grid's, per
# row of every fig 9 panel (an empty adaptive set against a non-empty
# dense set also fails).
echo "==> adaptive NE smoke (repro 9 --adaptive --early-stop vs dense)"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --no-cache --adaptive --early-stop --out "$ne_out/adaptive"
for f in "$ne_out/serial"/fig09_*.csv; do
    base="$(basename "$f")"
    paste -d, "$f" "$ne_out/adaptive/$base" | awk -F, 'NR > 1 {
        nd = split($4, dense, ";"); na = split($8, adaptive, ";");
        if ((na == 0) != (nd == 0)) {
            print "row " NR ": NE sets disagree (dense \"" $4 "\" vs adaptive \"" $8 "\")"
            exit 1
        }
        for (i = 1; i <= na; i++) {
            best = 1e9
            for (j = 1; j <= nd; j++) {
                d = adaptive[i] - dense[j]; if (d < 0) d = -d
                if (d < best) best = d
            }
            if (best > 1) {
                print "row " NR ": adaptive NE " adaptive[i] " not within 1 of dense (" $4 ")"
                exit 1
            }
        }
    }' || { echo "adaptive-vs-dense NE mismatch in $base"; exit 1; }
done

# Fluid-vs-DES smoke diff: one fig 9 panel on each backend. The fluid
# backend must run the panel end to end through the same repro CLI and
# produce structurally identical CSV (same files, same header, same row
# count) — numeric columns legitimately differ between the two models.
echo "==> fluid backend smoke (repro 9 --backend fluid vs des, one panel)"
fl_out="${TMPDIR:-/tmp}/bbrdom-ci-fluid"
rm -rf "$fl_out"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --no-cache --backend fluid --out "$fl_out/fluid"
for f in "$ne_out/serial"/fig09_*.csv; do
    base="$(basename "$f")"
    [[ -f "$fl_out/fluid/$base" ]] || { echo "fluid run missing $base"; exit 1; }
    if ! cmp -s <(head -1 "$f") <(head -1 "$fl_out/fluid/$base"); then
        echo "fluid CSV header differs in $base"; exit 1
    fi
    if [[ "$(wc -l < "$f")" != "$(wc -l < "$fl_out/fluid/$base")" ]]; then
        echo "fluid CSV row count differs in $base"; exit 1
    fi
done

# Result-store smoke: wipe the NE smoke cache's index, rebuild it from
# the cache entries alone, then re-assemble fig 9 entirely from store
# hits — the engine summary on stderr must report zero simulations AND
# zero full-report parses — and exercise `repro query` / `repro cache
# stats` over the same index.
echo "==> result store smoke (index rebuild -> store-served fig 9 -> query/stats)"
st_out="${TMPDIR:-/tmp}/bbrdom-ci-store"
rm -rf "$st_out"
mkdir -p "$st_out"
rm -f "$ne_out/cache/index.jsonl"
cargo run --release -p bbrdom-experiments --bin repro -- index rebuild \
    --cache-dir "$ne_out/cache"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$st_out/warm" \
    2> "$st_out/warm.log" || { cat "$st_out/warm.log"; exit 1; }
cat "$st_out/warm.log"
diff -r "$ne_out/serial" "$st_out/warm"
grep -F "(0 simulated (0 events)" "$st_out/warm.log" >/dev/null \
    || { echo "store-served fig 9 still simulated something"; exit 1; }
grep -F ", 0 disk-parse," "$st_out/warm.log" >/dev/null \
    || { echo "store-served fig 9 still parsed full reports"; exit 1; }
hits=$(cargo run --release -p bbrdom-experiments --bin repro -- query \
    --cache-dir "$ne_out/cache" --cca bbr --ok --count)
[[ "$hits" -gt 0 ]] || { echo "repro query found no BBR cells in the rebuilt index"; exit 1; }
cargo run --release -p bbrdom-experiments --bin repro -- cache stats \
    --cache-dir "$ne_out/cache"

if [[ "${SKIP_PERF:-0}" != "1" ]]; then
    # The perf smokes rewrite the BENCH_*.json files at the repo root from
    # a few samples each, which keeps their generation exercised. The
    # committed files hold the full-sample measurements, so put them back
    # when the script exits, on failure too.
    bench_saved=$(mktemp -d)
    cp BENCH_*.json "$bench_saved"/
    trap 'cp "$bench_saved"/BENCH_*.json . && rm -rf "$bench_saved"' EXIT

    # Perf smoke: a short netsim_perf run (few samples) to catch gross
    # regressions. The three dumbbell cases (64 simulated seconds each)
    # are report-only — wall-clock numbers don't travel across machines;
    # compare BENCH_netsim.json runs by hand. The 10 s open-loop churn,
    # 24 s parking-lot and 120 s Fig 9 cases are gated on pinned events/s
    # floors, a fifth to a half of what a 2-core Xeon VM measures, so
    # noise does not trip them but a structural regression does (leaked
    # timers, unrecycled slots, per-slot queue work, leaked per-hop work,
    # per-ACK window rescans); the churn case also asserts >= 10k
    # cumulative workload flows. Export BENCH_NO_FLOOR=1 to report
    # without gating.
    echo "==> perf smoke (netsim_perf incl. churn, parking-lot and Fig 9 floors, BENCH_SAMPLES=5)"
    BENCH_SAMPLES=5 cargo bench -p bbrdom-bench --bench netsim_perf

    # Payoff-engine smoke: serial vs parallel vs warm-cache timings for
    # the payoff workload, recorded in BENCH_payoff.json (with the core
    # count — speedup is machine-relative). Also asserts serial/parallel
    # bit-identity internally.
    echo "==> payoff engine smoke (payoff_perf)"
    cargo bench -p bbrdom-bench --bench payoff_perf

    # Sweep-scale smoke: adaptive + early-stop must simulate >= 3x fewer
    # events than the dense grid and land within one NE grid step on the
    # pinned case (asserted inside the bench; BENCH_sweep.json records
    # the numbers).
    echo "==> sweep perf smoke (sweep_perf)"
    cargo bench -p bbrdom-bench --bench sweep_perf

    # Result-store perf smoke: store-hit figure assembly vs warm
    # full-report parse on a reduced grid. The >= 10x floor is asserted
    # inside the bench; BENCH_store.json records the numbers (the full
    # default grid is 1000 cells — BENCH_STORE_CELLS shrinks the cold
    # populate for CI).
    echo "==> store perf smoke (store_perf, BENCH_STORE_CELLS=200)"
    BENCH_STORE_CELLS=200 cargo bench -p bbrdom-bench --bench store_perf

    # Fluid perf smoke: the two-tier pipeline's pinned claims — the fluid
    # payoff grid >= 15x faster than the DES grid timed in the same run on
    # a fig 9 panel, and
    # the fluid-located/DES-certified NE within one grid step of dense
    # (asserted inside the bench; BENCH_fluid.json records the numbers).
    echo "==> fluid perf smoke (fluid_perf)"
    cargo bench -p bbrdom-bench --bench fluid_perf
fi

echo "==> CI OK"
