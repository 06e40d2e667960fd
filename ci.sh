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
# (the audit switch).
echo "==> env var allow-list (result-producing crates)"
env_reads=$(grep -rnE 'env::var(_os)?\(' \
    crates/netsim/src crates/cca/src crates/fluid/src crates/core/src crates/experiments/src \
    | grep -vE 'env::var(_os)?\("BBRDOM_AUDIT"\)' \
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
# legitimate if they are invisible in the output. The result store's
# index is the cache's one on-disk record, so the cold run must leave
# exactly index.jsonl in its cache dir.
echo "==> parallel NE smoke (repro 9: serial vs --jobs 2 vs warm cache)"
ne_out="${TMPDIR:-/tmp}/bbrdom-ci-ne"
rm -rf "$ne_out"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --no-cache --out "$ne_out/serial"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$ne_out/parallel" \
    2> "$ne_out/parallel.log" || { cat "$ne_out/parallel.log"; exit 1; }
cat "$ne_out/parallel.log"
diff -r "$ne_out/serial" "$ne_out/parallel"
cache_files=$(ls -A "$ne_out/cache")
[[ "$cache_files" == "index.jsonl" ]] \
    || { echo "cold cache dir holds more than index.jsonl:"; echo "$cache_files"; exit 1; }
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$ne_out/warm"
diff -r "$ne_out/serial" "$ne_out/warm"

# The repro binary itself, for the steps below that signal it or read
# its exit code (cargo run would stand between them and the process).
repro_bin="${CARGO_TARGET_DIR:-target}/release/repro"

# Retired and unknown flags, and sizing flags out of range, are usage
# errors: exit code 2, nothing run.
echo "==> unknown flags are rejected (exit code 2)"
for flags in "--supervise 2" "--watchdog 10" "--adaptive" "--early-stop" \
    "--early-stop=0.05,3" "--no-early-stop" "--buffer-points 1" "--trials 0" \
    "--ne-flows 0" "--duration 0" "--no-such-flag"; do
    # shellcheck disable=SC2086 # word-split the flag and its value
    code=0; "$repro_bin" 9 --smoke $flags --no-cache --out "$ne_out/rejected" 2>/dev/null || code=$?
    [[ "$code" -eq 2 ]] || { echo "repro 9 $flags exited $code, want 2"; exit 1; }
done
[[ ! -e "$ne_out/rejected" ]] || { echo "a rejected command wrote output"; exit 1; }

# Graceful-stop smoke: SIGINT a pooled fig 9 run once its index holds a
# line. It must exit 130 with the resume hint, and rerunning the same
# command against the same cache must write the serial run's CSVs while
# simulating fewer cells than the cold run did (the store serves the
# recorded prefix). A run that finishes before the signal lands fails
# the step: the smoke would then have tested nothing.
echo "==> graceful stop smoke (repro 9 --jobs 2, SIGINT once the index has a line)"
int_out="${TMPDIR:-/tmp}/bbrdom-ci-interrupt"
rm -rf "$int_out"
mkdir -p "$int_out"
"$repro_bin" 9 --smoke --jobs 2 --cache-dir "$int_out/cache" --out "$int_out/out" \
    > /dev/null 2> "$int_out/stopped.log" &
repro_pid=$!
for _ in $(seq 600); do
    [[ "$(wc -l 2>/dev/null < "$int_out/cache/index.jsonl" || echo 0)" -ge 1 ]] && break
    kill -0 "$repro_pid" 2>/dev/null || break
    sleep 0.01
done
kill -INT "$repro_pid" 2>/dev/null || true
code=0; wait "$repro_pid" || code=$?
cat "$int_out/stopped.log"
[[ "$code" -eq 130 ]] \
    || { echo "SIGINT run exited $code, want 130 (0: it finished before the signal landed)"; exit 1; }
grep -E "^interrupted: cache .* rerun " "$int_out/stopped.log" >/dev/null \
    || { echo "SIGINT run printed no resume hint"; exit 1; }
"$repro_bin" 9 --smoke --jobs 2 --cache-dir "$int_out/cache" --out "$int_out/out" \
    2> "$int_out/resumed.log" || { cat "$int_out/resumed.log"; exit 1; }
cat "$int_out/resumed.log"
diff -r "$ne_out/serial" "$int_out/out"
simulated() { sed -n 's/^== .* done in [0-9.]*s (\([0-9]*\) simulated .*/\1/p' "$1"; }
cold_cells=$(simulated "$ne_out/parallel.log")
resumed_cells=$(simulated "$int_out/resumed.log")
[[ -n "$cold_cells" && -n "$resumed_cells" && "$resumed_cells" -lt "$cold_cells" ]] \
    || { echo "resumed run simulated '$resumed_cells' cells, cold run '$cold_cells'"; exit 1; }

# Audit-identity smoke: the runtime auditor checks, it never changes a
# result. An audited cold run must write the serial run's CSVs and an
# index byte-identical to the un-audited cold run's.
echo "==> audit identity smoke (BBRDOM_AUDIT=1 repro 9 vs un-audited)"
au_out="${TMPDIR:-/tmp}/bbrdom-ci-audit"
rm -rf "$au_out"
BBRDOM_AUDIT=1 "$repro_bin" 9 --smoke --jobs 2 --cache-dir "$au_out/cache" --out "$au_out/out"
diff -r "$ne_out/serial" "$au_out/out"
cmp "$ne_out/cache/index.jsonl" "$au_out/cache/index.jsonl" \
    || { echo "the audited run wrote a different index"; exit 1; }

# Fluid-vs-DES smoke diff: one fig 9 panel on each backend. The fluid
# backend must run the panel end to end through the same repro CLI and
# produce structurally identical CSV (same files, same header, same row
# count) — numeric columns legitimately differ between the two models.
# The fluid run is cold with a cache, then warm: the warm run reads
# every fluid-shaped index line back (fifty-odd flows, long backoff
# lists), so it must simulate nothing and write the same CSVs, and
# `repro query` must find the fluid cells in that index. A second warm
# run reads a copy of the cache with a non-UTF-8 line and a malformed
# line spliced into the middle of its index: each is skipped on its
# own, so that run too must simulate nothing and write the same CSVs.
echo "==> fluid backend smoke (repro 9 --backend fluid vs des, cold then warm store)"
fl_out="${TMPDIR:-/tmp}/bbrdom-ci-fluid"
rm -rf "$fl_out"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --cache-dir "$fl_out/cache" --backend fluid --out "$fl_out/fluid"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --cache-dir "$fl_out/cache" --backend fluid --out "$fl_out/warm" \
    2> "$fl_out/warm.log" || { cat "$fl_out/warm.log"; exit 1; }
cat "$fl_out/warm.log"
diff -r "$fl_out/fluid" "$fl_out/warm"
grep -F "(0 simulated (0 events)" "$fl_out/warm.log" >/dev/null \
    || { echo "warm fluid run against its own cache still simulated something"; exit 1; }
cp -r "$fl_out/cache" "$fl_out/spliced-cache"
fl_index="$fl_out/spliced-cache/index.jsonl"
fl_half=$(( $(wc -l < "$fl_out/cache/index.jsonl") / 2 ))
{
    head -n "$fl_half" "$fl_out/cache/index.jsonl"
    printf '{"v":1,"key":"\xff\xfe"}\n'
    printf '{"v":1,"key":"torn\n'
    tail -n "+$(( fl_half + 1 ))" "$fl_out/cache/index.jsonl"
} > "$fl_index"
[[ "$(wc -l < "$fl_index")" -eq $(( $(wc -l < "$fl_out/cache/index.jsonl") + 2 )) ]] \
    || { echo "the spliced index lacks its two bad lines"; exit 1; }
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --cache-dir "$fl_out/spliced-cache" --backend fluid --out "$fl_out/spliced" \
    2> "$fl_out/spliced.log" || { cat "$fl_out/spliced.log"; exit 1; }
cat "$fl_out/spliced.log"
diff -r "$fl_out/fluid" "$fl_out/spliced"
grep -F "(0 simulated (0 events)" "$fl_out/spliced.log" >/dev/null \
    || { echo "warm fluid run over a spliced index still simulated something"; exit 1; }
fluid_hits=$(cargo run --release -p bbrdom-experiments --bin repro -- query \
    --cache-dir "$fl_out/cache" --backend fluid --ok --count)
[[ "$fluid_hits" -gt 0 ]] || { echo "repro query found no fluid cells in the index"; exit 1; }
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

# Result-store smoke: a cold serial run with a cache must write an
# index byte-identical to the cold parallel run's (one writer appends
# in scenario order, whatever the pool size), then fig 9 re-assembles
# entirely from store hits (the engine summary on stderr must report
# zero simulations), and `repro query` / `repro cache stats` read the
# same index.
echo "==> result store smoke (serial vs parallel index -> store-served fig 9 -> query/stats)"
st_out="${TMPDIR:-/tmp}/bbrdom-ci-store"
rm -rf "$st_out"
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 1 --cache-dir "$st_out/serial-cache" --out "$st_out/serial"
diff -r "$ne_out/serial" "$st_out/serial"
cmp "$ne_out/cache/index.jsonl" "$st_out/serial-cache/index.jsonl" \
    || { echo "--jobs 1 and --jobs 2 wrote different indexes"; exit 1; }
cargo run --release -p bbrdom-experiments --bin repro -- 9 --smoke \
    --jobs 2 --cache-dir "$ne_out/cache" --out "$st_out/warm" \
    2> "$st_out/warm.log" || { cat "$st_out/warm.log"; exit 1; }
cat "$st_out/warm.log"
diff -r "$ne_out/serial" "$st_out/warm"
grep -F "(0 simulated (0 events)" "$st_out/warm.log" >/dev/null \
    || { echo "store-served fig 9 still simulated something"; exit 1; }
hits=$(cargo run --release -p bbrdom-experiments --bin repro -- query \
    --cache-dir "$ne_out/cache" --cca bbr --ok --count)
[[ "$hits" -gt 0 ]] || { echo "repro query found no BBR cells in the index"; exit 1; }
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
    # regressions. The 1- and 50-flow dumbbell cases (64 simulated
    # seconds each) are report-only — wall-clock numbers don't travel
    # across machines; compare BENCH_netsim.json runs by hand. The 64 s
    # 10-flow dumbbell (bare per-packet forwarding), 48 s open-loop
    # churn, 24 s parking-lot and 120 s Fig 9 cases are gated on pinned
    # events/s floors, a fifth to a half of what a 2-core Xeon VM
    # measures, so noise does not trip them but a structural regression
    # does (work added to every packet or queue operation, leaked
    # timers, unrecycled slots, per-slot queue work, leaked per-hop work,
    # per-ACK window rescans); the churn case also asserts >= 50k
    # cumulative workload flows. Export BENCH_NO_FLOOR=1 to report
    # without gating.
    echo "==> perf smoke (netsim_perf incl. 10-flow dumbbell, churn, parking-lot and Fig 9 floors, BENCH_SAMPLES=5)"
    BENCH_SAMPLES=5 cargo bench -p bbrdom-bench --bench netsim_perf

    # Payoff-engine smoke: serial vs parallel vs warm-cache timings for
    # the payoff workload, recorded in BENCH_payoff.json (with the CPU
    # model and count — speedup is machine-relative). Also asserts
    # serial/parallel bit-identity internally.
    echo "==> payoff engine smoke (payoff_perf)"
    cargo bench -p bbrdom-bench --bench payoff_perf

    # Result-store perf smoke: store-hit figure assembly vs cold
    # simulation of the same grid, timed in the same run, on a reduced
    # grid, and the read rate of Store::open on an index of n = 50 fluid
    # cells, and the rate at which StoreEntry::to_json_line writes the
    # same lines back. The >= 18x floor (cold pass over median store
    # pass), the open-rate floor, the open rate's floor over json::parse
    # on the same lines and the >= 46 MB/s write-rate floor are asserted
    # inside the bench; BENCH_store.json records the numbers (the full
    # default grid is 1000 cells — BENCH_STORE_CELLS shrinks it for CI;
    # the fluid index is fixed).
    echo "==> store perf smoke (store_perf, BENCH_STORE_CELLS=200; open-rate and >= 46 MB/s write-rate floors)"
    BENCH_STORE_CELLS=200 cargo bench -p bbrdom-bench --bench store_perf

    # Fluid perf smoke: the fluid kernel alone over an n = 50 grid shaped
    # like e2ebench's ne-fluid, gated at <= 16 ns per flow-step (median;
    # about twice what a 2-vCPU Xeon VM measures), then the fluid payoff
    # grid >= 15x faster than the DES grid timed in the same run on a
    # fig 9 panel (asserted inside the bench; BENCH_fluid.json records
    # the numbers).
    echo "==> fluid perf smoke (fluid_perf: kernel ns/flow-step ceiling, fluid/DES speedup floor)"
    cargo bench -p bbrdom-bench --bench fluid_perf
fi

echo "==> CI OK"
