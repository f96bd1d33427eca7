#!/usr/bin/env bash
# Build (Release) and run the index benchmark, leaving BENCH_index.json in
# the repository root so successive PRs accumulate a perf trajectory.
# Covers snapshot query latency vs db size, ingest throughput, the
# snapshot-queries-vs-concurrent-ingest scenario, the investigation
# server throughput scenario (worker pool vs live ingest + eviction; on a
# 1-core host the JSON carries a note: everything time-slices one CPU),
# viewmap construction (grid+CSR builder vs the naive O(n²) reference),
# incremental persistence (incremental vs full segment-store checkpoint,
# plus cold-restart recovery), observability overhead
# (ingest with the metrics registry on vs off), and the daemon soak
# (ServiceLifecycle under kill -9 cycles: sustained ingest rate,
# checkpoint cadence, restart recovery latency), and the daemon chaos
# scenario (failpoint-injected ENOSPC/EIO/fsync/rename/torn-write
# failures through the checkpoint path: daemon survival, health
# degrade/recover, zero leaked temps, bit-for-bit recovery). Asserts
# that every
# viewmap_build row reports a bit-identical edge set between the two
# builders, that the checkpoint, recovery_v2, and daemon-soak scenarios'
# recovery invariant held (profiles recovered == manifest promise,
# single-attempt restarts), that the cold restart beats the recorded
# pre-packed-format baseline by ≥ 5× on 1M-VP runs, that the server_zipf
# result-cache scenario hit the cache (hit_rate > 0) with every hit
# bit-identical to a fresh build and the cache inside its byte bound,
# and that the server
# latency percentiles are monotone (p50 ≤ p90 ≤ p99); warns when the
# observability overhead exceeds its 3% budget. Finishes with a
# docs-link check: every per-module design doc under src/*/README.md
# must be referenced from ARCHITECTURE.md.
#
#   tools/run_bench.sh [extra bench_index flags, e.g. --max_vps=100000]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target bench_index -j "$(nproc)"

cd "$repo_root"
"$build_dir/bench/bench_index" "$@"
echo "BENCH_index.json -> $repo_root/BENCH_index.json"

# Edge-set assertion: the grid-accelerated builder must have produced the
# bit-identical CSR as the retained naive reference in every layout.
if ! grep -q '"viewmap_build"' BENCH_index.json; then
  echo "viewmap_build check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
if grep -q '"edges_match": false' BENCH_index.json; then
  echo "viewmap_build check: grid and reference builders disagree on the edge set" >&2
  exit 1
fi
echo "viewmap_build check passed: grid edge sets match the O(n^2) reference"

# Recovery-invariant assertion: the checkpoint scenario must have restarted
# from its own segments and found exactly the profiles the manifest (and the
# pinned snapshot) promised — zero rejects, zero losses.
if ! grep -q '"checkpoint_incremental"' BENCH_index.json; then
  echo "checkpoint check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
if grep -q '"recovered_matches": false' BENCH_index.json; then
  echo "checkpoint check: post-restart profile count does not match the manifest" >&2
  exit 1
fi
echo "checkpoint check passed: restart recovered exactly the checkpointed profiles"

# recovery_v2 assertion: the cold restart's row must be present, must
# have recovered exactly the checkpointed profiles (the shared
# recovered_matches grep above already fails the run on false), and — on
# 1M-VP runs, where the recorded pre-packed-format baseline applies —
# must beat that baseline by at least 5x.
if ! grep -q '"recovery_v2"' BENCH_index.json; then
  echo "recovery_v2 check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
baseline_speedup="$(sed -n 's/.*"speedup_vs_baseline": \([0-9.]*\).*/\1/p' BENCH_index.json)"
if [ -z "${baseline_speedup:-}" ]; then
  echo "recovery_v2 check: could not parse speedup_vs_baseline" >&2
  exit 1
fi
if awk -v s="$baseline_speedup" 'BEGIN { exit !(s == 0.0) }'; then
  echo "recovery_v2 check: non-1M run; baseline speedup not applicable (skipped)"
elif awk -v s="$baseline_speedup" 'BEGIN { exit !(s < 5.0) }'; then
  echo "recovery_v2 check: cold restart is only ${baseline_speedup}x the recorded baseline (need >= 5x)" >&2
  exit 1
else
  echo "recovery_v2 check passed: cold restart is ${baseline_speedup}x the recorded baseline"
fi

# Percentile-monotonicity assertion: the server scenario's serve-side
# latency histogram must report p50 ≤ p90 ≤ p99 — the exposition contract
# the log-linear bucket walk guarantees by construction.
if ! grep -q '"request_p50_us"' BENCH_index.json; then
  echo "percentile check: request_p50_us missing from BENCH_index.json" >&2
  exit 1
fi
read -r p50 p90 p99 < <(sed -n 's/.*"request_p50_us": \([0-9]*\), "request_p90_us": \([0-9]*\), "request_p99_us": \([0-9]*\).*/\1 \2 \3/p' BENCH_index.json)
if [ -z "${p50:-}" ] || [ -z "${p90:-}" ] || [ -z "${p99:-}" ]; then
  echo "percentile check: could not parse request percentiles" >&2
  exit 1
fi
if [ "$p50" -gt "$p90" ] || [ "$p90" -gt "$p99" ]; then
  echo "percentile check: not monotone (p50=$p50 p90=$p90 p99=$p99)" >&2
  exit 1
fi
echo "percentile check passed: p50=$p50 <= p90=$p90 <= p99=$p99 (us)"

# server_zipf assertion: the result-cache scenario must be present, the
# skewed request mix must actually hit the cache, every cache hit must
# have been bit-identical to a fresh build, and the cache stayed inside
# its configured byte bound.
if ! grep -q '"server_zipf"' BENCH_index.json; then
  echo "server_zipf check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
zipf_row="$(grep -o '"server_zipf": {[^}]*}' BENCH_index.json)"
if ! echo "$zipf_row" | grep -q '"reports_match": true'; then
  echo "server_zipf check: a cache hit diverged from the fresh-build report" >&2
  exit 1
fi
if ! echo "$zipf_row" | grep -q '"bytes_ok": true'; then
  echo "server_zipf check: cache resident bytes exceeded the configured bound" >&2
  exit 1
fi
zipf_hit_rate="$(echo "$zipf_row" | sed -n 's/.*"hit_rate": \([0-9.]*\).*/\1/p')"
if [ -z "${zipf_hit_rate:-}" ] || awk -v h="$zipf_hit_rate" 'BEGIN { exit !(h <= 0.0) }'; then
  echo "server_zipf check: hit rate is ${zipf_hit_rate:-unparseable} (need > 0)" >&2
  exit 1
fi
zipf_speedup="$(echo "$zipf_row" | sed -n 's/.*"speedup_vs_nocache": \([0-9.]*\).*/\1/p')"
echo "server_zipf check passed: hit rate ${zipf_hit_rate}, ${zipf_speedup}x vs cache-off, reports bit-identical"

# Observability overhead: the scenario must be present; the 3% ingest
# budget is advisory (timing noise on CI runners), so exceeding it warns
# rather than fails.
if ! grep -q '"obs_overhead"' BENCH_index.json; then
  echo "obs_overhead check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
overhead="$(sed -n 's/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_index.json)"
if awk -v o="$overhead" 'BEGIN { exit !(o > 3.0) }'; then
  echo "obs_overhead WARNING: metered ingest is ${overhead}% slower than plain (budget 3%)" >&2
else
  echo "obs_overhead check passed: ${overhead}% (budget 3%)"
fi

# Daemon-soak assertion: the always-on service scenario must be present,
# and every kill -9 restart must have recovered the newest sealed manifest
# in a single attempt with zero rejects (the shared recovered_matches
# grep above already fails the run if the invariant broke).
if ! grep -q '"daemon_soak"' BENCH_index.json; then
  echo "daemon_soak check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
echo "daemon_soak check passed: every kill -9 restart recovered the sealed manifest"

# Daemon-chaos assertion: the failpoint chaos scenario must be present, the
# daemon must have survived every injected-failure window (>= 20 injected
# I/O faults per run), health must have visibly degraded and recovered, no
# checkpoint temp file may have leaked, and every post-window recover must
# reproduce the live database's canonical bytes (the shared
# recovered_matches grep above fails the run on a mismatch).
if ! grep -q '"daemon_chaos"' BENCH_index.json; then
  echo "daemon_chaos check: scenario missing from BENCH_index.json" >&2
  exit 1
fi
chaos_row="$(grep -o '"daemon_chaos": {[^}]*}' BENCH_index.json)"
for flag in daemon_survived health_degraded_seen health_recovered clean_drains; do
  if ! echo "$chaos_row" | grep -q "\"$flag\": true"; then
    echo "daemon_chaos check: $flag is not true" >&2
    exit 1
  fi
done
if ! echo "$chaos_row" | grep -q '"leaked_temps": 0'; then
  echo "daemon_chaos check: checkpoint temp files leaked" >&2
  exit 1
fi
chaos_fires="$(echo "$chaos_row" | sed -n 's/.*"injected_failures": \([0-9]*\).*/\1/p')"
if [ -z "${chaos_fires:-}" ] || [ "$chaos_fires" -lt 20 ]; then
  echo "daemon_chaos check: only ${chaos_fires:-0} injected failures (need >= 20)" >&2
  exit 1
fi
echo "daemon_chaos check passed: daemon survived $chaos_fires injected I/O failures with zero leaked temps"

# Docs-link check: the architecture map must reach every module design doc.
missing=0
for doc in src/*/README.md; do
  if ! grep -qF "$doc" ARCHITECTURE.md; then
    echo "docs-link check: ARCHITECTURE.md does not reference $doc" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  exit 1
fi
echo "docs-link check passed: all src/*/README.md reachable from ARCHITECTURE.md"
