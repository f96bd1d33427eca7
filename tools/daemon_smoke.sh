#!/usr/bin/env bash
# Compressed-time soak/crash smoke of the viewmapd daemon (well under
# 60 s end to end). Exercises the full service lifecycle the way an
# operator would see it:
#
#   1. start viewmapd on a fresh store with live soak ingest
#      (--soak_rate), a compressed trusted clock (--unit_every_ms), and
#      concurrent investigations;
#   2. scrape /metrics and /healthz over the daemon's own TCP endpoint
#      (plain bash /dev/tcp — no curl dependency);
#   3. kill -9 the process mid-checkpoint-cadence (200 ms interval, so
#      a hard kill lands between — or inside — cycles); the cadence must
#      have sealed packed .vseg2 segments (the store's one format);
#   4. restart on the same store and assert the recovery line
#      (recovered seq=N ... rejected=0 ... ms=T), that the parallel v2
#      cold restart stayed inside its timing budget, and a green
#      /healthz;
#   5. SIGTERM the daemon and assert the clean drain+stop lines;
#   6. restart with --failpoints injecting an ENOSPC window into the
#      checkpoint write path: the daemon must survive, /healthz must go
#      503 (degraded) during the window and back to 200 after it, the
#      failure counters must show up on /metrics, no checkpoint temp
#      file may be left behind, and SIGTERM must still exit clean.
#
#   tools/daemon_smoke.sh [path/to/viewmapd]   (default build/tools/viewmapd)
set -euo pipefail

bin="${1:-build/tools/viewmapd}"
if [ ! -x "$bin" ]; then
  echo "daemon_smoke: $bin not found or not executable" >&2
  exit 1
fi

workdir="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

store="$workdir/store"
log="$workdir/viewmapd.log"
port=""

start_daemon() {
  : > "$log"
  "$bin" --store="$store" --port=0 --workers=1 \
         --checkpoint_interval_ms=200 --jitter=0 \
         --soak_rate=400 --unit_every_ms=250 --investigate_every_ms=100 \
         "$@" \
         >"$log" 2>&1 &
  pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^viewmapd: scrape listening on [0-9.]*:\([0-9]*\)$/\1/p' "$log" | head -n 1)"
    [ -n "$port" ] && return 0
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.1
  done
  echo "daemon_smoke: daemon did not announce its scrape endpoint" >&2
  cat "$log" >&2
  exit 1
}

# GET a path from the scrape endpoint; prints status line + headers +
# body. Runs the socket I/O in a command-substitution subshell and
# retries: on a busy 1-core host the daemon's accept loop can drop a
# connection mid-request, and a stray SIGPIPE must not kill the harness.
http_get() {
  local path="$1" out="" attempt
  for attempt in $(seq 1 25); do
    out="$( {
      exec 3<>"/dev/tcp/127.0.0.1/$port" &&
        printf 'GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' \
          "$path" >&3 &&
        cat <&3
    } 2>/dev/null )" || out=""
    if [ -n "$out" ]; then
      printf '%s\n' "$out"
      return 0
    fi
    sleep 0.4
  done
  echo "daemon_smoke: scrape GET $path failed after 25 attempts" >&2
  return 1
}

# ── 1. fresh start under soak load ───────────────────────────────────
start_daemon
grep -q '^viewmapd: fresh database$' "$log" || {
  echo "daemon_smoke: expected a fresh database on first start" >&2
  cat "$log" >&2
  exit 1
}
echo "daemon_smoke: started (pid=$pid, scrape port=$port)"

# Let the soak loop ingest and the 200 ms checkpoint cadence seal a few
# manifests worth of live state.
sleep 3

# Sealed segments must be packed .vseg2 files, the store's one format.
ls "$store"/seg-*.vseg2 >/dev/null 2>&1 || {
  echo "daemon_smoke: no packed .vseg2 segments after checkpoint cadence" >&2
  ls "$store" >&2 || true
  exit 1
}
echo "daemon_smoke: packed v2 segments sealed under live ingest"

# ── 2. scrape the live daemon ────────────────────────────────────────
metrics="$(http_get /metrics)"
echo "$metrics" | grep -q '^HTTP/1.1 200 OK' ||
  { echo "daemon_smoke: /metrics did not return 200" >&2; exit 1; }
echo "$metrics" | grep -q 'viewmap_daemon_heartbeats_total' ||
  { echo "daemon_smoke: /metrics is missing daemon heartbeat counters" >&2; exit 1; }
echo "$metrics" | grep -q 'viewmap_daemon_checkpoints_total' ||
  { echo "daemon_smoke: /metrics is missing checkpoint counters" >&2; exit 1; }
health="$(http_get /healthz)"
echo "$health" | grep -q '^HTTP/1.1 200 OK' ||
  { echo "daemon_smoke: /healthz not green on a running daemon" >&2; exit 1; }
echo "$health" | grep -q '^state=running' ||
  { echo "daemon_smoke: /healthz body does not report state=running" >&2; exit 1; }
echo "daemon_smoke: /metrics + /healthz green under live ingest"

# ── 3. kill -9 mid-cadence ───────────────────────────────────────────
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
echo "daemon_smoke: killed -9"

# ── 4. restart on the crashed store: the recovery invariant ──────────
start_daemon
recovered="$(grep '^viewmapd: recovered seq=' "$log" | head -n 1 || true)"
[ -n "$recovered" ] || {
  echo "daemon_smoke: restart did not recover from the crashed store" >&2
  cat "$log" >&2
  exit 1
}
echo "$recovered" | grep -q 'rejected=0' ||
  { echo "daemon_smoke: recovery rejected profiles: $recovered" >&2; exit 1; }
# Cold-restart timing: the recovery line reports ms=N.N for the parallel
# v2 restore; at smoke scale (a few seconds of soak) anything over 5 s
# means the packed read path regressed catastrophically.
recover_ms="$(echo "$recovered" | sed -n 's/.* ms=\([0-9.]*\)$/\1/p')"
[ -n "$recover_ms" ] || {
  echo "daemon_smoke: recovery line is missing the ms= timing: $recovered" >&2
  exit 1
}
awk -v ms="$recover_ms" 'BEGIN { exit !(ms < 5000.0) }' || {
  echo "daemon_smoke: cold restart took ${recover_ms} ms (budget 5000)" >&2
  exit 1
}
health="$(http_get /healthz)"
echo "$health" | grep -q '^HTTP/1.1 200 OK' ||
  { echo "daemon_smoke: /healthz not green after crash recovery" >&2; exit 1; }
echo "daemon_smoke: $recovered — /healthz green after kill -9 restart"

# ── 5. graceful shutdown: drain then stop ────────────────────────────
sleep 1
kill -TERM "$pid"
for _ in $(seq 1 100); do
  if ! kill -0 "$pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "daemon_smoke: daemon ignored SIGTERM" >&2
  kill -9 "$pid"
  exit 1
fi
wait "$pid" 2>/dev/null || true
pid=""
grep -q '^viewmapd: draining$' "$log" ||
  { echo "daemon_smoke: SIGTERM did not drain" >&2; cat "$log" >&2; exit 1; }
grep -q '^viewmapd: stopped' "$log" ||
  { echo "daemon_smoke: daemon did not report a clean stop" >&2; cat "$log" >&2; exit 1; }
echo "daemon_smoke: clean SIGTERM drain+stop"

# ── 6. injected-ENOSPC chaos cycle ───────────────────────────────────
# Restart on the same store with a failpoint window: the first 6
# checkpoint attempts hit ENOSPC on the segment-write path (the retry
# backoff stretches the window over a few seconds — long enough to
# observe). The daemon must survive it, /healthz must degrade to 503
# and recover to 200, and shutdown must still be clean.
start_daemon --failpoints='store.write.data=enospc@window:0:6'
grep -q '^viewmapd: failpoints armed: store.write.data$' "$log" || {
  echo "daemon_smoke: daemon did not announce the armed failpoint" >&2
  cat "$log" >&2
  exit 1
}

degraded=""
for _ in $(seq 1 60); do
  health="$(http_get /healthz)" || health=""
  if echo "$health" | grep -q '^HTTP/1.1 503'; then degraded="$health"; break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "daemon_smoke: daemon died during the ENOSPC window" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -n "$degraded" ] || {
  echo "daemon_smoke: /healthz never reported 503 during the ENOSPC window" >&2
  exit 1
}
echo "$degraded" | grep -q '^reason=checkpoint-failures:' ||
  { echo "daemon_smoke: degraded /healthz body is missing the reason= line" >&2; exit 1; }
echo "daemon_smoke: /healthz degraded (503) during the injected ENOSPC window"

recovered_health=""
for _ in $(seq 1 150); do
  health="$(http_get /healthz)" || health=""
  if echo "$health" | grep -q '^HTTP/1.1 200 OK'; then recovered_health="$health"; break; fi
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "daemon_smoke: daemon died before recovering from the ENOSPC window" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -n "$recovered_health" ] || {
  echo "daemon_smoke: /healthz never recovered to 200 after the ENOSPC window" >&2
  exit 1
}
metrics="$(http_get /metrics)"
echo "$metrics" | grep -q 'viewmap_daemon_checkpoint_failures_total{reason="enospc"} [1-9]' ||
  { echo "daemon_smoke: /metrics does not show the injected ENOSPC failures" >&2; exit 1; }
echo "daemon_smoke: /healthz back to 200, enospc failure counter visible"

kill -TERM "$pid"
for _ in $(seq 1 100); do
  if ! kill -0 "$pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "daemon_smoke: daemon ignored SIGTERM after the chaos cycle" >&2
  kill -9 "$pid"
  exit 1
fi
wait "$pid" 2>/dev/null || true
pid=""
grep -q '^viewmapd: stopped (submitted=' "$log" ||
  { echo "daemon_smoke: chaos cycle did not end in a clean stop" >&2; cat "$log" >&2; exit 1; }
if ls "$store"/*.tmp >/dev/null 2>&1; then
  echo "daemon_smoke: checkpoint temp files leaked in the store" >&2
  ls "$store" >&2
  exit 1
fi
echo "daemon_smoke: chaos cycle survived — clean stop, no leaked temps"
echo "daemon_smoke: PASS"
