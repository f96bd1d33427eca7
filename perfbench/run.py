#!/usr/bin/env python3
"""Build and run perfbench, the benchmark of the assembled viewmapd service.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (the viewmap library and
the driver, Release) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build. Later calls rebuild only what changed. The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"};
the full result (stamp, checks, end-to-end metrics) is also saved under
<build>/results/ for perfbench/bench_diff.py.

--smoke runs all three workloads and every check at tiny scale, traced and
untraced, checks that one seed reproduces its input digest and another
does not, and exits non-zero on any failure: the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("upload_flood", "incident_zipf", "incident_sweep")
# The end-to-end metric each workload's bench.trace_overhead_pct compares
# between a traced run and the untraced runs saved before it.
PRIMARY = {
    "upload_flood": ("upload_cpu_us", "lower"),
    "incident_zipf": ("wall.investigate_p50_ms", "lower"),
    "incident_sweep": ("minute_cpu_ms", "lower"),
}
DRIVER_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: library sources (src/) not found beside perfbench/")
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench"


def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def commit_id():
    """The git commit, when src/ and perfbench/ are as committed; else
    (uncommitted edits, or not a git checkout) a hash of their content."""
    head = git("rev-parse", "HEAD")
    if head and git("status", "--porcelain", "--", "src", "perfbench") == "":
        return head
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    tree = "tree-sha256:" + h.hexdigest()[:16]
    return f"{head}+{tree}" if head else tree


def run_driver(binary, out, workload, seed, seconds, trace, smoke):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(out / "work"), "--commit", commit_id()]
    if trace:
        cmd += ["--spans", str(out / "results" / f"spans-{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: driver exited with status {r.returncode}")
    lines = [line for line in r.stdout.splitlines() if line.strip()]
    parts = {}
    for line in lines[:-1]:
        parts.update(json.loads(line))
    parts["result"] = json.loads(lines[-1])
    return parts


def untraced_baseline(results, stamp, name):
    """The primary metric of the saved untraced runs of the same workload,
    seed, commit and run length as `stamp`."""
    same = ("commit", "seed", "seconds", "smoke")
    base = []
    for p in results.glob(f"{stamp['workload']}-seed{stamp['seed']}-trace0-*.json"):
        try:
            d = json.loads(p.read_text())
            if any(d["stamp"][k] != stamp[k] for k in same):
                continue
            base.append(d["e2e"][name])
        except (OSError, ValueError, KeyError):
            continue
    return base


def save(results, args, trace, parts):
    name = f"{args.workload}-seed{args.seed}-trace{int(trace)}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(parts, indent=1))


def measure(args):
    out = build_dir()
    binary = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    parts = run_driver(binary, out, args.workload, args.seed, args.seconds, args.trace, False)
    result = parts["result"]
    if args.trace:
        # bench.trace_overhead_pct: how much worse the traced run's primary
        # metric reads than in untraced runs of the same code and seed. With
        # none saved yet, make one now.
        name, better = PRIMARY[args.workload]
        base = untraced_baseline(results, parts["stamp"], name)
        if not base:
            plain = run_driver(binary, out, args.workload, args.seed, args.seconds, False, False)
            save(results, args, False, plain)
            base = [plain["e2e"][name]]
        ref = statistics.median(base)
        change = (parts["e2e"][name] - ref) / ref * 100.0
        result["metrics"]["bench.trace_overhead_pct"]["value"] = (
            change if better == "lower" else -change)
        parts["trace_overhead_base_runs"] = len(base)
    save(results, args, args.trace, parts)
    print(json.dumps({"stamp": parts.get("stamp"), "checks": parts.get("checks")}))
    print(json.dumps(result))


def smoke():
    out = build_dir()
    binary = build(out)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {False: sorted(m["name"] for m in bench["end_to_end"]),
                True: sorted(m["name"] for m in bench["per_layer"])}
    failures, digests = [], {}
    for w in WORKLOADS:
        for trace in (False, True):
            start = time.monotonic()
            parts = run_driver(binary, out, w, 1, 1, trace, True)
            res = parts["result"]
            bad = [k for k, ok in parts["checks"].items() if not ok]
            if bad or not res["correct"]:
                failures.append(f"{w} trace={int(trace)}: failed checks {bad}")
            if sorted(res["metrics"]) != expected[trace]:
                failures.append(f"{w} trace={int(trace)}: metric names differ from BENCHMARK.json")
            if res["failed"] != 0 or res["attempted"] < 1:
                failures.append(f"{w} trace={int(trace)}: {res['failed']} of {res['attempted']} failed")
            digests[(w, trace)] = parts["stamp"]["input_sha256"]
            print(f"perfbench smoke: {w} trace={int(trace)} ok in {time.monotonic() - start:.1f} s",
                  file=sys.stderr)
        if digests[(w, False)] != digests[(w, True)]:
            failures.append(f"{w}: one seed gave two input digests")
    other = run_driver(binary, out, "incident_zipf", 2, 1, False, True)
    if other["stamp"]["input_sha256"] == digests[("incident_zipf", False)]:
        failures.append("incident_zipf: seeds 1 and 2 gave the same input digest")
    for f in failures:
        print("perfbench smoke: FAIL " + f, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if failures else "ok", "failures": failures}))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
