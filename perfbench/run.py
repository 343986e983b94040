#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload count3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run builds the engine and the
replay program from the checkout's sources into .bench_build/ (RelWithDebInfo,
the repository's default build type); later runs reuse that build. The
replay program replays the workload, gates its correctness and reports
metrics.

Output on stdout, in order:
  * one line {"perfbench": {...}}: workload, seed, host and build
    fingerprint, the resident set of the inputs held in memory (not part
    of peak_rss_mib), the untraced run's wall figures before host-speed
    calibration and its median host slowdown, the deterministic outcome
    and any correctness errors;
  * with --trace 1, the layer table (every per-layer metric with its unit);
  * last, the result object {"correct", "attempted", "failed", "metrics"}
    with the end-to-end metrics (--trace 0) or the per-layer ones
    (--trace 1) named in BENCHMARK.json.
With --trace 1 the traced-run artefact (the benchmark's spans and the
engine's phase profile) is written to .bench_out/<workload>.trace.json.

Exits 0 when the run is correct, 1 when a correctness check failed, and 2
when it could not run (no engine sources, build failure, bad arguments);
in the last case no result line is printed.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
REPLAY = BUILD / "perfbench_replay"
SELFTEST = BUILD / "perfbench_selftest"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {ROOT / 'src'}; run from a checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def read_file(path):
    try:
        return Path(path).read_text(errors="replace")
    except OSError:
        return None


def fingerprint(build_info):
    """Which machine and which build produced the numbers."""
    cpu = "unknown"
    for line in (read_file("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = (read_file("/sys/devices/system/cpu/cpu0/cache/index3/size")
          or "unknown").strip()
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # The checkout may not be a git repository: a digest of the engine's
    # sources identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "cores": cores,
        "l3": l3,
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def layer_table(metrics, specs):
    rows = [(s["name"], metrics.get(s["name"]), s["unit"]) for s in specs]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'layer metric':<{width}}  {'value':>16}  unit"]
    for name, value, unit in rows:
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"{name:<{width}}  {shown:>16}  {unit}")
    return "\n".join(lines)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [str(REPLAY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--artefact", str(OUT / f"{args.workload}.trace.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"replay exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"replay printed no result (exit {done.returncode})")

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    errors = list(raw["errors"])
    metrics = {}
    for s in specs:
        value = raw["metrics"].get(s["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {s['name']} missing or not finite")
            continue
        metrics[s["name"]] = {"value": value, "unit": s["unit"]}
    correct = raw["correct"] and not errors and done.returncode == 0

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(raw.get("build", {})),
        "input_rss_mib": raw.get("input_rss_mib"),
        "wall": raw.get("wall"),
        "outcome": raw.get("outcome"),
        "errors": errors,
    }
    print(json.dumps({"perfbench": header}))
    if args.trace:
        print(layer_table(raw["metrics"], specs))
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": raw["replays"],
        "failed": raw["failed_replays"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
