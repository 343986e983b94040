#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets.

    python3 perfbench/compare.py collect OUT_DIR [--workloads count3 multiq3]
        [--seeds 1-10]
    python3 perfbench/compare.py spread RUN_DIR
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

collect runs perfbench/run.py once per workload and seed, from the root of
the checkout that holds this file, untraced and for BENCHMARK.json's
run_seconds, and saves each run as OUT_DIR/<workload>-s<seed>.json: its exit
status, its standard output and the tail of its standard error. A run that
crashed or timed out leaves a record too.

A run counts as failed when it exited with another code than 0, printed no
result line, or reported "correct": false. Failed runs give no figures.

spread reports, per workload and end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound in BENCHMARK.json (the steadiness
target). It lists failed runs and exits 1 when there are any.

diff reports, per workload and end-to-end metric, each side's median and
quartiles, notes a median that got better by more than the metric's bound,
and flags:
  * a failed run on either side;
  * a (workload, seed) run on one side only;
  * a workload and metric with figures on one side only;
  * a median that got worse by more than the metric's bound;
  * any change at all in a deterministic metric (model_results,
    model_done_frac and the whole per-input outcome) between runs of the
    same workload and seed on both sides.
It exits 1 when anything is flagged, else 0.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = ("model_results", "model_done_frac")
RUN_TIMEOUT_S = 1000  # the first run of a checkout builds the program


def parse_stdout(text):
    """(header, result) from one run's standard output; None when absent."""
    header, result = None, None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "perfbench" in obj:
            header = obj["perfbench"]
        elif "correct" in obj:
            result = obj
    return header, result


def load(run_dir):
    """{(workload, seed): run} for every run record in a directory. A run
    is a dict with the header, the result and `problem`, which is None for
    a good run and says why otherwise."""
    runs = {}
    for path in sorted(Path(run_dir).glob("*.json")):
        rec = json.loads(path.read_text())
        header, result = parse_stdout(rec["stdout"])
        reasons = []
        if rec["exit"] != 0:
            reasons.append(f"exit {rec['exit']}")
        if result is None:
            reasons.append("no result line")
        elif not result["correct"]:
            errors = (header or {}).get("errors") or []
            reasons.append("correct: false" +
                           (f" ({errors[0][:200]})" if errors else ""))
        if reasons and rec.get("stderr_tail"):
            reasons.append(f"stderr: {rec['stderr_tail'][-1][:200]}")
        runs[(rec["workload"], rec["seed"])] = {
            "header": header or {}, "result": result,
            "problem": "; ".join(reasons) or None}
    return runs


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for (w, _), r in sorted(runs.items())
            if w == workload and r["problem"] is None
            and metric in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def workloads_in(*run_sets):
    seen = []
    for runs in run_sets:
        for w, _ in runs:
            if w not in seen:
                seen.append(w)
    return seen


def failures(runs, side):
    return [f"{side} {w} seed {s}: failed run, {r['problem']}"
            for (w, s), r in sorted(runs.items()) if r["problem"] is not None]


def cmd_collect(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    status = 0
    for w in workloads:
        for s in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(s), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", "0"]
            try:
                done = subprocess.run(cmd, cwd=HERE.parent,
                                      capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                code, stdout, stderr = done.returncode, done.stdout, done.stderr
            except subprocess.TimeoutExpired as e:
                code, stdout = "timeout", e.stdout or ""
                stderr = f"timed out after {RUN_TIMEOUT_S} s"
                if isinstance(stdout, bytes):
                    stdout = stdout.decode(errors="replace")
            rec = {"workload": w, "seed": s, "exit": code, "stdout": stdout,
                   "stderr_tail": stderr.strip().splitlines()[-20:]}
            (out / f"{w}-s{s}.json").write_text(json.dumps(rec) + "\n")
            last = stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{w} seed {s}: exit {code} {last[0][:160]}")
            status = status or int(code != 0)
    return status


def cmd_spread(args):
    runs = load(args.run_dir)
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>14} "
          f"{'iqr/median':>10} {'target':>7}")
    for w in workloads_in(runs):
        for m in SPEC["end_to_end"]:
            vals = values(runs, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            mark = "" if rel < m["bound"] / 3 else "  <- above target"
            print(f"{w:<12} {m['name']:<16} {len(vals):>3} {med:>14.6g} "
                  f"{rel:>10.4f} {m['bound'] / 3:>7.4f}{mark}")
    failed = failures(runs, "run")
    for f in failed:
        print(f"FLAG {f}")
    return 1 if failed else 0


def cmd_diff(args):
    base, new = load(args.base_dir), load(args.new_dir)
    flags = failures(base, "base") + failures(new, "new")
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        flags.append(f"{key[0]} seed {key[1]}: run on the {side} side only")
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}")
    for w in workloads_in(base, new):
        for m in SPEC["end_to_end"]:
            b, n = values(base, w, m["name"]), values(new, w, m["name"])
            if not b or not n:
                if b or n:
                    side = "base" if b else "new"
                    flags.append(f"{w} {m['name']}: figures on the {side} "
                                 "side only")
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = -change if m["better"] == "higher" else change
            note = ""
            if worse > m["bound"]:
                note = f"  REGRESSION beyond bound {m['bound']}"
                flags.append(f"{w} {m['name']}: {change:+.2%}")
            elif -worse > m["bound"]:
                note = f"  better beyond bound {m['bound']}"
            print(f"{w:<12} {m['name']:<16} "
                  f"{bq[1]:>14.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{nq[1]:>14.6g} [{nq[0]:.6g}, {nq[2]:.6g}] "
                  f"{change:>+8.2%}{note}")
    shared = sorted(k for k in set(base) & set(new)
                    if base[k]["problem"] is None and new[k]["problem"] is None)
    for key in shared:
        br, nr = base[key], new[key]
        for metric in DETERMINISTIC:
            bv = br["result"]["metrics"].get(metric, {}).get("value")
            nv = nr["result"]["metrics"].get(metric, {}).get("value")
            if bv != nv:
                flags.append(f"{key[0]} seed {key[1]} {metric}: {bv} -> {nv}")
        if br["header"].get("outcome") != nr["header"].get("outcome"):
            flags.append(f"{key[0]} seed {key[1]}: deterministic outcome "
                         "changed")
    for f in flags:
        print(f"FLAG {f}")
    print(f"deterministic metrics compared on {len(shared)} good runs with "
          "the same workload and seed")
    if not flags:
        print("nothing flagged")
    return 1 if flags else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out_dir")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("run_dir")
    d = sub.add_parser("diff")
    d.add_argument("base_dir")
    d.add_argument("new_dir")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
