#!/usr/bin/env python3
"""Offline analysis of an amri_sim trace (--trace-out run.jsonl).

Reads nothing but the JSONL trace and reports:
  * run summary        — virtual duration, wall clock, event-ring health;
  * phase profile      — per-phase exclusive wall totals and their share of
                         the run wall clock (requires --profile at capture);
  * span latency       — exact per-tuple latency percentiles from sampled
                         span events (requires --trace-sample at capture),
                         plus per-stage counts and hop statistics;
  * tuner timeline     — per-epoch modelled vs realized probe cost and the
                         relative model error, one row per decision event.

Usage:  trace_report.py run.jsonl
        trace_report.py --self-test

Exit:   0 ok, 1 self-test failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from collections import defaultdict


# --------------------------------------------------------------------------
# Parsing


class Trace:
    """The decoded JSONL trace: header, events by kind, metrics by name."""

    def __init__(self) -> None:
        self.header: dict = {}
        self.events: dict[str, list[dict]] = defaultdict(list)
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict] = {}
        self.lines = 0


def parse_trace(fp) -> Trace:
    trace = Trace()
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {lineno}: not JSON ({err})") from err
        trace.lines += 1
        kind = obj.get("type")
        if kind == "trace_header":
            trace.header = obj
        elif kind == "event":
            trace.events[obj.get("kind", "?")].append(obj)
        elif kind == "metric":
            name = obj.get("name", "?")
            if obj.get("kind") == "counter":
                trace.counters[name] = obj.get("value", 0)
            elif obj.get("kind") == "gauge":
                trace.gauges[name] = obj.get("value", 0.0)
            elif obj.get("kind") == "histogram":
                trace.histograms[name] = obj
    return trace


def percentile(sorted_values: list[float], q: float) -> float:
    """Exact q-quantile by linear interpolation between order statistics."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


# --------------------------------------------------------------------------
# Report sections


def fmt_table(header: list[str], rows: list[list[str]], out) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    print(render(header), file=out)
    print("-" * len(render(header)), file=out)
    for row in rows:
        print(render(row), file=out)


def report_summary(trace: Trace, out) -> None:
    h = trace.header
    print("run summary", file=out)
    print(f"  virtual duration: {h.get('t_end', 0) / 1e6:.3f} s", file=out)
    wall = trace.gauges.get("profile.run.wall_us")
    if wall is not None:
        print(f"  run wall clock:   {wall / 1e3:.3f} ms", file=out)
    retained = h.get("events_retained", 0)
    total = h.get("events_total", 0)
    overwritten = h.get("events_overwritten", 0)
    print(f"  events: {total} emitted, {retained} retained"
          + (f", {overwritten} OVERWRITTEN (ring too small)"
             if overwritten else ""),
          file=out)


def report_phases(trace: Trace, out) -> float | None:
    """Phase table from the profiler gauges; returns coverage fraction (or
    None when the trace was captured without --profile)."""
    prefix, suffix = "profile.", ".exclusive_us"
    phases = {
        name[len(prefix):-len(suffix)]: value
        for name, value in trace.gauges.items()
        if name.startswith(prefix) and name.endswith(suffix)
    }
    wall = trace.gauges.get("profile.run.wall_us")
    if not phases or wall is None:
        print("\nphase profile: not in trace (capture with --profile)",
              file=out)
        return None
    rows = []
    covered = 0.0
    for phase, excl in sorted(phases.items(), key=lambda kv: -kv[1]):
        covered += excl
        hist = trace.histograms.get(f"profile.{phase}.scope_us", {})
        rows.append([phase, str(hist.get("count", "")),
                     f"{excl / 1e3:.3f}",
                     f"{100.0 * excl / wall:.1f}%" if wall > 0 else "-",
                     f"{hist.get('max', 0):.3f}"])
    print("\nphase profile (exclusive wall time per phase)", file=out)
    fmt_table(["phase", "scopes", "excl_ms", "%run", "max_scope_us"],
              rows, out)
    coverage = covered / wall if wall > 0 else 0.0
    print(f"profiled {covered / 1e3:.3f} ms of {wall / 1e3:.3f} ms "
          f"run wall ({100.0 * coverage:.1f}%)", file=out)
    return coverage


def report_spans(trace: Trace, out) -> dict:
    """Span-latency percentiles and stage statistics from kSpan events.
    Returns the computed stats (used by --self-test)."""
    spans = trace.events.get("span", [])
    if not spans:
        print("\nspan trace: not in trace (capture with --trace-sample N)",
              file=out)
        return {}
    stage_counts: dict[str, int] = defaultdict(int)
    latencies_us: list[float] = []
    hop_probe_ns: list[float] = []
    for ev in spans:
        data = ev.get("data", {})
        stage = data.get("stage", "?")
        stage_counts[stage] += 1
        if stage == "done":
            latencies_us.append(data.get("latency_ns", 0) / 1e3)
        elif stage == "hop":
            hop_probe_ns.append(data.get("probe_ns", 0))
    latencies_us.sort()
    stats = {
        "spans_done": len(latencies_us),
        "p50": percentile(latencies_us, 0.50),
        "p95": percentile(latencies_us, 0.95),
        "p99": percentile(latencies_us, 0.99),
        "max": latencies_us[-1] if latencies_us else 0.0,
        "stages": dict(stage_counts),
    }
    print("\nspan trace (sampled per-tuple latency, wall us)", file=out)
    print(f"  completed spans: {stats['spans_done']}"
          f"  p50={stats['p50']:.3f}  p95={stats['p95']:.3f}"
          f"  p99={stats['p99']:.3f}  max={stats['max']:.3f}", file=out)
    print("  stages: "
          + "  ".join(f"{s}={n}" for s, n in sorted(stage_counts.items())),
          file=out)
    if hop_probe_ns:
        print(f"  hops: {len(hop_probe_ns)}, mean probe "
              f"{sum(hop_probe_ns) / len(hop_probe_ns) / 1e3:.3f} us",
              file=out)
    return stats


def report_tuner(trace: Trace, out) -> list[dict]:
    """Per-epoch modelled-vs-realized table from tuner_decision events.
    Returns the epoch rows (used by --self-test)."""
    decisions = trace.events.get("tuner_decision", [])
    if not decisions:
        print("\ntuner timeline: no decisions in trace", file=out)
        return []
    rows = []
    epochs = []
    errors = []
    for ev in decisions:
        d = ev.get("data", {})
        predicted = d.get("prev_predicted_probe_us", -1.0)
        realized = d.get("realized_probe_us", -1.0)
        error = d.get("model_error")
        epoch = {
            "stream": ev.get("stream"),
            "epoch": d.get("epoch"),
            "chosen_ic": d.get("chosen_ic", "?"),
            "migrated": bool(d.get("migrated")),
            "predicted": predicted,
            "realized": realized,
            "model_error": error,
            "migration_cost_us": d.get("migration_cost_us", 0.0),
        }
        epochs.append(epoch)
        if error is not None:
            errors.append(abs(error))
        rows.append([
            str(epoch["stream"]), str(epoch["epoch"]), epoch["chosen_ic"],
            "yes" if epoch["migrated"] else "no",
            f"{predicted:.3f}" if predicted >= 0 else "-",
            f"{realized:.3f}" if realized >= 0 else "-",
            f"{100.0 * error:+.1f}%" if error is not None else "-",
            f"{epoch['migration_cost_us']:.0f}",
        ])
    print("\ntuner timeline (per decision epoch; predicted is the modelled "
          "per-probe cost\nfrom the PREVIOUS decision, realized the "
          "meter-charged mean over the epoch)", file=out)
    fmt_table(["stream", "epoch", "chosen_ic", "migrated", "pred_us",
               "real_us", "error", "mig_cost_us"], rows, out)
    if errors:
        print(f"mean |model error| over {len(errors)} closed epochs: "
              f"{100.0 * sum(errors) / len(errors):.1f}%", file=out)
    return epochs


def run_report(fp, out) -> int:
    try:
        trace = parse_trace(fp)
    except ValueError as err:
        print(f"trace_report: {err}", file=sys.stderr)
        return 2
    if not trace.lines:
        print("trace_report: empty trace", file=sys.stderr)
        return 2
    report_summary(trace, out)
    report_phases(trace, out)
    report_spans(trace, out)
    report_tuner(trace, out)
    return 0


# --------------------------------------------------------------------------
# Self-test: a synthetic trace with known statistics.


def _synthetic_trace() -> str:
    lines = [
        {"type": "trace_header", "version": 1, "t_end": 2_000_000,
         "events_total": 9, "events_retained": 9, "events_overwritten": 0},
    ]
    # Phase gauges: 600 + 300 + 80 us of 1000 us wall = 98% coverage.
    for phase, excl in (("route", 600.0), ("probe", 300.0), ("drain", 80.0)):
        lines.append({"type": "metric", "kind": "gauge", "t": 2_000_000,
                      "name": f"profile.{phase}.exclusive_us", "value": excl})
    lines.append({"type": "metric", "kind": "gauge", "t": 2_000_000,
                  "name": "profile.run.wall_us", "value": 1000.0})
    # Five spans with latencies 1..5 us -> p50 = 3 us exactly.
    seq = 0
    for i, lat_us in enumerate((1, 2, 3, 4, 5), start=1):
        for stage, extra in (("arrival", {}), ("hop", {"probe_ns": 500}),
                             ("done", {"latency_ns": lat_us * 1000})):
            lines.append({"type": "event", "kind": "span", "t": i * 100,
                          "stream": 0, "seq": seq,
                          "data": {"span": i, "stage": stage,
                                   "wall_ns": i * 1000, **extra}})
            seq += 1
    # Two decisions: epoch 1 opens a prediction of 2.0, epoch 2 realizes
    # 3.0 -> model error +50%.
    lines.append({"type": "event", "kind": "tuner_decision", "t": 1_000_000,
                  "stream": 0, "seq": seq, "data": {
                      "epoch": 1, "chosen_ic": "[A:8]", "migrated": True,
                      "migration_cost_us": 128.0,
                      "prev_predicted_probe_us": -1.0,
                      "realized_probe_us": 1.5, "epoch_probes": 100,
                      "predicted_probe_us": 2.0}})
    lines.append({"type": "event", "kind": "tuner_decision", "t": 2_000_000,
                  "stream": 0, "seq": seq + 1, "data": {
                      "epoch": 2, "chosen_ic": "[A:8]", "migrated": False,
                      "migration_cost_us": 0.0,
                      "prev_predicted_probe_us": 2.0,
                      "realized_probe_us": 3.0, "epoch_probes": 100,
                      "model_error": 0.5, "predicted_probe_us": 2.0}})
    return "\n".join(json.dumps(obj) for obj in lines) + "\n"


def self_test() -> int:
    out = io.StringIO()
    trace = parse_trace(io.StringIO(_synthetic_trace()))

    coverage = report_phases(trace, out)
    assert coverage is not None and abs(coverage - 0.98) < 1e-9, coverage

    spans = report_spans(trace, out)
    assert spans["spans_done"] == 5, spans
    assert abs(spans["p50"] - 3.0) < 1e-9, spans
    assert abs(spans["max"] - 5.0) < 1e-9, spans
    assert spans["stages"] == {"arrival": 5, "hop": 5, "done": 5}, spans

    epochs = report_tuner(trace, out)
    assert len(epochs) == 2, epochs
    assert epochs[0]["model_error"] is None, epochs
    assert abs(epochs[1]["model_error"] - 0.5) < 1e-9, epochs
    assert epochs[0]["migration_cost_us"] == 128.0, epochs

    # Percentile helper edge cases.
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
    assert abs(percentile([1.0, 2.0], 0.5) - 1.5) < 1e-9

    # End-to-end render of the synthetic trace must succeed.
    rc = run_report(io.StringIO(_synthetic_trace()), io.StringIO())
    assert rc == 0, rc

    print("trace_report self-test OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?", help="JSONL trace from "
                        "amri_sim --trace-out")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in checks on a synthetic trace")
    args = parser.parse_args(argv)

    if args.self_test:
        try:
            return self_test()
        except AssertionError as err:
            print(f"trace_report self-test FAILED: {err}", file=sys.stderr)
            return 1
    if not args.trace:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.trace, encoding="utf-8") as fp:
            return run_report(fp, sys.stdout)
    except OSError as err:
        print(f"trace_report: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
