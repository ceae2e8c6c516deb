"""One workload in one fresh process: set up, signal, then measure.

Started by ``run.py``.  Prints ``SETUP_DONE <scale>`` once its inputs are
built and its warm-up pass is over (``scale`` is the yardstick's host-speed
factor over the set-up), then, unless ``--setup-only``, runs whole rounds
of the workload's operations for ``--seconds`` and prints one JSON result
line.  With ``--trace 1`` it runs one untraced round, one traced round and
the layer probes instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

import checks as ck
import probes
import tracing
import workloads as wl

yardstick = probes.Yardstick()
yardstick.sample(5)  # host speed right after the imports

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
PER_LAYER_COUNTS = {
    "hazard.cumulative_hazard_calls": lambda calls: sum(
        n for name, n in calls.items()
        if name.startswith("hazard.") and name.endswith(".cumulative_hazard")),
    "quad.monotone_inverse_calls": lambda calls: calls["quad.monotone_inverse"],
    "quad.panel_rule_builds": lambda calls: calls["quad.PanelRule.__init__"],
}


def run_round(ops: list[wl.Op], tracer=None) -> list[dict]:
    """Every operation once, in order: its wall time and outcome.  The
    yardstick runs after each operation, more often after long ones."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.span("bench", op.name, op.run)
            error = None
        except Exception as exc:  # the program failed this operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        yardstick.sample(min(5, 1 + int((end - start) / 0.1)))
        status = "ok"
        if error is not None:
            status = "failed"
        else:
            try:
                op.check(out)
            except ck.OpFailed as exc:
                status, error = "failed", str(exc)
            except Exception as exc:  # a wrong or unreadable output
                status, error = "wrong", f"{type(exc).__name__}: {exc}"
        del out
        records.append({"op": op.name, "start": start, "end": end, "status": status,
                        "error": error})
    return records


def normalize(rounds: list[list[dict]]) -> None:
    """Add each operation's wall time ``s`` and its host-normalised time."""
    for rec in (r for rnd in rounds for r in rnd):
        rec["s"] = rec["end"] - rec["start"]
        rec["norm_s"] = rec["s"] * yardstick.scale(rec["start"], rec["end"])


def time_key(workload: wl.Workload) -> str:
    return "norm_s" if workload.host_normalised else "s"


def summarize(rounds: list[list[dict]], key: str) -> dict:
    """Per-operation medians over rounds; the pass includes failed
    operations (a user running it waits for them), latency does not."""
    by_op: dict[str, list[float]] = {}
    ok_by_op: dict[str, list[float]] = {}
    for rec in (r for rnd in rounds for r in rnd):
        by_op.setdefault(rec["op"], []).append(rec[key])
        if rec["status"] != "failed":
            ok_by_op.setdefault(rec["op"], []).append(rec[key])
    return {
        "op_ms_p50": 1e3 * statistics.median(statistics.median(v) for v in ok_by_op.values()),
        "pass_s": sum(statistics.median(v) for v in by_op.values()),
    }


def outcome(rounds: list[list[dict]]) -> dict:
    records = [r for rnd in rounds for r in rnd]
    failed = [r for r in records if r["status"] == "failed"]
    wrong = [r for r in records if r["status"] == "wrong"]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "correct": not wrong,
        "failures": sorted({f"{r['op']}: {r['error']}" for r in failed}),
        "wrong": sorted({f"{r['op']}: {r['error']}" for r in wrong}),
    }


def measure(workload: wl.Workload, seconds: float) -> dict:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload.ops))
    normalize(rounds)
    summary = summarize(rounds, time_key(workload))
    metrics = {name: {"value": value} for name, value in summary.items()}
    return {**outcome(rounds), "metrics": metrics, "wall": summarize(rounds, "s"),
            "normalised": summarize(rounds, "norm_s"), "rounds": rounds}


def measure_traced(workload: wl.Workload, seed: int, workdir: Path) -> dict:
    plain = run_round(workload.ops)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    probe_error = None
    try:
        traced = run_round(workload.ops, tracer)
        try:
            layer = probes.run(seed, ROOT, workdir)
        except ck.CheckFailed as exc:
            layer, probe_error = {}, str(exc)
    finally:
        tracer.active = False
        tracer.uninstall()

    rounds = [plain, traced]
    normalize(rounds)
    result = outcome(rounds)
    if probe_error:
        result["correct"] = False
        result["wrong"].append(f"probe: {probe_error}")
    selfs = tracer.self_times()
    calls = tracer.calls()
    m = {f"{name}.self_s": selfs.get(name, 0.0) for name in (*tracing.LAYERS, "scipy")}
    m.update({name: count(calls) for name, count in PER_LAYER_COUNTS.items()})
    m["quad.integrate_toward_shells"] = tracer.shells
    m["solver.sweeps"] = sum(tracer.sweeps)
    m["solver.sweeps_max"] = max(tracer.sweeps, default=0)
    m["solver.ode_fallbacks"] = tracer.ode_fallbacks
    m["solver.residual_max"] = tracer.residual_max
    m.update(layer)
    key = time_key(workload)
    ok = sorted(r[key] for r in plain if r["status"] != "failed")
    m["op_ms_p95"] = 1e3 * (statistics.quantiles(ok, n=20)[-1] if len(ok) > 1 else ok[0])
    m["trace.overhead_s"] = sum(r[key] for r in traced) - sum(r[key] for r in plain)
    m["env.probe_ms"] = yardstick.median_ms()
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}-{os.getpid()}.jsonl")
    return {**result, "metrics": {k: {"value": v} for k, v in m.items()}, "rounds": rounds}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true", help="reduced inputs (self-check)")
    args = ap.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    setup_start = yardstick.samples[0][0]
    workload = wl.build(args.workload, args.seed, ROOT, workdir, args.small,
                        idle=yardstick.sample)
    try:
        yardstick.sample(5)
        for warm in workload.warmup:
            try:
                warm()
            except Exception:  # known failures warm up too
                pass
        gc.collect()
        yardstick.sample(5)
        scale = yardstick.scale(setup_start, time.perf_counter())
        print(f"SETUP_DONE {scale!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = measure_traced(workload, args.seed, workdir)
        else:
            result = measure(workload, args.seconds)
    finally:
        workload.cleanup()
    result["yardstick"] = yardstick.samples
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    raw.write_text(json.dumps(result, indent=1))
    del result["rounds"], result["yardstick"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
