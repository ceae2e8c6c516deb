"""Benchmark entry point.

    python3 bench/run.py --workload solve_grid --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh worker process (``worker.py``), then sets the
workload up twice more in fresh processes, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
lists, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  ``setup_s`` is the median over the three set-ups of the time
from process start to the first timed operation.  Times are host-normalised
(see Yardstick in probes.py).  Processes run one at a time.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
WORKLOADS = ("solve_grid", "mc_verify", "cli_calls")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker(args, extra: list[str], env: dict) -> tuple[float, dict | None]:
    """Start one worker; return (host-normalised seconds from its start to
    SETUP_DONE, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    setup_s, result = None, None
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            for line in proc.stdout:
                if line.startswith("SETUP_DONE ") and setup_s is None:
                    setup_s = (time.perf_counter() - start) * float(line.split()[1])
                elif line.startswith("{"):
                    result = json.loads(line)
        finally:
            proc.stdout.close()
            code = proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"worker {' '.join(extra) or 'run'} exited {code}")
    return setup_s, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs (self-check)")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bubblemkt" / "__init__.py").is_file():
        return fail(f"no bubblemkt package under {ROOT / 'src'}")
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    extra = ["--small"] if args.small else []
    try:
        setups = [worker(args, extra, env)]
        if not args.trace:
            setups += [worker(args, extra + ["--setup-only"], env) for _ in range(SETUPS - 1)]
    except RuntimeError as exc:
        return fail(str(exc))
    result = setups[0][1]
    measured = result["metrics"]
    measured["setup_s"] = {"value": statistics.median(s for s, _ in setups)}

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            return fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    for key in ("failures", "wrong"):
        for line in result[key]:
            print(f"{key[:-1] if key == 'failures' else key}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
