"""Fast self-check of the benchmark.

    python3 bench/selfcheck/check.py

1. Runs every workload at a reduced size (``--small``, one round) and the
   traced run of one of them, and checks that each reports correct outputs,
   the expected number of known failures and every metric BENCHMARK.json
   names.
2. Shows that each kind of output check can fail: every check is first
   given the right oracle (it must pass) and then a deliberately wrong one
   (it must fire).

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402

import bubblemkt as bm  # noqa: E402
import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

# failed operations per round of the reduced workloads
KNOWN_FAILURES = {"solve_grid": 4, "mc_verify": 0, "cli_calls": 2}
problems: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        problems.append(message)


def run_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, trace in [(w, 0) for w in wl.WORKLOADS] + [("mc_verify", 1)]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0", "--trace", str(trace), "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        label = f"{name} trace={trace}"
        if proc.returncode != 0:
            expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        rounds = 2 if trace else 1
        expect(result["correct"], f"{label}: outputs correct")
        expect(result["failed"] == rounds * KNOWN_FAILURES[name],
               f"{label}: {result['failed']} failed of {result['attempted']}")
        expect(set(result["metrics"]) == wanted, f"{label}: reports every metric")


def fires(check, right: tuple, wrong: tuple, label: str, error=ck.CheckFailed) -> None:
    """``check(*right)`` passes and ``check(*wrong)`` raises ``error``."""
    try:
        check(*right)
        passed = True
    except (ck.CheckFailed, ck.OpFailed):
        passed = False
    try:
        check(*wrong)
        fired = False
    except error:
        fired = True
    expect(passed and fired, f"{label}: passes with the right oracle, fires with a wrong one")


def oracle_checks() -> None:
    model, coef = wl.exp_family(0.1, 0.2, 0.2)
    sol = bm.solve_optimal(model, bm.Preference(4.0))
    pi_m, pi_h = bm.decompose(sol)
    report = bm.safe_rates(sol)
    kappa, dphi = coef(sol.grid)
    lo, y, hi = sol.lower.values, sol.tilt.values, sol.upper.values
    fires(ck.check_bracket, (lo, y, hi), (hi, y, lo), "bracket containment")
    fires(ck.check_hedging_sign, (4.0, pi_h.values), (0.25, pi_h.values), "hedging sign")
    merton = sol.merton_fraction
    fires(ck.check_myopic_bounds, (pi_m.values, merton, dphi),
          (pi_m.values, float(pi_m.values.max()), dphi), "myopic demand in (0, Merton)")
    fires(ck.check_relative_loss, (report.relative_loss,), (report.relative_loss + 1.0,),
          "rESRL in [0, 1)")
    log_sol = bm.solve_optimal(model, bm.Preference(1.0))
    right = ck.log_utility_root(0.1, 0.2, kappa, dphi)
    wrong = ck.log_utility_root(0.1, 0.3, kappa, dphi)
    fires(ck.check_log_root, (log_sol.tilt.values, right), (log_sol.tilt.values, wrong),
          "log-utility quadratic root")
    fine = bm.safe_rates(bm.solve_optimal(model, bm.Preference(4.0), n_grid=4096))
    ce, ce_fine = report.certainty_equivalent, fine.certainty_equivalent
    fires(ck.check_refinement, (ce, ce_fine, wl.REFINE_RTOL),
          (ce * (1.0 + 1e-6), ce_fine, wl.REFINE_RTOL), "CE(512) against CE(4096)")

    price = bm.estimate(model, bm.SimConfig(n_paths=100_000, seed=3), bm.TerminalPrice())
    fires(ck.check_price_band, (price.mean, price.stderr, math.exp(0.1)),
          (price.mean, price.stderr, 1.0), "E[S_T] oracle band")
    cfg = bm.SimConfig(n_paths=20_000, n_steps=1024, seed=3)
    opt = bm.estimate(model, cfg, bm.ExpectedUtility(bm.optimal_strategy(sol), 4.0))
    fires(ck.check_ce_band, (opt.mean, opt.stderr, 4.0, ce),
          (opt.mean, opt.stderr, 4.0, 1.05 * ce), "CE formula in the MC utility band")
    budget = bm.estimate(model, cfg, bm.BudgetUnderQ(sol))
    fires(ck.check_budget, (budget.mean, budget.stderr, 1.0),
          (budget.mean, budget.stderr, 1.1), "E^Q[X_T] = x")
    merton_est = bm.estimate(model, cfg, bm.ExpectedUtility(bm.merton_strategy(model, 4.0), 4.0))
    fires(ck.check_dominance, (opt.mean, opt.stderr, merton_est.mean, merton_est.stderr),
          (merton_est.mean, merton_est.stderr, opt.mean, opt.stderr), "optimality dominance")


def cli_checks() -> None:
    env = wl.cli_env(ROOT)

    def call(*args):
        return subprocess.run([sys.executable, "-m", "bubblemkt.cli", *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)

    missing = call("classify", "--scenario", str(HERE / "no-such-scenario.json"))
    fires(ck.check_error_contract, (missing.returncode, missing.stderr, 1),
          (missing.returncode, missing.stderr, 2), "error exit code and ERROR line",
          error=ck.OpFailed)
    fires(ck.check_exit_ok, (0, ""), (missing.returncode, missing.stderr), "exit code 0",
          error=ck.OpFailed)
    scenario = HERE / "selfcheck-scenario.json"
    scenario.write_text("{}")
    try:
        out = call("classify", "--scenario", str(scenario))
    finally:
        scenario.unlink()
    (block,) = ck.parse_blocks(out.stdout)
    header = ["verdict", "atom", "defect", "limsup_delta", "detail"]
    fires(ck.check_csv_shape, (block, header, 1), (block, header[::-1], 1), "CSV header")
    fires(ck.check_csv_shape, (block, header, 1), (block, header, 2), "CSV row count")
    model, _ = wl.exp_family(0.1, 0.2, 0.2)
    ref = bm.classify_under_P(model)
    values = [ref.atom, ref.defect, ref.limsup_delta]
    nudged = [np.nextafter(values[0], 1.0), *values[1:]]
    fires(ck.check_bitwise, (block[2][0][1:4], values, "classify"),
          (block[2][0][1:4], nudged, "classify"), "CLI numbers bit for bit")
    fires(ck.check_sweep_seeds, ([5, 6, 7], 5), ([5, 6, 7], 6), "sweep seeds seed + index",
          error=ck.OpFailed)


def main() -> int:
    oracle_checks()
    cli_checks()
    run_workloads()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
