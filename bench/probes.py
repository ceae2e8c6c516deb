"""Layer probes for the traced run: fixed calls into one layer each, timed
from here, the same in every workload.  Also the host-speed yardstick,
timed through every run."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bubblemkt as bm
from bubblemkt import cli, elmm

import checks as ck
import workloads as wl

N_VARIATES = 100_000


class Yardstick:
    """Host-speed yardstick: a fixed kernel shaped like the library's own
    work (a vectorised bisection over 512-point arrays, then a pure-Python
    loop), timed between operations and while a CLI call runs.

    This host's speed drifts by tens of percent over seconds and minutes
    (see README), in the benchmark's own process and in the programs it
    starts alike.  ``scale`` maps a wall time measured over an interval to
    the time it would take on a host where the yardstick takes
    ``NOMINAL_S``, using the samples taken within a second of the interval.
    """

    NOMINAL_S = 1.25e-3

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (mid time, duration)
        self._target = np.linspace(0.01, 4.0, 512)
        self._lo = np.zeros(512)
        self._hi = np.full(512, 10.0)

    def _kernel(self) -> int:
        lo, hi = self._lo, self._hi
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            below = np.maximum(1.0 + mid, 0.0) ** 0.25 * (1.0 - 0.05 * mid) < self._target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        total = 0
        for i in range(3000):
            total += i * i % 7
        return total

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.samples.append((0.5 * (start + end), end - start))

    def scale(self, start: float, end: float) -> float:
        local = [d for t, d in self.samples if start - 1.0 <= t <= end + 1.0]
        return self.NOMINAL_S / statistics.median(local)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(d for _, d in self.samples)


def _ms(fn, reps: int = 1):
    """(median wall ms over ``reps`` calls, last result)."""
    times, out = [], None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), out


def _subprocess_ms(args: list[str], env: dict, root: Path, reps: int = 3) -> float:
    def call():
        subprocess.run([sys.executable, *args], cwd=root, env=env, check=True,
                       capture_output=True, timeout=120)

    return _ms(call, reps)[0]


def run(seed: int, root: Path, workdir: Path) -> dict[str, float]:
    m: dict[str, float] = {}
    rng = np.random.default_rng(seed)
    u = rng.random(N_VARIATES)
    u = u[(u > 0.0) & (u < 1.0)]
    base, _ = wl.exp_family(0.1, 0.2, 0.2)
    law = bm.UniformHazard(wl.T)
    strict_local = bm.MarketModel(0.0, 0.2, law, bm.linear_delta_excess(law, 1.0))
    lppl, _ = wl.lppl_family(0.4, 0.3)
    tab = wl.tabulated_law()
    tab_model = bm.MarketModel(0.1, 0.2, tab, bm.ConstantJumpSizeExcess(tab, 0.3))
    families = {
        "exponential_cutoff": (base, math.exp(0.1)),
        "uniform": (strict_local, 1.0 - math.exp(-1.0)),
        "lppl": (lppl, math.exp(0.1)),
        "tabulated": (tab_model, math.exp(0.1)),
    }

    # hazard
    for family, (model, _) in families.items():
        m[f"hazard.inverse_cdf_ms.{family}"] = _ms(lambda: model.hazard.inverse_cdf(u))[0]
    m["hazard.validate_ms"] = _ms(lambda: bm.validate(base), reps=5)[0]

    # solver and welfare
    sols = {}
    for key, p, n in (("p4", 4.0, 512), ("p0.25", 0.25, 512), ("p1", 1.0, 512),
                      ("n4096", 4.0, 4096)):
        m[f"solver.solve_ms.{key}"], sols[key] = _ms(
            lambda: bm.solve_optimal(base, bm.Preference(p), n_grid=n), reps=3)
    sol4 = sols["p4"]
    m["solver.myopic_curve_ms"] = _ms(
        lambda: bm.myopic_curve(base, sol4.preference, sol4.grid), reps=3)[0]
    m["solver.refine_gap"] = abs(
        bm.certainty_equivalent(sol4) / bm.certainty_equivalent(sols["n4096"]) - 1.0)
    m["welfare.safe_rates_ms.p1"] = _ms(lambda: bm.safe_rates(sols["p1"]), reps=3)[0]

    # tilted measure
    tilt = elmm.TiltFunction(y=sol4.tilt, label="solved tilt")
    m["elmm.build_tilted_ms"], measure = _ms(lambda: bm.build_tilted_measure(base, tilt), reps=3)
    m["elmm.inverse_cdf_ms"] = _ms(lambda: measure.inverse_cdf(u))[0]

    # Monte Carlo
    gaps = []
    for family, (model, oracle) in families.items():
        cfg = bm.SimConfig(n_paths=N_VARIATES, seed=seed)
        m[f"montecarlo.terminal_price_ms.{family}"], r = _ms(
            lambda: bm.estimate(model, cfg, bm.TerminalPrice()))
        gaps.append(abs(r.mean - oracle) / r.stderr)
    m["montecarlo.price_gap_se"] = max(gaps)
    cfg = bm.SimConfig(n_paths=10_000, n_steps=1024, seed=seed)
    p = sol4.preference.p
    m["montecarlo.expected_utility_ms"], r = _ms(
        lambda: bm.estimate(base, cfg, bm.ExpectedUtility(bm.optimal_strategy(sol4), p)))
    utility_of_ce = bm.certainty_equivalent(sol4) ** (1.0 - p) / (1.0 - p)
    m["montecarlo.ce_gap_se"] = abs(r.mean - utility_of_ce) / r.stderr
    m["montecarlo.budget_q_ms"], r = _ms(lambda: bm.estimate(base, cfg, bm.BudgetUnderQ(sol4)))
    m["montecarlo.budget_gap_se"] = abs(r.mean - 1.0) / r.stderr

    # command line: interpreter start, package import, in-process commands
    env = wl.cli_env(root)
    m["env.python_start_ms"] = _subprocess_ms(["-c", "pass"], env, root)
    m["cli.import_ms"] = (
        _subprocess_ms(["-c", "import bubblemkt"], env, root) - m["env.python_start_ms"])
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "probe.csv"
    scenario = workdir / "probe.json"
    alphas = [0.1, 0.2, 0.4, 0.8]
    scenario.write_text(json.dumps({"sweep": {"parameter": "excess.params.alpha",
                                              "values": alphas, "command": "welfare"}}))
    for command in ("classify", "solve", "welfare", "simulate", "sweep"):
        argv = [command, "--scenario", str(scenario), "--out", str(out)]
        m[f"cli.main_ms.{command}"], code = _ms(lambda: cli.main(argv))
        ck.require(code == 0, f"in-process cli {command} exited {code}")
    points = []
    for i, alpha in enumerate(alphas):
        path = workdir / f"probe_point{i}.json"
        path.write_text(json.dumps({"excess": {"params": {"alpha": alpha}}}))
        points.append(["welfare", "--scenario", str(path), "--out", str(out)])
    m["cli.sweep_points_ms"] = _ms(lambda: [cli.main(argv) for argv in points])[0]
    for path in [out, scenario, *(Path(p[2]) for p in points)]:
        path.unlink(missing_ok=True)
    return m
