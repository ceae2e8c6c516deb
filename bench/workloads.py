"""The three workloads: their inputs, operations and output checks.

Each workload is a fixed list of operations that makes one round.  A run
repeats whole rounds, so the share of failed operations is the same in
every run.  ``--seed`` picks the Monte Carlo seeds and the order of the
operations inside each kind; the model parameters are fixed, so the solver's
work counts repeat exactly from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bubblemkt as bm
from bubblemkt import elmm

import checks as ck

T = 1.0
P_GRID = (0.25, 1.0, 4.0)
MU_GRID = (0.05, 0.1, 0.2, 0.3)
SIGMA_GRID = (0.1, 0.2, 0.3, 0.4)
ALPHA_GRID = (0.1, 0.2, 0.4, 0.8)
LPPL = dict(b=1.2, c=0.3, omega=6.0, phase=0.5)
REFINE_RTOL = 1e-8  # CE(512) against CE(4096); measured gaps are <= 1.1e-10


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Callable[[], object]] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None
    # whether operation times are scaled by the host-speed yardstick (see
    # probes.py); off where the yardstick was measured not to follow the work
    host_normalised: bool = True


def interleave(ops: list[Op], seed: int) -> list[Op]:
    """Seed-shuffle the operations inside each kind, then spread every kind
    evenly over the round so that a slow stretch of the host hits all kinds
    alike."""
    rng = np.random.default_rng(seed)
    kinds: dict[str, list[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    keyed = []
    for k, (kind, members) in enumerate(kinds.items()):
        order = rng.permutation(len(members))
        n = len(members)
        offset = (k + 0.5) / (len(kinds) * n)
        keyed += [((i + 0.5) / n + offset, op) for i, op in zip(order, members)]
    return [op for _, op in sorted(keyed, key=lambda kv: kv[0])]


# -- model families and their coefficients evaluated here ----------------------


def exp_family(mu, sigma, alpha):
    law = bm.ExponentialCutoffHazard(rate=1.0, horizon=T)
    model = bm.MarketModel(mu, sigma, law, bm.ConstantExcess(alpha))
    return model, lambda t: (np.ones_like(t), np.full_like(t, alpha))


def uniform_family(slope, mu=0.1, sigma=0.2):
    law = bm.UniformHazard(T)
    model = bm.MarketModel(mu, sigma, law, bm.linear_delta_excess(law, slope))
    return model, lambda t: (1.0 / (T - t), slope * t / (T - t))


def lppl_family(power, delta0, mu=0.1, sigma=0.2):
    law = bm.LPPLHazard(power=power, horizon=T, **LPPL)
    model = bm.MarketModel(mu, sigma, law, bm.ConstantJumpSizeExcess(law, delta0))

    def coef(t):
        s = T - t
        kappa = s ** (power - 1.0) * (
            LPPL["b"] + LPPL["c"] * np.cos(LPPL["omega"] * np.log(s) - LPPL["phase"])
        )
        return kappa, delta0 * kappa

    return model, coef


def tabulated_law():
    knots = np.linspace(0.0, T, 9)
    cdf = 0.6 * -np.expm1(-2.0 * knots) / -math.expm1(-2.0)
    return bm.TabulatedHazard(knots, cdf)


# -- solve_grid ------------------------------------------------------------------


def _scenario(model, p, n_grid):
    def run():
        sol = bm.solve_optimal(model, bm.Preference(p), n_grid=n_grid)
        return sol, bm.safe_rates(sol), bm.decompose(sol)

    return run


def _scenario_check(p, coef, ce_reference=None):
    def check(out):
        sol, report, (pi_m, pi_h) = out
        kappa, dphi = coef(sol.grid)
        ck.check_bracket(sol.lower.values, sol.tilt.values, sol.upper.values)
        ck.check_hedging_sign(p, pi_h.values)
        ck.check_myopic_bounds(pi_m.values, sol.merton_fraction, dphi)
        ck.check_relative_loss(report.relative_loss)
        if p == 1.0:
            model = sol.model
            root = ck.log_utility_root(model.mu, model.sigma, kappa, dphi)
            ck.check_log_root(sol.tilt.values, root)
        if ce_reference is not None:
            ck.check_refinement(ce_reference, report.certainty_equivalent, REFINE_RTOL)

    return check


def solve_grid(seed: int, small: bool = False) -> Workload:
    ops = []
    mus, sigmas, alphas = (
        ((0.1,), (0.2,), (0.2, 0.8)) if small else (MU_GRID, SIGMA_GRID, ALPHA_GRID)
    )
    for p in P_GRID:
        for mu in mus:
            for sigma in sigmas:
                for alpha in alphas:
                    model, coef = exp_family(mu, sigma, alpha)
                    ops.append(Op(
                        f"exp/p{p:g}/mu{mu:g}/s{sigma:g}/a{alpha:g}",
                        f"exp/p{p:g}",
                        _scenario(model, p, 512),
                        _scenario_check(p, coef),
                    ))
    # the strict-local family of criterion 11 and a singular LPPL hazard
    for slope in (0.9,) if small else (0.7, 0.9, 0.99, 1.0):
        model, coef = uniform_family(slope)
        for p in P_GRID:
            ops.append(Op(f"uniform/p{p:g}/slope{slope:g}", "uniform",
                          _scenario(model, p, 512), _scenario_check(p, coef)))
    model, coef = lppl_family(0.4, 0.3)
    for p in P_GRID:
        ops.append(Op(f"lppl0.4/p{p:g}", "lppl", _scenario(model, p, 512),
                      _scenario_check(p, coef)))
    # n_grid 4096 refinement set, checked against CE at n_grid 512
    refine = [(exp_family(0.1, 0.2, 0.2), 4.0, "exp"), (exp_family(0.1, 0.2, 0.2), 0.25, "exp"),
              (uniform_family(0.9), 4.0, "uniform0.9"), (lppl_family(0.4, 0.3), 4.0, "lppl0.4")]
    for (model, coef), p, label in refine[:1] if small else refine:
        ce512 = bm.safe_rates(bm.solve_optimal(model, bm.Preference(p))).certainty_equivalent
        ops.append(Op(f"refine/{label}/p{p:g}/n4096", "refine", _scenario(model, p, 4096),
                      _scenario_check(p, coef, ce_reference=ce512)))
    # known failures: singular LPPL with jump-size-coupled excess, and risk
    # aversion next to log utility (the closed form misses the residual)
    model, coef = lppl_family(-0.1, 0.1)
    for p in (0.5, 4.0):
        ops.append(Op(f"fail/lppl-0.1/p{p:g}", "fail", _scenario(model, p, 512),
                      _scenario_check(p, coef)))
    model, coef = exp_family(0.1, 0.2, 0.2)
    for p in (1.0 - 5e-7, 1.0 + 5e-7):
        ops.append(Op(f"fail/p{p!r}", "fail", _scenario(model, p, 512),
                      _scenario_check(p, coef)))

    # warm-up: the first operation of every kind, the failing ones included
    # (they load the ODE fallback lazily)
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op.run)
    return Workload("solve_grid", interleave(ops, seed), list(warm.values()))


# -- mc_verify -------------------------------------------------------------------


def _estimate(model, cfg, estimand):
    return lambda: bm.estimate(model, cfg, estimand)


def _alternative(model, cfg, estimand):
    """An alternative strategy may ride into ruin; its utility is then -inf,
    dominated by construction, and the estimator says so."""

    def run():
        try:
            return bm.estimate(model, cfg, estimand)
        except bm.SimulationDiagnostic as exc:
            return exc

    return run


def mc_verify(seed: int, small: bool = False) -> Workload:
    scale = 20 if small else 1
    mu = 0.1
    exp_model, _ = exp_family(mu, 0.2, 0.2)
    law = bm.UniformHazard(T)
    strict_local = bm.MarketModel(0.0, 0.2, law, bm.linear_delta_excess(law, 1.0))
    lppl_model, _ = lppl_family(0.4, 0.3)
    tab = tabulated_law()
    tab_model = bm.MarketModel(mu, 0.2, tab, bm.ConstantJumpSizeExcess(tab, 0.3))
    atom_oracle = math.exp(mu * T)  # atom laws: true martingales
    prices = [
        ("exponential_cutoff", exp_model, 1_000_000, atom_oracle),
        ("uniform", strict_local, 1_000_000, 1.0 - math.exp(-1.0)),
        ("lppl", lppl_model, 100_000, atom_oracle),
        ("tabulated", tab_model, 100_000, atom_oracle),
    ]
    price_ops = []
    for i, (family, model, n, oracle) in enumerate(prices):
        cfg = bm.SimConfig(n_paths=n // scale, seed=seed * 100 + i)
        price_ops.append(Op(
            f"price/{family}", "price", _estimate(model, cfg, bm.TerminalPrice()),
            lambda r, o=oracle: ck.check_price_band(r.mean, r.stderr, o),
        ))

    wealth_ops = []
    results: dict[str, object] = {}  # optimal estimates, for the dominance checks
    n_paths, n_steps = 20_000 // scale, 1024
    sols = {p: bm.solve_optimal(exp_model, bm.Preference(p)) for p in (4.0, 0.25)}
    for j, (p, sol) in enumerate(sols.items()):
        ce = bm.certainty_equivalent(sol)
        cfg = bm.SimConfig(n_paths=n_paths, n_steps=n_steps, seed=seed * 100 + 10 + j)
        opt = _estimate(exp_model, cfg, bm.ExpectedUtility(bm.optimal_strategy(sol), p))

        def run_opt(opt=opt, key=f"p{p:g}"):
            results[key] = r = opt()
            return r

        def check_opt(r, p=p, ce=ce):
            ck.check_ce_band(r.mean, r.stderr, p, ce)

        def check_alt(r, key=f"p{p:g}"):
            if isinstance(r, bm.SimulationDiagnostic):
                return
            o = results[key]
            ck.check_dominance(o.mean, o.stderr, r.mean, r.stderr)

        wealth_ops += [
            Op(f"wealth/optimal/p{p:g}", "wealth", run_opt, check_opt),
            Op(f"wealth/merton/p{p:g}", "wealth", _alternative(
                exp_model, cfg, bm.ExpectedUtility(bm.merton_strategy(exp_model, p), p)),
               check_alt),
            Op(f"wealth/myopic/p{p:g}", "wealth", _alternative(
                exp_model, cfg, bm.ExpectedUtility(bm.myopic_only_strategy(sol), p)),
               check_alt),
            Op(f"wealth/budget_q/p{p:g}", "wealth",
               _estimate(exp_model, cfg, bm.BudgetUnderQ(sol)),
               lambda r, x=sol.preference.x: ck.check_budget(r.mean, r.stderr, x)),
        ]
    # fixed order: optimal before its alternatives, price estimates spread
    # between the wealth estimates
    ordered = []
    for i, op in enumerate(wealth_ops):
        if i % 2 == 0:
            ordered.append(price_ops[i // 2])
        ordered.append(op)

    # warm-up: every estimand and law once at a reduced size
    warm = [_estimate(model, bm.SimConfig(n_paths=max(n // 50, 2), seed=seed),
                      bm.TerminalPrice()) for _, model, n, _ in prices]
    wcfg = bm.SimConfig(n_paths=400, n_steps=n_steps, seed=seed)
    sol = sols[4.0]
    warm += [_estimate(exp_model, wcfg, bm.ExpectedUtility(strat, 4.0))
             for strat in (bm.optimal_strategy(sol), bm.myopic_only_strategy(sol))]
    warm.append(_estimate(exp_model, wcfg, bm.BudgetUnderQ(sol)))
    # the estimators stream large arrays; their wall time did not follow the
    # compute-bound yardstick (scaling widened the run-to-run spread from
    # 8 % to 18 %), so this workload reports wall time for its operations
    return Workload("mc_verify", ordered, warm, host_normalised=False)


# -- cli_calls -------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BUBBLEMKT_SEED", None)
    return env


def _cli_call(root: Path, env: dict, args: list[str], workdir: Path, idle):
    """One CLI call; ``idle`` runs repeatedly while the call is under way (the
    worker samples its host-speed yardstick there)."""
    cmd = [sys.executable, "-m", "bubblemkt.cli", *args]

    def run():
        out_path, err_path = workdir / "call.out", workdir / "call.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
            try:
                while proc.poll() is None:
                    idle()
                    time.sleep(0.02)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return subprocess.CompletedProcess(cmd, proc.returncode, out_path.read_text(),
                                           err_path.read_text())

    return run


def cli_calls(seed: int, root: Path, workdir: Path, idle) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    env = cli_env(root)
    alphas = [0.1, 0.2, 0.4, 0.8]
    mus = [0.05, 0.1, 0.2]
    eu_seed, price_seed, price_paths, sweep_paths = seed + 1, seed, 100_000, 20_000
    scenarios = {
        "base": {},
        "sim_eu": {"sim": {"n_paths": 2000, "n_steps": 256, "seed": eu_seed,
                           "estimand": "expected_utility", "strategy": "optimal"}},
        "sweep_welfare": {"sweep": {"parameter": "excess.params.alpha", "values": alphas,
                                    "command": "welfare"}},
        "sweep_simulate": {"sim": {"n_paths": sweep_paths},
                           "sweep": {"parameter": "market.mu", "values": mus,
                                     "command": "simulate"}},
    }
    paths = {}
    for key, body in scenarios.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(json.dumps(body))

    # in-process references, built here from the library
    model, _ = exp_family(0.1, 0.2, 0.2)
    sol = bm.solve_optimal(model, bm.Preference(4.0))
    report = bm.safe_rates(sol)
    pi_m, pi_h = bm.decompose(sol)
    cls_p = bm.classify_under_P(model)
    cls_q = elmm.classify_under_Q(model, elmm.constant_tilt(0.0))
    price = bm.estimate(model, bm.SimConfig(n_paths=price_paths, seed=price_seed),
                        bm.TerminalPrice())
    eu = bm.estimate(model, bm.SimConfig(n_paths=2000, n_steps=256, seed=eu_seed),
                     bm.ExpectedUtility(bm.optimal_strategy(sol), 4.0, 1.0))
    sweep_reports = [bm.safe_rates(bm.solve_optimal(exp_family(0.1, 0.2, a)[0],
                                                    bm.Preference(4.0))) for a in alphas]
    sweep_prices = [bm.estimate(exp_family(m, 0.2, 0.2)[0],
                                bm.SimConfig(n_paths=sweep_paths, seed=5 + i),
                                bm.TerminalPrice()) for i, m in enumerate(mus)]

    def rep_values(r):
        return [r.certainty_equivalent, r.esr, r.esr_benchmark, r.relative_loss]

    welfare_header = ["p", "mu", "sigma", "profile", "CE", "ESR", "ESR_BS", "rESRL"]
    sim_header = ["estimand", "mean", "stderr", "n_paths", "seed", "runtime_ms"]

    def ok_blocks(proc, n_blocks):
        ck.check_exit_ok(proc.returncode, proc.stderr)
        blocks = ck.parse_blocks(proc.stdout)
        ck.require(len(blocks) == n_blocks, f"{len(blocks)} CSV blocks, expected {n_blocks}")
        return blocks

    def classify_check(ref):
        def check(proc):
            (block,) = ok_blocks(proc, 1)
            ck.check_csv_shape(block, ["verdict", "atom", "defect", "limsup_delta", "detail"], 1)
            row = block[2][0]
            ck.require(row[0] == ref.verdict.value, f"verdict {row[0]!r}")
            ck.check_bitwise(row[1:4], [ref.atom, ref.defect, ref.limsup_delta], "classify")
        return check

    def solve_check(proc):
        (block,) = ok_blocks(proc, 1)
        ck.check_csv_shape(block, ["t", "y_hat", "y_star_lower", "y_star_upper", "pi_hat",
                                   "residual"], len(sol.grid))
        cols = np.array(block[2]).T
        ck.check_bitwise(cols[0], sol.grid, "solve t")
        ck.check_bitwise(cols[1], sol.tilt.values, "solve y_hat")
        ck.check_bitwise(cols[2], sol.lower.values, "solve lower")
        ck.check_bitwise(cols[3], sol.upper.values, "solve upper")
        ck.check_bitwise(cols[5], sol.residuals, "solve residual")

    def decompose_check(proc):
        (block,) = ok_blocks(proc, 1)
        ck.check_csv_shape(block, ["t", "pi_m", "pi_h"], len(sol.grid))
        cols = np.array(block[2]).T
        ck.check_bitwise(cols[1], pi_m.values, "decompose pi_m")
        ck.check_bitwise(cols[2], pi_h.values, "decompose pi_h")

    def welfare_check(proc):
        (block,) = ok_blocks(proc, 1)
        ck.check_csv_shape(block, welfare_header, 1)
        ck.check_bitwise(block[2][0][4:], rep_values(report), "welfare")

    def sim_check(ref, seed_used):
        def check(proc):
            (block,) = ok_blocks(proc, 1)
            ck.check_csv_shape(block, sim_header, 1)
            row = block[2][0]
            ck.require(row[3:5] == [str(ref.n_paths), str(seed_used)], f"paths/seed {row[3:5]}")
            ck.check_bitwise(row[1:3], [ref.mean, ref.stderr], f"simulate {row[0]}")
        return check

    def sweep_welfare_check(proc):
        blocks = ok_blocks(proc, len(alphas))
        for block, r in zip(blocks, sweep_reports):
            ck.check_csv_shape(block, welfare_header, 1)
            ck.check_bitwise(block[2][0][4:], rep_values(r), f"sweep {block[0]}")

    def sweep_simulate_check(proc):
        blocks = ok_blocks(proc, len(mus))
        for block in blocks:
            ck.check_csv_shape(block, sim_header, 1)
        ck.check_sweep_seeds([int(b[2][0][4]) for b in blocks], 5)
        for block, r in zip(blocks, sweep_prices):
            ck.check_bitwise(block[2][0][1:3], [r.mean, r.stderr], f"sweep {block[0]}")

    def bad_paths_check(proc):
        ck.check_error_contract(proc.returncode, proc.stderr, 1)

    base = ["--scenario", str(paths["base"])]
    calls = [
        ("classify", base, classify_check(cls_p)),
        ("solve", base, solve_check),
        ("simulate/price", base + ["--paths", str(price_paths), "--seed", str(price_seed)],
         sim_check(price, price_seed)),
        ("sweep/welfare", ["--scenario", str(paths["sweep_welfare"])], sweep_welfare_check),
        ("classify/under_q", base + ["--under-q"], classify_check(cls_q)),
        ("decompose", base, decompose_check),
        ("simulate/expected_utility", ["--scenario", str(paths["sim_eu"])],
         sim_check(eu, eu_seed)),
        ("sweep/simulate_seed5", ["--scenario", str(paths["sweep_simulate"]), "--seed", "5"],
         sweep_simulate_check),
        ("welfare", base, welfare_check),
        ("simulate/paths-5", base + ["--paths", "-5"], bad_paths_check),
    ]
    ops = []
    for name, args, check in calls:
        command = name.split("/")[0]
        ops.append(Op(name, command, _cli_call(root, env, [command, *args], workdir, idle), check))
    # warm-up: one call fills the page cache and compiles the package's
    # bytecode; every timed call starts a fresh interpreter anyway
    warm = [_cli_call(root, env, ["classify", *base], workdir, idle)]

    def cleanup():
        for p in [*paths.values(), workdir / "call.out", workdir / "call.err"]:
            p.unlink(missing_ok=True)
        try:
            workdir.rmdir()
        except OSError:
            pass

    return Workload("cli_calls", ops, warm, cleanup)


def build(name: str, seed: int, root: Path, workdir: Path, small: bool = False,
          idle=lambda: None) -> Workload:
    if name == "solve_grid":
        return solve_grid(seed, small)
    if name == "mc_verify":
        return mc_verify(seed, small)
    if name == "cli_calls":
        return cli_calls(seed, root, workdir, idle)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve_grid", "mc_verify", "cli_calls")
