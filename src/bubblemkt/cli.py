"""Scenario-driven command line: classify, solve, decompose, welfare,
simulate, and parameter sweeps, all emitting CSV.

Scenario files are JSON with blocks ``market``, ``hazard``, ``excess``,
``preference``, ``grid``, ``sim``, and optionally ``sweep``; unspecified
keys fall back to the baseline scenario (horizon 1, mu 0.1, sigma 0.2,
truncated-exponential crash law, constant excess return, p = 4), and
family parameters to the defaults of their family (rate 1, alpha 0.2).
Numbers are printed with 17 significant digits so binary doubles
round-trip.

Exit codes: 1 parse error, 2 model validation error, 3 solver failure,
4 simulation diagnostic, 5 output error (``--out`` cannot be written, or
standard output was closed early, as by ``| head``).  Errors print one
machine-readable line on standard error:
``ERROR code=<n> kind=<kind> message="..."``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import elmm, hazard as hz, montecarlo as mc, solver as sv, welfare as wf

SEED_ENV_VAR = "BUBBLEMKT_SEED"

_DEFAULTS = {
    "market": {"mu": 0.1, "sigma": 0.2, "horizon": 1.0},
    "hazard": {"family": "exponential_cutoff"},
    "excess": {"family": "constant"},
    "preference": {"p": 4.0, "x": 1.0},
    "grid": {"n": 512},
    "sim": {
        "n_paths": 100_000,
        "seed": 0,
        "estimand": "terminal_price",
        "strategy": "optimal",
    },
}

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_SIMULATION = 4
EXIT_OUTPUT = 5


class ScenarioError(ValueError):
    """Scenario file cannot be interpreted."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a parse error (exit 1), not argparse's exit 2
        raise ScenarioError(message)


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    scenario = _merge(_DEFAULTS, raw)
    for block in _DEFAULTS:
        _object(scenario[block], block)
    return scenario


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be a JSON object, got {value!r}")
    return value


def _number(value, name: str, kind: type = float):
    # JSON true/false are not numbers, and an integer field takes no fraction
    try:
        number = float(value)
        if math.isfinite(number) and not isinstance(value, bool):
            if kind is float or number.is_integer():
                return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ScenarioError(f"{name} must be a finite {kind.__name__}, got {value!r}")


def _numbers(value, name: str) -> list[float]:
    if not isinstance(value, list):
        raise ScenarioError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(value)]


def _param(params: dict, name: str, default: Optional[float] = None) -> float:
    """The number at scenario path ``name`` (its last key indexes
    ``params``), or ``default`` when absent; without a default it is
    required."""
    key = name.rsplit(".", 1)[1]
    if key not in params and default is None:
        raise ScenarioError(f"{name} is required")
    return _number(params.get(key, default), name)


def _build_hazard(spec: dict, horizon: float) -> hz.CrashHazard:
    name = spec.get("family")
    params = _object(spec.get("params", {}), "hazard.params")
    if name == "exponential_cutoff":
        return hz.ExponentialCutoffHazard(_param(params, "hazard.params.rate", 1.0), horizon)
    if name == "uniform":
        return hz.UniformHazard(horizon=horizon)
    if name == "lppl":
        return hz.LPPLHazard(
            b=_param(params, "hazard.params.b"),
            c=_param(params, "hazard.params.c", 0.0),
            power=_param(params, "hazard.params.power"),
            omega=_param(params, "hazard.params.omega", 0.0),
            phase=_param(params, "hazard.params.phase", 0.0),
            horizon=horizon,
        )
    if name == "tabulated":
        return hz.TabulatedHazard(
            _numbers(params.get("times"), "hazard.params.times"),
            _numbers(params.get("cdf"), "hazard.params.cdf"),
        )
    raise ScenarioError(f"unknown hazard family {name!r}")


def _build_excess(spec: dict, law: hz.CrashHazard) -> hz.ExcessReturn:
    name = spec.get("family")
    params = _object(spec.get("params", {}), "excess.params")
    if name == "zero":
        return hz.ZeroExcess()
    if name == "constant":
        return hz.ConstantExcess(_param(params, "excess.params.alpha", 0.2))
    if name == "linear_ramp":
        return hz.LinearRampExcess(_param(params, "excess.params.slope", 0.2))
    if name == "constant_jump_size":
        return hz.ConstantJumpSizeExcess(law, _param(params, "excess.params.delta0"))
    if name == "jls_relaxed":
        delta = _object(params.get("delta", {}), "excess.params.delta")
        kind = delta.get("kind")
        if kind == "linear":
            return hz.linear_delta_excess(law, _param(delta, "excess.params.delta.slope"))
        if kind == "constant":
            return hz.ConstantJumpSizeExcess(law, _param(delta, "excess.params.delta.value"))
        raise ScenarioError(f"unknown relative-jump-size kind {kind!r}")
    raise ScenarioError(f"unknown excess family {name!r}")


def build_model(scenario: dict) -> hz.MarketModel:
    market = scenario["market"]
    law = _build_hazard(
        _object(scenario["hazard"], "hazard"), _number(market["horizon"], "market.horizon")
    )
    excess = _build_excess(_object(scenario["excess"], "excess"), law)
    return hz.MarketModel(
        mu=_number(market["mu"], "market.mu"),
        sigma=_number(market["sigma"], "market.sigma"),
        hazard=law,
        excess=excess,
    )


def build_preference(scenario: dict) -> sv.Preference:
    pref = scenario["preference"]
    return sv.Preference(
        p=_number(pref["p"], "preference.p"), x=_number(pref["x"], "preference.x")
    )


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


def _emit(rows: list[list], header: list[str], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _profile_id(scenario: dict, excess: hz.ExcessReturn) -> str:
    name = scenario["excess"]["family"]
    if name == "constant":
        return _fmt(excess.alpha)
    params = scenario["excess"].get("params", {})
    detail = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}({detail})"


def _run_classify(scenario: dict, args, out) -> int:
    model = build_model(scenario)
    if args.under_q:
        result = elmm.classify_under_Q(model, elmm.constant_tilt(0.0))
    else:
        result = hz.classify_under_P(model)
    _emit(
        [[
            result.verdict.value,
            result.atom,
            result.defect,
            result.limsup_delta,
            result.detail,
        ]],
        ["verdict", "atom", "defect", "limsup_delta", "detail"],
        out,
    )
    return 0


def _solve(scenario: dict, args, model: Optional[hz.MarketModel] = None) -> sv.Solution:
    model = model or build_model(scenario)
    prefs = build_preference(scenario)
    n_grid = args.grid if args.grid is not None else scenario["grid"]["n"]
    n_grid = _number(n_grid, "grid.n", int)
    if n_grid < 4:
        raise ScenarioError(f"solver grid needs at least 4 points, got {n_grid}")
    kwargs = {"n_grid": n_grid}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    return sv.solve_optimal(model, prefs, **kwargs)


def _run_solve(scenario: dict, args, out) -> int:
    sol = _solve(scenario, args)
    pi = sv.optimal_fraction(sol, sol.grid)
    rows = [
        [t, yv, lo, hi, p, r]
        for t, yv, lo, hi, p, r in zip(
            sol.grid,
            sol.tilt.values,
            sol.lower.values,
            sol.upper.values,
            pi,
            sol.residuals,
        )
    ]
    _emit(rows, ["t", "y_hat", "y_star_lower", "y_star_upper", "pi_hat", "residual"], out)
    return 0


def _run_decompose(scenario: dict, args, out) -> int:
    sol = _solve(scenario, args)
    pi_m, pi_h = sv.decompose(sol)
    rows = [[t, m, h] for t, m, h in zip(sol.grid, pi_m.values, pi_h.values)]
    _emit(rows, ["t", "pi_m", "pi_h"], out)
    return 0


def _run_welfare(scenario: dict, args, out) -> int:
    sol = _solve(scenario, args)
    report = wf.safe_rates(sol)
    _emit(
        [[
            sol.preference.p,
            sol.model.mu,
            sol.model.sigma,
            _profile_id(scenario, sol.model.excess),
            report.certainty_equivalent,
            report.esr,
            report.esr_benchmark,
            report.relative_loss,
        ]],
        ["p", "mu", "sigma", "profile", "CE", "ESR", "ESR_BS", "rESRL"],
        out,
    )
    return 0


def _run_simulate(scenario: dict, args, out) -> int:
    model = build_model(scenario)
    sim = scenario["sim"]
    n_paths = args.paths if args.paths is not None else sim["n_paths"]
    n_paths = _number(n_paths, "sim.n_paths", int)
    seed = _number(sim["seed"], "sim.seed", int)
    try:
        cfg = mc.SimConfig(n_paths=n_paths, seed=seed)
    except ValueError as exc:
        raise ScenarioError(f"bad simulation settings: {exc}") from exc
    estimand_name = sim["estimand"]
    if estimand_name == "terminal_price":
        estimand = mc.TerminalPrice()
    elif estimand_name == "expected_utility":
        sol = _solve(scenario, args, model)
        choice = sim["strategy"]
        strategies = {
            "optimal": mc.optimal_strategy(sol),
            "merton": mc.merton_strategy(model, sol.preference.p),
            "myopic": mc.myopic_only_strategy(sol),
        }
        if choice not in strategies:
            raise ScenarioError(f"unknown strategy {choice!r}")
        estimand = mc.ExpectedUtility(
            strategies[choice], sol.preference.p, sol.preference.x
        )
    elif estimand_name == "budget_under_q":
        estimand = mc.BudgetUnderQ(_solve(scenario, args, model))
    else:
        raise ScenarioError(f"unknown estimand {estimand_name!r}")
    r = mc.estimate(model, cfg, estimand)
    _emit(
        [[r.estimand, r.mean, r.stderr, r.n_paths, r.seed, r.diagnostics["runtime_ms"]]],
        ["estimand", "mean", "stderr", "n_paths", "seed", "runtime_ms"],
        out,
    )
    return 0


def _set_path(scenario: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = scenario
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


_COMMANDS = {
    "classify": _run_classify,
    "solve": _run_solve,
    "decompose": _run_decompose,
    "welfare": _run_welfare,
    "simulate": _run_simulate,
}


def _run_sweep(scenario: dict, args, out) -> int:
    sweep = _object(scenario.get("sweep"), "sweep")
    parameter, values = sweep.get("parameter"), sweep.get("values")
    if not isinstance(parameter, str) or not isinstance(values, list):
        raise ScenarioError("sweep needs a 'parameter' string and a 'values' list")
    inner = sweep.get("command", "welfare")
    if inner not in _COMMANDS:
        raise ScenarioError(f"sweep cannot wrap command {inner!r}")
    base_seed = _number(scenario["sim"]["seed"], "sim.seed", int)
    status = 0
    for index, value in enumerate(sweep["values"]):
        point = copy.deepcopy(scenario)
        _set_path(point, sweep["parameter"], value)
        point["sim"]["seed"] = base_seed + index
        out.write(f"# {sweep['parameter']} = {_fmt(value)}\n")
        status = max(status, _COMMANDS[inner](point, args, out))
    return status


def _error(kind: str, code: int, message: str) -> int:
    msg = str(message).replace('"', "'")
    print(f'ERROR code={code} kind={kind} message="{msg}"', file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="bubblemkt",
        description="Bubble-market scenarios: classification, optimal "
        "investment, welfare, and Monte Carlo checks.",
    )
    parser.add_argument(
        "command",
        choices=["classify", "solve", "decompose", "welfare", "simulate", "sweep"],
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", help="write CSV here instead of stdout")
    parser.add_argument("--grid", type=int, help="solver grid size override")
    parser.add_argument("--paths", type=int, help="Monte Carlo path count override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--under-q", action="store_true", help="classify under the tilted measure"
    )
    parser.add_argument(
        "--tol",
        help="integral-equation residual tolerance override (> 0); a solved curve "
        "meets it, and one the solve cannot reach (below about 1e-15) exits 3",
    )
    try:
        args = parser.parse_args(argv)
        if args.seed is None and SEED_ENV_VAR in os.environ:
            args.seed = _number(os.environ[SEED_ENV_VAR], SEED_ENV_VAR, int)
        if args.tol is not None:
            args.tol = _number(args.tol, "--tol")
            if args.tol <= 0.0:
                raise ScenarioError(f"--tol must be positive, got {args.tol!r}")
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _error("parse", EXIT_PARSE, exc)
    if args.seed is not None:
        scenario["sim"]["seed"] = args.seed

    runner = _run_sweep if args.command == "sweep" else _COMMANDS[args.command]

    # buffered, so a failing command leaves no partial output
    buf = io.StringIO()
    try:
        status = runner(scenario, args, buf)
    except ScenarioError as exc:
        return _error("parse", EXIT_PARSE, exc)
    except (KeyError, TypeError) as exc:
        return _error("parse", EXIT_PARSE, f"scenario field problem: {exc!r}")
    except (hz.ModelError, elmm.RejectedTiltError) as exc:
        return _error("validation", EXIT_VALIDATION, exc)
    except (sv.SolverError, hz.DomainError) as exc:
        return _error("solver", EXIT_SOLVER, exc)
    except mc.SimulationDiagnostic as exc:
        return _error("simulation", EXIT_SIMULATION, exc)

    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        else:
            # line by line: on an unbuffered stdout, one long write that a
            # closing pipe cuts short drops its tail without an error
            sys.stdout.writelines(buf.getvalue().splitlines(keepends=True))
            sys.stdout.flush()
    except OSError as exc:  # --out cannot be written, or stdout was closed
        if not args.out:
            # the exit-time flush of the unwritable stdout would raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error("output", EXIT_OUTPUT, exc)
    return status


if __name__ == "__main__":
    sys.exit(main())
