import contextlib
import copy
import csv
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblemkt import (
    BudgetUnderQ,
    SimConfig,
    estimate,
    solve_optimal,
    welfare_from_curve,
)
from bubblemkt.cli import build_model, build_preference, load_scenario, main

EX37 = {
    "market": {"mu": 0.0, "sigma": 0.2, "horizon": 1.0},
    "hazard": {"family": "uniform"},
    "excess": {"family": "jls_relaxed", "params": {"delta": {"kind": "linear", "slope": 1.0}}},
}

ZERO_PROFILE = {"excess": {"family": "zero", "params": {}}}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


class TestClassify:
    def test_strict_local_verdict(self, tmp_path, capsys):
        path = write_scenario(tmp_path, EX37)
        code, out, err = run_cli(["classify", "--scenario", path], capsys)
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert rows[0]["verdict"] == "StrictLocalMartingale"

    def test_under_q(self, tmp_path, capsys):
        path = write_scenario(tmp_path, EX37)
        code, out, _ = run_cli(["classify", "--scenario", path, "--under-q"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["verdict"] == "StrictLocalMartingale"


class TestSolve:
    def test_zero_profile_constant_merton(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ZERO_PROFILE)
        code, out, _ = run_cli(["solve", "--scenario", path, "--grid", "32"], capsys)
        assert code == 0
        rows = parse_csv(out)
        merton = 0.1 / (4.0 * 0.2**2)
        pis = {float(r["pi_hat"]) for r in rows}
        assert pis == {merton}

    def test_seventeen_digit_round_trip(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {})
        code, out, _ = run_cli(["solve", "--scenario", path, "--grid", "32"], capsys)
        assert code == 0
        rows = parse_csv(out)
        scenario = load_scenario(path)
        sol = solve_optimal(build_model(scenario), build_preference(scenario), n_grid=32)
        assert float(rows[0]["y_hat"]) == sol.tilt.values[0]  # lossless

    def test_loose_tol_is_met(self, tmp_path, capsys):
        # a returned curve meets --tol, however loose
        path = write_scenario(tmp_path, {})
        code, out, err = run_cli(["solve", "--scenario", path, "--tol", "1e-4"], capsys)
        assert code == 0 and err == ""
        assert all(float(r["residual"]) <= 1e-4 for r in parse_csv(out))

    def test_unreachable_tol_exits_3(self, tmp_path, capsys):
        # no float residual profile meets 1e-300; 1e-16 lies near the rounding floor
        path = write_scenario(tmp_path, {})
        code, out, err = run_cli(["solve", "--scenario", path, "--tol", "1e-300"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("ERROR code=3 kind=solver message=\"integral-equation residual ")

    @pytest.mark.parametrize("command", ["solve", "welfare"])
    def test_overflowing_growth_bound_exits_3(self, tmp_path, capsys, command):
        # p = 0.01 puts exp(rate T) past the largest float
        path = write_scenario(tmp_path, {"preference": {"p": 0.01}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command, "--scenario", path], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert err.startswith('ERROR code=3 kind=solver message="growth bound exp(rate (T - t)) overflows')


class TestWelfareRoundTrip:
    @pytest.mark.parametrize("p", [1.0, 4.0])
    def test_solve_output_reproduces_welfare(self, tmp_path, capsys, p):
        scenario_dict = {"preference": {"p": p}}
        path = write_scenario(tmp_path, scenario_dict)
        code, solve_out, _ = run_cli(["solve", "--scenario", path], capsys)
        assert code == 0
        rows = parse_csv(solve_out)
        grid = np.array([float(r["t"]) for r in rows])
        y = np.array([float(r["y_hat"]) for r in rows])

        code, welfare_out, _ = run_cli(["welfare", "--scenario", path], capsys)
        assert code == 0
        reported = parse_csv(welfare_out)[0]

        scenario = load_scenario(path)
        rebuilt = welfare_from_curve(
            build_model(scenario), build_preference(scenario), grid, y
        )
        assert rebuilt.certainty_equivalent == pytest.approx(
            float(reported["CE"]), rel=1e-6
        )
        assert rebuilt.relative_loss == pytest.approx(
            float(reported["rESRL"]), rel=1e-6
        )


def test_profile_names_only_given_parameters(tmp_path, capsys):
    # one family's default parameters must not leak into another's
    path = write_scenario(tmp_path, {
        "hazard": {"family": "uniform"},
        "excess": {"family": "linear_ramp", "params": {"slope": 0.3}},
    })
    code, out, _ = run_cli(["welfare", "--scenario", path, "--grid", "32"], capsys)
    assert code == 0
    assert parse_csv(out)[0]["profile"] == "linear_ramp(slope=0.3)"


_EXCESS_FAMILIES = {
    "zero": {"family": "zero"},
    "constant": {"family": "constant", "params": {"alpha": 0.2}},
    "linear_ramp": {"family": "linear_ramp", "params": {"slope": 0.3}},
    "constant_jump_size": {"family": "constant_jump_size", "params": {"delta0": 0.3}},
    "jls_relaxed-linear": {
        "family": "jls_relaxed", "params": {"delta": {"kind": "linear", "slope": 0.5}}},
    "jls_relaxed-constant": {
        "family": "jls_relaxed", "params": {"delta": {"kind": "constant", "value": 0.3}}},
}


@pytest.mark.parametrize("excess", _EXCESS_FAMILIES.values(), ids=_EXCESS_FAMILIES.keys())
def test_rows_read_back_at_header_width(tmp_path, capsys, excess):
    path = write_scenario(tmp_path, {
        "hazard": {"family": "uniform"},
        "excess": excess,
        "grid": {"n": 32},
        "sim": {"n_paths": 200, "seed": 1, "estimand": "terminal_price"},
        "sweep": {"parameter": "preference.p", "values": [2.0, 4.0], "command": "welfare"},
    })
    for command in ("classify", "solve", "decompose", "welfare", "simulate", "sweep"):
        code, out, err = run_cli([command, "--scenario", path], capsys)
        assert code == 0, err
        # a sweep writes one CSV block after each "# parameter = value" line
        blocks = [b for b in re.split(r"^#.*\n", out, flags=re.M) if b]
        assert len(blocks) == (2 if command == "sweep" else 1)
        for block in blocks:
            header, *rows = csv.reader(io.StringIO(block))
            assert rows and all(len(row) == len(header) for row in rows), (command, block)


class TestSimulate:
    def test_estimator_row(self, tmp_path, capsys):
        payload = dict(EX37)
        payload["sim"] = {"n_paths": 20_000, "seed": 3, "estimand": "terminal_price"}
        path = write_scenario(tmp_path, payload)
        code, out, _ = run_cli(["simulate", "--scenario", path], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["estimand"] == "E_ST"
        assert int(row["n_paths"]) == 20_000
        assert abs(float(row["mean"]) - (1 - np.exp(-1))) < 5 * float(row["stderr"])

    def test_budget_under_q(self, tmp_path, capsys):
        # E^Q[X_T] of the optimal wealth is the initial capital x
        payload = {
            "preference": {"x": 2.0},
            "sim": {"n_paths": 20_000, "seed": 3, "estimand": "budget_under_q"},
        }
        path = write_scenario(tmp_path, payload)
        code, out, err = run_cli(["simulate", "--scenario", path], capsys)
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["estimand"] == "EQ_XT" and int(row["n_paths"]) == 20_000
        mean, stderr = float(row["mean"]), float(row["stderr"])
        assert abs(mean - 2.0) < 3.0 * stderr

        scenario = load_scenario(path)
        model = build_model(scenario)
        sol = solve_optimal(model, build_preference(scenario), n_grid=scenario["grid"]["n"])
        ref = estimate(model, SimConfig(n_paths=20_000, seed=3), BudgetUnderQ(sol))
        assert (mean, stderr) == (ref.mean, ref.stderr)  # 17 digits round-trip

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        payload = dict(EX37)
        payload["sim"] = {"n_paths": 10_000, "seed": 3, "estimand": "terminal_price"}
        path = write_scenario(tmp_path, payload)
        monkeypatch.setenv("BUBBLEMKT_SEED", "77")
        code, out, _ = run_cli(["simulate", "--scenario", path], capsys)
        assert code == 0
        assert int(parse_csv(out)[0]["seed"]) == 77

    @pytest.mark.parametrize("value", ["1.5", "x", "true"])
    def test_bad_seed_env_is_a_parse_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("BUBBLEMKT_SEED", value)
        code, out, err = run_cli(["simulate", "--scenario", write_scenario(tmp_path, EX37)], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=1 kind=parse")


class TestSweep:
    def _sweep_scenario(self, values):
        return {
            "grid": {"n": 64},
            "sweep": {
                "parameter": "excess.params.alpha",
                "values": values,
                "command": "decompose",
            },
        }

    def test_blocks_in_input_order_with_signs(self, tmp_path, capsys):
        values = [0.1, 0.2, 0.4, 0.8]
        path = write_scenario(tmp_path, self._sweep_scenario(values))
        code, out, _ = run_cli(["sweep", "--scenario", path], capsys)
        assert code == 0
        blocks = [b for b in out.split("# ") if b.strip()]
        assert len(blocks) == 4
        for value, block in zip(values, blocks):
            header, body = block.split("\n", 1)
            assert header.startswith("excess.params.alpha")
            assert float(header.split("=")[1]) == value
            rows = parse_csv(body)
            assert all(float(r["pi_h"]) >= -1e-12 for r in rows)

    def test_permuting_values_permutes_blocks(self, tmp_path, capsys):
        fwd = write_scenario(tmp_path, self._sweep_scenario([0.1, 0.4]), "fwd.json")
        rev = write_scenario(tmp_path, self._sweep_scenario([0.4, 0.1]), "rev.json")
        _, out_fwd, _ = run_cli(["sweep", "--scenario", fwd], capsys)
        _, out_rev, _ = run_cli(["sweep", "--scenario", rev], capsys)
        blocks_fwd = [b for b in out_fwd.split("# ") if b.strip()]
        blocks_rev = [b for b in out_rev.split("# ") if b.strip()]
        assert blocks_fwd == blocks_rev[::-1]

    def test_seed_override_offsets_each_point(self, tmp_path, capsys):
        payload = dict(EX37)
        payload["sim"] = {"n_paths": 1000, "estimand": "terminal_price"}
        payload["sweep"] = {
            "parameter": "market.sigma",
            "values": [0.1, 0.2, 0.3],
            "command": "simulate",
        }
        path = write_scenario(tmp_path, payload)
        code, out, _ = run_cli(["sweep", "--scenario", path, "--seed", "5"], capsys)
        assert code == 0
        blocks = [b for b in out.split("# ") if b.strip()]
        seeds = [int(parse_csv(b.split("\n", 1)[1])[0]["seed"]) for b in blocks]
        assert seeds == [5, 6, 7]


class TestErrorPaths:
    @pytest.mark.parametrize(
        "command, flags, payload",
        [
            ("simulate", ["--paths", "0"], {}),
            ("simulate", ["--paths", "-5"], {}),
            ("solve", ["--grid", "0"], {}),
            ("solve", ["--grid", "3"], {}),
            ("simulate", [], {"sim": {"n_paths": 0}}),
            ("simulate", [], {"sim": {"n_paths": -5}}),
            ("simulate", [], {"sim": {"n_paths": None}}),
            ("solve", [], {"grid": {"n": 0}}),
            ("solve", [], {"grid": {"n": 3}}),
            ("solve", [], {"grid": {"n": "abc"}}),
            ("sweep", [], {"sim": {"seed": "x"}, "sweep": {
                "command": "simulate", "parameter": "market.mu", "values": [0.1]}}),
            ("classify", [], {"excess": {"family": "constant", "params": {"alpha": "x"}}}),
            ("classify", [], {"market": None}),
            ("classify", [], {"hazard": "x"}),
            ("classify", [], {"hazard": {"family": "tabulated", "params": {
                "times": ["a", 1, 2], "cdf": [0.0, 0.2, 0.4]}}}),
            ("classify", [], {"market": {"horizon": "nan"}}),
            ("classify", [], {"excess": {"family": "constant", "params": {"alpha": "inf"}}}),
            ("classify", [], {"market": {"sigma": float("-inf")}}),
            ("solve", [], {"grid": {"n": float("inf")}}),
            ("simulate", [], {"sim": {"seed": float("nan")}}),
            ("solve", ["--tol", "nan"], {}),
            ("solve", ["--tol", "-1"], {}),
            ("solve", ["--tol", "0"], {}),
            ("simulate", [], {"sim": {"n_paths": 2.7}}),
            ("simulate", [], {"sim": {"seed": 1.9}}),
            ("solve", [], {"grid": {"n": 64.9}}),
            ("simulate", [], {"sim": {"n_paths": True}}),
            ("simulate", [], {"sim": {"seed": True}}),
            ("solve", [], {"grid": {"n": True}}),
            ("sweep", [], {"sim": {"seed": 1.5}, "sweep": {
                "command": "classify", "parameter": "market.mu", "values": [0.1]}}),
            ("classify", [], {"market": {"mu": True}}),
            ("simulate", ["--paths", "2.7"], {}),
            ("solve", ["--grid", "64.9"], {}),
            ("simulate", ["--seed", "1.9"], {}),
            ("classify", ["--bogus"], {}),
        ],
        ids=["paths0", "paths-5", "grid0", "grid3",
             "sim.n_paths0", "sim.n_paths-5", "sim.n_paths-null",
             "grid.n0", "grid.n3", "grid.n-abc", "sweep-sim.seed-x",
             "excess.alpha-x", "market-null", "hazard-string", "tabulated.times-a",
             "market.horizon-nan", "excess.alpha-inf", "market.sigma-neg-inf",
             "grid.n-inf", "sim.seed-nan", "tol-nan", "tol-neg", "tol0",
             "sim.n_paths-2.7", "sim.seed-1.9", "grid.n-64.9", "sim.n_paths-true",
             "sim.seed-true", "grid.n-true", "sweep-sim.seed-1.5", "market.mu-true",
             "paths-2.7", "grid-64.9", "seed-1.9", "unknown-flag"],
    )
    def test_bad_counts(self, tmp_path, capsys, command, flags, payload):
        path = write_scenario(tmp_path, payload)
        code, out, err = run_cli([command, "--scenario", path, *flags], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=1 kind=parse")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["classify", "--scenario", str(tmp_path / "nope.json")], capsys)
        assert code == 1
        assert "ERROR code=1 kind=parse" in err

    def test_validation_failure(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, {"excess": {"family": "constant", "params": {"alpha": 1.5}}}
        )
        target = tmp_path / "out.csv"
        code, _, err = run_cli(["solve", "--scenario", path, "--out", str(target)], capsys)
        assert code == 2
        assert "kind=validation" in err
        assert not target.exists()  # a failed command writes no output file

    @pytest.mark.parametrize("flags", [[], ["--under-q"]], ids=["P", "Q"])
    def test_classify_validation_failure(self, tmp_path, capsys, flags):
        # phi' = 1.5 exceeds the rate-1 hazard: no verdict, one error line
        path = write_scenario(tmp_path, {"market": {"mu": 0.0}, "excess": {"params": {"alpha": 1.5}}})
        code, out, err = run_cli(["classify", "--scenario", path, *flags], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=2 kind=validation")
        assert "phi' = 1.5 exceeds kappa = 1.0" in lines[0]

    def test_solver_precondition(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"market": {"mu": 0.0}})
        code, _, err = run_cli(["solve", "--scenario", path], capsys)
        assert code == 3
        assert "kind=solver" in err

    def test_simulation_diagnostic(self, tmp_path, capsys):
        # leveraged fixed strategy on a certain-crash model goes bankrupt
        payload = dict(EX37)
        payload["market"] = {"mu": 0.1, "sigma": 0.2, "horizon": 1.0}
        payload["preference"] = {"p": 0.5}
        payload["sim"] = {
            "n_paths": 4000,
            "n_steps": 64,
            "seed": 2,
            "estimand": "expected_utility",
            "strategy": "merton",
        }
        path = write_scenario(tmp_path, payload)
        code, _, err = run_cli(["simulate", "--scenario", path], capsys)
        assert code == 4
        assert "kind=simulation" in err

    def test_missing_out_directory(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {})
        target = str(tmp_path / "missing" / "out.csv")
        code, out, err = run_cli(["classify", "--scenario", path, "--out", target], capsys)
        assert code == 5 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR code=5 kind=output")

    def test_unknown_family(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"hazard": {"family": "cauchy"}})
        code, _, err = run_cli(["classify", "--scenario", path], capsys)
        assert code == 1


_HAZARD_PARAMS = {
    "exponential_cutoff": {"rate": 1.0},
    "uniform": {},
    "lppl": {"b": 1.2, "c": 0.3, "power": 0.4, "omega": 6.0, "phase": 0.5},
    "tabulated": {"times": [0.0, 0.5, 1.0], "cdf": [0.0, 0.3, 0.5]},
    "cauchy": {},
}
_EXCESS_PARAMS = {
    "zero": {},
    "constant": {"alpha": 0.2},
    "linear_ramp": {"slope": 0.2},
    "constant_jump_size": {"delta0": 0.3},
    "jls_relaxed": {"delta": {"kind": "linear", "slope": 0.5}},
    "student": {},
}
_WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
    # numeric extremes, as JSON numbers and as strings
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e308, -1e308]),
    st.floats(max_value=-1e-300, allow_infinity=False, allow_nan=False),
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e308"]),
)


def _non_finite(value) -> bool:
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    else:
        yield node


def _field_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@st.composite
def _malformed_scenarios(draw):
    hazard = draw(st.sampled_from(sorted(_HAZARD_PARAMS)))
    excess = draw(st.sampled_from(sorted(_EXCESS_PARAMS)))
    scenario = {
        "market": {"mu": draw(st.sampled_from([0.0, 0.1])), "sigma": 0.2, "horizon": 1.0},
        "hazard": {"family": hazard, "params": copy.deepcopy(_HAZARD_PARAMS[hazard])},
        "excess": {"family": excess, "params": copy.deepcopy(_EXCESS_PARAMS[excess])},
        "preference": {"p": 4.0, "x": 1.0},
        "grid": {"n": 64},
        "sim": {"n_paths": 100, "seed": 0},
    }
    paths = list(_field_paths(scenario))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        node = scenario
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict) or path[-1] not in node:
            continue  # an earlier edit replaced or removed a parent
        if draw(st.booleans()):
            del node[path[-1]]  # missing field, e.g. a required parameter
        else:
            node[path[-1]] = draw(_WRONG_TYPES)
    return scenario


@settings(max_examples=300)
@given(scenario=_malformed_scenarios(), under_q=st.booleans())
def test_classify_contract_on_malformed_scenarios(tmp_path_factory, scenario, under_q):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = ["classify", "--scenario", str(path)] + (["--under-q"] if under_q else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("ERROR code=")]
    assert len(errors) == (0 if code == 0 else 1)
    if code:
        assert errors[0].startswith(f"ERROR code={code} ")
    # classify reads every field of these blocks, so a non-finite one must fail
    read = {block: scenario.get(block) for block in ("market", "hazard", "excess")}
    if any(_non_finite(v) for v in _leaves(read)):
        assert code != 0


LPPL_04 = {"family": "lppl", "params": {"b": 1.2, "c": 0.3, "power": 0.4, "omega": 6.0, "phase": 0.5}}
TABULATED_9 = {"family": "tabulated", "params": {
    "times": [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
    "cdf": [0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.68, 0.8]}}
JUMP_03 = {"family": "constant_jump_size", "params": {"delta0": 0.3}}
LPPL_JLS = {"hazard": LPPL_04, "excess": JUMP_03}
TABULATED_JLS = {"hazard": TABULATED_9, "excess": JUMP_03}
UNIFORM_RELAXED = {"hazard": {"family": "uniform"}, "excess": {
    "family": "jls_relaxed", "params": {"delta": {"kind": "linear", "slope": 0.9}}}}
DRIFTLESS = {"market": {"mu": 0.0}}


def _at(p, scenario=None, **blocks):
    return {**(scenario or {}), "preference": {"p": p}, **blocks}


def _verdict(name):
    return lambda out: parse_csv(out)[0]["verdict"] == name


def _first_block_repeats(out):
    blocks = re.split(r"(?m)^# .*\n", out)[1:]
    return len(blocks) == 3 and blocks[0] == blocks[2]


# One row per command-line call: command, scenario, flags, exit code and, if
# any, a predicate on stdout.  Calls that another test already asserts (a
# loose --tol, a log-utility welfare call, the strict-local classify under P
# and Q, a solve piped into head, a solve at p = 0.01) are not repeated here.
CONTRACT = [
    pytest.param("classify", {}, [], 0, None, id="classify-default"),
    pytest.param("classify", {}, ["--under-q"], 0, _verdict("TrueMartingale"),
                 id="classify-default-Q"),
    # on the LPPL 0.4 law the atom-law certificate inverts H by Newton
    pytest.param("classify", {**DRIFTLESS, **LPPL_JLS}, ["--under-q"], 0,
                 _verdict("TrueMartingale"), id="classify-lppl0.4-Q"),
    # on the 9-knot law the zero tilt's square certificate reads an integrand
    # that is exactly 0, which must converge with no floor
    pytest.param("classify", {**DRIFTLESS, **TABULATED_JLS}, ["--under-q"], 0,
                 _verdict("TrueMartingale"), id="classify-tabulated9-Q"),
    # 200,000 paths, not 20,000: at seed 0 they draw two LPPL 0.4 variates in
    # the open last knot panel [T(1 - 1e-9), T), where Newton starts at the
    # panel's left end; 20,000 paths draw none
    pytest.param("simulate", {**DRIFTLESS, **LPPL_JLS, "sim": {"estimand": "terminal_price"}},
                 ["--paths", "200000"], 0, None, id="simulate-ES_T-lppl0.4"),
    # every variate inverted by Newton in its knot panel, at the same count
    pytest.param("simulate", {**DRIFTLESS, **TABULATED_JLS, "sim": {"estimand": "terminal_price"}},
                 ["--paths", "200000"], 0, None, id="simulate-ES_T-tabulated9"),
    # E^Q[X_T]: Newton inside the knot panels of the solution's tilted law
    *(pytest.param("simulate", _at(p, scenario, sim={"estimand": "budget_under_q"}),
                   ["--paths", "20000"], 0, None, id=f"simulate-EQ-{name}-p{p:g}")
      for name, scenario in (("default", {}), ("tabulated9", TABULATED_JLS))
      for p in (4.0, 0.25)),
    # the first-order start of the pointwise inversion, and the case next to
    # log utility
    *(pytest.param(command, _at(p), [], 0, None, id=f"{command}-p{p:.8g}")
      for p in (0.25, 1.0000005) for command in ("solve", "welfare")),
    # growth targets reach e^47.5 at p = 0.05: the two ends of the Newton
    # inversion of log m
    *(pytest.param("solve", _at(p), [], 0, None, id=f"solve-p{p:g}") for p in (0.05, 30.0)),
    # kappa blows up inside the sliver [T(1 - 1e-6), T), whose first shells
    # are inverted with the brackets
    *(pytest.param("solve", _at(p, scenario), [], 0, None, id=f"solve-{name}-p{p:g}")
      for name, scenario in (("uniform0.9", UNIFORM_RELAXED), ("lppl0.4", LPPL_JLS))
      for p in (4.0, 0.25)),
    # at p = 1 the solve builds no sliver, since n on m = 1 is 0; the welfare
    # call still integrates its loss over the sliver
    *(pytest.param(command, _at(1.0, scenario), [], 0, None, id=f"{command}-{name}-p1")
      for name, scenario in (("uniform0.9", UNIFORM_RELAXED), ("lppl0.4", LPPL_JLS))
      for command in ("solve", "welfare")),
    pytest.param("simulate", {}, ["--paths", "2000"], 0, None, id="simulate-default"),
    pytest.param("decompose", {}, [], 0, None, id="decompose-default"),
    pytest.param("sweep", {"sweep": {"parameter": "excess.params.alpha", "values": [0.1, 0.2, 0.4]}},
                 [], 0, None, id="sweep-welfare-alpha"),
    # a solve's grid scaffolding is cached per (T, n_grid): the third point of
    # each sweep re-reads a cache entry after a different key, and must print
    # the bytes of the first
    *(pytest.param("sweep", {"sweep": {"parameter": parameter, "values": values, "command": "solve"}},
                   [], 0, _first_block_repeats, id=f"sweep-solve-{parameter}")
      for parameter, values in (("market.horizon", [1, 2, 1]), ("grid.n", [512, 4096, 512]))),
    # expected utility: the optimal and myopic strategies exit 0, the Merton
    # leverage at p = 0.25 goes bankrupt at a crash and exits 4
    *(pytest.param("simulate", _at(p, sim={"estimand": "expected_utility", "strategy": strategy}),
                   ["--paths", "20000"], code, None, id=f"simulate-EU-{strategy}-p{p:g}")
      for strategy, p, code in (("optimal", 4.0, 0), ("optimal", 0.25, 0), ("myopic", 0.25, 0),
                                ("merton", 0.25, 4))),
]


@pytest.mark.parametrize("command, scenario, flags, code, stdout_holds", CONTRACT)
def test_cli_contract(tmp_path, capsys, command, scenario, flags, code, stdout_holds):
    # the exit code, no warning of any category, and one ERROR line on
    # stderr for a failure, nothing there otherwise
    path = write_scenario(tmp_path, scenario)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, out, err = run_cli([command, "--scenario", path, *flags], capsys)
    assert status == code, err
    assert not caught, [str(w.message) for w in caught]
    if code:
        assert out == "" and err.count("\n") == 1 and err.startswith(f"ERROR code={code} "), err
    else:
        assert err == ""
    if stdout_holds is not None:
        assert stdout_holds(out), out


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "bubblemkt.cli", "classify", "--scenario", "missing.json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "ERROR code=1" in result.stderr


def test_closed_stdout_is_an_output_error(tmp_path):
    # the 4096-row CSV (about 450 KB) outgrows a pipe buffer, so the solve is
    # still writing when the reader closes after the header
    args = ["solve", "--scenario", write_scenario(tmp_path, {}), "--grid", "4096"]
    with subprocess.Popen(
        [sys.executable, "-m", "bubblemkt.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline().startswith("t,y_hat,")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 5
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR code=5 kind=output"), err


def test_cli_runtime_never_imports_scipy(tmp_path):
    # SciPy is a test dependency only; the command line must run without it
    out = str(tmp_path / "o.csv")
    args = ["classify", "--scenario", write_scenario(tmp_path, EX37), "--out", out]
    script = (
        "import sys\n"
        "from bubblemkt.cli import main\n"
        f"assert main({args!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
