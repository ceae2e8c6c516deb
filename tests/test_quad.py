"""The package's monotone cubic against SciPy's ``PchipInterpolator``, the
reference it reproduces bit for bit (SciPy is a test-only dependency), and
the batched shell quadrature against its one-shell-per-call evaluation and
its verdicts against a rescaled integrand."""

import math
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import bubblemkt as bm
from bubblemkt import Curve, _quad
from bubblemkt._quad import CONVERGED, DIVERGENT, INDETERMINATE, integrate_toward


def _knots(n, shape, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(1e-3, 1.0, n)) * rng.uniform(0.1, 10.0)
    if shape == "monotone":
        y = np.cumsum(rng.exponential(1.0, n))
    elif shape == "sign_changing":
        y = rng.normal(size=n)
    else:  # ties: flat runs and zero secants
        y = np.round(rng.normal(size=n), 1)
    return x, y


@pytest.mark.parametrize("shape", ["monotone", "sign_changing", "ties"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 128, 600])
def test_bit_identical_to_pchip(n, shape):
    x, y = _knots(n, shape, seed=n)
    ref = PchipInterpolator(x, y)
    curve = Curve(x, y)
    t = np.concatenate([np.random.default_rng(n + 1).uniform(x[0], x[-1], 4000), x])
    np.testing.assert_array_equal(curve(t), ref(t))
    # SciPy's derivative polynomial, as TabulatedHazard uses it
    np.testing.assert_array_equal(curve(t, 1), ref.derivative(1)(t))


def test_held_at_end_values_outside_the_knots():
    x, y = _knots(9, "sign_changing", seed=3)
    curve = Curve(x, y)
    np.testing.assert_array_equal(curve([x[0] - 5.0, x[0] - 1e-9]), [y[0], y[0]])
    np.testing.assert_array_equal(curve([x[-1] + 1e-9, x[-1] + 1e3]), [y[-1], y[-1]])
    assert curve(x[-1] + 1.0) == y[-1]


@pytest.mark.parametrize("name", ["tabulated", "tilted"])
def test_panel_evaluation_is_the_search_and_the_cubic(name):
    # the Newton callback of a curve-backed crash law reads (H, H') from the
    # panel its variate lies in; with the panel of the search, that is the
    # curve and its derivative, bit for bit, at the knots and past both ends
    if name == "tabulated":
        cdf = [0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.68, 0.8]
        law = bm.TabulatedHazard(np.linspace(0.0, 1.0, 9), cdf)
    else:
        law = bm.ExponentialCutoffHazard(1.0, 1.0)
        model = bm.MarketModel(0.1, 0.2, law, bm.ConstantExcess(0.2))
        law = bm.solve_optimal(model, bm.Preference(4.0)).dual_measure
    curve = law._cum
    x = curve.grid
    assert x.size == (9 if name == "tabulated" else _quad.HORIZON_NODES)
    inside = np.random.default_rng(12).uniform(x[0], x[-1], 10_000)
    t = np.concatenate([inside, x, [x[0] - 1.0, x[0] - 1e-12, x[-1] + 1e-12, x[-1] + 1.0]])
    clamped = np.clip(t, x[0], x[-1])
    i = np.searchsorted(x[1:-1], clamped, side="right")
    value, slope = curve.on_panel(i, clamped, None)
    np.testing.assert_array_equal(value, curve(t))
    np.testing.assert_array_equal(slope, curve(t, nu=1))
    np.testing.assert_array_equal(curve.on_panel(i, clamped), curve(t))
    np.testing.assert_array_equal(curve.on_panel(i, clamped, 1), curve(t, nu=1))
    # the law's Newton callback is that panel evaluation
    fdf = law._panel_fdf(i)
    idx = np.arange(0, t.size, 3)
    got_value, got_slope = fdf(clamped[idx], idx)
    np.testing.assert_array_equal(got_value, curve(t[idx]))
    np.testing.assert_array_equal(got_slope, curve(t[idx], nu=1))


_INCREASING, _FINITE = "^grid must be strictly increasing$", "^grid and values must be finite$"


@pytest.mark.parametrize(
    "grid, values, message",
    [
        ([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], _INCREASING),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], _INCREASING),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], _FINITE),
        ([0.0, 1.0, np.inf], [0.0, 1.0, 2.0], _FINITE),
        ([-np.inf, 1.0, 2.0], [0.0, 1.0, 2.0], _FINITE),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0], _FINITE),
        ([0.0, 1.0, 2.0], [0.0, 1.0], "^grid and values must be 1-d"),
        ([0.0], [1.0], "^grid and values must be 1-d"),
    ],
    ids=["repeated-knot", "decreasing", "nan-knot", "inf-end", "minus-inf-start", "inf-value",
         "mismatched", "one-knot"],
)
def test_rejects_bad_tables(grid, values, message):
    with pytest.raises(ValueError, match=message):
        Curve(np.array(grid), np.array(values))


def test_runtime_never_imports_scipy():
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import bubblemkt as bm

        law = bm.ExponentialCutoffHazard(1.0, 1.0)
        model = bm.MarketModel(0.1, 0.2, law, bm.ConstantExcess(0.2))
        sol = bm.solve_optimal(model, bm.Preference(4.0), n_grid=64)
        knots = np.linspace(0.0, 1.0, 9)
        bm.TabulatedHazard(knots, 0.6 * knots).inverse_cdf(np.array([0.1, 0.5]))
        lppl = bm.LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5)
        bm.linear_delta_excess(lppl, 0.5).phi(np.array([0.2, 0.7]))
        cfg = bm.SimConfig(n_paths=200, seed=1)
        bm.estimate(model, cfg, bm.TerminalPrice())
        bm.estimate(model, cfg, bm.ExpectedUtility(bm.optimal_strategy(sol), 4.0))
        bm.estimate(model, cfg, bm.BudgetUnderQ(sol))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


SHELL_INTEGRANDS = {
    "sqrt": (lambda x: (1.0 - x) ** -0.5, CONVERGED),
    "cos": (np.cos, CONVERGED),
    "log-divergent": (lambda x: 1.0 / (1.0 - x), DIVERGENT),
    # shells past the verdict overflow; their values are discarded
    "overflow-past-verdict": (lambda x: np.exp(1.0 / (1.0 - x)), DIVERGENT),
    "oscillating": (
        lambda x: (1.0 - x) ** -0.9 * (2.0 + np.sin(3.0 * np.log(1.0 - x))),
        INDETERMINATE,
    ),
}


@pytest.mark.parametrize("name", SHELL_INTEGRANDS)
def test_batched_shells_match_one_shell_per_call(name, monkeypatch):
    f, status = SHELL_INTEGRANDS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = integrate_toward(f, 0.0, 1.0)
    assert batched.status == status
    monkeypatch.setattr(_quad, "_SHELL_BATCH", 1)
    assert integrate_toward(f, 0.0, 1.0) == batched  # value, status, shells, tail_bound


def test_width_underflow_reports_the_shells_summed(monkeypatch):
    # the oscillating tail never settles, so the shells run out at the
    # width underflow near b; every shell yielded is summed and counted
    summed = []
    shell_parts = _quad._shell_parts

    def recording(*args):
        for part in shell_parts(*args):
            summed.append(part)
            yield part

    monkeypatch.setattr(_quad, "_shell_parts", recording)
    f, status = SHELL_INTEGRANDS["oscillating"]
    res = integrate_toward(f, 0.0, 1.0)
    assert res.status == status == INDETERMINATE
    assert len(summed) < _quad._MAX_SHELLS  # stopped by the underflow
    assert res.shells == len(summed) == 46
    assert res.value == pytest.approx(math.fsum(summed), rel=1e-15)


def test_tail_converging_in_one_batch_calls_f_once():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return (1.0 - x) ** -0.5

    res = integrate_toward(f, 0.0, 1.0)
    assert res.status == CONVERGED and res.shells <= _quad._SHELL_BATCH
    assert len(sizes) == 1


def test_overflow_in_a_used_shell_still_warns():
    # shell 8, the verdict's last, overflows; so do the discarded ones after it
    with pytest.warns(RuntimeWarning, match="overflow"):
        res = integrate_toward(lambda x: np.exp(2.0 / (1.0 - x)), 0.0, 1.0)
    assert res.status == DIVERGENT


_TABULATED = bm.TabulatedHazard(
    np.linspace(0.0, 1.0, 9), [0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.68, 0.8]
)
_LPPL_04 = bm.LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5)

# integrand on [0, 1) and its verdict with its shell count, at every scale
SCALED_INTEGRANDS = {
    "sqrt": (lambda x: (1.0 - x) ** -0.5, CONVERGED, 7),
    "cos": (np.cos, CONVERGED, 19),
    "zero": (np.zeros_like, CONVERGED, 3),
    "log-divergent": (lambda x: 1.0 / (1.0 - x), DIVERGENT, 9),
    "power-1.2": (lambda x: (1.0 - x) ** -1.2, DIVERGENT, 9),
    "oscillating": (SHELL_INTEGRANDS["oscillating"][0], INDETERMINATE, 46),
    "tabulated-kappa": (_TABULATED.hazard, CONVERGED, 20),
    "lppl-0.4-kappa": (_LPPL_04.hazard, INDETERMINATE, 46),
}


@pytest.mark.parametrize("name", SCALED_INTEGRANDS)
def test_verdict_and_shells_do_not_depend_on_scale(name):
    # the default tolerance is relative: a tiny integrand is no more
    # convergent than a huge one (an absolute floor certified all of
    # these at 1e-12 in 3 shells)
    f, status, shells = SCALED_INTEGRANDS[name]
    for c in (2.0**-40, 1e-12, 1.0, 1e12, 2.0**40):
        res = integrate_toward(lambda x: c * np.asarray(f(x)), 0.0, 1.0)
        assert (res.status, res.shells) == (status, shells), c


def test_panel_rule_is_built_once_per_grid():
    grid = _quad.clustered_grid(1.0, 64)
    rule = _quad.panel_rule(grid)
    assert _quad.panel_rule(grid.copy()) is rule
    assert _quad.panel_rule(_quad.clustered_grid(1.0, 65)) is not rule
    assert rule.integral(grid**2) == _quad.PanelRule(grid).integral(grid**2)
    with pytest.raises(ValueError):
        rule._weights[0, 0] = 0.0
