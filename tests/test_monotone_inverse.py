"""The safeguarded Newton inverse with and without a start point."""

import numpy as np
import pytest

from bubblemkt import (
    ConstantExcess,
    ConstantJumpSizeExcess,
    ExponentialCutoffHazard,
    LPPLHazard,
    MarketModel,
    TabulatedHazard,
    TiltFunction,
    UniformHazard,
    build_tilted_measure,
    linear_delta_excess,
)
from bubblemkt import hazard as hz
from bubblemkt import solver as sv
from bubblemkt._quad import monotone_inverse

EPS = np.finfo(float).eps
EXP_LAW = ExponentialCutoffHazard(1.0, 1.0)
UNIFORM = UniformHazard(1.0)
LPPL = LPPLHazard(power=0.4, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)


def _resolution(x, targets, slope):
    """One ulp of a root: the finder's stopping scale ulp(max(1, |x|)), or
    the width ulp(target) / f'(x) of the set where f rounds to the target,
    whichever is larger."""
    return np.maximum(EPS * np.maximum(1.0, np.abs(x)), np.spacing(np.abs(targets)) / slope)


def _near(root, rng, rel):
    return root * (1.0 + rel * rng.uniform(-1.0, 1.0, root.shape))


def _counted(fdf):
    calls = [0]

    def wrapped(x, idx):
        calls[0] += 1
        return fdf(x, idx)

    return wrapped, calls


@pytest.mark.parametrize(
    "model",
    [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.3, 0.1, EXP_LAW, ConstantExcess(0.8)),
        MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
    ],
    ids=["baseline", "steep", "uniform0.9"],
)
@pytest.mark.parametrize("p", [0.25, 4.0])
def test_solver_inversion_warm_matches_cold(model, p):
    rng = np.random.default_rng(7)
    grid = sv._solver_grid(model, 512)
    c = sv._Coef(model, p, grid)
    targets = np.exp(rng.uniform(-5.0, 5.0, grid.size))
    cold = sv._implicit_many(c, targets)
    unit = _resolution(cold, targets, sv._aux_m_dm(c.a0, c.slope, c.p, cold)[2])
    for rel in (0.1, 1e-3, 1e-8, 0.0):
        warm = sv._implicit_many(c, targets, x0=_near(cold, rng, rel))
        assert np.all(np.abs(warm - cold) <= 4.0 * unit)


def _tabulated():
    knots = np.linspace(0.0, 1.0, 9)
    return TabulatedHazard(knots, 0.6 * -np.expm1(-2.0 * knots) / -np.expm1(-2.0))


@pytest.mark.parametrize(
    "law",
    [LPPL, _tabulated()],
    ids=["lppl", "tabulated"],
)
def test_crash_law_inversion_warm_matches_cold(law):
    rng = np.random.default_rng(11)
    w = -np.log1p(-rng.uniform(1e-6, 0.55, 4000))
    end, cap = law._table_edge or (law.horizon, np.inf)
    w = w[w < cap]

    def fdf(x, _):
        return law._cum(x), law._kappa(x)

    cold = monotone_inverse(fdf, 0.0, end, w)
    unit = _resolution(cold, w, law._kappa(cold))
    for rel in (0.1, 1e-3, 1e-8, 0.0):
        warm = monotone_inverse(fdf, 0.0, end, w, x0=_near(cold, rng, rel))
        assert np.all(np.abs(warm - cold) <= 4.0 * unit)


def _cubic(x, _):
    return x**3 + x, 3.0 * x**2 + 1.0


TARGETS = np.linspace(-50.0, 700.0, 64)


@pytest.mark.parametrize(
    "x0",
    [np.nan, -10.0, 9.0, -11.0, 12.0, np.inf],
    ids=["nan", "at_lo", "at_hi", "below", "above", "inf"],
)
def test_start_outside_the_bracket_is_the_midpoint(x0):
    lo, hi = -10.0, 9.0
    cold_fn, cold_calls = _counted(_cubic)
    cold = monotone_inverse(cold_fn, lo, hi, TARGETS)
    warm_fn, warm_calls = _counted(_cubic)
    warm = monotone_inverse(warm_fn, lo, hi, TARGETS, x0=x0)
    assert np.array_equal(warm, cold)
    assert warm_calls == cold_calls


def test_callback_warnings_reach_the_caller():
    # only the Newton division runs with its warnings off, not the callback
    def fdf(x, idx):
        return np.log(x - x), np.ones_like(x)

    with pytest.warns(RuntimeWarning, match="divide by zero"):
        monotone_inverse(fdf, 0.0, 1.0, np.array([0.5]))


def test_per_point_start_falls_back_pointwise():
    lo, hi = -10.0, 9.0
    cold = monotone_inverse(_cubic, lo, hi, TARGETS)
    x0 = cold.copy()
    x0[::2] = np.nan  # half the points start at the midpoint
    warm = monotone_inverse(_cubic, lo, hi, TARGETS, x0=x0)
    unit = _resolution(cold, TARGETS, _cubic(cold, None)[1])
    assert np.all(np.abs(warm - cold) <= 4.0 * unit)


def test_start_near_the_root_takes_fewer_evaluations():
    lo, hi = -10.0, 9.0
    cold_fn, cold_calls = _counted(_cubic)
    cold = monotone_inverse(cold_fn, lo, hi, TARGETS)
    warm_fn, warm_calls = _counted(_cubic)
    monotone_inverse(warm_fn, lo, hi, TARGETS, x0=cold * (1.0 + 1e-6))
    assert warm_calls[0] < cold_calls[0] / 2


def test_solver_start_near_the_root_takes_fewer_evaluations(monkeypatch):
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    c = sv._Coef(model, 4.0, sv._solver_grid(model, 512))
    targets = np.exp(np.linspace(-1.0, 1.0, 512))
    cold = sv._implicit_many(c, targets)
    calls = _count_solver_evaluations(monkeypatch)

    def run(x0):
        calls[0] = 0
        sv._implicit_many(c, targets, x0)
        return calls[0]

    assert run(cold * (1.0 + 1e-6)) < run(None)


def _count_evaluations(monkeypatch, module):
    """Count the callback evaluations of every ``monotone_inverse`` call
    made from ``module``."""
    calls = [0]
    inverse = module.monotone_inverse

    def counting(fdf, *args):
        def counted(y, i):
            calls[0] += 1
            return fdf(y, i)

        return inverse(counted, *args)

    monkeypatch.setattr(module, "monotone_inverse", counting)
    return calls


def _count_solver_evaluations(monkeypatch):
    """Count the evaluations of log m and its slope in the solver's inversions."""
    calls = [0]
    evaluate = sv._log_m_step

    def counting(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(sv, "_log_m_step", counting)
    return calls


def test_baseline_solve_stops_once_m_resolves_its_target(monkeypatch):
    # the step and bracket tests alone took 151 evaluations of m here
    calls = _count_solver_evaluations(monkeypatch)
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    sv.solve_optimal(model, sv.Preference(4.0))
    assert calls[0] <= 60


@pytest.mark.parametrize("p, evaluations", [(0.25, 5), (1.0, 1), (4.0, 3)])
def test_baseline_solve_evaluations_are_pinned(p, evaluations, monkeypatch):
    # a Newton point left of its root is returned unevaluated once its bound
    # max(1, p) h^2 / 2 on |h| is under eps/2: 6 / 1 / 4 evaluations before
    calls = _count_solver_evaluations(monkeypatch)
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    sv.solve_optimal(model, sv.Preference(p))
    assert calls[0] == evaluations


def test_start_and_log_utility_share_one_root(monkeypatch):
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    grid = sv._solver_grid(model, 64)
    roots = []
    root = sv._upper_root

    def spy(*args):
        roots.append(root(*args))
        return roots[-1]

    monkeypatch.setattr(sv, "_upper_root", spy)
    closed = np.asarray(sv.log_utility_solution(model, grid))
    start = sv._implicit_many(sv._Coef(model, 1.0, grid), np.ones_like(grid))
    assert len(roots) == 2
    assert np.all(np.abs(roots[1] - closed) <= 1e-14 * np.abs(closed))
    assert np.all(np.abs(start - closed) <= 1e-14 * np.abs(closed))


@pytest.mark.parametrize("p, most", [(0.25, 5), (1.0, 1), (4.0, 3)])
def test_myopic_inversion_starts_next_to_its_root(p, most, monkeypatch):
    calls = _count_solver_evaluations(monkeypatch)
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    sv.myopic_curve(model, sv.Preference(p), sv._solver_grid(model, 512))
    assert 1 <= calls[0] <= most


@pytest.mark.parametrize(
    "model",
    [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
        MarketModel(0.1, 0.2, LPPL, ConstantJumpSizeExcess(LPPL, 0.3)),
    ],
    ids=["baseline", "uniform0.9", "lppl0.4"],
)
@pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
def test_seeded_inversion_matches_the_midpoint_start(model, p):
    c = sv._Coef(model, p, sv._solver_grid(model, 512))
    rate = (1.0 - p) * model.mu**2 / (2.0 * p**2 * model.sigma**2)
    for targets in (np.ones_like(c.t), np.exp(rate * (model.horizon - c.t))):
        seeded = sv._implicit_many(c, targets)
        midpoint = sv._implicit_many(c, targets, x0=np.nan)
        assert np.all(np.abs(seeded - midpoint) <= 1e-11 * np.abs(midpoint))


@pytest.mark.parametrize(
    "model",
    [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
        MarketModel(0.1, 0.2, LPPL, ConstantJumpSizeExcess(LPPL, 0.3)),
    ],
    ids=["baseline", "uniform0.9", "lppl0.4"],
)
@pytest.mark.parametrize("p", [0.25, 4.0])
def test_both_brackets_come_from_one_inversion(model, p, monkeypatch):
    # each point's iteration is elementwise, so stacking the two targets
    # changes no bit of either curve
    c = sv._Coef(model, p, sv._solver_grid(model, 512))
    rate = (1.0 - p) * model.mu**2 / (2.0 * p**2 * model.sigma**2)
    myopic = sv._implicit_many(c, np.ones_like(c.t))
    other = sv._implicit_many(c, np.exp(rate * (model.horizon - c.t)))
    inversions = [0]
    inverse = sv._implicit_many

    def counting(*args):
        inversions[0] += 1
        return inverse(*args)

    monkeypatch.setattr(sv, "_implicit_many", counting)
    lower, upper = sv._brackets(model, c)
    assert inversions[0] == 1
    assert np.array_equal(lower, myopic if p < 1.0 else other)
    assert np.array_equal(upper, other if p < 1.0 else myopic)


@pytest.mark.parametrize("name", ["tabulated", "tilted"])
def test_tabulated_law_inversion_starts_in_its_knot_panel(name, monkeypatch):
    if name == "tabulated":
        law, most = _tabulated(), 4
    else:
        model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
        sol = sv.solve_optimal(model, sv.Preference(4.0))
        law, most = build_tilted_measure(model, TiltFunction(y=sol.tilt)), 2
    u = np.random.default_rng(5).uniform(1e-6, 1.0 - 1e-6, 5000)
    w = -np.log1p(-u)
    end, cap = law._table_edge or (law.horizon, -np.log(law.atom))
    inner = w < cap
    cold = monotone_inverse(lambda x, _: (law._cum(x), law._kappa(x)), 0.0, end, w[inner])
    calls = _count_evaluations(monkeypatch, hz)
    got = law.inverse_cdf(u)[inner]
    unit = _resolution(cold, w[inner], law._kappa(cold))
    assert np.all(np.abs(got - cold) <= 4.0 * unit)
    assert 1 <= calls[0] <= most


def test_lppl_inversion_starts_in_its_knot_table():
    # LPPL has no tabulated H: it tabulates its own on first use, and each
    # variate starts in the panel holding it (a cold start took 6.2
    # evaluations of H per variate)
    law = LPPLHazard(power=0.4, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)
    cum, evaluations = law._cum, [0]

    def counting(x):
        evaluations[0] += np.size(x)
        return cum(x)

    law._cum = counting
    u = np.sort(np.random.default_rng(9).uniform(2.0**-53, 1.0, 50_000))
    got = law.inverse_cdf(u)
    assert evaluations[0] <= 3 * u.size  # the table's own build included
    w = -np.log1p(-u)
    inner = w < -np.log(law.atom)
    assert np.all(got[~inner] == law.horizon)
    cold = monotone_inverse(lambda x, _: (cum(x), law._kappa(x)), 0.0, law.horizon, w[inner])
    unit = _resolution(cold, w[inner], law._kappa(cold))
    assert np.all(np.abs(got[inner] - cold) <= 4.0 * unit)


@pytest.mark.parametrize("u", [1e-300, 1e-200, 1e-100, 1e-50, 2.0**-53])
def test_lppl_inversion_of_tiny_variates(u):
    # G(t) = kappa(0) t to first order; a bisection from the midpoint ran out
    # of steps at 2^-256 and returned 8.8e-78 for every u below 1e-77
    ratio = float(LPPL.inverse_cdf(u)) * float(LPPL.hazard(0.0)) / u
    assert ratio == pytest.approx(1.0, abs=1e-12)
