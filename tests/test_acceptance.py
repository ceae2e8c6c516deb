"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a laptop.
"""

import hashlib
import math

import numpy as np
import pytest

from bubblemkt import (
    BudgetUnderQ,
    ConstantExcess,
    ExpectedUtility,
    ExponentialCutoffHazard,
    LPPLHazard,
    LinearRampExcess,
    MarketModel,
    Preference,
    SimConfig,
    SimulationDiagnostic,
    TerminalPrice,
    UniformHazard,
    Verdict,
    ZeroExcess,
    aux_eval,
    certainty_equivalent,
    classify_under_P,
    decompose,
    estimate,
    log_utility_solution,
    lower_boundary,
    merton_strategy,
    myopic_only_strategy,
    optimal_fraction,
    optimal_strategy,
    safe_rates,
    scaled_strategy,
    solve_optimal,
    xihat_identity_check,
)
from bubblemkt.elmm import TiltFunction, build_tilted_measure, constant_tilt

EXP_LAW = ExponentialCutoffHazard(1.0, 1.0)

P_GRID = (0.25, 1.0, 4.0)
MU_GRID = (0.05, 0.1, 0.2, 0.3)
SIGMA_GRID = (0.1, 0.2, 0.3, 0.4)
ALPHA_GRID = (0.1, 0.2, 0.4, 0.8)


def _passed(number: int, label: str) -> None:
    print(f"[criterion {number:02d}] PASS  {label}")


@pytest.fixture(scope="module")
def grid_solutions():
    """All Table-1/2 style solves, shared by criteria 4-6."""
    out = {}
    for p in P_GRID:
        for mu in MU_GRID:
            for sigma in SIGMA_GRID:
                for alpha in ALPHA_GRID:
                    model = MarketModel(mu, sigma, EXP_LAW, ConstantExcess(alpha))
                    out[(p, mu, sigma, alpha)] = solve_optimal(model, Preference(p))
    return out


@pytest.fixture(scope="module")
def ce_scenarios():
    """Solved baseline scenarios for the Monte Carlo criteria 7-9."""
    model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))
    return {p: (model, solve_optimal(model, Preference(p))) for p in (4.0, 0.25)}


def test_criterion_01_classification_exactness(ex37_model, table4_model):
    assert classify_under_P(ex37_model).verdict is Verdict.STRICT_LOCAL_MARTINGALE
    assert (
        classify_under_P(table4_model(0.7, mu=0.0)).verdict is Verdict.TRUE_MARTINGALE
    )
    atom_model = MarketModel(0.0, 0.2, EXP_LAW, ConstantExcess(0.2))
    assert classify_under_P(atom_model).verdict is Verdict.TRUE_MARTINGALE
    _passed(1, "classification of the three reference models is exact")


def test_criterion_02_martingale_defect(ex37_model):
    result = estimate(ex37_model, SimConfig(n_paths=1_000_000, seed=2024), TerminalPrice())
    oracle = 1.0 - math.exp(-1.0)
    assert abs(result.mean - oracle) <= 3.0 * result.stderr
    assert (1.0 - result.mean) / result.stderr > 5.0
    _passed(2, f"E[S_T] = {result.mean:.5f} vs {oracle:.5f} within 3 SE; excludes 1")


def test_criterion_03_log_utility_equivalence():
    scenarios = [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.1, 0.2, EXP_LAW, LinearRampExcess(0.2)),
    ]
    worst = 0.0
    for model in scenarios:
        numeric = solve_optimal(model, Preference(1.0))
        closed = np.asarray(log_utility_solution(model, numeric.grid))
        worst = max(worst, float(np.max(np.abs(numeric.tilt.values - closed))))
    assert worst <= 1e-8
    _passed(3, f"numeric log-utility solve matches the closed form (sup {worst:.1e})")


def test_criterion_04_bracket_and_residual(grid_solutions):
    worst = 0.0
    for sol in grid_solutions.values():
        assert np.all(sol.lower.values - 1e-12 <= sol.tilt.values)
        assert np.all(sol.tilt.values <= sol.upper.values + 1e-12)
        worst = max(worst, float(np.max(sol.residuals)))
    assert worst <= 1e-8
    _passed(4, f"{len(grid_solutions)} solves bracketed; worst residual {worst:.1e}")


def test_grid_solves_reach_the_fixed_point_tolerance(grid_solutions):
    # Newton stops on the residual, so every solve ends at or below the
    # default tol, p = 0.25 included
    worst = max(float(np.max(sol.residuals)) for sol in grid_solutions.values())
    assert worst <= 1e-10
    assert all(sol.method == "newton" for (p, *_), sol in grid_solutions.items() if p != 1.0)


def test_criterion_05_hedging_demand_signs(grid_solutions):
    edge_worst = 0.0
    for (p, _, _, _), sol in grid_solutions.items():
        _, pi_h = decompose(sol)
        if p > 1.0:
            assert np.all(pi_h.values >= -1e-12)
        elif p < 1.0:
            assert np.all(pi_h.values <= 1e-12)
        else:
            assert np.max(np.abs(pi_h.values)) <= 1e-10
        edge_worst = max(edge_worst, abs(float(pi_h.values[-1])))
    assert edge_worst <= 1e-3
    _passed(5, f"hedging signs by risk aversion; |edge value| <= {edge_worst:.1e}")


def test_criterion_06_myopic_bounds(grid_solutions):
    for sol in grid_solutions.values():
        pi_m, _ = decompose(sol)
        merton = sol.merton_fraction
        assert np.all(pi_m.values > 0.0)
        # the excess return never vanishes on this grid, so strictly below
        assert np.all(pi_m.values < merton)
    _passed(6, "myopic demand lies in (0, Merton) on the whole grid")


def _inverse_utility(value: float, p: float) -> float:
    if abs(p - 1.0) < 1e-12:
        return math.exp(value)
    return ((1.0 - p) * value) ** (1.0 / (1.0 - p))


def test_criterion_07_certainty_equivalent_cross_check(ce_scenarios):
    for p, (model, sol) in ce_scenarios.items():
        cfg = SimConfig(n_paths=100_000, n_steps=1024, seed=4242)
        result = estimate(model, cfg, ExpectedUtility(optimal_strategy(sol), p))
        band = sorted(
            _inverse_utility(result.mean + s * result.stderr, p) for s in (-3.0, 3.0)
        )
        ce = certainty_equivalent(sol)
        assert band[0] <= ce <= band[1], f"p={p}: {ce} outside {band}"
    _passed(7, "Monte Carlo utility matches the certainty-equivalent formula")


def test_criterion_08_budget_identity(ce_scenarios):
    for p, (model, sol) in ce_scenarios.items():
        cfg = SimConfig(n_paths=100_000, n_steps=1024, seed=777)
        result = estimate(model, cfg, BudgetUnderQ(sol))
        assert abs(result.mean - sol.preference.x) <= 3.0 * result.stderr
    _passed(8, "E^Q[X_T] = x within 3 SE on both scenarios")


def test_criterion_09_optimality_dominance(ce_scenarios):
    for p, (model, sol) in ce_scenarios.items():
        cfg = SimConfig(n_paths=100_000, n_steps=1024, seed=31415)
        opt = estimate(model, cfg, ExpectedUtility(optimal_strategy(sol), p))
        alternatives = [
            merton_strategy(model, p),
            myopic_only_strategy(sol),
            scaled_strategy(optimal_strategy(sol), 0.5),
            scaled_strategy(optimal_strategy(sol), 1.5),
        ]
        for alt in alternatives:
            try:
                res = estimate(model, cfg, ExpectedUtility(alt, p))
            except SimulationDiagnostic:
                # the alternative rides into ruin (wealth through zero):
                # its expected utility is -inf, dominated by construction
                continue
            combined = math.hypot(opt.stderr, res.stderr)
            assert opt.mean >= res.mean - 3.0 * combined, (p, alt.label)
    _passed(9, "optimal strategy dominates all four alternatives")


def test_criterion_10_above_merton():
    model = MarketModel(0.3, 0.05, EXP_LAW, LinearRampExcess(0.2))
    sol = solve_optimal(model, Preference(4.0))
    pi = optimal_fraction(sol, sol.grid)
    merton = sol.merton_fraction
    assert merton == pytest.approx(30.0, rel=1e-12)
    assert np.max(pi) > merton
    _passed(10, f"max fraction {np.max(pi):.3f} exceeds the Merton level {merton:.0f}")


def test_criterion_11_strict_local_continuity(table4_model):
    sols = {
        a: solve_optimal(table4_model(a), Preference(4.0))
        for a in (0.7, 0.9, 0.99, 1.0)
    }
    ref = sols[1.0].tilt.values
    gaps = [float(np.max(np.abs(sols[a].tilt.values - ref))) for a in (0.7, 0.9, 0.99)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[2] < 0.01
    _passed(11, f"sup-gaps to the strict-local solution decrease: {gaps}")


def test_criterion_12_relative_loss_monotonicity():
    losses = []
    for alpha in ALPHA_GRID:
        model = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(alpha))
        losses.append(safe_rates(solve_optimal(model, Preference(4.0))).relative_loss)
    assert all(b > a for a, b in zip(losses, losses[1:]))
    _passed(12, f"rESRL increases across alpha: {[round(v, 4) for v in losses]}")


def test_criterion_13_elmm_identities(ce_scenarios):
    lppl = LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5, horizon=1.0)
    models = [
        MarketModel(0.0, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.0, 0.2, UniformHazard(1.0), ZeroExcess()),
        # the residuals do not read phi; a constant jump size would make
        # phi' = 0.3 kappa unbounded, and only tilts vanishing at T admissible
        MarketModel(0.0, 0.2, lppl, ZeroExcess()),
    ]
    tilts = [
        constant_tilt(0.0),
        constant_tilt(0.6),
        TiltFunction(
            y=lambda t: 0.3 * np.sin(3.0 * np.asarray(t, dtype=float)),
            inf_one_plus_y=0.7,
        ),
    ]
    worst_rel = 0.0
    for model in models:
        for tilt in tilts:
            residuals = build_tilted_measure(model, tilt).relation_residuals()
            worst_rel = max(worst_rel, float(residuals.max()))
    assert worst_rel <= 1e-10

    rng = np.random.default_rng(11)
    worst_xi = 0.0
    for _, sol in ce_scenarios.values():
        for v in rng.uniform(0.02, 0.97, size=10):
            worst_xi = max(worst_xi, xihat_identity_check(sol, float(v)))
    assert worst_xi <= 1e-6
    _passed(
        13,
        f"tilt identities <= {worst_rel:.1e}; wealth-compensator <= {worst_xi:.1e}",
    )


# sha256 of the accepted (t, p, y) triples, in draw order, as float64 rows
CRITERION_14_SAMPLES = "080da024a0ae4f5668cd0e0d59064d0297f0bfd9ab203feacfb940e1c55c07e4"


def test_criterion_14_derivative_identities(base_model):
    # a sample draws t, then p, then y = uniform(floor + 0.02, 4.0) with the
    # floor taken at (t, p); uniform(lo, hi) is lo + (hi - lo) d for one
    # double d, so the stream is drawn first and every check runs on arrays
    rng = np.random.default_rng(987)
    n_samples = 10_000
    p_values = (0.25, 0.5, 1.0, 2.0, 4.0)
    t, p, y = np.empty(0), np.empty(0), np.empty(0)
    while t.size < n_samples:  # a sample with m <= 0 is drawn and dropped
        draws = [
            (rng.uniform(0.0, 0.98), rng.choice(p_values), rng.random())
            for _ in range(n_samples - t.size)
        ]
        ct, cp, d = np.array(draws).T
        cy, keep = np.empty(ct.size), np.empty(ct.size, dtype=bool)
        for pv in p_values:
            at = cp == pv
            floor = np.maximum(lower_boundary(base_model, Preference(pv), ct[at]), -0.95)
            cy[at] = (floor + 0.02) + (4.0 - (floor + 0.02)) * d[at]
            keep[at] = aux_eval(base_model, Preference(pv), ct[at], cy[at]).m > 0
        t, p, y = (np.append(old, new[keep]) for old, new in ((t, ct), (p, cp), (y, cy)))
    triples = np.column_stack([t, p, y])
    assert hashlib.sha256(triples.tobytes()).hexdigest() == CRITERION_14_SAMPLES

    worst = 0.0
    mu, sig2 = base_model.mu, base_model.sigma**2
    for pv in p_values:
        at = p == pv
        tp, yp, prefs = t[at], y[at], Preference(pv)
        ev = aux_eval(base_model, prefs, tp, yp)
        h = 1e-6 * np.maximum(1.0, np.abs(yp))
        up = aux_eval(base_model, prefs, tp, yp + h)
        dn = aux_eval(base_model, prefs, tp, yp - h)
        for name, analytic, fd in (
            ("da_dy", ev.da_dy, (up.a - dn.a) / (2 * h)),
            ("dm_dy", ev.dm_dy, (up.m - dn.m) / (2 * h)),
            ("dn_dy", ev.dn_dy, (up.n - dn.n) / (2 * h)),
        ):
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(rel.max()))
            i = int(rel.argmax())
            assert rel[i] <= 1e-6, (name, tp[i], yp[i], pv)
        # the drift-completed representation of n
        phi_p = np.asarray(base_model.excess.dphi(tp))
        kap = np.asarray(base_model.hazard.hazard(tp))
        b1 = aux_eval(base_model, Preference(1.0), tp, yp).b
        alt = (
            -(1 - pv) * mu**2 / (2 * pv**2 * sig2)
            + (1 - pv) * (phi_p * yp - mu) ** 2 / (2 * pv**2 * sig2)
            + kap * (b1 - 1.0) / pv
        )
        rel = np.abs(ev.n - alt) / np.maximum(1.0, np.abs(ev.n))
        worst = max(worst, float(rel.max()))
        assert rel.max() <= 1e-6
    _passed(14, f"{n_samples} samples; worst relative mismatch {worst:.1e}")
