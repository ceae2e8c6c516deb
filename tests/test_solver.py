import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bubblemkt import (
    ConstantExcess,
    ConstantJumpSizeExcess,
    DomainError,
    ExponentialCutoffHazard,
    LinearRampExcess,
    LPPLHazard,
    MarketModel,
    ModelError,
    Preference,
    SolverError,
    UniformHazard,
    ZeroExcess,
    aux_eval,
    bracket_curves,
    certainty_equivalent,
    decompose,
    linear_delta_excess,
    myopic_only_strategy,
    dual_multiplier,
    implicit_solve,
    log_utility_solution,
    lower_boundary,
    myopic_curve,
    ode_rhs,
    optimal_fraction,
    solve_optimal,
    verify_tilt_bounds,
)
from bubblemkt.elmm import TiltFunction

P4 = Preference(4.0)
P1 = Preference(1.0)
PQ = Preference(0.25)


@pytest.fixture(scope="module")
def zero_profile():
    return MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), ZeroExcess())


@pytest.fixture(scope="module")
def base_solution(base_model):
    return solve_optimal(base_model, P4)


def bisect_target(model, prefs, t, target, lo, hi, iters=200):
    """Independent plain bisection on m(t, .) used as the solve oracle."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if aux_eval(model, prefs, t, mid).m < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLowerBoundary:
    def test_zero_profile(self, zero_profile):
        assert lower_boundary(zero_profile, P4, 0.3) == -1.0

    def test_baseline(self, base_model):
        # mu/phi' - p sigma^2 kappa / phi'^2 = 0.5 - 4 < -1
        assert lower_boundary(base_model, P4, 0.3) == -1.0

    def test_high_drift(self):
        model = MarketModel(
            0.3, 0.05, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(0.2)
        )
        assert lower_boundary(model, P4, 0.3) == pytest.approx(1.25, rel=1e-12)


class TestAuxEval:
    def test_no_excess(self, zero_profile):
        ev = aux_eval(zero_profile, P4, 0.4, 0.0)
        assert (ev.a, ev.b, ev.m, ev.n) == (1.0, 1.0, 1.0, 0.0)

    def test_baseline_at_zero_tilt(self, base_model):
        ev = aux_eval(base_model, P4, 0.3, 0.0)
        assert ev.a == pytest.approx(0.875, abs=1e-14)
        assert ev.m == pytest.approx(0.875, abs=1e-14)

    @given(
        t=st.floats(0.0, 0.9),
        y=st.floats(-0.4, 3.0),
        p=st.sampled_from([0.25, 0.7, 1.0, 2.0, 4.0]),
    )
    def test_dm_dy_matches_finite_differences(self, base_model, t, y, p):
        prefs = Preference(p)
        h = 1e-6
        fd = (
            aux_eval(base_model, prefs, t, y + h).m
            - aux_eval(base_model, prefs, t, y - h).m
        ) / (2.0 * h)
        analytic = aux_eval(base_model, prefs, t, y).dm_dy
        assert analytic == pytest.approx(fd, rel=2e-6, abs=1e-9)

    def test_n_identity(self, base_model):
        # n from its definition equals the drift-completed form using the
        # risk-aversion-one auxiliary functions
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = float(rng.uniform(0.0, 0.95))
            p = float(rng.choice([0.25, 0.5, 2.0, 4.0]))
            prefs = Preference(p)
            lb = lower_boundary(base_model, prefs, t)
            y = float(rng.uniform(max(lb, -0.9) + 0.05, 3.0))
            ev = aux_eval(base_model, prefs, t, y)
            mu, sig2 = base_model.mu, base_model.sigma**2
            phi_p = float(base_model.excess.dphi(t))
            kap = float(base_model.hazard.hazard(t))
            b1 = aux_eval(base_model, P1, t, y).b
            rhs = (
                -(1 - p) * mu**2 / (2 * p**2 * sig2)
                + (1 - p) * (phi_p * y - mu) ** 2 / (2 * p**2 * sig2)
                + kap * (b1 - 1.0) / p
            )
            assert abs(ev.n - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestImplicitSolve:
    def test_forward_value_inverts(self, base_model):
        assert implicit_solve(base_model, P4, 0.3, 0.875) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_against_bisection_oracle(self, base_model):
        oracle = bisect_target(base_model, P4, 0.3, 1.0, -0.99, 5.0)
        got = implicit_solve(base_model, P4, 0.3, 1.0)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(0.26884286571280, abs=1e-9)

    def test_flat_excess_closed_form(self, zero_profile):
        assert implicit_solve(zero_profile, P4, 0.3, 1.0) == 0.0
        assert implicit_solve(zero_profile, P4, 0.3, 2.0) == pytest.approx(
            2.0**4 - 1.0, rel=1e-12
        )

    def test_rejects_nonpositive_target(self, base_model):
        with pytest.raises(DomainError):
            implicit_solve(base_model, P4, 0.3, 0.0)

    @given(
        t=st.floats(0.0, 0.9),
        target=st.floats(0.05, 3.0),
        p=st.sampled_from([0.25, 1.0, 4.0]),
    )
    def test_residual_tolerance(self, base_model, t, target, p):
        prefs = Preference(p)
        y = implicit_solve(base_model, prefs, t, target)
        assert abs(aux_eval(base_model, prefs, t, y).m - target) <= 1e-12 * max(
            1.0, target
        )

    @given(t=st.floats(0.0, 0.9), y1=st.floats(-0.3, 2.0), y2=st.floats(-0.3, 2.0))
    def test_m_strictly_increasing(self, base_model, t, y1, y2):
        if abs(y1 - y2) < 1e-9:
            return
        lo, hi = sorted((y1, y2))
        assert (
            aux_eval(base_model, P4, t, lo).m < aux_eval(base_model, P4, t, hi).m
        )


class TestMyopicCurve:
    def test_zero_profile_is_zero(self, zero_profile):
        grid = np.linspace(0.0, 0.99, 64)
        ym = myopic_curve(zero_profile, P4, grid)
        assert np.max(np.abs(ym.values)) == 0.0

    def test_time_independent_for_constant_coefficients(self, base_model):
        grid = np.linspace(0.0, 0.99, 64)
        ym = myopic_curve(base_model, P4, grid)
        assert np.ptp(ym.values) <= 1e-12
        assert ym.values[0] == pytest.approx(0.26884286571280, abs=1e-9)

    def test_log_utility_matches_quadratic(self, base_model):
        grid = np.linspace(0.0, 0.99, 64)
        ym = myopic_curve(base_model, P1, grid)
        closed = np.asarray(log_utility_solution(base_model, grid))
        assert np.max(np.abs(ym.values - closed)) <= 1e-10
        assert ym.values[0] == pytest.approx(0.2807764064044151, abs=1e-10)

    def test_nonnegative(self, base_model):
        grid = np.linspace(0.0, 0.999, 256)
        for p in (0.25, 1.0, 4.0):
            ym = myopic_curve(base_model, Preference(p), grid)
            assert np.all(ym.values >= -1e-13)


class TestBracketCurves:
    def test_log_utility_brackets_collapse(self, base_model):
        grid = np.linspace(0.0, 0.99, 32)
        lo, hi = bracket_curves(base_model, P1, grid)
        ym = myopic_curve(base_model, P1, grid)
        assert np.allclose(lo.values, hi.values, atol=1e-12)
        assert np.allclose(lo.values, ym.values, atol=1e-12)

    def test_p4_targets(self, base_model):
        grid = np.array([0.0, 0.5])
        lo, hi = bracket_curves(base_model, P4, grid)
        # upper solves m = 1 (the myopic equation) for p >= 1
        ym = myopic_curve(base_model, P4, grid)
        assert np.allclose(hi.values, ym.values, atol=1e-12)
        target0 = math.exp(-3.0 * 0.01 / (2.0 * 16.0 * 0.04))
        oracle = bisect_target(base_model, P4, 0.0, target0, -0.99, 5.0)
        assert lo.values[0] == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("p", [0.25, 0.7, 1.0, 2.0, 4.0])
    def test_ordering(self, base_model, p):
        grid = np.linspace(0.0, 0.999, 128)
        lo, hi = bracket_curves(base_model, Preference(p), grid)
        assert np.all(lo.values <= hi.values + 1e-12)


class TestOdeRhs:
    def test_zero_profile_flat(self, zero_profile):
        assert ode_rhs(zero_profile, P4, 0.3, 0.0) == 0.0

    def test_constant_solution_has_zero_slope(self, base_model):
        yhat = log_utility_solution(base_model, 0.4)
        assert ode_rhs(base_model, P1, 0.4, yhat) == pytest.approx(0.0, abs=1e-12)

    def test_outside_domain(self, base_model):
        with pytest.raises(DomainError):
            ode_rhs(base_model, P4, 0.3, -1.0)

    def test_solved_curve_self_consistency(self, base_model, base_solution):
        grid = base_solution.grid
        idx = np.arange(40, len(grid) - 40, 29)
        h = 1e-5
        fd = (base_solution.tilt(grid[idx] + h) - base_solution.tilt(grid[idx] - h)) / (
            2.0 * h
        )
        rhs = np.array(
            [
                ode_rhs(base_model, P4, float(grid[j]), float(base_solution.tilt.values[j]))
                for j in idx
            ]
        )
        assert np.max(np.abs(fd - rhs)) <= 1e-4


class TestLogUtilitySolution:
    def test_zero_excess_gives_zero(self, zero_profile):
        assert log_utility_solution(zero_profile, 0.5) == 0.0

    def test_closed_form_value(self, base_model):
        got = log_utility_solution(base_model, 0.25)
        assert got == pytest.approx(0.2807764064044151, abs=1e-12)
        assert got == pytest.approx(implicit_solve(base_model, P1, 0.25, 1.0), abs=1e-10)

    def test_defining_property(self, base_model):
        for t in (0.0, 0.3, 0.7, 0.95):
            y = log_utility_solution(base_model, t)
            assert abs(aux_eval(base_model, P1, t, y).m - 1.0) <= 1e-12


class TestSolveOptimal:
    def test_zero_profile_is_merton(self, zero_profile):
        sol = solve_optimal(zero_profile, P4)
        assert np.max(np.abs(sol.tilt.values)) <= 1e-8
        assert np.max(sol.residuals) <= 1e-10
        # the fraction never touches the tilt when phi' vanishes, so the
        # Merton proportion is recovered exactly
        pi = optimal_fraction(sol, sol.grid)
        assert np.all(pi == sol.merton_fraction)

    def test_log_utility_numeric_matches_closed_form(self, base_model):
        numeric = solve_optimal(base_model, P1)
        closed = np.asarray(log_utility_solution(base_model, numeric.grid))
        assert numeric.method == "fixed_point"
        assert np.max(np.abs(numeric.tilt.values - closed)) <= 1e-8

    def test_p4_bracketed_with_small_residual(self, base_solution):
        sol = base_solution
        assert np.all(sol.lower.values - 1e-12 <= sol.tilt.values)
        assert np.all(sol.tilt.values <= sol.upper.values + 1e-12)
        assert np.max(sol.residuals) <= 1e-8

    def test_terminal_condition(self, base_model, base_solution):
        ev = aux_eval(
            base_model,
            P4,
            float(base_solution.grid[-1]),
            float(base_solution.tilt.values[-1]),
        )
        assert abs(ev.m - 1.0) <= 1e-4

    def test_post_crash_wealth_share_positive(self, base_model, base_solution):
        avals = np.array(
            [
                aux_eval(base_model, P4, float(t), float(y)).a
                for t, y in zip(
                    base_solution.grid[::17], base_solution.tilt.values[::17]
                )
            ]
        )
        assert np.all(avals > 0.0)

    def test_capital_invariance(self, base_model):
        rich = solve_optimal(base_model, Preference(4.0, x=250.0))
        poor = solve_optimal(base_model, Preference(4.0, x=1.0))
        assert np.allclose(rich.tilt.values, poor.tilt.values, atol=1e-12)
        assert np.allclose(
            optimal_fraction(rich, rich.grid), optimal_fraction(poor, poor.grid),
            atol=1e-12,
        )

    def test_solved_tilt_satisfies_certified_bounds(self, base_model, base_solution):
        tilt = TiltFunction(y=lambda t: base_solution.tilt(t), label="solved")
        cert = verify_tilt_bounds(base_model, tilt)
        assert cert is not None
        eps, c = cert
        grid = base_solution.grid
        one_plus = 1.0 + base_solution.tilt.values
        phi_p = np.asarray(base_model.excess.dphi(grid))
        kap = np.asarray(base_model.hazard.hazard(grid))
        slack = np.where((phi_p > 0) & (kap < c * phi_p), c / phi_p, 0.0)
        assert np.all(one_plus >= eps - 1e-12)
        assert np.all(one_plus <= c + slack + 1e-12)

    def test_drift_precondition(self):
        model = MarketModel(
            0.0, 0.2, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(0.2)
        )
        with pytest.raises(DomainError):
            solve_optimal(model, P4)

    def test_invalid_model_rejected(self):
        model = MarketModel(
            0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(1.5)
        )
        with pytest.raises(ModelError):
            solve_optimal(model, P4)


class TestOptimalFraction:
    def test_post_crash_merton(self, base_solution):
        assert optimal_fraction(base_solution, 0.3, crashed=True) == pytest.approx(
            0.625, abs=1e-14
        )

    def test_zero_profile_pre_crash(self, zero_profile):
        sol = solve_optimal(zero_profile, P4)
        assert optimal_fraction(sol, 0.2) == pytest.approx(0.625, abs=1e-12)

    def test_log_utility_level(self, base_model):
        sol = solve_optimal(base_model, P1)
        assert optimal_fraction(sol, 0.3) == pytest.approx(1.0961179679779, abs=1e-9)

    def test_horizon_is_merton(self, base_solution):
        assert optimal_fraction(base_solution, 1.0) == base_solution.merton_fraction


class TestDecompose:
    def test_log_utility_no_hedging(self, base_model):
        _, pi_h = decompose(solve_optimal(base_model, P1))
        assert np.max(np.abs(pi_h.values)) <= 1e-10

    def test_high_risk_aversion_rides_the_bubble(self, base_solution):
        _, pi_h = decompose(base_solution)
        assert np.all(pi_h.values >= -1e-12)

    def test_low_risk_aversion_attacks(self, base_model):
        _, pi_h = decompose(solve_optimal(base_model, PQ))
        assert np.all(pi_h.values <= 1e-12)

    def test_zero_profile(self, zero_profile):
        sol = solve_optimal(zero_profile, P4)
        pi_m, pi_h = decompose(sol)
        assert np.allclose(pi_m.values, sol.merton_fraction, atol=1e-12)
        assert np.max(np.abs(pi_h.values)) <= 1e-12

    def test_myopic_bounded_by_merton(self, base_solution):
        pi_m, _ = decompose(base_solution)
        assert np.all(pi_m.values > 0.0)
        assert np.all(pi_m.values <= base_solution.merton_fraction + 1e-12)
        # equality only where the excess return vanishes; here it never does
        assert np.all(pi_m.values < base_solution.merton_fraction)


class TestDualMultiplier:
    def test_log_utility_unit(self, base_model):
        sol = solve_optimal(base_model, Preference(1.0, x=1.0))
        assert dual_multiplier(sol) == pytest.approx(1.0, rel=1e-10)

    def test_zero_profile_value(self, zero_profile):
        # paper-level identity: with m(0, 0, 4) = 1 the multiplier is
        # exp(-p (1-p) mu^2 T / (2 p^2 sigma^2)) = exp(-0.09375)
        sol = solve_optimal(zero_profile, Preference(4.0, x=1.0))
        assert dual_multiplier(sol) == pytest.approx(math.exp(-0.09375), rel=1e-9)

    def test_capital_scaling(self, base_model):
        z1 = dual_multiplier(solve_optimal(base_model, Preference(4.0, x=1.0)))
        z2 = dual_multiplier(solve_optimal(base_model, Preference(4.0, x=2.0)))
        assert z2 == pytest.approx(z1 * 2.0**-4.0, rel=1e-12)


def test_linear_ramp_scenario_solves():
    model = MarketModel(
        0.3, 0.05, ExponentialCutoffHazard(1.0, 1.0), LinearRampExcess(0.2)
    )
    sol = solve_optimal(model, P4)
    assert np.max(sol.residuals) <= 1e-8
    assert np.max(optimal_fraction(sol, sol.grid)) > sol.merton_fraction


EXP_LAW = ExponentialCutoffHazard(1.0, 1.0)

# CE from the earlier stiffness-damped fixed point run to tol=1e-15 with
# max_iter=3000 (maximum residual 6e-13 over the benchmark grid), as
# (mu, sigma, alpha, p): CE.  That iteration stopped at tol=1e-10 is up to
# 1.8e-9 away from these values.
TIGHT_CE = {
    (0.1, 0.2, 0.2, 4.0): 1.0218781292446106,
    (0.1, 0.2, 0.2, 0.25): 1.30274691773711,
    (0.3, 0.1, 0.8, 0.25): 12086147.400679715,
    (0.2, 0.1, 0.8, 4.0): 1.2195295011337324,
    (0.3, 0.1, 0.8, 4.0): 1.5456577188584248,
}


class TestFixedPoint:
    def test_baseline_p4_sweeps_and_residual(self, base_solution):
        assert base_solution.method == "fixed_point"
        assert base_solution.iterations <= 12
        assert np.max(base_solution.residuals) <= 1e-10

    @pytest.mark.parametrize("key", sorted(TIGHT_CE))
    def test_certainty_equivalent_matches_tight_reference(self, key):
        mu, sigma, alpha, p = key
        sol = solve_optimal(MarketModel(mu, sigma, EXP_LAW, ConstantExcess(alpha)), Preference(p))
        assert np.max(sol.residuals) <= 1e-10
        assert certainty_equivalent(sol) == pytest.approx(TIGHT_CE[key], rel=1e-10, abs=0.0)

    def test_nonconvergence_names_the_last_residual(self, base_model):
        with pytest.raises(SolverError, match=r"did not converge in 3 sweeps \(last residual ") as err:
            solve_optimal(base_model, P4, max_iter=3)
        assert err.value.residuals.shape == (512,)

    @pytest.mark.parametrize("power", [-0.1, -0.3, -0.6])
    @pytest.mark.parametrize("delta0", [0.1, 0.5])
    @pytest.mark.parametrize("p", [0.5, 4.0])
    def test_singular_lppl_stalls_into_the_residual_check(self, power, delta0, p):
        # the residual floor is discretization error near the horizon: the
        # fixed point stalls there and the residual check raises, long
        # before the sweep budget runs out
        law = LPPLHazard(power=power, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)
        model = MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, delta0))
        with pytest.raises(SolverError, match="^integral-equation residual "):
            solve_optimal(model, Preference(p))


UNIFORM = UniformHazard(1.0)


@pytest.mark.parametrize(
    "model",
    [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
    ],
    ids=["exp", "uniform0.9"],
)
@pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
def test_solution_carries_the_myopic_curve(model, p):
    sol = solve_optimal(model, Preference(p))
    cold = myopic_curve(model, Preference(p), sol.grid)
    assert np.array_equal(sol.myopic.values, cold.values)
    assert sol.myopic is (sol.lower if p < 1.0 else sol.upper)
    denom = p * model.sigma**2
    phi_p = np.asarray(model.excess.dphi(sol.grid))
    pi_m, _ = decompose(sol)
    assert np.array_equal(pi_m.values, (model.mu - phi_p * cold.values) / denom)
    t = np.linspace(0.0, 1.0, 33)
    phi_t = np.asarray(model.excess.dphi(np.minimum(t, sol.grid[-1])))
    expected = (model.mu - phi_t * cold(t)) / denom
    assert np.array_equal(myopic_only_strategy(sol).pre(t), expected)


NEAR_LOG = [1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.0 + 1e-6]


@pytest.mark.parametrize("p", NEAR_LOG, ids=[f"p{p!r}" for p in NEAR_LOG])
def test_one_solve_path_next_to_log_utility(base_model, p):
    # the fixed point solves every p; at p = 1 it reproduces the closed form
    sol = solve_optimal(base_model, Preference(p))
    assert sol.method == "fixed_point"
    assert np.max(sol.residuals) <= 1e-8
    ce_log = certainty_equivalent(solve_optimal(base_model, P1))
    if p == 1.0:
        closed = np.asarray(log_utility_solution(base_model, sol.grid))
        assert np.max(np.abs(sol.tilt.values - closed)) <= 1e-12
    elif p in (1.0 - 5e-7, 1.0 + 5e-7):
        assert abs(certainty_equivalent(sol) / ce_log - 1.0) <= 1e-7
