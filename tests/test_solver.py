import math
import warnings

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
    optimal_fraction,
    solve_optimal,
    verify_tilt_bounds,
)
from bubblemkt import _quad, solver
from bubblemkt.elmm import TiltFunction

EPS = np.finfo(float).eps
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

    def test_nan_tilt_is_a_domain_error(self, base_model):
        # NaN passed the y >= -1 check and came back as NaN fields
        with pytest.raises(DomainError, match="^y must be >= -1$"):
            aux_eval(base_model, P4, 0.3, np.array([0.0, np.nan]))

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

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_dn_dy_matches_finite_differences(self, base_model, p):
        # the closed form needs delta = phi'/kappa, which every model has
        uniform = UniformHazard(1.0)
        models = (
            base_model,
            MarketModel(0.1, 0.2, uniform, linear_delta_excess(uniform, 0.9)),
            _singular_lppl(-0.1, 0.5),
        )
        prefs, h = Preference(p), 1e-6
        rng = np.random.default_rng(7)
        for model in models:
            for t in rng.uniform(0.0, 0.95, 20):
                y = float(rng.uniform(max(lower_boundary(model, prefs, t), -0.9) + 0.05, 3.0))
                fd = (
                    aux_eval(model, prefs, t, y + h).n - aux_eval(model, prefs, t, y - h).n
                ) / (2.0 * h)
                analytic = aux_eval(model, prefs, t, y).dn_dy
                assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)

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

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_rejects_a_target_that_is_no_positive_float(self, base_model, target):
        # NaN ran all Newton steps and returned NaN; inf warned from log(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^target must be positive and finite$"):
                implicit_solve(base_model, P4, 0.5, target)

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


class TestDifferentialForm:
    def test_log_m_slope_is_n(self, base_model, base_solution):
        # m(t, y(t)) = exp(-int_t^T n) differentiates to d/dt log m = n
        for sol in (solve_optimal(base_model, PQ), base_solution):
            prefs, grid, h = sol.preference, sol.grid, 1e-5

            def log_m(t):
                return math.log(aux_eval(base_model, prefs, t, float(sol.tilt(t))).m)

            gaps = [
                (log_m(float(t) + h) - log_m(float(t) - h)) / (2.0 * h)
                - aux_eval(base_model, prefs, float(t), float(y)).n
                for t, y in zip(grid[40:-40:29], sol.tilt.values[40:-40:29])
            ]
            assert np.max(np.abs(gaps)) <= 1e-5, prefs.p


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
        assert numeric.method == "newton"
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

    @pytest.mark.parametrize("crashed", [False, True])
    def test_nan_time_is_a_domain_error(self, base_solution, crashed):
        # NaN < T is false, so a NaN time read the Merton fraction 0.625
        with pytest.raises(DomainError, match="^t must not be NaN$"):
            optimal_fraction(base_solution, np.array([0.3, np.nan]), crashed=crashed)


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
        assert base_solution.method == "newton"
        assert base_solution.iterations <= 12
        assert np.max(base_solution.residuals) <= 1e-10

    @pytest.mark.parametrize("key", sorted(TIGHT_CE))
    def test_certainty_equivalent_matches_tight_reference(self, key):
        mu, sigma, alpha, p = key
        sol = solve_optimal(MarketModel(mu, sigma, EXP_LAW, ConstantExcess(alpha)), Preference(p))
        assert np.max(sol.residuals) <= 1e-10
        assert certainty_equivalent(sol) == pytest.approx(TIGHT_CE[key], rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p", [0.25, 4.0])
    def test_newton_step_solves_the_trapezoid_jacobian(self, base_model, p):
        _check_newton_step(base_model, p, 24)

    @pytest.mark.parametrize("p", [0.25, 4.0])
    @pytest.mark.parametrize("stiff", ["uniform1.0", "lppl-0.1"])
    def test_newton_step_solves_stiff_jacobians(self, stiff, p):
        # a hazard that blows up at the horizon makes N, and so the scan's
        # factors, span many decades over the last nodes
        if stiff == "uniform1.0":
            model = MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 1.0))
        else:
            model = _singular_lppl(-0.1, 0.1)
        _check_newton_step(model, p, 512)

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_newton_evaluates_each_iterate_once(self, base_model, p, monkeypatch):
        # the start and every trial iterate are evaluated once, with one
        # n(t, y) from the per-node forms: the accepted trial's m_y/m and n_y
        # feed the next step
        calls = {"_evaluate": 0, "_newton_step": 0, "_aux_n": 0}
        in_newton = []
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(solver, name)):
                calls[_name] += bool(in_newton)
                return _fn(*args)

            monkeypatch.setattr(solver, name, counted)

        def newton(*args, _fn=solver._newton):
            in_newton.append(True)
            try:
                return _fn(*args)
            finally:
                in_newton.clear()

        monkeypatch.setattr(solver, "_newton", newton)
        sol = solve_optimal(base_model, Preference(p))
        # no step is halved on the baseline, so each step makes one trial
        assert calls["_newton_step"] == sol.iterations - 1
        assert calls["_evaluate"] == 1 + calls["_newton_step"]
        assert calls["_aux_n"] == calls["_evaluate"]

    def test_nonconvergence_names_the_last_residual(self, base_model, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 1)
        with pytest.raises(
            SolverError,
            match=r"^integral-equation residual \S+ above tol 1\.0e-10 after 1 Newton iterations$",
        ) as err:
            solve_optimal(base_model, P4)
        assert err.value.residuals.shape == (512,)

    @pytest.mark.parametrize("power", [-0.1, -0.3, -0.6])
    @pytest.mark.parametrize("delta0", [0.1, 0.5])
    @pytest.mark.parametrize("p", [0.5, 4.0])
    def test_singular_lppl_stalls_into_the_residual_check(self, power, delta0, p):
        # not a discretization floor: the discrete solution leaves the
        # brackets in the last nodes while Newton's iterates stay inside
        # them, so the iteration stalls and the residual check raises
        with pytest.raises(SolverError, match="^integral-equation residual "):
            solve_optimal(_singular_lppl(power, delta0), Preference(p))

    @pytest.mark.parametrize("delta0", [0.1, 0.5])
    @pytest.mark.parametrize("p", [0.5, 4.0])
    def test_singular_lppl_solves_on_a_finer_grid(self, delta0, p):
        # at 2048 nodes the discrete solution of power -0.1 lies inside the
        # brackets, and the certainty equivalent has settled
        model, prefs, tol = _singular_lppl(-0.1, delta0), Preference(p), 1e-10
        sol = solve_optimal(model, prefs, n_grid=2048, tol=tol)
        assert np.max(sol.residuals) <= tol
        assert np.all(sol.lower.values - 1e-12 <= sol.tilt.values)
        assert np.all(sol.tilt.values <= sol.upper.values + 1e-12)
        fine = certainty_equivalent(solve_optimal(model, prefs, n_grid=4096, tol=tol))
        assert abs(certainty_equivalent(sol) / fine - 1.0) <= 1e-9

    @pytest.mark.parametrize("delta0", [0.1, 0.5])
    @pytest.mark.parametrize("p", [0.5, 4.0])
    def test_terminal_tail_of_a_singular_hazard(self, delta0, p, monkeypatch):
        # as kappa -> inf on m = 1, phi' y -> mu and kappa (b - 1) -> 0, so the
        # sliver integral tends to -rate (T - t_end); with b - 1 formed from a,
        # kappa (~1e20 in the last shells) amplified a's rounding 1.6e-4 off
        model = _singular_lppl(-0.6, delta0)
        grid = solver._solver_grid(model, 512)
        y_end = solver.myopic_curve(model, Preference(p), grid).values[-1]
        integrate, results = solver.integrate_toward, []

        def spy(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(solver, "integrate_toward", spy)
        tail = solver._terminal_tail(model, Preference(p), float(grid[-1]), float(y_end))
        rate = (1.0 - p) * model.mu**2 / (2.0 * p**2 * model.sigma**2)
        (res,) = results
        assert res.status == solver.CONVERGED and res.shells <= 8
        assert abs(tail / (-rate * (model.horizon - grid[-1])) - 1.0) <= 1e-6

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_solve_inverts_once(self, base_model, p, monkeypatch):
        # one inversion: m = 1 at the 512 grid nodes and the 8 x 15 nodes of
        # the sliver's first shell batch, the growth target at the grid nodes;
        # at log utility, which has no sliver, m = 1 at the grid nodes alone.
        # The sliver needs no later batch here
        sizes, inverse = [], solver._implicit_many

        def counting(*args, **kwargs):
            sizes.append(args[1].size)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(solver, "_implicit_many", counting)
        solve_optimal(base_model, Preference(p))
        assert sizes == [512 if p == 1.0 else 512 + 120 + 512]

    @pytest.mark.parametrize("p", [0.25, 4.0])
    def test_sliver_tail_matches_the_lazy_path(self, base_model, p, monkeypatch):
        # one shell per batch: the solve supplies the first shell from its one
        # inversion and the later ones are inverted lazily from y(t_end); the
        # tail with every shell lazy differs only by rounding
        monkeypatch.setattr(_quad, "_SHELL_BATCH", 1)
        tail, integrate, seen, shells = solver._terminal_tail, solver.integrate_toward, [], []

        def spy(*args):
            seen.append((args[:4], tail(*args)))
            return seen[-1][1]

        def counting(*args, **kwargs):
            res = integrate(*args, **kwargs)
            shells.append(res.shells)
            return res

        monkeypatch.setattr(solver, "_terminal_tail", spy)
        monkeypatch.setattr(solver, "integrate_toward", counting)
        solve_optimal(base_model, Preference(p))
        ((args, supplied),) = seen
        lazy = tail(*args)
        assert shells[0] > 1  # later batches ran
        assert abs(supplied - lazy) <= 1e-15 * abs(lazy)


def _check_newton_step(model, p, n_grid):
    # the scan against a dense solve of (diag(m_y/m) + W diag(n_y)) d = -F,
    # W the trapezoid rule to the right
    grid = solver._solver_grid(model, n_grid)
    c = solver._Coef(model, p, grid)
    rng = np.random.default_rng(3)
    y = solver._implicit_many(c, rng.uniform(0.5, 2.0, grid.size))
    F = rng.standard_normal(grid.size)
    half = 0.5 * np.diff(grid)
    W = np.zeros((grid.size, grid.size))
    for i in range(grid.size - 1):
        W[: i + 1, i] += half[i]
        W[: i + 1, i + 1] += half[i]
    _, m, m_y = solver._aux_m_dm(c.a0, c.slope, p, y)
    L = m_y / m
    J = np.diag(L) + W * solver._aux_dn_dy(c, y)
    expected = np.linalg.solve(J, -F)
    got = solver._newton_step(*solver._evaluate(c, solver.panel_rule(grid), y, 0.0)[3:], F, half)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _singular_lppl(power, delta0):
    law = LPPLHazard(power=power, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)
    return MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, delta0))


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


LPPL_04 = LPPLHazard(power=0.4, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)


@pytest.mark.parametrize(
    "model",
    [
        MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
        MarketModel(0.1, 0.2, LPPL_04, ConstantJumpSizeExcess(LPPL_04, 0.3)),
    ],
    ids=["exp", "uniform0.9", "lppl0.4"],
)
def test_log_utility_builds_no_sliver(model, monkeypatch):
    # on m = 1 at p = 1 the sliver's integrand is 0 exactly, so the solve
    # integrates none, even where kappa blows up inside it, and returns its
    # myopic start
    calls = []
    monkeypatch.setattr(solver, "integrate_toward", lambda *args, **kw: calls.append(args))
    sol = solve_optimal(model, P1)
    assert calls == [] and sol.iterations == 1
    assert np.array_equal(sol.tilt.values, myopic_curve(model, P1, sol.grid).values)


NEAR_LOG = [1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.0 + 1e-6]


@pytest.mark.parametrize("p", NEAR_LOG, ids=[f"p{p!r}" for p in NEAR_LOG])
def test_one_solve_path_next_to_log_utility(base_model, p):
    # one Newton solve serves every p; at p = 1 it reproduces the closed form
    sol = solve_optimal(base_model, Preference(p))
    assert sol.method == "newton"
    assert np.max(sol.residuals) <= 1e-8
    ce_log = certainty_equivalent(solve_optimal(base_model, P1))
    if p == 1.0:
        closed = np.asarray(log_utility_solution(base_model, sol.grid))
        assert np.max(np.abs(sol.tilt.values - closed)) <= 1e-12
    elif p in (1.0 - 5e-7, 1.0 + 5e-7):
        assert abs(certainty_equivalent(sol) / ce_log - 1.0) <= 1e-7


class TestToleranceContract:
    """A solve returns a curve exactly when its residual meets ``tol``."""

    def test_overflowing_growth_bound_raises(self, base_model):
        # rate T = (1 - p) mu^2 / (2 p^2 sigma^2) = 1237.5 at p = 0.01, so
        # exp(rate T) is no float; the solve names it before any inversion
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"rate \* T = 1237\.5 exceeds 709\.783"):
                solve_optimal(base_model, Preference(0.01))

    @pytest.mark.parametrize("p, tol", [(4.0, 1e-4), (0.25, 1e-6)])
    def test_loose_tol_is_met(self, base_model, p, tol):
        sol = solve_optimal(base_model, Preference(p), tol=tol)
        assert np.max(sol.residuals) <= tol

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_tol_outside_the_positive_floats_is_a_domain_error(self, base_model, tol):
        # not a solver failure: a nan tol had read "residual 1.486e-16 above tol nan"
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            solve_optimal(base_model, P4, tol=tol)

    def test_unreachable_tol_raises(self, base_model):
        # no float residual profile meets 1e-300; 1e-16 lies near the rounding floor
        with pytest.raises(SolverError, match=r"^integral-equation residual \S+ above tol 1\.0e-300 ") as err:
            solve_optimal(base_model, P4, tol=1e-300)
        assert err.value.residuals.shape == (512,)
        assert np.max(err.value.residuals) > 1e-300

    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10, 1e-13, 1e-16])
    @pytest.mark.parametrize(
        "mu, sigma, alpha, p",
        [
            (mu, sigma, alpha, p)
            for mu in (0.05, 0.2)
            for sigma in (0.1, 0.4)
            for alpha in (0.1, 0.8)
            for p in (0.25, 1.0, 4.0)
        ],
    )
    def test_returns_within_tol_or_raises(self, mu, sigma, alpha, p, tol):
        model = MarketModel(mu, sigma, EXP_LAW, ConstantExcess(alpha))
        try:
            sol = solve_optimal(model, Preference(p), tol=tol)
        except SolverError as err:
            # every tolerance down to the default is reached on this family
            assert tol < 1e-10
            assert np.max(err.residuals) > tol
            return
        assert np.max(sol.residuals) <= tol


def _solution_bits(sol):
    curves = (sol.tilt, sol.lower, sol.upper, sol.myopic)
    scalars = np.array([sol.m_start, certainty_equivalent(sol)])
    return [c.values.tobytes() for c in curves] + [
        sol.residuals.tobytes(), sol.iterations, scalars.tobytes()]


BASELINE = MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2))


class TestGridScaffold:
    """A solve's grid, half-widths, panel rule and sliver shells are built
    once per (T, n_grid) and shared, read-only, by later solves."""

    @pytest.mark.parametrize("n_grid", [600.5, 3, 1, 0, -5, True, False, math.nan, math.inf, "512", None])
    def test_n_grid_that_is_no_integer_from_4_is_a_domain_error(self, n_grid):
        # these had read "grid must be strictly increasing", PanelRule's "need a
        # 1-d grid" or clustered_grid's "grid needs at least 2 points"
        with pytest.raises(DomainError, match="n_grid must be an integer >= 4"):
            solve_optimal(BASELINE, P4, n_grid=n_grid)

    @pytest.mark.parametrize("n_grid", [512.0, np.int64(512), np.float64(512.0)])
    def test_integral_n_grid_of_another_type_solves_as_its_int(self, n_grid):
        assert _solution_bits(solve_optimal(BASELINE, P4, n_grid=n_grid)) == _solution_bits(
            solve_optimal(BASELINE, P4, n_grid=512))

    @pytest.mark.parametrize(
        "model, p",
        [
            (BASELINE, 0.25),
            (BASELINE, 1.0),
            (BASELINE, 4.0),
            (MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)), 4.0),
            (MarketModel(0.1, 0.2, LPPL_04, ConstantJumpSizeExcess(LPPL_04, 0.3)), 0.25),
        ],
        ids=["exp-p0.25", "exp-p1", "exp-p4", "uniform0.9-p4", "lppl0.4-p0.25"],
    )
    def test_a_warm_scaffold_gives_the_bits_of_a_cold_one(self, model, p):
        solver._scaffold.cache_clear()
        cold = solve_optimal(model, Preference(p))
        assert solver._scaffold.cache_info().currsize == 1
        warm = solve_optimal(model, Preference(p))
        assert solver._scaffold.cache_info().hits >= 1
        assert _solution_bits(warm) == _solution_bits(cold)
        for a, b in zip(decompose(warm), decompose(cold)):
            assert a.values.tobytes() == b.values.tobytes()

    def test_interleaved_grids_give_the_bits_of_each_alone(self):
        keys = [(T, n) for T in (1.0, 2.0) for n in (512, 4096)]
        models = {T: MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, T), ConstantExcess(0.2))
                  for T in (1.0, 2.0)}
        alone = {}
        for T, n in keys:
            solver._scaffold.cache_clear()
            alone[T, n] = _solution_bits(solve_optimal(models[T], P4, n_grid=n))
        solver._scaffold.cache_clear()
        for T, n in keys + keys[::-1] + keys:
            assert _solution_bits(solve_optimal(models[T], P4, n_grid=n)) == alone[T, n]

    def test_shared_arrays_are_read_only(self):
        solver._scaffold.cache_clear()
        sol = solve_optimal(BASELINE, P4)
        grid, half, rule, (widths, nodes) = solver._scaffold(1.0, 512)
        assert grid is sol.grid is sol.tilt.grid and rule is solver.panel_rule(grid)
        for v in (grid, half, widths, nodes):
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.5
        assert np.array_equal(sol.grid, _quad.clustered_grid(1.0 - solver.TERMINAL_CLIP_FRACTION, 512))

    def test_the_cache_keeps_eight_grids(self):
        solver._scaffold.cache_clear()
        for n in range(4, 14):
            solver._solver_grid(BASELINE, n)
        info = solver._scaffold.cache_info()
        assert info.maxsize == 8 and info.currsize == 8 and info.misses == 10

    @pytest.mark.parametrize("p", [0.25, 4.0])
    @pytest.mark.parametrize(
        "model",
        [BASELINE, MarketModel(0.1, 0.2, LPPL_04, ConstantJumpSizeExcess(LPPL_04, 0.3))],
        ids=["exp", "lppl0.4"],
    )
    def test_newton_reads_both_maxima_at_the_extremes_of_F(self, model, p, monkeypatch):
        # the halving and stopping tests read max |F| and max |e^F - 1| from
        # F.max() and F.min(); both must be the bits of the full profiles'
        seen, evaluate = [], solver._evaluate

        def spy(*args):
            seen.append(evaluate(*args))
            return seen[-1]

        monkeypatch.setattr(solver, "_evaluate", spy)
        solve_optimal(model, Preference(p))
        assert len(seen) > 1
        for F, worst, top, *_ in seen:
            assert np.float64(worst).tobytes() == np.abs(F).max().tobytes()
            assert np.float64(top).tobytes() == np.abs(np.expm1(F)).max().tobytes()


def _growth_bound_models():
    lppl = LPPLHazard(power=-0.3, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)
    return {
        "exp": MarketModel(0.1, 0.2, EXP_LAW, ConstantExcess(0.2)),
        "exp-steep": MarketModel(0.2, 0.2, EXP_LAW, ConstantExcess(0.8)),
        # a = 1/2 at y = 0 when p = 30: the (2f)^p bound is tight there
        "exp-tight": MarketModel(0.12, 0.08, EXP_LAW, ConstantExcess(0.8)),
        "ramp": MarketModel(0.2, 0.2, EXP_LAW, LinearRampExcess(0.2)),
        "uniform": MarketModel(0.1, 0.2, UNIFORM, linear_delta_excess(UNIFORM, 0.9)),
        "lppl": MarketModel(0.1, 0.2, lppl, ConstantJumpSizeExcess(lppl, 0.5)),
    }


def _growth_bound_points(model, p):
    """Coefficients and targets, a point each: constant targets from 1e-8 to
    1e8 (1 among them) and the upper bracket's at the 65 nodes with phi' > 0
    (nodes with phi' = 0 invert in closed form)."""
    c = solver._Coef(model, p, solver._solver_grid(model, 65))
    rate = (1.0 - p) * model.mu**2 / (2.0 * p**2 * model.sigma**2)
    targets = [np.broadcast_to(v, c.t.shape) for v in np.logspace(-8.0, 8.0, 65)]
    f = np.concatenate([*targets, np.exp(rate * (model.horizon - c.t))])
    at = c.take(np.arange(f.size) % c.t.size)  # point k belongs to node k mod n
    live = at.phi_p > 0.0
    return at.take(live), f[live]


def _float_key(x):
    # an integer for each float, in the floats' order
    bits = np.asarray(x, dtype=float).view(np.int64)
    size = bits & np.int64(2**63 - 1)
    return np.where(bits < 0, -size, size)


def _key_float(k):
    return np.where(k < 0, -k | np.int64(-(2**63)), k).view(np.float64)


def _crossing(m, lo, hi, f):
    """The least float y in (lo, hi] with m(y) >= f, by bisection over the
    floats themselves, so it lands on the float where m crosses f."""
    a, b = _float_key(lo), _float_key(hi)
    while (b > a + 1).any():
        mid = a // 2 + b // 2 + (a % 2 + b % 2) // 2
        up = m(_key_float(mid)) >= f
        a, b = np.where(up, a, mid), np.where(up, mid, b)
    return _key_float(b)


@pytest.mark.parametrize("name", sorted(_growth_bound_models()))
@pytest.mark.parametrize("p", [0.05, 0.25, 1.0, 4.0, 30.0])
def test_growth_bound_encloses_the_root(name, p):
    # the inversion keeps no upper bracket; the growth bound that was one,
    # (2f)^p + 1 where phi' <= p sigma^2 kappa / (2 mu), else
    # max(f^p, mu/phi') + 1, still encloses the root and brackets the oracle
    model = _growth_bound_models()[name]
    at, f = _growth_bound_points(model, p)
    lo = solver._aux_floor(at)
    small = at.phi_p <= at.sig2p * at.kap / (2.0 * model.mu)
    hi = np.where(small, (2.0 * f) ** p, np.maximum(f**p, model.mu / at.phi_p)) + 1.0
    assert np.all(solver._aux_m_dm(at.a0, at.slope, p, hi)[1] > f)
    root = _crossing(lambda y: solver._aux_m_dm(at.a0, at.slope, p, y)[1], lo, hi, f)
    # one unit: an ulp of the root, or the width of the set where m rounds to f;
    # m here rounds as its logs do, within eps (1 + |log f|), and as
    # a = a0 + a_y y does, whose terms cancel next to the boundary
    a, m, m_y = solver._aux_m_dm(at.a0, at.slope, p, root)
    rounding = EPS * (2.0 + np.abs(np.log(f)) + np.abs(1.0 - a) / a)
    unit = np.maximum(EPS * np.maximum(1.0, np.abs(root)), rounding * m / m_y)
    # the default start, starts just above the boundary and far right of the root
    above = lo + 1e-9 * np.maximum(1.0, np.abs(lo))
    for x0 in (None, above, root + 1e3 * np.maximum(1.0, np.abs(root))):
        got = solver._implicit_many(at, f, x0)
        assert np.all(np.abs(got - root) <= 4.0 * unit)


@pytest.mark.parametrize("name", sorted(_growth_bound_models()))
@pytest.mark.parametrize("p", [0.05, 0.25, 1.0, 4.0, 30.0])
def test_lower_boundary_is_the_inversions_boundary(name, p):
    # m vanishes on lower_boundary and is positive above it, so no target
    # inverts below it, not even one next to 0; and m(t, -1) is exactly 0
    model, prefs = _growth_bound_models()[name], Preference(p)
    grid = solver._solver_grid(model, 512)
    floor = lower_boundary(model, prefs, grid)
    for target in (1e-300, 1e-30, 1e-8):
        assert np.all(implicit_solve(model, prefs, grid, np.full(grid.size, target)) >= floor)
    assert np.all(aux_eval(model, prefs, grid, -1.0).m == 0.0)


@pytest.mark.parametrize("name", sorted(_growth_bound_models()))
@pytest.mark.parametrize("p", [0.05, 0.25, 1.0, 4.0, 30.0])
def test_newton_points_stopped_on_the_bound_resolve_their_target(name, p, monkeypatch):
    # from h = log(m/f) in [-sqrt(eps / max(1, p)), 0) the inversion returns
    # the Newton point unevaluated, as max(1, p) h^2 / 2 bounds its |h|;
    # evaluated, that |h| is within the stop width 4 ulps of 1 + |log f|, or
    # within what one ulp of y moves h where y cannot resolve h further
    model = _growth_bound_models()[name]
    at, f = _growth_bound_points(model, p)
    y_a, scale, ip = -at.a0 / at.slope, at.slope / f, 1.0 / p
    tol = 4.0 * EPS * (1.0 + np.abs(np.log(f)))
    evaluate, stepped_from = solver._log_m_step, {}  # Newton point -> (h, step, y) it came from

    def recording(y, *args):
        h, step = evaluate(y, *args)
        stepped_from.update(zip((y - step).tolist(), zip(h.tolist(), step.tolist(), y.tolist())))
        return h, step

    monkeypatch.setattr(solver, "_log_m_step", recording)
    lo, stopped = solver._aux_floor(at), 0
    for x0 in (None, lo + 1e-9 * np.maximum(1.0, np.abs(lo)), 1e3 * np.maximum(1.0, np.abs(lo))):
        stepped_from.clear()
        got = solver._implicit_many(at, f, x0)
        # a point retaken below the boundary is no Newton point: NaN, never on the bound
        h_from, step, y_from = np.array([stepped_from.get(y, (np.nan,) * 3) for y in got.tolist()]).T
        # returned unevaluated from h < -tol, and not for a step within 4 ulps of y
        on_bound = (h_from < -tol) & (np.abs(step) > 4.0 * EPS * np.abs(y_from))
        y = got[on_bound]
        h, _ = evaluate(y, y_a[on_bound], scale[on_bound], ip)
        slope = ip / (1.0 + y) + 1.0 / (y - y_a[on_bound])
        assert np.all(np.abs(h) <= np.maximum(tol[on_bound], slope * np.spacing(np.abs(y))))
        stopped += on_bound.sum()
    assert stopped > 0
