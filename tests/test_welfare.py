import math

import numpy as np
import pytest

import bubblemkt.welfare as wf
from bubblemkt import (
    ConstantExcess,
    ConstantJumpSizeExcess,
    DomainError,
    ExponentialCutoffHazard,
    LPPLHazard,
    MarketModel,
    Preference,
    SolverError,
    ZeroExcess,
    certainty_equivalent,
    safe_rates,
    solve_optimal,
    welfare_from_curve,
    xihat_identity_check,
)
from bubblemkt import _quad
from bubblemkt._quad import CONVERGED, INDETERMINATE, ShellIntegral
from bubblemkt.cli import main
from bubblemkt.welfare import black_scholes_ce


@pytest.fixture(scope="module")
def zero_profile():
    return MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), ZeroExcess())


class TestCertaintyEquivalent:
    def test_zero_profile_power_is_merton_benchmark(self, zero_profile):
        sol = solve_optimal(zero_profile, Preference(4.0, x=1.0))
        assert certainty_equivalent(sol) == pytest.approx(
            math.exp(0.03125), rel=1e-9
        )

    def test_zero_profile_log(self, zero_profile):
        sol = solve_optimal(zero_profile, Preference(1.0, x=1.0))
        assert certainty_equivalent(sol) == pytest.approx(
            math.exp(0.01 / (2 * 0.04)), rel=1e-9
        )

    def test_bubble_discount_is_strict(self, base_model):
        for p in (0.25, 1.0, 4.0):
            sol = solve_optimal(base_model, Preference(p))
            assert certainty_equivalent(sol) < black_scholes_ce(
                base_model, sol.preference
            )

    def test_capital_scales_linearly(self, base_model):
        ce1 = certainty_equivalent(solve_optimal(base_model, Preference(4.0, x=1.0)))
        ce3 = certainty_equivalent(solve_optimal(base_model, Preference(4.0, x=3.0)))
        assert ce3 == pytest.approx(3.0 * ce1, rel=1e-12)

    def test_log_utility_continuity(self, base_model):
        # the power formula must glide into the log formula through p = 1
        ce_log = certainty_equivalent(solve_optimal(base_model, Preference(1.0)))
        for p in (1.0 + 1e-4, 1.0 - 1e-4):
            ce_p = certainty_equivalent(solve_optimal(base_model, Preference(p)))
            assert abs(ce_p / ce_log - 1.0) <= 1e-3


class TestLogUtilityTail:
    """The sliver between the solver grid and the horizon is integrated
    along the closed-form p = 1 curve, and its certificate is never dropped."""

    def test_singular_lppl_tail_converges(self, monkeypatch):
        law = LPPLHazard(power=0.4, horizon=1.0, b=1.2, c=0.3, omega=6.0, phase=0.5)
        sol = solve_optimal(MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, 0.3)), Preference(1.0))
        statuses, integrate = [], wf.integrate_toward

        def recording(*args, **kwargs):
            res = integrate(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(wf, "integrate_toward", recording)
        assert math.isfinite(certainty_equivalent(sol))
        assert statuses == [CONVERGED]

    def test_uncertified_tail_raises(self, base_model, tmp_path, capsys, monkeypatch):
        sol = solve_optimal(base_model, Preference(1.0))
        monkeypatch.setattr(
            wf, "integrate_toward", lambda *a, **k: ShellIntegral(0.0, INDETERMINATE, 60, 1.0)
        )
        with pytest.raises(SolverError, match="indeterminate"):
            certainty_equivalent(sol)
        path = tmp_path / "scenario.json"
        path.write_text('{"preference": {"p": 1.0}}')
        assert main(["welfare", "--scenario", str(path)]) == 3
        assert capsys.readouterr().err.startswith("ERROR code=3 kind=solver")


class TestSafeRates:
    def test_zero_profile_no_loss(self, zero_profile):
        report = safe_rates(solve_optimal(zero_profile, Preference(4.0)))
        assert report.relative_loss == pytest.approx(0.0, abs=1e-8)

    def test_benchmark_rate(self, base_model):
        report = safe_rates(solve_optimal(base_model, Preference(4.0)))
        assert report.esr_benchmark == pytest.approx(0.03125, abs=1e-15)

    def test_loss_increases_with_jump_size(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        losses = []
        for alpha in (0.1, 0.2, 0.4, 0.8):
            model = MarketModel(0.1, 0.2, law, ConstantExcess(alpha))
            losses.append(safe_rates(solve_optimal(model, Preference(4.0))).relative_loss)
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_loss_invariant_under_capital(self, base_model):
        r1 = safe_rates(solve_optimal(base_model, Preference(4.0, x=1.0)))
        r9 = safe_rates(solve_optimal(base_model, Preference(4.0, x=9.0)))
        assert r1.relative_loss == pytest.approx(r9.relative_loss, rel=1e-12)

    def test_combined_loss_factor_below_one_for_low_p(self, base_model):
        sol = solve_optimal(base_model, Preference(0.25))
        assert sol.m_start >= 1.0
        factor = sol.m_start ** (-0.25 / 0.75)
        assert factor <= 1.0


class TestWelfareFromCurve:
    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_round_trip_from_solution_grid(self, base_model, p):
        sol = solve_optimal(base_model, Preference(p))
        direct = safe_rates(sol)
        rebuilt = welfare_from_curve(
            base_model, sol.preference, sol.grid, sol.tilt.values
        )
        assert rebuilt.certainty_equivalent == pytest.approx(
            direct.certainty_equivalent, rel=1e-10
        )
        assert rebuilt.relative_loss == pytest.approx(direct.relative_loss, rel=1e-8)

    @pytest.mark.parametrize("p", [1.0, 4.0])
    def test_curve_not_from_zero_is_refused(self, base_model, p):
        # m at grid[0] = 0.70819 is no m(0, y(0)): the CE read 1.027577 for
        # 1.021878 at p 4 and 1.123631 for 1.085706 at p 1
        sol = solve_optimal(base_model, Preference(p))
        with pytest.raises(DomainError, match=r"not at grid\[0\] = 0\.70819"):
            welfare_from_curve(
                base_model, sol.preference, sol.grid[256:], sol.tilt.values[256:]
            )

    @pytest.mark.parametrize("p", [1.0, 4.0])
    def test_nan_start_is_refused(self, base_model, p):
        # a NaN y(0) passed the y >= -1 check and the CE read nan
        sol = solve_optimal(base_model, Preference(p))
        y = sol.tilt.values.copy()
        y[0] = np.nan
        with pytest.raises(DomainError, match="^y must be >= -1$"):
            welfare_from_curve(base_model, sol.preference, sol.grid, y)

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("bad", [np.nan, -2.0, -1.0, np.inf])
    def test_bad_value_inside_the_curve_is_refused(self, base_model, p, bad):
        # at p = 1 a bad y(5) read CE nan, silently or after a RuntimeWarning;
        # for power utility it was never looked at
        sol = solve_optimal(base_model, Preference(p))
        y = sol.tilt.values.copy()
        y[5] = bad
        with pytest.raises(DomainError, match=r"^y_values must be finite and > -1, not y_values\[5\]"):
            welfare_from_curve(base_model, sol.preference, sol.grid, y)

    @pytest.mark.parametrize("p", [0.25, 1.0, 4.0])
    def test_curve_shorter_than_grid_is_refused(self, base_model, p):
        # at p = 1 numpy raised "operands could not be broadcast"
        sol = solve_optimal(base_model, Preference(p))
        with pytest.raises(DomainError, match=r"^y_values has shape \(511,\), grid \(512,\)"):
            welfare_from_curve(base_model, sol.preference, sol.grid, sol.tilt.values[:-1])


class TestWealthCompensatorIdentity:
    def test_zero_profile_exact(self, zero_profile):
        sol = solve_optimal(zero_profile, Preference(4.0))
        assert xihat_identity_check(sol, 0.5) <= 1e-12

    def test_log_utility_closed_form(self, base_model):
        sol = solve_optimal(base_model, Preference(1.0))
        assert xihat_identity_check(sol, 0.5) <= 1e-8

    def test_power_utility_random_times(self, base_model):
        sol = solve_optimal(base_model, Preference(4.0))
        rng = np.random.default_rng(7)
        worst = max(
            xihat_identity_check(sol, float(v))
            for v in rng.uniform(0.02, 0.97, size=10)
        )
        assert worst <= 1e-6


def test_log_utility_solve_and_welfare_build_one_panel_rule(base_model, monkeypatch):
    builds = []
    build = _quad.PanelRule.__init__
    monkeypatch.setattr(_quad.PanelRule, "__init__", lambda rule, grid: builds.append(build(rule, grid)))
    sol = solve_optimal(base_model, Preference(1.0), n_grid=333)  # a grid no other test uses
    safe_rates(sol)
    assert len(builds) == 1
