import math

import numpy as np
import pytest

import bubblemkt.welfare as wf
from bubblemkt import (
    ConstantExcess,
    ConstantJumpSizeExcess,
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
        assert statuses == [CONVERGED, CONVERGED]

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
