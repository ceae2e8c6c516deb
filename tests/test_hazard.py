import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from bubblemkt import (
    C1Function,
    ConstantExcess,
    ConstantJumpSizeExcess,
    CustomExcess,
    DomainError,
    ExponentialCutoffHazard,
    LPPLHazard,
    LPPLShape,
    LinearRampExcess,
    MarketModel,
    ModelError,
    Preference,
    RelaxedJLSExcess,
    SingleJumpClass,
    TabulatedHazard,
    UniformHazard,
    Verdict,
    ZeroExcess,
    ag_transform,
    classify_under_P,
    classify_under_Q,
    jump_size,
    linear_delta_excess,
    lppl_log_price,
    single_jump_class,
    validate,
)
from bubblemkt._quad import integrate_toward
from bubblemkt.elmm import build_tilted_measure, constant_tilt


class TestHazardRate:
    # kappa(t) = G'(t) / (1 - G(t)) on [0, T)
    def test_uniform(self):
        assert UniformHazard(1.0).hazard(0.5) == pytest.approx(2.0, abs=1e-14)

    def test_exponential_cutoff(self):
        assert ExponentialCutoffHazard(1.0, 1.0).hazard(0.3) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_lppl_power_half(self):
        law = LPPLHazard(b=1.0, c=0.0, power=0.5, horizon=1.0)
        assert law.hazard(0.75) == pytest.approx(2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            UniformHazard(1.0).hazard(1.0)
        with pytest.raises(DomainError):
            UniformHazard(1.0).hazard(-0.1)


class TestSurvivalAndAtom:
    # P(crash > t) and the survival atom at the horizon
    def test_exponential_cutoff_atom(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        _, atom = law.survival(0.5), law.atom
        assert atom == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_uniform_no_atom(self):
        law = UniformHazard(1.0)
        surv, atom = law.survival(0.25), law.atom
        assert atom == 0.0
        assert surv == pytest.approx(0.75, abs=1e-14)

    def test_lppl_negative_power_no_atom(self):
        assert LPPLHazard(b=1.0, c=0.0, power=-0.5, horizon=1.0).atom == 0.0

    def test_survival_zero_at_horizon(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        surv, atom = law.survival(1.0), law.atom
        assert surv == 0.0 and atom > 0.0


@pytest.mark.parametrize(
    "law",
    [
        UniformHazard(1.0),
        ExponentialCutoffHazard(1.3, 1.0),
        LPPLHazard(b=1.0, c=0.0, power=0.5, horizon=1.0),
        LPPLHazard(b=1.2, c=0.3, power=0.3, omega=7.0, phase=0.8, horizon=1.0),
        LPPLHazard(b=1.0, c=0.2, power=-0.4, omega=5.0, phase=0.1, horizon=2.0),
        TabulatedHazard(np.linspace(0, 1, 13), 1 - np.exp(-1.1 * np.linspace(0, 1, 13))),
    ],
    ids=["uniform", "expcut", "lppl-plain", "lppl-osc", "lppl-neg", "tabulated"],
)
def test_cumulative_hazard_consistency(law):
    # survival identity: quadrature of kappa matches -log(1 - G) to 1e-10
    t0 = law.horizon * (1.0 - 1e-3)
    res = integrate_toward(lambda s: np.asarray(law.hazard(s)), 0.0, t0, rtol=1e-12)
    assert res.status == "converged"
    assert abs(res.value - float(law.cumulative_hazard(t0))) < 1e-10


@pytest.mark.parametrize(
    "law",
    [
        LPPLHazard(b=1.0, c=0.0, power=0.5, horizon=1.0),
        LPPLHazard(b=1.2, c=0.3, power=0.3, omega=7.0, phase=0.8, horizon=1.0),
        LPPLHazard(b=1.0, c=0.2, power=-0.4, omega=5.0, phase=0.1, horizon=2.0),
    ],
    ids=["lppl-plain", "lppl-osc", "lppl-neg"],
)
@pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-4])
def test_lppl_cumulative_hazard_near_zero(law, t):
    # kappa is smooth on [0, t], so 15-point Gauss is exact to rounding;
    # T^m - (T-t)^m formed directly loses up to 1e-8 here
    x, w = np.polynomial.legendre.leggauss(15)
    ref = 0.5 * t * float(np.asarray(law.hazard(0.5 * t * (1.0 + x))) @ w)
    assert abs(float(law.cumulative_hazard(t)) / ref - 1.0) <= 1e-14


@pytest.mark.parametrize("horizon", [1.0, 3.0])
def test_uniform_cumulative_hazard_near_zero(horizon):
    # -log(1 - x) = x + x^2/2 + x^3/3 + O(x^4); at x = 1e-8 the rest is 2.5e-33
    x = 1e-8
    series = x + x * x / 2.0 + x**3 / 3.0
    got = float(UniformHazard(horizon).cumulative_hazard(x * horizon))
    assert abs(got / series - 1.0) <= 1e-15


@pytest.mark.parametrize("t, bound", [(1e-8, 2e-8), (1e-6, 1e-9), (1e-4, 1e-11)])
def test_uniform_linear_delta_phi_near_zero(t, bound):
    # phi = slope (-T log(1 - t/T) - t) = slope T sum_{k>=2} (t/T)^k / k; past
    # k = 12 the terms are below 1e-40 of the first.  The leading t cancels,
    # so the bound grows as t shrinks; the log(T) - log(T - t) form misses by
    # 1.0, 5.8e-5 and 2.2e-9 here
    law = UniformHazard(1.0)
    series = sum(t**k / k for k in range(2, 13))
    got = float(linear_delta_excess(law, 1.0).phi(t))
    assert abs(got / series - 1.0) <= bound


class TestJumpSize:
    def test_ex37(self, ex37_model):
        assert jump_size(ex37_model, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_zero_profile(self):
        law = UniformHazard(1.0)
        model = MarketModel(0.0, 0.2, law, ZeroExcess())
        assert jump_size(model, 0.77) == 0.0

    def test_table4(self, table4_model):
        assert jump_size(table4_model(0.7), 0.5) == pytest.approx(0.35, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_delta_within_unit_interval(self, table4_model, alpha):
        model = table4_model(alpha)
        t = np.linspace(0.0, 1.0 - 1e-9, 2001)
        d = np.asarray(model.delta(t))
        assert np.all(d >= -1e-12) and np.all(d <= 1.0 + 1e-12)


class TestValidate:
    def test_baseline_passes(self, base_model):
        assert validate(base_model).passed

    def test_excess_above_hazard_fails_at_zero(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        report = validate(MarketModel(0.1, 0.2, law, ConstantExcess(1.5)))
        assert not report.passed
        violation = report.first("excess_below_hazard")
        assert violation is not None and violation.t == 0.0

    def test_lppl_positivity(self):
        law = LPPLHazard(b=1.0, c=2.0, power=0.5, horizon=1.0)
        report = validate(MarketModel(0.1, 0.2, law, ZeroExcess()))
        assert not report.passed
        assert report.first("lppl_positivity") is not None

    def test_phi_must_start_at_zero(self):
        excess = CustomExcess(
            phi_fn=lambda t: 1.0 + 0.2 * np.asarray(t, dtype=float),
            dphi_fn=lambda t: np.full_like(np.asarray(t, dtype=float), 0.2),
        )
        report = validate(MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), excess))
        violation = report.first("phi_start")
        assert violation is not None and violation.t == 0.0
        assert [v.rule for v in report.violations] == ["phi_start"]

    def test_negative_excess(self):
        report = validate(
            MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(-0.1))
        )
        violation = report.first("excess_nonnegative")
        assert violation is not None and violation.t == 0.0
        assert [v.rule for v in report.violations] == ["excess_nonnegative"]

    def test_hazard_must_stay_positive(self):
        # |c| > b with a log-periodic term drives kappa below zero
        law = LPPLHazard(b=1.0, c=2.0, power=0.5, omega=6.0, horizon=1.0)
        report = validate(MarketModel(0.1, 0.2, law, ZeroExcess()))
        violation = report.first("hazard_positive")
        assert violation is not None and float(law.hazard(violation.t)) <= 0.0


class TestLPPLLogPrice:
    def test_pure_power(self):
        shape = LPPLShape(a=0.0, b=1.0, c=0.0, power=0.5, omega=0.0, phase=0.0, horizon=1.0)
        assert lppl_log_price(shape, 0.75) == pytest.approx(0.5, rel=1e-14)

    def test_constant(self):
        shape = LPPLShape(a=2.0, b=0.0, c=0.0, power=0.5, omega=1.0, phase=0.0, horizon=1.0)
        assert lppl_log_price(shape, 0.123) == pytest.approx(2.0, abs=1e-14)

    def test_oscillatory(self):
        # frozen from a 30-digit evaluation of 0.5 + 0.25 cos(2 pi log 0.25)
        shape = LPPLShape(
            a=0.0, b=1.0, c=0.5, power=0.5, omega=2.0 * math.pi, phase=0.0, horizon=1.0
        )
        assert lppl_log_price(shape, 0.75) == pytest.approx(
            0.311133884483060516, rel=1e-12
        )

    def test_power_domain(self):
        shape = LPPLShape(a=0.0, b=1.0, c=0.0, power=-0.5, omega=0.0, phase=0.0, horizon=1.0)
        with pytest.raises(DomainError):
            lppl_log_price(shape, 0.5)


def _linear() -> C1Function:
    return C1Function(
        value=lambda t: np.asarray(t, dtype=float),
        derivative=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        horizon_limit=1.0,
    )


def _c1(value, derivative) -> C1Function:
    """F(t) = value(1 - t) and F'(t) = derivative(1 - t) on the unit horizon."""
    return C1Function(
        value=lambda t: value(1.0 - np.asarray(t, dtype=float)),
        derivative=lambda t: derivative(1.0 - np.asarray(t, dtype=float)),
    )


def _ex37_exponential() -> C1Function:
    # exp(phi) for the canonical strict-local model: e^{-t} / (1 - t)
    return C1Function(
        value=lambda t: np.exp(-np.asarray(t, dtype=float)) / (1.0 - np.asarray(t, dtype=float)),
        derivative=lambda t: np.exp(-np.asarray(t, dtype=float))
        * np.asarray(t, dtype=float)
        / (1.0 - np.asarray(t, dtype=float)) ** 2,
        horizon_limit_exists=False,
    )


class TestAgTransform:
    def test_identity_function_uniform(self):
        # F(t) = t on the uniform law: F - F'/kappa = t - (1 - t) = 2t - 1
        assert ag_transform(UniformHazard(1.0), _linear(), 0.5) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_constant(self):
        const = C1Function(
            value=lambda t: np.full_like(np.asarray(t, dtype=float), 3.5),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            horizon_limit=3.5,
        )
        assert ag_transform(ExponentialCutoffHazard(1.0, 1.0), const, 0.4) == 3.5

    def test_ex37_exponential_simplifies(self):
        # symbolic simplification oracle: the transform collapses to e^{-v}
        got = ag_transform(UniformHazard(1.0), _ex37_exponential(), 0.4)
        assert got == pytest.approx(math.exp(-0.4), rel=1e-12)

    def test_horizon_with_atom_needs_limit(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        assert ag_transform(law, _linear(), 1.0) == 1.0
        with pytest.raises(DomainError):
            ag_transform(
                law,
                C1Function(lambda t: np.asarray(t), lambda t: np.ones_like(np.asarray(t))),
                1.0,
            )

    def test_horizon_no_atom_is_zero(self):
        assert ag_transform(UniformHazard(1.0), _linear(), 1.0) == 0.0

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        v=st.floats(0.01, 0.95),
    )
    def test_linearity(self, a, b, v):
        law = ExponentialCutoffHazard(1.0, 1.0)
        f = _linear()
        g = C1Function(
            value=lambda t: np.cos(np.asarray(t, dtype=float)),
            derivative=lambda t: -np.sin(np.asarray(t, dtype=float)),
        )
        combo = C1Function(
            value=lambda t: a * f.value(t) + b * g.value(t),
            derivative=lambda t: a * f.derivative(t) + b * g.derivative(t),
        )
        lhs = ag_transform(law, combo, v)
        rhs = a * ag_transform(law, f, v) + b * ag_transform(law, g, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSingleJumpClass:
    def test_bounded_excess_is_square_integrable(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        fn = C1Function(
            value=lambda t: 0.2 * np.asarray(t, dtype=float),
            derivative=lambda t: np.full_like(np.asarray(t, dtype=float), 0.2),
            horizon_limit=0.2,
        )
        report = single_jump_class(law, fn)
        assert report.verdict is SingleJumpClass.SQUARE_INTEGRABLE_MARTINGALE

    def test_constant_is_true_martingale(self):
        for law in (UniformHazard(1.0), ExponentialCutoffHazard(1.0, 1.0)):
            fn = C1Function(
                value=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
                derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                horizon_limit=2.0,
            )
            assert single_jump_class(law, fn).verdict is SingleJumpClass.TRUE_MARTINGALE

    def test_ex37_exponential_strictly_local(self):
        # closed-form limit oracle: F(t)(1-G(t)) = e^{-t} -> e^{-1} != 0
        report = single_jump_class(UniformHazard(1.0), _ex37_exponential())
        assert report.verdict is SingleJumpClass.INTEGRABLE_LOCAL_MARTINGALE
        assert report.true_martingale is False

    @pytest.mark.parametrize("scale", [1e-6, 1e-12])
    def test_scaled_ex37_exponential_strictly_local(self, scale):
        # scaling F scales the jump's second moment and the limit, not their
        # finiteness: int (F'/kappa)^2 dG still diverges like int (1 - t)^-2
        fn = _ex37_exponential()
        scaled = C1Function(
            value=lambda t: scale * fn.value(t),
            derivative=lambda t: scale * fn.derivative(t),
            horizon_limit_exists=False,
        )
        report = single_jump_class(UniformHazard(1.0), scaled)
        assert report.verdict is SingleJumpClass.INTEGRABLE_LOCAL_MARTINGALE
        assert (report.true_martingale, report.square_integrable) == (False, False)
        assert report.detail == f"F(t)(1 - G(t)) -> {scale * math.exp(-1.0):.6g} != 0"

    def test_post_jump_level_not_integrable(self):
        # |F - F'/kappa| dG = (1 - t)^-2 on the uniform law
        fn = _c1(lambda s: s**-2.0, lambda s: 2.0 * s**-3.0)
        report = single_jump_class(UniformHazard(1.0), fn)
        assert report.verdict is SingleJumpClass.INDETERMINATE
        assert (report.integrable, report.true_martingale, report.square_integrable) == (
            False,
            None,
            None,
        )
        assert report.detail == "post-jump level is not dG-integrable"

    def test_integrability_unresolved(self):
        # F (1 - G) = cos(3 log(1 - t)): shell magnitudes neither decay nor settle
        report = single_jump_class(
            UniformHazard(1.0),
            _c1(
                lambda s: np.cos(3.0 * np.log(s)) / s,
                lambda s: (np.cos(3.0 * np.log(s)) + 3.0 * np.sin(3.0 * np.log(s))) / s**2,
            ),
        )
        assert report.verdict is SingleJumpClass.INDETERMINATE
        assert (report.integrable, report.true_martingale, report.square_integrable) == (
            None,
            None,
            None,
        )
        assert report.detail == "integrability test did not resolve near the horizon"

    def test_atom_makes_a_martingale_without_square_integrability(self):
        # F = sqrt(1 - t): F'/kappa blows up like (1 - t)^-1/2, not square
        # integrable against the exponential density; the atom still decides
        report = single_jump_class(
            ExponentialCutoffHazard(1.0, 1.0), _c1(lambda s: s**0.5, lambda s: -0.5 * s**-0.5)
        )
        assert report.verdict is SingleJumpClass.TRUE_MARTINGALE
        assert (report.integrable, report.true_martingale, report.square_integrable) == (
            True,
            True,
            False,
        )

    def test_unsettled_limit_is_indeterminate(self):
        # F (1 - G) = 1 + (1 - t)^0.4 still moves by 1e-5 at t = 1 - 2^-41
        report = single_jump_class(
            UniformHazard(1.0),
            _c1(lambda s: 1.0 / s + s**-0.6, lambda s: s**-2.0 + 0.6 * s**-1.6),
        )
        assert report.verdict is SingleJumpClass.INDETERMINATE
        assert (report.integrable, report.true_martingale, report.square_integrable) == (
            True,
            None,
            False,
        )
        assert report.detail == "limit of F(t)(1 - G(t)) did not stabilize"

    def test_vanishing_limit_is_a_martingale(self):
        # kappa = 4/(1 - t), so 1 - G = (1 - t)^4 and F (1 - G) = (1 - t)^2 -> 0,
        # while (F'/kappa)^2 dG = 1/(1 - t) is not integrable
        law = LPPLHazard(b=4.0, c=0.0, power=0.0, horizon=1.0)
        report = single_jump_class(law, _c1(lambda s: s**-2.0, lambda s: 2.0 * s**-3.0))
        assert report.verdict is SingleJumpClass.TRUE_MARTINGALE
        assert (report.integrable, report.true_martingale, report.square_integrable) == (
            True,
            True,
            False,
        )

    def test_falling_tail_is_not_a_limit(self):
        # F (1 - G) = (1 - t)^1/2 -> 0, but only like 2^-24 on the probe points:
        # a tail that is still falling must not read as a nonzero limit
        report = single_jump_class(
            UniformHazard(1.0), _c1(lambda s: s**-0.5, lambda s: 0.5 * s**-1.5)
        )
        assert report.verdict is SingleJumpClass.INDETERMINATE
        assert report.true_martingale is None
        assert report.detail == "limit of F(t)(1 - G(t)) did not stabilize"


class TestClassifyUnderP:
    def test_ex37_strict_local(self, ex37_model):
        result = classify_under_P(ex37_model)
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE
        assert result.defect == pytest.approx(1.0, rel=1e-10)

    def test_table4_true_martingale(self, table4_model):
        model = table4_model(0.7, mu=0.0)
        result = classify_under_P(model)
        assert result.verdict is Verdict.TRUE_MARTINGALE
        assert math.isinf(result.defect)

    def test_atom_true_martingale(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        model = MarketModel(0.0, 0.2, law, ConstantExcess(0.2))
        assert classify_under_P(model).verdict is Verdict.TRUE_MARTINGALE

    def test_drift_breaks_local_martingale(self, base_model):
        assert (
            classify_under_P(base_model).verdict
            is Verdict.NOT_LOCAL_MARTINGALE_UNDER_P
        )

    def test_strict_local_forces_unit_limsup(self, ex37_model):
        result = classify_under_P(ex37_model)
        assert result.limsup_delta > 1.0 - 1e-3

    def test_uncertified_defect_is_indeterminate(self, lppl_half_model):
        result = classify_under_P(lppl_half_model)
        assert result.verdict is Verdict.INDETERMINATE
        assert result.detail == "quadrature could not certify the defect integral"
        assert math.isnan(result.defect)

    def test_custom_profile_is_not_declared_bounded(self, ex37_custom_model):
        # the canonical strict local martingale written as a caller's profile
        # must classify like its relaxed-JLS form
        result = classify_under_P(ex37_custom_model)
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE
        assert result.defect == pytest.approx(1.0, rel=1e-10)

    def test_zero_jump_size_on_a_wobbling_hazard(self):
        # delta = 0 makes phi' = 0, which integrates, so D = int kappa = inf
        # although the shells of the log-periodic kappa never settle
        law = LPPLHazard(b=1.2, c=0.3, power=0.0, omega=6.0, phase=0.5, horizon=1.0)
        result = classify_under_P(MarketModel(0.0, 0.2, law, linear_delta_excess(law, 0.0)))
        assert result.verdict is Verdict.TRUE_MARTINGALE
        assert math.isinf(result.defect)

    def test_relaxed_jump_size_defect_is_certified_by_quadrature(self):
        # delta(t) = t + 0.1 sin(4 pi t) agrees with a linear jump size at
        # T/4, T/2 and 3T/4, yet int (kappa - phi') is not T
        law = UniformHazard(1.0)
        excess = RelaxedJLSExcess(law, lambda t: t + 0.1 * np.sin(4.0 * np.pi * t))
        model = MarketModel(0.0, 0.2, law, excess)
        assert validate(model).passed
        reference, _ = integrate.quad(
            lambda t: 1.0 - 0.1 * np.sin(4.0 * np.pi * t) / (1.0 - t),
            0.0, 1.0, epsabs=1e-13, epsrel=1e-13,
        )
        result = classify_under_P(model)
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE
        assert result.defect == pytest.approx(reference, rel=1e-9)

    def test_constant_jump_size_full_loss(self):
        law = UniformHazard(1.0)
        model = MarketModel(0.0, 0.2, law, ConstantJumpSizeExcess(law, 1.0))
        result = classify_under_P(model)
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE
        assert result.defect == pytest.approx(0.0, abs=1e-12)

    def test_constant_jump_size_is_the_relaxed_profile_at_delta0(self):
        # the JLS profile embeds in the relaxed class: delta = delta0, phi = delta0 H
        law = UniformHazard(1.0)
        excess = ConstantJumpSizeExcess(law, 0.3)
        assert isinstance(excess, RelaxedJLSExcess)
        assert excess.delta(0.5) == 0.3
        assert excess.phi(0.5) == 0.3 * law.cumulative_hazard(0.5)

    @pytest.mark.parametrize("power", [0.0, -0.1])
    def test_constant_jump_size_on_a_log_periodic_tail(self, power):
        # int (kappa - phi') = 0.9 int kappa diverges, yet its shells follow
        # the log-periodic kappa and never read DIVERGENT: the quadrature
        # alone reads nan and Indeterminate, the constant jump size gives inf
        law = LPPLHazard(b=1.2, c=0.3, power=power, omega=6.0, phase=0.5, horizon=1.0)
        model = MarketModel(0.0, 0.2, law, ConstantJumpSizeExcess(law, 0.1))
        for result in (classify_under_P(model), classify_under_Q(model, constant_tilt(0.0))):
            assert result.verdict is Verdict.TRUE_MARTINGALE
            assert math.isinf(result.defect)


_EXP = ExponentialCutoffHazard(1.0, 1.0)
_CONSTRUCTORS = {
    "uniform.horizon": lambda v: UniformHazard(v),
    "exponential.rate": lambda v: ExponentialCutoffHazard(v, 1.0),
    "exponential.horizon": lambda v: ExponentialCutoffHazard(1.0, v),
    "lppl.b": lambda v: LPPLHazard(b=v, c=0.3, power=0.4),
    "lppl.c": lambda v: LPPLHazard(b=1.2, c=v, power=0.4),
    "lppl.power": lambda v: LPPLHazard(b=1.2, c=0.3, power=v),
    "lppl.omega": lambda v: LPPLHazard(b=1.2, c=0.3, power=0.4, omega=v),
    "lppl.phase": lambda v: LPPLHazard(b=1.2, c=0.3, power=0.4, phase=v),
    "lppl.horizon": lambda v: LPPLHazard(b=1.2, c=0.3, power=0.4, horizon=v),
    "tabulated.times": lambda v: TabulatedHazard([0.0, 0.5, v], [0.0, 0.3, 0.5]),
    "tabulated.cdf": lambda v: TabulatedHazard([0.0, 0.5, 1.0], [0.0, v, 0.5]),
    "constant.alpha": lambda v: ConstantExcess(v),
    "linear_ramp.slope": lambda v: LinearRampExcess(v),
    "constant_jump_size.delta0": lambda v: ConstantJumpSizeExcess(_EXP, v),
    "linear_delta.slope": lambda v: linear_delta_excess(_EXP, v),
    "market.mu": lambda v: MarketModel(v, 0.2, _EXP, ZeroExcess()),
    "market.sigma": lambda v: MarketModel(0.1, v, _EXP, ZeroExcess()),
    "preference.p": lambda v: Preference(v),
    "preference.x": lambda v: Preference(4.0, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
def test_non_finite_parameter_is_a_model_error(build, value):
    with pytest.raises(ModelError):
        build(value)


class TestTabulated:
    def test_matches_generating_law(self):
        t = np.linspace(0, 1, 41)
        law = TabulatedHazard(t, 1 - np.exp(-t))
        assert float(law.hazard(0.3)) == pytest.approx(1.0, rel=1e-6)
        assert law.atom == pytest.approx(math.exp(-1.0), rel=1e-12)
        # the survival identity is exact for the interpolated law
        probe = 0.77
        assert abs(
            float(law.cumulative_hazard(probe)) + math.log(1.0 - float(law.cdf(probe)))
        ) < 1e-13

    def test_rejects_complete_cdf(self):
        with pytest.raises(ModelError):
            TabulatedHazard([0.0, 0.5, 1.0], [0.0, 0.6, 1.0])


LAWS = {
    "uniform": UniformHazard(1.0),
    "expcut": ExponentialCutoffHazard(1.0, 1.0),
    "lppl": LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5, horizon=1.0),
    "tabulated": TabulatedHazard(
        np.linspace(0, 1, 41), 1 - np.exp(-np.linspace(0, 1, 41))
    ),
    # no atom, and kappa unbounded at the horizon
    "lppl-singular": LPPLHazard(b=1.2, c=0.3, power=-0.3, omega=6.0, phase=0.5, horizon=1.0),
    "tilted": build_tilted_measure(
        MarketModel(0.1, 0.2, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(0.2)),
        constant_tilt(0.5),
    ),
}


@pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
@given(u=st.floats(1e-6, 1 - 1e-6))
def test_inverse_cdf_round_trip(law, u):
    gamma = float(np.asarray(law.inverse_cdf(np.array([u])))[0])
    if gamma >= law.horizon:
        assert u > 1.0 - law.atom - 1e-9
    else:
        assert float(law.cdf(gamma)) == pytest.approx(u, abs=1e-9)


@pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
class TestCrashLawSurface:
    """Every crash law, the tilted one included, shares one surface."""

    @pytest.mark.parametrize(
        "method, arg",
        [
            ("hazard", 0.3),
            ("cumulative_hazard", 0.3),
            ("cdf", 0.3),
            ("survival", 0.3),
            ("inverse_cdf", 0.4),
        ],
    )
    def test_scalar_in_float_out(self, law, method, arg):
        assert type(getattr(law, method)(arg)) is float

    def test_hazard_rejects_horizon(self, law):
        with pytest.raises(DomainError):
            law.hazard(law.horizon)

    def test_inverse_cdf_rejects_zero_variate(self, law):
        with pytest.raises(DomainError):
            law.inverse_cdf(0.0)

    @pytest.mark.parametrize("method", ["hazard", "density", "survival", "cdf", "inverse_cdf"])
    def test_nan_is_a_domain_error(self, law, method):
        # NaN fails every comparison, so a check for a value outside the
        # domain lets it through: LPPL inverse_cdf(nan) read T, "no crash"
        for arg in (math.nan, np.array([0.5, math.nan])):
            with pytest.raises(DomainError):
                getattr(law, method)(arg)

    def test_nan_level_inverts_to_nan(self, law):
        t = np.asarray(law._inverse_cum(np.array([math.nan, 0.1])))
        assert math.isnan(t[0]) and 0.0 < t[1] < law.horizon
