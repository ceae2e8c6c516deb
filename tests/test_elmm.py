import math

import numpy as np
import pytest

from bubblemkt import (
    ConstantExcess,
    ConstantJumpSizeExcess,
    CustomExcess,
    ExponentialCutoffHazard,
    LPPLHazard,
    MarketModel,
    Preference,
    RejectedTiltError,
    TabulatedHazard,
    TiltFunction,
    UniformHazard,
    Verdict,
    ZeroExcess,
    build_tilted_measure,
    classify_under_Q,
    solve_optimal,
    verify_tilt_bounds,
)
from bubblemkt import elmm
from bubblemkt._quad import HORIZON_NODES, horizon_grid, integrate_toward
from bubblemkt.elmm import constant_tilt


LPPL_04 = LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5, horizon=1.0)
TABULATED = TabulatedHazard(
    np.linspace(0.0, 1.0, 9), [0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.68, 0.8]
)


@pytest.fixture(scope="module")
def zero_drift_base():
    law = ExponentialCutoffHazard(1.0, 1.0)
    return MarketModel(0.0, 0.2, law, ConstantExcess(0.2))


class TestBuildTiltedMeasure:
    def test_zero_tilt_preserves_law(self, zero_drift_base):
        tm = build_tilted_measure(zero_drift_base, constant_tilt(0.0))
        t = np.array([0.1, 0.4, 0.8])
        assert np.allclose(tm.survival_ratio(t), 1.0, atol=1e-12)
        assert np.allclose(
            tm.cdf(t), np.asarray(zero_drift_base.hazard.cdf(t)), atol=1e-11
        )
        assert np.allclose(
            tm.hazard(t), np.asarray(zero_drift_base.hazard.hazard(t)), atol=1e-12
        )
        assert tm.atom == pytest.approx(zero_drift_base.hazard.atom, rel=1e-11)

    def test_uniform_constant_tilt_closed_form(self):
        # symbolic integration oracle: int kappa y = -c log(1 - t)
        c = 0.7
        law = UniformHazard(1.0)
        model = MarketModel(0.0, 0.2, law, ZeroExcess())
        tm = build_tilted_measure(model, constant_tilt(c))
        t = np.array([0.05, 0.3, 0.6, 0.9])
        assert np.allclose(tm.survival_ratio(t), (1 - t) ** c, atol=1e-11)
        assert np.allclose(tm.cdf(t), 1 - (1 - t) ** (1 + c), atol=1e-11)
        assert tm.atom == 0.0

    def test_exponential_unit_tilt_closed_form(self, zero_drift_base):
        # int kappa (1 + y) = 2t, so the tilted atom is e^{-2}
        tm = build_tilted_measure(zero_drift_base, constant_tilt(1.0))
        t = np.array([0.2, 0.5, 0.9])
        assert np.allclose(tm.survival_ratio(t), np.exp(-t), atol=1e-12)
        assert tm.atom == pytest.approx(math.exp(-2.0), rel=1e-11)

    def test_rejects_tilt_below_minus_one(self, zero_drift_base):
        with pytest.raises(RejectedTiltError, match="inf"):
            build_tilted_measure(zero_drift_base, constant_tilt(-1.2))

    def test_rejects_non_square_integrable_drift_load(self, ex37_model):
        # constant tilts make phi' y fail square integrability here
        with pytest.raises(RejectedTiltError, match="square"):
            build_tilted_measure(ex37_model, constant_tilt(0.5))

    @pytest.mark.parametrize(
        "excess, power, admitted",
        [
            pytest.param(None, 0.5, False, id="0.5-False"),
            pytest.param(None, 0.4, True, id="0.4-True"),
            pytest.param(0.3, 0.0, False, id="lppl-0-False"),
            pytest.param(0.3, 0.3, False, id="lppl-0.3-False"),
        ],
    )
    def test_square_integrability_is_certified(self, zero_drift_base, excess, power, admitted):
        # phi' = 0.2 is bounded, yet int (phi' y)^2 = 0.04 int (T - t)^(-2 power)
        # is finite only for power < 1/2; the constant jump size 0.3 on LPPL
        # 0.4 has phi' = 0.3 kappa ~ (T - t)^(-0.6), so even y = 1 fails
        model = zero_drift_base
        if excess is not None:
            model = MarketModel(0.0, 0.2, LPPL_04, ConstantJumpSizeExcess(LPPL_04, excess))
        tilt = TiltFunction(
            y=lambda t: (1.0 - np.asarray(t, dtype=float)) ** -power, inf_one_plus_y=1.0
        )
        if admitted:
            assert classify_under_Q(model, tilt).verdict is Verdict.TRUE_MARTINGALE
            build_tilted_measure(model, tilt)
        else:
            for gate in (build_tilted_measure, classify_under_Q):
                with pytest.raises(RejectedTiltError, match="square"):
                    gate(model, tilt)

    @pytest.mark.parametrize(
        "power, admitted", [pytest.param(0.6, False, id="0.6-False"), (0.4, True)]
    )
    def test_small_tilts_are_judged_like_large_ones(self, zero_drift_base, power, admitted):
        # int (phi' y)^2 = 0.04e-16 int (T - t)^(-2 power) is finite exactly
        # when it is for 1e8 times the tilt: no absolute floor admits the
        # divergent one for being small
        tilt = TiltFunction(
            y=lambda t: 1e-8 * (1.0 - np.asarray(t, dtype=float)) ** -power, inf_one_plus_y=1.0
        )
        if admitted:
            assert classify_under_Q(zero_drift_base, tilt).verdict is Verdict.TRUE_MARTINGALE
            build_tilted_measure(zero_drift_base, tilt)
        else:
            for gate in (build_tilted_measure, classify_under_Q):
                with pytest.raises(RejectedTiltError, match=r"^tilt violates square .*\(divergent"):
                    gate(zero_drift_base, tilt)

    def test_small_tilt_of_the_strict_local_model_is_rejected(self, ex37_model):
        # phi' = t / (1 - t), so int (phi' y)^2 ~ int (T - t)^-2.8 diverges
        # however small y = 1e-8 (T - t)^-0.4 is
        tilt = TiltFunction(
            y=lambda t: 1e-8 * (1.0 - np.asarray(t, dtype=float)) ** -0.4, inf_one_plus_y=1.0
        )
        with pytest.raises(RejectedTiltError, match=r"^tilt violates square"):
            classify_under_Q(ex37_model, tilt)

    @pytest.mark.parametrize(
        "law, excess, power, condition",
        [
            # int (0.3 kappa (T - t)^-0.4)^2 = 5.58328 on the 9-knot tabulated law
            pytest.param(
                TABULATED,
                0.3,
                0.4,
                "square integrability of phi' * y",
                id="tabulated-square",
            ),
            # int kappa (1 + (T - t)^-0.3) = 14.9558 on LPPL 0.4
            pytest.param(
                LPPL_04,
                None,
                0.3,
                "integrability of kappa (1 + y) for an atom law",
                id="lppl-atom-law",
            ),
        ],
    )
    def test_unread_finite_integral_is_not_certified(self, law, excess, power, condition):
        # the integral is finite, yet its shells do not settle within the
        # budget: the rejection says that it is not certified, not violated
        profile = ZeroExcess() if excess is None else ConstantJumpSizeExcess(law, excess)
        model = MarketModel(0.0, 0.2, law, profile)
        tilt = TiltFunction(
            y=lambda t: (1.0 - np.asarray(t, dtype=float)) ** -power, inf_one_plus_y=1.0
        )
        for gate in (build_tilted_measure, classify_under_Q):
            with pytest.raises(RejectedTiltError) as err:
                gate(model, tilt)
            assert str(err.value) == f"{condition} is not certified (indeterminate after 46 shells)"

    @pytest.mark.parametrize(
        "law, power, admitted",
        [
            pytest.param(ExponentialCutoffHazard(1.0, 1.0), 1.5, False, id="1.5-False"),
            pytest.param(ExponentialCutoffHazard(1.0, 1.0), 0.5, True, id="0.5-True"),
            pytest.param(LPPL_04, 0.5, False, id="lppl-0.5-False"),
            # atom e^-40: 1 - e^-u rounds to 1 on the last shells
            pytest.param(ExponentialCutoffHazard(40.0, 1.0), 0.5, True, id="rate40-0.5-True"),
        ],
    )
    def test_atom_law_gate_integrates_kappa_one_plus_y(self, monkeypatch, law, power, admitted):
        # y = (T - t)^(-power) blows up at the horizon of an atom law, so the
        # gate certifies int kappa (1 + y): finite iff power < 1 on the
        # exponential law, and iff power < 0.4 on LPPL 0.4
        model = MarketModel(0.0, 0.2, law, ZeroExcess())
        tilt = TiltFunction(
            y=lambda t: (1.0 - np.asarray(t, dtype=float)) ** -power, inf_one_plus_y=1.0
        )
        at_half = []  # each gate integrand at 1/2

        def recorded(f, a, b, **kw):
            at_half.append(float(np.asarray(f(np.array([0.5])))[0]))
            return integrate_toward(f, a, b, **kw)

        monkeypatch.setattr(elmm, "integrate_toward", recorded)
        if admitted:
            assert classify_under_Q(model, tilt).verdict is Verdict.TRUE_MARTINGALE
        else:
            with pytest.raises(RejectedTiltError, match=r"kappa \(1 \+ y\) for an atom law"):
                build_tilted_measure(model, tilt)
        # the integral runs in cumulative-hazard time u: at u = 1/2 the
        # integrand is 1 + y(t) at the t where H(t) = 1/2
        t_half = 1.0 - (at_half[-1] - 1.0) ** (-1.0 / power)
        assert float(law.cumulative_hazard(t_half)) == pytest.approx(0.5, rel=1e-13)

    def test_atom_law_gate_stops_where_t_stops_resolving(self):
        # int kappa (1 + 1e-8 (T - t)^(-0.6)) diverges on LPPL 0.4, where
        # kappa ~ (T - t)^(-0.6).  In u = H(t), T - t(u) reaches one ulp of T
        # near shell 21, past which a flat integrand would halve shell by
        # shell and read as convergent.
        model = MarketModel(0.0, 0.2, LPPL_04, ZeroExcess())
        tilt = TiltFunction(
            y=lambda t: 1e-8 * (1.0 - np.asarray(t, dtype=float)) ** -0.6, inf_one_plus_y=1.0
        )
        for gate in (build_tilted_measure, classify_under_Q):
            with pytest.raises(RejectedTiltError, match=r"kappa \(1 \+ y\) for an atom law"):
                gate(model, tilt)

    def test_table_from_zero_reads_atom_survival_and_inverse(self, base_model):
        # tilt 0.5 on the unit-rate law: H = 1.5 t, integrated from t = 0
        tm = build_tilted_measure(base_model, constant_tilt(0.5))
        assert tm.atom == pytest.approx(math.exp(-1.5), rel=1e-9)
        assert tm.survival(0.75) == pytest.approx(math.exp(-1.125), rel=1e-9)
        u = np.array([0.01, 0.3])
        np.testing.assert_allclose(tm.inverse_cdf(u), -np.log1p(-u) / 1.5, rtol=1e-9)

    def test_dual_measure_is_the_tilted_law_of_its_tilt(self, base_model):
        # one table for every tilted law: the solution's dual measure and a
        # fresh build from its tilt share the grid and every value of H
        sol = solve_optimal(base_model, Preference(4.0))
        built = build_tilted_measure(base_model, TiltFunction(sol.tilt))
        table = horizon_grid(base_model.horizon, HORIZON_NODES)
        for law in (sol.dual_measure, built):
            np.testing.assert_array_equal(law.grid, table)
        np.testing.assert_array_equal(
            sol.dual_measure.cumulative_hazard(table), built.cumulative_hazard(table)
        )

    def test_distribution_function_shape(self, zero_drift_base):
        tm = build_tilted_measure(zero_drift_base, constant_tilt(0.3))
        t = np.linspace(0.0, 0.999999, 700)
        h = tm.cdf(t)
        assert np.all(np.diff(h) >= -1e-14)
        assert h[0] == pytest.approx(0.0, abs=1e-12)
        assert float(tm.cdf(np.array([1.0]))[0]) == 1.0
        assert float(1.0 - tm.cdf(t[-1])) >= tm.atom > 0.0
        assert np.all(tm.survival_ratio(t) > 0.0)


TILTS = [
    constant_tilt(0.0),
    constant_tilt(0.6),
    TiltFunction(
        y=lambda t: 0.3 * np.sin(3.0 * np.asarray(t, dtype=float)),
        inf_one_plus_y=0.7,
        label="sin",
    ),
]


@pytest.mark.parametrize("tilt", TILTS, ids=["zero", "const", "sin"])
@pytest.mark.parametrize(
    "model_key", ["expcut", "uniform_zero", "lppl"], ids=["expcut", "unif", "lppl"]
)
def test_relation_identities(model_key, tilt):
    law_map = {
        "expcut": lambda: MarketModel(
            0.0, 0.2, ExponentialCutoffHazard(1.0, 1.0), ConstantExcess(0.2)
        ),
        "uniform_zero": lambda: MarketModel(0.0, 0.2, UniformHazard(1.0), ZeroExcess()),
        # the residuals do not read phi; a constant jump size would make
        # phi' = 0.3 kappa unbounded, and only tilts vanishing at T admissible
        "lppl": lambda: MarketModel(0.0, 0.2, LPPL_04, ZeroExcess()),
    }
    model = law_map[model_key]()
    tm = build_tilted_measure(model, tilt)
    residuals = tm.relation_residuals()
    assert residuals.max() <= 1e-10


class TestVerifyTiltBounds:
    def test_zero_tilt(self, zero_drift_base):
        assert verify_tilt_bounds(zero_drift_base, constant_tilt(0.0)) == (1.0, 1.0)

    def test_negative_constant(self, zero_drift_base):
        eps, c = verify_tilt_bounds(zero_drift_base, constant_tilt(-0.5))
        assert eps == pytest.approx(0.5, abs=1e-12)
        assert c == 1.0

    def test_unbounded_reciprocal_fails(self):
        # y = 1/phi' with phi' -> 0 while kappa stays at 1: the indicator in
        # the upper bound switches off, so no finite C can work
        law = ExponentialCutoffHazard(1.0, 1.0)
        excess = CustomExcess(
            phi_fn=lambda t: 0.2 * (np.asarray(t) - 0.5 * np.asarray(t) ** 2),
            dphi_fn=lambda t: 0.2 * (1.0 - np.asarray(t)),
        )
        model = MarketModel(0.1, 0.2, law, excess)
        bad = TiltFunction(
            y=lambda t: 1.0 / (0.2 * (1.0 - np.asarray(t, dtype=float))),
            label="reciprocal",
        )
        assert verify_tilt_bounds(model, bad) is None


class TestClassifyUnderQ:
    def test_ex37_zero_tilt_strict_local(self, ex37_model):
        result = classify_under_Q(ex37_model, constant_tilt(0.0))
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE

    def test_custom_profile_matches_relaxed_jls(self, ex37_model, ex37_custom_model):
        # a caller's closed form no longer declares phi' bounded: the
        # verdict, the defect and the rejected tilts follow the relaxed-JLS form
        for model in (ex37_model, ex37_custom_model):
            result = classify_under_Q(model, constant_tilt(0.0))
            assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE
            assert result.defect == pytest.approx(1.0, rel=1e-10)
            with pytest.raises(RejectedTiltError, match="square"):
                classify_under_Q(model, constant_tilt(0.5))

    def test_uncertified_defect_is_indeterminate(self, lppl_half_model):
        result = classify_under_Q(lppl_half_model, constant_tilt(0.0))
        assert result.verdict is Verdict.INDETERMINATE
        assert result.detail == "quadrature could not certify the defect integral"

    def test_uncertified_tilt_bounds_are_indeterminate(self):
        # 1 + y = 2^17 + 1 exceeds every C up to TILT_BOUND_C_MAX = 2^16
        law = UniformHazard(1.0)
        model = MarketModel(0.0, 0.2, law, ConstantExcess(0.2))
        result = classify_under_Q(model, constant_tilt(2.0**17))
        assert result.verdict is Verdict.INDETERMINATE
        assert result.detail == "two-sided tilt bounds could not be certified"
        assert math.isinf(result.defect)

    def test_builds_no_tilted_law(self, ex37_model, zero_drift_base, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classification tabulated a tilted law")

        monkeypatch.setattr(elmm, "TiltedMeasure", refuse)
        classify_under_Q(ex37_model, constant_tilt(0.0))
        classify_under_Q(zero_drift_base, constant_tilt(0.3))
        with pytest.raises(RejectedTiltError, match="inf"):
            classify_under_Q(zero_drift_base, constant_tilt(-1.2))

    def test_atom_always_true(self, zero_drift_base):
        for c in (0.0, 0.3, 2.0):
            result = classify_under_Q(zero_drift_base, constant_tilt(c))
            assert result.verdict is Verdict.TRUE_MARTINGALE

    def test_table4_solved_tilt_strict_local(self, table4_model):
        model = table4_model(1.0)
        solution = solve_optimal(model, Preference(4.0))
        tilt = TiltFunction(y=lambda t: solution.tilt(t), label="solved")
        result = classify_under_Q(model, tilt)
        assert result.verdict is Verdict.STRICT_LOCAL_MARTINGALE

    def test_tilt_invariance(self, table4_model):
        # the strict/true dichotomy cannot depend on the accepted tilt;
        # nonzero tilts must decay toward the horizon to keep phi' y
        # square integrable against the hazard blow-up
        decaying = TiltFunction(
            y=lambda t: 0.4 * (1.0 - np.asarray(t, dtype=float)),
            inf_one_plus_y=1.0,
            label="decaying",
        )
        model = table4_model(1.0)
        solution = solve_optimal(model, Preference(4.0))
        tilts = [
            constant_tilt(0.0),
            decaying,
            TiltFunction(y=lambda t: solution.tilt(t), label="solved"),
        ]
        verdicts = {classify_under_Q(model, tl).verdict for tl in tilts}
        assert verdicts == {Verdict.STRICT_LOCAL_MARTINGALE}

        true_model = table4_model(0.7, mu=0.0)
        verdicts = {
            classify_under_Q(true_model, tl).verdict
            for tl in (constant_tilt(0.0), decaying)
        }
        assert verdicts == {Verdict.TRUE_MARTINGALE}
