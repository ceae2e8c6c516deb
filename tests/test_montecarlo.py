import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from bubblemkt import (
    BudgetUnderQ,
    ConstantExcess,
    ConstantJumpSizeExcess,
    ExponentialCutoffHazard,
    ExpectedUtility,
    LPPLHazard,
    MarketModel,
    Preference,
    SimConfig,
    SimulationDiagnostic,
    Strategy,
    TabulatedHazard,
    TerminalPrice,
    UniformHazard,
    estimate,
    merton_strategy,
    myopic_only_strategy,
    optimal_strategy,
    solve_optimal,
)
from bubblemkt import elmm
from bubblemkt.elmm import TiltFunction, build_tilted_measure
from bubblemkt.hazard import DomainError, ModelError
from bubblemkt._quad import HORIZON_CLIP, HORIZON_NODES, horizon_grid
from bubblemkt.montecarlo import (
    _PriceLaw,
    _SUB_BLOCK,
    _TERMINAL_BLOCK_PAIRS,
    _WealthLaw,
    _block_plan,
    _block_rng,
    _crra_value_fn,
    _estimate,
    _wealth_value,
)

# the 9-knot tabulated law of the CI scenarios
NINE_KNOT_CDF = [0.0, 0.05, 0.12, 0.2, 0.3, 0.42, 0.55, 0.68, 0.8]

# a unit held throughout: its wealth is the price
HOLD = Strategy("buy and hold", np.ones_like, 1.0)


def analytic_terminal_mean(model):
    """Quadrature oracle for E[S_T] of a driftless model: the post-crash
    level integrated against the crash density plus the atom term."""
    law = model.hazard
    T = law.horizon

    def integrand(v):
        phi = float(model.excess.phi(v))
        delta = float(model.delta(v))
        dens = float(law.density(v))
        return math.exp(phi) * (1.0 - delta) * dens

    total, _ = integrate.quad(integrand, 0.0, T * (1.0 - 1e-12), limit=200)
    if law.atom > 0.0:
        total += law.atom * math.exp(model.phi_left_limit())
    return total


class TestSampleCrashTime:
    # generalized-inverse sampling: exactly the horizon on the survival atom
    def test_uniform_identity(self):
        assert UniformHazard(1.0).inverse_cdf(0.37) == pytest.approx(
            0.37, abs=1e-14
        )

    def test_atom_hit(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        assert law.inverse_cdf(0.8) == 1.0  # 0.8 > 1 - e^{-1}

    def test_exponential_branch(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        assert law.inverse_cdf(0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_rejects_bad_variate(self):
        with pytest.raises(DomainError):
            UniformHazard(1.0).inverse_cdf(1.0)

    def test_tilted_law_sampling(self, base_model):
        tm = build_tilted_measure(
            base_model, TiltFunction(y=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        )
        assert tm.inverse_cdf(0.5) == pytest.approx(math.log(2.0), rel=1e-8)


class TestPricePaths:
    # the jump a price path takes at the crash, as every wealth estimate takes it
    def test_optimal_jump_factor_is_wealth_share(self, base_model):
        # at the crash the wealth multiplies by the post-crash share a > 0
        sol = solve_optimal(base_model, Preference(4.0))
        strat = optimal_strategy(sol)
        t = np.linspace(0.0, 0.999, 257)
        factors = 1.0 - strat.pre(t) * np.asarray(base_model.delta(t))
        from bubblemkt.solver import aux_eval

        avals = np.array(
            [aux_eval(base_model, sol.preference, float(u), float(sol.tilt(u))).a for u in t]
        )
        assert np.allclose(factors, avals, atol=1e-10)
        assert np.all(factors > 0.0)


@pytest.fixture(scope="module")
def lppl_model():
    """LPPL law with power 0.4: 5% of its crash mass lies past the solver
    grid, in the last millionth of the horizon."""
    law = LPPLHazard(b=1.2, c=0.3, power=0.4, omega=6.0, phase=0.5, horizon=1.0)
    return MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, 0.3))


@pytest.mark.parametrize("build", [optimal_strategy, myopic_only_strategy])
def test_fraction_frozen_past_solved_grid(lppl_model, build):
    # the tilt is frozen beyond the solver grid, so the fraction is too;
    # evaluating phi' there exactly sent the optimal one from 6e-5 to -47
    sol = solve_optimal(lppl_model, Preference(4.0))
    strat = build(sol)
    edge = strat.pre(sol.grid[-1])
    assert np.all(strat.pre(np.array([1.0 - 1e-7, 1.0 - 1e-9])) == edge)


class TestEstimators:
    def test_terminal_price_strict_local_defect(self, ex37_model):
        cfg = SimConfig(n_paths=200_000, seed=123)
        result = estimate(ex37_model, cfg, TerminalPrice())
        oracle = analytic_terminal_mean(ex37_model)
        assert oracle == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)
        assert abs(result.mean - oracle) <= 3.0 * result.stderr
        # martingale-defect separation: the interval excludes 1 decisively
        assert (1.0 - result.mean) / result.stderr > 5.0

    def test_terminal_price_true_martingale(self):
        law = ExponentialCutoffHazard(1.0, 1.0)
        model = MarketModel(0.0, 0.2, law, ConstantExcess(0.2))
        result = estimate(model, SimConfig(n_paths=200_000, seed=5), TerminalPrice())
        assert analytic_terminal_mean(model) == pytest.approx(1.0, abs=1e-9)
        assert abs(result.mean - 1.0) <= 3.0 * result.stderr

    def test_determinism(self, ex37_model):
        cfg = SimConfig(n_paths=30_000, seed=99)
        a = estimate(ex37_model, cfg, TerminalPrice())
        b = estimate(ex37_model, cfg, TerminalPrice())
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_seed_changes_estimate(self, ex37_model):
        a = estimate(ex37_model, SimConfig(n_paths=30_000, seed=1), TerminalPrice())
        b = estimate(ex37_model, SimConfig(n_paths=30_000, seed=2), TerminalPrice())
        assert a.mean != b.mean

    def test_terminal_price_inverts_each_block_once(self, ex37_model, monkeypatch):
        law_type = type(ex37_model.hazard)
        inverse_cdf = law_type.inverse_cdf
        sizes = []

        def counting(self, u):
            sizes.append(len(u))
            return inverse_cdf(self, u)

        monkeypatch.setattr(law_type, "inverse_cdf", counting)
        # one full block of pairs, one block with the last pair, one single
        cfg = SimConfig(n_paths=2 * _TERMINAL_BLOCK_PAIRS + 3, seed=1)
        estimate(ex37_model, cfg, TerminalPrice())
        assert sizes == [_TERMINAL_BLOCK_PAIRS, 1, 1]

    def test_expected_utility_against_certainty_equivalent(self, base_model):
        from bubblemkt import certainty_equivalent

        prefs = Preference(4.0)
        sol = solve_optimal(base_model, prefs)
        cfg = SimConfig(n_paths=40_000, n_steps=512, seed=17)
        result = estimate(base_model, cfg, ExpectedUtility(optimal_strategy(sol), 4.0))
        ce = certainty_equivalent(sol)
        band = sorted(
            ((1 - 4.0) * (result.mean + s * result.stderr)) ** (1 / (1 - 4.0))
            for s in (-3.0, 3.0)
        )
        assert band[0] <= ce <= band[1]

    @pytest.mark.parametrize("measure", ["P", "Q"])
    def test_table_refinement(self, base_model, measure):
        # D and V tabulated on 2049 and on 4097 nodes agree at the shared
        # nodes: the law's only discretization is converged
        sol = solve_optimal(base_model, Preference(4.0))
        strat = optimal_strategy(sol)
        T = base_model.horizon
        given = sol if measure == "Q" else None
        coarse = _WealthLaw(base_model, strat, horizon_grid(T, 2049), given)
        fine = _WealthLaw(base_model, strat, horizon_grid(T, 4097), given)
        assert np.max(np.abs(fine.D[::2] - coarse.D)) <= 1e-9
        assert np.max(np.abs(fine.V[::2] - coarse.V)) <= 1e-9

    def test_atom_path_law_runs_to_horizon(self, lppl_model):
        # a constant fraction on a no-crash path earns the whole run-up
        # phi(T-), not only the part up to the table end
        strat = merton_strategy(lppl_model, 4.0)
        law = _WealthLaw(lppl_model, strat, horizon_grid(lppl_model.horizon, HORIZON_NODES))
        T, pi, sig = lppl_model.horizon, strat.post_crash, lppl_model.sigma
        mean, sd, _ = law.moments(np.array([T]))
        exact = pi * (lppl_model.mu * T + lppl_model.phi_left_limit()) - 0.5 * (pi * sig) ** 2 * T
        assert mean[0] == pytest.approx(exact, abs=1e-9)
        assert sd[0] == pytest.approx(pi * sig * math.sqrt(T), rel=1e-9)

    @pytest.mark.parametrize("case", ["ex37", "baseline", "lppl0.4"])
    def test_buy_and_hold_law_is_log_price_law(
        self, ex37_model, base_model, lppl_model, case
    ):
        # with pi = 1 and x = 1 the wealth law is the law of log S_T: mean
        # (mu - sigma^2/2) T + phi(gamma) + log(1 - delta(gamma)), sd sigma sqrt(T)
        model = {"ex37": ex37_model, "baseline": base_model, "lppl0.4": lppl_model}[case]
        T, sig = model.horizon, model.sigma
        law = _WealthLaw(model, HOLD, horizon_grid(T, HORIZON_NODES))
        table_end = T * (1.0 - HORIZON_CLIP)
        inside = np.array([0.0, 0.1, 0.5, 0.9, 0.999, table_end])
        past = np.array([T * (1.0 - 5e-10), np.nextafter(T, 0.0)])
        drift = (model.mu - 0.5 * sig**2) * T
        price_law, price = _PriceLaw(model), _wealth_value(1.0)
        for gam in (inside, past):
            mean, sd, bankrupt = law.moments(gam)
            exact = drift + np.asarray(model.excess.phi(gam)) + np.log1p(-np.asarray(model.delta(gam)))
            np.testing.assert_allclose(mean, exact, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(sd, sig * math.sqrt(T), rtol=1e-12)
            assert not np.any(bankrupt)
            # the closed-form conditional price is the wealth law's mean
            np.testing.assert_allclose(
                price(*price_law.moments(gam)), np.exp(mean + 0.5 * sd**2), rtol=1e-12, atol=0.0
            )
            assert not np.any(price_law.moments(gam)[2])
        if model.hazard.atom > 0.0:
            # an atom path earns the whole run-up phi(T-) and no jump
            mean, sd, _ = law.moments(np.array([T]))
            assert mean[0] == pytest.approx(drift + model.phi_left_limit(), abs=1e-12)
            assert sd[0] == pytest.approx(sig * math.sqrt(T), rel=1e-12)
            value = price(*price_law.moments(np.array([T])))
            assert value[0] == pytest.approx(math.exp(mean[0] + 0.5 * sd[0] ** 2), rel=1e-12)

    def test_block_merge_matches_two_pass(self, base_model):
        # one full block of pairs, one block with the last pair, one single
        cfg = SimConfig(n_paths=2 * _TERMINAL_BLOCK_PAIRS + 3, seed=4)
        law = _WealthLaw(base_model, HOLD, horizon_grid(1.0, HORIZON_NODES))
        result = _estimate(law, cfg, _wealth_value(1.0), "probe")
        # one conditional mean per crash time, the whole sample at once
        gam = np.concatenate([
            law.crash_law.inverse_cdf(np.sort(_block_rng(cfg.seed, block).random(count)))
            for block, count in enumerate(_block_plan(cfg.n_paths))
        ])
        loc, sd, _ = law.moments(gam)
        v = np.exp(loc + 0.5 * sd**2)
        mean = math.fsum(v.tolist()) / len(v)
        var = math.fsum(((v - mean) ** 2).tolist()) / (len(v) - 1)
        assert result.mean == pytest.approx(mean, rel=1e-12)
        assert result.stderr == pytest.approx(math.sqrt(var / len(v)), rel=1e-12)

    @pytest.mark.parametrize("case", ["baseline", "lppl0.4", "tabulated"])
    def test_budget_identity_under_tilted_measure(self, base_model, lppl_model, case):
        model = base_model
        if case == "lppl0.4":
            # the solved tilt is frozen past its grid, so with lppl_model's
            # phi' = 0.3 kappa unbounded, int (phi' y)^2 diverges; a constant
            # excess keeps the law and its frozen tail
            model = MarketModel(0.1, 0.2, lppl_model.hazard, ConstantExcess(0.2))
        elif case == "tabulated":
            # knot-panel Newton on a curve-backed law and on its tilted law
            law = TabulatedHazard(np.linspace(0.0, 1.0, 9), NINE_KNOT_CDF)
            model = MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, 0.3))
        sol = solve_optimal(model, Preference(4.0))
        cfg = SimConfig(n_paths=40_000, n_steps=512, seed=53)
        result = estimate(model, cfg, BudgetUnderQ(sol))
        assert abs(result.mean - 1.0) <= 3.0 * result.stderr

    def test_dual_measure_is_built_once_per_solution(self, base_model, monkeypatch):
        sol = solve_optimal(base_model, Preference(4.0))
        admissions = [0]
        admit = elmm._admit_tilt

        def counting(*args):
            admissions[0] += 1
            return admit(*args)

        monkeypatch.setattr(elmm, "_admit_tilt", counting)
        cfg = SimConfig(n_paths=20_000, seed=53)
        first = estimate(base_model, cfg, BudgetUnderQ(sol))
        second = estimate(base_model, cfg, BudgetUnderQ(sol))
        assert admissions[0] == 1
        assert sol.dual_measure is sol.dual_measure
        assert (first.mean, first.stderr) == (second.mean, second.stderr)

    def test_budget_under_q_needs_its_solutions_model(self, base_model):
        sol = solve_optimal(base_model, Preference(4.0))
        law = ExponentialCutoffHazard(rate=1.0, horizon=1.0)  # same parameters, new object
        twin = MarketModel(0.1, 0.2, law, ConstantExcess(0.2))
        with pytest.raises(ModelError, match="solution's model"):
            estimate(twin, SimConfig(n_paths=1_000, seed=1), BudgetUnderQ(sol))

    def test_bankruptcy_aborts(self, ex37_model):
        model = MarketModel(
            ex37_model.mu, ex37_model.sigma, ex37_model.hazard, ex37_model.excess
        )
        greedy = Strategy("greedy", lambda t: np.full(np.shape(np.asarray(t)), 5.0), 5.0)
        cfg = SimConfig(n_paths=4_000, n_steps=64, seed=2)
        with pytest.raises(SimulationDiagnostic) as info:
            estimate(model, cfg, ExpectedUtility(greedy, 0.5))
        # the abort names the bankrupt crash times of block 0, the only block
        law = _WealthLaw(model, greedy, horizon_grid(1.0, HORIZON_NODES))
        u = np.sort(_block_rng(cfg.seed, 0).random(_block_plan(cfg.n_paths)[0]))
        count = int(np.sum(law.moments(model.hazard.inverse_cdf(u))[2]))
        assert 0 < count < len(u)
        assert info.value.diagnostics == {"bankrupt_samples": count}
        assert str(info.value).startswith(f"{count} bankrupt crash-time samples ")

    @pytest.mark.parametrize(
        "p, x", [(-2.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (0.5, -1.0), (1.0, 0.0), (4.0, math.inf)]
    )
    def test_expected_utility_rejects_bad_preference(self, p, x):
        with pytest.raises(ModelError):
            ExpectedUtility(HOLD, p, x)

    def test_conditional_mean_beats_antithetic_pairs(self, base_model):
        # reference: on the same crash times, the antithetic pair average
        # over a Gaussian drawn after the uniforms in each block's stream
        p = 0.25
        sol = solve_optimal(base_model, Preference(p))
        strat = optimal_strategy(sol)
        cfg = SimConfig(n_paths=40_000, seed=17)
        result = estimate(base_model, cfg, ExpectedUtility(strat, p))
        law = _WealthLaw(base_model, strat, horizon_grid(1.0, HORIZON_NODES))
        samples = []
        for block, count in enumerate(_block_plan(cfg.n_paths)):
            rng = _block_rng(cfg.seed, block)
            loc, sd, _ = law.moments(law.crash_law.inverse_cdf(np.sort(rng.random(count))))
            z = rng.standard_normal(count)
            pair = [np.exp((1 - p) * (loc + s * sd * z)) / (1 - p) for s in (1.0, -1.0)]
            samples.append(0.5 * (pair[0] + pair[1]))
        v = np.concatenate(samples)
        antithetic_se = float(np.std(v, ddof=1)) / math.sqrt(len(v))
        assert abs(result.mean - float(np.mean(v))) <= 3.0 * antithetic_se
        assert antithetic_se >= 1.8 * result.stderr

    def test_crash_law_under_tilted_measure(self, base_model):
        # empirical crash times under the tilted law match its CDF
        sol = solve_optimal(base_model, Preference(4.0))
        tm = build_tilted_measure(
            base_model, TiltFunction(y=lambda t: sol.tilt(t), label="solved")
        )
        rng = np.random.Generator(np.random.Philox(key=2024))
        u = rng.random(100_000)
        gam = np.asarray(tm.inverse_cdf(u))
        crashed = gam[gam < 1.0]

        def conditional_cdf(t):
            t = np.asarray(t, dtype=float)
            return np.asarray(tm.cdf(t)) / (1.0 - tm.atom)

        ks = stats.kstest(crashed, conditional_cdf)
        # 1% critical value for the KS statistic, n = number of crashes
        assert ks.statistic < 1.63 / math.sqrt(len(crashed))


@pytest.mark.parametrize(
    "p, x", [(0.25, 1.0), (0.5, 2.5), (1.0, 1.0), (1.0, 0.3), (4.0, 1.0), (4.0, 2.5)]
)
def test_conditional_means_match_gauss_hermite(p, x):
    # each closed form against 60-point Gauss-Hermite quadrature of the
    # sample value x e^w or its CRRA utility over w ~ N(loc, sd^2)
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    weights = weights / math.sqrt(2.0 * math.pi)
    loc = np.repeat([-1.5, -0.2, 0.4, 0.7, 2.0], 5)
    sd = np.tile([1e-3, 0.05, 0.3, 0.6, 1.0], 5)
    bankrupt = np.zeros(loc.shape, dtype=bool)
    wealth = x * np.exp(loc[:, None] + sd[:, None] * nodes)
    utility = np.log(wealth) if p == 1.0 else wealth ** (1 - p) / (1 - p)
    for value_fn, sample in ((_wealth_value(x), wealth), (_crra_value_fn(p, x), utility)):
        np.testing.assert_allclose(
            value_fn(loc, sd, bankrupt), sample @ weights, rtol=1e-12, atol=0.0
        )


class TestStochasticExponentialIdentity:
    @pytest.mark.parametrize("alpha", [0.4, 1.0])
    def test_mc_matches_analytic_mean(self, table4_model, alpha):
        model = table4_model(alpha, mu=0.0)
        oracle = analytic_terminal_mean(model)
        result = estimate(model, SimConfig(n_paths=300_000, seed=777), TerminalPrice())
        assert abs(result.mean - oracle) <= 3.0 * result.stderr

    def test_atom_family(self):
        law = ExponentialCutoffHazard(1.3, 1.0)
        model = MarketModel(0.0, 0.25, law, ConstantExcess(0.3))
        oracle = analytic_terminal_mean(model)
        result = estimate(model, SimConfig(n_paths=300_000, seed=778), TerminalPrice())
        assert abs(result.mean - oracle) <= 3.0 * result.stderr


def test_merton_strategy_levels(base_model):
    strat = merton_strategy(base_model, 4.0)
    assert strat.post_crash == pytest.approx(0.625)
    assert float(strat.pre(np.array([0.2]))[0]) == pytest.approx(0.625)


def _tabulated_model():
    knots = np.linspace(0.0, 1.0, 9)
    law = TabulatedHazard(knots, 0.6 * -np.expm1(-2.0 * knots) / -math.expm1(-2.0))
    return MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, 0.3))


@pytest.mark.parametrize("case", ["exponential", "uniform", "lppl0.4", "tabulated"])
def test_terminal_price_matches_buy_and_hold_wealth(base_model, ex37_model, lppl_model, case):
    # the closed-form conditional price against the pi = 1 wealth law on the
    # same crash times; the paths fill one block of pairs, then a block of a
    # full sub-block and five pairs, then a single
    model = {"exponential": base_model, "uniform": ex37_model, "lppl0.4": lppl_model,
             "tabulated": _tabulated_model()}[case]
    cfg = SimConfig(n_paths=2 * (_TERMINAL_BLOCK_PAIRS + _SUB_BLOCK + 5) + 1, seed=31)
    law = _WealthLaw(model, HOLD, horizon_grid(model.horizon, HORIZON_NODES))
    wealth = _estimate(law, cfg, _wealth_value(1.0), "E_ST")
    price = estimate(model, cfg, TerminalPrice())
    assert price.mean == pytest.approx(wealth.mean, rel=1e-13, abs=0.0)
    assert price.stderr == pytest.approx(wealth.stderr, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("law", [UniformHazard(1.0), ExponentialCutoffHazard(1.0, 1.0)],
                         ids=["uniform", "exponential"])
def test_full_loss_price_is_zero_and_bankrupt(law):
    model = MarketModel(0.1, 0.2, law, ConstantJumpSizeExcess(law, 1.0))
    cfg = SimConfig(n_paths=20_001, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate(model, cfg, TerminalPrice())
    gam = np.concatenate([
        law.inverse_cdf(np.sort(_block_rng(cfg.seed, block).random(count)))
        for block, count in enumerate(_block_plan(cfg.n_paths))
    ])
    survived = np.count_nonzero(gam == law.horizon)
    assert result.diagnostics["bankrupt_samples"] == len(gam) - survived
    # only a path with no crash keeps a price, exp(mu T + phi(T-))
    kept = survived / len(gam) * math.exp(0.1 + model.phi_left_limit())
    assert result.mean == pytest.approx(kept, rel=1e-12, abs=0.0)


def test_conditional_price_is_formed_in_log_space():
    # e^phi overflows at phi = 725 while e^phi (1 - delta) = e^688 does not
    delta0 = 1.0 - 2.0**-53
    law = ExponentialCutoffHazard(740.0, 1.0)
    model = MarketModel(0.0, 0.2, law, ConstantJumpSizeExcess(law, delta0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loc, sd, bankrupt = _PriceLaw(model).moments(np.array([0.98]))
        value = _wealth_value(1.0)(loc, sd, bankrupt)
    assert not bankrupt[0]
    assert math.log(value[0]) == pytest.approx(740.0 * 0.98 * delta0 - 53.0 * math.log(2.0), rel=1e-12)
