"""Monte Carlo verification engine.

Estimators are conditional Monte Carlo (Glasserman, *Monte Carlo Methods
in Financial Engineering*, 2004, section 4.7): each sample draws one crash
time gamma and takes the estimand's closed-form mean given gamma, so no
Gaussian is drawn.  The pre-crash log price is (mu - sigma^2/2) t + phi(t)
+ sigma W_t and the crash multiplies the price by 1 - delta(gamma): S_T is
the wealth of a unit held throughout, whose law needs no table.  The
pre-crash wealth fraction pi(t) is deterministic and the post-crash one
constant, so given gamma < T, log(X_T / x) is Gaussian with mean D(gamma)
+ log(1 - pi(gamma) delta(gamma)) + r_post (T - gamma) and variance
V(gamma) + pi_post^2 sigma^2 (T - gamma), where D(t) = int_0^t pi (mu_eff
ds + dE) - sigma^2/2 int_0^t pi^2 ds, V(t) = sigma^2 int_0^t pi^2 ds and
r_post = pi_post mu_eff - pi_post^2 sigma^2 / 2.  Under the physical
measure mu_eff = mu and the exponent E is phi; under the tilted measure
the drift vanishes, E = int phi'(1 + y), and the crash time is drawn from
the tilted law; the law and E come from the solution's dual measure,
built once per solution.  pi, D and V are tabulated once per wealth
estimate; that quadrature is the only discretization error.

Randomness is counter-based (Philox) keyed by (seed, block), with a fixed
block layout, so estimates are pure functions of (config, model, strategy)
and blocks can fan out across workers without changing the result.  Each
sample stands for two of the ``n_paths`` paths (an odd last path is a
sample of its own).  A block sorts its uniforms (its statistics ignore the
order), so its crash times reach the table lookups in order, and forms its
values in sub-blocks of ``_SUB_BLOCK`` samples, which bounds the
temporaries and changes no bit; block means and squared deviations merge
in block order (Chan, Golub & LeVeque, *Amer. Statist.* 37, 1983), which
keeps the estimate deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import HORIZON_NODES, horizon_grid, panel_rule
from .hazard import MarketModel, ModelError
from .solver import Preference, Solution

_TERMINAL_BLOCK_PAIRS = 1 << 15
_SUB_BLOCK = 1 << 14  # samples per pass of the conditional-value kernel


class SimulationDiagnostic(RuntimeError):
    """Simulation aborted; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SimConfig:
    """Reproducible simulation settings; estimates are pure functions of
    (config, model, strategy).

    The estimators are exact given the crash time and do not step, so
    nothing reads ``n_steps``; it stays only for callers that still pass it.
    """

    n_paths: int = 100_000
    n_steps: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n_paths: int
    seed: int
    estimand: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Strategy:
    """Deterministic pre-crash fraction curve plus a post-crash constant."""

    label: str
    pre_crash: Callable
    post_crash: float

    def pre(self, t) -> np.ndarray:
        return np.asarray(self.pre_crash(np.asarray(t, dtype=float)), dtype=float)


def merton_strategy(model: MarketModel, p: float) -> Strategy:
    frac = model.mu / (p * model.sigma**2)
    return Strategy("merton", lambda t, _f=frac: np.full(np.shape(np.asarray(t)), _f), frac)


def optimal_strategy(solution: Solution) -> Strategy:
    return Strategy(
        "optimal",
        lambda t: solution.fraction_along(solution.tilt, t),
        solution.merton_fraction,
    )


def myopic_only_strategy(solution: Solution) -> Strategy:
    return Strategy(
        "myopic",
        lambda t: solution.fraction_along(solution.myopic, t),
        solution.merton_fraction,
    )


def scaled_strategy(base: Strategy, factor: float) -> Strategy:
    return Strategy(
        f"{factor:g}x {base.label}",
        lambda t, _b=base, _f=factor: _f * _b.pre(t),
        factor * base.post_crash,
    )


# -- estimands ---------------------------------------------------------------


@dataclass(frozen=True)
class TerminalPrice:
    """E[S_T] under the physical measure (martingale-defect probe), the
    expected wealth of a unit held throughout."""


@dataclass(frozen=True)
class ExpectedUtility:
    strategy: Strategy
    p: float
    x: float = 1.0

    def __post_init__(self):
        Preference(self.p, self.x)  # same checks, same ModelError


@dataclass(frozen=True)
class BudgetUnderQ:
    """E^Q[X_T] for the optimal strategy; must equal the initial capital."""

    solution: Solution


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = ((int(seed) & (2**64 - 1)) << 64) | (int(block) & (2**60 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def _block_plan(n_paths: int) -> list[int]:
    """Fixed block layout as sample counts: full blocks of samples that
    stand for two paths each, then a one-path sample if n_paths is odd.
    The layout depends only on n_paths, never on workers."""
    n_pairs, odd = divmod(n_paths, 2)
    size = _TERMINAL_BLOCK_PAIRS
    return [min(size, n_pairs - s) for s in range(0, n_pairs, size)] + [1] * odd


# -- wealth ------------------------------------------------------------------


class _WealthLaw:
    """Gaussian law of log(X_T / x) given the crash time.

    Without ``solution`` this is the physical measure (drift mu, exponent
    phi, the model's crash law); with it, the solution's dual measure (no
    drift, its crash law and its exponent phi + int phi' y).  pi, D and V
    are tabulated on ``grid``: the smooth part pi mu_eff - sigma^2
    pi^2 / 2 and pi^2 with :class:`PanelRule`, the exponent part as the
    Stieltjes sum of pi against exact increments of E, so an exponent that
    blows up at the horizon never meets the cubic rule.
    """

    def __init__(self, model: MarketModel, strategy: Strategy, grid: np.ndarray,
                 solution: Optional[Solution] = None):
        cap = np.nextafter(model.horizon, 0.0)
        rule = panel_rule(grid)

        # atom paths run to just below the horizon under P; the tilted law
        # has no hazard past its table, so under Q they stop at its end
        if solution is None:
            self.crash_law, self.mu_eff, self.atom_time = model.hazard, model.mu, cap
            self.exponent = lambda t: np.asarray(model.excess.phi(np.minimum(t, cap)))
        else:
            self.crash_law = dual = solution.dual_measure
            self.mu_eff, self.exponent, self.atom_time = 0.0, dual.exponent, dual.grid[-1]

        self.model, self.strategy, self.grid = model, strategy, grid
        self.sig2 = model.sigma**2
        self.pi = strategy.pre(grid)
        self.E = self.exponent(grid)
        steps = 0.5 * (self.pi[1:] + self.pi[:-1]) * np.diff(self.E)
        self.D = rule.cumulative_from_left(self._smooth(self.pi))
        self.D[1:] += np.cumsum(steps)
        self.V = self.sig2 * rule.cumulative_from_left(self.pi**2)
        pp = strategy.post_crash
        self.r_post = pp * self.mu_eff - 0.5 * pp * pp * self.sig2
        self.v_post = pp * pp * self.sig2

    def _smooth(self, pi):
        return pi * self.mu_eff - 0.5 * self.sig2 * pi**2

    def moments(self, gam: np.ndarray):
        """(mean, standard deviation, bankrupt mask) of log(X_T / x) for
        crash times ``gam``.

        Between table nodes (and past the last one) the partial panel is a
        trapezoid in pi against the exact exponent increment.  Atom paths
        take D and V at ``atom_time`` and get no jump.
        """
        T = self.model.horizon
        atom = gam >= T
        g = np.where(atom, self.atom_time, gam)
        k = np.searchsorted(self.grid, g, side="right") - 1
        pi_k, pi_g = self.pi[k], self.strategy.pre(g)
        dt = g - self.grid[k]
        D = (
            self.D[k]
            + 0.5 * (pi_k + pi_g) * (self.exponent(g) - self.E[k])
            + 0.5 * (self._smooth(pi_k) + self._smooth(pi_g)) * dt
        )
        V = self.V[k] + 0.5 * self.sig2 * (pi_k**2 + pi_g**2) * dt
        factor = 1.0 - pi_g * np.asarray(self.model.delta(g))
        bankrupt = (~atom) & (factor <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_jump = np.where(bankrupt | atom, 0.0, np.log(factor))
        rest = np.where(atom, 0.0, T - gam)
        return D + log_jump + self.r_post * rest, np.sqrt(V + self.v_post * rest), bankrupt


class _PriceLaw:
    """Gaussian law of log S_T given the crash time, in closed form."""

    def __init__(self, model: MarketModel):
        self.model, self.crash_law = model, model.hazard

    def moments(self, gam: np.ndarray):
        m, T = self.model, self.model.horizon
        g = np.minimum(gam, np.nextafter(T, 0.0))  # an atom path earns phi(T-), no jump
        loss = np.where(gam < T, np.minimum(np.asarray(m.delta(g)), 1.0), 0.0)
        with np.errstate(divide="ignore"):
            loc = (m.mu - 0.5 * m.sigma**2) * T + np.asarray(m.excess.phi(g)) + np.log1p(-loss)
        return loc, m.sigma * math.sqrt(T), loss == 1.0


def _estimate(law, cfg: SimConfig, value_fn, estimand: str, ruin_aborts=False) -> EstimatorResult:
    """The block loop behind every estimate.

    Each sample inverts one uniform through the law's crash law into its
    crash time; ``value_fn(mean, sd, bankrupt)`` maps the moments of
    log(X_T / x) given it to the estimand's conditional mean.
    """
    start = time.perf_counter()
    n, mean, m2, bankrupt_samples = 0, 0.0, 0.0, 0
    for block, count in enumerate(_block_plan(cfg.n_paths)):
        gam = law.crash_law.inverse_cdf(np.sort(_block_rng(cfg.seed, block).random(count)))
        values = np.empty(count)
        for s in range(0, count, _SUB_BLOCK):
            loc, sd, bankrupt = law.moments(gam[s : s + _SUB_BLOCK])
            values[s : s + _SUB_BLOCK] = value_fn(loc, sd, bankrupt)
            bankrupt_samples += int(np.count_nonzero(bankrupt))
        if ruin_aborts and bankrupt_samples:  # all in this block: no earlier one aborted
            raise SimulationDiagnostic(
                f"{bankrupt_samples} bankrupt crash-time samples in one block make expected "
                f"utility -inf ({estimand})", {"bankrupt_samples": bankrupt_samples})
        block_mean = float(np.mean(values))
        block_m2 = float(np.sum((values - block_mean) ** 2))
        delta = block_mean - mean
        n += count
        mean += delta * (count / n)
        m2 += block_m2 + delta * delta * (n - count) * (count / n)
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    diagnostics = {
        "bankrupt_samples": bankrupt_samples,
        "runtime_ms": 1e3 * (time.perf_counter() - start),
    }
    return EstimatorResult(mean, stderr, cfg.n_paths, cfg.seed, estimand, diagnostics)


def _crra_value_fn(p: float, x: float):
    # a nonpositive jump factor sends wealth through zero: the strategy is
    # inadmissible, its utility -inf, and the estimate aborts (optimal
    # strategies never do: their post-crash wealth share stays positive)
    def value(loc: np.ndarray, sd: np.ndarray, bankrupt: np.ndarray) -> np.ndarray:
        if abs(p - 1.0) < 1e-12:
            return math.log(x) + loc
        q = 1.0 - p
        return x**q * np.exp(q * loc + 0.5 * (q * sd) ** 2) / q

    return value


def _wealth_value(x: float):
    # a crash that takes the whole position leaves nothing
    def value(loc: np.ndarray, sd: np.ndarray, bankrupt: np.ndarray) -> np.ndarray:
        return np.where(bankrupt, 0.0, x * np.exp(loc + 0.5 * sd**2))

    return value


def estimate(model: MarketModel, cfg: SimConfig, estimand) -> EstimatorResult:
    """Mean and standard error of the requested estimand.

    Every sample draws one crash time and takes the estimand's exact mean
    given it.  ``TerminalPrice`` is E[S_T] under the physical measure,
    ``ExpectedUtility`` the utility of the strategy's wealth there;
    ``BudgetUnderQ`` estimates E^Q[X_T] of the optimal wealth under its
    solution's dual measure, on the solution's model only (another raises
    :class:`~bubblemkt.hazard.ModelError`).  E[S_T] is exact given the
    crash time, a wealth law up to the quadrature of its D and V tables.
    """
    if isinstance(estimand, TerminalPrice):
        return _estimate(_PriceLaw(model), cfg, _wealth_value(1.0), "E_ST")
    grid = horizon_grid(model.horizon, HORIZON_NODES)
    if isinstance(estimand, ExpectedUtility):
        label = f"E_U[{estimand.strategy.label}]"
        law = _WealthLaw(model, estimand.strategy, grid)
        return _estimate(law, cfg, _crra_value_fn(estimand.p, estimand.x), label, ruin_aborts=True)
    if isinstance(estimand, BudgetUnderQ):
        sol = estimand.solution
        if model != sol.model:
            raise ModelError("BudgetUnderQ estimates under its solution's model, not another")
        law = _WealthLaw(model, optimal_strategy(sol), grid, sol)
        return _estimate(law, cfg, _wealth_value(sol.preference.x), "EQ_XT")
    raise TypeError(f"unknown estimand: {estimand!r}")
