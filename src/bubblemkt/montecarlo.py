"""Monte Carlo verification engine.

Estimators are conditional Monte Carlo (Glasserman, *Monte Carlo Methods
in Financial Engineering*, 2004, ch. 4): each path draws one crash time
gamma and one Gaussian, and is exact given gamma.  The pre-crash log price
is (mu - sigma^2/2) t + phi(t) + sigma W_t and the crash multiplies the
price by 1 - delta(gamma), so S_T is the terminal wealth of a unit held
throughout (pi = 1, x = 1).  The pre-crash wealth fraction pi(t) is
deterministic and the post-crash one constant, so given gamma < T,
log(X_T / x) is Gaussian with mean D(gamma) + log(1 - pi(gamma)
delta(gamma)) + r_post (T - gamma) and variance V(gamma) + pi_post^2
sigma^2 (T - gamma), where D(t) = int_0^t pi (mu_eff ds + dE) - sigma^2/2
int_0^t pi^2 ds, V(t) = sigma^2 int_0^t pi^2 ds and r_post = pi_post mu_eff
- pi_post^2 sigma^2 / 2.  Under the physical measure mu_eff = mu and the
exponent E is phi; under the tilted measure the drift vanishes, E = int
phi'(1 + y), and the crash time is drawn from the tilted law.  D and V are
tabulated once per estimate; that quadrature is the only discretization
error.  The single-path simulators step on a uniform grid of ``n_steps``
split at the crash.

Randomness is counter-based (Philox) keyed by (seed, block), with a fixed
block layout, so estimates are pure functions of (config, model, strategy)
and blocks can fan out across workers without changing the result.
Gaussians are paired antithetically; the crash time is shared within a
pair.  Each block's uniforms are sorted, so its crash times reach the
table lookup in order; the Gaussians are iid and independent of them, so
the sample law is unchanged.  Block means and squared deviations come
from numpy and merge in block order (Chan, Golub & LeVeque, *Amer.
Statist.* 37, 1983), which keeps the estimate deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import Curve, PanelRule, horizon_grid
from .elmm import TiltFunction, build_tilted_measure
from .hazard import MarketModel
from .solver import Solution

_TERMINAL_BLOCK_PAIRS = 1 << 15
_PATH_KEY_OFFSET = 1 << 60
_TABLE_NODES = 4097  # nodes of the D and V tables


class SimulationDiagnostic(RuntimeError):
    """Simulation aborted; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SimConfig:
    """Reproducible simulation settings; estimates are pure functions of
    (config, model, strategy).

    ``n_steps`` sets only the uniform grids of the single-path simulators;
    the estimators are exact given the crash time and do not step.
    """

    n_paths: int = 100_000
    n_steps: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.n_steps < 2:
            raise ValueError("need at least two wealth steps")


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
        lambda t: solution.fraction_pre_crash(t),
        solution.merton_fraction,
    )


def myopic_only_strategy(solution: Solution) -> Strategy:
    def pre(t):
        # frozen beyond the solved grid, like the myopic curve itself
        t = np.minimum(np.asarray(t, dtype=float), solution.grid[-1])
        return solution.fraction_given(t, solution.myopic(t))

    return Strategy("myopic", pre, solution.merton_fraction)


_BUY_AND_HOLD = Strategy("buy and hold", np.ones_like, 1.0)


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


@dataclass(frozen=True)
class BudgetUnderQ:
    """E^Q[X_T] for the optimal strategy; must equal the initial capital."""

    solution: Solution


def sample_crash_time(dist, u):
    """Generalized-inverse sampling of the crash time.

    ``dist`` is any crash-time law exposing ``inverse_cdf`` (a hazard
    family or a tilted measure); returns exactly the horizon when the
    variate falls into the survival atom.
    """
    return dist.inverse_cdf(u)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = ((int(seed) & (2**64 - 1)) << 64) | (int(block) & (2**60 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def _block_plan(n_paths: int):
    """Fixed block layout as (count, paired) tuples: full blocks of
    antithetic pairs, then a one-path block if n_paths is odd.  The layout
    depends only on n_paths, never on workers."""
    n_pairs, odd = divmod(n_paths, 2)
    size = _TERMINAL_BLOCK_PAIRS
    return [(min(size, n_pairs - s), True) for s in range(0, n_pairs, size)] + [(1, False)] * odd


# -- wealth ------------------------------------------------------------------


class _WealthLaw:
    """Gaussian law of log(X_T / x) given the crash time.

    Without ``solution`` this is the physical measure (drift mu, exponent
    phi, the model's crash law); with it, the tilted measure built from the
    solved tilt (no drift, exponent phi + int phi' y, the tilted law).  D
    and V are tabulated on ``grid``: the smooth part pi mu_eff - sigma^2
    pi^2 / 2 and pi^2 with :class:`PanelRule`, the exponent part as the
    Stieltjes sum of pi against exact increments of E, so an exponent that
    blows up at the horizon never meets the cubic rule.
    """

    def __init__(
        self,
        model: MarketModel,
        strategy: Strategy,
        grid: np.ndarray,
        solution: Optional[Solution] = None,
    ):
        T = model.horizon
        cap = np.nextafter(T, 0.0)
        rule = PanelRule(grid)

        def phi(t):
            return np.asarray(model.excess.phi(np.minimum(t, cap)))

        # atom paths run to just below the horizon under P; the tilted law
        # has no hazard past the table, so under Q they stop at its end
        if solution is None:
            self.crash_law, mu_eff, self.exponent = model.hazard, model.mu, phi
            self.atom_time = cap
        else:
            tilt = TiltFunction(y=solution.tilt, label="solved tilt")
            self.crash_law = build_tilted_measure(model, tilt, grid=grid)
            mu_eff = 0.0
            load = rule.cumulative_from_left(np.asarray(model.excess.dphi(grid)) * tilt(grid))
            interp = Curve(grid, load)
            self.exponent = lambda t: phi(t) + interp(t)
            self.atom_time = grid[-1]

        self.model, self.strategy, self.grid = model, strategy, grid
        self.sig2 = model.sigma**2
        self.mu_eff = mu_eff
        self.pi = strategy.pre(grid)
        self.E = self.exponent(grid)
        steps = 0.5 * (self.pi[1:] + self.pi[:-1]) * np.diff(self.E)
        self.D = rule.cumulative_from_left(self._smooth(self.pi))
        self.D[1:] += np.cumsum(steps)
        self.V = self.sig2 * rule.cumulative_from_left(self.pi**2)
        pp = strategy.post_crash
        self.r_post = pp * mu_eff - 0.5 * pp * pp * self.sig2
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


def _estimate(law: _WealthLaw, cfg: SimConfig, value_fn, estimand: str) -> EstimatorResult:
    """The block loop behind every estimate.

    Each path draws one uniform, inverted through the law's crash law into
    its crash time, and one Gaussian; an antithetic pair shares the crash
    time and flips the Gaussian and counts as one sample, its mean value.
    ``value_fn(log_wealth, bankrupt)`` maps log(X_T / x) to the estimand.
    """
    start = time.perf_counter()
    n, mean, m2, bankrupt_paths = 0, 0.0, 0.0, 0
    for block, (count, paired) in enumerate(_block_plan(cfg.n_paths)):
        rng = _block_rng(cfg.seed, block)
        u = np.sort(rng.random(count))
        z = rng.standard_normal(count)
        loc, sd, bankrupt = law.moments(np.asarray(law.crash_law.inverse_cdf(u)))
        values = value_fn(loc + sd * z, bankrupt)
        bankrupt_paths += (1 + paired) * int(np.sum(bankrupt))
        if paired:
            values = 0.5 * (values + value_fn(loc - sd * z, bankrupt))
        block_mean = float(np.mean(values))
        block_m2 = float(np.sum((values - block_mean) ** 2))
        delta = block_mean - mean
        n += count
        mean += delta * (count / n)
        m2 += block_m2 + delta * delta * (n - count) * (count / n)
    stderr = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    diagnostics = {
        "bankrupt_paths": bankrupt_paths,
        "runtime_ms": 1e3 * (time.perf_counter() - start),
    }
    return EstimatorResult(mean, stderr, cfg.n_paths, cfg.seed, estimand, diagnostics)


def _crra_value_fn(p: float, x: float, estimand: str):
    # a nonpositive jump factor sends wealth through zero: the strategy is
    # inadmissible, its utility is -inf, and the estimate aborts (optimal
    # strategies never trigger this: their post-crash wealth share stays
    # positive)
    def value(log_wealth: np.ndarray, bankrupt: np.ndarray) -> np.ndarray:
        if np.any(bankrupt):
            raise SimulationDiagnostic(
                f"{int(np.sum(bankrupt))} bankrupt paths make expected utility "
                f"-inf ({estimand})",
                {"bankrupt_paths": int(np.sum(bankrupt))},
            )
        wealth = x * np.exp(log_wealth)
        if abs(p - 1.0) < 1e-12:
            return np.log(wealth)
        return wealth ** (1.0 - p) / (1.0 - p)

    return value


def _wealth_value(x: float):
    # a crash that takes the whole position leaves nothing
    def value(log_wealth: np.ndarray, bankrupt: np.ndarray) -> np.ndarray:
        return np.where(bankrupt, 0.0, x * np.exp(log_wealth))

    return value


def estimate(model: MarketModel, cfg: SimConfig, estimand) -> EstimatorResult:
    """Mean and standard error of the requested estimand.

    Every path draws one crash time and one Gaussian and samples the
    conditional Gaussian law of log wealth.  ``TerminalPrice`` is the
    buy-and-hold wealth under the physical measure, ``ExpectedUtility``
    the utility of the strategy's wealth there; ``BudgetUnderQ`` samples
    the optimal wealth under the tilted measure built from the solved
    curve and estimates E^Q[X_T].  The wealth law is exact given the crash
    time up to the quadrature of its tables (see the module docstring).
    """
    grid = horizon_grid(model.horizon, _TABLE_NODES)
    if isinstance(estimand, TerminalPrice):
        return _estimate(_WealthLaw(model, _BUY_AND_HOLD, grid), cfg, _wealth_value(1.0), "E_ST")
    if isinstance(estimand, ExpectedUtility):
        label = f"E_U[{estimand.strategy.label}]"
        law = _WealthLaw(model, estimand.strategy, grid)
        return _estimate(law, cfg, _crra_value_fn(estimand.p, estimand.x, label), label)
    if isinstance(estimand, BudgetUnderQ):
        sol = estimand.solution
        law = _WealthLaw(model, optimal_strategy(sol), grid, sol)
        return _estimate(law, cfg, _wealth_value(sol.preference.x), "EQ_XT")
    raise TypeError(f"unknown estimand: {estimand!r}")


# -- per-path operations -----------------------------------------------------


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = ((int(seed) & (2**64 - 1)) << 64) | (
        _PATH_KEY_OFFSET + (int(path_index) & (2**59 - 1))
    )
    return np.random.Generator(np.random.Philox(key=key))


def _path_draws(model: MarketModel, cfg: SimConfig, path_index: int):
    """Crash time, step Gaussians and the two split Gaussians of one path."""
    rng = _path_rng(cfg.seed, path_index)
    u = float(rng.random())
    z = rng.standard_normal(cfg.n_steps)
    g1, g2 = rng.standard_normal(2)
    gam = float(np.asarray(model.hazard.inverse_cdf(np.array([u])))[0])
    return gam, z, g1, g2


def _path_increments(model: MarketModel, cfg: SimConfig, gam: float, z, g1, g2):
    """Knots of one path and what happens between them.

    The knots are the uniform grid of ``n_steps`` with the crash time
    inserted; the step holding the crash splits its Gaussian into one per
    part.  Returns the knot times, the pre-crash exponent at each knot
    (frozen from the crash on), the Brownian increments between knots, and
    the index of the crash knot (``n_steps`` on an atom path, which has no
    crash knot).
    """
    T = model.horizon
    n = cfg.n_steps
    times = np.linspace(0.0, T, n + 1)
    dw = math.sqrt(T / n) * np.asarray(z, dtype=float)
    crash = n
    if gam < T:
        k = int(np.clip(np.searchsorted(times, gam, side="left") - 1, 0, n - 1))
        split = [math.sqrt(gam - times[k]) * g1, math.sqrt(times[k + 1] - gam) * g2]
        dw = np.concatenate([dw[:k], split, dw[k + 1:]])
        times = np.insert(times, k + 1, gam)
        crash = k + 1
    # an atom path stops at phi(T-), which is finite whenever the atom exists
    frozen = min(gam, np.nextafter(T, 0.0))
    exponent = np.asarray(model.excess.phi(np.minimum(times, frozen)))
    return times, exponent, dw, crash


def simulate_price_path(model: MarketModel, cfg: SimConfig, path_index: int):
    """One exact price path: (crash time, grid times, prices).

    The grid step containing the crash is split at the crash, so the jump
    lands at the right price level; the returned prices sit on the uniform
    grid (the final entry is S_T).
    """
    gam, z, g1, g2 = _path_draws(model, cfg, path_index)
    return gam, *_price_path_given(model, cfg, gam, z, g1, g2)


def _price_path_given(model: MarketModel, cfg: SimConfig, gam: float, z, g1, g2):
    times, exponent, dw, crash = _path_increments(model, cfg, gam, z, g1, g2)
    sigma = model.sigma
    w = np.concatenate([[0.0], np.cumsum(dw)])
    log_s = (model.mu - 0.5 * sigma**2) * times + exponent + sigma * w
    if crash < len(dw):
        log_s[crash + 1:] += math.log1p(-float(model.delta(gam)))
        times, log_s = np.delete(times, crash), np.delete(log_s, crash)
    return times, np.exp(log_s)


def simulate_wealth_path(
    model: MarketModel, strategy: Strategy, cfg: SimConfig, path_index: int
) -> float:
    """Terminal wealth of one path under the physical measure, on the
    stream and knots of :func:`simulate_price_path` with the fraction
    frozen over each step.

    Raises :class:`SimulationDiagnostic` when the crash wipes out a
    leveraged position (jump factor <= 0).
    """
    gam, z, g1, g2 = _path_draws(model, cfg, path_index)
    times, exponent, dw, crash = _path_increments(model, cfg, gam, z, g1, g2)
    dt = np.diff(times)
    pi = np.full(len(dt), strategy.post_crash)
    pi[:crash] = strategy.pre(times[:crash])
    sigma = model.sigma
    log_x = float(
        np.sum(pi * (model.mu * dt + np.diff(exponent) + sigma * dw) - 0.5 * (sigma * pi) ** 2 * dt)
    )
    if crash < len(dt):
        factor = 1.0 - float(strategy.pre(gam)) * float(model.delta(gam))
        if factor <= 0.0:
            raise SimulationDiagnostic("path went bankrupt at the crash", {"gamma": gam})
        log_x += math.log(factor)
    return math.exp(log_x)
