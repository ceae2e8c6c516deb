"""Monte Carlo verification engine.

Price paths use the exact scheme: the pre-crash log price is
(mu - sigma^2/2) t + phi(t) + sigma W_t, the crash multiplies the price by
1 - delta(gamma), and afterwards the price is a plain geometric Brownian
motion, so the only discretization error anywhere is the freezing of the
wealth fraction over sub-intervals (the step containing the crash is split
at the crash exactly).  Under the tilted measure the drift vanishes, the
pre-crash exponent becomes int phi'(1 + y), and the crash time is drawn
from the tilted law; the relative jump size is unchanged.

Randomness is counter-based (Philox) keyed by (seed, block), with a fixed
block layout, so estimates are pure functions of (config, model, strategy)
and blocks can fan out across workers without changing the result.
Gaussians are paired antithetically; the crash time is shared within a
pair.  Block sums are combined with compensated summation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._quad import KahanSum, PanelRule, clustered_grid
from .elmm import TiltFunction, build_tilted_measure
from .hazard import DomainError, MarketModel
from .solver import Solution

_TERMINAL_BLOCK_PAIRS = 1 << 15
_WEALTH_BLOCK_PAIRS = 1 << 10
_PATH_KEY_OFFSET = 1 << 60


class SimulationDiagnostic(RuntimeError):
    """Simulation aborted; carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SimConfig:
    """Reproducible simulation settings; estimates are pure functions of
    (config, model, strategy)."""

    n_paths: int = 100_000
    n_steps: int = 1024
    seed: int = 0
    measure: str = "P"
    terminal_clip: float = 1e-9  # relative horizon offset for tabulated
    # tilted-measure quantities; physical-measure quantities evaluate up to
    # the last float below the horizon

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.n_steps < 2:
            raise ValueError("need at least two wealth steps")
        if self.measure not in ("P", "Q"):
            raise ValueError("measure must be 'P' or 'Q'")


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
    from .solver import myopic_curve

    ym = myopic_curve(solution.model, solution.preference, solution.grid)
    denom = solution.preference.p * solution.model.sigma**2

    def pre(t):
        t = np.asarray(t, dtype=float)
        fp = np.asarray(solution.model.excess.dphi(t))
        return (solution.model.mu - fp * ym(t)) / denom

    return Strategy("myopic", pre, solution.merton_fraction)


def scaled_strategy(base: Strategy, factor: float) -> Strategy:
    return Strategy(
        f"{factor:g}x {base.label}",
        lambda t, _b=base, _f=factor: _f * _b.pre(t),
        factor * base.post_crash,
    )


# -- estimands ---------------------------------------------------------------


@dataclass(frozen=True)
class TerminalPrice:
    """E[S_T] under the configured measure (martingale-defect probe)."""


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
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("uniform variate must lie in (0, 1)")
    out = np.asarray(dist.inverse_cdf(arr))
    return float(out) if np.ndim(u) == 0 else out


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = ((int(seed) & (2**64 - 1)) << 64) | (int(block) & (2**60 - 1))
    return np.random.Generator(np.random.Philox(key=key))


class _Welford:
    """Sequential merge of per-block moments; fixed merge order keeps the
    estimate deterministic."""

    def __init__(self):
        self.n = 0
        self.mean_sum = KahanSum()
        self.m2 = 0.0

    def merge(self, values: np.ndarray) -> None:
        k = len(values)
        if k == 0:
            return
        block_sum = float(math.fsum(values.tolist()))
        block_mean = block_sum / k
        block_m2 = float(np.sum((values - block_mean) ** 2))
        if self.n == 0:
            self.n = k
            self.mean_sum.add(block_sum)
            self.m2 = block_m2
            return
        mean_old = self.mean_sum.total / self.n
        delta = block_mean - mean_old
        self.m2 += block_m2 + delta * delta * self.n * k / (self.n + k)
        self.n += k
        self.mean_sum.add(block_sum)

    @property
    def mean(self) -> float:
        return self.mean_sum.total / self.n

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return math.inf
        return math.sqrt(self.m2 / (self.n - 1) / self.n)


# -- price machinery ---------------------------------------------------------


def _phi_left_limit_or_zero(model: MarketModel) -> float:
    # only consulted on atom paths, which exist only when phi(T-) is finite
    if model.hazard.atom > 0.0:
        return model.phi_left_limit()
    return 0.0


def _terminal_price_values(model: MarketModel, gam: np.ndarray, z: np.ndarray):
    """Pair of terminal prices for +z / -z with a shared crash time."""
    T = model.horizon
    mu, sigma = model.mu, model.sigma
    base = (mu - 0.5 * sigma**2) * T
    atom_mask = gam >= T
    jump = np.empty_like(gam)
    if np.any(~atom_mask):
        g = gam[~atom_mask]
        jump[~atom_mask] = np.exp(np.asarray(model.excess.phi(g))) * (
            1.0 - np.asarray(model.delta(g))
        )
    if np.any(atom_mask):
        jump[atom_mask] = math.exp(_phi_left_limit_or_zero(model))
    shock = sigma * math.sqrt(T) * z
    return np.exp(base + shock) * jump, np.exp(base - shock) * jump


def _estimate_terminal_price(model: MarketModel, cfg: SimConfig) -> EstimatorResult:
    if cfg.measure != "P":
        raise ValueError("terminal-price estimation runs under the physical measure")
    start = time.perf_counter()
    stats = _Welford()
    running_max = -math.inf
    prices = []  # every terminal price, for the tail count once the mean is known
    n_pairs, leftover = divmod(cfg.n_paths, 2)
    blocks = _block_plan(n_pairs, leftover, _TERMINAL_BLOCK_PAIRS)
    for block, (pairs, singles) in enumerate(blocks):
        rng = _block_rng(cfg.seed, block)
        count = pairs + singles
        u = rng.random(count)
        z = rng.standard_normal(count)
        gam = np.asarray(model.hazard.inverse_cdf(u))
        plus, minus = _terminal_price_values(model, gam, z)
        running_max = max(running_max, float(plus.max()), float(minus.max()))
        if pairs:
            stats.merge(0.5 * (plus[:pairs] + minus[:pairs]))
        if singles:
            stats.merge(plus[pairs:])
        prices += [plus, minus[:pairs]]
    mean = stats.mean
    tail_count = sum(int(np.count_nonzero(v > 10.0 * mean)) for v in prices)
    diagnostics = {
        "sample_max": running_max,
        "tail_fraction_above_10x_mean": tail_count / cfg.n_paths,
        "runtime_ms": 1e3 * (time.perf_counter() - start),
    }
    return EstimatorResult(mean, stats.stderr, cfg.n_paths, cfg.seed, "E_ST", diagnostics)


def _block_plan(n_pairs: int, leftover: int, block_pairs: int):
    """Fixed block layout: full pair blocks, then one block with the odd
    path if any.  The layout depends only on n_paths, never on workers."""
    plan = []
    remaining = n_pairs
    while remaining > 0:
        take = min(block_pairs, remaining)
        plan.append((take, 0))
        remaining -= take
    if leftover:
        plan.append((0, 1))
    if not plan:
        plan.append((0, 0))
    return plan


# -- wealth machinery --------------------------------------------------------


class _WealthKernel:
    """Precomputed per-step coefficients for vectorized wealth paths."""

    def __init__(
        self,
        model: MarketModel,
        strategy: Strategy,
        cfg: SimConfig,
        measure: str,
        solution: Optional[Solution] = None,
    ):
        T = model.horizon
        n = cfg.n_steps
        self.model = model
        self.strategy = strategy
        self.measure = measure
        self.n_steps = n
        self.tgrid = np.linspace(0.0, T, n + 1)
        self.dt = T / n
        self.sigma = model.sigma
        cap = np.nextafter(T, 0.0)
        eval_grid = np.minimum(self.tgrid, cap)
        self.pi = strategy.pre(eval_grid[:-1])
        self.pi_post = strategy.post_crash

        if measure == "P":
            self.mu_eff = model.mu
            exponent = np.asarray(model.excess.phi(eval_grid))
            self.law = model.hazard
            self._exponent_at = lambda t: np.asarray(
                model.excess.phi(np.minimum(t, cap))
            )
        else:
            if solution is None:
                raise ValueError("Q-measure wealth simulation needs a solved scenario")
            self.mu_eff = 0.0
            tilt = TiltFunction(
                y=lambda t: solution.tilt(t), label="solved tilt"
            )
            dense = clustered_grid(T * (1.0 - cfg.terminal_clip), 4097)
            self.law = build_tilted_measure(model, tilt, grid=dense)
            vals = np.asarray(model.excess.dphi(dense)) * (1.0 + solution.tilt(dense))
            cum = PanelRule(dense).cumulative_from_left(vals)
            interp = PchipInterpolator(dense, cum)
            self._exponent_at = lambda t: np.asarray(interp(np.minimum(t, dense[-1])))
            exponent = self._exponent_at(eval_grid)

        dphi = np.diff(exponent)
        var = self.sigma**2 * self.dt
        self.pre_drift = self.pi * (self.mu_eff * self.dt + dphi) - 0.5 * self.pi**2 * var
        self.pre_vol = self.pi * self.sigma * math.sqrt(self.dt)
        self.post_drift = self.pi_post * self.mu_eff * self.dt - 0.5 * self.pi_post**2 * var
        self.post_vol = self.pi_post * self.sigma * math.sqrt(self.dt)

    def log_wealth(self, gam: np.ndarray, z: np.ndarray, g1: np.ndarray, g2: np.ndarray):
        """(log X_T / x, bankrupt mask) for a batch of paths."""
        n = self.n_steps
        T = self.model.horizon
        atom = gam >= T
        k = np.clip(np.searchsorted(self.tgrid, gam, side="left") - 1, 0, n - 1)

        pre_incr = self.pre_drift[None, :] + self.pre_vol[None, :] * z
        cum_pre = np.concatenate(
            [np.zeros((len(gam), 1)), np.cumsum(pre_incr, axis=1)], axis=1
        )
        post_incr = self.post_drift + self.post_vol * z
        suffix = np.concatenate(
            [np.cumsum(post_incr[:, ::-1], axis=1)[:, ::-1], np.zeros((len(gam), 1))],
            axis=1,
        )

        t_k = self.tgrid[k]
        dt1 = np.where(atom, 0.0, gam - t_k)
        dt2 = np.where(atom, 0.0, self.tgrid[k + 1] - gam)
        pi_k = self.pi[k]
        gam_safe = np.where(atom, t_k, gam)
        dphi1 = self._exponent_at(gam_safe) - self._exponent_at(t_k)
        var = self.sigma**2
        a1 = (
            pi_k * (self.mu_eff * dt1 + dphi1)
            - 0.5 * pi_k**2 * var * dt1
            + pi_k * self.sigma * np.sqrt(dt1) * g1
        )
        a2 = (
            self.pi_post * self.mu_eff * dt2
            - 0.5 * self.pi_post**2 * var * dt2
            + self.pi_post * self.sigma * np.sqrt(dt2) * g2
        )
        pi_at_crash = self.strategy.pre(gam_safe)
        jump_factor = 1.0 - pi_at_crash * np.asarray(self.model.delta(gam_safe))
        bankrupt = (~atom) & (jump_factor <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_jump = np.where(bankrupt | atom, 0.0, np.log(jump_factor))

        rows = np.arange(len(gam))
        split_part = cum_pre[rows, k] + a1 + log_jump + a2 + suffix[rows, k + 1]
        out = np.where(atom, cum_pre[:, n], split_part)
        return out, bankrupt


def _wealth_values(kernel: _WealthKernel, cfg: SimConfig, value_fn, estimand: str):
    start = time.perf_counter()
    stats = _Welford()
    bankrupt_total = 0
    n_pairs, leftover = divmod(cfg.n_paths, 2)
    blocks = _block_plan(n_pairs, leftover, _WEALTH_BLOCK_PAIRS)
    for block, (pairs, singles) in enumerate(blocks):
        rng = _block_rng(cfg.seed, block)
        count = pairs + singles
        u = rng.random(count)
        z = rng.standard_normal((count, cfg.n_steps))
        g1 = rng.standard_normal(count)
        g2 = rng.standard_normal(count)
        gam = np.asarray(kernel.law.inverse_cdf(u))
        lw_plus, br_plus = kernel.log_wealth(gam, z, g1, g2)
        bankrupt_total += int(np.sum(br_plus))
        v_plus = value_fn(lw_plus, br_plus)
        if pairs:
            lw_minus, br_minus = kernel.log_wealth(
                gam[:pairs], -z[:pairs], -g1[:pairs], -g2[:pairs]
            )
            bankrupt_total += int(np.sum(br_minus))
            v_minus = value_fn(lw_minus, br_minus)
            stats.merge(0.5 * (v_plus[:pairs] + v_minus))
        if singles:
            stats.merge(v_plus[pairs:])
    diagnostics = {
        "bankrupt_paths": bankrupt_total,
        "runtime_ms": 1e3 * (time.perf_counter() - start),
    }
    return EstimatorResult(
        stats.mean, stats.stderr, cfg.n_paths, cfg.seed, estimand, diagnostics
    )


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


def estimate(model: MarketModel, cfg: SimConfig, estimand) -> EstimatorResult:
    """Mean and standard error of the requested estimand.

    ``TerminalPrice`` samples S_T exactly (one Gaussian and one crash time
    per path).  ``ExpectedUtility`` simulates wealth under the physical
    measure; ``BudgetUnderQ`` simulates the optimal wealth under the tilted
    measure built from the solved curve and estimates E^Q[X_T].
    """
    if isinstance(estimand, TerminalPrice):
        return _estimate_terminal_price(model, cfg)
    if isinstance(estimand, ExpectedUtility):
        kernel = _WealthKernel(model, estimand.strategy, cfg, "P")
        return _wealth_values(
            kernel,
            cfg,
            _crra_value_fn(estimand.p, estimand.x, f"E_U[{estimand.strategy.label}]"),
            f"E_U[{estimand.strategy.label}]",
        )
    if isinstance(estimand, BudgetUnderQ):
        sol = estimand.solution
        kernel = _WealthKernel(model, optimal_strategy(sol), cfg, "Q", solution=sol)
        x = sol.preference.x

        def value(log_wealth, bankrupt):
            wealth = x * np.exp(log_wealth)
            return np.where(bankrupt, 0.0, wealth)

        return _wealth_values(kernel, cfg, value, "EQ_XT")
    raise TypeError(f"unknown estimand: {estimand!r}")


# -- per-path operations -----------------------------------------------------


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = ((int(seed) & (2**64 - 1)) << 64) | (
        _PATH_KEY_OFFSET + (int(path_index) & (2**59 - 1))
    )
    return np.random.Generator(np.random.Philox(key=key))


def simulate_price_path(model: MarketModel, cfg: SimConfig, path_index: int):
    """One exact price path: (crash time, grid times, prices).

    The grid step containing the crash is split at the crash, so the jump
    lands at the right price level; the returned prices sit on the uniform
    grid (the final entry is S_T).
    """
    rng = _path_rng(cfg.seed, path_index)
    u = float(rng.random())
    z = rng.standard_normal(cfg.n_steps)
    g1, g2 = rng.standard_normal(2)
    gam = float(np.asarray(model.hazard.inverse_cdf(np.array([u])))[0])
    return gam, *_price_path_given(model, cfg, gam, z, g1, g2)


def _price_path_given(model: MarketModel, cfg: SimConfig, gam: float, z, g1, g2):
    T = model.horizon
    n = cfg.n_steps
    tgrid = np.linspace(0.0, T, n + 1)
    dt = T / n
    sqdt = math.sqrt(dt)
    mu, sigma = model.mu, model.sigma
    cap = np.nextafter(T, 0.0)
    eval_grid = np.minimum(tgrid, cap)

    if gam >= T:  # atom path: never jumps, phi(T-) is finite here
        w = np.concatenate([[0.0], np.cumsum(sqdt * z)])
        log_s = (mu - 0.5 * sigma**2) * tgrid + np.asarray(
            model.excess.phi(eval_grid)
        ) + sigma * w
        return tgrid, np.exp(log_s)

    k = int(np.clip(np.searchsorted(tgrid, gam, side="left") - 1, 0, n - 1))
    incr = sqdt * z.copy()
    w_split = math.sqrt(gam - tgrid[k]) * g1
    incr[k] = w_split + math.sqrt(tgrid[k + 1] - gam) * g2
    w = np.concatenate([[0.0], np.cumsum(incr)])

    log_s = np.empty(n + 1)
    pre = tgrid <= gam
    log_s[pre] = (
        (mu - 0.5 * sigma**2) * tgrid[pre]
        + np.asarray(model.excess.phi(eval_grid[pre]))
        + sigma * w[pre]
    )
    w_gam = w[k] + w_split
    log_s_gam = (
        (mu - 0.5 * sigma**2) * gam
        + float(model.excess.phi(min(gam, cap)))
        + sigma * w_gam
        + math.log1p(-float(model.delta(min(gam, cap))))
    )
    post = ~pre
    log_s[post] = (
        log_s_gam + (mu - 0.5 * sigma**2) * (tgrid[post] - gam) + sigma * (w[post] - w_gam)
    )
    return tgrid, np.exp(log_s)


def simulate_wealth_path(
    model: MarketModel, strategy: Strategy, cfg: SimConfig, path_index: int
) -> float:
    """Terminal wealth of one path under the physical measure.

    Raises :class:`SimulationDiagnostic` when the crash wipes out a
    leveraged position (jump factor <= 0).
    """
    rng = _path_rng(cfg.seed, path_index)
    u = float(rng.random())
    z = rng.standard_normal((1, cfg.n_steps))
    g1 = rng.standard_normal(1)
    g2 = rng.standard_normal(1)
    kernel = _WealthKernel(model, strategy, cfg, "P")
    gam = np.asarray(model.hazard.inverse_cdf(np.array([u])))
    lw, bankrupt = kernel.log_wealth(gam, z, g1, g2)
    if bool(bankrupt[0]):
        raise SimulationDiagnostic(
            "path went bankrupt at the crash", {"gamma": float(gam[0])}
        )
    return float(math.exp(lw[0]))
