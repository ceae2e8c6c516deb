"""Welfare metrics for solved scenarios: certainty equivalents, equivalent
safe rates, and the wealth-compensator identity check.

The certainty equivalent discounts the crash-free Merton benchmark
x exp(mu^2 T / (2 p sigma^2)); for power utility the whole discount is the
single factor m(0, y(0), p)^(-p/(1-p)), for log utility it splits into a
trading-loss and a jump-loss integral against the crash-time law.  The
log formula serves |p - 1| < ``LOG_UTILITY_WINDOW`` too: there the power
exponent -p/(1-p) is so large that the last digits of m(0, y(0), p) swamp
the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import CONVERGED, PanelRule, integrate_toward
from .hazard import MarketModel
from .solver import Preference, Solution, SolverError, aux_eval, log_utility_solution

LOG_UTILITY_WINDOW = 1e-6  # |p - 1| below this takes the log-utility formula


@dataclass(frozen=True)
class WelfareReport:
    """Certainty equivalent and safe-rate summary of one scenario."""

    certainty_equivalent: float
    esr: float
    esr_benchmark: float
    relative_loss: float


def black_scholes_ce(model: MarketModel, prefs: Preference) -> float:
    """Certainty equivalent of the crash-free market (Merton strategy)."""
    return prefs.x * math.exp(
        model.mu**2 * model.horizon / (2.0 * prefs.p * model.sigma**2)
    )


def _log_utility_loss_integrals(
    model: MarketModel, grid: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """(trading loss, jump loss) integrals of the log-utility formula.

    Integrated along ``y`` over the solver grid, and along the closed-form
    p = 1 curve over the clipped sliver up to the horizon, where the
    hazard may blow up; a sliver integral without a CONVERGED certificate
    raises :class:`SolverError`.
    """
    sig2 = model.sigma**2

    def losses(u, yu):
        surv = np.exp(-np.asarray(model.hazard.cumulative_hazard(u)))
        dens = np.asarray(model.hazard.hazard(u)) * surv
        trade = (np.asarray(model.excess.dphi(u)) * yu) ** 2 * surv / (2.0 * sig2)
        return trade, (np.log1p(yu) - yu / (1.0 + yu)) * dens

    rule = PanelRule(grid)
    totals = [rule.integral(vals) for vals in losses(grid, y)]
    t_end = float(grid[-1])
    if model.horizon > t_end:
        for k in range(2):
            res = integrate_toward(
                lambda u: losses(u, np.asarray(log_utility_solution(model, u)))[k],
                t_end,
                model.horizon,
            )
            if res.status != CONVERGED:
                raise SolverError(
                    f"log-utility loss integral over [{t_end!r}, T) is {res.status}"
                )
            totals[k] += res.value
    return totals[0], totals[1]


def _certainty_equivalent(
    model: MarketModel, prefs: Preference, grid: np.ndarray, y: np.ndarray, m_start: float
) -> float:
    base = black_scholes_ce(model, prefs)
    p = prefs.p
    if abs(p - 1.0) < LOG_UTILITY_WINDOW:
        trade, jump = _log_utility_loss_integrals(model, grid, y)
        return base * math.exp(-trade) * math.exp(-jump)
    return base * m_start ** (-p / (1.0 - p))


def certainty_equivalent(solution: Solution) -> float:
    """Riskless terminal wealth with the same expected utility as the
    optimal strategy."""
    return _certainty_equivalent(
        solution.model,
        solution.preference,
        solution.grid,
        solution.tilt.values,
        solution.m_start,
    )


def welfare_from_curve(
    model: MarketModel, prefs: Preference, grid, y_values
) -> WelfareReport:
    """Welfare metrics for a tabulated tilt curve (e.g. re-ingested solver
    output); for power utility only the starting value matters."""
    grid = np.asarray(grid, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    m0 = aux_eval(model, prefs, float(grid[0]), float(y_values[0])).m
    return _report(model, prefs, _certainty_equivalent(model, prefs, grid, y_values, m0))


def _report(model: MarketModel, prefs: Preference, ce: float) -> WelfareReport:
    esr = math.log(ce / prefs.x) / model.horizon
    esr_bs = model.mu**2 / (2.0 * prefs.p * model.sigma**2)
    return WelfareReport(
        certainty_equivalent=ce,
        esr=esr,
        esr_benchmark=esr_bs,
        relative_loss=1.0 - esr / esr_bs,
    )


def safe_rates(solution: Solution) -> WelfareReport:
    """Equivalent safe rate, crash-free benchmark rate, and relative loss."""
    return _report(
        solution.model, solution.preference, certainty_equivalent(solution)
    )


def xihat_identity_check(solution: Solution, v: float) -> float:
    """Relative residual of the wealth-compensator identity at time v.

    The pre-crash wealth exponent xi(v) = exp(int_0^v phi' (mu - phi' y)
    (1 + y) / (p sigma^2)) must satisfy: its compensator under the tilted
    law equals xi(v) a(v, y(v), p).  The derivative of xi is formed by
    central differences over locally re-integrated increments, so the
    residual measures quadrature-versus-formula consistency.
    """
    model, prefs = solution.model, solution.preference
    T = model.horizon
    if not 0.0 < v < T - solution.terminal_clip:
        raise ValueError("v must lie strictly inside the solved window")

    p_sig2 = prefs.p * model.sigma**2

    def growth(u):
        u = np.asarray(u, dtype=float)
        yv = solution.tilt(u)
        fp = np.asarray(model.excess.dphi(u))
        return fp * (model.mu - fp * yv) * (1.0 + yv) / p_sig2

    h = 3e-6 * min(T, T - v)
    lo, hi = v - h, v + h
    width = hi - lo
    nodes, weights = np.polynomial.legendre.leggauss(7)

    def seg(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(growth(mid + half * nodes) @ weights)

    up, dn = seg(v, hi), seg(lo, v)
    dlog_xi = (math.expm1(up) - math.expm1(-dn)) / width

    y_v = float(solution.tilt(v))
    kappa_tilted = float(model.hazard.hazard(v)) * (1.0 + y_v)
    a_v = aux_eval(model, prefs, v, y_v).a
    return abs((1.0 - dlog_xi / kappa_tilted) - a_v)
