"""Optimal investment for a CRRA investor facing the bubble market.

The optimal pre-crash stock fraction is (mu - phi'(t) y(t)) / (p sigma^2)
where the curve y solves the backward integral equation

    m(t, y(t), p) = exp(- int_t^T n(u, y(u), p) du),   t in [0, T),

built from the auxiliary functions

    a(t, y) = 1 - delta(t) (mu - phi'(t) y) / (p sigma^2)
    b(t, y) = (1 + y/p) a(t, y)
    m(t, y) = (1 + y)^(1/p) a(t, y)
    n(t, y) = -(1-p) (phi' y)^2 / (2 p^2 sigma^2) + kappa (b - 1).

m(t, .) increases strictly above the boundary where it vanishes, so the
equation inverts pointwise with a safeguarded Newton iteration; the solve
brackets the curve between explicit backward upper/lower solutions and
iterates an Anderson-accelerated fixed point (Walker & Ni, SIAM J. Numer.
Anal. 49, 2011) until the residual |m exp(int n) - 1| is below ``tol``,
or raises :class:`SolverError`.  The same iteration serves every p: at
log utility (p = 1) the brackets coincide with the myopic curve m = 1,
which then is the solution (a quadratic with a closed form,
:func:`log_utility_solution`), so one sweep confirms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import CONVERGED, Curve, PanelRule, clustered_grid, integrate_toward, monotone_inverse
from .hazard import (
    DomainError,
    MarketModel,
    ModelError,
    _elementwise,
    _finite,
    _scalar_or_array,
    require_valid,
)

TERMINAL_CLIP_FRACTION = 1e-6  # grid stops at T (1 - this)
ANDERSON_DEPTH = 5  # past sweeps each fixed-point step mixes
RESIDUAL_TOL = 1e-8  # a returned curve's largest residual |m e^{int n} - 1|


class SolverError(RuntimeError):
    """The integral-equation solve failed; carries the residual trace."""

    def __init__(self, message: str, residuals: Optional[np.ndarray] = None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class Preference:
    """Constant relative risk aversion p > 0 with initial capital x > 0."""

    p: float
    x: float = 1.0

    def __post_init__(self):
        _finite(p=self.p, x=self.x)
        if self.p <= 0:
            raise ModelError("relative risk aversion must be positive")
        if self.x <= 0:
            raise ModelError("initial capital must be positive")


@dataclass(frozen=True)
class AuxEval:
    """Auxiliary functions and the partials the solver needs, at one point."""

    a: float
    b: float
    m: float
    n: float
    da_dy: float
    dm_dy: float
    dn_dy: float
    da_dt: float


class _Coef:
    """Model coefficients sampled on a time grid, shared by the vector ops."""

    def __init__(self, model: MarketModel, p: float, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        self.t = t
        self.mu = model.mu
        self.sig2p = p * model.sigma**2
        self.p = p
        self.phi_p = np.asarray(model.excess.dphi(t))
        self.kap = np.asarray(model.hazard.hazard(t))
        self.dlt = np.asarray(model.delta(t))


# ``i`` selects the grid points that ``y`` belongs to (all by default)
def _aux_a(c: _Coef, y: np.ndarray, i=...) -> np.ndarray:
    return 1.0 - c.dlt[i] * (c.mu - c.phi_p[i] * y) / c.sig2p


def _aux_m(c: _Coef, y: np.ndarray, i=...) -> np.ndarray:
    return np.maximum(1.0 + y, 0.0) ** (1.0 / c.p) * _aux_a(c, y, i)


def _aux_n(c: _Coef, y: np.ndarray) -> np.ndarray:
    a = _aux_a(c, y)
    b = (1.0 + y / c.p) * a
    return -(1.0 - c.p) * (c.phi_p * y) ** 2 / (2.0 * c.p * c.sig2p) + c.kap * (b - 1.0)


def _aux_dm_dy(c: _Coef, y: np.ndarray, i=...) -> np.ndarray:
    a = _aux_a(c, y, i)
    da = c.dlt[i] * c.phi_p[i] / c.sig2p
    one_plus = np.maximum(1.0 + y, 1e-300)
    return one_plus ** (1.0 / c.p) * (a / (c.p * one_plus) + da)


def _aux_floor(c: _Coef, i=...) -> np.ndarray:
    phi_p = c.phi_p[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        val = c.mu / phi_p - c.sig2p * c.kap[i] / phi_p**2
    return np.where(phi_p > 0.0, np.maximum(-1.0, val), -1.0)


def lower_boundary(model: MarketModel, prefs: Preference, t):
    """Below this tilt level the function m is nonpositive: -1 where the
    excess return vanishes, else max(-1, mu/phi' - p sigma^2 kappa/phi'^2)."""
    return _scalar_or_array(lambda t: _aux_floor(_Coef(model, prefs.p, t)), t)


def aux_eval(model: MarketModel, prefs: Preference, t: float, y: float) -> AuxEval:
    """Evaluate a, b, m, n and their solver partials at (t, y).

    Values may be negative below the admissible boundary; callers enforce
    the domain.
    """
    if not 0.0 <= t < model.horizon:
        raise DomainError("t must lie in [0, T)")
    if y < -1.0:
        raise DomainError("y must be >= -1")
    c = _Coef(model, prefs.p, np.array([t]))
    yv = np.array([float(y)])
    a = float(_aux_a(c, yv)[0])
    b = float((1.0 + y / prefs.p) * a)
    m = float(_aux_m(c, yv)[0])
    n = float(_aux_n(c, yv)[0])
    da_dy = float((c.dlt * c.phi_p / c.sig2p)[0])
    dm_dy = float(_aux_dm_dy(c, yv)[0])
    dn_dy = float((c.kap * (a / prefs.p + (1.0 + y) * da_dy))[0])
    ddlt, phi_pp = np.asarray(model.ddelta(c.t)), np.asarray(model.excess.d2phi(c.t))
    da_dt = float((-(ddlt * (c.mu - c.phi_p * y) - c.dlt * phi_pp * y) / c.sig2p)[0])
    return AuxEval(a, b, m, n, da_dy, dm_dy, dn_dy, da_dt)


def _implicit_many(c: _Coef, targets: np.ndarray, x0=None) -> np.ndarray:
    """Solve m(t_i, y_i) = f_i for each grid point, f_i > 0.

    Safeguarded Newton on [boundary, growth bound] from the start ``x0``;
    the upper end comes from the growth bounds y <= (2f)^p when
    phi' <= p sigma^2 kappa / (2 mu), else y <= max(f^p, mu/phi'), doubled
    until it encloses the root.
    """
    f = np.asarray(targets, dtype=float)
    if np.any(f <= 0.0):
        raise DomainError("implicit solve needs a positive target")
    p, mu, sig2p = c.p, c.mu, c.sig2p
    out = np.empty(f.shape)

    flat = c.phi_p == 0.0
    if np.any(flat):
        out[flat] = f[flat] ** p - 1.0
    act = np.flatnonzero(~flat)
    if act.size == 0:
        return out

    phi_p = c.phi_p[act]
    kap = c.kap[act]
    fa = f[act]
    lo = _aux_floor(c, act)
    small = phi_p <= sig2p * kap / (2.0 * mu)
    hi = np.where(small, (2.0 * fa) ** p, np.maximum(fa**p, mu / phi_p))
    hi = hi + 1.0  # slack over the growth bound

    for _ in range(64):
        bad = _aux_m(c, hi, act) < fa
        if not np.any(bad):
            break
        hi = np.where(bad, lo + 2.0 * (hi - lo), hi)

    out[act] = monotone_inverse(
        lambda y, i: _aux_m(c, y, act[i]),
        lambda y, i: _aux_dm_dy(c, y, act[i]),
        lo,
        hi,
        fa,
        None if x0 is None else np.broadcast_to(x0, f.shape)[act],
    )
    return out


def implicit_solve(model: MarketModel, prefs: Preference, t: float, target: float) -> float:
    """Unique y above the admissible boundary with m(t, y, p) = target."""
    if target <= 0.0:
        raise DomainError("target must be positive")
    c = _Coef(model, prefs.p, np.array([float(t)]))
    return float(_implicit_many(c, np.array([float(target)]))[0])


def _solver_grid(model: MarketModel, n_grid: int) -> np.ndarray:
    T = model.horizon
    return clustered_grid(T * (1.0 - TERMINAL_CLIP_FRACTION), n_grid)


def _growth_target(prefs: Preference, model: MarketModel, t: np.ndarray) -> np.ndarray:
    """Target of the non-myopic bracket; the myopic one solves m = 1."""
    rate = (1.0 - prefs.p) * model.mu**2 / (2.0 * prefs.p**2 * model.sigma**2)
    return np.exp(rate * (model.horizon - t))


def _require_drift(model: MarketModel) -> None:
    if model.mu <= 0:
        raise DomainError("positive instantaneous expected return required")


def _brackets(c: _Coef, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) on the grid of ``c``: the myopic curve m = 1 and the
    curve m = ``target``, the growth target."""
    myopic = _implicit_many(c, np.ones_like(c.t))
    # a unit target (log utility) makes the other bracket the myopic curve
    other = myopic if np.all(target == 1.0) else _implicit_many(c, target)
    return (myopic, other) if c.p < 1.0 else (other, myopic)


def myopic_curve(model: MarketModel, prefs: Preference, grid: np.ndarray) -> Curve:
    """Pointwise solution of m(t, y, p) = 1; optimal for an investor who
    ignores everything beyond the next instant."""
    _require_drift(model)
    c = _Coef(model, prefs.p, grid)
    return Curve(c.t, _implicit_many(c, np.ones_like(c.t)))


def bracket_curves(model: MarketModel, prefs: Preference, grid: np.ndarray) -> tuple[Curve, Curve]:
    """Backward lower and upper solutions (y_low, y_high) enclosing the
    optimal curve; they collapse onto each other at log utility.  The
    myopic curve m = 1 is the lower one for p < 1, else the upper one."""
    _require_drift(model)
    c = _Coef(model, prefs.p, grid)
    lo, hi = _brackets(c, _growth_target(prefs, model, c.t))
    return Curve(c.t, lo), Curve(c.t, hi)


def ode_rhs(model: MarketModel, prefs: Preference, t: float, y: float) -> float:
    """Slope of the solution curve: the integral equation in ODE form.

    Defined only above the admissible boundary, where the denominator is
    positive.
    """
    if y <= lower_boundary(model, prefs, t):
        raise DomainError("(t, y) lies outside the admissible domain")
    ev = aux_eval(model, prefs, t, y)
    denom = ev.a / (prefs.p * (1.0 + y)) + ev.da_dy
    return (ev.a * ev.n - ev.da_dt) / denom


@_elementwise
def log_utility_solution(model: MarketModel, t):
    """Closed-form curve for p = 1; zero where the excess return vanishes.

    The defining relation m(t, y, 1) = 1 reduces to a quadratic; the root
    above -1 is returned in a cancellation-safe form.
    """
    phi_p = np.asarray(model.excess.dphi(t))
    kap = np.asarray(model.hazard.hazard(t))
    sig2 = model.sigma**2
    out = np.zeros(t.shape)
    pos = phi_p > 0.0
    if np.any(pos):
        fp = phi_p[pos]
        A = model.mu - fp - sig2 * kap[pos] / fp
        disc = np.sqrt(A * A + 4.0 * model.mu * fp)
        root = np.where(A >= 0, (A + disc), 4.0 * model.mu * fp / (disc - A)) / (
            2.0 * fp
        )
        out[pos] = root
    return out


@dataclass(frozen=True)
class Solution:
    """Solved scenario: tilt curve, brackets, residuals, and multipliers.

    ``tilt`` is the curve driving both the optimal fraction and the dual
    measure; ``myopic`` is whichever bracket solves m = 1;
    ``m_start`` = m(0, tilt(0), p) feeds the welfare formulas.  ``method``
    is always ``"fixed_point"``.
    """

    model: MarketModel
    preference: Preference
    grid: np.ndarray
    tilt: Curve
    lower: Curve
    upper: Curve
    myopic: Curve
    residuals: np.ndarray
    m_start: float
    dual_mult: float
    terminal_clip: float
    tail: float
    method: str
    iterations: int

    @property
    def merton_fraction(self) -> float:
        return self.model.mu / (self.preference.p * self.model.sigma**2)

    def fraction_given(self, t, y):
        """Pre-crash fraction (mu - phi'(t) y) / (p sigma^2) for the curve
        values ``y`` at the times ``t``."""
        phi_p = np.asarray(self.model.excess.dphi(t))
        return (self.model.mu - phi_p * y) / (self.preference.p * self.model.sigma**2)

    def fraction_pre_crash(self, t):
        # frozen beyond the solved grid, where the tilt is frozen too
        t = np.minimum(np.asarray(t, dtype=float), self.grid[-1])
        return self.fraction_given(t, self.tilt(t))


def _terminal_tail(model: MarketModel, prefs: Preference, t_end: float, y_end: float) -> float:
    """int_{t_end}^T n(u, y(u)) du approximated along the myopic curve,
    whose inversions start from its value ``y_end`` at ``t_end``.

    Both brackets converge to the myopic curve at the horizon and n along
    it is bounded by |1-p| mu^2 / (2 p^2 sigma^2), so the tail is finite
    and tiny; a non-convergent verdict therefore signals a model outside
    the solver's assumptions.
    """

    def integrand(u):
        u = np.asarray(u, dtype=float)
        c = _Coef(model, prefs.p, u)
        ym = _implicit_many(c, np.ones_like(u), x0=y_end)
        return _aux_n(c, ym)

    res = integrate_toward(integrand, t_end, model.horizon, rtol=1e-12)
    if res.status != CONVERGED:
        raise SolverError(
            "terminal tail of the integral equation did not converge; "
            "the model violates the solver's horizon assumptions"
        )
    return res.value


def solve_optimal(
    model: MarketModel,
    prefs: Preference,
    n_grid: int = 512,
    tol: float = 1e-10,
    max_iter: int = 600,
) -> Solution:
    """Solve the integral equation and package the optimal strategy.

    One Anderson-accelerated fixed point for every p: each sweep inverts
    m = exp(-int n) pointwise along the current curve
    (:func:`_quad.monotone_inverse`) and mixes the last ``ANDERSON_DEPTH``
    + 1 proposals, until the residual |m exp(int n) - 1| is at most ``tol``
    or, below 1/2, stops halving for 2 ``ANDERSON_DEPTH`` sweeps.  At log
    utility the start, the myopic curve, already solves the equation, so
    one sweep ends it.  Running out of ``max_iter`` sweeps, or a final
    residual above ``RESIDUAL_TOL``, raises :class:`SolverError`.
    """
    _require_drift(model)
    require_valid(model)

    grid = _solver_grid(model, n_grid)
    c = _Coef(model, prefs.p, grid)
    target = _growth_target(prefs, model, grid)
    lo, hi = _brackets(c, target)
    lower, upper = Curve(grid, lo), Curve(grid, hi)
    myopic = lower if prefs.p < 1.0 else upper
    rule = PanelRule(grid)
    tail = _terminal_tail(model, prefs, float(grid[-1]), float(myopic.values[-1]))

    y, iterations, resid = _fixed_point(c, rule, lo, hi, (1.0, target), tail, tol, max_iter)
    if float(np.max(resid)) > RESIDUAL_TOL:
        raise SolverError(
            f"integral-equation residual {np.max(resid):.3e} above "
            f"{RESIDUAL_TOL:.1e} after {iterations} sweeps",
            residuals=resid,
        )

    p = prefs.p
    m_start = float(_aux_m(c, y)[0])
    root = prefs.x * m_start * math.exp(
        -(1.0 - p) * model.mu**2 * model.horizon / (2.0 * p**2 * model.sigma**2)
    )
    return Solution(
        model=model,
        preference=prefs,
        grid=grid,
        tilt=Curve(grid, y),
        lower=lower,
        upper=upper,
        myopic=myopic,
        residuals=resid,
        m_start=m_start,
        dual_mult=root ** (-p),
        terminal_clip=model.horizon * TERMINAL_CLIP_FRACTION,
        tail=tail,
        method="fixed_point",
        iterations=iterations,
    )


def _fixed_point(c, rule, lower, upper, band, tail, tol, max_iter):
    # Anderson mixing of the sweeps G(y) = m^-1(exp(-int n(y))): the next
    # iterate combines the last proposals G(y_i) with the weights that make
    # their defects G(y_i) - y_i least-squares smallest, kept in the bracket.
    # Targets are clipped into the bracket-target band, which keeps early
    # sweeps representable when the band spans many orders of magnitude.
    # Returns the iterate, the sweep count and the iterate's residual profile.
    tmin, tmax = np.minimum(*band), np.maximum(*band)
    y, prop, d_prop, d_defect = lower, None, [], []
    best, best_y, best_profile, mark, stalled = np.inf, y, None, 1.0, 0
    for it in range(1, max_iter + 1):
        profile, integral = _residual_profile(c, rule, y, tail)
        resid = float(np.max(profile))
        if resid <= tol:
            return y, it, profile
        if resid < best:
            best, best_y, best_profile = resid, y, profile
        # a stall hands the best iterate to the caller's residual check
        mark, stalled = (best, 0) if best <= 0.5 * mark else (mark, stalled + 1)
        if best < 0.5 and stalled >= 2 * ANDERSON_DEPTH:
            return best_y, it, best_profile
        with np.errstate(over="ignore", under="ignore"):
            target = np.clip(np.exp(-integral), tmin, tmax)
        new = _implicit_many(c, target, x0=prop)
        defect = new - y
        step = new
        if prop is not None:
            d_prop = [new - prop, *d_prop][:ANDERSON_DEPTH]
            d_defect = [defect - last_defect, *d_defect][:ANDERSON_DEPTH]
            gamma = np.linalg.lstsq(np.column_stack(d_defect), defect, rcond=None)[0]
            step = np.clip(new - np.column_stack(d_prop) @ gamma, lower, upper)
            # a step that barely moves only recombines old iterates: restart
            if np.max(np.abs(step - y)) <= 1e-3 * np.max(np.abs(defect)):
                step, d_prop, d_defect = new, [], []
        y, prop, last_defect = step, new, defect
    raise SolverError(
        f"fixed point did not converge in {max_iter} sweeps (last residual {resid:.3e})",
        residuals=profile,
    )


def _residual_profile(c, rule, y, tail):
    """|m e^{int n} - 1| along ``y``, and int n + tail."""
    integral = rule.cumulative_to_right(_aux_n(c, y)) + tail
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(_aux_m(c, y) * np.exp(integral) - 1.0), integral


def dual_multiplier(solution: Solution) -> float:
    """Lagrange multiplier of the budget constraint in the dual problem."""
    return solution.dual_mult


@_elementwise
def optimal_fraction(solution: Solution, t: float, crashed: bool = False):
    """Fraction of wealth in the stock: Merton after the crash or at the
    horizon, tilt-adjusted before."""
    out = np.full(t.shape, solution.merton_fraction)
    if not crashed:
        pre = t < solution.model.horizon
        if np.any(pre):
            out[pre] = solution.fraction_pre_crash(t[pre])
    return out


def decompose(solution: Solution) -> tuple[Curve, Curve]:
    """Split the optimal fraction into myopic and crash-timing parts.

    The myopic part comes from the pointwise equation m = 1; the remainder
    is nonnegative for p > 1 (riding the bubble), nonpositive for p < 1,
    and identically zero at log utility.
    """
    grid, ym = solution.grid, solution.myopic
    phi_p = np.asarray(solution.model.excess.dphi(grid))
    denom = solution.preference.p * solution.model.sigma**2
    pi_h = phi_p * (ym.values - solution.tilt.values) / denom
    return Curve(grid, solution.fraction_given(grid, ym.values)), Curve(grid, pi_h)
