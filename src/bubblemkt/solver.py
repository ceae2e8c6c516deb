"""Optimal investment for a CRRA investor facing the bubble market.

The optimal pre-crash stock fraction is (mu - phi'(t) y(t)) / (p sigma^2)
where the curve y solves the backward integral equation

    m(t, y(t), p) = exp(- int_t^T n(u, y(u), p) du),   t in [0, T),

built from the auxiliary functions

    a(t, y) = 1 - delta(t) (mu - phi'(t) y) / (p sigma^2)
    b(t, y) = (1 + y/p) a(t, y)
    m(t, y) = (1 + y)^(1/p) a(t, y)
    n(t, y) = -(1-p) (phi' y)^2 / (2 p^2 sigma^2) + kappa (b - 1).

log m = log(1 + y)/p + log a is strictly concave and increasing above the
boundary where m vanishes, so Newton on it inverts the equation pointwise,
which gives backward lower/upper solutions bracketing the curve.  On the
grid, inexact Newton (Kelley, SIAM 1995, ch. 5-6) solves F(y) = log m +
int n = 0 from the myopic bracket; a curve is returned exactly when its
residual |m exp(int n) - 1| is at most ``tol`` at every node, and every other
outcome raises :class:`SolverError`.  The same iteration serves every p: at
log utility (p = 1) the brackets coincide with the myopic curve m = 1, which
then is the solution (a quadratic with a closed form,
:func:`log_utility_solution`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import (_MAX_NEWTON_STEPS, _ULPS, CONVERGED, Curve, clustered_grid,
                    first_shell_nodes, integrate_toward, panel_rule, shell_table)
from .elmm import TiltedMeasure, TiltFunction, build_tilted_measure
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
MAX_NEWTON_ITER = 600  # iterates examined, the start included, before the solve fails
MAX_HALVINGS = 20  # halvings of one Newton step before the solve stalls
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # about 709.78


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
    """Auxiliary functions and the partials the solver needs, at one point or many."""

    a: float | np.ndarray
    b: float | np.ndarray
    m: float | np.ndarray
    n: float | np.ndarray
    da_dy: float | np.ndarray
    dm_dy: float | np.ndarray
    dn_dy: float | np.ndarray


class _Coef:
    """Model coefficients on a time grid, shared by the vector ops, from one
    sample of phi' and kappa (delta = phi'/kappa, 0/0 := 0, unless the excess
    fixes it).  Per node, a = a0 + slope y (``slope`` is a_y) and
    n = c0 + y (c1 + c2 y), the quadratic that b = (1 + y/p) a makes of n."""

    def __init__(self, model: MarketModel, p: float, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        self.t, self.mu, self.p, self.sig2p = t, model.mu, p, p * model.sigma**2
        self.phi_p, self.kap = np.asarray(model.excess.dphi(t)), np.asarray(model.hazard.hazard(t))
        dlt = model.excess.delta(t)
        if dlt is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                dlt = np.where(self.phi_p == 0.0, 0.0, self.phi_p / self.kap)
        self.dlt = np.asarray(dlt, dtype=float)
        self.slope = self.dlt * self.phi_p / self.sig2p
        self.a0 = 1.0 - self.dlt * self.mu / self.sig2p
        self.c0 = self.kap * (self.a0 - 1.0)
        self.c1 = self.kap * (self.slope + self.a0 / p)
        self.c2 = -(1.0 - p) * self.phi_p**2 / (2.0 * p * self.sig2p) + self.kap * self.slope / p

    def take(self, nodes) -> "_Coef":
        """These coefficients at the grid points ``nodes`` (indices or a slice)."""
        sub = object.__new__(_Coef)
        sub.__dict__ = {k: v[nodes] if type(v) is np.ndarray else v for k, v in vars(self).items()}
        return sub


def _aux_m_dm(a0, a_y, p: float, y):
    """a = a0 + a_y y, m = (1 + y)^(1/p) a and m_y, at per-node arrays or at
    one node's floats, y >= -1.  m(-1) = 0, and m_y(-1) is its limit from
    above: 0, a or +-inf as p < 1, p = 1 or p > 1."""
    a, one_plus = a0 + a_y * y, 1.0 + y
    with np.errstate(divide="ignore", invalid="ignore"):
        return a, one_plus ** (1.0 / p) * a, one_plus ** (1.0 / p - 1.0) * (a / p + one_plus * a_y)


def _aux_n(c: _Coef, y: np.ndarray) -> np.ndarray:
    return c.c0 + y * (c.c1 + c.c2 * y)


def _aux_dn_dy(c: _Coef, y: np.ndarray) -> np.ndarray:
    return c.c1 + 2.0 * c.c2 * y


def _aux_floor(c: _Coef) -> np.ndarray:
    # the inversion's boundary max(-1, y_a), a = a_y (y - y_a); -1 where a_y = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c.slope > 0.0, np.maximum(-1.0, -c.a0 / c.slope), -1.0)


def lower_boundary(model: MarketModel, prefs: Preference, t):
    """Below this tilt level the function m is nonpositive: max(-1, -a0/a_y)
    with a = a0 + a_y y, and -1 where a_y = 0 (the excess return vanishes)."""
    return _scalar_or_array(lambda t: _aux_floor(_Coef(model, prefs.p, t)), t)


def aux_eval(model: MarketModel, prefs: Preference, t, y) -> AuxEval:
    """Evaluate a, b, m, n and their solver partials at (t, y).

    ``t`` and ``y`` are scalars, which give floats, or arrays that broadcast
    together, which give arrays.  Values may be negative below the
    admissible boundary; callers enforce the domain.
    """
    t, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(y, dtype=float))
    if not ((0.0 <= t) & (t < model.horizon)).all():
        raise DomainError("t must lie in [0, T)")
    if not (y >= -1.0).all():  # NaN fails too
        raise DomainError("y must be >= -1")
    c, yv = _Coef(model, prefs.p, t.ravel()), y.ravel()
    a, m, m_y = _aux_m_dm(c.a0, c.slope, c.p, yv)
    fields = (a, (1.0 + yv / prefs.p) * a, m, _aux_n(c, yv), c.slope, m_y, _aux_dn_dy(c, yv))
    return AuxEval(*(float(v[0]) if t.ndim == 0 else v.reshape(t.shape) for v in fields))


def _upper_root(qa, qb, qc):
    """Larger root of qa y^2 + qb y + qc, qa > 0, in a cancellation-safe
    form; NaN where the roots are complex."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(qb * qb - 4.0 * qa * qc)
        return np.where(qb <= 0.0, (disc - qb) / (2.0 * qa), -2.0 * qc / (disc + qb))


def _log_m_step(y, y_a, scale, ip):
    # log(m/f) above the boundary, m/f = (1 + y)^ip scale (y - y_a), and its Newton step
    d = y - y_a
    h = np.log1p(y) * ip + np.log(scale * d)
    return h, h / (ip / (1.0 + y) + 1.0 / d)


def _implicit_many(c: _Coef, targets: np.ndarray, x0=None) -> np.ndarray:
    """Solve m(t_i, y_i) = f_i for each grid point, 0 < f_i < inf; the flat
    point k of ``targets`` belongs to the node k mod n of the grid.

    Newton on h = log(m/f), strictly concave and increasing above the boundary
    max(-1, y_a), a = a_y (y - y_a): from left of the root it rises to it, from
    right of it one step lands left (Ortega & Rheinboldt, 1970).  A step to or
    below the boundary is retaken in log(1 + y), then pulled halfway back.  A
    point stops at its Newton point once |h| <= 4 ulps of 1 + |log f|, its step
    is within 4 ulps of y while |h| max(1, p) <= 1/2, or it is within 4 ulps
    right of the boundary; from h < 0, unevaluated once max(1, p) h^2 / 2 <=
    eps/2, which bounds its |h| (Taylor): h' = u + v and |h''| = p u^2 + v^2 <=
    max(1, p) h'^2 falls as y rises, u = 1/(p (1 + y)), v = 1/(y - y_a).  The
    default start, the root of (1 + y/p) a = f, is exact at p = 1, left of the
    root for p > 1 and right of it for p < 1; a start that is NaN or not above
    the boundary moves one unit above it.
    """
    f = np.asarray(targets, dtype=float).ravel()
    if not ((f > 0.0) & (f < np.inf)).all():  # NaN fails too
        raise DomainError("target must be positive and finite")
    p = c.p
    out = np.empty(f.shape)

    node = np.arange(f.size) % c.t.size
    flat = c.phi_p[node] == 0.0
    if flat.any():
        out[flat] = f[flat] ** p - 1.0
    pts = np.flatnonzero(~flat)
    if pts.size == 0:
        return out.reshape(np.shape(targets))

    at = node[pts]  # each point's node; a = a0 + slope y = slope (y - y_a)
    a0, slope, fa = c.a0[at], c.slope[at], f[pts]
    y_a = -a0 / slope
    lo = np.maximum(y_a, -1.0)
    if x0 is None:
        x0 = _upper_root(slope / p, a0 / p + slope, a0 - fa)
    else:
        x0 = np.broadcast_to(x0, f.shape)[pts]
    x, idx = np.where(x0 > lo, x0, lo + 1.0), pts  # idx: the points still iterating
    with np.errstate(over="ignore"):  # inf below f = a_y/DBL_MAX, whose root rounds to the boundary
        scale = slope / fa
    ip, tol, q = 1.0 / p, _ULPS * (1.0 + np.abs(np.log(fa))), max(p, 1.0)
    wide = math.sqrt(np.finfo(float).eps / q)  # h in [-wide, 0): its Newton point has |h| <= eps/2
    for _ in range(_MAX_NEWTON_STEPS):
        h, step = _log_m_step(x, y_a, scale, ip)
        x, old = x - step, x
        below = x <= lo
        if below.any():
            xb, lb = old[below], lo[below]
            zy = (1.0 + xb) * np.exp(-step[below] / (1.0 + xb)) - 1.0
            x[below] = np.where(zy > lb, zy, 0.5 * (xb + lb))
            h[below] = np.where(xb - lb <= _ULPS * np.abs(xb), 0.0, h[below])  # root in between
        done = ((h >= -wide) & (h <= tol)) | (
            (np.abs(step) <= _ULPS * np.abs(old)) & (np.abs(h) <= 0.5 / q))
        if done.any():
            out[idx[done]] = x[done]
            keep = ~done
            if not keep.any():
                break
            idx, x, lo, tol, y_a, scale = (v[keep] for v in (idx, x, lo, tol, y_a, scale))
    else:
        out[idx] = x
    return out.reshape(np.shape(targets))


def implicit_solve(model: MarketModel, prefs: Preference, t, target):
    """Unique y above the admissible boundary with m(t, y, p) = target, at scalars or arrays."""
    t, target = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(target, dtype=float))
    y = _implicit_many(_Coef(model, prefs.p, t.ravel()), target.ravel())
    return float(y[0]) if t.ndim == 0 else y.reshape(t.shape)


@functools.lru_cache(maxsize=8)
def _scaffold(horizon: float, n_grid: int):
    """The grid on [0, T (1 - TERMINAL_CLIP_FRACTION)], its panel half-widths, its
    :func:`panel_rule` and the sliver's :func:`shell_table`, kept for the last eight
    (T, n_grid) and read-only, since every later solve on the grid shares them."""
    grid = clustered_grid(horizon * (1.0 - TERMINAL_CLIP_FRACTION), n_grid)
    half, shells = 0.5 * np.diff(grid), shell_table(float(grid[-1]), horizon)
    for v in (grid, half, *shells):
        v.flags.writeable = False
    return grid, half, panel_rule(grid), shells


def _require_drift(model: MarketModel) -> None:
    if model.mu <= 0:
        raise DomainError("positive instantaneous expected return required")


def _brackets(model: MarketModel, c: _Coef, n=None) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) from one inversion: the myopic curve m = 1 at every
    node of ``c`` and the curve m = exp(rate (T - t)) of the growth bound at
    its first ``n`` (all by default).  Raises :class:`SolverError` when
    exp(rate T) overflows a float."""
    rate = (1.0 - c.p) * model.mu**2 / (2.0 * c.p**2 * model.sigma**2)
    if rate * model.horizon > _LOG_FLOAT_MAX:
        raise SolverError(
            f"growth bound exp(rate (T - t)) overflows: rate * T = {rate * model.horizon:.6g} "
            f"exceeds {_LOG_FLOAT_MAX:.6g}; risk aversion p = {c.p:g} is too small"
        )
    # point k at node k mod len(c.t): the growth targets belong to the first n
    growth = [] if rate == 0.0 else [np.exp(rate * (model.horizon - c.t[:n]))]
    y = _implicit_many(c, np.concatenate([np.ones_like(c.t), *growth]))
    myopic = y[: c.t.size]
    other = y[c.t.size :] if growth else myopic  # log utility: the myopic curve
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
    lo, hi = _brackets(model, c)
    return Curve(c.t, lo), Curve(c.t, hi)


@_elementwise
def log_utility_solution(model: MarketModel, t):
    """Closed-form curve for p = 1; zero where the excess return vanishes.

    The defining relation m(t, y, 1) = 1 reduces to a quadratic; its root
    above -1 comes from the helper that starts the pointwise inversions,
    so at p = 1 the myopic inversion starts at this curve.
    """
    phi_p = np.asarray(model.excess.dphi(t))
    kap = np.asarray(model.hazard.hazard(t))
    out = np.zeros(t.shape)
    pos = phi_p > 0.0
    if np.any(pos):
        fp = phi_p[pos]
        A = model.mu - fp - model.sigma**2 * kap[pos] / fp
        out[pos] = _upper_root(fp, -A, -model.mu)
    return out


@dataclass(frozen=True)
class Solution:
    """Solved scenario: tilt curve, brackets and residuals.

    ``tilt`` is the curve driving both the optimal fraction and the dual
    measure; ``myopic`` is whichever bracket solves m = 1;
    ``m_start`` = m(0, tilt(0), p) feeds the welfare formulas and the dual
    multiplier.  ``residuals`` is the profile |m e^{int n} - 1| of ``tilt``,
    at most the solve's ``tol`` at every node.  ``method`` is always
    ``"newton"``.  ``dual_measure`` is the tilted crash law of ``tilt``.
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
    method: str
    iterations: int

    @functools.cached_property
    def dual_measure(self) -> TiltedMeasure:
        """:func:`~bubblemkt.elmm.build_tilted_measure` of ``tilt``, built once, on first use."""
        return build_tilted_measure(self.model, TiltFunction(self.tilt, label="solved tilt"))

    @property
    def merton_fraction(self) -> float:
        return self.model.mu / (self.preference.p * self.model.sigma**2)

    def fraction_along(self, curve: Curve, t):
        """Fraction (mu - phi'(t) y(t)) / (p sigma^2) along ``curve``, frozen past ``grid``."""
        t = np.minimum(np.asarray(t, dtype=float), self.grid[-1])
        phi_p = np.asarray(self.model.excess.dphi(t))
        return (self.model.mu - phi_p * curve(t)) / (self.preference.p * self.model.sigma**2)


def _myopic_n(c: _Coef, ym: np.ndarray) -> np.ndarray:
    # n on m = 1, where b - 1 = expm1(log1p(y/p) - log1p(y)/p)
    b_1 = np.expm1(np.log1p(ym / c.p) - np.log1p(ym) / c.p)
    return -(1.0 - c.p) * (c.phi_p * ym) ** 2 / (2.0 * c.p * c.sig2p) + c.kap * b_1


def _terminal_tail(model: MarketModel, prefs: Preference, t_end: float, y_end: float,
                   shells=None, first=None) -> float:
    """int_{t_end}^T n(u, y(u)) du approximated along the myopic curve.

    Both brackets converge to the myopic curve at the horizon and n along
    it is bounded by |1-p| mu^2 / (2 p^2 sigma^2), so the tail is finite
    and tiny; a non-convergent verdict therefore signals a model outside
    the solver's assumptions.  n is formed through b - 1 on m = 1, so no
    rounding of a is multiplied by a kappa that blows up at the horizon.
    ``shells`` and ``first``, if given, are the shell table of (t_end, T) and
    that n at its first batch's nodes, formed (and its errors seen) by the
    caller; later batches invert m = 1 from ``y_end``, the myopic value at
    ``t_end``, errors held back.  At p = 1 n is 0 and the solve calls none.
    """

    def integrand(u):
        c = _Coef(model, prefs.p, u)
        return _myopic_n(c, _implicit_many(c, np.ones_like(c.t), x0=y_end))

    res = integrate_toward(integrand, t_end, model.horizon, rtol=1e-12, atol=1e-12,
                           shells=shells, first=first)
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
) -> Solution:
    """Solve the integral equation and package the optimal strategy.

    Newton on F(y) = log m + int n from the myopic bracket: each step
    solves the trapezoid Jacobian diag(m_y/m) + W diag(n_y), which is upper
    triangular, by a doubling scan of its differenced rows.  A step whose
    max |F| does not fall is halved, up to ``MAX_HALVINGS`` times, and
    iterates stay in the brackets.  It returns the first iterate whose
    residual |m exp(int n) - 1| is at most ``tol`` at every node;
    ``iterations`` counts the iterates examined, the start included.  A
    stall (halving fails) or ``MAX_NEWTON_ITER`` iterates above ``tol``
    raise :class:`SolverError` with the last residual profile; a ``tol``
    that is not positive and finite, or an ``n_grid`` that is no integer >= 4,
    raises :class:`DomainError`.  Solves on one grid share its read-only ``grid``.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    size = int(n_grid) if isinstance(n_grid, numbers.Real) and math.isfinite(n_grid) else 0
    if isinstance(n_grid, bool) or size != n_grid or size < 4:
        raise DomainError(f"n_grid must be an integer >= 4, got {n_grid!r}")
    _require_drift(model)
    require_valid(model)

    grid, half, rule, shells = _scaffold(float(model.horizon), size)
    t_end, n = float(grid[-1]), grid.size
    if prefs.p == 1.0:  # the sliver's n on m = 1, -(1 - p)(...) + kappa expm1(0), is 0
        c, tail = _Coef(model, prefs.p, grid), 0.0
        lower = upper = myopic = Curve(grid, _implicit_many(c, np.ones(n)))
    else:  # one model sample and one inversion for the grid and the sliver's first shells
        full = _Coef(model, prefs.p, np.concatenate([grid, first_shell_nodes(shells)]))
        lo, hi = _brackets(model, full, n)
        c = full.take(slice(0, n))
        lower, upper = Curve(grid, lo[:n]), Curve(grid, hi[:n])
        myopic = lower if prefs.p < 1.0 else upper
        first = _myopic_n(full.take(slice(n, None)), (lo if prefs.p < 1.0 else hi)[n:])
        tail = _terminal_tail(model, prefs, t_end, float(myopic.values[-1]), shells, first)

    y, iterations, resid = _newton(c, rule, half, lower.values, upper.values, myopic.values, tail, tol)
    return Solution(
        model=model,
        preference=prefs,
        grid=grid,
        tilt=Curve(grid, y),
        lower=lower,
        upper=upper,
        myopic=myopic,
        residuals=resid,
        m_start=float(_aux_m_dm(c.a0[0], c.slope[0], prefs.p, y[0])[1]),
        method="newton",
        iterations=iterations,
    )


def _newton(c, rule, half, lower, upper, start, tail, tol):
    # Returns the first iterate within ``tol``, the iterates examined and its
    # residual profile, the only one formed; a stall or running out of iterations raises.
    y = start
    F, worst, top, L, N = _evaluate(c, rule, y, tail)
    for it in range(1, MAX_NEWTON_ITER + 1):
        if top <= tol or it == MAX_NEWTON_ITER:
            break
        d = _newton_step(L, N, F, half)
        for _ in range(MAX_HALVINGS + 1):
            trial = np.minimum(np.maximum(y + d, lower), upper)
            evaluated = _evaluate(c, rule, trial, tail)
            if evaluated[1] < worst:
                break
            d = 0.5 * d
        else:
            break  # stalled: no halving lowers max |F|
        y, (F, worst, top, L, N) = trial, evaluated
    with np.errstate(over="ignore"):
        profile = np.abs(np.expm1(F))
    if top <= tol:
        return y, it, profile
    raise SolverError(
        f"integral-equation residual {np.max(profile):.3e} above tol {tol:.1e} "
        f"after {it} Newton iterations",
        residuals=profile,
    )


def _newton_step(L, N, F, half):
    """Solve (diag(L) + W diag(N)) d = -F, L = m_y/m, N = n_y, W the
    trapezoid integral to the right on panels of half-widths h = ``half``.
    Row i minus row i + 1 gives d_i = A_i d_{i+1} + B_i with
    A_i = (L_{i+1} - h_i N_{i+1}) / D_i, B_i = (F_{i+1} - F_i) / D_i and
    D_i = L_i + h_i N_i, closed by d_{n-1} = -F_{n-1} / L_{n-1}.  These
    affine maps compose in ceil(log2 n) doubling passes of a prefix scan
    (Blelloch, CMU-CS-90-190, 1990), which divides by no running product."""
    D = L[:-1] + half * N[:-1]
    A, B = np.empty(F.size), np.empty(F.size)
    np.divide(L[1:] - half * N[1:], D, out=A[:-1])
    np.divide(F[1:] - F[:-1], D, out=B[:-1])
    A[-1], B[-1] = 0.0, -F[-1] / L[-1]
    k = 1  # (A_i, B_i) composes the maps i .. i + k - 1
    while 2 * k < F.size:
        B[:-k] += A[:-k] * B[k:]
        A[:-k] *= A[k:]
        k *= 2
    B[:-k] += A[:-k] * B[k:]  # the last pass, whose A would never be read
    return B


def _evaluate(c, rule, y, tail):
    """F = log m + int n + tail along ``y``, max |F|, max |e^F - 1| (both at F's extremes) and
    the Jacobian's diagonals L = m_y/m and N = n_y, from the per-node forms of ``c``: a = a0 + a_y y,
    log m = log1p(y)/p + log a, m_y/m = 1/(p (1 + y)) + a_y/a and n's quadratic."""
    a = c.a0 + c.slope * y
    F = np.log1p(y) / c.p + np.log(a) + rule.cumulative_to_right(_aux_n(c, y)) + tail
    hi, lo = F.max(), F.min()
    with np.errstate(over="ignore"):
        top = max(np.expm1(hi), -np.expm1(lo))
    return F, max(hi, -lo), top, 1.0 / (c.p * (1.0 + y)) + c.slope / a, _aux_dn_dy(c, y)


def dual_multiplier(solution: Solution) -> float:
    """Lagrange multiplier of the budget constraint in the dual problem."""
    model, p = solution.model, solution.preference.p
    root = solution.preference.x * solution.m_start * math.exp(
        -(1.0 - p) * model.mu**2 * model.horizon / (2.0 * p**2 * model.sigma**2)
    )
    return root ** (-p)


@_elementwise
def optimal_fraction(solution: Solution, t: float, crashed: bool = False):
    """Fraction of wealth in the stock: Merton after the crash or at the
    horizon, tilt-adjusted before."""
    if np.isnan(t).any():
        raise DomainError("t must not be NaN")
    out = np.full(t.shape, solution.merton_fraction)
    if not crashed:
        pre = t < solution.model.horizon
        if np.any(pre):
            out[pre] = solution.fraction_along(solution.tilt, t[pre])
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
    pi_m = (solution.model.mu - phi_p * ym.values) / denom
    pi_h = phi_p * (ym.values - solution.tilt.values) / denom
    return Curve(grid, pi_m), Curve(grid, pi_h)
