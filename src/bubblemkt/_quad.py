"""Quadrature plumbing shared across the package.

Four tools live here:

* :class:`PanelRule` integrates grid-sampled functions on a fixed,
  nonuniform grid with a local-cubic rule (O(h^4) globally), giving fast
  cumulative integrals without building an interpolant.
* :func:`integrate_toward` integrates functions with a possible blow-up at
  the right endpoint by summing dyadic shells that refine toward it, and
  certifies convergence or divergence from the shell magnitudes.  Naive
  adaptive quadrature stalls on integrable endpoint singularities and
  silently truncates nonintegrable ones; the shell ladder makes the decay
  rate observable.
* :func:`monotone_inverse` inverts increasing functions pointwise with a
  safeguarded Newton iteration; every root solve in the package uses it.
* :class:`Curve` is the monotone cubic, with two derivatives, behind every
  tabulated object in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

_ULPS = 4.0 * np.finfo(float).eps  # root-finder stopping width, relative
_MAX_NEWTON_STEPS = 200

# integrate_toward: absolute shell tolerance, shell budget, and the run of
# non-decaying shells that certifies divergence
_SHELL_ATOL = 1e-14
_MAX_SHELLS = 60
_DIVERGENCE_RUN = 8

CONVERGED = "converged"
DIVERGENT = "divergent"
INDETERMINATE = "indeterminate"


def clustered_grid(end: float, n: int, start: float = 0.0) -> np.ndarray:
    """Strictly increasing grid on [start, end] clustered toward ``end``.

    Uses quarter-period sine spacing, so node density grows without bound
    at the right endpoint where hazard-rate singularities concentrate.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    i = np.arange(n)
    return start + (end - start) * np.sin(0.5 * np.pi * i / (n - 1))


HORIZON_CLIP = 1e-9  # horizon tables stop at T (1 - HORIZON_CLIP)


def horizon_grid(horizon: float, n: int) -> np.ndarray:
    """:func:`clustered_grid` on [0, horizon (1 - HORIZON_CLIP)], the span
    of every table that must stay finite against a blow-up at the horizon."""
    return clustered_grid(horizon * (1.0 - HORIZON_CLIP), n)


class PanelRule:
    """Cubic integration weights for a fixed strictly increasing grid.

    Each panel [t_j, t_{j+1}] is integrated with the cubic through the four
    nearest grid samples (stencil clamped at the ends).  Weights depend only
    on the grid and are precomputed once, so repeated integrals of freshly
    sampled functions cost one matrix-free pass.
    """

    def __init__(self, grid: np.ndarray):
        t = np.asarray(grid, dtype=float)
        if t.ndim != 1 or len(t) < 4:
            raise ValueError("need a 1-d grid with at least 4 points")
        if not np.all(np.diff(t) > 0):
            raise ValueError("grid must be strictly increasing")
        self.grid = t
        n_panel = len(t) - 1
        starts = np.clip(np.arange(n_panel) - 1, 0, len(t) - 4)
        xs = t[starts[:, None] + np.arange(4)[None, :]]
        a, b = t[:-1], t[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _GL5_X[None, :]
        weights = np.empty((n_panel, 4))
        for c in range(4):
            num = np.ones_like(nodes)
            den = np.ones(n_panel)
            for d in range(4):
                if d == c:
                    continue
                num *= nodes - xs[:, d, None]
                den *= xs[:, c] - xs[:, d]
            weights[:, c] = half * (num @ _GL5_W) / den
        self._starts = starts
        self._weights = weights

    def panel_integrals(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        idx = self._starts[:, None] + np.arange(4)[None, :]
        return np.einsum("pc,pc->p", self._weights, values[idx])

    def integral(self, values: np.ndarray) -> float:
        return float(np.sum(self.panel_integrals(values)))

    def cumulative_from_left(self, values: np.ndarray) -> np.ndarray:
        """Array of integrals from grid[0] to each grid point."""
        parts = self.panel_integrals(values)
        out = np.empty(len(self.grid))
        out[0] = 0.0
        np.cumsum(parts, out=out[1:])
        return out

    def cumulative_to_right(self, values: np.ndarray) -> np.ndarray:
        """Array of integrals from each grid point to grid[-1]."""
        parts = self.panel_integrals(values)
        out = np.empty(len(self.grid))
        out[-1] = 0.0
        out[:-1] = np.cumsum(parts[::-1])[::-1]
        return out


class Curve:
    """Monotone cubic through ``values`` on a strictly increasing ``grid``.

    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980) with the knot slopes
    of ``pchip`` (Moler, Numerical Computing with MATLAB, 2004, section
    3.4); coefficients and evaluation order are those of SciPy's
    ``PchipInterpolator`` and its ``derivative(nu)``, which it matches bit
    for bit.
    ``curve(t, nu)`` is the ``nu``-th derivative (nu = 0, 1, 2) at ``t``
    clamped to the grid: the curve stays frozen past its table.
    """

    def __init__(self, grid, values):
        x = np.asarray(grid, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("grid and values must be 1-d arrays of one length >= 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("grid and values must be finite")
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise ValueError("grid must be strictly increasing")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])  # knot slopes; two knots give the straight line
        if len(x) > 2:
            # inside: weighted harmonic mean of the secants, 0 at an extremum
            w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            # ends: one-sided three-point slopes, limited to keep the shape
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            over = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
            d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(over, 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self.grid, self.values = x, y
        self._coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, t, nu: int = 0):
        if nu not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        x = self.grid
        t = np.clip(np.asarray(t, dtype=float), x[0], x[-1])
        i = np.searchsorted(x[1:-1], t, side="right")  # panel holding t
        c = [row.take(i) for row in self._coef[: 4 - nu]]  # the rows nu needs
        s = t - x.take(i)
        if nu == 0:
            s2 = s * s
            return c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)
        if nu == 1:
            return c[2] + 2.0 * c[1] * s + 3.0 * c[0] * (s * s)
        return 2.0 * c[1] + 6.0 * c[0] * s


@dataclass(frozen=True)
class ShellIntegral:
    """Outcome of dyadic-shell integration toward a singular endpoint."""

    value: float
    status: str
    shells: int
    tail_bound: float

    @property
    def finite(self) -> bool:
        return self.status == CONVERGED


def _gauss_shell(f, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(f(mid + half * _GL15_X) @ _GL15_W)


def integrate_toward(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
) -> ShellIntegral:
    """Integrate ``f`` over (a, b) where ``f`` may be singular at ``b``.

    Shell k covers (b - w 2^-k, b - w 2^-k-1], w = b - a, and is integrated
    with 15-point Gauss (vectorized calls).  Shell magnitudes |I_k| decay
    geometrically for integrable power singularities and stay flat or grow
    for nonintegrable ones; the run-length rules below turn that into a
    converged / divergent / indeterminate verdict.
    """
    if not b > a:
        raise ValueError("need b > a")
    f = _vectorized(f)
    width = b - a
    res_limit = 64.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    total = 0.0
    comp = 0.0  # Kahan carry
    prev_mag = None
    ratios: list[float] = []
    signs: list[float] = []
    decay_run = 0
    flat_run = 0
    small_run = 0
    last = 0.0
    part = 0.0
    k = 0
    for k in range(_MAX_SHELLS):
        lo = b - width * 0.5**k
        hi = b - width * 0.5 ** (k + 1)
        if hi <= lo or (b - lo) <= res_limit:  # width underflow near b
            break
        part = _gauss_shell(f, lo, hi)
        yv = part - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
        last = abs(part)
        signs.append(1.0 if part >= 0 else -1.0)
        scale = _SHELL_ATOL + rtol * max(1.0, abs(total))
        if last <= scale:
            small_run += 1
            flat_run = 0
            if small_run >= 3:
                return ShellIntegral(total, CONVERGED, k + 1, last)
        else:
            small_run = 0
            if prev_mag is not None and prev_mag > 0:
                ratio = last / prev_mag
                ratios.append(ratio)
                if ratio < 0.95:
                    decay_run += 1
                    flat_run = 0
                    tail = last * ratio / (1.0 - ratio)
                    if decay_run >= 4 and tail <= scale:
                        return ShellIntegral(total, CONVERGED, k + 1, tail)
                    # stable one-signed geometric decay: extrapolate the tail
                    if decay_run >= 6 and len(set(signs[-5:])) == 1:
                        recent = ratios[-5:]
                        rbar = sum(recent) / len(recent)
                        spread = max(recent) - min(recent)
                        if spread <= 0.01 and rbar < 0.95:
                            tail = part * rbar / (1.0 - rbar)
                            err = abs(tail) * spread / max(1.0 - rbar, 1e-6)
                            if err <= scale:
                                return ShellIntegral(
                                    total + tail, CONVERGED, k + 1, err
                                )
                else:
                    flat_run += 1
                    decay_run = 0
                    if flat_run >= _DIVERGENCE_RUN:
                        sign = 1.0 if total >= 0 else -1.0
                        return ShellIntegral(sign * np.inf, DIVERGENT, k + 1, np.inf)
        prev_mag = last
    return ShellIntegral(total, INDETERMINATE, k + 1, last)


def monotone_inverse(fn, dfn, lo, hi, targets: np.ndarray, x0=None) -> np.ndarray:
    """Vectorized inverse of increasing functions on [lo, hi): safeguarded
    Newton (rtsafe, Numerical Recipes section 9.4).

    Point ``i`` solves ``fn(x, i) = targets[i]``; ``fn(x, idx)`` and
    ``dfn(x, idx)`` evaluate the function and its derivative of the points
    ``idx`` at ``x``, so the iteration only touches unconverged points.
    ``lo`` and ``hi`` are scalars or per-point arrays.  Each evaluation
    shrinks the bracket; a Newton step that would leave it, or that fails
    to halve the step before last, becomes a bisection step.  A point stops
    once its raw Newton step or its bracket is within a few ulps of the
    bracket's magnitude.  ``fn`` is never evaluated at ``hi``, so it may
    blow up there.  ``x0`` (scalar or per-point) is an optional start, used
    where it lies strictly inside the bracket; elsewhere, and where it is
    NaN, the iteration starts at the midpoint.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.empty(targets.shape)
    idx = np.arange(targets.size)
    tgt = targets.ravel()
    low = np.broadcast_to(np.asarray(lo, dtype=float), targets.shape).ravel()
    high = np.broadcast_to(np.asarray(hi, dtype=float), targets.shape).ravel()
    x = 0.5 * (low + high)
    if x0 is not None:
        start = np.broadcast_to(np.asarray(x0, dtype=float), targets.shape).ravel()
        x = np.where((start > low) & (start < high), start, x)
    dx = dx_old = high - low
    for _ in range(_MAX_NEWTON_STEPS):
        resid = fn(x, idx) - tgt
        below = resid < 0.0
        low = np.where(below, x, low)
        high = np.where(below, high, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / dfn(x, idx)
        newton = x - step
        tol = _ULPS * np.maximum(np.abs(low), np.abs(high))
        done = (resid == 0.0) | (np.abs(step) <= tol) | (high - low <= tol)
        if np.any(done):
            inside = (newton >= low) & (newton <= high)
            out.flat[idx[done]] = np.where(inside, newton, x)[done]
            keep = ~done
            if not np.any(keep):
                return out
            idx, tgt, x, low, high = idx[keep], tgt[keep], x[keep], low[keep], high[keep]
            dx, dx_old, step, newton = dx[keep], dx_old[keep], step[keep], newton[keep]
        # comparisons with a NaN step are false, so a NaN step bisects
        bisect = ~((newton > low) & (newton < high) & (np.abs(step) <= 0.5 * dx_old))
        dx_old, dx = dx, np.where(bisect, 0.5 * (high - low), np.abs(step))
        x = np.where(bisect, 0.5 * (low + high), newton)
    out.flat[idx] = x
    return out


def _vectorized(f):
    def wrapped(x):
        out = f(x)
        return np.asarray(out, dtype=float)

    return wrapped

