"""Quadrature plumbing shared across the package.

Five tools live here:

* :class:`PanelRule` integrates grid-sampled functions on a fixed,
  nonuniform grid with a local-cubic rule (O(h^4) globally), giving fast
  cumulative integrals without building an interpolant;
  :func:`panel_rule` builds it once per grid.
* :func:`integrate_toward` integrates functions with a possible blow-up at
  the right endpoint by summing dyadic shells that refine toward it, and
  certifies convergence or divergence from the shell magnitudes.  Naive
  adaptive quadrature stalls on integrable endpoint singularities and
  silently truncates nonintegrable ones; the shell ladder makes the decay
  rate observable.  The integrand is evaluated on a batch of shells per
  call, and the verdict is still reached shell by shell.
* :func:`monotone_inverse` inverts increasing functions pointwise with a
  safeguarded Newton iteration for the crash-law and tilted-law inversions;
  a point stops as soon as the function resolves its target to a few ulps.
* :class:`Curve` is the monotone cubic, with its derivative, behind every
  tabulated object in the package.
* :func:`local_slope` differentiates exp(int g) by central differences
  over locally re-integrated increments, for the identity checks that
  must not restate the formulas they check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_GL5_X, _GL5_W = np.polynomial.legendre.leggauss(5)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)

_ULPS = 4.0 * np.finfo(float).eps  # root-finder stopping width, relative
_MAX_NEWTON_STEPS = 200

# integrate_toward: shell budget, the run of non-decaying shells that
# certifies divergence, and the shells per call
_MAX_SHELLS = 60
_DIVERGENCE_RUN = 8
_SHELL_BATCH = 8  # shells per call of the integrand
_HALVINGS = 0.5 ** np.arange(_MAX_SHELLS + 1)  # shell k spans (b - w 2^-k, b - w 2^-k-1]

CONVERGED = "converged"
DIVERGENT = "divergent"
INDETERMINATE = "indeterminate"


def clustered_grid(end: float, n: int) -> np.ndarray:
    """Strictly increasing grid on [0, end] clustered toward ``end``.

    Uses quarter-period sine spacing, so node density grows without bound
    at the right endpoint where hazard-rate singularities concentrate.
    """
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    i = np.arange(n)
    return end * np.sin(0.5 * np.pi * i / (n - 1))


HORIZON_CLIP = 1e-9  # horizon tables stop at T (1 - HORIZON_CLIP)
HORIZON_NODES = 4097  # nodes of every table that spans the horizon


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
        self._stencil = starts[:, None] + np.arange(4)[None, :]
        xs = t[self._stencil]
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
        self._weights = weights

    def panel_integrals(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        return np.einsum("pc,pc->p", self._weights, values[self._stencil])

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
        np.cumsum(parts[::-1], out=out[-2::-1])
        return out


def panel_rule(grid) -> PanelRule:
    """The :class:`PanelRule` of ``grid``, shared: equal grids get the same
    rule, whose arrays are read-only.  The last eight grids are kept."""
    return _shared_rule(np.ascontiguousarray(grid, dtype=float).tobytes())


@functools.lru_cache(maxsize=8)
def _shared_rule(key: bytes) -> PanelRule:
    rule = PanelRule(np.frombuffer(key))  # a read-only view of the key
    rule._stencil.flags.writeable = rule._weights.flags.writeable = False
    return rule


class Curve:
    """Monotone cubic through ``values`` on a strictly increasing ``grid``.

    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 1980) with the knot slopes
    of ``pchip`` (Moler, Numerical Computing with MATLAB, 2004, section
    3.4); coefficients and evaluation order are those of SciPy's
    ``PchipInterpolator`` and its ``derivative()``, which it matches bit
    for bit.
    ``curve(t)`` is the value and ``curve(t, nu=1)`` the derivative at
    ``t`` clamped to the grid: the curve stays frozen past its table.
    """

    def __init__(self, grid, values):
        x = np.asarray(grid, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("grid and values must be 1-d arrays of one length >= 2")
        if not ((x[1:] > x[:-1]).all() and math.isfinite(x[0]) and math.isfinite(x[-1])
                and np.isfinite(y).all()):
            if not (np.isfinite(x).all() and np.isfinite(y).all()):  # NaN fails x[1:] > x[:-1]
                raise ValueError("grid and values must be finite")
            raise ValueError("grid must be strictly increasing")
        self.grid, self.values = x, y

    @functools.cached_property
    def _coef(self) -> np.ndarray:
        # fitted on the first evaluation: many curves are only read as tables
        x, y = self.grid, self.values
        h = np.diff(x)
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
        return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, t, nu: int = 0):
        if nu not in (0, 1):
            raise ValueError("derivative order must be 0 or 1")
        x = self.grid
        t = np.clip(np.asarray(t, dtype=float), x[0], x[-1])
        return self.on_panel(np.searchsorted(x[1:-1], t, side="right"), t, nu)

    def on_panel(self, i, t, nu=0):
        """The cubic of panel ``i`` at ``t``, with no search and no clamp:
        its value (``nu = 0``), its derivative (1) or both (None)."""
        c = self._coef[: 3 if nu == 1 else 4].take(i, axis=1)  # the rows nu needs
        s = t - self.grid.take(i)
        slope = None if nu == 0 else c[2] + 2.0 * c[1] * s + 3.0 * c[0] * (s * s)
        if nu == 1:
            return slope
        s2 = s * s
        value = c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)
        return value if nu == 0 else (value, slope)


@dataclass(frozen=True)
class ShellIntegral:
    """Outcome of dyadic-shell integration toward a singular endpoint."""

    value: float
    status: str
    shells: int
    tail_bound: float


def shell_table(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths and 15-point Gauss nodes, a row per shell, of the dyadic
    shells of (a, b), up to the first whose width underflows near ``b``."""
    edges = b - (b - a) * _HALVINGS
    lo, hi = edges[:-1], edges[1:]
    res_limit = 64.0 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    keep = np.logical_and.accumulate((hi > lo) & (b - lo > res_limit))
    half = 0.5 * (hi[keep] - lo[keep])
    return half, (0.5 * (lo[keep] + hi[keep]))[:, None] + half[:, None] * _GL15_X


def first_shell_nodes(shells) -> np.ndarray:
    """The nodes of :func:`integrate_toward`'s first call of its integrand on
    the :func:`shell_table` ``shells``: its first ``_SHELL_BATCH`` shells'."""
    return shells[1][:_SHELL_BATCH].ravel()


def _shell_parts(f, shells, first=None):
    """Yield the Gauss integrals of ``f`` over :func:`shell_table` ``shells``.

    ``f`` is called once per batch of ``_SHELL_BATCH`` shells, on all their
    nodes, and a batch is summed by one reduction along each shell's row, the
    same bits for a shell in a batch of any size.  The batch's floating-point
    errors are held back; shells of a batch that raised one are evaluated
    again one at a time as they are consumed, so an error surfaces for
    exactly the shells whose values the caller uses.  ``first``, if given, is
    ``f`` at the first batch's nodes and replaces that call: it is summed as
    given, with no error held back, since its caller formed it.
    """
    def sums(w, values):
        return (w * (np.reshape(values, (w.size, -1)) * _GL15_W).sum(axis=1)).tolist()
    half, nodes = shells
    held = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    for start in range(0, half.size, _SHELL_BATCH):
        w, rows, flagged = half[start : start + _SHELL_BATCH], nodes[start : start + _SHELL_BATCH], []
        if start or first is None:
            with np.errstate(call=lambda *_: flagged.append(True), **held):
                parts = sums(w, f(rows.ravel()))
        else:
            parts = sums(w, first)
        for j, part in enumerate(parts):
            yield sums(w[j : j + 1], f(rows[j]))[0] if flagged else part


def integrate_toward(
    f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    atol: float = 0.0,
    shells=None,
    first=None,
) -> ShellIntegral:
    """Integrate ``f`` over (a, b) where ``f`` may be singular at ``b``.

    Shell k covers (b - w 2^-k, b - w 2^-k-1], w = b - a, and is integrated
    with 15-point Gauss; ``f`` is called once per batch of
    ``_SHELL_BATCH`` consecutive shells, so it must act elementwise.  Shell
    magnitudes |I_k| decay geometrically for integrable power singularities
    and stay flat or grow for nonintegrable ones; the run-length rules
    below, applied shell by shell, turn that into a converged / divergent /
    indeterminate verdict.  Shells evaluated past the verdict are
    discarded, and so are their floating-point errors.

    A shell or an extrapolated tail is negligible below
    ``atol + rtol |total|`` (the QUADPACK convention).  The default
    ``atol = 0`` leaves the verdict and the shell count unchanged when ``f``
    is scaled, as a finiteness question needs; a caller that wants a value
    to an absolute accuracy passes ``atol``.  ``shells``, if given, is the
    :func:`shell_table` of (a, b); ``first``, if given, is ``f`` at its
    :func:`first_shell_nodes` and replaces the first call: its caller
    formed it and saw its floating-point errors, so none is held back.
    """
    if not b > a:
        raise ValueError("need b > a")
    parts = _shell_parts(lambda x: np.asarray(f(x), dtype=float), shells or shell_table(a, b), first)
    total = 0.0
    comp = 0.0  # Kahan carry
    prev_mag = None
    ratios: list[float] = []
    signs: list[float] = []
    decay_run = 0
    flat_run = 0
    small_run = 0
    last = 0.0
    k = 0  # shells summed; the parts stop at width underflow near b
    for k, part in enumerate(parts, start=1):
        yv = part - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
        last = abs(part)
        signs.append(1.0 if part >= 0 else -1.0)
        scale = atol + rtol * abs(total)
        if last <= scale:
            small_run += 1
            flat_run = 0
            if small_run >= 3:
                return ShellIntegral(total, CONVERGED, k, last)
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
                        return ShellIntegral(total, CONVERGED, k, tail)
                    # stable one-signed geometric decay: extrapolate the tail
                    if decay_run >= 6 and len(set(signs[-5:])) == 1:
                        recent = ratios[-5:]
                        rbar = sum(recent) / len(recent)
                        spread = max(recent) - min(recent)
                        if spread <= 0.01 and rbar < 0.95:
                            tail = part * rbar / (1.0 - rbar)
                            err = abs(tail) * spread / max(1.0 - rbar, 1e-6)
                            if err <= scale:
                                return ShellIntegral(total + tail, CONVERGED, k, err)
                else:
                    flat_run += 1
                    decay_run = 0
                    if flat_run >= _DIVERGENCE_RUN:
                        sign = 1.0 if total >= 0 else -1.0
                        return ShellIntegral(sign * np.inf, DIVERGENT, k, np.inf)
        prev_mag = last
    return ShellIntegral(total, INDETERMINATE, k, last)


def _spread(v, shape: tuple) -> np.ndarray:
    # ``v`` as a flat float array over ``shape``, broadcast only if it must be
    v = np.asarray(v, dtype=float)
    return (v if v.shape == shape else np.broadcast_to(v, shape)).ravel()


def monotone_inverse(fdf, lo, hi, targets: np.ndarray, x0=None) -> np.ndarray:
    """Vectorized inverse of increasing functions on [lo, hi): safeguarded
    Newton (rtsafe, Numerical Recipes section 9.4).

    Point ``i`` solves ``f(x, i) = targets[i]``; ``fdf(x, idx)`` returns
    the function and its derivative ``(f, f')`` of the points ``idx`` at
    ``x``, so the iteration only touches unconverged points.
    ``lo`` and ``hi`` are scalars or per-point arrays.  Each evaluation
    shrinks the bracket; a Newton step that would leave it, or that fails
    to halve the step before last, becomes a bisection step.  A point stops
    once ``f`` resolves its target (|f(x) - target| within 4 ulps of the
    target), or once its raw Newton step or its bracket is within 4 ulps
    of the bracket's magnitude; it returns its Newton point where that lies
    in the bracket, else x.  Newton closes in from one side, so the far end
    of the bracket rarely moves: without the residual test the last points
    would bisect through the rounding noise of ``f``.  ``fdf`` is never
    evaluated at ``hi``, so it may blow up there.  ``x0`` (scalar or
    per-point) is an optional start, used where it lies strictly inside the
    bracket; elsewhere, and where it is NaN, the iteration starts at the
    midpoint.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.empty(targets.shape)
    idx = np.arange(targets.size)
    tgt = targets.ravel()
    low, high, start = (_spread(v, targets.shape) for v in (lo, hi, np.nan if x0 is None else x0))
    x = np.where((start > low) & (start < high), start, 0.5 * (low + high))
    dx = dx_old = high - low
    resolution = _ULPS * np.abs(tgt)
    for _ in range(_MAX_NEWTON_STEPS):
        value, slope = fdf(x, idx)
        resid = value - tgt
        below = resid < 0.0
        low = np.where(below, x, low)
        high = np.where(below, high, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / slope
        newton, size, span = x - step, np.abs(step), high - low
        tol = _ULPS * np.maximum(np.abs(low), np.abs(high))
        # fmin skips a NaN step, which then never counts as small
        done = (np.abs(resid) <= resolution) | (np.fmin(size, span) <= tol)
        if done.any():
            inside = (newton >= low) & (newton <= high)
            out.flat[idx[done]] = np.where(inside, newton, x)[done]
            keep = ~done
            if not keep.any():
                return out
            idx, tgt, resolution = idx[keep], tgt[keep], resolution[keep]
            x, low, high = x[keep], low[keep], high[keep]
            dx, dx_old = dx[keep], dx_old[keep]
            newton, size, span = newton[keep], size[keep], span[keep]
        # comparisons with a NaN step are false, so a NaN step bisects
        newton_ok = (newton > low) & (newton < high) & (size <= 0.5 * dx_old)
        dx_old, dx = dx, np.where(newton_ok, size, 0.5 * span)
        x = np.where(newton_ok, newton, 0.5 * (low + high))
    out.flat[idx] = x
    return out


def local_step(horizon: float, t):
    """Step of :func:`local_slope` at ``t``: it shrinks with the distance
    to the horizon, so truncation stays O(1e-10) even against a hazard
    blow-up."""
    return 3e-6 * np.minimum(horizon, horizon - t)


def local_slope(g, t: np.ndarray, h) -> np.ndarray:
    """g(t) recovered as exp(-G) d/dt exp(G), G' = g, by central differences.

    The increments of G over [t - h, t] and [t, t + h] are re-integrated
    with 7-point Gauss, vectorized over the 1-d array ``t`` (``h`` is a
    scalar or a matching array), and differenced through expm1, which keeps
    the numerator accurate when they are tiny.  The width is
    (t + h) - (t - h), an exact difference of the stencil's floats, so it
    does not amplify eps(t) / h.
    """
    lo, hi = t - h, t + h

    def increment(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _GL7_X
        return half * (g(nodes.ravel()).reshape(nodes.shape) @ _GL7_W)

    return (np.expm1(increment(t, hi)) - np.expm1(-increment(lo, t))) / (hi - lo)

