"""Tilted measures and martingale classification under them.

A tilt ``y`` with ``inf (1 + y) > 0`` reweights the crash-time law: the
tilted survival is ``zeta(t) (1 - G(t))`` with
``zeta(t) = exp(-int_0^t kappa y)`` and the tilted hazard is
``kappa (1 + y)``.  Combined with a Girsanov shift of the Brownian part,
every admissible tilt yields an equivalent measure under which the asset
is a local martingale.  Whether it is a true martingale there does not
depend on the tilt (given the two-sided bounds below): only the atom and
the integrability of ``kappa - phi'`` decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quad import CONVERGED, Curve, PanelRule, horizon_grid, integrate_toward
from .hazard import (
    Classification,
    CrashHazard,
    MarketModel,
    ModelError,
    Verdict,
    excess_defect_integral,
    limsup_jump_size,
    require_valid,
)

TILTED_GRID_POINTS = 2049  # nodes of the tilted law's table when no grid is given
TILT_BOUND_C_MAX = 2.0**16  # largest C that verify_tilt_bounds tries


class RejectedTiltError(ValueError):
    """The tilt fails one of the admissibility conditions; the message
    names the violated condition."""


@dataclass(frozen=True)
class TiltFunction:
    """Candidate tilt y(t) on [0, T).

    ``inf_one_plus_y`` is a certified lower bound on inf (1 + y) when the
    caller has one; grid sampling alone cannot certify the infimum.
    """

    y: Callable
    inf_one_plus_y: Optional[float] = None
    label: str = "tilt"

    def __call__(self, t):
        return np.asarray(self.y(np.asarray(t, dtype=float)), dtype=float)


def constant_tilt(c: float) -> TiltFunction:
    return TiltFunction(
        y=lambda t, _c=c: np.full(np.shape(np.asarray(t, dtype=float)), _c),
        inf_one_plus_y=1.0 + c,
        label=f"y={c:g}",
    )


class TiltedMeasure(CrashHazard):
    """Crash-time law under the tilted measure, tabulated on a grid.

    A crash law like the hazard families: its hazard is ``kappa (1 + y)``
    and its cumulative hazard the monotone cubic
    :class:`~bubblemkt._quad.Curve` through ``int kappa (1 + y)`` on the
    grid, so Monte Carlo under the tilted measure reuses the
    physical-measure machinery unchanged.  Past the grid end the
    cumulative hazard and ``zeta`` stay frozen at their last tabulated
    values, and sampling collapses the mass between the grid end and the
    horizon to the grid end.
    """

    def __init__(self, model: MarketModel, tilt: TiltFunction, grid: np.ndarray):
        self.model = model
        self.tilt = tilt
        self.grid = np.asarray(grid, dtype=float)
        hazard = model.hazard
        kap = np.asarray(hazard.hazard(self.grid))
        yv = tilt(self.grid)
        rule = PanelRule(self.grid)
        cum_tilt = rule.cumulative_from_left(kap * yv)  # int kappa y
        base = np.asarray(hazard.cumulative_hazard(self.grid))
        cum_total = cum_tilt + base  # int kappa (1 + y)
        if not np.all(np.isfinite(cum_total)):
            raise ModelError("cumulative tilted hazard is not finite on the grid")
        self._tilt_interp = Curve(self.grid, cum_tilt)
        self._cum = Curve(self.grid, cum_total)
        self.horizon = hazard.horizon
        # leftover mass beyond the grid decides the atom; the hazard tail
        # is exact from the physical atom, the tilt is frozen at the edge
        t_end = float(self.grid[-1])
        self._table_edge = (t_end, float(cum_total[-1]))
        if hazard.kappa_integrable:
            base_tail = -math.log(hazard.atom) - float(base[-1])
            edge_tilt = float(tilt(np.array([t_end]))[0])
            self.atom = math.exp(-(cum_total[-1] + (1.0 + edge_tilt) * base_tail))
        else:
            self.atom = 0.0

    def _kappa(self, t):
        return np.asarray(self.model.hazard.hazard(t)) * (1.0 + self.tilt(t))

    def survival_ratio(self, t):
        """zeta(t): tilted survival over physical survival."""
        t = np.asarray(t, dtype=float)
        return np.exp(-np.asarray(self._tilt_interp(t)))

    # -- construction checks ---------------------------------------------------
    def relation_residuals(self) -> np.ndarray:
        """Relative residuals of the three structural identities at the
        grid nodes (skipping the first node where zeta = 1 trivially).

        Derivatives of the tabulated objects are formed by central
        differences fed with locally re-integrated values, so the residuals
        measure genuine numerical consistency of the construction rather
        than restating its defining formulas.
        """
        hazard = self.model.hazard
        inner = self.grid[1:-1]
        # the step shrinks with the distance to the horizon so truncation
        # stays O(1e-10) even against a hazard blow-up
        h_all = 3e-6 * np.minimum(self.horizon, self.horizon - inner)
        keep = (inner + h_all < self.grid[-1]) & (inner - h_all > 0.0)
        t, h = inner[keep], h_all[keep]
        kap = np.asarray(hazard.hazard(t))
        yv = self.tilt(t)
        zeta = np.exp(-np.asarray(self._tilt_interp(t)))

        def local_increment(f, a, b):
            # two-panel Gauss on [a, b], vectorized over node arrays
            x1, w1 = np.polynomial.legendre.leggauss(7)
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            nodes = mid[:, None] + half[:, None] * x1[None, :]
            return half * (f(nodes.ravel()).reshape(nodes.shape) @ w1)

        def kappa_y(x):
            return np.asarray(hazard.hazard(x)) * self.tilt(x)

        def kappa_total(x):
            return np.asarray(hazard.hazard(x)) * (1.0 + self.tilt(x))

        # snap the stencil to exact floats: the width (hi - lo) is then an
        # exact difference of nearby floats and no longer amplifies eps(t)/h
        lo = t - h
        hi = t + h
        width = hi - lo

        inc_up = local_increment(kappa_y, t, hi)
        inc_dn = local_increment(kappa_y, lo, t)
        # expm1 keeps the FD numerator accurate when the increments are tiny
        dzeta = zeta * (np.expm1(-inc_up) - np.expm1(inc_dn)) / width
        res1 = np.abs((zeta - dzeta / kap) - zeta * (1.0 + yv)) / zeta

        surv_t = np.asarray(self.survival(t))
        res2 = np.abs(surv_t - zeta * np.exp(-np.asarray(hazard.cumulative_hazard(t)))) / np.maximum(
            surv_t, 1e-300
        )

        kap_h_fd = (
            local_increment(kappa_total, t, hi) + local_increment(kappa_total, lo, t)
        ) / width
        res3 = np.abs(kap_h_fd - kap * (1.0 + yv)) / (kap * (1.0 + yv))

        return np.vstack([res1, res2, res3])


def _probe_grid(model: MarketModel, n: int = 1024) -> np.ndarray:
    return horizon_grid(model.horizon, n)


def build_tilted_measure(
    model: MarketModel,
    tilt: TiltFunction,
    grid: Optional[np.ndarray] = None,
) -> TiltedMeasure:
    """Construct the tilted crash-time law after admissibility checks.

    Rejections name the violated condition: positivity of 1 + y, square
    integrability of phi' y, and (only when the law has an atom)
    integrability of kappa (1 + y).  The law is tabulated on ``grid``,
    by default the ``TILTED_GRID_POINTS``-node horizon grid.
    """
    probe = _probe_grid(model)
    one_plus = 1.0 + tilt(probe)
    floor = float(np.min(one_plus))
    if tilt.inf_one_plus_y is not None:
        floor = min(floor, tilt.inf_one_plus_y)
    if floor <= 0.0:
        raise RejectedTiltError("tilt violates inf (1 + y) > 0")

    dphi = np.asarray(model.excess.dphi(probe))
    drift_load = dphi * tilt(probe)
    bounded_load = bool(np.max(np.abs(drift_load)) < np.inf) and model.excess.bounded_dphi
    if not bounded_load or not np.all(np.isfinite(drift_load)):
        res = integrate_toward(
            lambda t: (np.asarray(model.excess.dphi(t)) * tilt(t)) ** 2,
            0.0,
            model.horizon,
        )
        if res.status != CONVERGED:
            raise RejectedTiltError(
                "tilt violates square integrability of phi' * y"
            )

    if model.hazard.atom > 0.0:
        # kappa is integrable here, so only a tilt blowing up near the
        # horizon can break integrability of kappa (1 + y)
        T = model.horizon
        window_max = []
        for k in range(2, 34):
            win = np.linspace(T * (1 - 0.5**k), T * (1 - 0.5 ** (k + 1)), 9)
            window_max.append(float(np.max(np.abs(tilt(win)))))
        head = max(window_max[:8]) + 1.0
        if not np.all(np.isfinite(window_max)) or max(window_max[-5:]) > 8.0 * head:
            res = integrate_toward(
                lambda t: np.asarray(model.hazard.hazard(t)) * np.abs(1.0 + tilt(t)),
                0.0,
                model.horizon,
            )
            if res.status != CONVERGED:
                raise RejectedTiltError(
                    "tilt violates integrability of kappa (1 + y) for an atom law"
                )

    if grid is None:
        grid = horizon_grid(model.horizon, TILTED_GRID_POINTS)
    return TiltedMeasure(model, tilt, np.asarray(grid, dtype=float))


def verify_tilt_bounds(model: MarketModel, tilt: TiltFunction) -> Optional[tuple[float, float]]:
    """Certify eps <= 1 + y <= C + (C/phi') 1{kappa < C phi'} on [0, T).

    Searches C over powers of two up to ``TILT_BOUND_C_MAX`` and checks the
    bound on a 1025-point horizon-clustered grid (its every fourth and every
    second point are exactly the 257- and 513-point grids); the certificate
    transfers the strict-local dichotomy from the physical measure to the
    tilted one.  Returns (eps, C) or None: failure is a value, not an
    exception.
    """
    grid = _probe_grid(model, 1025)
    one_plus = 1.0 + tilt(grid)
    eps = float(np.min(one_plus))
    if tilt.inf_one_plus_y is not None:
        eps = min(eps, tilt.inf_one_plus_y)
    if not eps > 0.0:
        return None
    eps = min(1.0, eps)

    dphi = np.asarray(model.excess.dphi(grid))
    kap = np.asarray(model.hazard.hazard(grid))
    c = 1.0
    while c <= TILT_BOUND_C_MAX:
        with np.errstate(divide="ignore"):
            slack = np.where(
                (dphi > 0) & (kap < c * dphi), c / np.maximum(dphi, 1e-300), 0.0
            )
        if not np.any(one_plus > c + slack + 1e-12):
            return (eps, c)
        c *= 2.0
    return None


def classify_under_Q(model: MarketModel, tilt: TiltFunction) -> Classification:
    """Martingale status of the asset under the measure built from ``tilt``.

    An atom forces a true martingale for every admissible tilt.  Without
    an atom the verdict needs the two-sided tilt bounds, after which it is
    tilt-free: strict local iff int (kappa - phi') < infinity.  A model
    that fails :func:`~bubblemkt.hazard.validate` raises
    :class:`~bubblemkt.hazard.ModelError`.
    """
    require_valid(model)
    # admissibility gate; a coarse table suffices
    build_tilted_measure(model, tilt, grid=horizon_grid(model.horizon, 257))
    atom = model.hazard.atom
    defect, status = excess_defect_integral(model)
    lim = limsup_jump_size(model)
    if atom > 0.0:
        return Classification(Verdict.TRUE_MARTINGALE, atom, defect, lim)
    bounds = verify_tilt_bounds(model, tilt)
    if bounds is None:
        return Classification(
            Verdict.INDETERMINATE,
            atom,
            defect,
            lim,
            "two-sided tilt bounds could not be certified",
        )
    if status != CONVERGED:
        return Classification(
            Verdict.INDETERMINATE,
            atom,
            defect,
            lim,
            "quadrature could not certify the defect integral",
        )
    if math.isinf(defect):
        return Classification(Verdict.TRUE_MARTINGALE, atom, defect, lim)
    return Classification(Verdict.STRICT_LOCAL_MARTINGALE, atom, defect, lim)
