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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quad import CONVERGED, DIVERGENT, HORIZON_NODES, Curve, horizon_grid, integrate_toward
from ._quad import local_slope, local_step, panel_rule
from .hazard import (
    Classification,
    CurveHazard,
    MarketModel,
    ModelError,
    Verdict,
    _classification,
    require_valid,
)

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


class TiltedMeasure(CurveHazard):
    """Crash-time law under the tilted measure, on the one horizon table.

    A crash law like the hazard families: its hazard is ``kappa (1 + y)``
    and its cumulative hazard the monotone cubic
    :class:`~bubblemkt._quad.Curve` through ``int kappa (1 + y)`` on the
    ``HORIZON_NODES``-node horizon grid, so Monte Carlo under the tilted
    measure reuses the physical-measure machinery unchanged; Newton inverts
    that cubic in each variate's knot panel with the cubic's own slope.
    Past the grid end the cumulative hazard and ``zeta`` stay frozen at
    their last tabulated values, and sampling collapses the mass between
    the grid end and the horizon to the grid end.
    """

    def __init__(self, model: MarketModel, tilt: TiltFunction):
        self.model, self.tilt, self.grid = model, tilt, horizon_grid(model.horizon, HORIZON_NODES)
        hazard = model.hazard
        kap = np.asarray(hazard.hazard(self.grid))
        yv = tilt(self.grid)
        cum_tilt = panel_rule(self.grid).cumulative_from_left(kap * yv)  # int kappa y
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
        self.atom = 0.0
        if hazard.atom > 0.0:
            base_tail = -math.log(hazard.atom) - float(base[-1])
            edge_tilt = float(tilt(np.array([t_end]))[0])
            self.atom = math.exp(-(cum_total[-1] + (1.0 + edge_tilt) * base_tail))

    def _kappa(self, t):
        return np.asarray(self.model.hazard.hazard(t)) * (1.0 + self.tilt(t))

    @functools.cached_property
    def _load(self) -> Curve:
        dphi_y = np.asarray(self.model.excess.dphi(self.grid)) * self.tilt(self.grid)
        return Curve(self.grid, panel_rule(self.grid).cumulative_from_left(dphi_y))

    def exponent(self, t):
        """phi + int phi' y on [0, T), the asset's pre-crash exponent under
        this measure; the integral is tabulated on first use."""
        return np.asarray(self.model.excess.phi(t)) + self._load(t)

    def survival_ratio(self, t):
        """zeta(t): tilted survival over physical survival."""
        return np.exp(-self._tilt_interp(t))

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
        h_all = local_step(self.horizon, inner)
        keep = (inner + h_all < self.grid[-1]) & (inner - h_all > 0.0)
        t, h = inner[keep], h_all[keep]
        kap = np.asarray(hazard.hazard(t))
        yv = self.tilt(t)
        zeta = np.exp(-np.asarray(self._tilt_interp(t)))

        def minus_kappa_y(x):  # the log-slope of zeta
            return -np.asarray(hazard.hazard(x)) * self.tilt(x)

        dzeta = zeta * local_slope(minus_kappa_y, t, h)
        res1 = np.abs((zeta - dzeta / kap) - zeta * (1.0 + yv)) / zeta

        surv_t = np.asarray(self.survival(t))
        res2 = np.abs(surv_t - zeta * np.exp(-np.asarray(hazard.cumulative_hazard(t)))) / np.maximum(
            surv_t, 1e-300
        )

        kap_h_fd = local_slope(self._kappa, t, h)  # log-slope of 1 / tilted survival
        res3 = np.abs(kap_h_fd - kap * (1.0 + yv)) / (kap * (1.0 + yv))

        return np.vstack([res1, res2, res3])


def _positivity(model: MarketModel, tilt: TiltFunction) -> tuple[np.ndarray, np.ndarray, float]:
    """(grid, 1 + y on it, eps) on the 1025-point horizon grid, with eps the
    grid minimum of 1 + y capped by the tilt's certified ``inf_one_plus_y``."""
    grid = horizon_grid(model.horizon, 1025)
    one_plus = 1.0 + tilt(grid)
    eps = float(np.min(one_plus))
    if tilt.inf_one_plus_y is not None:
        eps = min(eps, tilt.inf_one_plus_y)
    return grid, one_plus, eps


def _certify(condition: str, f: Callable, b: float) -> None:
    """Raise :class:`RejectedTiltError` unless int_0^b f reads CONVERGED;
    only a DIVERGENT certificate says that the tilt violates ``condition``."""
    res = integrate_toward(f, 0.0, b)
    read = f"{res.status} after {res.shells} shells"
    if res.status == DIVERGENT:
        raise RejectedTiltError(f"tilt violates {condition} ({read})")
    if res.status != CONVERGED:
        raise RejectedTiltError(f"{condition} is not certified ({read})")


def _admit_tilt(model: MarketModel, tilt: TiltFunction) -> None:
    """Raise :class:`RejectedTiltError` naming the first admissibility
    condition that ``tilt`` violates or that is not certified (see
    :func:`build_tilted_measure`)."""
    if not _positivity(model, tilt)[2] > 0.0:
        raise RejectedTiltError("tilt violates inf (1 + y) > 0")

    T, dphi = model.horizon, model.excess.dphi
    _certify("square integrability of phi' * y", lambda t: (np.asarray(dphi(t)) * tilt(t)) ** 2, T)

    law = model.hazard
    if law.atom > 0.0:
        # in u = H(t), du = kappa dt takes kappa's singularity and oscillation out
        # of the integrand.  H is inverted at u (1 - e^-u rounds to 1 past u = 37.43);
        # nearer T than integrate_toward's shells in t reach, t(u) stops resolving
        # and a flat integrand would certify any tilt, so it is nan there
        resolved = T - 64.0 * np.finfo(float).eps * max(T, 1.0)

        def one_plus_y(u):
            t = law._inverse_cum(u)
            return np.where(t < resolved, np.abs(1.0 + tilt(np.minimum(t, resolved))), np.nan)

        _certify("integrability of kappa (1 + y) for an atom law", one_plus_y, -math.log(law.atom))


def build_tilted_measure(model: MarketModel, tilt: TiltFunction) -> TiltedMeasure:
    """Construct the tilted crash-time law after admissibility checks.

    A rejection names the first failing condition, checked in order:
    positivity of 1 + y, the one condition decided by sampling (its
    minimum on the 1025-point horizon grid, capped by ``inf_one_plus_y``);
    square integrability of phi' y, by a CONVERGED
    :func:`~bubblemkt._quad.integrate_toward` certificate of
    int (phi' y)^2; and, only for a law with an atom, integrability of
    kappa (1 + y), by a CONVERGED certificate of int |1 + y| du over
    [0, -log atom) in cumulative-hazard time u = H(t), reached before
    t(u) stops resolving below T.  Both certificates are scale-free.  A
    DIVERGENT one reads "tilt violates <condition>", any other
    "<condition> is not certified": a finite integral may converge too
    slowly for the shells to read.  The law is tabulated on one table, the
    ``HORIZON_NODES``-node horizon grid.  :func:`classify_under_Q` runs
    the same checks without tabulating.
    """
    _admit_tilt(model, tilt)
    return TiltedMeasure(model, tilt)


def verify_tilt_bounds(model: MarketModel, tilt: TiltFunction) -> Optional[tuple[float, float]]:
    """Certify eps <= 1 + y <= C + (C/phi') 1{kappa < C phi'} on [0, T).

    Searches C over powers of two up to ``TILT_BOUND_C_MAX`` and checks the
    bound on a 1025-point horizon-clustered grid (its every fourth and every
    second point are exactly the 257- and 513-point grids); the certificate
    transfers the strict-local dichotomy from the physical measure to the
    tilted one.  Returns (eps, C) or None: failure is a value, not an
    exception.
    """
    grid, one_plus, eps = _positivity(model, tilt)
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

    The tilt must pass the admissibility checks of
    :func:`build_tilted_measure`, else :class:`RejectedTiltError`; the
    tilted law itself is never tabulated.  An atom forces a true
    martingale for every admissible tilt.  Without an atom the verdict
    needs the two-sided tilt bounds of :func:`verify_tilt_bounds`, after
    which it is tilt-free and comes from the ladder of
    :func:`~bubblemkt.hazard.classify_under_P`: strict local iff
    int (kappa - phi') < infinity.  A model that fails
    :func:`~bubblemkt.hazard.validate` raises
    :class:`~bubblemkt.hazard.ModelError`.
    """
    require_valid(model)
    _admit_tilt(model, tilt)
    if model.hazard.atom == 0.0 and verify_tilt_bounds(model, tilt) is None:
        return _classification(
            model, Verdict.INDETERMINATE, "two-sided tilt bounds could not be certified"
        )
    return _classification(model)
