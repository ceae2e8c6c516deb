"""Crash-time laws, pre-crash excess returns, and martingale diagnostics.

The market holds one risky asset whose return is Black--Scholes plus a
single-jump component: before an independent crash time the asset earns a
deterministic excess drift, and at the crash it drops by a deterministic
relative amount tied to the crash hazard.  This module represents

* the law of the crash time through its hazard rate ``kappa(t)`` on
  ``[0, T)``, with an optional survival atom at the horizon (positive
  probability that no crash happens on ``[0, T]``),
* the excess-return profile ``phi`` with ``0 <= phi' <= kappa``, which
  fixes the relative crash size ``delta = phi' / kappa`` in ``[0, 1]``,
* the compensator transform ``F -> F - F'/kappa`` of the induced
  single-jump process, its martingale classification, and the
  strict-local-martingale test for the asset under the physical measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from ._quad import (
    CONVERGED,
    DIVERGENT,
    Curve,
    PanelRule,
    clustered_grid,
    horizon_grid,
    integrate_toward,
    monotone_inverse,
)


class ModelError(ValueError):
    """Model parameters violate a structural requirement."""


class DomainError(ValueError):
    """An argument lies outside the domain of the operation."""


def _finite(**params: float) -> None:
    """Raise :class:`ModelError` naming the first non-finite parameter."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value!r}")


def _scalar_or_array(fn: Callable, x):
    """``fn`` applied to ``x`` converted once to a float array; a float
    comes back for scalar ``x``, a float array otherwise."""
    arr = np.asarray(x, dtype=float)
    out = np.asarray(fn(arr), dtype=float)
    return float(out) if arr.ndim == 0 else out


def _elementwise(method: Callable) -> Callable:
    """Decorator giving ``method(owner, t, ...)`` the scalar-or-array
    convention of :func:`_scalar_or_array` in its argument ``t``."""

    @functools.wraps(method)
    def wrapped(owner, t, *args, **kwargs):
        return _scalar_or_array(lambda arr: method(owner, arr, *args, **kwargs), t)

    return wrapped


# ---------------------------------------------------------------------------
# Crash-time laws
# ---------------------------------------------------------------------------


class CrashHazard:
    """Law of the crash time on (0, T] described by its hazard rate.

    A family supplies array-level hooks: ``_kappa`` (the hazard),
    ``_dkappa`` (its derivative), ``_cum`` (the cumulative hazard
    ``H(t) = int_0^t kappa``) and the survival ``atom`` at T.  This class
    owns the public surface on top of them: every method takes a scalar or
    an array and returns a float for scalar input; ``hazard``,
    ``hazard_derivative`` and ``density`` need t in ``[0, T)`` and
    ``inverse_cdf`` a variate in ``(0, 1)``.  CDF, density and survival
    follow from ``1 - G(t) = exp(-H(t))`` on ``[0, T)``.  Sampling inverts
    H with a safeguarded Newton iteration (dH/dt is the hazard); a family
    with a closed-form inverse overrides ``_inverse_cdf``.
    """

    horizon: float
    atom: float
    family: str = "generic"
    # (table end, H there) for a law tabulated short of the horizon: the
    # mass between the table end and T collapses to the table end
    _table_edge: Optional[tuple[float, float]] = None

    @property
    def kappa_integrable(self) -> bool:
        """True iff the hazard is integrable on (0, T), i.e. the atom is
        positive and the crash may never happen."""
        return self.atom > 0.0

    def _check_interior(self, t: np.ndarray) -> None:
        if np.any(t < 0.0) or np.any(t >= self.horizon):
            raise DomainError(
                f"time must lie in [0, {self.horizon}) for hazard evaluation"
            )

    @_elementwise
    def hazard(self, t):
        self._check_interior(t)
        return self._kappa(t)

    @_elementwise
    def hazard_derivative(self, t):
        self._check_interior(t)
        return self._dkappa(t)

    @_elementwise
    def cumulative_hazard(self, t):
        return self._cum(t)

    @_elementwise
    def survival(self, t):
        """P(crash time > t); returns 0 at the horizon (the atom is reported
        separately, see :func:`survival_and_atom`)."""
        if np.any(t < 0.0) or np.any(t > self.horizon):
            raise DomainError("time must lie in [0, T]")
        out = np.zeros_like(t)
        inside = t < self.horizon
        if np.any(inside):
            out[inside] = np.exp(-self._cum(t[inside]))
        return out

    @_elementwise
    def cdf(self, t):
        clipped = np.clip(t, 0.0, self.horizon)
        out = np.ones_like(clipped)
        inside = clipped < self.horizon
        if np.any(inside):
            out[inside] = -np.expm1(-self._cum(clipped[inside]))
        return out

    @_elementwise
    def density(self, t):
        self._check_interior(t)
        return self._kappa(t) * np.exp(-self._cum(t))

    @_elementwise
    def inverse_cdf(self, u):
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise DomainError("uniform variate must lie in (0, 1)")
        return self._inverse_cdf(u)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        w = -np.log1p(-u)
        total = -math.log(self.atom) if self.atom > 0.0 else math.inf
        end, cap = self._table_edge or (self.horizon, total)
        # variates in the atom map to the horizon
        out = np.where(w < total, end, self.horizon)
        inner = w < min(cap, total)
        if np.any(inner):
            out[inner] = monotone_inverse(
                lambda x, _: self._cum(x),
                lambda x, _: self._kappa(x),
                0.0,
                end,
                w[inner],
            )
        return out


class UniformHazard(CrashHazard):
    """Crash time uniform on [0, T]: kappa(t) = 1/(T-t), no atom."""

    family = "uniform"
    atom = 0.0

    def __init__(self, horizon: float = 1.0):
        _finite(horizon=horizon)
        if horizon <= 0:
            raise ModelError("horizon must be positive")
        self.horizon = float(horizon)

    def _kappa(self, t):
        return 1.0 / (self.horizon - t)

    def _dkappa(self, t):
        return (self.horizon - t) ** -2.0

    def _cum(self, t):
        return np.log(self.horizon) - np.log(self.horizon - t)

    def _inverse_cdf(self, u):
        return self.horizon * u


class ExponentialCutoffHazard(CrashHazard):
    """Exponential crash time truncated at the horizon.

    G(t) = 1 - exp(-rate * t) for t < T; the leftover mass exp(-rate * T)
    sits in an atom at T, so the bubble survives the whole window with
    positive probability.
    """

    family = "exponential_cutoff"

    def __init__(self, rate: float = 1.0, horizon: float = 1.0):
        _finite(rate=rate, horizon=horizon)
        if horizon <= 0:
            raise ModelError("horizon must be positive")
        if rate <= 0:
            raise ModelError("rate must be positive")
        self.rate = float(rate)
        self.horizon = float(horizon)
        self.atom = math.exp(-self.rate * self.horizon)

    def _kappa(self, t):
        return np.full_like(t, self.rate)

    def _dkappa(self, t):
        return np.zeros_like(t)

    def _cum(self, t):
        return self.rate * t

    def _inverse_cdf(self, u):
        w = -np.log1p(-u)
        return np.where(w >= self.rate * self.horizon, self.horizon, w / self.rate)


class LPPLHazard(CrashHazard):
    """Log-periodic power-law hazard.

    kappa(t) = b |T-t|^(m-1) + c |T-t|^(m-1) cos(omega log(T-t) - phase)

    Positivity on [0, T) needs |c| < b; the constructor accepts any
    parameters and :func:`validate` reports violations, because parameter
    screening is a model-level concern.  The cumulative hazard has the
    closed form Re[e^{-i phase} (T^z - (T-t)^z) / z] with z = m + i omega
    per oscillatory term, so no quadrature is ever needed.  The hazard is
    integrable on (0, T) exactly when m > 0, which is also when the crash
    may fail to happen before T.
    """

    family = "lppl"

    def __init__(
        self,
        b: float,
        c: float,
        power: float,
        omega: float = 0.0,
        phase: float = 0.0,
        horizon: float = 1.0,
    ):
        _finite(b=b, c=c, power=power, omega=omega, phase=phase, horizon=horizon)
        if horizon <= 0:
            raise ModelError("horizon must be positive")
        self.b = float(b)
        self.c = float(c)
        self.power = float(power)
        self.omega = float(omega)
        self.phase = float(phase)
        self.horizon = float(horizon)

    @property
    def positivity_ok(self) -> bool:
        return abs(self.c) < self.b

    def _theta(self, s: np.ndarray) -> np.ndarray:
        return self.omega * np.log(s) - self.phase

    def _kappa(self, t):
        s = self.horizon - t
        return s ** (self.power - 1.0) * (self.b + self.c * np.cos(self._theta(s)))

    def _dkappa(self, t):
        s = self.horizon - t
        th = self._theta(s)
        return s ** (self.power - 2.0) * (
            (1.0 - self.power) * (self.b + self.c * np.cos(th))
            + self.c * self.omega * np.sin(th)
        )

    def _power_primitive(self, s: np.ndarray) -> np.ndarray:
        # int_s^T u^(m-1) du
        T, m = self.horizon, self.power
        if m == 0.0:
            return np.log(T) - np.log(s)
        return (T**m - s**m) / m

    def _cum(self, t):
        s = self.horizon - t
        T, m, w = self.horizon, self.power, self.omega
        base = self.b * self._power_primitive(s)
        if self.c != 0.0:
            if m == 0.0 and w == 0.0:
                osc = math.cos(self.phase) * self._power_primitive(s)
            else:
                z = complex(m, w)
                coef = np.exp(-1j * self.phase)
                with np.errstate(divide="ignore", invalid="ignore"):
                    sz = np.where(s > 0, s, 1.0).astype(complex) ** z
                sz = np.where(s > 0, sz, 0.0 if m > 0 else np.nan)
                osc = np.real(coef * (complex(T) ** z - sz) / z)
            base = base + self.c * osc
        return base

    @property
    def atom(self) -> float:
        if self.power <= 0.0:
            return 0.0
        total = self.b * self.horizon**self.power / self.power
        if self.c != 0.0:
            z = complex(self.power, self.omega)
            total += self.c * (
                np.exp(-1j * self.phase) * complex(self.horizon) ** z / z
            ).real
        if not total >= 0.0:  # the survival would exceed 1
            raise ModelError(f"LPPL hazard integrates to {total!r} on [0, T]; need |c| < b")
        return math.exp(-total)


class TabulatedHazard(CrashHazard):
    """Crash-time law given by CDF values on a knot grid.

    The monotone cubic :class:`~bubblemkt._quad.Curve` is built on the
    cumulative hazard -log(1 - G), so the hazard and its derivative are the
    curve's first and second derivatives and the survival identity holds
    exactly for the interpolated law.  The horizon is the last knot and the
    atom is 1 - G(last knot), which must be positive (a tabulated CDF
    cannot resolve a hazard blow-up).
    """

    family = "tabulated"

    def __init__(self, times, cdf_values):
        t = np.asarray(times, dtype=float)
        g = np.asarray(cdf_values, dtype=float)
        if t.ndim != 1 or t.shape != g.shape or len(t) < 3:
            raise ModelError("need matching 1-d knot and value arrays, >= 3 knots")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise ModelError("knots and CDF values must be finite")
        if t[0] != 0.0 or g[0] != 0.0:
            raise ModelError("knots must start at t=0 with G(0)=0")
        if not np.all(np.diff(t) > 0):
            raise ModelError("knot grid must be strictly increasing")
        if not np.all(np.diff(g) > 0):
            raise ModelError("CDF values must be strictly increasing")
        if g[-1] >= 1.0:
            raise ModelError("last CDF value must be < 1; the remainder is the atom")
        self.horizon = float(t[-1])
        self._cum = Curve(t, -np.log1p(-g))
        self._kappa = functools.partial(self._cum, nu=1)
        self._dkappa = functools.partial(self._cum, nu=2)
        self.atom = float(1.0 - g[-1])


# ---------------------------------------------------------------------------
# Excess-return profiles
# ---------------------------------------------------------------------------


class ExcessReturn:
    """Deterministic pre-crash excess return ``phi`` with two derivatives.

    A profile supplies array-level hooks ``_phi``, ``_dphi`` and
    ``_d2phi``, and, when it fixes the relative jump size itself,
    ``_delta`` and ``_ddelta``; this class gives them the scalar-or-array
    convention of the crash laws.  ``bounded_dphi`` advertises that
    ``phi'`` is bounded on [0, T), which lets the classifier decide
    integrability of ``kappa - phi'`` without quadrature.  Profiles tied to
    a hazard (constant or supplied relative jump size) carry the hazard.
    """

    family = "generic"
    bounded_dphi = True
    hazard: Optional[CrashHazard] = None
    _delta: Optional[Callable] = None
    _ddelta: Optional[Callable] = None

    @_elementwise
    def phi(self, t):
        return self._phi(t)

    @_elementwise
    def dphi(self, t):
        return self._dphi(t)

    @_elementwise
    def d2phi(self, t):
        return self._d2phi(t)

    def delta(self, t):
        """Relative jump size where the profile fixes it; None leaves the
        market model to derive it from phi' / kappa."""
        return None if self._delta is None else _scalar_or_array(self._delta, t)

    def ddelta(self, t):
        return None if self._ddelta is None else _scalar_or_array(self._ddelta, t)


class ZeroExcess(ExcessReturn):
    """No excess return and no crash exposure: the plain Black--Scholes
    market."""

    family = "zero"

    def _phi(self, t):
        return np.zeros_like(t)

    _dphi = _d2phi = _phi


class ConstantExcess(ExcessReturn):
    """phi'(t) = alpha, a constant pre-crash excess drift."""

    family = "constant"

    def __init__(self, alpha: float):
        _finite(alpha=alpha)
        self.alpha = float(alpha)

    def _phi(self, t):
        return self.alpha * t

    def _dphi(self, t):
        return np.full_like(t, self.alpha)

    def _d2phi(self, t):
        return np.zeros_like(t)


class LinearRampExcess(ExcessReturn):
    """phi'(t) = slope * t: excess return ramps up as the horizon nears."""

    family = "linear_ramp"

    def __init__(self, slope: float):
        _finite(slope=slope)
        self.slope = float(slope)

    def _phi(self, t):
        return 0.5 * self.slope * t * t

    def _dphi(self, t):
        return self.slope * t

    def _d2phi(self, t):
        return np.full_like(t, self.slope)


class ConstantJumpSizeExcess(ExcessReturn):
    """phi' = delta0 * kappa: the crash always removes the fraction delta0.

    This couples the excess return to the hazard, so phi equals delta0
    times the cumulative hazard.
    """

    family = "constant_jump_size"

    def __init__(self, hazard: CrashHazard, delta0: float):
        if not 0.0 <= delta0 <= 1.0:
            raise ModelError("relative jump size must lie in [0, 1]")
        self.hazard = hazard
        self.delta0 = float(delta0)

    @property
    def bounded_dphi(self) -> bool:  # bounded iff the hazard is
        return self.hazard.kappa_integrable

    def _phi(self, t):
        return self.delta0 * np.asarray(self.hazard.cumulative_hazard(t))

    def _dphi(self, t):
        return self.delta0 * np.asarray(self.hazard.hazard(t))

    def _d2phi(self, t):
        return self.delta0 * np.asarray(self.hazard.hazard_derivative(t))

    def _delta(self, t):
        return np.full_like(t, self.delta0)

    def _ddelta(self, t):
        return np.zeros_like(t)


class RelaxedJLSExcess(ExcessReturn):
    """phi' = delta(t) * kappa(t) for a supplied relative jump size.

    ``delta_fn`` and its derivative must be vectorized callables mapping
    [0, T) to [0, 1].  ``phi_fn`` may supply a closed-form primitive of
    phi'; without one, phi is tabulated once by cumulative quadrature on a
    clustered grid and interpolated (values near the horizon then carry the
    interpolation error, which only matters for price simulation of crashes
    very close to T).
    """

    family = "jls_relaxed"
    bounded_dphi = False

    def __init__(
        self,
        hazard: CrashHazard,
        delta_fn: Callable,
        ddelta_fn: Callable,
        phi_fn: Optional[Callable] = None,
        label: str = "custom",
    ):
        self.hazard = hazard
        self._delta = delta_fn
        self._ddelta = ddelta_fn
        self._phi_fn = phi_fn
        self.label = label
        self._phi_interp = None

    def _phi(self, t):
        if self._phi_fn is not None:
            return self._phi_fn(t)
        if self._phi_interp is None:
            T = self.hazard.horizon
            grid = horizon_grid(T, 4097)
            integrand = np.asarray(self._delta(grid)) * np.asarray(
                self.hazard.hazard(grid)
            )
            self._phi_interp = Curve(grid, PanelRule(grid).cumulative_from_left(integrand))
        return self._phi_interp(t)

    def _dphi(self, t):
        return np.asarray(self._delta(t)) * np.asarray(self.hazard.hazard(t))

    def _d2phi(self, t):
        return np.asarray(self._ddelta(t)) * np.asarray(self.hazard.hazard(t)) + np.asarray(
            self._delta(t)
        ) * np.asarray(self.hazard.hazard_derivative(t))


def linear_delta_excess(hazard: CrashHazard, slope: float) -> RelaxedJLSExcess:
    """Relative jump size growing linearly in time: delta(t) = slope * t.

    On the uniform law this is the canonical bubble whose crash severity
    ramps from 0 to slope * T; phi then has the closed form
    slope * (T log(T/(T-t)) - t).
    """
    _finite(slope=slope)
    T = hazard.horizon
    if slope * T > 1.0 + 1e-12:
        raise ModelError("slope * horizon must be <= 1 so delta stays in [0, 1]")
    phi_fn = None
    if isinstance(hazard, UniformHazard):

        def phi_fn(t, _T=T, _s=slope):
            t = np.asarray(t, dtype=float)
            return _s * (_T * (np.log(_T) - np.log(_T - t)) - t)

    return RelaxedJLSExcess(
        hazard,
        delta_fn=lambda t, _s=slope: _s * np.asarray(t, dtype=float),
        ddelta_fn=lambda t, _s=slope: np.full(np.shape(np.asarray(t)), _s),
        phi_fn=phi_fn,
        label=f"linear_delta(slope={slope:g})",
    )


class CustomExcess(ExcessReturn):
    """Closed-form profile supplied by the caller."""

    family = "custom"

    def __init__(self, phi_fn, dphi_fn, d2phi_fn, bounded_dphi: bool = True):
        self._phi = phi_fn
        self._dphi = dphi_fn
        self._d2phi = d2phi_fn
        self.bounded_dphi = bounded_dphi


# ---------------------------------------------------------------------------
# Market model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketModel:
    """Risky asset: dS/S = mu dt + sigma dW + single-jump component.

    The jump component follows the excess return before the crash and
    removes the fraction delta(t) = phi'(t)/kappa(t) at a crash happening
    at time t.  Units: mu is 1/time, sigma is 1/sqrt(time).
    """

    mu: float
    sigma: float
    hazard: CrashHazard
    excess: ExcessReturn

    def __post_init__(self):
        _finite(mu=self.mu, sigma=self.sigma)
        if self.sigma <= 0:
            raise ModelError("sigma must be positive")
        linked = self.excess.hazard
        if linked is not None and linked is not self.hazard:
            raise ModelError("excess profile is bound to a different hazard")

    @property
    def horizon(self) -> float:
        return self.hazard.horizon

    @_elementwise
    def delta(self, t):
        """Relative crash size phi'/kappa with the 0/0 := 0 convention."""
        direct = self.excess.delta(t)
        if direct is not None:
            return direct
        dphi = np.asarray(self.excess.dphi(t))
        kap = np.asarray(self.hazard.hazard(t))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dphi == 0.0, 0.0, dphi / kap)

    @_elementwise
    def ddelta(self, t):
        direct = self.excess.ddelta(t)
        if direct is not None:
            return direct
        dphi = np.asarray(self.excess.dphi(t))
        d2phi = np.asarray(self.excess.d2phi(t))
        kap = np.asarray(self.hazard.hazard(t))
        dkap = np.asarray(self.hazard.hazard_derivative(t))
        return (d2phi * kap - dphi * dkap) / kap**2

    def phi_left_limit(self) -> float:
        """phi(T-), finite whenever the hazard is integrable."""
        return float(self.excess.phi(np.nextafter(self.horizon, 0.0)))


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def hazard_rate(hazard: CrashHazard, t):
    """kappa(t) = G'(t) / (1 - G(t)) on [0, T)."""
    return hazard.hazard(t)


def survival_and_atom(hazard: CrashHazard, t) -> tuple[float, float]:
    """(P(crash > t), survival atom at the horizon)."""
    return hazard.survival(t), hazard.atom


def jump_size(model: MarketModel, t):
    """delta(t) in [0, 1]; raises if the profile breaks the hazard bound."""
    val = model.delta(t)
    arr = np.asarray(val)
    if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
        raise ModelError("relative jump size left [0, 1]; model violates phi' <= kappa")
    return val


@dataclass(frozen=True)
class Violation:
    rule: str
    t: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]

    def first(self, rule: str) -> Optional[Violation]:
        for v in self.violations:
            if v.rule == rule:
                return v
        return None


_VALIDATION_POINTS = 1024  # interior grid points validate samples


def validate(model: MarketModel) -> ValidationReport:
    """Check the structural requirements on a horizon-clustered grid.

    Reports rather than raises: phi(0) = 0, kappa > 0, 0 <= phi' <= kappa,
    and LPPL positivity |c| < b.  Violations concentrate near the horizon,
    hence the clustered sampling.
    """
    T = model.horizon
    grid = clustered_grid(T, _VALIDATION_POINTS + 1)[:-1]  # drop the endpoint T
    violations: list[Violation] = []

    phi0 = float(model.excess.phi(0.0))
    if abs(phi0) > 1e-12:
        violations.append(Violation("phi_start", 0.0, f"phi(0) = {phi0!r}, expected 0"))

    if isinstance(model.hazard, LPPLHazard) and not model.hazard.positivity_ok:
        violations.append(
            Violation(
                "lppl_positivity",
                0.0,
                f"|c| = {abs(model.hazard.c)!r} must be < b = {model.hazard.b!r}",
            )
        )

    kap = np.asarray(model.hazard.hazard(grid))
    bad = kap <= 0.0
    if np.any(bad):
        i = int(np.argmax(bad))
        violations.append(
            Violation("hazard_positive", float(grid[i]), f"kappa = {float(kap[i])!r} <= 0")
        )

    dphi = np.asarray(model.excess.dphi(grid))
    neg = dphi < -1e-12
    if np.any(neg):
        i = int(np.argmax(neg))
        violations.append(
            Violation("excess_nonnegative", float(grid[i]), f"phi' = {float(dphi[i])!r} < 0")
        )
    over = dphi > kap * (1.0 + 1e-10) + 1e-12
    if np.any(over):
        i = int(np.argmax(over))
        violations.append(
            Violation(
                "excess_below_hazard",
                float(grid[i]),
                f"phi' = {float(dphi[i])!r} exceeds kappa = {float(kap[i])!r}",
            )
        )

    return ValidationReport(passed=not violations, violations=tuple(violations))


def require_valid(model: MarketModel) -> None:
    """Raise :class:`ModelError` naming the first violation that
    :func:`validate` reports."""
    report = validate(model)
    if not report.passed:
        raise ModelError(f"model failed validation: {report.violations[0]}")


@dataclass(frozen=True)
class LPPLShape:
    """Shape of the log conditional expected bubble level."""

    a: float
    b: float
    c: float
    power: float
    omega: float
    phase: float
    horizon: float


@_elementwise
def lppl_log_price(shape: LPPLShape, t):
    """A + B|T-t|^m + C|T-t|^m cos(omega log(T-t) - phase), for m in (0,1).

    Outside m in (0, 1) the level representation breaks down; represent the
    model through its hazard instead.
    """
    if not 0.0 < shape.power < 1.0:
        raise DomainError(
            "power must lie in (0, 1); use the hazard-level representation otherwise"
        )
    if np.any(t >= shape.horizon):
        raise DomainError("time must be below the critical time")
    s = shape.horizon - t
    return shape.a + shape.b * s**shape.power + shape.c * s**shape.power * np.cos(
        shape.omega * np.log(s) - shape.phase
    )


# ---------------------------------------------------------------------------
# Single-jump calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class C1Function:
    """A C^1 function on [0, T) with optional left limit at the horizon.

    ``horizon_limit`` is only consulted when the law has an atom;
    ``horizon_limit_exists=False`` declares that the limit does not exist.
    """

    value: Callable
    derivative: Callable
    horizon_limit: Optional[float] = None
    horizon_limit_exists: bool = True


def ag_transform(hazard: CrashHazard, fn: C1Function, v: float) -> float:
    """Post-jump level of the single-jump process built from ``fn``.

    For v < T this is F(v) - F'(v)/kappa(v); at the horizon it is the left
    limit if the law has an atom there (and the limit exists), else 0.
    """
    T = hazard.horizon
    if v < 0.0 or v > T:
        raise DomainError("v must lie in [0, T]")
    if v < T:
        kap = float(hazard.hazard(v))
        return float(fn.value(v)) - float(fn.derivative(v)) / kap
    if not fn.horizon_limit_exists:
        return 0.0
    if hazard.atom == 0.0:
        return 0.0
    if fn.horizon_limit is None:
        raise DomainError(
            "law has an atom at the horizon: supply the left limit of F or flag it"
        )
    return float(fn.horizon_limit)


class SingleJumpClass(Enum):
    INTEGRABLE_LOCAL_MARTINGALE = "IntegrableLocalMartingale"
    TRUE_MARTINGALE = "TrueMartingale"
    SQUARE_INTEGRABLE_MARTINGALE = "SquareIntegrableMartingale"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class SingleJumpReport:
    verdict: SingleJumpClass
    integrable: Optional[bool]
    true_martingale: Optional[bool]
    square_integrable: Optional[bool]
    detail: str = ""


def single_jump_class(hazard: CrashHazard, fn: C1Function) -> SingleJumpReport:
    """Classify the single-jump process that follows ``fn`` until the crash.

    Quadrature certificates: dG-integrability of the post-jump level gives
    an integrable local martingale; with no atom, F(t)(1-G(t)) -> 0 upgrades
    it to a martingale (an atom upgrades unconditionally); square
    integrability of the jump compensation gives a square-integrable
    martingale.  The strongest certificate wins, except that a flat F (no
    jump at all) reports a plain true martingale.
    """
    T = hazard.horizon

    def post_jump_density(t):
        t = np.asarray(t, dtype=float)
        kap = np.asarray(hazard.hazard(t))
        av = np.asarray(fn.value(t)) - np.asarray(fn.derivative(t)) / kap
        dens = np.asarray(hazard.density(t))
        return np.abs(av) * dens

    def jump_second_moment(t):
        t = np.asarray(t, dtype=float)
        kap = np.asarray(hazard.hazard(t))
        return (np.asarray(fn.derivative(t)) / kap) ** 2 * np.asarray(hazard.density(t))

    i1 = integrate_toward(post_jump_density, 0.0, T)
    if i1.status == DIVERGENT:
        return SingleJumpReport(
            SingleJumpClass.INDETERMINATE,
            integrable=False,
            true_martingale=None,
            square_integrable=None,
            detail="post-jump level is not dG-integrable",
        )
    if i1.status != CONVERGED:
        return SingleJumpReport(
            SingleJumpClass.INDETERMINATE,
            integrable=None,
            true_martingale=None,
            square_integrable=None,
            detail="integrability test did not resolve near the horizon",
        )

    # degenerate case: F never moves, so the process is constant
    probe = horizon_grid(T, 257)
    dvals = np.asarray(fn.derivative(probe))
    if np.all(dvals == 0.0):
        return SingleJumpReport(
            SingleJumpClass.TRUE_MARTINGALE,
            integrable=True,
            true_martingale=True,
            square_integrable=True,
            detail="flat F: constant process",
        )

    i2 = integrate_toward(jump_second_moment, 0.0, T)
    if i2.status == CONVERGED:
        return SingleJumpReport(
            SingleJumpClass.SQUARE_INTEGRABLE_MARTINGALE,
            integrable=True,
            true_martingale=True,
            square_integrable=True,
        )

    if hazard.atom > 0.0:
        return SingleJumpReport(
            SingleJumpClass.TRUE_MARTINGALE,
            integrable=True,
            true_martingale=True,
            square_integrable=False if i2.status == DIVERGENT else None,
        )

    limit, resolved = _horizon_limit_scaled(hazard, fn)
    if not resolved:
        return SingleJumpReport(
            SingleJumpClass.INDETERMINATE,
            integrable=True,
            true_martingale=None,
            square_integrable=False if i2.status == DIVERGENT else None,
            detail="limit of F(t)(1 - G(t)) did not stabilize",
        )
    if limit == 0.0:
        return SingleJumpReport(
            SingleJumpClass.TRUE_MARTINGALE,
            integrable=True,
            true_martingale=True,
            square_integrable=False if i2.status == DIVERGENT else None,
        )
    return SingleJumpReport(
        SingleJumpClass.INTEGRABLE_LOCAL_MARTINGALE,
        integrable=True,
        true_martingale=False,
        square_integrable=False if i2.status == DIVERGENT else None,
        detail=f"F(t)(1 - G(t)) -> {limit:.6g} != 0",
    )


def _horizon_limit_scaled(hazard: CrashHazard, fn: C1Function) -> tuple[float, bool]:
    """Estimate lim F(t)(1 - G(t)) as t -> T on dyadically refining points."""
    T = hazard.horizon
    ks = np.arange(8, 49)
    t = T * (1.0 - 0.5**ks)
    vals = np.asarray(fn.value(t)) * np.exp(-np.asarray(hazard.cumulative_hazard(t)))
    scale = max(1.0, float(np.max(np.abs(vals[:8]))))
    tail = vals[-8:]
    if np.all(np.abs(tail) <= 1e-10 * scale):
        return 0.0, True
    spread = float(np.max(tail) - np.min(tail))
    if spread <= 1e-6 * max(1.0, float(np.abs(tail[-1]))):
        return float(tail[-1]), True
    return float(tail[-1]), False


# ---------------------------------------------------------------------------
# Classification under the physical measure
# ---------------------------------------------------------------------------


class Verdict(Enum):
    TRUE_MARTINGALE = "TrueMartingale"
    STRICT_LOCAL_MARTINGALE = "StrictLocalMartingale"
    NOT_LOCAL_MARTINGALE_UNDER_P = "NotLocalMartingaleUnderP"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    atom: float
    defect: float  # integral of (kappa - phi'); inf when nonintegrable
    limsup_delta: float
    detail: str = ""


def excess_defect_integral(model: MarketModel) -> tuple[float, str]:
    """D = int_0^T (kappa - phi'), decided analytically where possible.

    Returns (value, status); value is inf for certified divergence.  The
    martingale dichotomy rides on whether this integral is finite.
    """
    hz, ex = model.hazard, model.excess
    T = model.horizon
    if hz.kappa_integrable:
        total = -math.log(hz.atom)
        return total - float(ex.phi(T * (1.0 - 1e-12))), CONVERGED
    # hazard nonintegrable from here on
    if ex.bounded_dphi:
        return math.inf, CONVERGED
    if isinstance(ex, ConstantJumpSizeExcess):
        if ex.delta0 < 1.0:
            return math.inf, CONVERGED
        return 0.0, CONVERGED
    if isinstance(ex, RelaxedJLSExcess) and isinstance(hz, UniformHazard):
        # delta linear in t: (1 - delta) kappa integrates to a closed form
        probe = np.array([0.25 * T, 0.5 * T, 0.75 * T])
        d = np.asarray(ex.delta(probe))
        slope = d / probe
        if np.allclose(slope, slope[0], rtol=1e-12, atol=1e-15):
            s = float(slope[0])
            if s * T < 1.0 - 1e-12:
                return math.inf, CONVERGED
            return T * s, CONVERGED

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(hz.hazard(t)) - np.asarray(ex.dphi(t))

    res = integrate_toward(integrand, 0.0, T)
    if res.status == DIVERGENT:
        return math.inf, CONVERGED
    if res.status == CONVERGED:
        return res.value, CONVERGED
    return math.nan, res.status


def limsup_jump_size(model: MarketModel) -> float:
    """Largest sampled delta(t) on dyadic windows shrinking to the horizon."""
    T = model.horizon
    best = 0.0
    for k in range(20, 44):
        lo = T * (1.0 - 0.5**k)
        hi = T * (1.0 - 0.5 ** (k + 1))
        t = np.linspace(lo, hi, 17)
        best = max(best, float(np.max(np.asarray(model.delta(t)))))
    return best


def classify_under_P(model: MarketModel) -> Classification:
    """Martingale status of the asset under the physical measure.

    With drift the asset cannot be a local martingale.  Driftless, it is a
    strict local martingale exactly when the crash is certain (no atom) and
    the defect integral int (kappa - phi') is finite; otherwise it is a
    true martingale.  A model that fails :func:`validate` raises
    :class:`ModelError`.
    """
    require_valid(model)
    atom = model.hazard.atom
    defect, status = excess_defect_integral(model)
    lim = limsup_jump_size(model)
    if model.mu != 0.0:
        return Classification(
            Verdict.NOT_LOCAL_MARTINGALE_UNDER_P, atom, defect, lim, "nonzero drift"
        )
    if status != CONVERGED:
        return Classification(
            Verdict.INDETERMINATE,
            atom,
            defect,
            lim,
            "quadrature could not certify the defect integral",
        )
    if atom > 0.0 or math.isinf(defect):
        return Classification(Verdict.TRUE_MARTINGALE, atom, defect, lim)
    return Classification(Verdict.STRICT_LOCAL_MARTINGALE, atom, defect, lim)
