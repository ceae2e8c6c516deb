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
    HORIZON_NODES,
    Curve,
    clustered_grid,
    horizon_grid,
    integrate_toward,
    monotone_inverse,
    panel_rule,
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

    A family supplies array-level hooks: ``_kappa`` (the hazard), ``_cum``
    (the cumulative hazard ``H(t) = int_0^t kappa``) and the survival
    ``atom`` at T.  This class owns the public surface on top of them:
    every method takes a scalar or an array and returns a float for scalar
    input; ``hazard`` and ``density`` need t in ``[0, T)`` and
    ``inverse_cdf`` a variate in ``(0, 1)``.  CDF, density and survival
    follow from ``1 - G(t) = exp(-H(t))`` on ``[0, T)``.  Sampling inverts
    H by safeguarded Newton (dH/dt is the hazard) from its knot table (a
    tabulated H is one, any other H is tabulated on first use), inside the
    knot panel of each variate; the hook ``_panel_fdf(panels)`` gives it
    (H, H') there.  A family with a closed-form inverse overrides
    ``_inverse_cdf`` or ``_inverse_cum``.
    """

    horizon: float
    atom: float
    # (table end, H there) for a law tabulated short of the horizon: the
    # mass between the table end and T collapses to the table end
    _table_edge: Optional[tuple[float, float]] = None

    def _check_interior(self, t: np.ndarray) -> None:
        if not np.all((t >= 0.0) & (t < self.horizon)):
            raise DomainError(
                f"time must lie in [0, {self.horizon}) for hazard evaluation"
            )

    @_elementwise
    def hazard(self, t):
        self._check_interior(t)
        return self._kappa(t)

    @_elementwise
    def cumulative_hazard(self, t):
        return self._cum(t)

    @_elementwise
    def survival(self, t):
        """P(crash time > t); returns 0 at the horizon (the atom is reported
        separately, as :attr:`atom`)."""
        if not np.all((t >= 0.0) & (t <= self.horizon)):
            raise DomainError("time must lie in [0, T]")
        out = np.zeros_like(t)
        inside = t < self.horizon
        if np.any(inside):
            out[inside] = np.exp(-self._cum(t[inside]))
        return out

    @_elementwise
    def cdf(self, t):
        if np.any(np.isnan(t)):
            raise DomainError("time must not be NaN")
        out = np.ones_like(t)
        inside = t < self.horizon
        if np.any(inside):
            out[inside] = -np.expm1(-self._cum(np.maximum(t[inside], 0.0)))
        return out

    @_elementwise
    def density(self, t):
        self._check_interior(t)
        return self._kappa(t) * np.exp(-self._cum(t))

    @_elementwise
    def inverse_cdf(self, u):
        if not np.all((u > 0.0) & (u < 1.0)):
            raise DomainError("uniform variate must lie in (0, 1)")
        return self._inverse_cdf(u)

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        return self._inverse_cum(-np.log1p(-u))

    def _inverse_cum(self, w: np.ndarray) -> np.ndarray:
        """H^-1(w); levels at or past the atom's map to the horizon."""
        total = -math.log(self.atom) if self.atom > 0.0 else math.inf
        end, cap = self._table_edge or (self.horizon, total)
        out = np.where(w < total, end, np.where(np.isnan(w), np.nan, self.horizon))
        inner = w < min(cap, total)
        if np.any(inner):
            w, (knots, levels), roots = w[inner], self._knots, []
            for c in np.split(w, np.arange(4096, w.size, 4096)):  # chunks bound the temporaries
                j = np.clip(np.searchsorted(levels, c) - 1, 0, len(levels) - 2)  # knot panel
                lo, hi = knots[j], knots[j + 1]
                x0 = lo + (hi - lo) * (c - levels[j]) / (levels[j + 1] - levels[j])
                roots.append(monotone_inverse(self._panel_fdf(j), lo, hi, c, x0))
            out[inner] = np.concatenate(roots)
        return out

    @functools.cached_property  # tabulated once; the last panel, up to T, stays open
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:  # (knot times, H there)
        grid = horizon_grid(self.horizon, HORIZON_NODES)
        return np.append(grid, self.horizon), np.append(self._cum(grid), math.inf)

    def _panel_fdf(self, panels: np.ndarray) -> Callable:  # never reads the panels
        return lambda x, _: (self._cum(x), self._kappa(x))


class CurveHazard(CrashHazard):
    """A law whose H, ``_cum``, is a :class:`~bubblemkt._quad.Curve`: its knot
    table is the curve's, and Newton reads (H, H') from each panel's cubic."""

    _knots = property(lambda self: (self._cum.grid, self._cum.values))

    def _panel_fdf(self, panels: np.ndarray) -> Callable:
        return lambda x, idx: self._cum.on_panel(panels[idx], x, None)


class UniformHazard(CrashHazard):
    """Crash time uniform on [0, T]: kappa(t) = 1/(T-t), no atom."""

    atom = 0.0

    def __init__(self, horizon: float = 1.0):
        _finite(horizon=horizon)
        if horizon <= 0:
            raise ModelError("horizon must be positive")
        self.horizon = float(horizon)

    def _kappa(self, t):
        return 1.0 / (self.horizon - t)

    def _cum(self, t):
        return -np.log1p(-t / self.horizon)  # log T - log(T - t), uncancelled

    def _inverse_cdf(self, u):
        return self.horizon * u


class ExponentialCutoffHazard(CrashHazard):
    """Exponential crash time truncated at the horizon.

    G(t) = 1 - exp(-rate * t) for t < T; the leftover mass exp(-rate * T)
    sits in an atom at T, so the bubble survives the whole window with
    positive probability.
    """

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

    def _cum(self, t):
        return self.rate * t

    def _inverse_cum(self, w):
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

    def _cum(self, t):
        # int_0^t (T-u)^(z-1) du = T^z (1 - (1 - t/T)^z) / z per term, formed
        # from t through expm1 and log1p: T^z - (T-t)^z cancels for small t
        T, m, w = self.horizon, self.power, self.omega
        with np.errstate(divide="ignore"):
            lg = np.log1p(-t / T)  # -inf at the horizon
        base = self.b * (-lg if m == 0.0 else -(T**m) * np.expm1(m * lg) / m)
        if self.c != 0.0:
            if m == 0.0 and w == 0.0:
                osc = -math.cos(self.phase) * lg
            else:
                z = complex(m, w)
                end = lg == -np.inf  # there (1 - t/T)^z is 0 for m > 0, else undefined
                rel = np.expm1(z * np.where(end, 0.0, lg))
                rel = np.where(end, -1.0 if m > 0 else np.nan, rel)
                osc = np.real(np.exp(-1j * self.phase) * -(complex(T) ** z) * rel / z)
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


class TabulatedHazard(CurveHazard):
    """Crash-time law given by CDF values on a knot grid.

    The monotone cubic :class:`~bubblemkt._quad.Curve` is built on the
    cumulative hazard -log(1 - G), so the hazard is the curve's derivative
    and the survival identity holds exactly for the interpolated law.  The
    horizon is the last knot and the atom is 1 - G(last knot), which must
    be positive (a tabulated CDF cannot resolve a hazard blow-up).
    """

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
        self.atom = float(1.0 - g[-1])


# ---------------------------------------------------------------------------
# Excess-return profiles
# ---------------------------------------------------------------------------


class ExcessReturn:
    """Deterministic pre-crash excess return ``phi`` and its derivative.

    A profile supplies array-level hooks ``_phi`` and ``_dphi``, and, when
    it fixes the relative jump size itself, ``_delta``; this class gives
    them the scalar-or-array convention of the crash laws.  A profile
    declares nothing about the size of ``phi'``: every integral that reads
    it, the defect ``int (kappa - phi')`` and the tilt gate's
    ``int (phi' y)^2``, is certified by quadrature.  Profiles tied to a
    hazard (constant or supplied relative jump size) carry the hazard.
    """

    hazard: Optional[CrashHazard] = None
    _delta: Optional[Callable] = None

    @_elementwise
    def phi(self, t):
        return self._phi(t)

    @_elementwise
    def dphi(self, t):
        return self._dphi(t)

    def delta(self, t):
        """Relative jump size where the profile fixes it; None leaves the
        market model to derive it from phi' / kappa."""
        return None if self._delta is None else _scalar_or_array(self._delta, t)


class ZeroExcess(ExcessReturn):
    """No excess return and no crash exposure: the plain Black--Scholes
    market."""

    def _phi(self, t):
        return np.zeros_like(t)

    _dphi = _phi


class ConstantExcess(ExcessReturn):
    """phi'(t) = alpha, a constant pre-crash excess drift."""

    def __init__(self, alpha: float):
        _finite(alpha=alpha)
        self.alpha = float(alpha)

    def _phi(self, t):
        return self.alpha * t

    def _dphi(self, t):
        return np.full_like(t, self.alpha)


class LinearRampExcess(ExcessReturn):
    """phi'(t) = slope * t: excess return ramps up as the horizon nears."""

    def __init__(self, slope: float):
        _finite(slope=slope)
        self.slope = float(slope)

    def _phi(self, t):
        return 0.5 * self.slope * t * t

    def _dphi(self, t):
        return self.slope * t


class RelaxedJLSExcess(ExcessReturn):
    """phi' = delta(t) * kappa(t) for a supplied relative jump size.

    ``delta_fn`` must be a vectorized callable mapping [0, T) to [0, 1].
    ``phi_fn`` may supply a closed-form primitive of phi'; without one, phi
    is tabulated once by cumulative quadrature on a clustered grid and
    interpolated (values near the horizon then carry the interpolation
    error, which only matters for price simulation of crashes very close
    to T).
    """

    def __init__(self, hazard: CrashHazard, delta_fn: Callable, phi_fn: Optional[Callable] = None):
        self.hazard = hazard
        self._delta = delta_fn
        self._phi_fn = phi_fn

    @functools.cached_property
    def _phi_table(self) -> Curve:
        grid = horizon_grid(self.hazard.horizon, HORIZON_NODES)
        integrand = np.asarray(self._delta(grid)) * np.asarray(self.hazard.hazard(grid))
        return Curve(grid, panel_rule(grid).cumulative_from_left(integrand))

    def _phi(self, t):
        return self._phi_table(t) if self._phi_fn is None else self._phi_fn(t)

    def _dphi(self, t):
        return np.asarray(self._delta(t)) * np.asarray(self.hazard.hazard(t))


class ConstantJumpSizeExcess(RelaxedJLSExcess):
    """phi' = delta0 * kappa: the crash always removes the fraction delta0.
    The JLS profile: the relaxed one with delta = delta0 and phi = delta0 H."""

    def __init__(self, hazard: CrashHazard, delta0: float):
        if not 0.0 <= delta0 <= 1.0:
            raise ModelError("relative jump size must lie in [0, 1]")
        self.delta0 = delta0 = float(delta0)
        super().__init__(
            hazard,
            delta_fn=lambda t: np.full_like(t, delta0),
            phi_fn=lambda t: delta0 * np.asarray(hazard.cumulative_hazard(t)),
        )


def linear_delta_excess(hazard: CrashHazard, slope: float) -> RelaxedJLSExcess:
    """Relative jump size growing linearly in time: delta(t) = slope * t.

    On the uniform law this is the canonical bubble whose crash severity
    ramps from 0 to slope * T; phi then has the closed form
    slope * (T log(T/(T-t)) - t), formed through log1p so it does not
    cancel near t = 0.
    """
    _finite(slope=slope)
    T = hazard.horizon
    if slope * T > 1.0 + 1e-12:
        raise ModelError("slope * horizon must be <= 1 so delta stays in [0, 1]")
    phi_fn = None
    if isinstance(hazard, UniformHazard):

        def phi_fn(t, _T=T, _s=slope):
            t = np.asarray(t, dtype=float)
            return _s * (-_T * np.log1p(-t / _T) - t)

    return RelaxedJLSExcess(
        hazard,
        delta_fn=lambda t, _s=slope: _s * np.asarray(t, dtype=float),
        phi_fn=phi_fn,
    )


class CustomExcess(ExcessReturn):
    """Closed-form profile supplied by the caller.

    Nothing is assumed about ``phi'`` beyond the checks of
    :func:`validate`, as for every profile: the classifiers and the tilt
    gate certify each integral of it by quadrature.
    """

    def __init__(self, phi_fn, dphi_fn):
        self._phi = phi_fn
        self._dphi = dphi_fn


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

    def phi_left_limit(self) -> float:
        """phi(T-), finite whenever the hazard is integrable."""
        return float(self.excess.phi(np.nextafter(self.horizon, 0.0)))


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


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
# T times this is clustered_grid(T, .) to the bit, its endpoint T dropped
_VALIDATION_UNIT = clustered_grid(1.0, _VALIDATION_POINTS + 1)[:-1]


def validate(model: MarketModel) -> ValidationReport:
    """Check the structural requirements on a horizon-clustered grid.

    Reports rather than raises: phi(0) = 0, kappa > 0, 0 <= phi' <= kappa,
    and LPPL positivity |c| < b.  Violations concentrate near the horizon,
    hence the clustered sampling.
    """
    grid = model.horizon * _VALIDATION_UNIT
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
    if bad.any():
        i = int(np.argmax(bad))
        violations.append(
            Violation("hazard_positive", float(grid[i]), f"kappa = {float(kap[i])!r} <= 0")
        )

    dphi = np.asarray(model.excess.dphi(grid))
    neg = dphi < -1e-12
    if neg.any():
        i = int(np.argmax(neg))
        violations.append(
            Violation("excess_nonnegative", float(grid[i]), f"phi' = {float(dphi[i])!r} < 0")
        )
    over = dphi > kap * (1.0 + 1e-10) + 1e-12
    if over.any():
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

    def certificate(f) -> Optional[bool]:  # None when INDETERMINATE
        return {CONVERGED: True, DIVERGENT: False}.get(integrate_toward(f, 0.0, T).status)

    integrable = certificate(post_jump_density)
    # a flat F never moves, so the process is constant
    flat = integrable and bool(np.all(np.asarray(fn.derivative(horizon_grid(T, 257))) == 0.0))
    square = True if flat else (certificate(jump_second_moment) if integrable else None)
    limit, resolved = 0.0, True  # read only where no atom and no square certificate decide
    if integrable and not square and hazard.atom == 0.0:
        limit, resolved = _horizon_limit_scaled(hazard, fn)

    if not integrable:
        verdict, martingale = SingleJumpClass.INDETERMINATE, None
        detail = "post-jump level is not dG-integrable"
        if integrable is None:
            detail = "integrability test did not resolve near the horizon"
    elif not resolved:
        verdict, martingale = SingleJumpClass.INDETERMINATE, None
        detail = "limit of F(t)(1 - G(t)) did not stabilize"
    elif limit != 0.0:
        verdict, martingale = SingleJumpClass.INTEGRABLE_LOCAL_MARTINGALE, False
        detail = f"F(t)(1 - G(t)) -> {limit:.6g} != 0"
    elif square and not flat:
        verdict, martingale, detail = SingleJumpClass.SQUARE_INTEGRABLE_MARTINGALE, True, ""
    else:
        verdict, martingale = SingleJumpClass.TRUE_MARTINGALE, True
        detail = "flat F: constant process" if flat else ""
    return SingleJumpReport(verdict, integrable, martingale, square, detail)


def _horizon_limit_scaled(hazard: CrashHazard, fn: C1Function) -> tuple[float, bool]:
    """Estimate lim F(t)(1 - G(t)) as t -> T on dyadically refining points."""
    T = hazard.horizon
    ks = np.arange(8, 49)
    t = T * (1.0 - 0.5**ks)
    vals = np.asarray(fn.value(t)) * np.exp(-np.asarray(hazard.cumulative_hazard(t)))
    scale = float(np.max(np.abs(vals[:8])))
    tail = vals[-8:]
    if np.all(np.abs(tail) <= 1e-10 * scale):
        return 0.0, True
    spread = float(np.max(tail) - np.min(tail))
    if spread <= 1e-6 * float(np.abs(tail[-1])):  # relative: a falling tail is no limit
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
    """D = int_0^T (kappa - phi'), certified by shell quadrature.

    Two branches are exact: an atom gives D = -log(atom) - phi(T-), and a
    constant jump size delta0 on a law without one gives D = inf for
    delta0 < 1 and D = 0 for delta0 = 1.  Every other profile, a relaxed
    jump size included, takes the quadrature of kappa - phi' (after the
    quadrature of phi' alone, whose convergence leaves D infinite).
    Returns (value, status); value is inf for certified divergence.  The
    martingale dichotomy rides on whether this integral is finite.
    """
    hz, ex = model.hazard, model.excess
    T = model.horizon
    if hz.atom > 0.0:
        total = -math.log(hz.atom)
        return total - model.phi_left_limit(), CONVERGED
    # hazard nonintegrable from here on, so an integrable phi' leaves D infinite
    if integrate_toward(ex.dphi, 0.0, T).status == CONVERGED:
        return math.inf, CONVERGED
    # shells cannot read the divergence of a log-periodic tail, so this branch decides it
    if isinstance(ex, ConstantJumpSizeExcess):
        if ex.delta0 < 1.0:
            return math.inf, CONVERGED
        return 0.0, CONVERGED

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


def _classification(
    model: MarketModel, verdict: Optional[Verdict] = None, detail: str = ""
) -> Classification:
    """Classification of a validated model under either measure.

    A ``verdict`` given by the caller's own rule stands, with its
    ``detail``.  Otherwise the ladder decides: an uncertified defect
    integral is indeterminate, an atom or an infinite defect gives a true
    martingale, and a finite defect a strict local martingale.
    """
    atom = model.hazard.atom
    defect, status = excess_defect_integral(model)
    lim = limsup_jump_size(model)
    if verdict is None and status != CONVERGED:
        verdict, detail = Verdict.INDETERMINATE, "quadrature could not certify the defect integral"
    elif verdict is None:
        true = atom > 0.0 or math.isinf(defect)
        verdict = Verdict.TRUE_MARTINGALE if true else Verdict.STRICT_LOCAL_MARTINGALE
    return Classification(verdict, atom, defect, lim, detail)


def classify_under_P(model: MarketModel) -> Classification:
    """Martingale status of the asset under the physical measure.

    With drift the asset cannot be a local martingale.  Driftless, it is a
    strict local martingale exactly when the crash is certain (no atom) and
    the defect integral int (kappa - phi') is finite; otherwise it is a
    true martingale.  A model that fails :func:`validate` raises
    :class:`ModelError`.
    """
    require_valid(model)
    if model.mu != 0.0:
        return _classification(model, Verdict.NOT_LOCAL_MARTINGALE_UNDER_P, "nonzero drift")
    return _classification(model)
