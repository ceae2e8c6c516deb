"""In-process tracing at the library's module boundaries, from outside it.

``Tracer.install`` replaces every public function and public method of the
library's modules (and the SciPy entry points they use) with a wrapper that
records a span (name, layer, start, end, parent, thread) in memory while the tracer
is active.  Function names imported into other modules are re-bound there
too, so a call from ``solver`` into ``_quad`` is seen.  ``uninstall`` puts
the originals back; no file of the library changes.

A layer's self time is the time of its spans less the time of their child
spans.  Each thread keeps its own span stack: spans opened in the CLI's
sweep threads are roots of their thread, so with threads running at once
the layers' self times can add up to more than the wall time.  Counts are
taken at the same boundaries.
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

import scipy.integrate
import scipy.interpolate

import bubblemkt
from bubblemkt import _quad, cli, elmm, hazard, montecarlo, solver, welfare

LAYERS = {
    "hazard": hazard,
    "quad": _quad,
    "solver": solver,
    "welfare": welfare,
    "elmm": elmm,
    "montecarlo": montecarlo,
    "cli": cli,
}
LIBRARY_MODULES = [bubblemkt, *LAYERS.values()]
# the class whose __call__ evaluates every piecewise polynomial (Pchip and
# its derivatives)
_PPOLY_CALL = next(
    c for c in scipy.interpolate.PPoly.__mro__ if "__call__" in vars(c)
)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []
        self._local = threading.local()  # per-thread stack of open spans
        self._lock = threading.Lock()
        self._restore: list = []
        self.shells = 0
        self.sweeps: list[int] = []
        self.ode_fallbacks = 0
        self.residual_max = 0.0

    # -- spans -------------------------------------------------------------------

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (or plainly while inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, layer, start, end, parent, threading.get_ident())

    def _wrap(self, layer: str, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if hook is None:
                return tracer.span(layer, name, fn, *args, **kwargs)
            return hook(lambda: tracer.span(layer, name, fn, *args, **kwargs))

        return wrapped

    # -- counters hung on particular boundaries ------------------------------------

    def _count_shells(self, call):
        out = call()
        if self.active:
            with self._lock:
                self.shells += out.shells
        return out

    def _count_solve(self, call):
        try:
            sol = call()
        except solver.SolverError as exc:
            if self.active and ("ode_fallback" in str(exc) or "ODE fallback" in str(exc)):
                with self._lock:
                    self.ode_fallbacks += 1
            raise
        if self.active:
            with self._lock:
                self.sweeps.append(sol.iterations)
                self.ode_fallbacks += sol.method == "ode_fallback"
                self.residual_max = max(self.residual_max, float(sol.residuals.max()))
        return sol

    # -- installation --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = {
            "integrate_toward": self._count_shells,
            "solve_optimal": self._count_solve,
        }
        for layer, module in LAYERS.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj, hooks.get(name))
                    for mod in LIBRARY_MODULES:
                        if vars(mod).get(name) is obj:
                            self._set(mod, name, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    for attr, fn in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr == "__call__"
                        if inspect.isfunction(fn) and (public or (obj, attr) == (_quad.PanelRule, "__init__")):
                            self._set(obj, attr, self._wrap(layer, f"{layer}.{name}.{attr}", fn))
        self._set(scipy.interpolate.PchipInterpolator, "__init__", self._wrap(
            "scipy", "scipy.PchipInterpolator", scipy.interpolate.PchipInterpolator.__init__))
        self._set(_PPOLY_CALL, "__call__", self._wrap(
            "scipy", "scipy.PPoly.__call__", _PPOLY_CALL.__call__))
        self._set(scipy.integrate, "solve_ivp", self._wrap(
            "scipy", "scipy.solve_ivp", scipy.integrate.solve_ivp))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            out[layer] += end - start - child[i]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
