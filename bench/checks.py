"""Output checks, each against a computation made here, apart from the
library, or against a property the method must have.

Every check takes its oracle as an argument, so the self-check can feed a
deliberately wrong one and see the check fire.  A check raises
``CheckFailed`` when the program's output is wrong; ``OpFailed`` marks an
operation that broke the program's documented contract (an error exit, a
traceback, the sweep seed rule) and is counted as failed, not as wrong.
"""

from __future__ import annotations

import math

import numpy as np

# Monte Carlo bands are 5 standard errors wide: every run draws fresh seeds,
# so a correct program must fail a band check with negligible probability
# (about 6e-7 per check against 3e-3 for a 3-SE band).
SE_BAND = 5.0


class CheckFailed(AssertionError):
    """The program's output disagrees with the benchmark's oracle."""


class OpFailed(RuntimeError):
    """The operation broke the program's contract; counted as failed."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- solve_grid ----------------------------------------------------------------


def check_bracket(lower, tilt, upper, tol: float = 1e-12) -> None:
    """The solved tilt curve lies between its backward bracket curves."""
    lower, tilt, upper = (np.asarray(v, dtype=float) for v in (lower, tilt, upper))
    require(np.all(lower - tol <= tilt), "tilt curve below its lower bracket")
    require(np.all(tilt <= upper + tol), "tilt curve above its upper bracket")


def check_hedging_sign(p: float, pi_h) -> None:
    """Crash-timing demand: >= 0 for p > 1 (the investor rides the bubble),
    <= 0 for p < 1, and zero at log utility."""
    pi_h = np.asarray(pi_h, dtype=float)
    if p > 1.0:
        require(np.all(pi_h >= -1e-12), f"p={p}: negative hedging demand")
    elif p < 1.0:
        require(np.all(pi_h <= 1e-12), f"p={p}: positive hedging demand")
    else:
        require(np.max(np.abs(pi_h)) <= 1e-10, "log utility with hedging demand")


def check_myopic_bounds(pi_m, merton: float, dphi) -> None:
    """Myopic demand lies in (0, Merton), strictly below Merton wherever the
    excess return is positive and equal to it where it vanishes."""
    pi_m = np.asarray(pi_m, dtype=float)
    pos = np.asarray(dphi, dtype=float) > 0.0
    require(np.all(pi_m > 0.0), "myopic demand not positive")
    require(np.all(pi_m[pos] < merton), "myopic demand not below Merton")
    require(
        np.all(np.abs(pi_m[~pos] - merton) <= 1e-12 * merton),
        "myopic demand off Merton where the excess return vanishes",
    )


def check_relative_loss(relative_loss: float) -> None:
    """rESRL lies in [0, 1): the crash costs a share of the safe rate."""
    require(0.0 <= relative_loss < 1.0, f"rESRL {relative_loss!r} outside [0, 1)")


def log_utility_root(mu: float, sigma: float, kappa, dphi):
    """Root above -1 of m(t, y, 1) = 1, evaluated here from the model's
    coefficients: (1 + y)(1 - delta (mu - phi' y) / sigma^2) = 1 with
    delta = phi' / kappa is the quadratic B y^2 + (A + B) y + (A - 1) = 0,
    A = 1 - delta mu / sigma^2, B = delta phi' / sigma^2."""
    kappa = np.asarray(kappa, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    sig2 = sigma * sigma
    delta = dphi / kappa
    a = 1.0 - delta * mu / sig2
    b = delta * dphi / sig2
    lin = a + b
    disc = np.sqrt(lin * lin - 4.0 * b * (a - 1.0))
    # 2c / (-lin - disc) form of the '+' root: no cancellation when lin > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(
            lin >= 0.0, 2.0 * (1.0 - a) / (lin + disc), (disc - lin) / (2.0 * b)
        )
    return np.where(dphi > 0.0, root, 0.0)


def check_log_root(tilt, root, rtol: float = 1e-9) -> None:
    """At p = 1 the solved curve is the quadratic root evaluated here."""
    tilt = np.asarray(tilt, dtype=float)
    root = np.asarray(root, dtype=float)
    err = np.max(np.abs(tilt - root) / (1.0 + np.abs(root)))
    require(err <= rtol, f"log-utility curve off the quadratic root by {err:.2e}")


def check_refinement(ce_coarse: float, ce_fine: float, rtol: float) -> None:
    """Certainty equivalent at n_grid 512 agrees with n_grid 4096."""
    gap = abs(ce_coarse / ce_fine - 1.0)
    require(gap <= rtol, f"CE(512)/CE(4096) - 1 = {gap:.2e} above {rtol:.0e}")


# -- mc_verify -----------------------------------------------------------------


def check_price_band(mean: float, stderr: float, oracle: float) -> None:
    """E[S_T] within SE_BAND standard errors of its closed-form value."""
    gap = abs(mean - oracle)
    require(
        gap <= SE_BAND * stderr,
        f"E[S_T] {mean!r} is {gap / stderr:.1f} SE from {oracle!r}",
    )


def inverse_utility(value: float, p: float) -> float:
    if p == 1.0:
        return math.exp(value)
    return ((1.0 - p) * value) ** (1.0 / (1.0 - p))


def check_ce_band(mean: float, stderr: float, p: float, ce: float) -> None:
    """The certainty-equivalent formula lies inside the Monte Carlo utility
    band mapped back through the inverse utility."""
    lo, hi = sorted(inverse_utility(mean + s * stderr, p) for s in (-SE_BAND, SE_BAND))
    require(lo <= ce <= hi, f"CE {ce!r} outside the MC band [{lo!r}, {hi!r}]")


def check_budget(mean: float, stderr: float, x: float) -> None:
    """E^Q[X_T] = x: the optimal wealth is a Q-martingale."""
    gap = abs(mean - x)
    require(gap <= SE_BAND * stderr, f"E^Q[X_T] {mean!r} is {gap / stderr:.1f} SE from {x!r}")


def check_dominance(opt_mean: float, opt_se: float, alt_mean: float, alt_se: float) -> None:
    """The optimal strategy's expected utility is not beaten by an
    alternative on the same random numbers."""
    slack = SE_BAND * math.hypot(opt_se, alt_se)
    require(
        opt_mean >= alt_mean - slack,
        f"alternative utility {alt_mean!r} beats optimal {opt_mean!r}",
    )


# -- cli_calls -----------------------------------------------------------------


def check_error_contract(code: int, stderr: str, expected_code: int) -> None:
    """A rejected call exits with the documented code and prints exactly one
    ERROR line and no traceback."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith("ERROR ")]
    if "Traceback" in stderr:
        raise OpFailed(f"traceback instead of an ERROR line (exit {code})")
    if code != expected_code:
        raise OpFailed(f"exit code {code}, expected {expected_code}")
    if len(lines) != 1 or not lines[0].startswith(f"ERROR code={expected_code} "):
        raise OpFailed(f"expected one 'ERROR code={expected_code}' line, got {lines!r}")


def check_exit_ok(code: int, stderr: str) -> None:
    if code != 0:
        raise OpFailed(f"exit code {code}: {stderr.strip()[-200:]}")


def parse_blocks(text: str) -> list[tuple[str | None, list[str], list[list[str]]]]:
    """CSV output as (sweep label, header, rows) blocks; a plain command
    gives one block with label None."""
    blocks: list = []
    label = None
    header = None
    for line in text.splitlines():
        if line.startswith("# "):
            label, header = line[2:], None
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            blocks.append((label, header, []))
        else:
            blocks[-1][2].append(cells)
    return blocks


def check_csv_shape(block, header: list[str], n_rows: int) -> None:
    _, got_header, rows = block
    require(got_header == header, f"CSV header {got_header!r}, expected {header!r}")
    require(len(rows) == n_rows, f"{len(rows)} CSV rows, expected {n_rows}")


def check_bitwise(cells, expected, label: str) -> None:
    """Printed numbers round-trip to exactly the in-process values."""
    got = np.array([float(c) for c in cells])
    want = np.asarray(expected, dtype=float)
    require(got.shape == want.shape, f"{label}: {got.shape} values, expected {want.shape}")
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    if not np.all(same):
        i = int(np.argmin(same))
        raise CheckFailed(f"{label}: CLI printed {got[i]!r}, library gives {want[i]!r}")


def check_sweep_seeds(seeds: list[int], base_seed: int) -> None:
    """Sweep points run with per-point seeds seed + index (README)."""
    want = [base_seed + i for i in range(len(seeds))]
    if seeds != want:
        raise OpFailed(f"sweep point seeds {seeds}, documented {want}")
