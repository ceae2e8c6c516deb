import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bubblemkt import (
    ConstantExcess,
    CustomExcess,
    ExponentialCutoffHazard,
    LPPLHazard,
    MarketModel,
    RelaxedJLSExcess,
    UniformHazard,
    linear_delta_excess,
)

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def base_model():
    """Truncated-exponential crash law with a constant excess return; the
    baseline parameter set (mu=0.1, sigma=0.2, alpha=0.2, T=1)."""
    law = ExponentialCutoffHazard(rate=1.0, horizon=1.0)
    return MarketModel(0.1, 0.2, law, ConstantExcess(0.2))


@pytest.fixture(scope="session")
def ex37_model():
    """Driftless uniform-crash model with linearly growing jump size; the
    canonical strict local martingale."""
    law = UniformHazard(1.0)
    return MarketModel(0.0, 0.2, law, linear_delta_excess(law, 1.0))


@pytest.fixture(scope="session")
def ex37_custom_model():
    """The canonical strict local martingale with its profile written as a
    caller's closed form: phi = -log(1 - t) - t, phi' = t / (1 - t)."""
    return MarketModel(
        0.0,
        0.2,
        UniformHazard(1.0),
        CustomExcess(
            phi_fn=lambda t: -np.log1p(-np.asarray(t, dtype=float)) - np.asarray(t, dtype=float),
            dphi_fn=lambda t: np.asarray(t, dtype=float) / (1.0 - np.asarray(t, dtype=float)),
        ),
    )


@pytest.fixture(scope="session")
def lppl_half_model():
    """Driftless LPPL law with power 0 and relative crash size 1/2: the
    defect int (kappa - phi') = int kappa / 2 diverges like a logarithm
    under a log-periodic wobble, which the shell quadrature cannot certify."""
    law = LPPLHazard(b=1.2, c=0.3, power=0.0, omega=6.0, phase=0.5, horizon=1.0)
    half = RelaxedJLSExcess(law, lambda t: np.full_like(np.asarray(t, dtype=float), 0.5))
    return MarketModel(0.0, 0.2, law, half)


@pytest.fixture(scope="session")
def table4_model():
    """Factory for the uniform-law family with delta(t) = alpha t."""

    def make(alpha, mu=0.1, sigma=0.2):
        law = UniformHazard(1.0)
        return MarketModel(mu, sigma, law, linear_delta_excess(law, alpha))

    return make


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    err = np.max(np.abs(actual - expected))
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"
