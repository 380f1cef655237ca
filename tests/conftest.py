import numpy as np
import pytest

from swiftcal import HestonParams
from swiftcal.experiments import run_generate
from swiftcal.fixtures import (
    DEFAULT_CONTEXT,
    PARAM_SETS,
    STRESS_CONTEXT,
    set1_quotes,
    set2_quotes,
)


@pytest.fixture(scope="session")
def ctx():
    return DEFAULT_CONTEXT


@pytest.fixture(scope="session")
def ctx100():
    return STRESS_CONTEXT


@pytest.fixture(scope="session")
def theta1():
    return PARAM_SETS["theta1"]


@pytest.fixture(scope="session")
def theta2():
    return PARAM_SETS["theta2"]


@pytest.fixture(scope="session")
def theta2_start():
    return PARAM_SETS["theta2-start"]


@pytest.fixture(scope="session")
def stress_theta():
    return PARAM_SETS["stress"]


@pytest.fixture(scope="session")
def set2_priced(theta2, ctx):
    """Set 2 quotes priced at theta2 (the speed-test protocol's market)."""
    return run_generate(theta2, ctx, set2_quotes())


@pytest.fixture(scope="session")
def set1_priced(theta2, ctx):
    """Set 1 (single expiry) quotes priced at theta2."""
    return run_generate(theta2, ctx, set1_quotes())


def five_point_grad(fun, base, i, rel_step=1e-3):
    """Five-point central difference in parameter i; fun maps vector -> array."""
    step = rel_step * max(1.0, abs(base[i]))
    vecs = []
    for mult in (2, 1, -1, -2):
        v = np.array(base, dtype=float)
        v[i] += mult * step
        vecs.append(v)
    fp2, fp1, fm1, fm2 = (np.asarray(fun(v)) for v in vecs)
    return (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * step)


def price_jacobian_fd(price_fun, theta, rel_step=1e-3):
    """Five-point FD Jacobian (n x 5) of a vector-valued pricing function."""
    base = theta.as_array()
    cols = [five_point_grad(lambda v: price_fun(HestonParams.from_array(v)),
                            base, i, rel_step) for i in range(5)]
    return np.column_stack(cols)


def textbook_cosh(u, tau, theta):
    """cosh(d tau/2) of the textbook compact chf, d^2 = xi^2 + sigma^2 (u^2 - iu).

    xi = kappa + sigma rho iu.  The stabilized chf never forms this factor;
    evaluating it shows where the direct sinh/cosh evaluation overflows.
    """
    u = np.asarray(u, dtype=float)
    xi = theta.kappa + theta.sigma * theta.rho * 1j * u
    d = np.sqrt(xi * xi + theta.sigma**2 * (u * u - 1j * u))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cosh(d * tau / 2.0)
