import numpy as np
import pytest

from agemix.data_io import default_config, simulate


@pytest.fixture(scope="session")
def small_records():
    """2,000 synthetic records from the packaged default truth model."""
    return simulate(default_config(n=2000, seed=8675309))


@pytest.fixture(scope="session")
def tiny_records():
    return simulate(default_config(n=300, seed=24601))


def assert_same_records(a, b) -> None:
    """Both record sets hold the same rows in the same order."""
    for name in ("respondent_age", "respondent_sex", "partner_age"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a sample and its model CDF.

    ``cdf_values`` must be the model CDF evaluated at the *sorted* samples.
    """
    n = samples.size
    upper = np.max(np.abs(np.arange(1, n + 1) / n - cdf_values))
    lower = np.max(np.abs(np.arange(0, n) / n - cdf_values))
    return float(max(upper, lower))
