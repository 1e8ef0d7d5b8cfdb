"""Dependent-variable transforms of partner age and their Jacobians.

Four outcome parametrisations (linear age, age difference, log age, log
ratio) plus the two family-specific rescalings: a horizontal reflection for
fitting the always-right-skewed gamma to male respondents' data, and a
rescaling of ages into (0, 1) for the beta. Jacobians are the log absolute
derivatives |dy/dp| needed to compare model densities on the common
partner-age scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransformKind",
    "Transform",
    "TransformError",
    "forward_array",
    "inverse_array",
    "log_jacobian_array",
]

MALE = 0


class TransformError(ValueError):
    """A record lies outside the domain of a transform."""


class TransformKind(str, enum.Enum):
    LINEAR_AGE = "linear_age"
    AGE_DIFFERENCE = "age_difference"
    LOG_AGE = "log_age"
    LOG_RATIO = "log_ratio"
    GAMMA_REFLECTED = "gamma_reflected"
    BETA_RESCALED = "beta_rescaled"


@dataclass(frozen=True)
class Transform:
    """A dependent-variable transform.

    ``upper_bound`` is the partner-age ceiling used to rescale ages into
    (0, 1) for the beta family; ``offset`` is the constant added after
    reflecting male respondents' partner ages for the gamma family. Both
    default to 150 years.
    """

    kind: TransformKind
    upper_bound: float = 150.0
    offset: float = 150.0


def _first_bad(mask: np.ndarray, ages, sexes, partners, why: str) -> TransformError:
    i = int(np.argmax(mask))
    return TransformError(f"{why} at record index {i} (respondent_age={float(ages[i])!r}, "
                          f"respondent_sex={int(sexes[i])!r}, partner_age={float(partners[i])!r})")


def forward_array(t: Transform, ages, sexes, partners) -> np.ndarray:
    ages = np.asarray(ages, dtype=float)
    sexes = np.asarray(sexes)
    p = np.asarray(partners, dtype=float)
    k = t.kind
    if k is TransformKind.LINEAR_AGE:
        return p.copy()
    if k is TransformKind.AGE_DIFFERENCE:
        return p - ages
    if k in (TransformKind.LOG_AGE, TransformKind.LOG_RATIO):
        bad = ~(p > 0)
        if bad.any():
            raise _first_bad(bad, ages, sexes, p, "log transform requires partner_age > 0")
        return np.log(p) if k is TransformKind.LOG_AGE else np.log(p / ages)
    if k is TransformKind.GAMMA_REFLECTED:
        return np.where(sexes == MALE, t.offset - p, p)
    if k is TransformKind.BETA_RESCALED:
        bad = ~((p > 0) & (p < t.upper_bound))
        if bad.any():
            raise _first_bad(bad, ages, sexes, p, f"beta rescaling requires 0 < partner_age < {t.upper_bound}")
        return p / t.upper_bound
    raise ValueError(f"unknown transform {k!r}")  # pragma: no cover


def inverse_array(t: Transform, ages, sexes, y) -> np.ndarray:
    ages = np.asarray(ages, dtype=float)
    sexes = np.asarray(sexes)
    y = np.asarray(y, dtype=float)
    k = t.kind
    if k is TransformKind.LINEAR_AGE:
        return y.copy()
    if k is TransformKind.AGE_DIFFERENCE:
        return y + ages
    if k in (TransformKind.LOG_AGE, TransformKind.LOG_RATIO):
        # extreme predictive draws overflow to inf, silently; the CLI counts them per fit
        with np.errstate(over="ignore"):
            return np.exp(y) if k is TransformKind.LOG_AGE else ages * np.exp(y)
    if k is TransformKind.GAMMA_REFLECTED:
        return np.where(sexes == MALE, t.offset - y, y)
    if k is TransformKind.BETA_RESCALED:
        return y * t.upper_bound
    raise ValueError(f"unknown transform {k!r}")  # pragma: no cover


def log_jacobian_array(t: Transform, ages, sexes, partners) -> np.ndarray:
    ages = np.asarray(ages, dtype=float)
    p = np.asarray(partners, dtype=float)
    k = t.kind
    if k in (TransformKind.LINEAR_AGE, TransformKind.AGE_DIFFERENCE, TransformKind.GAMMA_REFLECTED):
        return np.zeros_like(p)
    if k in (TransformKind.LOG_AGE, TransformKind.LOG_RATIO):
        bad = ~(p > 0)
        if bad.any():
            raise _first_bad(bad, ages, np.asarray(sexes), p, "log transform requires partner_age > 0")
        return -np.log(p)
    if k is TransformKind.BETA_RESCALED:
        return np.full_like(p, -math.log(t.upper_bound))
    raise ValueError(f"unknown transform {k!r}")  # pragma: no cover
