"""The sinh-arcsinh log density written term by term: the reference the
fused ``agemix.distributions._logpdf_sinh_arcsinh`` kernel is tested against.

It takes log cosh(w) through its own exponential and log sqrt(1 + z^2)
through ``hypot``, so it needs neither identity the kernel relies on, and
keeps the kernel's clamp of w at +/- ``SINH_ARG_CLAMP``.
"""

from __future__ import annotations

import math

import numpy as np

from agemix.distributions import SINH_ARG_CLAMP

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_cosh(w):
    a = np.abs(w)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def logpdf_sinh_arcsinh(x, mu, sigma, epsilon, delta):
    z = (x - mu) / sigma
    w = np.clip(epsilon + delta * np.arcsinh(z), -SINH_ARG_CLAMP, SINH_ARG_CLAMP)
    s = np.sinh(w)
    # log sqrt(1 + z^2) via hypot avoids overflow for extreme z
    with np.errstate(over="ignore"):
        return (
            -np.log(sigma)
            - _HALF_LOG_2PI
            + np.log(delta)
            + _log_cosh(w)
            - np.log(np.hypot(1.0, z))
            - 0.5 * s * s
        )
