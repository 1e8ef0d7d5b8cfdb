"""Record-at-a-time PSIS: the reference the blocked ``agemix.evaluation``
kernel is tested against.

``_psis_column`` smooths one record's importance weights with a scalar
generalized Pareto fit (``gpd_fit``) and returns them, placed at their draws,
with k-hat; row by row, ``_psis_block`` must give the pointwise ELPD they
imply and the same k-hat up to rounding. The kernel never forms the smoothed
weights: it reads only the sorted values of each row's largest weights.
"""

from __future__ import annotations

import math

import numpy as np

from agemix.evaluation import _MIN_TAIL, _logsumexp_rows, _tail_length


def gpd_fit(exceedances: np.ndarray) -> tuple[float, float]:
    """Empirical-Bayes fit of a generalized Pareto to sorted exceedances.

    Returns (k, sigma); ``exceedances`` must be positive and ascending. The
    shape estimate is regularized toward 0.5 by a weak prior.
    """
    x = np.asarray(exceedances, dtype=float)
    n = x.size
    m = 30 + int(math.isqrt(n))
    idx = np.arange(1.0, m + 1.0)
    bs = 1.0 - np.sqrt(m / (idx - 0.5))
    bs = bs / (3.0 * x[n // 4]) + 1.0 / x[-1]
    ks = np.mean(np.log1p(-bs[:, None] * x[None, :]), axis=1)
    profile = n * (np.log(-bs / ks) - ks - 1.0)
    weights = 1.0 / np.sum(np.exp(profile[None, :] - profile[:, None]), axis=1)
    weights /= weights.sum()
    b = float(np.sum(bs * weights))
    k = float(np.mean(np.log1p(-b * x)))
    sigma = -k / b
    prior_n = 10.0
    k = k * n / (n + prior_n) + prior_n * 0.5 / (n + prior_n)
    if math.isnan(k):
        # subnormal exceedances can turn the profile NaN; unassessable
        return math.inf, math.nan
    return k, sigma


def _gpd_quantiles(p: np.ndarray, k: float, sigma: float) -> np.ndarray:
    if abs(k) < 1e-12:
        return sigma * (-np.log1p(-p))
    return sigma * np.expm1(-k * np.log1p(-p)) / k


def _psis_column(ll_col: np.ndarray) -> tuple[np.ndarray, float]:
    """Smoothed, self-normalized log importance weights and k-hat for one record."""
    lw = -ll_col
    lw = lw - lw.max()
    n = lw.size
    m = _tail_length(n)
    khat = -math.inf
    order = np.argsort(lw, kind="stable")
    cutoff = max(lw[order[n - m - 1]], math.log(np.finfo(float).tiny))
    exp_cutoff = math.exp(cutoff)
    tail_idx = order[n - m :]
    exceed = np.exp(lw[tail_idx]) - exp_cutoff
    # only draws above the clamped cutoff enter the fit
    tail_idx, exceed = tail_idx[exceed > 0], exceed[exceed > 0]
    if exceed.size:
        if exceed.size < _MIN_TAIL:
            khat = math.inf  # too few tail draws to assess
        else:
            k, sigma = gpd_fit(exceed)
            khat = k
            if np.isfinite(k) and k >= 1.0 / 3.0:
                probs = (np.arange(exceed.size) + 0.5) / exceed.size
                smoothed = np.log(_gpd_quantiles(probs, k, sigma) + exp_cutoff)
                lw = lw.copy()
                lw[tail_idx] = np.minimum(smoothed, 0.0)
    return lw - _logsumexp_rows(lw[None, :])[0], khat
