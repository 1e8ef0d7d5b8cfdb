"""Model comparison: ELPD (PSIS-LOO or exact k-fold) and QQ RMSE.

Pointwise log likelihoods are always evaluated on the partner-age scale by
adding the log Jacobian of the dependent-variable transform, which makes
ELPD values comparable across models fit on different outcome
parametrisations.

The PSIS estimator smooths, per record, the top 20% of importance weights by
an empirical-Bayes generalized Pareto fit (Zhang & Stephens style), truncates
the smoothed weights at the largest raw weight, and reports the Pareto tail
index k-hat per record; records with k-hat > 0.7 are flagged as unreliable.
Standard errors follow the usual pointwise convention
se = sqrt(n * var(pointwise)).

PSIS is independent per record, so ``elpd_loo`` streams blocks of records
(records x draws, about ``_BLOCK_BYTES`` each) from the fit through one
kernel and keeps only the pointwise ELPD and k-hat: memory is
O(draws x block), not O(records x draws). ``pointwise_loglik`` builds the
full matrix from the same blocks for callers that want it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import transforms
from .design import design_matrices
from .distributions import log_pdf_slots
from .inference import (
    FitResult,
    PosteriorDraws,
    _natural_params,
    fit_map,
    laplace_draws,
)

__all__ = [
    "LogLikMatrix",
    "ElpdResult",
    "ComparisonReport",
    "ComparisonRow",
    "pointwise_loglik",
    "elpd_loo",
    "elpd_diff",
    "qq_rmse",
    "DEFAULT_QUANTILES",
    "KHAT_WARN",
]

DEFAULT_QUANTILES = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10))
KHAT_WARN = 0.7
_TAIL_FRACTION = 0.2
_MIN_TAIL = 5
# bytes of log likelihood per streamed record block
_BLOCK_BYTES = 2 << 20
# scratch bytes per row chunk of the generalized Pareto profile fit
_GPD_CHUNK_BYTES = 1 << 20


@dataclass
class LogLikMatrix:
    """Per-draw, per-record log densities on the partner-age scale."""

    values: np.ndarray  # (n_draws, n_records)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_records(self) -> int:
        return self.values.shape[1]


def _block_rows(n_draws: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_draws))


def _loglik_blocks(fit: FitResult, draws: PosteriorDraws, records, transform=None):
    """Yield (start, block): log likelihoods of consecutive record blocks.

    ``block`` is C-contiguous (records x draws); entry (i, d) is the log
    density of record ``start + i`` under draw d. Any non-finite entry
    raises, naming the offending record and draw.
    """
    t = transform if transform is not None else fit.transform
    ages = np.array([r.respondent_age for r in records], dtype=float)
    sexes = np.array([r.respondent_sex for r in records], dtype=int)
    partners = np.array([r.partner_age for r in records], dtype=float)
    y = transforms.forward_array(t, ages, sexes, partners)
    jac = transforms.log_jacobian_array(t, ages, sexes, partners)

    mats = design_matrices(fit.spec, ages, sexes, slots=fit.slots, center=True)
    coefs = {slot: draws.draws[:, slice(*fit.offsets[slot])].T for slot in fit.slots}
    step = _block_rows(draws.draws.shape[0])
    for start in range(0, len(records), step):
        rows = slice(start, start + step)
        # fit.slots are exactly the slots the family's parameters read
        etas = {slot: mats[slot][rows] @ coefs[slot] for slot in fit.slots}
        params = _natural_params(fit.family, etas)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = log_pdf_slots(fit.family, y[rows, None], *params) + jac[rows, None]
        del etas, params  # only the block stays alive while the caller holds it
        if not np.all(np.isfinite(block)):
            i, d = np.argwhere(~np.isfinite(block))[0]
            i += start
            raise ValueError(
                f"non-finite log likelihood at draw {d}, record {i} "
                f"(respondent_age={ages[i]}, respondent_sex={sexes[i]}, partner_age={partners[i]})"
            )
        yield start, block


def _matrix_blocks(values: np.ndarray):
    """Yield (start, block) records-major blocks of a (draws x records) matrix."""
    step = _block_rows(values.shape[0])
    for start in range(0, values.shape[1], step):
        yield start, np.ascontiguousarray(values[:, start : start + step].T)


def pointwise_loglik(
    fit: FitResult,
    draws: PosteriorDraws,
    records,
    *,
    transform=None,
) -> LogLikMatrix:
    """Jacobian-adjusted log-likelihood matrix for ``records`` under ``fit``.

    Entry (d, i) is the log density of record i's partner age under draw d.
    Any non-finite entry raises, naming the offending record and draw.
    """
    out = np.empty((draws.draws.shape[0], len(records)))
    for start, block in _loglik_blocks(fit, draws, records, transform):
        out[:, start : start + block.shape[0]] = block.T
    return LogLikMatrix(values=out)


def _logsumexp_rows(a: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted log-sum-exp of each row of ``a``.

    ``scratch`` (same shape, may be ``a`` itself) holds the shifted
    exponentials; it is allocated when not given.
    """
    shift = a.max(axis=1)
    shift[~np.isfinite(shift)] = 0.0
    out = np.empty_like(a) if scratch is None else scratch
    np.subtract(a, shift[:, None], out=out)
    np.exp(out, out=out)
    return np.log(out.sum(axis=1)) + shift


# ---------------------------------------------------------------------------
# generalized Pareto machinery
# ---------------------------------------------------------------------------


def gpd_fit(exceedances: np.ndarray) -> tuple[float, float]:
    """Empirical-Bayes fit of a generalized Pareto to sorted exceedances.

    Returns (k, sigma); ``exceedances`` must be ascending with a positive
    maximum. The shape estimate is regularized toward 0.5 by a weak prior.
    """
    x = np.asarray(exceedances, dtype=float)
    n = x.size
    m = 30 + int(math.isqrt(n))
    idx = np.arange(1.0, m + 1.0)
    bs = 1.0 - np.sqrt(m / (idx - 0.5))
    quart = x[n // 4] if x[n // 4] > 0 else x[x > 0][0]
    bs = bs / (3.0 * quart) + 1.0 / x[-1]
    ks = np.mean(np.log1p(-bs[:, None] * x[None, :]), axis=1)
    profile = n * (np.log(-bs / ks) - ks - 1.0)
    weights = 1.0 / np.sum(np.exp(profile[None, :] - profile[:, None]), axis=1)
    weights /= weights.sum()
    b = float(np.sum(bs * weights))
    k = float(np.mean(np.log1p(-b * x)))
    sigma = -k / b
    prior_n = 10.0
    k = k * n / (n + prior_n) + prior_n * 0.5 / (n + prior_n)
    return k, sigma


def _gpd_quantiles(p: np.ndarray, k: float, sigma: float) -> np.ndarray:
    if abs(k) < 1e-12:
        return sigma * (-np.log1p(-p))
    return sigma * np.expm1(-k * np.log1p(-p)) / k


def _psis_column(ll_col: np.ndarray) -> tuple[np.ndarray, float]:
    """Smoothed, self-normalized log importance weights for one record.

    Reference implementation; ``_psis_block`` is the vectorized equivalent
    used in production and is tested against this one.
    """
    lw = -ll_col
    lw = lw - lw.max()
    n = lw.size
    m = int(math.floor(_TAIL_FRACTION * n))
    khat = -math.inf
    if m >= _MIN_TAIL:
        order = np.argsort(lw, kind="stable")
        tail_idx = order[n - m :]
        cutoff = max(lw[order[n - m - 1]], math.log(np.finfo(float).tiny))
        exp_cutoff = math.exp(cutoff)
        exceed = np.exp(lw[tail_idx]) - exp_cutoff
        if exceed[-1] > 0:
            if np.count_nonzero(exceed > 0) < _MIN_TAIL:
                # weights so concentrated the tail underflows; unassessable
                khat = math.inf
            else:
                k, sigma = gpd_fit(exceed)
                khat = k
                if np.isfinite(k) and k >= 1.0 / 3.0:
                    probs = (np.arange(m) + 0.5) / m
                    smoothed = np.log(_gpd_quantiles(probs, k, sigma) + exp_cutoff)
                    lw = lw.copy()
                    lw[tail_idx] = np.minimum(smoothed, 0.0)
    return lw - _logsumexp_rows(lw[None, :])[0], khat


def _gpd_fit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise generalized Pareto fits; x is (rows, n) ascending per row.

    The (rows, grid, n) profile scratch lives in one buffer, so callers pass
    row chunks of about ``_GPD_CHUNK_BYTES``.
    """
    rows, n = x.shape
    m = 30 + int(math.isqrt(n))
    idx = np.arange(1.0, m + 1.0)
    bs0 = 1.0 - np.sqrt(m / (idx - 0.5))
    quart = x[:, n // 4].copy()
    bad = quart <= 0
    if bad.any():
        # fall back to each row's smallest positive exceedance
        quart[bad] = np.where(x[bad] > 0, x[bad], np.inf).min(axis=1)
    bs = bs0[None, :] / (3.0 * quart[:, None]) + 1.0 / x[:, -1][:, None]
    buf = np.empty((rows, m, n))
    np.multiply(-bs[:, :, None], x[:, None, :], out=buf)
    np.log1p(buf, out=buf)
    ks = buf.mean(axis=2)
    profile = n * (np.log(-bs / ks) - ks - 1.0)
    profile -= profile.max(axis=1, keepdims=True)
    w = np.exp(profile)
    w /= w.sum(axis=1, keepdims=True)
    b = np.sum(bs * w, axis=1)
    k = np.mean(np.log1p(-b[:, None] * x), axis=1)
    sigma = -k / b
    prior_n = 10.0
    k = k * n / (n + prior_n) + prior_n * 0.5 / (n + prior_n)
    return k, sigma


def _smooth_tails(lw: np.ndarray, m: int, khat: np.ndarray) -> None:
    """Pareto-smooth the top ``m`` log weights of each row of ``lw`` in place.

    Rows are max-shifted to 0; ``khat`` receives each row's tail index.
    """
    s = lw.shape[1]
    # the m + 1 largest weights per row (the cutoff and the tail), ordered by
    # (weight, draw) exactly as a stable full argsort orders them
    top = np.argpartition(lw, s - m - 1, axis=1)[:, s - m - 1 :].copy()
    vals = np.take_along_axis(lw, top, axis=1)
    # where weights equal to the cutoff straddle the partition, it picked
    # among them arbitrarily; such rows take the full stable sort
    straddled = np.count_nonzero(lw >= vals.min(axis=1, keepdims=True), axis=1) > m + 1
    for r in np.nonzero(straddled)[0]:
        top[r] = np.argsort(lw[r], kind="stable")[s - m - 1 :]
    top.sort(axis=1)
    vals = np.take_along_axis(lw, top, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    tail_idx = np.take_along_axis(top, order[:, 1:], axis=1)
    vals = np.take_along_axis(vals, order, axis=1)

    exp_cutoff = np.exp(np.maximum(vals[:, 0], math.log(np.finfo(float).tiny)))
    exceed = np.exp(vals[:, 1:]) - exp_cutoff[:, None]
    positive = exceed[:, -1] > 0
    n_pos = np.count_nonzero(exceed > 0, axis=1)
    # weights so concentrated the tail underflows; unassessable
    khat[positive & (n_pos < _MIN_TAIL)] = math.inf
    valid = np.nonzero(positive & (n_pos >= _MIN_TAIL))[0]
    log_tail_probs = np.log1p(-(np.arange(m) + 0.5) / m)
    step = max(1, _GPD_CHUNK_BYTES // (8 * m * (30 + math.isqrt(m))))
    for start in range(0, valid.size, step):
        chunk = valid[start : start + step]
        k, sigma = _gpd_fit_rows(exceed[chunk])
        khat[chunk] = k
        smooth = np.isfinite(k) & (k >= 1.0 / 3.0)
        if not smooth.any():
            continue
        sm = chunk[smooth]
        ks = k[smooth][:, None]
        quantiles = sigma[smooth][:, None] * np.expm1(-ks * log_tail_probs[None, :]) / ks
        smoothed = np.log(quantiles + exp_cutoff[sm][:, None])
        lw[sm[:, None], tail_idx[sm]] = np.minimum(smoothed, 0.0)


def _psis_block(ll: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PSIS-LOO for a records-major block ``ll`` (records x draws).

    Returns the self-normalized smoothed log weights (records x draws), the
    pointwise ELPD and k-hat of each record; row by row they equal
    ``_psis_column`` up to rounding.
    """
    lw = np.negative(ll)
    lw -= lw.max(axis=1, keepdims=True)
    m = int(math.floor(_TAIL_FRACTION * ll.shape[1]))
    khat = np.full(ll.shape[0], -math.inf)
    if m >= _MIN_TAIL:
        _smooth_tails(lw, m, khat)
    scratch = np.empty_like(lw)
    lw -= _logsumexp_rows(lw, scratch)[:, None]
    np.add(lw, ll, out=scratch)
    return lw, _logsumexp_rows(scratch, scratch), khat


@dataclass
class ElpdResult:
    """ELPD estimate with its standard error and per-record contributions."""

    elpd: float
    se: float
    pointwise: np.ndarray
    method: str
    khat: np.ndarray | None = None
    flagged: tuple[int, ...] = ()


def _pointwise_se(pointwise: np.ndarray) -> float:
    n = pointwise.size
    if n < 2:
        return 0.0
    return float(math.sqrt(n * np.var(pointwise, ddof=1)))


def elpd_loo(
    ll: LogLikMatrix | None = None,
    method: str = "psis",
    *,
    fit: FitResult | None = None,
    draws: PosteriorDraws | None = None,
    records=None,
    problem=None,
    folds: int = 10,
    n_draws: int = 1000,
    seed: int = 0,
) -> ElpdResult:
    """Leave-one-out expected log predictive density.

    ``method="psis"`` estimates LOO from the draws alone (requires at least
    100 draws): either from the matrix ``ll`` or, when ``ll`` is None, by
    streaming record blocks of ``records`` under ``fit`` and ``draws``
    without building the matrix. ``method="exact_kfold"`` refits ``problem``
    on K training folds and scores each record out of fold; it needs the
    originating FitProblem and uses ``ll``, if given, only to check the
    record count.
    """
    if method == "psis":
        if ll is not None:
            (n_samples, n), blocks = ll.values.shape, _matrix_blocks(ll.values)
        elif fit is None or draws is None or records is None:
            raise ValueError("psis needs a log-likelihood matrix or fit, draws and records")
        else:
            (n_samples, n), blocks = (draws.draws.shape[0], len(records)), _loglik_blocks(fit, draws, records)
        if n_samples < 100:
            raise ValueError("psis requires at least 100 draws")
        pointwise = np.empty(n)
        khat = np.empty(n)
        for start, block in blocks:
            rows = slice(start, start + block.shape[0])
            _, pointwise[rows], khat[rows] = _psis_block(block)
        flagged = tuple(int(i) for i in np.nonzero(khat > KHAT_WARN)[0])
        if flagged:
            warnings.warn(
                f"PSIS tail index k-hat exceeds {KHAT_WARN} for {len(flagged)} "
                f"record(s); ELPD may be unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
        return ElpdResult(
            elpd=float(pointwise.sum()),
            se=_pointwise_se(pointwise),
            pointwise=pointwise,
            method="psis",
            khat=khat,
            flagged=flagged,
        )

    if method == "exact_kfold":
        if problem is None:
            raise ValueError("exact_kfold needs the originating FitProblem")
        records = problem.records
        n = len(records)
        if ll is not None and ll.n_records != n:
            raise ValueError("log-likelihood matrix does not match the problem's records")
        # pin spline knots on the full data so folds share one design
        from .inference import _Prepared

        spec = _Prepared(problem).spec
        base = replace(problem, spec=spec)
        assignment = np.arange(n) % folds
        pointwise = np.empty(n)
        for fold in range(folds):
            held = np.nonzero(assignment == fold)[0]
            if held.size == 0:
                continue
            train = [records[i] for i in np.nonzero(assignment != fold)[0]]
            sub = replace(base, records=train)
            fit = fit_map(sub)
            draws = laplace_draws(fit, n_draws, seed=seed + fold + 1)
            for start, block in _loglik_blocks(fit, draws, [records[i] for i in held]):
                rows = held[start : start + block.shape[0]]
                pointwise[rows] = _logsumexp_rows(block, block) - math.log(n_draws)
        return ElpdResult(
            elpd=float(pointwise.sum()),
            se=_pointwise_se(pointwise),
            pointwise=pointwise,
            method="exact_kfold",
        )

    raise ValueError(f"unknown ELPD method {method!r}")


def elpd_diff(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Paired ELPD difference sum(a - b) and its pointwise standard error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"pointwise vectors differ in length: {a.shape} vs {b.shape}")
    d = a - b
    return float(d.sum()), _pointwise_se(d)


def qq_rmse(observed, predictive, quantiles=DEFAULT_QUANTILES) -> float:
    """RMSE between observed and predictive quantiles across groups.

    ``observed`` and ``predictive`` map group keys to sample vectors; every
    observed group must be present and nonempty on both sides. Quantiles use
    linear interpolation of the empirical CDF (numpy's default, R type 7).
    """
    problems = []
    for key, obs in observed.items():
        if len(obs) == 0:
            problems.append(f"{key}: empty observed group")
        if key not in predictive:
            problems.append(f"{key}: missing predictive group")
        elif len(predictive[key]) == 0:
            problems.append(f"{key}: empty predictive group")
    if problems:
        raise ValueError("qq_rmse group problems: " + "; ".join(str(p) for p in problems))
    if not observed:
        raise ValueError("qq_rmse requires at least one group")

    qs = np.asarray(quantiles, dtype=float)
    errors = []
    for key in observed:
        q_obs = np.quantile(np.asarray(observed[key], dtype=float), qs)
        q_pred = np.quantile(np.asarray(predictive[key], dtype=float), qs)
        errors.append(q_obs - q_pred)
    stacked = np.concatenate(errors)
    return float(np.sqrt(np.mean(stacked**2)))


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    """One model's metrics inside a ranked comparison."""

    rank: int
    name: str
    elpd: float
    elpd_se: float
    elpd_diff: float
    diff_se: float
    qq_rmse: float
    converged: bool = True
    n_flagged: int = 0


@dataclass
class ComparisonReport:
    """Ranked model comparison (higher ELPD is better)."""

    rows: list[ComparisonRow]

    @classmethod
    def from_models(cls, entries) -> "ComparisonReport":
        """Build from (name, ElpdResult, qq_rmse, converged) tuples."""
        entries = list(entries)
        order = sorted(range(len(entries)), key=lambda i: -entries[i][1].elpd)
        best = entries[order[0]][1]
        rows = []
        for rank, i in enumerate(order, start=1):
            name, res, qq, converged = entries[i]
            if i == order[0]:
                diff, dse = 0.0, 0.0
            else:
                diff, dse = elpd_diff(res.pointwise, best.pointwise)
            rows.append(
                ComparisonRow(
                    rank=rank,
                    name=name,
                    elpd=res.elpd,
                    elpd_se=res.se,
                    elpd_diff=diff,
                    diff_se=dse,
                    qq_rmse=qq,
                    converged=converged,
                    n_flagged=len(res.flagged),
                )
            )
        return cls(rows=rows)

    def to_dicts(self) -> list[dict]:
        return [
            {
                "rank": r.rank,
                "model": r.name,
                "elpd": r.elpd,
                "elpd_diff": r.elpd_diff,
                "se_of_diff": r.diff_se,
                "qq_rmse": r.qq_rmse,
                "elpd_se": r.elpd_se,
                "converged": r.converged,
                "n_flagged": r.n_flagged,
            }
            for r in self.rows
        ]
