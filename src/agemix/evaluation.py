"""Model comparison: ELPD (PSIS-LOO or exact k-fold), QQ RMSE, and the
ranking of models by ELPD (``rank_by_elpd``).

Pointwise log likelihoods are always evaluated on the partner-age scale by
adding the log Jacobian of the dependent-variable transform, which makes
ELPD values comparable across models fit on different outcome
parametrisations.

The PSIS estimator smooths, per record, the largest
M = ceil(min(S / 5, 3 sqrt(S))) of its S importance weights (the tail length
of Vehtari et al. 2024 and of the loo package) by an empirical-Bayes
generalized Pareto fit (Zhang & Stephens style) to those that exceed the
cutoff, the next-largest weight clamped at the smallest normal double;
it truncates the smoothed weights at the largest raw weight and reports the
Pareto tail index k-hat per record. A record with fewer than five such draws
gets k-hat = inf; records with k-hat > 0.7 are flagged as unreliable.
Standard errors follow the usual pointwise convention
se = sqrt(n * var(pointwise)).

PSIS is independent per record, so ``elpd_loo`` streams blocks of records
(records x draws, about ``_BLOCK_BYTES`` each) from the fit through one
kernel and keeps only the pointwise ELPD and k-hat: memory is
O(draws x block), not O(records x draws). A record's log likelihood is its
transformed outcome's log density, set by its design row and outcome, plus
its own log Jacobian, which no draw changes and which thus leaves the
importance ratios and k-hat as they are. The stream therefore scores each
distinct (design row, outcome) key once; a record takes its key's k-hat and
pointwise ELPD plus its log Jacobian: work is O(keys x draws). Keys ascend
by design row, so a block links only the rows it spans, each about once per
fit; the kernel reads the m + 1 largest weights as sorted values, not draws.
Exact k-fold fits its folds as one ``inference.fit_map_batch``, draws
``n_draws`` per fold fit and scores its held-out keys the same way.
``pointwise_loglik`` builds the full, Jacobian-adjusted (draws x records)
array from the same blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import transforms
from .distributions import log_pdf_slots
from .inference import FitResult, _design_cells, _row_params, fit_map_batch, laplace_draws

__all__ = [
    "ElpdResult",
    "pointwise_loglik",
    "elpd_loo",
    "elpd_diff",
    "rank_by_elpd",
    "qq_rmse",
    "DEFAULT_QUANTILES",
    "KHAT_WARN",
]

DEFAULT_QUANTILES = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10))
KHAT_WARN = 0.7
_MIN_TAIL = 5
# bytes of log likelihood per streamed record block
_BLOCK_BYTES = 2 << 20
# scratch bytes per row chunk of the generalized Pareto profile fit
_GPD_CHUNK_BYTES = 1 << 20


def _block_rows(n_draws: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_draws))


def _keys(fit: FitResult, records):
    """(design, row, y, first, inverse) over the distinct (design row, outcome) keys of ``records``
    under ``fit``, whose records share one outcome-scale log density under every draw. ``design``
    maps each slot to the fit's distinct centered design rows; key j, in (row, outcome) order, has
    design row ``row[j]``, outcome ``y[j]`` and first record ``first[j]``; record i has key ``inverse[i]``."""
    ages, sexes, partners = records.respondent_age, records.respondent_sex, records.partner_age
    # design rows are found per (age, sex) cell, of which there are few
    mats, cell_of = _design_cells(fit.spec, fit.slots, ages, sexes, center=True)
    _, cell, row_of = np.unique(np.hstack([mats[s] for s in fit.slots]), axis=0, return_index=True, return_inverse=True)
    y = transforms.forward_array(fit.transform, ages, sexes, partners)
    # (design row, outcome) pairs keyed as complex numbers, as in inference._design_cells;
    # the shape of row_of, an inverse over rows, differs between numpy versions
    row_of = row_of.ravel()[cell_of]
    _, first, inverse = np.unique(row_of + 1j * y, return_index=True, return_inverse=True)
    return {slot: mats[slot][cell] for slot in fit.slots}, row_of[first], y[first], first, inverse


def _loglik_blocks(fit: FitResult, draws: np.ndarray, records, keys=None, origin=None):
    """Yield (start, block): log likelihoods of consecutive blocks of the keys
    ``_keys(fit, records)`` (or ``keys``, when given).

    ``block`` is C-contiguous (keys x draws); entry (j, d) is the log density
    of key ``start + j``'s outcome (no Jacobian) under draw d. Keys ascend by
    design row, so a block links only the rows it spans, at most one per key.
    Any non-finite entry raises, naming the lowest record with one and its
    first such draw; ``origin[i]``, when given, is the index the message gives
    record i.
    """
    design, row, y, first, _ = _keys(fit, records) if keys is None else keys
    step = _block_rows(draws.shape[0])
    bad = []
    for start in range(0, first.size, step):
        rows = slice(start, start + step)
        r0, r1 = row[rows][[0, -1]]
        span = {slot: mats[r0 : r1 + 1] for slot, mats in design.items()}
        params = [np.take(p, row[rows] - r0, axis=0) for p in _row_params(fit, span, draws)]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            block = log_pdf_slots(fit.family, y[rows, None], *params)
        del params  # only the block stays alive while the caller holds it
        if not np.all(np.isfinite(block)):
            # a later block may hold a lower record, so the rest are still scored
            j, d = np.nonzero(~np.isfinite(block))
            lowest = np.argmin(first[start + j])  # at its first non-finite draw
            bad.append((first[start + j[lowest]], d[lowest]))
        elif not bad:
            yield start, block
    if bad:
        i, d = min(bad)
        ages, sexes, partners = records.respondent_age, records.respondent_sex, records.partner_age
        raise ValueError(
            f"non-finite log likelihood at draw {d}, record {i if origin is None else origin[i]} "
            f"(respondent_age={ages[i]}, respondent_sex={sexes[i]}, partner_age={partners[i]})"
        )


def _log_jacobian(fit: FitResult, records) -> np.ndarray:
    """Each record's log Jacobian, which takes its outcome's log density to the partner-age scale."""
    return transforms.log_jacobian_array(fit.transform, records.respondent_age, records.respondent_sex, records.partner_age)


def _matrix_blocks(values: np.ndarray):
    """Yield (start, block) records-major blocks of a (draws x records) matrix."""
    step = _block_rows(values.shape[0])
    for start in range(0, values.shape[1], step):
        yield start, np.ascontiguousarray(values[:, start : start + step].T)


def pointwise_loglik(fit: FitResult, draws: np.ndarray, records) -> np.ndarray:
    """Jacobian-adjusted log likelihoods of ``records`` under ``fit``.

    Returns an (n_draws, n_records) array whose entry (d, i) is the log
    density of record i's partner age under draw d. Any non-finite entry
    raises, naming the offending record and draw.
    """
    *_, inverse = keys = _keys(fit, records)
    out = np.empty((len(records), draws.shape[0]))
    for start, block in _loglik_blocks(fit, draws, records, keys):
        mine = (inverse >= start) & (inverse < start + block.shape[0])
        out[mine] = block[inverse[mine] - start]
    out += _log_jacobian(fit, records)[:, None]
    return out.T


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


def _gpd_fit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise generalized Pareto fits; x is (rows, n), positive and ascending per row.

    The (rows, grid, n) profile scratch lives in one buffer, so callers pass
    row chunks of about ``_GPD_CHUNK_BYTES``.
    """
    rows, n = x.shape
    m = 30 + int(math.isqrt(n))
    idx = np.arange(1.0, m + 1.0)
    bs0 = 1.0 - np.sqrt(m / (idx - 0.5))
    bs = bs0[None, :] / (3.0 * x[:, n // 4][:, None]) + 1.0 / x[:, -1][:, None]
    buf = np.empty((rows, m, n))
    np.einsum("rm,rn->rmn", -bs, x, out=buf)
    # a row whose profile turns NaN here ends with k = NaN, mapped to inf below
    with np.errstate(invalid="ignore"):
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
    k[np.isnan(k)] = math.inf  # a degenerate profile (subnormal exceedances); unassessable
    return k, sigma


def _tail_length(n_draws: int) -> int:
    """Pareto tail length M = ceil(min(S / 5, 3 sqrt(S))) for S draws.

    The rule of Vehtari et al. (2024, JMLR) and of the loo package: 95 of
    1000 draws, 190 of 4000.
    """
    return math.ceil(min(n_draws / 5, 3.0 * math.sqrt(n_draws)))


def _psis_block(ll: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PSIS-LOO for a records-major block ``ll`` (records x draws).

    Returns the pointwise ELPD and k-hat of each record; row by row they equal
    the record-at-a-time reference in ``tests/psis_reference.py`` up to
    rounding. Log weights are max-shifted to 0. A row's tail is those of its
    ``m`` largest weights that exceed the cutoff, the next-largest weight
    clamped at the smallest normal double. The kernel works on the sorted
    values of each row's m + 1 largest weights alone: which draw holds a tail
    value never enters the estimate, which needs only sums over the tail.
    """
    s = ll.shape[1]
    m = _tail_length(s)
    low = ll.min(axis=1)
    lw = low[:, None] - ll  # equal to -ll - max(-ll)
    # the m + 1 largest log weights per row, ascending: cutoff, then the tail
    vals = np.sort(np.partition(lw, s - m - 1, axis=1)[:, s - m - 1 :], axis=1)
    tail = vals[:, 1:]
    exp_cutoff = np.exp(np.maximum(vals[:, 0], math.log(np.finfo(float).tiny)))
    exceed = np.exp(tail) - exp_cutoff[:, None]
    # only the positive exceedances enter the fit, as in ArviZ: draws tied with
    # the cutoff or below the floating-point floor stay raw; exceed ascends, so
    # a row's n positive ones are its last n columns
    n_pos = np.count_nonzero(exceed > 0, axis=1)
    khat = np.full(ll.shape[0], -math.inf)
    khat[(n_pos > 0) & (n_pos < _MIN_TAIL)] = math.inf  # too few to assess
    # log sum over draws of smoothed / raw weight, log(S) where nothing is smoothed
    log_ratio = np.full(ll.shape[0], math.log(s))
    # each row's smallest smoothed raw weight (inf where none is) and smoothed weight sum
    lowest_smoothed, smoothed_sum = np.full(ll.shape[0], math.inf), np.zeros(ll.shape[0])
    for n in np.unique(n_pos[n_pos >= _MIN_TAIL]):
        rows = np.nonzero(n_pos == n)[0]
        log_tail_probs = np.log1p(-(np.arange(n) + 0.5) / n)
        step = max(1, _GPD_CHUNK_BYTES // (8 * n * (30 + math.isqrt(n))))
        for start in range(0, rows.size, step):
            chunk = rows[start : start + step]
            k, sigma = _gpd_fit_rows(exceed[chunk, m - n :])
            khat[chunk] = k
            smooth = np.isfinite(k) & (k >= 1.0 / 3.0)
            if not smooth.any():
                continue
            sm = chunk[smooth]
            ks = k[smooth][:, None]
            quantiles = sigma[smooth][:, None] * np.expm1(-ks * log_tail_probs[None, :]) / ks
            smoothed = np.minimum(np.log(quantiles + exp_cutoff[sm][:, None]), 0.0)
            lowest_smoothed[sm], smoothed_sum[sm] = tail[sm, m - n], np.exp(smoothed).sum(axis=1)
            # the s - n raw draws add a ratio of 1 each
            ratio = smoothed - tail[sm, m - n :]
            top_ratio = np.maximum(ratio.max(axis=1), 0.0)
            np.exp(ratio - top_ratio[:, None], out=ratio)
            log_ratio[sm] = top_ratio + np.log((s - n) * np.exp(-top_ratio) + ratio.sum(axis=1))
    # elpd = log sum exp(lw + ll) - log sum exp(lw). Where lw is raw, lw + ll is
    # low, so the first term is log_ratio + low. A row's smoothed draws are
    # those at or above its lowest smoothed raw weight, so the normaliser sums
    # the raw draws below it, in draw order, and the smoothed weights; all are
    # at most 1 and some at least the clamped cutoff, so it needs no shift
    sm = np.flatnonzero(np.isfinite(lowest_smoothed))
    lw[sm] = np.where(lw[sm] >= lowest_smoothed[sm, None], -math.inf, lw[sm])
    log_norm = np.log(np.exp(lw, out=lw).sum(axis=1) + smoothed_sum)
    return log_ratio + low - log_norm, khat


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
    ll: np.ndarray | None = None,
    method: str = "psis",
    *,
    fit: FitResult | None = None,
    draws: np.ndarray | None = None,
    records=None,
    problem=None,
    folds: int = 10,
    n_draws: int = 1000,
    seed: int = 0,
) -> ElpdResult:
    """Leave-one-out expected log predictive density.

    ``method="psis"`` estimates LOO from the draws alone (requires at least
    100 draws): either from the (n_draws, n_records) array ``ll`` or, when
    ``ll`` is None, by streaming record blocks of the distinct (design row,
    outcome) keys of ``records`` under ``fit`` and ``draws`` without
    building the array.
    ``method="exact_kfold"`` refits ``problem`` on K training folds and
    scores each record out of fold; it needs the originating FitProblem and
    uses ``ll``, if given, only to check the record count.
    """
    if method == "psis":
        if ll is not None:
            (n_samples, n), blocks = ll.shape, _matrix_blocks(ll)
            inverse = slice(None)
        elif fit is None or draws is None or records is None:
            raise ValueError("psis needs a log-likelihood matrix or fit, draws and records")
        else:
            *_, first, inverse = keys = _keys(fit, records)
            n_samples, n = draws.shape[0], first.size
            blocks = _loglik_blocks(fit, draws, records, keys)
        if n_samples < 100:
            raise ValueError("psis requires at least 100 draws")
        pointwise = np.empty(n)
        khat = np.empty(n)
        for start, block in blocks:
            rows = slice(start, start + block.shape[0])
            pointwise[rows], khat[rows] = _psis_block(block)
        pointwise, khat = pointwise[inverse], khat[inverse]
        if ll is None:
            pointwise += _log_jacobian(fit, records)
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
        if ll is not None and ll.shape[1] != n:
            raise ValueError("log-likelihood matrix does not match the problem's records")
        # pin spline knots on the full data so folds share one design
        base = replace(problem, spec=problem.spec.with_knots_from_ages(records.respondent_age))
        assignment = np.arange(n) % folds
        pointwise = np.empty(n)
        used = [fold for fold in range(folds) if np.any(assignment == fold)]
        fits = fit_map_batch([replace(base, records=records[assignment != fold]) for fold in used])
        for fold, fit in zip(used, fits):
            held = np.nonzero(assignment == fold)[0]
            draws = laplace_draws(fit, n_draws, seed=seed + fold + 1)
            *_, first, inverse = keys = _keys(fit, records[held])
            scores = np.empty(first.size)
            for start, block in _loglik_blocks(fit, draws, records[held], keys, origin=held):
                scores[start : start + block.shape[0]] = _logsumexp_rows(block, block) - math.log(n_draws)
            pointwise[held] = scores[inverse] + _log_jacobian(fit, records[held])
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

    Infinite predictive samples (partner ages that overflow the inverse
    transform) sort to the ends, so the default 0.1-0.9 quantiles, which read
    only order statistics between ranks floor(0.1 (n - 1)) and
    floor(0.9 (n - 1)) + 1, stay finite while fewer than about 10% of a
    group's n samples are infinite on either side. A quantile that still
    comes out non-finite raises ValueError naming the group.
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
        # np.quantile partitions once per order statistic, which is fast
        # on sorted input, so one sort first gives the same values sooner
        q_obs = np.quantile(np.sort(np.asarray(observed[key], dtype=float)), qs)
        with np.errstate(invalid="ignore"):  # inf - inf when reading infinite samples
            error = q_obs - np.quantile(np.sort(np.asarray(predictive[key], dtype=float)), qs)
        if not np.all(np.isfinite(error)):
            raise ValueError(f"qq_rmse: non-finite quantile in group {key}")
        errors.append(error)
    stacked = np.concatenate(errors)
    return float(np.sqrt(np.mean(stacked**2)))


# ---------------------------------------------------------------------------
# comparison ranking
# ---------------------------------------------------------------------------


def rank_by_elpd(entries) -> list[dict]:
    """Rank (name, ElpdResult, qq_rmse, converged) entries, best ELPD first.

    Each row holds the model's rank, its ELPD and the paired difference to
    the best model with that difference's standard error. The sort is
    stable, so entries with equal ELPD keep their given order.
    """
    entries = sorted(entries, key=lambda e: -e[1].elpd)
    rows = []
    for rank, (name, res, qq, converged) in enumerate(entries, start=1):
        diff, dse = (0.0, 0.0) if rank == 1 else elpd_diff(res.pointwise, entries[0][1].pointwise)
        rows.append(
            {
                "rank": rank,
                "model": name,
                "elpd": res.elpd,
                "elpd_diff": diff,
                "se_of_diff": dse,
                "qq_rmse": qq,
                "elpd_se": res.se,
                "converged": converged,
                "n_flagged": len(res.flagged),
            }
        )
    return rows
