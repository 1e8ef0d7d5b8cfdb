"""Model comparison: ELPD (PSIS-LOO or exact k-fold), QQ RMSE, and the
ranking of models by ELPD (``rank_by_elpd``). QQ RMSE and compare-models'
curve bands read numpy's type-7 quantiles from one sort (``_sorted_quantiles``).

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

PSIS is independent per record, and a record's log likelihood is its
transformed outcome's log density, set by its design row and outcome, plus
its own log Jacobian, which no draw changes and which leaves the importance
ratios and k-hat as they are. So ``elpd_batch`` scores a batch of fits of
one family, transform and spec in one stream: each distinct (fit, design
row, outcome) key of ``inference._keys``, whose record counts weight the
fit's sums, once, in blocks of about ``_BLOCK_BYTES`` (keys x draws) that
may span fits, each through one kernel, which reads the m + 1 largest
weights as sorted values and fits and smooths the Pareto tails of a block's
rows of one tail length in one pass; a record takes its key's k-hat and
pointwise ELPD plus its log Jacobian. Memory is O(draws x block), work O(keys x draws).
Exact k-fold (``"kfold"``) fits the 10 folds of each problem (each fold
the problem, so its model, with the fold's records) as one
``inference.fit_map_batch``, draws ``n_draws`` per fold fit and scores the
held-out keys the same way; a mixed batch raises ValueError. One fit's
stream, transposed, is ``pointwise_loglik``'s array, which ``elpd_loo`` takes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .distributions import log_pdf_slots
from .inference import FitError, FitResult, _keys, _row_params, fit_map_batch, laplace_draws_batch

__all__ = [
    "ElpdResult",
    "pointwise_loglik",
    "elpd_loo",
    "elpd_batch",
    "elpd_diff",
    "rank_by_elpd",
    "qq_rmse",
    "KHAT_WARN",
]

# the quantiles qq_rmse compares
_DECILES = np.round(np.arange(0.1, 0.91, 0.1), 10)
KHAT_WARN = 0.7
# exact k-fold's fold count
_FOLDS = 10
_MIN_TAIL = 5
# bytes of log likelihood per streamed record block
_BLOCK_BYTES = 512 << 10
# scratch bytes per row chunk of the generalized Pareto profile fit
_GPD_CHUNK_BYTES = 512 << 10


def _block_rows(n_draws: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_draws))


def _stream(fits, draws, records, kernel, width, origins=None):
    """(values, errors) of a batch of fits of one family, transform and spec, fit f
    scoring ``records[f]`` under its draws ``draws[f]``.

    The distinct (fit, design row, outcome) keys are scored in ascending order,
    in C-contiguous blocks (keys x draws) of at most ``_block_rows`` keys that
    may span fits: row j holds key j's outcome log density (no Jacobian) under
    each draw of its fit, and each fit's part of a block links only the
    distinct design rows of its keys there. ``kernel`` maps a block to
    ``width`` per-key rows. ``values[f]`` holds those rows at fit f's records
    and its records' log Jacobians, which the caller adds. A fit with a
    non-finite entry leaves the stream: ``errors[f]`` names its lowest such
    record (as ``origins[f][i]``, when given) and its first such draw.
    """
    if not fits:
        return [], []
    design, key_fit, key_row, y, _, first, inverse, jacobian, bounds = _keys(fits, records)
    out, errors, bad = np.empty((width, first.size)), [None] * len(fits), {}
    step = _block_rows(draws[0].shape[0])
    for start in range(0, first.size, step):
        rows, pieces = np.arange(start, min(start + step, first.size)), []
        for f in range(key_fit[rows[0]], key_fit[rows[-1]] + 1):
            # the family parameters at fit f's design rows in the block under its own draws, gathered
            # per key unless one row broadcasts; each fit's temporaries are its own keys' size
            mine = rows[key_fit[rows] == f]
            linked, local = np.unique(key_row[mine], return_inverse=True)
            params = _row_params(fits[f], {s: m[linked] for s, m in design.items()}, draws[f])
            params = [np.take(p, local, axis=0) for p in params] if linked.size > 1 else params
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                pieces.append(log_pdf_slots(fits[f].family, y[mine, None], *params))
            del params
        # the previous block stays alive until here: freeing it before building
        # this one makes the heap trim and re-fault for every block
        block = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        del pieces
        for j in np.flatnonzero(~np.isfinite(block).all(axis=1)):
            f = key_fit[rows[j]]  # a later block may hold a lower record, so the rest are still scored
            bad[f] = min(bad.get(f, (math.inf, 0)), (first[rows[j]] - bounds[f], int(np.argmin(np.isfinite(block[j])))))
        if bad:
            keep = ~np.isin(key_fit[rows], list(bad))
            rows, block = rows[keep], block[keep]
        if rows.size:
            out[:, rows] = kernel(block)
    for f, (i, d) in bad.items():
        r, name = records[f], i if origins is None else origins[f][i]
        values = ", ".join(f"{c}={getattr(r, c)[i]}" for c in ("respondent_age", "respondent_sex", "partner_age"))
        errors[f] = ValueError(f"non-finite log likelihood at draw {d}, record {name} ({values})")
    ends = bounds[1:-1]
    return list(zip(np.split(out[:, inverse], ends, axis=1), np.split(jacobian, ends))), errors


def pointwise_loglik(fit: FitResult, draws: np.ndarray, records) -> np.ndarray:
    """Jacobian-adjusted log likelihoods of ``records`` under ``fit``.

    Returns an (n_draws, n_records) array whose entry (d, i) is the log
    density of record i's partner age under draw d. Any non-finite entry
    raises, naming the offending record and draw.
    """
    ((out, jacobian),), (error,) = _stream([fit], [draws], [records], np.transpose, draws.shape[0])
    if error:
        raise error
    out += jacobian
    return out


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

    Only the (rows, grid, n) profile scratch is filled a row chunk of about
    ``_GPD_CHUNK_BYTES`` at a time, into one reused buffer; the rest is
    row-wise over all rows, so a row's fit is the same however it is chunked.
    """
    rows, n = x.shape
    m = 30 + int(math.isqrt(n))
    idx = np.arange(1.0, m + 1.0)
    bs0 = 1.0 - np.sqrt(m / (idx - 0.5))
    step = max(1, _GPD_CHUNK_BYTES // (8 * m * n))
    buf, ks = np.empty((min(step, rows), m, n)), np.empty((rows, m))
    # subnormal exceedances overflow bs; a row whose profile turns NaN here
    # ends with k = NaN, mapped to inf below
    with np.errstate(over="ignore", invalid="ignore"):
        bs = bs0[None, :] / (3.0 * x[:, n // 4][:, None]) + 1.0 / x[:, -1][:, None]
        for start in range(0, rows, step):
            part = buf[: min(step, rows - start)]
            np.einsum("rm,rn->rmn", -bs[start : start + step], x[start : start + step], out=part)
            np.log1p(part, out=part)
            ks[start : start + step] = part.mean(axis=2)
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


def _psis_block(ll: np.ndarray, scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """PSIS-LOO for a records-major block ``ll`` (records x draws); ``scratch``
    (same shape, may be ``ll`` itself) holds the log weights, allocated when not given.

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
    lw = np.subtract(low[:, None], ll, out=scratch)  # equal to -ll - max(-ll)
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
    for n in np.unique(n_pos[n_pos >= _MIN_TAIL]):  # one pass per tail length
        rows = np.nonzero(n_pos == n)[0]
        k, sigma = _gpd_fit_rows(exceed[rows, m - n :])
        khat[rows] = k
        smooth = np.isfinite(k) & (k >= 1.0 / 3.0)
        if not smooth.any():
            continue
        sm, ks = rows[smooth], k[smooth][:, None]
        log_tail_probs = np.log1p(-(np.arange(n) + 0.5) / n)
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
    np.copyto(lw, -math.inf, where=lw >= lowest_smoothed[:, None])  # inf where a row smooths none
    log_norm = np.log(np.exp(lw, out=lw).sum(axis=1) + smoothed_sum)
    return log_ratio + low - log_norm, khat


@dataclass
class ElpdResult:
    """ELPD estimate with its standard error and per-record contributions."""

    elpd: float
    se: float
    pointwise: np.ndarray
    khat: np.ndarray | None = None
    flagged: tuple[int, ...] = ()


def _pointwise_se(pointwise: np.ndarray) -> float:
    n = pointwise.size
    if n < 2:
        return 0.0
    return float(math.sqrt(n * np.var(pointwise, ddof=1)))


def _result(pointwise: np.ndarray, khat: np.ndarray | None = None) -> ElpdResult:
    flagged = () if khat is None else tuple(int(i) for i in np.nonzero(khat > KHAT_WARN)[0])
    return ElpdResult(float(pointwise.sum()), _pointwise_se(pointwise), pointwise, khat, flagged)


def _warn_flagged(results) -> None:
    """A RuntimeWarning, at the caller's caller, per result with flagged records, in order."""
    for res in results:
        if not isinstance(res, Exception) and res.flagged:
            warnings.warn(f"PSIS tail index k-hat exceeds {KHAT_WARN} for {len(res.flagged)} record(s); "
                          "ELPD may be unreliable", RuntimeWarning, stacklevel=3)


def _kfold(problems, n_draws: int, seeds) -> list:
    """Exact k-fold ELPD of each problem; all problems' fold fits are fitted, drawn and scored together."""
    errors, fold_problems, fold_of = [None] * len(problems), [], []
    for c, (problem, seed) in enumerate(zip(problems, seeds)):
        records = problem.records
        if len(records) == 1:  # its one fold would train on no records
            errors[c] = FitError("fit_map requires at least one record")
        assignment = np.arange(len(records)) % _FOLDS
        for fold in range(min(_FOLDS, len(records)) if errors[c] is None else 0):
            fold_problems.append(replace(problem, records=records[assignment != fold]))
            fold_of.append((c, np.flatnonzero(assignment == fold), seed + fold + 1))
    fits = fit_map_batch(fold_problems)
    draws = laplace_draws_batch(fits, n_draws, [seed for *_, seed in fold_of])  # then each fold's error
    live = [k for k, d in enumerate(draws) if not isinstance(d, Exception)]
    pointwise, held = [np.empty(len(p.records)) for p in problems], [fold_of[k][:2] for k in live]
    values, stream_errors = _stream(
        [fits[k] for k in live], [draws[k] for k in live], [problems[c].records[h] for c, h in held],
        lambda block: _logsumexp_rows(block, block) - math.log(n_draws), 1, [h for _, h in held])
    for k, (c, h), error, (v, jacobian) in zip(live, held, stream_errors, values):
        draws[k], pointwise[c][h] = error, v[0] + jacobian
    for (c, *_), d in zip(fold_of, draws):  # a problem fails with its first failing fold
        errors[c] = errors[c] or (d if isinstance(d, Exception) else None)
    return [e or _result(p) for e, p in zip(errors, pointwise)]


def elpd_batch(method: str, *, fits=(), draws=(), records=(), problems=(), n_draws: int = 1000, seeds=()) -> list:
    """ELPD of each fit of a batch of one family, transform and spec (else
    ValueError): per fit its ElpdResult, or the exception that stopped it.

    ``method="psis"`` estimates fit f's LOO from its draws ``draws[f]`` (at least 100) on
    ``records[f]``; ``method="kfold"`` refits problem f on 10 training folds, draws ``n_draws``
    per fold fit from seed ``seeds[f] + fold + 1`` and scores each record out of fold. Either way
    one stream scores the batch; an empty batch gives []. Each fit with flagged records gets a
    k-hat RuntimeWarning."""
    if method == "psis":
        if draws and draws[0].shape[0] < 100:
            raise ValueError("psis requires at least 100 draws")
        values, errors = _stream(fits, draws, records, lambda block: _psis_block(block, block), 2)
        results = [e or _result(v[0] + jacobian, v[1]) for e, (v, jacobian) in zip(errors, values)]
    elif method == "kfold":
        results = _kfold(problems, n_draws, seeds)
    else:
        raise ValueError(f"unknown ELPD method {method!r}")
    _warn_flagged(results)
    return results


def elpd_loo(ll: np.ndarray) -> ElpdResult:
    """PSIS-LOO expected log predictive density from the (n_draws, n_records)
    log-likelihood array ``ll`` (at least 100 draws), scored in records-major
    blocks as ``elpd_batch`` scores its stream."""
    if ll.shape[0] < 100:
        raise ValueError("psis requires at least 100 draws")
    pointwise, khat, step = np.empty(ll.shape[1]), np.empty(ll.shape[1]), _block_rows(ll.shape[0])
    for start in range(0, ll.shape[1], step):
        rows = slice(start, start + step)
        pointwise[rows], khat[rows] = _psis_block(np.ascontiguousarray(ll[:, rows].T))
    res = _result(pointwise, khat)
    _warn_flagged([res])
    return res


def elpd_diff(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Paired ELPD difference sum(a - b) and its pointwise standard error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"pointwise vectors differ in length: {a.shape} vs {b.shape}")
    d = a - b
    return float(d.sum()), _pointwise_se(d)


def _sorted_quantiles(rows: np.ndarray, q) -> np.ndarray:
    """``np.quantile(rows, q, axis=-1)`` (linear, type 7) of rows that ascend along the last axis, by
    numpy's own formulas with no partition: (len(q), *rows.shape[:-1])."""
    n = rows.shape[-1]
    virtual = (n - 1) * np.asarray(q, dtype=float)
    below = np.floor(virtual).astype(np.intp)
    below[virtual >= n - 1] = -1  # at the last value both neighbours are the last, as in numpy
    above = np.where(below < 0, -1, below + 1)
    t = (virtual - below).reshape(-1, *[1] * (rows.ndim - 1))
    a, b = np.moveaxis(rows[..., below], -1, 0), np.moveaxis(rows[..., above], -1, 0)
    diff = b - a  # numpy's _lerp, from whichever neighbour is nearer
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, np.nan, where=np.isnan(rows[..., -1]))  # NaN sorts last
    return out


def qq_rmse(observed, predictive) -> float:
    """RMSE between observed and predictive deciles (0.1, ..., 0.9) across groups.

    ``observed`` and ``predictive`` map group keys to sample vectors; every
    observed group must be present and nonempty on both sides. Quantiles use
    linear interpolation of the empirical CDF (numpy's default, R type 7).

    Infinite predictive samples (partner ages that overflow the inverse
    transform) sort to the ends, so the deciles, which read only order
    statistics between ranks floor(0.1 (n - 1)) and floor(0.9 (n - 1)) + 1,
    stay finite while fewer than about 10% of a group's n samples are
    infinite on either side. A quantile that still
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

    errors = []
    for key in observed:
        q_obs = _sorted_quantiles(np.sort(np.asarray(observed[key], dtype=float)), _DECILES)
        with np.errstate(invalid="ignore"):  # inf - inf when reading infinite samples
            error = q_obs - _sorted_quantiles(np.sort(np.asarray(predictive[key], dtype=float)), _DECILES)
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
