"""MAP fitting of distributional regression models with Gaussian posteriors.

The posterior combines the per-record log density of the transformed outcome
with one fixed N(0, 5^2) prior (``PRIOR_SD``) on every regression coefficient
(including the prior normalizing constants, so objective values are
comparable across dimensionalities). Coefficients act on the *centered*
design (linear-age columns shifted by ``design.AGE_CENTER``);
``FitResult.coef`` translates a slot's block back to the uncentered scale,
which is an exact linear reparameterization. Posterior draws are plain
(draws, coefficients) arrays in the fit's packed order; ``laplace_draws_batch``
draws them for a batch of fits through one stacked Cholesky factorisation and
solve, each fit from its own seed. ``_row_params`` maps draws to family
parameters at design rows: once per distinct (age, sex) cell for
``draw_params``, the parameter curves and the predictive samples, and per
design row in the ELPD blocks. ``_stack`` is the one place that stacks a
batch's record sets and builds their cells' design rows, once per batch, and
``_keys`` the one place that forms their distinct (model, design row,
transformed outcome) keys with record counts, for the fit and the ELPD stream.

Optimization is damped Newton on the exact Hessian of the negative log
posterior. One pass, ``_evaluate``, maps coefficients to linear predictors
and family parameters and takes per key log f (the density
``distributions.log_pdf_slots`` gives the ELPD layer) with its closed-form
first and second derivatives in the linear predictors; it sums them, times
each key's record count, into each cell's value, gradient and Hessian
sum_ab X_a' diag(count w_ab) X_b, and then adds the prior's value, gradient
and precision. Steps solve the Hessian system (with a Levenberg shift where
its Cholesky factorisation fails) under a backtracking (Armijo) line search,
and an accepted trial point keeps the Hessian its pass gave; non-finite
objective values act as +inf sentinels that the line search backs away from.
The Hessian at the optimum is the curvature of the Gaussian (Laplace)
approximation that posterior draws come from.

A batch is one model: one family, transform and spec, and every batch stage
raises ValueError on a mixed one (``_stack``). ``fit_map_batch`` fits such
problems as one batch of cells: each Newton iteration evaluates every cell
at once (each cell's sums and products over its own keys, in key order) and
solves their systems with numpy's stacked ``linalg``, while each cell keeps
its own step, shift and stopping test. A cell's fit thus equals its
batch-of-one fit, bit for bit, in any record order, and ``fit_map`` is the
batch of one: there is one Newton path. On the ``perfbench`` inputs, the 168
``compare-distributions`` fits hold 2,671 keys for 4,074 records, and the
five ``compare-models`` fits 8,665 for 15,000.

A family's links, its log f derivatives (``distributions._DERIVS``) and its
moment start (``distributions._start``) live in ``distributions``; the linear
algebra is numpy's, so this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transforms
from .data_io import Records
from .design import ModelSpec, _design_cells, _unique_pairs, uncenter_matrix
from .distributions import _DERIVS, Family, _natural_params, _start, linpred_slots, sample_slots
from .transforms import Transform

__all__ = [
    "FitProblem",
    "FitResult",
    "FitError",
    "neg_log_posterior_and_grad",
    "fit_map",
    "fit_map_batch",
    "laplace_draws",
    "laplace_draws_batch",
    "draw_params",
    "posterior_predictive",
    "predictive_for_records",
    "predictive_batch",
]

PRIOR_SD = 5.0  # every coefficient's prior is N(0, PRIOR_SD^2)
# a fit has converged when its gradient's largest entry is below this
GRAD_TOL = 1e-6


class FitError(RuntimeError):
    """Fitting could not produce a usable result."""


@dataclass
class FitProblem:
    """One model to fit: family + transform + design spec + data. A spline
    spec without knots gets them at quantiles of the records' respondent ages
    when the problem is made (``ModelSpec.with_knots_from_ages``); one with
    knots keeps them, so ``replace(problem, records=fold)`` keeps the full data's."""

    family: Family
    transform: Transform
    spec: ModelSpec
    records: Records

    def __post_init__(self):
        self.spec = self.spec.with_knots_from_ages(self.records.respondent_age)


class _Prepared:
    """Arrays shared by objective, gradient and Hessian evaluations of one
    problem, or of a batch of problems of one family, transform and spec: its
    cells' keys, each key's outcome ``y``, design rows ``X``, record ``count``
    and problem.
    A cell's sums and products run over its own segment of them, so a
    non-finite key value stays in its cell.
    Coefficients are (dim,) for one problem and (cells, dim) for a batch.
    """

    def __init__(self, problems):
        batch = not isinstance(problems, FitProblem)
        problems = list(problems) if batch else [problems]
        self.problem, self.slots = problems[0], linpred_slots(problems[0].family)
        design, self.problem_of, row, self.y, self.count, *_ = _keys(problems, [p.records for p in problems])
        self.X = {slot: design[slot][row] for slot in self.slots}
        bounds = np.searchsorted(self.problem_of, np.arange(len(problems) + 1))
        self.segments, self.starts = list(zip(bounds[:-1], bounds[1:])), bounds[:-1]
        ends = np.cumsum([self.X[slot].shape[1] for slot in self.slots]).tolist()
        self.offsets = {slot: (end - self.X[slot].shape[1], end) for slot, end in zip(self.slots, ends)}
        self.dim = ends[-1]
        self.coef_shape = (len(problems), self.dim) if batch else (self.dim,)

    def etas(self, b: np.ndarray) -> dict[str, np.ndarray]:
        """Linear predictors of every key under its cell's row of ``b``."""
        b = b.reshape(-1, self.dim)[self.problem_of]
        return {slot: np.einsum("kj,kj->k", self.X[slot], b[:, lo:hi]) for slot, (lo, hi) in self.offsets.items()}

    def products(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-cell products a_c' b_c of key-row blocks ``a`` (n, p) and
        ``b`` (n, q), as a (cells, p, q) stack. Intercept-only blocks (p = q =
        1) take segment sums of a * b; wider ones one matmul per cell, which
        beats summing the (n, p, q) outer products."""
        if a.shape[1] == b.shape[1] == 1:
            return np.add.reduceat(a * b, self.starts)[:, :, None]
        return np.stack([a[lo:hi].T @ b[lo:hi] for lo, hi in self.segments])


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _evaluate(prep: _Prepared, b: np.ndarray):
    """Value, gradient and exact Hessian of each cell's negative log posterior
    at its row of the coefficients ``b``, from one pass over the keys.

    A cell's value is +inf where its likelihood is non-finite, and its
    gradient and Hessian are NaN-free only where its value is finite. Per slot
    pair (a, b) the Hessian adds -X_a' diag(count w_ab) X_b over the cell's
    keys, with w_ab the per-key second derivatives of log f.
    """
    b = b.reshape(-1, prep.dim)
    value, grad, hess = np.zeros(len(b)), np.zeros_like(b), np.zeros((len(b), prep.dim, prep.dim))
    # inf and NaN can arise at near-overflow trial points the line search is about to reject
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if prep.y.size:
            family = prep.problem.family
            logf, dl, d2l = _DERIVS[family](prep.y, *_natural_params(family, prep.etas(b)))
            total = np.add.reduceat(prep.count * logf, prep.starts)
            finite = np.isfinite(total)
            value = np.where(finite, -total, math.inf)
            lik_grad = np.hstack([prep.products(prep.X[s], (prep.count * dl[s])[:, None])[..., 0] for s in prep.slots])
            grad = np.where(finite[:, None], -lik_grad, 0.0)
            for (sa, sb), w in d2l.items():
                (a0, a1), (b0, b1) = prep.offsets[sa], prep.offsets[sb]
                block = prep.products(prep.X[sa], (prep.count * w)[:, None] * prep.X[sb])
                hess[:, a0:a1, b0:b1] = -block
                hess[:, b0:b1, a0:a1] = -block.transpose(0, 2, 1)
        v = PRIOR_SD * PRIOR_SD  # N(0, v) on every coefficient, normalizing constant included
        value += (b * b).sum(axis=1) / (2.0 * v) + prep.dim * 0.5 * math.log(2.0 * math.pi * v)
        grad += b / v
        hess[:, np.arange(prep.dim), np.arange(prep.dim)] += 1.0 / v
        hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return value, grad, hess


def neg_log_posterior_and_grad(problem, beta):
    """Negative log posterior at coefficient vector ``beta`` (centered scale)
    and its analytic gradient.

    ``problem`` is a FitProblem, or a prepared batch whose cells'
    coefficients are the rows of ``beta``; the value then holds one entry per
    cell. A cell's value is +inf where its likelihood is non-finite, and its
    gradient is NaN-free only where its value is finite.
    """
    prep = problem if isinstance(problem, _Prepared) else _Prepared(problem)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != prep.coef_shape:
        raise ValueError(f"beta must have shape {prep.coef_shape}, got {beta.shape}")
    value, grad, _ = _evaluate(prep, beta)
    return (float(value[0]), grad[0]) if len(prep.coef_shape) == 1 else (value, grad)


# ---------------------------------------------------------------------------
# damped Newton with backtracking line search, one cell per row
# ---------------------------------------------------------------------------


def _cholesky_ok(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack ``mats`` has a Cholesky factor."""
    try:
        np.linalg.cholesky(mats)
        return np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        return np.array([len(mats) > 1 and _cholesky_ok(m[None])[0] for m in mats])


def _newton_direction(hess: np.ndarray, g: np.ndarray, todo: np.ndarray) -> np.ndarray:
    """Solve (H + lam I) d = -g for the cells in ``todo``; NaN rows for the
    other cells and where H is not finite. lam is 0 where H is positive
    definite, else the first of 1e-8 mean|diag H| * 10^j that makes the
    Cholesky factorisation succeed.
    """
    d = np.full_like(g, np.nan)
    todo = np.flatnonzero(todo & np.isfinite(hess).all(axis=(1, 2)))
    shifted, shift = hess[todo], np.zeros(len(todo))
    while todo.size:
        ok = _cholesky_ok(shifted)
        d[todo[ok]] = np.linalg.solve(shifted[ok], -g[todo[ok], :, None])[..., 0]
        if ok.all():
            break
        todo, shift = todo[~ok], shift[~ok]
        scale = np.abs(np.diagonal(hess[todo], axis1=1, axis2=2)).mean(axis=1)
        shift = np.where(shift > 0, 10.0 * shift, np.maximum(1e-8 * scale, 1e-300))
        shifted = hess[todo] + shift[:, None, None] * np.eye(g.shape[1])
    return d


def _minimize_newton(evaluate, x0, max_iter: int, grad_tol: float):
    """Damped Newton minimisation of independent objectives, one cell per row
    of ``x0``, with per-cell values, gradients and Hessians from one call of
    ``evaluate``. A line search's accepted trial point keeps the Hessian that
    came with it, so every point is evaluated once. Every cell keeps its own
    step length, line search, Levenberg shift, stopping test and iteration
    count; a cell that has converged or stopped is frozen while the others
    carry on. Returns per-cell (x, f, g, Hessian at x, iterations,
    converged); converged means max|g| < grad_tol.
    """
    x = np.array(x0, dtype=float)
    f, g, h = evaluate(x)
    iterations = np.zeros(len(x), dtype=int)
    running = np.isfinite(f)
    while True:
        gnorm = np.abs(g).max(axis=1)
        running &= (iterations < max_iter) & ~(gnorm < grad_tol)
        direction = _newton_direction(h, g, running)
        running &= np.isfinite(direction).all(axis=1)
        if not running.any():
            break
        slope = (g * direction).sum(axis=1)
        # the objective is flat to summation round-off near the optimum, so a
        # step that keeps f within that round-off and lowers the gradient is
        # accepted as well as one with Armijo decrease
        f_slack = 1e-10 * np.maximum(1.0, np.abs(f))
        step, searching = np.ones(len(x)), running.copy()
        for _ in range(60):
            x_new = np.where(searching[:, None], x + step[:, None] * direction, x)
            f_new, g_new, h_new = evaluate(x_new)
            gnorm_new = np.abs(g_new).max(axis=1)  # NaN or inf where g_new is not finite
            accept = searching & np.isfinite(f_new) & np.isfinite(gnorm_new) & (
                (f_new <= f + 1e-4 * step * slope) | ((f_new <= f + f_slack) & (gnorm_new < gnorm))
            )
            x[accept], f[accept], g[accept], h[accept] = x_new[accept], f_new[accept], g_new[accept], h_new[accept]
            searching &= ~accept
            if not searching.any():
                break
            step[searching] *= 0.5
        running &= ~searching  # a cell whose line search failed stops; the others moved
        iterations += running
    converged = np.isfinite(f) & (np.max(np.abs(g), axis=1) < grad_tol)
    return x, f, g, h, iterations, converged


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """MAP fit: coefficients, curvature, and convergence metadata.

    ``beta_packed`` is the concatenated centered-scale coefficient vector the
    curvature and posterior draws refer to; ``offsets[slot]`` is the (start,
    stop) of each slot's block in it.
    """

    family: Family
    transform: Transform
    spec: ModelSpec
    beta_packed: np.ndarray
    offsets: dict = field(repr=False)
    nlp: float
    curvature: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    curvature_pd: bool

    @property
    def slots(self) -> tuple[str, ...]:
        return linpred_slots(self.family)

    def coef(self, slot: str) -> np.ndarray:
        """Coefficients for one slot on the uncentered design scale."""
        if slot not in self.offsets:
            raise KeyError(f"{self.family.value} has no {slot} block")
        a, b = self.offsets[slot]
        return uncenter_matrix(self.spec, slot) @ self.beta_packed[a:b]

    def coef_sd(self, slot: str) -> np.ndarray:
        """Laplace standard deviations of the uncentered coefficients."""
        cov = np.linalg.inv(self.curvature)
        a, b = self.offsets[slot]
        m = uncenter_matrix(self.spec, slot)
        block_cov = m @ cov[a:b, a:b] @ m.T
        return np.sqrt(np.diag(block_cov))

    @property
    def min_curvature_eigenvalue(self) -> float:
        """Smallest eigenvalue of the curvature (NaN if it is not finite)."""
        if not np.all(np.isfinite(self.curvature)):
            return math.nan
        return float(np.linalg.eigvalsh(self.curvature)[0])


def _default_init(prep: _Prepared) -> np.ndarray:
    """Starting coefficients, shaped as ``prep``'s: every coefficient 0 but
    each cell's intercepts, which come from its outcome's moments."""
    beta = np.zeros((len(prep.segments), prep.dim))
    for row, (lo, hi) in zip(beta, prep.segments):
        for slot, value in _start(prep.problem.family, np.repeat(prep.y[lo:hi], prep.count[lo:hi])).items():
            row[prep.offsets[slot][0]] = value
    return beta.reshape(prep.coef_shape)


def fit_map_batch(problems, init=None, *, max_iter: int = 100) -> list[FitResult]:
    """MAP fits of problems of one family, transform and spec, else
    ValueError, by one batched damped Newton; ``init`` holds one start per
    problem (row).

    Each fit equals its batch-of-one fit, and its non-convergence is flagged
    on its result, not raised. The exact Hessian at each optimum is that
    fit's Laplace curvature.
    """
    if not problems:
        return []
    if not all(len(p.records) for p in problems):
        raise FitError("fit_map requires at least one record")
    prep = _Prepared(problems)
    x0 = np.array(init, dtype=float) if init is not None else _default_init(prep)
    if x0.shape != prep.coef_shape:
        raise ValueError(f"init must have shape {prep.coef_shape}, got {x0.shape}")

    x, f, g, curvature, iters, ok = _minimize_newton(lambda b: _evaluate(prep, b), x0, max_iter, GRAD_TOL)
    pd = _cholesky_ok(curvature)
    return [
        FitResult(
            family=p.family,
            transform=p.transform,
            spec=p.spec,
            beta_packed=x[c],
            offsets=dict(prep.offsets),
            nlp=float(f[c]),
            curvature=curvature[c],
            converged=bool(ok[c]),
            iterations=int(iters[c]),
            gradient_norm=float(np.max(np.abs(g[c]))),
            curvature_pd=bool(pd[c]),
        )
        for c, p in enumerate(problems)
    ]


def fit_map(problem: FitProblem, init=None, *, max_iter: int = 100) -> FitResult:
    """MAP fit of one problem: the batch of one of ``fit_map_batch``."""
    init = None if init is None else [init]
    return fit_map_batch([problem], init, max_iter=max_iter)[0]


# ---------------------------------------------------------------------------
# Laplace draws and posterior prediction
# ---------------------------------------------------------------------------


def laplace_draws_batch(fits, n_draws: int, seeds) -> list:
    """Gaussian posterior draws centered at the MAP estimates of fits of one
    dimension: per fit an (n_draws, dim) array in the packed (centered-scale)
    order of its ``beta_packed``, from its own seed ``seeds[i]``, or the
    FitError saying why it cannot draw. One stacked Cholesky factorisation and
    solve serve the fits that can draw."""
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    why = {False: "cannot draw from a non-converged fit", True: "curvature is not positive definite; draws unavailable"}
    out = [None if f.converged and f.curvature_pd else FitError(why[f.converged]) for f in fits]
    ok = [i for i, error in enumerate(out) if error is None]
    if ok:
        chol = np.linalg.cholesky(np.stack([fits[i].curvature for i in ok]))
        z = np.stack([np.random.default_rng(seeds[i]).standard_normal((n_draws, fits[i].beta_packed.size)) for i in ok])
        # chol.T is upper triangular, so LU's elimination is exact and the solve is back substitution
        offset = np.linalg.solve(chol.transpose(0, 2, 1), z.transpose(0, 2, 1)).transpose(0, 2, 1)
        for i, o in zip(ok, offset):
            out[i] = fits[i].beta_packed + o
    return out


def laplace_draws(fit: FitResult, n_draws: int, seed: int) -> np.ndarray:
    """``laplace_draws_batch`` for one fit; raises the FitError of a fit that cannot draw."""
    (draws,) = laplace_draws_batch([fit], n_draws, [seed])
    if isinstance(draws, Exception):
        raise draws
    return draws


def draw_params(fit: FitResult, draws: np.ndarray, ages, sexes):
    """Family parameters under every draw at every distinct (age, sex) cell.

    Returns (params, cell_of): ``params`` holds one (n_draws, n_cells) array
    per family parameter, in slot order, and observation i lies in cell
    ``cell_of[i]``. Linear predictors depend only on (age, sex), so design
    rows, the matmul and the links run once per cell, not per observation.
    """
    mats, cell_of = _design_cells(fit.spec, fit.slots, ages, sexes, center=True)
    # returned transposed, so a gather of p.T's rows is a C-ordered records x draws array
    return [p.T for p in _row_params(fit, mats, draws)], cell_of


def _row_params(fit: FitResult, mats: dict, draws: np.ndarray):
    """Family parameters (rows x draws, C-ordered, in slot order) at the
    centered design rows ``mats[slot]`` under every draw."""
    return _natural_params(fit.family, {slot: mats[slot] @ draws[:, slice(*fit.offsets[slot])].T for slot in fit.slots})


def _stack(models, records):
    """(columns, bounds, mats, cell_of): record sets scored by a batch of models (problems or fits) of one
    family, transform and spec, stacked; a batch of mixed models raises ValueError. ``columns`` are the
    sets' respondent ages, sexes and partner ages, concatenated, set i's at ``bounds[i]:bounds[i + 1]``;
    ``mats`` and ``cell_of`` are ``_design_cells``' centered design rows of the spec and each record's cell."""
    if len({(m.family, m.transform, m.spec) for m in models}) > 1:
        raise ValueError("the models of a batch share one family, one transform and one spec")
    columns = [np.concatenate(c) for c in zip(*((r.respondent_age, r.respondent_sex, r.partner_age) for r in records))]
    mats, cell_of = _design_cells(models[0].spec, linpred_slots(models[0].family), *columns[:2], center=True)
    return columns, np.cumsum([0, *map(len, records)]), mats, cell_of


def _keys(models, records):
    """The distinct (model, design row, transformed outcome) keys of ``_stack``'s record sets, in ascending order:
    (design, model, row, y, count, first, inverse, jacobian, bounds). ``design`` holds the distinct centered design
    rows per slot; key j is outcome ``y[j]`` of model ``model[j]`` at design row ``row[j]``, held by ``count[j]``
    records of the stack, the first of them record ``first[j]``. Stacked record i has key ``inverse[i]`` and log
    Jacobian ``jacobian[i]``, and set i's records are ``bounds[i]:bounds[i + 1]``."""
    columns, bounds, mats, cell_of = _stack(models, records)
    slots, transform = linpred_slots(models[0].family), models[0].transform
    # design rows are found per (age, sex) cell, of which there are few
    _, cell, row_of = np.unique(np.hstack([mats[s] for s in slots]), axis=0, return_index=True, return_inverse=True)
    # a key is (model and design row as one integer code, outcome); the shape of
    # row_of, an inverse over rows, differs between numpy versions
    code = np.repeat(np.arange(len(models)), np.diff(bounds)) * cell.size + row_of.ravel()[cell_of]
    code, y, first, inverse = _unique_pairs(code, transforms.forward_array(transform, *columns), return_index=True)
    model, row = np.divmod(code, cell.size)
    design, count = {s: mats[s][cell] for s in slots}, np.bincount(inverse)
    return design, model, row, y, count, first, inverse, transforms.log_jacobian_array(transform, *columns), bounds


def _predict(fit: FitResult, draws: np.ndarray, mats, cell_of, ages, sexes, rec_idx, draw_idx, rng) -> np.ndarray:
    """Predictive partner ages, sample i under draw ``draw_idx[i]`` at observation ``rec_idx[i]`` of
    (``ages``, ``sexes``), in (age, sex) cell ``cell_of[rec_idx[i]]``, whose design rows are ``mats``."""
    cells, local = np.unique(cell_of, return_inverse=True)  # the cells of these observations
    params = _row_params(fit, {slot: m[cells] for slot, m in mats.items()}, draws)
    # each p is C-contiguous (cells x draws), so its flat view needs no copy
    flat = local.ravel()[rec_idx] * draws.shape[0] + draw_idx
    slots = [p.ravel()[flat] for p in params]
    del params, flat  # freed before sampling allocates its temporaries
    y = sample_slots(fit.family, slots, draw_idx.shape, rng)
    return transforms.inverse_array(fit.transform, np.asarray(ages)[rec_idx], np.asarray(sexes)[rec_idx], y)


def posterior_predictive(fit: FitResult, draws: np.ndarray, respondent_age: float, respondent_sex: int, n_per_draw: int,
                         seed: int) -> np.ndarray:
    """Posterior predictive partner ages for one covariate combination.

    Samples ``n_per_draw`` outcome values under each posterior draw in turn
    and maps them back through the inverse transform; returns the pooled vector.
    """
    draw_idx = np.repeat(np.arange(draws.shape[0]), n_per_draw)
    ages, sexes = [respondent_age], [respondent_sex]
    mats, cell_of = _design_cells(fit.spec, fit.slots, ages, sexes, center=True)
    return _predict(fit, draws, mats, cell_of, ages, sexes, 0, draw_idx, np.random.default_rng(seed))


def predictive_batch(fits, draws, groups) -> list[list[np.ndarray]]:
    """Posterior predictive partner ages mirroring record sets' covariates, for
    fits of one family, transform and spec, else ValueError. ``groups[f]`` lists
    (records, n_total, seed) for fit f; each gets ``n_total`` samples from its
    own stream, each a uniformly chosen record's age and sex under a uniformly
    chosen draw. The cells' design rows are built once for all groups; no
    request gives one empty list per group."""
    requests = [(f, *request) for f, group in enumerate(groups) for request in group]
    if not requests:
        return [[] for _ in groups]
    if not all(len(records) for _, records, _, _ in requests):
        raise ValueError("predictive_for_records requires a nonempty record set")
    (ages, sexes, _), bounds, mats, cell_of = _stack(fits, [records for _, records, _, _ in requests])
    out = [[] for _ in groups]
    for (f, _, n, seed), lo, hi in zip(requests, bounds[:-1], bounds[1:]):
        rng = np.random.default_rng(seed)
        rec_idx, draw_idx = rng.integers(0, hi - lo, size=n), rng.integers(0, draws[f].shape[0], size=n)
        out[f].append(_predict(fits[f], draws[f], mats, cell_of[lo:hi], ages[lo:hi], sexes[lo:hi], rec_idx, draw_idx,
                               rng))
    return out


def predictive_for_records(fit: FitResult, draws: np.ndarray, records: Records, n_total: int, seed: int) -> np.ndarray:
    """Posterior predictive partner ages mirroring a record set's covariates (``predictive_batch``)."""
    return predictive_batch([fit], [draws], [[(records, n_total, seed)]])[0][0]
