"""MAP fitting of distributional regression models with Gaussian posteriors.

The posterior combines the per-record log density of the transformed outcome
with independent N(0, prior_sd^2) priors on every regression coefficient
(including the prior normalizing constants, so objective values are
comparable across dimensionalities). Coefficients act on the *centered*
design (linear-age columns shifted by ``design.AGE_CENTER``);
``FitResult.coef`` translates a slot's block back to the uncentered scale,
which is an exact linear reparameterization. Posterior draws are plain
(draws, coefficients) arrays in the fit's packed order; ``draw_params`` maps
them to family parameters once per distinct (age, sex) cell for the
log-likelihood blocks, ``posterior_predictive`` and the parameter curves.

Optimization is damped Newton on the exact Hessian of the negative log
posterior: closed-form per-record second derivatives of log f in the linear
predictors, assembled as sum_ab X_a' diag(w_ab) X_b plus the prior
precision. Steps solve by Cholesky (with a Levenberg shift where the Hessian
is not positive definite) under a backtracking (Armijo) line search;
non-finite objective values act as +inf sentinels that the line search backs
away from. The same Hessian at the optimum is the curvature of the Gaussian
(Laplace) approximation that posterior draws come from.

Link functions: location-like parameters are identity-linked, positive
parameters log-linked. For the sinh-arcsinh family the scale is
reparameterized as sigma = sigma_star * delta with log sigma_star the linear
predictor, so the tail-weight predictor moves both delta and the effective
scale. Gamma and beta use the first two linear-predictor slots for their own
positive parameters (log k / log theta and log alpha / log beta).

scipy (special functions, LAPACK Cholesky, triangular solves) is imported
inside the functions that call it, so importing this module does not load
scipy; a process loads it at its first fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import transforms
from .design import ModelSpec, design_matrices, uncenter_matrix
from .distributions import Family, linpred_slots, log_pdf_slots, sample_slots
from .transforms import Transform

if TYPE_CHECKING:  # data_io imports this module
    from .data_io import Records

__all__ = [
    "FitProblem",
    "FitResult",
    "FitError",
    "neg_log_posterior_and_grad",
    "fit_map",
    "laplace_draws",
    "draw_params",
    "posterior_predictive",
    "predictive_for_records",
]

EXP_CLAMP = 700.0
DEFAULT_PRIOR_SD = 5.0


class FitError(RuntimeError):
    """Fitting could not produce a usable result."""


@dataclass
class FitProblem:
    """One model to fit: family + transform + design spec + data."""

    family: Family
    transform: Transform
    spec: ModelSpec
    records: Records
    prior_sd: float | None = DEFAULT_PRIOR_SD


class _Prepared:
    """Arrays and bookkeeping shared by objective/gradient evaluations."""

    def __init__(self, problem: FitProblem):
        self.problem = problem
        recs = problem.records
        self.ages, self.sexes, self.partners = recs.respondent_age, recs.respondent_sex, recs.partner_age
        self.y = transforms.forward_array(problem.transform, self.ages, self.sexes, self.partners)

        self.spec = problem.spec.with_knots_from_ages(self.ages)
        self.slots = linpred_slots(problem.family)
        self.X = design_matrices(self.spec, self.ages, self.sexes, slots=self.slots, center=True)
        self.offsets: dict[str, tuple[int, int]] = {}
        start = 0
        for slot in self.slots:
            d = self.X[slot].shape[1]
            self.offsets[slot] = (start, start + d)
            start += d
        self.dim = start
        self.prior_var = None if problem.prior_sd in (None, math.inf) else float(problem.prior_sd) ** 2

    def etas(self, beta: np.ndarray) -> dict[str, np.ndarray]:
        return {slot: self.X[slot] @ beta[slice(*self.offsets[slot])] for slot in self.slots}


def _clamped_exp(eta: np.ndarray) -> np.ndarray:
    if np.any(np.abs(eta) > EXP_CLAMP):
        eta = np.clip(eta, -EXP_CLAMP, EXP_CLAMP)
    return np.exp(eta)


def _natural_params(family: Family, etas: dict):
    """Family parameters (in slot order) from the linear predictors."""
    if family is Family.NORMAL:
        return etas["mu"], _clamped_exp(etas["sigma"])
    if family is Family.SKEW_NORMAL:
        return etas["mu"], _clamped_exp(etas["sigma"]), etas["epsilon"]
    if family is Family.GAMMA:
        return _clamped_exp(etas["mu"]), _clamped_exp(etas["sigma"])
    if family is Family.BETA:
        return _clamped_exp(etas["mu"]), _clamped_exp(etas["sigma"])
    if family is Family.SINH_ARCSINH:
        sigma_star = _clamped_exp(etas["sigma"])
        delta = _clamped_exp(etas["delta"])
        # the product can overflow to inf during wild line-search steps; the
        # likelihood then evaluates to -inf and the step is rejected
        with np.errstate(over="ignore"):
            sigma = sigma_star * delta
        return etas["mu"], sigma, etas["epsilon"], delta
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# first and second derivatives of log f with respect to the linear predictors
# ---------------------------------------------------------------------------


def _inv_mills(u: np.ndarray) -> np.ndarray:
    # phi(u) / Phi(u), stable for very negative u
    from scipy.special import log_ndtr

    return np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - log_ndtr(u))


def _location_scale(z, sigma, lz, lzz):
    """Derivatives of -s + L(z) in (mu, s) through z = (x - mu) / sigma with
    s = log sigma, given dL/dz and d2L/dz2."""
    ms = (z * lzz + lz) / sigma
    grads = {"mu": -lz / sigma, "sigma": -z * lz - 1.0}
    hess = {("mu", "mu"): lzz / (sigma * sigma), ("mu", "sigma"): ms, ("sigma", "sigma"): z * sigma * ms}
    return grads, hess


def _derivs_normal(x, mu, sigma):
    # log f = -log sigma - z^2 / 2 + const
    z = (x - mu) / sigma
    return _location_scale(z, sigma, -z, -1.0)


def _derivs_skew_normal(x, mu, sigma, epsilon):
    # log f = -log sigma - z^2 / 2 + log Phi(epsilon z) + const
    z = (x - mu) / sigma
    u = epsilon * z
    zeta = _inv_mills(u)
    dzeta = -zeta * (u + zeta)  # d zeta / du
    lze = zeta + u * dzeta
    grads, hess = _location_scale(z, sigma, epsilon * zeta - z, epsilon * epsilon * dzeta - 1.0)
    grads["epsilon"] = z * zeta
    hess[("mu", "epsilon")] = -lze / sigma
    hess[("sigma", "epsilon")] = -z * lze
    hess[("epsilon", "epsilon")] = z * z * dzeta
    return grads, hess


def _derivs_gamma(x, k, theta):
    # slots: log k, log theta
    from scipy.special import digamma, polygamma

    dk = k * (np.log(x) - digamma(k) - np.log(theta))
    return {"mu": dk, "sigma": x / theta - k}, {
        ("mu", "mu"): dk - k * k * polygamma(1, k),
        ("mu", "sigma"): -k,
        ("sigma", "sigma"): -x / theta,
    }


def _derivs_beta(x, alpha, beta_p):
    # slots: log alpha, log beta
    from scipy.special import digamma, polygamma

    dab = digamma(alpha + beta_p)
    tab = polygamma(1, alpha + beta_p)
    da = alpha * (np.log(x) - digamma(alpha) + dab)
    db = beta_p * (np.log1p(-x) - digamma(beta_p) + dab)
    return {"mu": da, "sigma": db}, {
        ("mu", "mu"): da + alpha * alpha * (tab - polygamma(1, alpha)),
        ("mu", "sigma"): alpha * beta_p * tab,
        ("sigma", "sigma"): db + beta_p * beta_p * (tab - polygamma(1, beta_p)),
    }


def _derivs_sinh_arcsinh(x, mu, sigma, epsilon, delta):
    # log f = -log sigma_star + F(z, epsilon, d) + const with d = log delta,
    # F = -log(1 + z^2) / 2 + G(epsilon + delta asinh z) and
    # G(w) = log cosh w - sinh(w)^2 / 2; z moves with d as with log sigma_star
    # because sigma = sigma_star * delta
    z = (x - mu) / sigma
    r = np.arcsinh(z)
    w = np.clip(epsilon + delta * r, -EXP_CLAMP, EXP_CLAMP)
    q = 1.0 / (1.0 + z * z)
    dr = delta * np.sqrt(q)  # dw/dz
    g1 = np.tanh(w) - 0.5 * np.sinh(2.0 * w)
    g2 = 1.0 / np.cosh(w) ** 2 - np.cosh(2.0 * w)
    fzz = q - 2.0 * q * q + g2 * dr * dr - g1 * dr * z * q
    fze = g2 * dr
    fzd = dr * (g2 * delta * r + g1)
    grads, hess = _location_scale(z, sigma, g1 * dr - z * q, fzz)
    grads["epsilon"] = g1
    grads["delta"] = grads["sigma"] + 1.0 + g1 * delta * r
    ms, ss = hess[("mu", "sigma")], hess[("sigma", "sigma")]
    hess[("mu", "epsilon")] = -fze / sigma
    hess[("sigma", "epsilon")] = -z * fze
    hess[("epsilon", "epsilon")] = g2
    hess[("mu", "delta")] = ms - fzd / sigma
    hess[("sigma", "delta")] = ss - z * fzd
    hess[("epsilon", "delta")] = g2 * delta * r - z * fze
    hess[("delta", "delta")] = ss - 2.0 * z * fzd + delta * r * (g2 * delta * r + g1)
    return grads, hess


# _DERIVS[family](x, *params) -> (grads, hess): per-record derivatives of
# log f in the linear predictors, n-vectors keyed by slot and by slot pair
# (a, b) with a before b in the family's slot order
_DERIVS = {
    Family.NORMAL: _derivs_normal,
    Family.SKEW_NORMAL: _derivs_skew_normal,
    Family.GAMMA: _derivs_gamma,
    Family.BETA: _derivs_beta,
    Family.SINH_ARCSINH: _derivs_sinh_arcsinh,
}


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def _prior_terms(prep: _Prepared, beta: np.ndarray):
    if prep.prior_var is None:
        return 0.0, np.zeros_like(beta)
    v = prep.prior_var
    value = float(np.sum(beta * beta) / (2.0 * v) + beta.size * 0.5 * math.log(2.0 * math.pi * v))
    return value, beta / v


def neg_log_posterior_and_grad(problem, beta):
    """Negative log posterior at coefficient vector ``beta`` (centered scale)
    and its analytic gradient.

    The value is +inf where the likelihood is non-finite at ``beta``; the
    gradient is NaN-free only where the value is finite.
    """
    prep = problem if isinstance(problem, _Prepared) else _Prepared(problem)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (prep.dim,):
        raise ValueError(f"beta must have shape ({prep.dim},), got {beta.shape}")
    prior_val, prior_grad = _prior_terms(prep, beta)
    if prep.y.size == 0:
        return prior_val, prior_grad
    params = _natural_params(prep.problem.family, prep.etas(beta))
    grad = np.empty(prep.dim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll = log_pdf_slots(prep.problem.family, prep.y, *params)
        total = float(np.sum(ll))
        if not np.isfinite(total):
            return math.inf, prior_grad
        dl, _ = _DERIVS[prep.problem.family](prep.y, *params)
        # dl can still hold inf at near-overflow points the line search is
        # about to reject; the matmul may then produce NaN entries
        for slot, (a, b) in prep.offsets.items():
            grad[a:b] = -(prep.X[slot].T @ dl[slot])
    grad += prior_grad
    return -total + prior_val, grad


def _neg_log_posterior_hessian(prep: _Prepared, beta: np.ndarray) -> np.ndarray:
    """Exact Hessian of the negative log posterior at ``beta``.

    Per slot pair (a, b) it adds -X_a' diag(w_ab) X_b, with w_ab the
    per-record second derivatives of log f, plus I / prior_var.
    """
    hess = np.zeros((prep.dim, prep.dim))
    if prep.y.size:
        params = _natural_params(prep.problem.family, prep.etas(beta))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, weights = _DERIVS[prep.problem.family](prep.y, *params)
        for (sa, sb), w in weights.items():
            (a0, a1), (b0, b1) = prep.offsets[sa], prep.offsets[sb]
            block = prep.X[sa].T @ (w[:, None] * prep.X[sb])
            hess[a0:a1, b0:b1] = -block
            hess[b0:b1, a0:a1] = -block.T
    if prep.prior_var is not None:
        hess[np.diag_indices(prep.dim)] += 1.0 / prep.prior_var
    return 0.5 * (hess + hess.T)


# ---------------------------------------------------------------------------
# damped Newton with backtracking line search
# ---------------------------------------------------------------------------


def _newton_direction(hess: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """Solve (H + lam I) d = -g by Cholesky; None if H is not finite.

    lam is 0 when H is positive definite, else the first of
    1e-8 mean|diag H| * 10^j that makes the factorisation succeed.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    if not np.all(np.isfinite(hess)):
        return None
    shift = 0.0
    while True:
        factor, info = dpotrf(hess + shift * np.eye(g.size), lower=1)
        if info == 0:
            return dpotrs(factor, -g, lower=1)[0]
        shift = 10.0 * shift if shift else max(1e-8 * float(np.mean(np.abs(np.diag(hess)))), 1e-300)


def _minimize_newton(fg, hess, x0, max_iter: int, grad_tol: float):
    """Damped Newton minimisation of ``fg`` (value, gradient) with ``hess``.

    Returns (x, f, g, hess(x), iterations, converged); converged means
    max|g| < grad_tol.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fg(x)
    h = hess(x)
    iterations = 0
    while np.isfinite(f) and iterations < max_iter:
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            break
        direction = _newton_direction(h, g)
        if direction is None:
            break
        slope = float(g @ direction)
        # the objective is flat to summation round-off near the optimum, so a
        # step that keeps f within that round-off and lowers the gradient is
        # accepted as well as one with Armijo decrease
        f_slack = 1e-10 * max(1.0, abs(f))
        step = 1.0
        for _ in range(60):
            x_new = x + step * direction
            f_new, g_new = fg(x_new)
            if np.isfinite(f_new) and np.all(np.isfinite(g_new)) and (
                f_new <= f + 1e-4 * step * slope
                or (f_new <= f + f_slack and np.max(np.abs(g_new)) < gnorm)
            ):
                break
            step *= 0.5
        else:
            break
        x, f, g = x_new, f_new, g_new
        h = hess(x)
        iterations += 1
    converged = bool(np.isfinite(f) and np.max(np.abs(g)) < grad_tol)
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
    y = prep.y
    beta = np.zeros(prep.dim)
    mean = float(y.mean()) if y.size else 0.0
    sd = float(y.std()) if y.size else 1.0
    sd = max(sd, 1e-6)
    family = prep.problem.family

    def set_intercept(slot, value):
        beta[prep.offsets[slot][0]] = value

    if family in (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH):
        set_intercept("mu", mean)
        set_intercept("sigma", math.log(sd))
    elif family is Family.GAMMA:
        var = sd * sd
        if var > 0 and mean > 0:
            k = mean * mean / var
            theta = var / mean
        else:
            k, theta = 1.0, max(mean, 1.0)
        set_intercept("mu", math.log(k))
        set_intercept("sigma", math.log(theta))
    elif family is Family.BETA:
        var = max(sd * sd, 1e-12)
        m = min(max(mean, 1e-6), 1.0 - 1e-6)
        common = m * (1.0 - m) / var - 1.0
        if common <= 0:
            common = 2.0
        set_intercept("mu", math.log(m * common))
        set_intercept("sigma", math.log((1.0 - m) * common))
    return beta


def fit_map(
    problem: FitProblem,
    init=None,
    *,
    max_iter: int = 100,
    grad_tol: float = 1e-6,
) -> FitResult:
    """MAP fit by damped Newton; non-convergence is flagged on the result, not raised.

    The exact Hessian at the optimum is the Laplace curvature.
    """
    if not len(problem.records):
        raise FitError("fit_map requires at least one record")
    prep = _Prepared(problem)
    fg = lambda b: neg_log_posterior_and_grad(prep, b)
    hess = lambda b: _neg_log_posterior_hessian(prep, b)
    x0 = np.asarray(init, dtype=float).copy() if init is not None else _default_init(prep)
    if x0.shape != (prep.dim,):
        raise ValueError(f"init must have shape ({prep.dim},), got {x0.shape}")

    x, f, g, curvature, iters, ok = _minimize_newton(fg, hess, x0, max_iter=max_iter, grad_tol=grad_tol)
    try:
        np.linalg.cholesky(curvature)
        pd = True
    except np.linalg.LinAlgError:
        pd = False

    return FitResult(
        family=problem.family,
        transform=problem.transform,
        spec=prep.spec,
        beta_packed=x,
        offsets=dict(prep.offsets),
        nlp=float(f),
        curvature=curvature,
        converged=bool(ok),
        iterations=iters,
        gradient_norm=float(np.max(np.abs(g))),
        curvature_pd=pd,
    )


# ---------------------------------------------------------------------------
# Laplace draws and posterior prediction
# ---------------------------------------------------------------------------


def laplace_draws(fit: FitResult, n_draws: int, seed: int) -> np.ndarray:
    """Gaussian posterior draws centered at the MAP estimate.

    Returns an (n_draws, dim) array, one coefficient vector per row, in the
    packed (centered-scale) order of ``fit.beta_packed``.
    """
    from scipy.linalg import solve_triangular

    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if not fit.converged:
        raise FitError("cannot draw from a non-converged fit")
    if not fit.curvature_pd:
        raise FitError("curvature is not positive definite; draws unavailable")
    chol = np.linalg.cholesky(fit.curvature)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, fit.beta_packed.size))
    offset = solve_triangular(chol, z.T, trans="T", lower=True).T
    return fit.beta_packed + offset


def draw_params(fit: FitResult, draws: np.ndarray, ages, sexes):
    """Family parameters under every draw at every distinct (age, sex) cell.

    Returns (params, cell_of): ``params`` holds one (n_draws, n_cells) array
    per family parameter, in slot order, and observation i lies in cell
    ``cell_of[i]``. Linear predictors depend only on (age, sex), so design
    rows, the matmul and the links run once per cell, not per observation.
    """
    cells, cell_of = np.unique(np.column_stack([ages, sexes]), axis=0, return_inverse=True)
    mats = design_matrices(fit.spec, cells[:, 0], cells[:, 1], slots=fit.slots, center=True)
    # computed cells x draws, as a per-record design would, and returned
    # transposed, so a gather of p.T's rows is a C-ordered records x draws array
    etas = {slot: (mats[slot] @ draws[:, slice(*fit.offsets[slot])].T).T for slot in fit.slots}
    # the shape of the inverse differs between numpy versions
    return _natural_params(fit.family, etas), cell_of.ravel()


def posterior_predictive(
    fit: FitResult,
    draws: np.ndarray,
    respondent_age: float,
    respondent_sex: int,
    n_per_draw: int,
    seed: int,
) -> np.ndarray:
    """Posterior predictive partner ages for one covariate combination.

    Samples ``n_per_draw`` outcome values under each posterior draw and maps
    them back through the inverse transform; returns the pooled vector.
    """
    params, _ = draw_params(fit, draws, [respondent_age], [respondent_sex])
    rng = np.random.default_rng(seed)
    y = sample_slots(fit.family, params, (draws.shape[0], n_per_draw), rng).ravel()
    ages = np.full(y.shape, float(respondent_age))
    sexes = np.full(y.shape, int(respondent_sex))
    return transforms.inverse_array(fit.transform, ages, sexes, y)


def predictive_for_records(
    fit: FitResult,
    draws: np.ndarray,
    records: Records,
    n_total: int,
    seed: int,
) -> np.ndarray:
    """Posterior predictive partner ages mirroring a record set's covariates.

    Each of the ``n_total`` samples pairs a uniformly chosen record (its age
    and sex) with a uniformly chosen posterior draw. Design rows are built
    once per distinct (age, sex) cell of ``records``.
    """
    if not len(records):
        raise ValueError("predictive_for_records requires a nonempty record set")
    rng = np.random.default_rng(seed)
    rec_idx = rng.integers(0, len(records), size=n_total)
    draw_idx = rng.integers(0, draws.shape[0], size=n_total)

    ages, sexes = records.respondent_age, records.respondent_sex
    cells, cell_of = np.unique(np.column_stack([ages, sexes]), axis=0, return_inverse=True)
    mats = design_matrices(fit.spec, cells[:, 0], cells[:, 1], slots=fit.slots, center=True)
    # the shape of the inverse differs between numpy versions
    rows = cell_of.ravel()[rec_idx]
    etas = {}
    for slot in fit.slots:
        a, b = fit.offsets[slot]
        etas[slot] = np.einsum("ij,ij->i", np.take(mats[slot], rows, axis=0), draws[draw_idx, a:b])
    params = _natural_params(fit.family, etas)
    y = sample_slots(fit.family, params, (n_total,), rng)
    return transforms.inverse_array(fit.transform, ages[rec_idx], sexes[rec_idx], y)
