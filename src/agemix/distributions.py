"""Candidate outcome distributions: normal, skew normal, gamma, beta, sinh-arcsinh.

All densities are evaluated in log space. The sinh-arcsinh family uses the
transform S(x) = sinh(epsilon + delta * asinh(x)) applied to the standardized
value x_z = (x - mu) / sigma, so that S(X_z) is standard normal. Under this
sign convention a *positive* epsilon stretches the left tail and produces
*negatively* skewed samples (verified empirically in the test suite; the
convention is kept as-is rather than flipped to match other parametrisations
found in the literature).

Large sinh/cosh arguments are guarded by clamping the argument
epsilon + delta * asinh(x_z) at +/- 700 before exponentiation.

A family with n parameters is driven by the first n linear-predictor slots
(``SLOT_NAMES``), which the fit, the ELPD layer and ``simulate`` share. Links
(``_natural_params``): a positive parameter (``_POSITIVE_FIELDS``) is
log-linked, its predictor clamped at +/- 700, and any other identity-linked.
For the sinh-arcsinh family the scale is reparameterized as
sigma = sigma_star * delta with log sigma_star the predictor, so the
tail-weight predictor moves both delta and the effective scale. Gamma and
beta thus take log k / log theta and log alpha / log beta. ``_DERIVS`` gives
log f with its first and second derivatives in the linear predictors, which
the MAP fit's Newton steps use, and ``_start`` each family's moment start.

Every CDF is in closed form. The skew-normal one is Phi(z) - 2 T(z, epsilon)
(Azzalini 1985, Scand. J. Statist.), with T Owen's function; its quantile
bisects that CDF inside a bracket that holds for every epsilon.

Special functions are numpy ports of Cephes (Moshier 1989), which
``scipy.special`` runs, so the densities, fits and samplers load no scipy.
Against scipy over 10^6 log-uniform arguments (numpy's vectorised ``log`` and
``exp`` may round unlike libm's): ``_ndtri`` is bit for bit for exp(-2) < q <
1 - exp(-2), 7.9e-16 relative in the tails; ``_ndtr`` and ``_log_ndtr``, from
the erf/erfc rational approximations (Cody 1969), 5.6e-16 relative and
9.1e-16 * max(1, |ref|); ``_gammaln`` (``lgam``) 3.9e-16 * max(1, |ref|);
``_digamma_trigamma`` (recurrence to x >= 10, then the asymptotic series)
1.6e-15 * max(1, |ref|); ``_betaln``, against mpmath over 3,000 pairs in
[1e-3, 1e4], 7.9e-14 relative, where the lgam sum it replaces for a larger
argument >= 13 (scipy's above a + b = 171.6) loses up to 4e-11. The
derivatives use log Phi in the skew normal's inverse Mills ratio, and digamma
and trigamma in the gamma's and beta's. The gamma, beta and skew-normal CDFs
and quantiles import ``scipy.special`` in their branches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "ParamVector",
    "DomainError",
    "ParameterError",
    "Moments",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "empirical_moments",
    "log_pdf_slots",
    "sample_slots",
    "linpred_slots",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# sinh/cosh argument guard: |epsilon + delta*asinh(x_z)| is clamped here.
SINH_ARG_CLAMP = 700.0


class DomainError(ValueError):
    """Evaluation point lies outside the support of the distribution."""


class ParameterError(ValueError):
    """Parameter vector violates positivity or completeness requirements."""


class Family(str, enum.Enum):
    """The five candidate distribution families."""

    NORMAL = "normal"
    SKEW_NORMAL = "skew_normal"
    GAMMA = "gamma"
    BETA = "beta"
    SINH_ARCSINH = "sinh_arcsinh"


# Parameter fields used by each family, in packing order. Slots correspond to
# (location-like, scale-like, skewness, tail weight); gamma and beta use the
# first two slots for their own natural parameters.
_SLOTS = {
    Family.NORMAL: ("mu", "sigma"),
    Family.SKEW_NORMAL: ("mu", "sigma", "epsilon"),
    Family.GAMMA: ("k", "theta"),
    Family.BETA: ("alpha", "beta_p"),
    Family.SINH_ARCSINH: ("mu", "sigma", "epsilon", "delta"),
}

_POSITIVE_FIELDS = ("sigma", "delta", "k", "theta", "alpha", "beta_p")

# Linear-predictor slots: a family of n parameters is driven by the first n,
# and regression code keys its design matrices and coefficient blocks by them.
SLOT_NAMES = ("mu", "sigma", "epsilon", "delta")
# per family: its slots, and whether each is log-linked (its parameter positive)
_LINKS = {f: (SLOT_NAMES[: len(names)], tuple(n in _POSITIVE_FIELDS for n in names)) for f, names in _SLOTS.items()}


@dataclass
class ParamVector:
    """Parameter container; only the fields relevant to a family are populated.

    Positivity of sigma, delta, k, theta, alpha and beta_p is enforced at
    construction for whichever of them is set.
    """

    mu: float | None = None
    sigma: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    k: float | None = None
    theta: float | None = None
    alpha: float | None = None
    beta_p: float | None = None

    def __post_init__(self):
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ParameterError(f"{name} must be positive, got {value!r}")

    def require(self, family: Family) -> tuple[float, ...]:
        """Return the populated slot values for ``family``, erroring on gaps."""
        values = []
        for name in _SLOTS[family]:
            value = getattr(self, name)
            if value is None:
                raise ParameterError(
                    f"{family.value} requires parameter {name!r}, but it is unset"
                )
            values.append(float(value))
        return tuple(values)


def linpred_slots(family: Family) -> tuple[str, ...]:
    """Linear-predictor slots a family's parameters are driven by."""
    return _LINKS[family][0]


# log-linked linear predictors are clamped to +/- this before exp
EXP_CLAMP = 700.0


def _clamped_exp(eta: np.ndarray) -> np.ndarray:
    if np.any(np.abs(eta) > EXP_CLAMP):
        eta = np.clip(eta, -EXP_CLAMP, EXP_CLAMP)
    return np.exp(eta)


def _natural_params(family: Family, etas: dict):
    """Family parameters (in slot order) from the linear predictors: exp (clamped) for a
    positive parameter, identity for any other, then sigma = sigma_star * delta for the sinh-arcsinh."""
    slots, logged = _LINKS[family]
    params = tuple(_clamped_exp(etas[slot]) if log else etas[slot] for slot, log in zip(slots, logged))
    if family is not Family.SINH_ARCSINH:
        return params
    mu, sigma_star, epsilon, delta = params
    # the product can overflow to inf during wild line-search steps; the
    # likelihood then evaluates to -inf and the step is rejected
    with np.errstate(over="ignore"):
        return mu, sigma_star * delta, epsilon, delta


# ---------------------------------------------------------------------------
# log-density kernels (vectorized over x and parameter arrays, no validation)
# ---------------------------------------------------------------------------


def _logpdf_normal(x, mu, sigma):
    z = (x - mu) / sigma
    return -np.log(sigma) - _HALF_LOG_2PI - 0.5 * z * z


def _logpdf_skew_normal(x, mu, sigma, epsilon, log_cdf=None):
    z = (x - mu) / sigma  # log_cdf, when given, is the caller's log Phi(epsilon z)
    log_cdf = _log_ndtr(epsilon * z) if log_cdf is None else log_cdf
    return math.log(2.0) - np.log(sigma) - _HALF_LOG_2PI - 0.5 * z * z + log_cdf


def _logpdf_gamma(x, k, theta):
    xs = np.where(x > 0, x, 1.0)
    return np.where(x > 0, -_gammaln(k) - k * np.log(theta) + (k - 1.0) * np.log(xs) - x / theta, -np.inf)


def _logpdf_beta(x, alpha, beta_p):
    inside = (x > 0) & (x < 1)
    xs = np.where(inside, x, 0.5)
    out = (alpha - 1.0) * np.log(xs) + (beta_p - 1.0) * np.log1p(-xs) - _betaln(alpha, beta_p)
    return np.where(inside, out, -np.inf)


def _logpdf_sinh_arcsinh(x, mu, sigma, epsilon, delta):
    # With z = (x - mu) / sigma, w = epsilon + delta * asinh(z) clamped at
    # +/- SINH_ARG_CLAMP and s = sinh(w), the log density is
    #     log(delta / sigma) - log(2 pi) / 2 - log(1 + z^2) / 2
    #         + log cosh(w) - s^2 / 2,
    # evaluated through two identities that need no hypot and no second
    # exponential:
    #     log cosh(w) - s^2 / 2 = (log1p(s^2) - s^2) / 2,
    #     log sqrt(1 + z^2)     = log1p(z^2) / 2.
    # Overflow edges, the same as evaluating those terms one by one: where
    # s^2 overflows (|w| > ~355.6), log1p(s^2) / 2 is log|s| in double
    # precision, so those entries take log|s| - s^2 / 2, which is -inf, never
    # NaN, once s^2 / 2 overflows (|w| > ~355.9); where z^2 overflows
    # (|z| > ~1.3e154), log1p(z^2) / 2 is log|z|, so the density stays
    # finite. Both squares are >= 0, so a max below inf (NaN fails it too)
    # skips both repairs.
    shape = np.broadcast_shapes(*(np.shape(a) for a in (x, mu, sigma, epsilon, delta)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = np.subtract(x, mu, out=np.empty(shape))
        z /= sigma
        s = np.arcsinh(z, out=np.empty(shape))
        s *= delta
        s += epsilon
        np.clip(s, -SINH_ARG_CLAMP, SINH_ARG_CLAMP, out=s)
        np.sinh(s, out=s)
        s *= s
        out = np.log1p(s, out=np.empty(shape))
        out -= s
        wide = None if s.max(initial=0.0) < np.inf else np.isinf(s)
        q = np.multiply(z, z, out=s)
        np.log1p(q, out=q)
        if not q.max(initial=0.0) < np.inf:
            big = np.isinf(q)
            q[big] = 2.0 * np.log(np.abs(z[big]))
        out -= q
        out *= 0.5
        if wide is not None:
            w = np.broadcast_to(epsilon, shape)[wide] + np.broadcast_to(delta, shape)[wide] * np.arcsinh(z[wide])
            sw = np.sinh(np.clip(w, -SINH_ARG_CLAMP, SINH_ARG_CLAMP))
            out[wide] = np.log(np.abs(sw)) - 0.5 * sw * sw - 0.5 * q[wide]
        np.divide(delta, sigma, out=q)
        np.log(q, out=q)
        out += q
        out -= _HALF_LOG_2PI
    return out


_LOGPDF = {
    Family.NORMAL: _logpdf_normal,
    Family.SKEW_NORMAL: _logpdf_skew_normal,
    Family.GAMMA: _logpdf_gamma,
    Family.BETA: _logpdf_beta,
    Family.SINH_ARCSINH: _logpdf_sinh_arcsinh,
}


def log_pdf_slots(family: Family, x, *slots):
    """Vectorized log-density on raw slot arrays.

    Out-of-support x yields -inf rather than an error; this is the
    "total log-likelihood" mode used by the fitting code. Positivity of the
    slot arrays is the caller's responsibility (link functions guarantee it).
    """
    return _LOGPDF[family](np.asarray(x, dtype=float), *slots)


# ---------------------------------------------------------------------------
# log f and its first and second derivatives in the linear predictors, and the
# linear predictors' moment starts
# ---------------------------------------------------------------------------


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
    return _logpdf_normal(x, mu, sigma), *_location_scale(z, sigma, -z, -1.0)


def _derivs_skew_normal(x, mu, sigma, epsilon):
    # log f = -log sigma - z^2 / 2 + log Phi(u) + const with u = epsilon z; the
    # density and zeta = phi(u) / Phi(u), stable for u << 0, share log Phi(u)
    z = (x - mu) / sigma
    u = epsilon * z
    log_cdf = _log_ndtr(u)
    zeta = np.exp(-0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - log_cdf)
    dzeta = -zeta * (u + zeta)  # d zeta / du
    lze = zeta + u * dzeta
    grads, hess = _location_scale(z, sigma, epsilon * zeta - z, epsilon * epsilon * dzeta - 1.0)
    grads["epsilon"] = z * zeta
    hess[("mu", "epsilon")] = -lze / sigma
    hess[("sigma", "epsilon")] = -z * lze
    hess[("epsilon", "epsilon")] = z * z * dzeta
    return _logpdf_skew_normal(x, mu, sigma, epsilon, log_cdf), grads, hess


def _derivs_gamma(x, k, theta):
    # slots: log k, log theta
    psi, psi1 = _digamma_trigamma(k)
    dk = k * (np.log(x) - psi - np.log(theta))
    return _logpdf_gamma(x, k, theta), {"mu": dk, "sigma": x / theta - k}, {
        ("mu", "mu"): dk - k * k * psi1,
        ("mu", "sigma"): -k,
        ("sigma", "sigma"): -x / theta,
    }


def _derivs_beta(x, alpha, beta_p):
    # slots: log alpha, log beta
    dab, tab = _digamma_trigamma(alpha + beta_p)
    (psi_a, psi1_a), (psi_b, psi1_b) = _digamma_trigamma(alpha), _digamma_trigamma(beta_p)
    da = alpha * (np.log(x) - psi_a + dab)
    db = beta_p * (np.log1p(-x) - psi_b + dab)
    return _logpdf_beta(x, alpha, beta_p), {"mu": da, "sigma": db}, {
        ("mu", "mu"): da + alpha * alpha * (tab - psi1_a),
        ("mu", "sigma"): alpha * beta_p * tab,
        ("sigma", "sigma"): db + beta_p * beta_p * (tab - psi1_b),
    }


def _derivs_sinh_arcsinh(x, mu, sigma, epsilon, delta):
    # log f = -log sigma_star + F(z, epsilon, d) + const with d = log delta,
    # F = -log(1 + z^2) / 2 + G(epsilon + delta asinh z) and
    # G(w) = log cosh w - sinh(w)^2 / 2; z moves with d as with log sigma_star
    # because sigma = sigma_star * delta
    z = (x - mu) / sigma
    r = np.arcsinh(z)
    w = np.clip(epsilon + delta * r, -SINH_ARG_CLAMP, SINH_ARG_CLAMP)
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
    return _logpdf_sinh_arcsinh(x, mu, sigma, epsilon, delta), grads, hess


# _DERIVS[family](x, *params) -> (log f, grads, hess): per-record log densities
# (those of log_pdf_slots) and their first and second derivatives
# in the linear predictors, n-vectors keyed by slot and by slot pair (a, b)
# with a before b in the family's slot order
_DERIVS = {
    Family.NORMAL: _derivs_normal,
    Family.SKEW_NORMAL: _derivs_skew_normal,
    Family.GAMMA: _derivs_gamma,
    Family.BETA: _derivs_beta,
    Family.SINH_ARCSINH: _derivs_sinh_arcsinh,
}


def _start(family: Family, y: np.ndarray) -> dict[str, float]:
    """Moment-based starting intercepts (linear predictors by slot) of one cell's outcome ``y``."""
    mean = float(y.mean()) if y.size else 0.0
    sd = max(float(y.std()) if y.size else 1.0, 1e-6)
    if family is Family.SKEW_NORMAL:
        # method-of-moments direct parameters (Azzalini & Capitanio 1999): at
        # epsilon = 0 the likelihood is stationary in epsilon, and Newton can
        # stop there
        skew = float(np.clip(np.mean(((y - mean) / sd) ** 3), -0.99, 0.99)) if y.size else 0.0
        c = float(np.cbrt(2.0 * skew / (4.0 - math.pi)))
        mu_z = c / math.sqrt(1.0 + c * c)
        delta = mu_z / math.sqrt(2.0 / math.pi)
        omega = sd / math.sqrt(1.0 - mu_z * mu_z)
        return {"mu": mean - omega * mu_z, "sigma": math.log(omega), "epsilon": delta / math.sqrt(1.0 - delta**2)}
    if family in (Family.NORMAL, Family.SINH_ARCSINH):
        return {"mu": mean, "sigma": math.log(sd)}
    if family is Family.GAMMA:
        var = sd * sd
        if var > 0 and mean > 0:
            k, theta = mean * mean / var, var / mean
        else:
            k, theta = 1.0, max(mean, 1.0)
        return {"mu": math.log(k), "sigma": math.log(theta)}
    var = max(sd * sd, 1e-12)  # beta
    m = min(max(mean, 1e-6), 1.0 - 1e-6)
    common = m * (1.0 - m) / var - 1.0
    if common <= 0:
        common = 2.0
    return {"mu": math.log(m * common), "sigma": math.log((1.0 - m) * common)}


# ---------------------------------------------------------------------------
# special functions: numpy ports of Cephes (Moshier 1989), elementwise on arrays
# ---------------------------------------------------------------------------


def _pair(p, q):
    """``_horner`` table of the polynomials ``p`` and ``q``, coefficients from the highest power down."""
    n = max(len(p), len(q))
    return np.array([(0.0,) * (n - len(c)) + tuple(c) for c in (p, q)]).T[:, :, None]


def _horner(table, x):
    """A polynomial (coefficients from the highest power down) at a 1-d ``x``, or both of a ``_pair``
    table as a (2, len(x)) array, by Horner's rule in Cephes' order; in place, unlike ``np.polyval``."""
    out = x * table[0]
    for c in table[1:-1]:
        out += c
        out *= x
    out += table[-1]
    return out


# Cephes ndtri: P0/Q0 in (q - 1/2)^2 for exp(-2) < q < 1 - exp(-2), then P1/Q1 and P2/Q2 in
# z = 1/x, x = sqrt(-2 log q), below and above x = 8; each Q with its implied leading 1
_NDTRI_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968, -1.2391658386738125)
_NDTRI_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
             200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133)
_NDTRI_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008, 14.684956192885803,
             2.1866330685079025, -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_NDTRI_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075, 2.504649462083094,
             -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_NDTRI_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755, 0.20148538954917908,
             0.012371663481782003, 0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_NDTRI_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
             0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06, 6.790194080099813e-09)
_EXP_M2 = math.exp(-2.0)
_SQRT_2PI = 2.5066282746310007  # Cephes' rounding, one ulp above math.sqrt(2 pi)

# erf(x) / 2 = x T(x^2) / U(x^2) for |x| < 1; erfc(x) / 2 = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
# and exp(-x^2) R(x) / S(x) from 8 on; T, P and R are halved here, which is exact
_ERF_TU = _pair([c / 2 for c in (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
                                 55592.30130103949)],
                (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359))
_ERFC_PQ = _pair([c / 2 for c in (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
                                  196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
                                  557.5353353693994)],
                 (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
                  1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277))
_ERFC_RS = _pair([c / 2 for c in (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536,
                                  7.4097426995044895, 2.9788666537210022)],
                 (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659,
                  9.608968090632859, 3.369076451000815))
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 709.782712893384  # Cephes' erfc underflows to 0 once x^2 > MAXLOG

# lgam: Stirling's series in 1/x^2 (A) from x = 13 on, also past 1000, where Cephes' shorter one moved
# no result of 10^6; below 13 the recurrence onto [2, 3) and x B(x) / C(x) there
_LGAM_A = (0.0008116141674705085, -0.0005950619042843014, 0.0007936503404577169, -0.002777777777300997,
           0.08333333333333319)
_LGAM_BC = _pair((-1378.2515256912086, -38801.631513463784, -331612.9927388712, -1162370.974927623,
                  -1721737.0082083966, -853555.6642457654),
                 (1.0, -351.81570143652345, -17064.210665188115, -220528.59055385445, -1139334.4436798252,
                  -2532523.0717758294, -2018891.4143353277))
_LS2PI = 0.9189385332046728  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows above

# digamma's and trigamma's asymptotic series from x = 10 on, in z = 1/x^2: B_2k / 2k for
# k = 7, ..., 1 and B_2k for k = 8, ..., 1, with B_2k the Bernoulli numbers
_DIGAMMA_B = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)
_TRIGAMMA_B = (-3617 / 510, 7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6)


def _ndtri(q):
    """Standard normal quantile (Cephes ``ndtri``) of an array ``q``, elementwise and in its shape.

    0 and 1 map to -inf and +inf, values outside [0, 1] to NaN, without a RuntimeWarning.
    """
    q = np.asarray(q, dtype=float)
    flat = q.ravel()
    # the central branch for every entry, then the tails by index arrays (faster than boolean
    # masks)
    y = flat - 0.5
    y2 = y * y
    out = (y + y * (y2 * _horner(_NDTRI_P0, y2) / _horner(_NDTRI_Q0, y2))) * _SQRT_2PI
    upper = flat > 1.0 - _EXP_M2
    tail = np.flatnonzero(upper | (flat <= _EXP_M2))
    y = np.minimum(flat[tail], 1.0 - flat[tail])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.sqrt(-2.0 * np.log(y))
        z = 1.0 / x
        x1 = z * _horner(_NDTRI_P1, z) / _horner(_NDTRI_Q1, z)
        far = np.flatnonzero(x >= 8.0)
        x1[far] = z[far] * _horner(_NDTRI_P2, z[far]) / _horner(_NDTRI_Q2, z[far])
        x = x - np.log(x) / x - x1
    x[y == 0.0] = np.inf  # inf - inf above; the limit is inf
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(q.shape)


def _erfc_scaled(a):
    """exp(a^2) erfc(a) / 2 for a 1-d array ``a >= 1``."""
    p, q = _horner(_ERFC_PQ, a)
    p /= q
    far = np.flatnonzero(a >= 8.0)
    if far.size:
        # R/S tends to R_0 / a; beyond 1e20 that changes log erfc by under 1e-38 relative
        p[far] = np.divide(*_horner(_ERFC_RS, np.minimum(a[far], 1e20)))
    return p


def _ndtr(x):
    """Standard normal CDF (Cephes ``ndtr``), elementwise and in the shape of ``x``."""
    x = np.asarray(x, dtype=float)
    t = x.ravel() * _SQRT1_2
    a = np.abs(t)
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = _horner(_ERF_TU, t * t)
        half_erf = t * p / q
        scaled = _erfc_scaled(np.maximum(a, 1.0))
        half_erfc = np.where(a < 1.0, 0.5 - np.abs(half_erf), np.where(a * a > _MAXLOG, 0.0, np.exp(-a * a) * scaled))
        out = np.where(a < _SQRT1_2, 0.5 + half_erf, np.where(t > 0.0, 1.0 - half_erfc, half_erfc))
    return out.reshape(x.shape)


def _log_ndtr(x):
    """log Phi(x) from Cephes ``erf`` and ``erfc``, elementwise and in the shape of ``x``.

    Below x = -sqrt(2) it is log(P/Q) - x^2 / 2 with P/Q = exp(x^2 / 2) erfc(-x / sqrt(2)) / 2, so
    it neither underflows nor takes an exp/log round trip.
    """
    x = np.asarray(x, dtype=float)
    t = x.ravel() * _SQRT1_2
    out = np.empty_like(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # neither branch holds most entries in the fits (43% central, 57% tail), so each runs on
        # its own index array; log(1/2 + erf(t)/2) for |t| < 1
        wide = np.abs(t) >= 1.0
        central = np.flatnonzero(~wide)
        tc = t[central]
        p, q = _horner(_ERF_TU, tc * tc)
        out[central] = np.log(tc * p / q + 0.5)
        tail = np.flatnonzero(wide)
        tt = t[tail]
        a = np.abs(tt)
        lower = np.log(_erfc_scaled(a))
        a *= a
        lower -= a  # log(erfc(a) / 2) = log Phi(-a sqrt 2)
        upper = np.exp(lower)
        upper[a > _MAXLOG] = 0.0  # erfc underflows to 0, as in Cephes
        out[tail] = np.where(tt > 0.0, np.log1p(-upper), lower)
    return out.reshape(x.shape)


def _gammaln(x):
    """log Gamma(x) for x > 0 (Cephes ``lgam``), elementwise and in the shape of ``x``."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Stirling's series for every entry, then x < 13 by index arrays
        out = (flat - 0.5) * np.log(flat) - flat + _LS2PI + _horner(_LGAM_A, 1.0 / (flat * flat)) / flat
        out[flat > _MAXLGM] = np.inf
        small = np.flatnonzero(flat < 13.0)
        if small.size:
            # Gamma(x) = Gamma(x - n) (x-1)...(x-n) onto [2, 3), or Gamma(x + 1 or 2) / (x (x+1))
            xs = flat[small]
            n = np.maximum(np.floor(xs) - 2.0, -2.0)
            z = np.ones_like(xs)
            for k in range(1, 11):
                z = np.where(n >= k, z * (xs - k), z)
            z = np.where(n < 0.0, z / xs, z)
            z = np.where(n < -1.0, z / (xs + 1.0), z)
            w = xs - (n + 2.0)
            p, q = _horner(_LGAM_BC, w)
            out[small] = np.log(z) + w * p / q
    return out.reshape(x.shape)


def _betaln(a, b):
    """log B(a, b) for a, b > 0, elementwise. With p <= q: where q >= 13 (lgam's Stirling range), R's
    ``lbeta`` form lgam(p) + p - p log(p + q) + (q - 1/2) log1p(-p / (p + q)) plus Stirling's corrections
    at q less at p + q, which does not cancel as q grows; else the lgam sum in Cephes ``lbeta``'s order."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    q, p = np.maximum(a, b).ravel(), np.minimum(a, b).ravel()
    out, wide = np.empty_like(q), q >= 13.0
    for stirling, rows in ((False, ~wide), (True, wide)):
        rows = slice(None) if rows.all() else np.flatnonzero(rows)
        pr, qr = p[rows], q[rows]
        s = pr + qr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if stirling:
                corr_q, corr_s = (_horner(_LGAM_A, 1.0 / (x * x)) / x for x in (qr, s))
                out[rows] = _gammaln(pr) + (corr_q - corr_s) + pr - pr * np.log(s) + (qr - 0.5) * np.log1p(-pr / s)
            else:
                g = _gammaln(np.stack([qr, pr, s]))
                out[rows] = g[0] + (g[1] - g[2])
    return out.reshape(a.shape)


def _digamma_trigamma(x):
    """digamma and trigamma of x > 0, elementwise and in the shape of ``x``: the recurrences
    psi(x) = psi(x + 1) - 1/x and psi'(x) = psi'(x + 1) + 1/x^2 up to x >= 10, then the series
    log x - 1/(2x) - sum B_2k / (2k x^2k) and 1/x + 1/(2x^2) + sum B_2k / x^(2k+1)."""
    x = np.asarray(x, dtype=float)
    y = x.ravel().copy()
    s0, s1 = np.zeros_like(y), np.zeros_like(y)  # the recurrences' sums of 1/x and 1/x^2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        small = np.flatnonzero(y < 10.0)
        if small.size:
            ys, r0, r1 = y[small], s0[small], s1[small]
            for _ in range(10):
                step = ys < 10.0
                r = np.where(step, 1.0 / ys, 0.0)
                r0 += r
                r1 += r * r
                ys += step
            y[small], s0[small], s1[small] = ys, r0, r1
        r = 1.0 / y
        z = r * r
        psi = np.log(y) - 0.5 * r - z * _horner(_DIGAMMA_B, z) - s0
        psi1 = r + 0.5 * z + r * z * _horner(_TRIGAMMA_B, z) + s1
    return psi.reshape(x.shape), psi1.reshape(x.shape)


def sample_slots(family: Family, slots, size, rng: np.random.Generator) -> np.ndarray:
    """Vectorized sampling of ``size`` values from raw slot arrays.

    The slot arrays broadcast against ``size``; ``rng`` supplies the draws.
    """
    if family is Family.NORMAL:
        mu, sigma = slots
        return mu + sigma * rng.standard_normal(size)
    if family is Family.SKEW_NORMAL:
        # Z = d|U| + sqrt(1-d^2) V with d = eps/sqrt(1+eps^2) has density
        # 2 phi(z) Phi(eps z)
        mu, sigma, epsilon = slots
        d = epsilon / np.hypot(1.0, epsilon)
        u = rng.standard_normal(size)
        v = rng.standard_normal(size)
        return mu + sigma * (d * np.abs(u) + np.sqrt(1.0 - d * d) * v)
    if family is Family.GAMMA:
        k, theta = slots
        return rng.gamma(np.broadcast_to(k, size), np.broadcast_to(theta, size))
    if family is Family.BETA:
        alpha, beta_p = slots
        return rng.beta(np.broadcast_to(alpha, size), np.broadcast_to(beta_p, size))
    if family is Family.SINH_ARCSINH:
        # the closed-form quantile of uniforms; extreme draws overflow sinh to +-inf, silently
        mu, sigma, epsilon, delta = slots
        u = rng.uniform(size=size)
        with np.errstate(over="ignore"):
            return mu + sigma * np.sinh((np.arcsinh(_ndtri(u)) - epsilon) / delta)
    raise ValueError(f"unknown family {family!r}")  # pragma: no cover


def _check_support(family: Family, x: float) -> None:
    if family is Family.GAMMA and not x > 0:
        raise DomainError(f"gamma support is x > 0, got x={x!r}")
    if family is Family.BETA and not (0.0 < x < 1.0):
        raise DomainError(f"beta support is 0 < x < 1, got x={x!r}")


def log_pdf(family: Family, params: ParamVector, x: float) -> float:
    """Natural log of the density of ``family`` at ``x``; an out-of-support
    ``x`` raises :class:`DomainError` (``log_pdf_slots`` gives ``-inf``)."""
    slots = params.require(family)
    _check_support(family, x)
    return float(log_pdf_slots(family, x, *slots))


# ---------------------------------------------------------------------------
# CDFs
# ---------------------------------------------------------------------------


def _skew_normal_cdf(z, epsilon):
    """Skew-normal CDF at standardized z: Phi(z) - 2 T(z, epsilon) (Azzalini 1985)."""
    from scipy.special import owens_t

    return np.clip(_ndtr(z) - 2.0 * owens_t(z, epsilon), 0.0, 1.0)


def cdf(family: Family, params: ParamVector, x):
    """Cumulative distribution function; accepts a scalar or an array of x."""
    slots = params.require(family)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))

    if family is Family.NORMAL:
        mu, sigma = slots
        out = _ndtr((xa - mu) / sigma)
    elif family is Family.GAMMA:
        from scipy.special import gammainc
        k, theta = slots
        out = np.where(xa > 0, gammainc(k, np.maximum(xa, 0.0) / theta), 0.0)
    elif family is Family.BETA:
        from scipy.special import betainc
        alpha, beta_p = slots
        out = betainc(alpha, beta_p, np.clip(xa, 0.0, 1.0))
    elif family is Family.SINH_ARCSINH:
        mu, sigma, epsilon, delta = slots
        w = epsilon + delta * np.arcsinh((xa - mu) / sigma)
        out = _ndtr(np.sinh(np.clip(w, -SINH_ARG_CLAMP, SINH_ARG_CLAMP)))
    elif family is Family.SKEW_NORMAL:
        mu, sigma, epsilon = slots
        out = _skew_normal_cdf((xa - mu) / sigma, epsilon)
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family!r}")

    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# quantile functions
# ---------------------------------------------------------------------------


def quantile(family: Family, params: ParamVector, q):
    """Inverse CDF; accepts a scalar or an array of probabilities in (0, 1)."""
    slots = params.require(family)
    scalar = np.isscalar(q) or np.ndim(q) == 0
    qa = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any((qa <= 0.0) | (qa >= 1.0)):
        raise DomainError("quantile probabilities must lie strictly in (0, 1)")

    if family is Family.NORMAL:
        mu, sigma = slots
        out = mu + sigma * _ndtri(qa)
    elif family is Family.GAMMA:
        from scipy.special import gammaincinv
        k, theta = slots
        out = theta * gammaincinv(k, qa)
    elif family is Family.BETA:
        from scipy.special import betaincinv
        alpha, beta_p = slots
        out = betaincinv(alpha, beta_p, qa)
    elif family is Family.SINH_ARCSINH:
        mu, sigma, epsilon, delta = slots
        out = mu + sigma * np.sinh((np.arcsinh(_ndtri(qa)) - epsilon) / delta)
    elif family is Family.SKEW_NORMAL:
        mu, sigma, epsilon = slots
        # F falls as epsilon rises: Phi(z) <= F(z) <= 2 Phi(z) for epsilon <= 0
        # and 2 Phi(z) - 1 <= F(z) <= Phi(z) for epsilon >= 0, so for every
        # epsilon F(z) = q lies in [Phi^-1(q / 2), Phi^-1((1 + q) / 2)]. The
        # clamp at +/-40, where Phi rounds to 0 or 1, keeps the bracket finite
        # when q / 2 rounds to 0 or (1 + q) / 2 to 1; 64 halvings shrink its
        # width, under 40, below 3e-18
        lo = np.maximum(_ndtri(0.5 * qa), -40.0)
        hi = np.minimum(_ndtri(0.5 + 0.5 * qa), 40.0)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = _skew_normal_cdf(mid, epsilon) < qa
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = mu + sigma * hi
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family!r}")

    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample(family: Family, params: ParamVector, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. values; deterministic for a given ``seed``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sample_slots(family, params.require(family), n, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# empirical moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Sample moments; skewness/kurtosis are NaN when not available."""

    mean: float
    sd: float
    skewness: float
    kurtosis: float


def empirical_moments(values) -> Moments:
    """Population-style sample moments of a vector.

    sd is the population standard deviation sqrt(m2); skewness is
    m3 / m2^(3/2) and kurtosis m4 / m2^2 with m_r the central moments.
    Skewness and kurtosis are NaN for degenerate (sd = 0) or too-short input;
    sd is NaN for a single observation.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empirical_moments requires a nonempty input")
    mean = float(v.mean())
    if v.size < 2:
        return Moments(mean, math.nan, math.nan, math.nan)
    c = v - mean
    m2 = float(np.mean(c**2))
    sd = math.sqrt(m2)
    if v.size < 3 or sd == 0.0:
        return Moments(mean, sd, math.nan, math.nan)
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    return Moments(mean, sd, m3 / m2**1.5, m4 / m2**2)
