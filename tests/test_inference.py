import dataclasses
import itertools
import math

import numpy as np
import pytest

from agemix.data_io import GeneratorConfig, Records, SubsetKey, default_config, simulate, stratify
from agemix.design import ModelSpec, ModelTag, design_matrices
from agemix.distributions import Family, ParamVector, linpred_slots, sample_slots
from agemix.evaluation import elpd_batch
from agemix.inference import (
    FitError,
    FitProblem,
    _default_init,
    _DERIVS,
    _evaluate,
    _keys,
    _natural_params,
    _Prepared,
    draw_params,
    fit_map,
    fit_map_batch,
    laplace_draws,
    laplace_draws_batch,
    neg_log_posterior_and_grad,
    posterior_predictive,
    predictive_batch,
    predictive_for_records,
)
from agemix.transforms import Transform, TransformKind, forward_array, inverse_array

from test_acceptance import GRADIENT_COMBOS, SPEC_TAGS

PRIOR_NORMALIZER = 0.5 * math.log(2 * math.pi * 25.0)


NO_RECORDS = Records([], [], [])


def make_problem(family, kind, tag, records):
    return FitProblem(family, Transform(kind), ModelSpec(tag), records)


def natural_params(family, *etas):
    """_natural_params of scalar linear predictors given in slot order."""
    values = _natural_params(family, {s: np.asarray(e, dtype=float) for s, e in zip(linpred_slots(family), etas)})
    return tuple(float(v) for v in values)


class TestNaturalParams:
    def test_identity_point(self):
        mu, sigma, epsilon, delta = natural_params(Family.SINH_ARCSINH, 0.0, 0.0, 0.0, 0.0)
        assert (mu, sigma, epsilon, delta) == (0.0, 1.0, 0.0, 1.0)

    def test_scale_reparameterization(self):
        _, sigma, _, delta = natural_params(Family.SINH_ARCSINH, 0.0, math.log(2), 0.0, math.log(3))
        assert sigma == pytest.approx(6.0, rel=1e-12)
        assert delta == pytest.approx(3.0, rel=1e-12)

    def test_log_link(self):
        *_, delta = natural_params(Family.SINH_ARCSINH, 0.0, 0.0, 0.0, -0.5)
        assert delta == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_gamma_slots(self):
        k, theta = natural_params(Family.GAMMA, math.log(4), math.log(0.5))
        assert (k, theta) == (pytest.approx(4.0), pytest.approx(0.5))

    def test_overflow_clamped(self):
        _, sigma = natural_params(Family.NORMAL, 0.0, 1e6)
        assert math.isfinite(sigma)


class TestNegLogPosterior:
    def test_zero_data_prior_only(self):
        problem = make_problem(Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_1, NO_RECORDS)
        prep = _Prepared(problem)
        assert prep.dim == 4 + 3 + 3 + 3
        value = neg_log_posterior_and_grad(problem, np.zeros(prep.dim))[0]
        assert value == pytest.approx(prep.dim * PRIOR_NORMALIZER, rel=1e-12)

    def test_single_standard_normal_record(self):
        rec = Records(respondent_age=[30.0], respondent_sex=[1], partner_age=[30.0])
        problem = make_problem(Family.NORMAL, TransformKind.AGE_DIFFERENCE, ModelTag.CONVENTIONAL, rec)
        # y = 0; Conventional normal has 4 mu + 1 sigma coefficients
        value = neg_log_posterior_and_grad(problem, np.zeros(5))[0]
        assert value == pytest.approx(5 * PRIOR_NORMALIZER + 0.9189385332046727, rel=1e-12)

    def test_infinite_sentinel(self, tiny_records):
        problem = make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.CONVENTIONAL, tiny_records)
        beta = np.zeros(5)
        beta[-1] = -800.0  # sigma underflows, density -inf
        assert neg_log_posterior_and_grad(problem, beta)[0] == math.inf

    def test_wrong_length_rejected(self, tiny_records):
        problem = make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.CONVENTIONAL, tiny_records)
        with pytest.raises(ValueError, match=r"beta must have shape \(5,\), got \(3,\)"):
            neg_log_posterior_and_grad(problem, np.zeros(3))

    def test_skew_normal_log_ndtr_once_per_evaluation(self, tiny_records, monkeypatch):
        # the density and its first and second derivatives share one
        # log Phi(epsilon z); value and gradient equal those of the density
        # and the derivatives evaluated apart
        from agemix import distributions
        from agemix.distributions import log_pdf_slots

        prep = _Prepared(make_problem(Family.SKEW_NORMAL, TransformKind.AGE_DIFFERENCE, ModelTag.DISTRIBUTIONAL_1,
                                      tiny_records))
        beta = _default_init(prep) + 0.05 * np.random.default_rng(3).standard_normal(prep.dim)
        params = _natural_params(Family.SKEW_NORMAL, prep.etas(beta))
        # each key counts once per record of it
        apart_value = -(prep.count * log_pdf_slots(Family.SKEW_NORMAL, prep.y, *params)).sum()
        apart_dl = _DERIVS[Family.SKEW_NORMAL](prep.y, *params)[1]
        calls, log_ndtr = [], distributions._log_ndtr

        def counting(x):
            calls.append(np.shape(x))
            return log_ndtr(x)

        monkeypatch.setattr(distributions, "_log_ndtr", counting)
        (value,), (grad,), _ = _evaluate(prep, beta)
        assert calls == [prep.y.shape]
        prior_value = beta @ beta / 50.0 + prep.dim * PRIOR_NORMALIZER
        assert value == pytest.approx(apart_value + prior_value, rel=1e-14)
        apart_grad = np.concatenate([-prep.X[s].T @ (prep.count * apart_dl[s]) for s in prep.slots]) + beta / 25.0
        np.testing.assert_allclose(grad, apart_grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "family,kind",
        [
            (Family.SINH_ARCSINH, TransformKind.LOG_RATIO),
            (Family.SKEW_NORMAL, TransformKind.AGE_DIFFERENCE),
            (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
            (Family.BETA, TransformKind.BETA_RESCALED),
        ],
    )
    def test_gradient_matches_finite_differences(self, family, kind, tiny_records):
        problem = make_problem(family, kind, ModelTag.DISTRIBUTIONAL_1, tiny_records)
        prep = _Prepared(problem)
        from agemix.inference import _default_init

        base = _default_init(prep)
        scale = np.concatenate([np.maximum(np.abs(prep.X[s]).max(axis=0), 1.0) for s in prep.slots])
        rng = np.random.default_rng(11)
        for _ in range(3):
            beta = base + 0.15 * rng.standard_normal(prep.dim) / scale
            _, grad = neg_log_posterior_and_grad(prep, beta)
            fd = np.empty(prep.dim)
            h = 1e-5
            for j in range(prep.dim):
                e = np.zeros(prep.dim)
                e[j] = h
                plus, minus = neg_log_posterior_and_grad(prep, beta + e), neg_log_posterior_and_grad(prep, beta - e)
                fd[j] = (plus[0] - minus[0]) / (2 * h)
            rel = np.linalg.norm(grad - fd) / (np.linalg.norm(grad) + np.linalg.norm(fd))
            assert rel < 1e-5


class TestFitMap:
    def test_constant_normal_recovery(self):
        cfg = GeneratorConfig(
            n=20_000,
            seed=2,
            family=Family.NORMAL,
            transform=Transform(TransformKind.LINEAR_AGE),
            spec=ModelSpec(ModelTag.INTERCEPT_ONLY),
            coefficients={"mu": [35.0], "sigma": [math.log(2.0)]},
            integer_ages=False,
        )
        records = simulate(cfg)
        fit = fit_map(make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.INTERCEPT_ONLY, records))
        assert fit.converged
        assert fit.coef("mu")[0] == pytest.approx(35.0, abs=0.05)
        assert math.exp(fit.coef("sigma")[0]) == pytest.approx(2.0, abs=0.05)

    def test_deterministic_given_init(self, small_records):
        problem = make_problem(
            Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.CONVENTIONAL, small_records
        )
        a = fit_map(problem)
        b = fit_map(problem)
        assert a.nlp == b.nlp
        np.testing.assert_array_equal(a.beta_packed, b.beta_packed)

    def test_empty_problem_rejected(self):
        with pytest.raises(FitError):
            fit_map(make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.INTERCEPT_ONLY, NO_RECORDS))

    def test_location_shift_invariance(self):
        # prior shrinkage of the intercept scales as 1/n; n here keeps it
        # well under the 1e-3 assertion window
        cfg = GeneratorConfig(
            n=40_000,
            seed=77,
            family=Family.NORMAL,
            transform=Transform(TransformKind.LINEAR_AGE),
            spec=ModelSpec(ModelTag.CONVENTIONAL),
            coefficients={"mu": [6.0, 1.0, 0.8, -0.05], "sigma": [math.log(3.0)]},
            integer_ages=False,
        )
        base = simulate(cfg)
        shifted = Records(base.respondent_age, base.respondent_sex, base.partner_age + 5.0)
        fit0 = fit_map(make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.CONVENTIONAL, base))
        fit1 = fit_map(make_problem(Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.CONVENTIONAL, shifted))
        assert fit1.coef("mu")[0] - fit0.coef("mu")[0] == pytest.approx(5.0, abs=1e-3)
        assert np.max(np.abs(fit1.coef("mu")[1:] - fit0.coef("mu")[1:])) < 1e-3
        assert np.max(np.abs(fit1.coef("sigma") - fit0.coef("sigma"))) < 1e-3

    def test_objective_decreases_along_accepted_steps(self, small_records):
        # the fit capped at k Newton steps stops at the k-th accepted point
        problem = make_problem(
            Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_1, small_records
        )
        full = fit_map(problem, max_iter=200)
        assert full.converged and full.iterations > 5
        accepted = [fit_map(problem, max_iter=k).nlp for k in range(full.iterations + 1)]
        assert accepted[-1] == full.nlp
        assert all(b <= a + 1e-9 for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] < accepted[0]

    @pytest.mark.parametrize(
        "family,kind",
        [(Family.GAMMA, TransformKind.GAMMA_REFLECTED), (Family.BETA, TransformKind.BETA_RESCALED)],
    )
    def test_small_subset_converges_in_few_newton_steps(self, family, kind):
        # BFGS hit its 500-iteration cap on this 26-record subset for both
        # families, after more than 13,000 gradient calls each
        subsets = stratify(simulate(default_config(n=500, seed=24601)))
        records = next(recs for key, recs in subsets.items() if (key.sex, key.bin_start) == (0, 30))
        assert 20 <= len(records) <= 30
        fit = fit_map(make_problem(family, kind, ModelTag.INTERCEPT_ONLY, records))
        assert fit.converged and fit.curvature_pd
        assert fit.iterations <= 10
        assert fit.min_curvature_eigenvalue > 0


# one (family, outcome) combination per family, as compare-distributions fits them
BATCH_COMBOS = [
    (Family.NORMAL, TransformKind.LOG_RATIO),
    (Family.SKEW_NORMAL, TransformKind.LOG_RATIO),
    (Family.SINH_ARCSINH, TransformKind.LOG_RATIO),
    (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
    (Family.BETA, TransformKind.BETA_RESCALED),
]


@pytest.fixture(scope="module")
def subsets():
    return list(stratify(simulate(default_config(n=500, seed=7))).values())


def assert_same_fit(batched, single):
    """``batched`` is ``single``: a cell's sums and products run over its own
    records only, so its Newton path is its batch-of-one path."""
    np.testing.assert_array_equal(batched.beta_packed, single.beta_packed)
    np.testing.assert_array_equal(batched.curvature, single.curvature)
    for name in ("nlp", "iterations", "converged", "gradient_norm", "curvature_pd"):
        assert getattr(batched, name) == getattr(single, name), name


class TestBatchedFit:
    """``fit_map_batch`` fits each cell as its batch-of-one fit would."""

    @pytest.mark.parametrize("family,kind", BATCH_COMBOS)
    def test_cells_match_their_batch_of_one(self, family, kind, subsets):
        problems = [make_problem(family, kind, ModelTag.INTERCEPT_ONLY, recs) for recs in subsets]
        assert len(problems) == 12
        fits = fit_map_batch(problems)
        for problem, fit in zip(problems, fits):
            single = fit_map_batch([problem])[0]
            assert fit.converged
            assert_same_fit(fit, single)

    def test_fit_map_is_the_batch_of_one(self, small_records):
        problem = make_problem(Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_1, small_records)
        assert_same_fit(fit_map(problem), fit_map_batch([problem])[0])

    def test_regression_cells_match_their_batch_of_one(self, small_records):
        # wider designs take one matmul per cell instead of segment sums
        problem = make_problem(Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_1, small_records)
        folds = np.arange(len(small_records)) % 3
        problems = [dataclasses.replace(problem, records=small_records[folds != f]) for f in range(3)]
        for problem, fit in zip(problems, fit_map_batch(problems)):
            assert fit.converged
            assert_same_fit(fit, fit_map(problem))

    def test_cell_outside_the_support_stops_alone(self, subsets):
        # with the reflection at 30 years, male respondents' partner ages of
        # 30 and above map to 0 and below, outside the gamma's support: such a
        # cell's objective is +inf from the start and it can never converge
        kind = TransformKind.GAMMA_REFLECTED
        problems = [
            FitProblem(Family.GAMMA, Transform(kind, offset=30.0), ModelSpec(ModelTag.INTERCEPT_ONLY), recs)
            for recs in subsets
        ]
        stuck = [bool(np.any((recs.respondent_sex == 0) & (recs.partner_age >= 30))) for recs in subsets]
        assert 0 < sum(stuck) < len(stuck)
        fits = fit_map_batch(problems)
        for problem, fit, outside in zip(problems, fits, stuck):
            if outside:
                assert not fit.converged and fit.iterations == 0 and fit.nlp == math.inf
            else:
                assert fit.converged
                assert_same_fit(fit, fit_map(problem))

    def test_mixed_families_rejected(self, subsets):
        problems = [make_problem(f, k, ModelTag.INTERCEPT_ONLY, subsets[0]) for f, k in BATCH_COMBOS[:2]]
        with pytest.raises(ValueError, match="one family, one transform and one spec"):
            fit_map_batch(problems)
        # one family, but two specs
        family, kind = BATCH_COMBOS[0]
        problems = [make_problem(family, kind, tag, subsets[0]) for tag in (ModelTag.INTERCEPT_ONLY, ModelTag.CONVENTIONAL)]
        with pytest.raises(ValueError, match="one family, one transform and one spec"):
            fit_map_batch(problems)

    def test_empty_cell_rejected(self, subsets):
        kind = TransformKind.LOG_RATIO
        problems = [make_problem(Family.NORMAL, kind, ModelTag.INTERCEPT_ONLY, r) for r in (subsets[0], NO_RECORDS)]
        with pytest.raises(FitError, match="at least one record"):
            fit_map_batch(problems)


class TestEmptyBatch:
    """Every batch stage takes an empty batch and gives no results."""

    @pytest.mark.parametrize("stage", [
        lambda: fit_map_batch([]),
        lambda: laplace_draws_batch([], 100, []),
        lambda: elpd_batch("psis", fits=[], draws=[], records=[]),
        lambda: elpd_batch("kfold", problems=[], seeds=[]),
        lambda: predictive_batch([], [], []),
    ], ids=["fit", "draws", "psis", "kfold", "predictive"])
    def test_no_results(self, stage):
        assert stage() == []

    def test_fit_without_requests_gets_an_empty_group(self, subsets):
        fit = fit_map(make_problem(Family.NORMAL, TransformKind.LOG_RATIO, ModelTag.INTERCEPT_ONLY, subsets[0]))
        assert predictive_batch([fit], [laplace_draws(fit, 100, seed=1)], [[]]) == [[]]


MIXED = "one family, one transform and one spec"


class TestBatchIsOneModel:
    """A batch is one model: every batch stage raises ValueError on problems or
    fits of mixed transforms or spline knots, which it once scored under the
    first fit's, and a batch's design rows are each record's own."""

    @pytest.fixture(scope="class", params=["transforms", "knots"])
    def mixed(self, request, subsets):
        if request.param == "transforms":
            kinds = (TransformKind.LOG_RATIO, TransformKind.LINEAR_AGE)
            return [make_problem(Family.NORMAL, kind, ModelTag.INTERCEPT_ONLY, subsets[0]) for kind in kinds]
        records = simulate(default_config(n=600, seed=11))
        problems = [make_problem(Family.NORMAL, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_3, r)
                    for r in (records[:300], records[300:])]
        knots = [p.spec.with_knots_from_ages(p.records.respondent_age).knots for p in problems]
        assert knots[0] != knots[1]  # each problem's knots, placed on its own ages
        return problems

    @pytest.fixture(scope="class")
    def fits_and_draws(self, mixed):
        fits = [fit_map(p) for p in mixed]
        return fits, [laplace_draws(f, 100, seed=i) for i, f in enumerate(fits)]

    def test_fit_map_batch(self, mixed):
        with pytest.raises(ValueError, match=MIXED):
            fit_map_batch(mixed)

    def test_elpd_batch_psis(self, mixed, fits_and_draws):
        fits, draws = fits_and_draws
        with pytest.raises(ValueError, match=MIXED):
            elpd_batch("psis", fits=fits, draws=draws, records=[p.records for p in mixed])

    def test_elpd_batch_kfold(self, mixed):
        with pytest.raises(ValueError, match=MIXED):
            elpd_batch("kfold", problems=mixed, n_draws=100, seeds=[1, 2])

    def test_predictive_batch(self, mixed, fits_and_draws):
        fits, draws = fits_and_draws
        with pytest.raises(ValueError, match=MIXED):
            predictive_batch(fits, draws, [[(p.records, 50, i)] for i, p in enumerate(mixed)])

    @pytest.mark.parametrize("tag", [ModelTag.DISTRIBUTIONAL_4, ModelTag.CONVENTIONAL])
    def test_design_rows_are_each_records_own(self, tag):
        # fractional ages that repeat within and across problems, both sexes:
        # the batch gathers its (age, sex) cells' rows per key, and each
        # record's key holds, bit for bit, the row design_matrices builds for it
        rng = np.random.default_rng(3)
        ages = rng.choice(np.round(rng.uniform(15, 64, 150), 2), size=900)
        records = Records(ages, rng.integers(0, 2, 900), np.rint(ages * np.exp(rng.normal(0.05, 0.15, 900))))
        spec = ModelSpec(tag).with_knots_from_ages(ages)
        cells = [records[i::3] for i in range(3)]
        problems = [FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), spec, r) for r in cells]
        prep = _Prepared(problems)
        key_of = _keys(problems, cells)[6]
        assert prep.problem.spec == spec and prep.y.size < 900
        for c, ((lo, hi), r) in enumerate(zip(prep.segments, cells)):
            assert set(r.respondent_sex) == {0, 1}
            assert prep.count[lo:hi].sum() == 300 and (prep.problem_of[lo:hi] == c).all()
            mine = key_of[300 * c : 300 * (c + 1)]
            assert ((lo <= mine) & (mine < hi)).all()
            want = design_matrices(spec, r.respondent_age, r.respondent_sex, center=True)
            for slot in prep.slots:
                np.testing.assert_array_equal(bits(prep.X[slot][mine]), bits(want[slot]))


class TestProblemKnots:
    """A problem settles its model when it is made: a spline spec without knots
    gets them on the problem's own respondent ages, and one with knots keeps them."""

    def test_knots_set_when_made_and_kept(self, small_records):
        tag, fold = ModelTag.DISTRIBUTIONAL_4, small_records[:300]
        problem = make_problem(Family.SINH_ARCSINH, TransformKind.LOG_RATIO, tag, small_records)
        assert problem.spec == ModelSpec(tag).with_knots_from_ages(small_records.respondent_age)
        assert problem.spec.knots is not None
        explicit = ModelSpec(tag, knots=(20.0, 30.0, 40.0, 50.0, 60.0))
        assert FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), explicit, fold).spec is explicit
        # a copy with other records, as a k-fold training fold is, keeps the full data's knots
        assert ModelSpec(tag).with_knots_from_ages(fold.respondent_age) != problem.spec
        assert dataclasses.replace(problem, records=fold).spec == problem.spec
        # a spec without splines has no knots to set
        assert make_problem(Family.NORMAL, TransformKind.LOG_RATIO, ModelTag.CONVENTIONAL, fold).spec.knots is None


FIVE_FAMILIES = [
    (Family.NORMAL, TransformKind.AGE_DIFFERENCE),
    (Family.SKEW_NORMAL, TransformKind.LOG_AGE),
    (Family.SINH_ARCSINH, TransformKind.LOG_RATIO),
    (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
    (Family.BETA, TransformKind.BETA_RESCALED),
]


def per_record_evaluation(problem, beta):
    """Value, gradient and Hessian of a problem's negative log posterior at
    ``beta``, summed record by record: each record its own design row."""
    r, family = problem.records, problem.family
    slots = linpred_slots(family)
    spec = problem.spec.with_knots_from_ages(r.respondent_age)
    X = design_matrices(spec, r.respondent_age, r.respondent_sex, slots=slots, center=True)
    ends = np.cumsum([X[s].shape[1] for s in slots])
    block = {s: slice(end - X[s].shape[1], end) for s, end in zip(slots, ends)}
    y = forward_array(problem.transform, r.respondent_age, r.respondent_sex, r.partner_age)
    logf, dl, d2l = _DERIVS[family](y, *_natural_params(family, {s: X[s] @ beta[block[s]] for s in slots}))
    value = -logf.sum() + beta @ beta / 50.0 + beta.size * PRIOR_NORMALIZER
    grad = -np.concatenate([X[s].T @ dl[s] for s in slots]) + beta / 25.0
    hess = np.eye(beta.size) / 25.0
    for (a, b), w in d2l.items():
        hess[block[a], block[b]] -= X[a].T @ (w[:, None] * X[b])
        if a != b:
            hess[block[b], block[a]] -= (X[a].T @ (w[:, None] * X[b])).T
    return value, grad, hess


class TestCountedKeys:
    """A fit sums over its distinct (design row, outcome) keys, each key's
    terms weighted by its record count: the per-record sums, in key order."""

    @pytest.fixture(scope="class")
    def fractional(self):
        config = dataclasses.replace(default_config(n=400, seed=77), integer_ages=False)
        return simulate(config)

    @pytest.mark.parametrize("family,kind", FIVE_FAMILIES)
    @pytest.mark.parametrize("data", ["fractional", "repeated"])
    def test_evaluate_equals_the_per_record_sums(self, family, kind, data, fractional, tiny_records):
        # fractional ages make every record its own key; integer records
        # repeated four times give every key a count of at least 4
        records = fractional if data == "fractional" else tiny_records[np.tile(np.arange(len(tiny_records)), 4)]
        problem = make_problem(family, kind, ModelTag.DISTRIBUTIONAL_2, records)
        prep = _Prepared(problem)
        if data == "fractional":
            assert (prep.count == 1).all() and prep.y.size == len(records)
        else:
            assert (prep.count >= 4).all() and prep.count.max() > 4 and prep.count.sum() == len(records)
        scale = np.concatenate([np.maximum(np.abs(prep.X[s]).max(axis=0), 1.0) for s in prep.slots])
        beta = _default_init(prep) + 0.1 * np.random.default_rng(5).standard_normal(prep.dim) / scale
        (value,), (grad,), (hess,) = _evaluate(prep, beta)
        want_value, want_grad, want_hess = per_record_evaluation(problem, beta)
        assert np.isfinite(want_value)
        assert value == pytest.approx(want_value, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
        np.testing.assert_allclose(hess, want_hess, rtol=1e-12, atol=1e-12 * np.abs(want_hess).max())

    @pytest.mark.parametrize(
        "family,kind,tag",
        [
            (Family.SINH_ARCSINH, TransformKind.LOG_RATIO, ModelTag.DISTRIBUTIONAL_2),
            (Family.SKEW_NORMAL, TransformKind.AGE_DIFFERENCE, ModelTag.CONVENTIONAL),
            (Family.GAMMA, TransformKind.GAMMA_REFLECTED, ModelTag.DISTRIBUTIONAL_1),
            (Family.BETA, TransformKind.BETA_RESCALED, ModelTag.DISTRIBUTIONAL_1),
        ],
    )
    def test_fit_is_bit_identical_under_record_permutation(self, family, kind, tag, tiny_records):
        order = np.random.default_rng(9).permutation(len(tiny_records))
        fits = [fit_map(make_problem(family, kind, tag, r)) for r in (tiny_records, tiny_records[order])]
        assert fits[0].converged
        for name in ("beta_packed", "nlp", "curvature"):
            np.testing.assert_array_equal(*(bits(getattr(f, name)) for f in fits), err_msg=name)


class TestSkewNormalStart:
    """The skew normal starts at its method-of-moments direct parameters.

    A start at epsilon = 0 (the sample mean and log SD) is a stationary point
    of the likelihood in epsilon, and Newton stopped there in cells like this
    one: the 167 male 20-24 records of a 3,000-record simulation, log-ratio.
    """

    def test_stuck_cell_reaches_the_multistart_optimum(self):
        cell = stratify(simulate(default_config(n=3000, seed=1)))[SubsetKey(0, 20)]
        problem = make_problem(Family.SKEW_NORMAL, TransformKind.LOG_RATIO, ModelTag.INTERCEPT_ONLY, cell)
        fit = fit_map(problem)
        assert fit.converged and fit.curvature_pd

        # a multi-start from the 8 corners +-0.5 around the epsilon = 0 start
        y = np.log(cell.partner_age / cell.respondent_age)
        corners = np.array(list(itertools.product((-0.5, 0.5), repeat=3)))
        starts = np.array([y.mean(), math.log(y.std()), 0.0]) + corners
        best = min(f.nlp for f in fit_map_batch([problem] * len(starts), starts) if f.converged)
        assert fit.nlp <= best + 1e-6

        normal = fit_map(make_problem(Family.NORMAL, TransformKind.LOG_RATIO, ModelTag.INTERCEPT_ONLY, cell))
        scores = [elpd_batch("psis", fits=[f], draws=[laplace_draws(f, 1000, seed=5)], records=[cell])[0]
                  for f in (fit, normal)]
        diff = scores[0].pointwise - scores[1].pointwise
        assert scores[0].elpd >= scores[1].elpd - 2.0 * math.sqrt(diff.size * np.var(diff, ddof=1))
        assert scores[0].flagged == ()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestOneDensity:
    """The fit and the ELPD layer score one density: the log f that
    ``_DERIVS`` returns with its derivatives is ``log_pdf_slots``' bit for bit."""

    # per family: outcomes, then parameters (in slot order) broadcast against them
    CASES = {
        Family.NORMAL: ([-3.0, 0.0, 0.7, 12.0], [0.1, 0.0, -0.2, 1.0], [0.5, 1.0, 2.0, 1e-3]),
        Family.SKEW_NORMAL: ([-3.0, 0.0, 0.7, -40.0, 40.0], [0.1, 0.0, -0.2, 0.0, 0.0], [0.5, 1.0, 2.0, 1.0, 1.0],
                             [-2.0, 0.0, 3.0, 5.0, -5.0]),
        # x <= 0 lies outside the support: -inf
        Family.GAMMA: ([-1.0, 0.0, 0.5, 3.0, 40.0], [2.0, 2.0, 0.7, 5.0, 30.0], [1.0, 1.0, 1.5, 0.4, 1.2]),
        # x outside (0, 1): -inf
        Family.BETA: ([-0.1, 0.0, 0.2, 0.7, 1.0, 1.5], [2.0, 2.0, 0.8, 5.0, 2.0, 2.0], [3.0, 3.0, 1.2, 2.0, 3.0, 3.0]),
        # w = epsilon + delta asinh(z) past 355.6 (sinh(w)^2 overflows) and
        # past 355.9 (-inf), and |z| past 1.3e154 (z^2 overflows)
        Family.SINH_ARCSINH: ([0.3, -2.0, 0.0, 1.0, -1.0, 1.0, 2e154, -1e160, 1e300],
                              [0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                              [1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                              [0.2, -0.4, 355.7, 356.5, -400.0, 0.0, 0.0, 0.0, 0.0],
                              [0.9, 1.3, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 2.0]),
    }

    @pytest.mark.parametrize("family", list(Family))
    def test_derivs_log_density_is_log_pdf_slots(self, family):
        from agemix.distributions import log_pdf_slots

        y, *params = (np.array(c) for c in self.CASES[family])
        with np.errstate(all="ignore"):
            fit_density = _DERIVS[family](y, *params)[0]
            elpd_density = log_pdf_slots(family, y, *params)
        np.testing.assert_array_equal(bits(fit_density), bits(elpd_density))
        if family in (Family.GAMMA, Family.BETA, Family.SINH_ARCSINH):
            assert np.isneginf(elpd_density).any() and np.isfinite(elpd_density).any()

    def test_cases_reach_the_sinh_arcsinh_overflow_edges(self):
        y, mu, sigma, epsilon, delta = (np.array(c) for c in self.CASES[Family.SINH_ARCSINH])
        z = (y - mu) / sigma
        w = np.abs(epsilon + delta * np.arcsinh(z))
        assert np.any((w > 355.6) & (w < 355.9)) and np.any(w > 355.9) and np.any(np.abs(z) > 1.3e154)


class TestCurvature:
    """A fit's curvature is ``_evaluate``'s Hessian at its coefficients, bit
    for bit: Newton keeps the Hessian of each accepted point."""

    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_curvature_is_the_hessian_at_the_fit(self, max_iter):
        from agemix.cli import DISTRIBUTION_COMBOS

        cells = list(stratify(simulate(default_config(n=500, seed=24601))).values())
        assert len(DISTRIBUTION_COMBOS) == 14
        capped = 0
        for family, kind in DISTRIBUTION_COMBOS:
            problems = [make_problem(family, kind, ModelTag.INTERCEPT_ONLY, r) for r in cells]
            for problem, fit in zip(problems, fit_map_batch(problems, max_iter=max_iter)):
                hess = _evaluate(_Prepared(problem), fit.beta_packed)[2][0]
                np.testing.assert_array_equal(bits(fit.curvature), bits(hess))
                capped += fit.iterations == max_iter
        assert capped > 0 or max_iter > 3


class TestHessian:
    def test_matches_finite_differences_of_gradient(self):
        records = simulate(default_config(n=200, seed=2024))
        rng = np.random.default_rng(43)
        h = 1e-5
        for family, kind in GRADIENT_COMBOS:
            for tag in SPEC_TAGS:
                prep = _Prepared(FitProblem(family, Transform(kind), ModelSpec(tag), records))
                scale = np.concatenate([np.maximum(np.abs(prep.X[s]).max(axis=0), 1.0) for s in prep.slots])
                beta = _default_init(prep) + 0.15 * rng.standard_normal(prep.dim) / scale
                hess = _evaluate(prep, beta)[2][0]
                np.testing.assert_array_equal(hess, hess.T)
                fd = np.empty_like(hess)
                for j in range(prep.dim):
                    e = np.zeros(prep.dim)
                    e[j] = h
                    _, g_plus = neg_log_posterior_and_grad(prep, beta + e)
                    _, g_minus = neg_log_posterior_and_grad(prep, beta - e)
                    fd[:, j] = (g_plus - g_minus) / (2 * h)
                rel = np.linalg.norm(hess - fd) / np.linalg.norm(fd)
                assert rel < 1e-5, (family, kind, tag, rel)

    @pytest.mark.parametrize("family,kind", GRADIENT_COMBOS)
    def test_eta_hessians_match_finite_differences_of_eta_gradients(self, family, kind, tiny_records):
        prep = _Prepared(make_problem(family, kind, ModelTag.DISTRIBUTIONAL_1, tiny_records))
        rng = np.random.default_rng(7)
        beta = _default_init(prep) + 0.05 * rng.standard_normal(prep.dim)
        etas = prep.etas(beta)
        _, _, hess = _DERIVS[family](prep.y, *_natural_params(family, etas))
        assert len(hess) == len(prep.slots) * (len(prep.slots) + 1) // 2
        h = 1e-6
        for (a, b), w in hess.items():
            shifted = [dict(etas, **{b: etas[b] + sign * h}) for sign in (1, -1)]
            plus, minus = (_DERIVS[family](prep.y, *_natural_params(family, e))[1][a] for e in shifted)
            fd = (plus - minus) / (2 * h)
            np.testing.assert_allclose(w, fd, rtol=1e-5, atol=1e-6 * np.max(np.abs(fd)))


@pytest.fixture(scope="module")
def seven_param_fit(small_records):
    # Distributional-1 normal: 4 mu + 3 sigma coefficients
    problem = FitProblem(
        Family.NORMAL,
        Transform(TransformKind.LOG_RATIO),
        ModelSpec(ModelTag.DISTRIBUTIONAL_1),
        small_records,
    )
    return fit_map(problem)


@pytest.fixture(scope="module")
def normal_fit(small_records):
    problem = FitProblem(
        Family.NORMAL,
        Transform(TransformKind.LINEAR_AGE),
        ModelSpec(ModelTag.CONVENTIONAL),
        small_records,
    )
    return fit_map(problem)


class TestLaplaceDraws:
    def test_single_draw_shape(self, seven_param_fit):
        draws = laplace_draws(seven_param_fit, 1, seed=0)
        assert draws.shape == (1, 7)

    def test_mean_matches_map(self, seven_param_fit):
        draws = laplace_draws(seven_param_fit, 100_000, seed=1)
        sd = np.sqrt(np.diag(np.linalg.inv(seven_param_fit.curvature)))
        bound = 4.0 * sd / math.sqrt(100_000)
        assert np.all(np.abs(draws.mean(axis=0) - seven_param_fit.beta_packed) < bound)

    def test_covariance_matches_inverse_curvature(self, seven_param_fit):
        draws = laplace_draws(seven_param_fit, 100_000, seed=2)
        target = np.linalg.inv(seven_param_fit.curvature)
        got = np.cov(draws.T)
        scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
        # 5% entrywise relative where the entry is meaningfully nonzero;
        # structurally-zero cross-block covariances are held to an absolute
        # correlation bound instead (Monte Carlo noise ~ 1/sqrt(n) = 0.003)
        meaningful = np.abs(target) > 0.05 * scale
        rel = np.abs(got - target) / scale
        assert np.max(rel[meaningful] * scale[meaningful] / np.abs(target[meaningful])) < 0.05
        assert np.max(rel[~meaningful]) < 0.02

    def test_deterministic(self, seven_param_fit):
        a = laplace_draws(seven_param_fit, 10, seed=3)
        b = laplace_draws(seven_param_fit, 10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_non_converged_fit_rejected(self, seven_param_fit):
        import dataclasses

        broken = dataclasses.replace(seven_param_fit, converged=False)
        with pytest.raises(FitError):
            laplace_draws(broken, 10, seed=0)


DRAW_PARAMS_COMBOS = [
    (Family.NORMAL, TransformKind.LINEAR_AGE),
    (Family.SKEW_NORMAL, TransformKind.AGE_DIFFERENCE),
    (Family.SINH_ARCSINH, TransformKind.LOG_RATIO),
    (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
    (Family.BETA, TransformKind.BETA_RESCALED),
]


@pytest.fixture(scope="module", params=["whole", "fractional"])
def cell_records(request):
    """Whole ages, where many records share an (age, sex) cell, or
    fractional ones, where every record is its own cell."""
    records = simulate(default_config(n=300, seed=31))
    ages = records.respondent_age
    if request.param == "fractional":
        u = np.random.default_rng(32).uniform(size=ages.size)
        ages = np.where(ages < 64.0, ages + u, ages - u)
        records = Records(ages, records.respondent_sex, records.partner_age)
    n_cells = len(np.unique(np.column_stack([ages, records.respondent_sex]), axis=0))
    assert n_cells < 120 if request.param == "whole" else n_cells == len(records)
    return records


class TestDrawParams:
    @staticmethod
    def fit_and_draws(family, kind, tag, records):
        # no Newton steps: draw_params reads only the fit's spec and layout
        fit = fit_map(make_problem(family, kind, tag, records), max_iter=0)
        rng = np.random.default_rng(5)
        return fit, fit.beta_packed + 0.01 * rng.standard_normal((40, fit.beta_packed.size))

    @staticmethod
    def per_observation(fit, draws, records):
        """The family parameters from one design row per observation."""
        mats = design_matrices(fit.spec, records.respondent_age, records.respondent_sex, slots=fit.slots, center=True)
        etas = {slot: (mats[slot] @ draws[:, slice(*fit.offsets[slot])].T).T for slot in fit.slots}
        return _natural_params(fit.family, etas)

    @pytest.mark.parametrize("tag", [ModelTag.INTERCEPT_ONLY, ModelTag.DISTRIBUTIONAL_4])
    @pytest.mark.parametrize("family,kind", DRAW_PARAMS_COMBOS)
    def test_cells_gathered_equal_per_observation(self, family, kind, tag, cell_records):
        fit, draws = self.fit_and_draws(family, kind, tag, cell_records)
        params, cell_of = draw_params(fit, draws, cell_records.respondent_age, cell_records.respondent_sex)
        want = self.per_observation(fit, draws, cell_records)
        assert len(params) == len(want) == len(fit.slots)
        assert cell_of.shape == (len(cell_records),)
        for p, w in zip(params, want):
            assert p.shape == (draws.shape[0], cell_of.max() + 1)
            np.testing.assert_array_equal(np.take(p, cell_of, axis=1), w)

    @staticmethod
    def stream(fit, draws, records, monkeypatch, keys_per_block):
        """(values, blocks, linked): ``evaluation._stream``'s per-record outcome densities of one fit,
        with ``keys_per_block`` keys a block, the (shape, C-contiguity) of each block its kernel saw and
        the design rows each block links."""
        from agemix import evaluation, inference

        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * draws.shape[0] * keys_per_block)
        blocks, linked, rows = [], [], []

        def counting(family, etas):
            rows.append(next(iter(etas.values())).size // draws.shape[0])
            return _natural_params(family, etas)

        def kernel(block):
            blocks.append((block.shape, block.flags.c_contiguous))
            linked.append(sum(rows))
            rows.clear()
            return block.T

        monkeypatch.setattr(inference, "_natural_params", counting)
        ((values, _),), errors = evaluation._stream([fit], [draws], [records], kernel, draws.shape[0])
        assert errors == [None]
        return values, blocks, linked

    @pytest.mark.parametrize("family,kind", DRAW_PARAMS_COMBOS)
    def test_loglik_blocks_are_c_contiguous_per_observation_densities(self, family, kind, cell_records, monkeypatch):
        from agemix.distributions import log_pdf_slots
        from agemix.transforms import forward_array

        fit, draws = self.fit_and_draws(family, kind, ModelTag.DISTRIBUTIONAL_4, cell_records)
        recs = cell_records
        y = forward_array(fit.transform, recs.respondent_age, recs.respondent_sex, recs.partner_age)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want = log_pdf_slots(family, y[None, :], *self.per_observation(fit, draws, recs))
        values, blocks, _ = self.stream(fit, draws, recs, monkeypatch, 64)
        # a key is a distinct (design row, outcome): here (age, sex, outcome). Each record's
        # density is its key's first record's, on the outcome scale: callers add the log Jacobian
        _, first, key = np.unique(np.column_stack([recs.respondent_age, recs.respondent_sex, y]), axis=0,
                                  return_index=True, return_inverse=True)
        np.testing.assert_array_equal(values, want[:, first[key.ravel()]])
        assert all(c_order and shape[1] == draws.shape[0] for shape, c_order in blocks)
        sizes = [shape[0] for shape, _ in blocks]
        assert sizes == [64] * (first.size // 64) + [first.size % 64] * (first.size % 64 > 0)

    @pytest.mark.parametrize("tag", [ModelTag.INTERCEPT_ONLY, ModelTag.DISTRIBUTIONAL_4])
    @pytest.mark.parametrize("family,kind", DRAW_PARAMS_COMBOS[2:3])
    def test_loglik_blocks_link_each_design_row_about_once(self, family, kind, tag, cell_records, monkeypatch):
        # keys ascend by design row, so consecutive blocks share at most their
        # boundary row, and a block links no more rows than it holds keys
        fit, draws = self.fit_and_draws(family, kind, tag, cell_records)
        _, blocks, linked = self.stream(fit, draws, cell_records, monkeypatch, 64)
        mats = design_matrices(
            fit.spec, cell_records.respondent_age, cell_records.respondent_sex, slots=fit.slots, center=True
        )
        n_rows = np.unique(np.hstack([mats[slot] for slot in fit.slots]), axis=0).shape[0]
        assert len(blocks) > 1
        assert sum(linked) <= n_rows + len(blocks) - 1
        assert all(rows <= shape[0] for rows, (shape, _) in zip(linked, blocks))


class TestPosteriorPredictive:
    def test_plugin_mean(self, normal_fit):
        degenerate = np.tile(normal_fit.beta_packed, (200, 1))
        out = posterior_predictive(normal_fit, degenerate, 30.0, 1, 500, seed=5)
        x_mu = design_matrices(normal_fit.spec, [30.0], [1], slots=("mu",), center=False)["mu"][0]
        expected = float(x_mu @ normal_fit.coef("mu"))
        sigma = math.exp(normal_fit.coef("sigma")[0])
        assert out.mean() == pytest.approx(expected, abs=4 * sigma / math.sqrt(out.size))

    def test_log_ratio_outputs_positive(self, small_records):
        problem = FitProblem(
            Family.SINH_ARCSINH,
            Transform(TransformKind.LOG_RATIO),
            ModelSpec(ModelTag.CONVENTIONAL),
            small_records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 150, seed=6)
        out = posterior_predictive(fit, draws, 22.0, 0, 300, seed=7)
        assert out.shape == (150 * 300,)
        assert np.all(out > 0)

    def test_predictive_for_records_deterministic(self, normal_fit, small_records):
        draws = laplace_draws(normal_fit, 150, seed=8)
        a = predictive_for_records(normal_fit, draws, small_records[:50], 1000, seed=9)
        b = predictive_for_records(normal_fit, draws, small_records[:50], 1000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_predictive_for_records_matches_per_sample_design(self, small_records):
        # one design row per sampled record, with the same random stream:
        # building rows per distinct (age, sex) cell must give the same samples
        records = small_records[:400]
        for tag in (ModelTag.DISTRIBUTIONAL_2, ModelTag.DISTRIBUTIONAL_3, ModelTag.DISTRIBUTIONAL_4):
            fit = fit_map(make_problem(Family.SINH_ARCSINH, TransformKind.LOG_RATIO, tag, records))
            draws = laplace_draws(fit, 150, seed=8)
            out = predictive_for_records(fit, draws, records, 3000, seed=9)

            rng = np.random.default_rng(9)
            sel = records[rng.integers(0, len(records), size=3000)]
            draw_idx = rng.integers(0, 150, size=3000)
            mats = design_matrices(fit.spec, sel.respondent_age, sel.respondent_sex, slots=fit.slots, center=True)
            # the (rows x draws) matmul of draw_params, one entry per sample
            etas = {
                slot: (mats[slot] @ draws[:, slice(*fit.offsets[slot])].T)[np.arange(3000), draw_idx]
                for slot in fit.slots
            }
            y = sample_slots(fit.family, _natural_params(fit.family, etas), (3000,), rng)
            expected = inverse_array(fit.transform, sel.respondent_age, sel.respondent_sex, y)
            np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("family, kind", [
        (Family.NORMAL, TransformKind.LINEAR_AGE),
        (Family.SKEW_NORMAL, TransformKind.AGE_DIFFERENCE),
        (Family.SINH_ARCSINH, TransformKind.LOG_RATIO),
        (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
        (Family.BETA, TransformKind.BETA_RESCALED),
    ])
    def test_posterior_predictive_samples_draw_by_draw(self, small_records, family, kind):
        # n_per_draw samples under draw 0, then under draw 1, ...: the
        # (draws, n_per_draw) broadcast of the draws' parameters at one cell
        fit = fit_map(make_problem(family, kind, ModelTag.CONVENTIONAL, small_records))
        draws = laplace_draws(fit, 40, seed=3)
        out = posterior_predictive(fit, draws, 31.0, 0, 25, seed=4)

        params, _ = draw_params(fit, draws, [31.0], [0])
        y = sample_slots(fit.family, params, (40, 25), np.random.default_rng(4)).ravel()
        np.testing.assert_array_equal(out, inverse_array(fit.transform, np.full(y.size, 31.0), np.zeros(y.size), y))

    def test_plugin_deciles_match_analytic_quantiles(self):
        # degenerate (MAP-only) draws: predictive deciles must match the
        # fitted distribution's quantile function within Monte Carlo error
        from agemix.distributions import quantile

        cfg = GeneratorConfig(
            n=20_000,
            seed=3,
            family=Family.SINH_ARCSINH,
            transform=Transform(TransformKind.LINEAR_AGE),
            spec=ModelSpec(ModelTag.INTERCEPT_ONLY),
            coefficients={
                "mu": [32.0],
                "sigma": [math.log(3.0)],
                "epsilon": [-0.4],
                "delta": [math.log(0.9)],
            },
            integer_ages=False,
        )
        records = simulate(cfg)
        fit = fit_map(
            make_problem(
                Family.SINH_ARCSINH, TransformKind.LINEAR_AGE, ModelTag.INTERCEPT_ONLY, records
            )
        )
        degenerate = np.tile(fit.beta_packed, (100, 1))
        out = posterior_predictive(fit, degenerate, 30.0, 1, 10_000, seed=2)
        assert out.size == 1_000_000
        mu, log_sigma_star, eps, log_delta = (fit.beta_packed[i] for i in range(4))
        delta = math.exp(log_delta)
        params = ParamVector(mu=mu, sigma=math.exp(log_sigma_star) * delta, epsilon=eps, delta=delta)
        for q in np.arange(0.1, 0.91, 0.1):
            analytic = quantile(Family.SINH_ARCSINH, params, float(q))
            assert np.quantile(out, q) == pytest.approx(analytic, abs=0.05)
