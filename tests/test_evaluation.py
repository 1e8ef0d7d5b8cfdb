import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import lognorm

from agemix import evaluation
from agemix.data_io import default_config, simulate
from agemix.design import ModelSpec, ModelTag
from agemix.distributions import Family
from agemix.evaluation import (
    ComparisonReport,
    ElpdResult,
    LogLikMatrix,
    _psis_block,
    _psis_column,
    elpd_diff,
    elpd_loo,
    pointwise_loglik,
    qq_rmse,
)
from agemix.inference import FitProblem, fit_map, laplace_draws
from agemix.transforms import Transform, TransformKind


@pytest.fixture(scope="module")
def log_age_fit(small_records):
    problem = FitProblem(
        Family.NORMAL,
        Transform(TransformKind.LOG_AGE),
        ModelSpec(ModelTag.CONVENTIONAL),
        small_records,
    )
    fit = fit_map(problem)
    draws = laplace_draws(fit, 200, seed=1)
    return problem, fit, draws


class TestPointwiseLoglik:
    def test_linear_age_equals_raw_log_pdf(self, small_records):
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LINEAR_AGE),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            small_records[:40],
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        ll = pointwise_loglik(fit, draws, small_records[:40])
        from agemix.distributions import log_pdf_slots

        mu = draws.draws[:, 0:1]
        sigma = np.exp(draws.draws[:, 1:2])
        y = np.array([r.partner_age for r in small_records[:40]])
        direct = log_pdf_slots(Family.NORMAL, y[None, :], mu, sigma)
        np.testing.assert_allclose(ll.values, direct, rtol=0, atol=1e-12)

    def test_shape(self, log_age_fit):
        problem, fit, draws = log_age_fit
        import dataclasses

        small = dataclasses.replace(draws, draws=draws.draws[:3])
        ll = pointwise_loglik(fit, small, problem.records[:4])
        assert ll.values.shape == (3, 4)

    def test_lognormal_change_of_variables_identity(self, log_age_fit):
        # a lognormal evaluated at p equals the normal at log p plus the
        # Jacobian term, entry by entry
        problem, fit, draws = log_age_fit
        records = problem.records[:100]
        ll = pointwise_loglik(fit, draws, records)

        ages = np.array([r.respondent_age for r in records])
        sexes = np.array([r.respondent_sex for r in records])
        p = np.array([r.partner_age for r in records])
        from agemix.design import design_matrices

        mats = design_matrices(fit.spec, ages, sexes, slots=fit.slots, center=True)
        a, b = fit.offsets["mu"]
        mu = draws.draws[:, a:b] @ mats["mu"].T
        a, b = fit.offsets["sigma"]
        sigma = np.exp(draws.draws[:, a:b] @ mats["sigma"].T)
        direct = lognorm.logpdf(p[None, :], s=sigma, scale=np.exp(mu))
        np.testing.assert_allclose(ll.values, direct, rtol=0, atol=1e-12)

    def test_non_finite_entry_names_record_and_draw(self, small_records):
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LINEAR_AGE),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            small_records[:5],
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        import dataclasses

        corrupted = draws.draws.copy()
        corrupted[7, 1] = -800.0  # sigma underflows for draw 7
        bad = dataclasses.replace(draws, draws=corrupted)
        with pytest.raises(ValueError, match="draw 7"):
            pointwise_loglik(fit, bad, small_records[:5])


def _assert_kernel_matches_column_oracle(ll):
    """``_psis_block`` on ll (draws x records) equals ``_psis_column`` per record."""
    lw_b, pointwise_b, khat_b = _psis_block(np.ascontiguousarray(ll.T))
    for i in range(ll.shape[1]):
        lw_s, khat_s = _psis_column(ll[:, i])
        np.testing.assert_allclose(lw_b[i], lw_s, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pointwise_b[i], logsumexp(lw_s + ll[:, i]), rtol=0, atol=1e-10)
        np.testing.assert_allclose(khat_b[i], khat_s, rtol=0, atol=1e-10)


class TestPsis:
    def test_constant_density_model(self):
        ll = np.full((300, 6), math.log(0.25))
        res = elpd_loo(LogLikMatrix(ll))
        assert res.elpd == pytest.approx(6 * math.log(0.25), rel=1e-12)
        assert res.se == 0.0
        assert res.method == "psis"

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            elpd_loo(LogLikMatrix(np.zeros((99, 5))))

    def test_matrix_path_matches_column_reference(self):
        rng = np.random.default_rng(5)
        ll = rng.normal(-2, 1, (400, 50)) + rng.standard_t(4, (400, 50))
        _assert_kernel_matches_column_oracle(ll)

    def test_heavy_tail_flagged(self):
        rng = np.random.default_rng(2)
        ll = rng.normal(-2, 0.2, (400, 8))
        # importance weights with a Pareto(1) tail: true GPD shape k = 1
        ll[:, 3] = -np.log1p(rng.pareto(1.0, 400))
        with pytest.warns(RuntimeWarning, match="k-hat"):
            res = elpd_loo(LogLikMatrix(ll))
        assert 3 in res.flagged
        assert res.khat[3] > 0.7

    def test_underflowing_tail_flagged_as_unassessable(self):
        rng = np.random.default_rng(2)
        ll = rng.normal(-2, 0.2, (400, 8))
        ll[:, 3] = -np.exp(rng.normal(0, 3.0, 400))  # weights underflow to zeros
        with pytest.warns(RuntimeWarning, match="k-hat"):
            res = elpd_loo(LogLikMatrix(ll))
        assert res.khat[3] == math.inf
        assert 3 in res.flagged

    def test_never_exceeds_in_sample_lpd(self, small_records, log_age_fit):
        problem, fit, draws = log_age_fit
        ll = pointwise_loglik(fit, draws, problem.records)
        res = elpd_loo(ll)
        in_sample = logsumexp(ll.values, axis=0) - math.log(ll.n_draws)
        assert np.all(res.pointwise <= in_sample + 1e-12)

    def test_matches_exact_conjugate_loo(self):
        # normal-mean model with fixed sigma and N(0, 25) prior: leave-one-out
        # refits have a closed form, giving a fully independent oracle
        rng = np.random.default_rng(1)
        sigma, n = 1.5, 50
        y = rng.normal(2.0, sigma, n)
        prior_var = 25.0

        def posterior(values):
            precision = values.size / sigma**2 + 1 / prior_var
            return (values.sum() / sigma**2) / precision, 1 / precision

        exact = np.empty(n)
        for i in range(n):
            m, v = posterior(np.delete(y, i))
            exact[i] = -0.5 * math.log(2 * math.pi * (sigma**2 + v)) - (y[i] - m) ** 2 / (
                2 * (sigma**2 + v)
            )
        m, v = posterior(y)
        mus = rng.normal(m, math.sqrt(v), 4000)
        ll = -0.5 * math.log(2 * math.pi * sigma**2) - (y[None, :] - mus[:, None]) ** 2 / (
            2 * sigma**2
        )
        res = elpd_loo(LogLikMatrix(ll))
        combined = math.sqrt(res.se**2 + n * np.var(exact, ddof=1))
        assert abs(res.elpd - exact.sum()) < 2 * combined
        assert abs(res.elpd - exact.sum()) < 0.5  # tight agreement in absolute terms


def _heavy_log_weights(rng, s=400):
    # Pareto(1) importance weights: k-hat near 1, so the tail is smoothed
    return np.log1p(rng.pareto(1.0, s))


class TestPsisKernel:
    # with 400 draws the tail is the top 80 weights and the cutoff is the
    # weight at stable-sorted position 319

    def test_ties_at_tail_cutoff(self):
        rng = np.random.default_rng(11)
        cols = []
        for first, last in ((310, 330), (319, 330), (300, 319), (395, 400)):
            lw = _heavy_log_weights(rng)
            order = np.argsort(lw, kind="stable")
            lw[order[first:last]] = lw[order[first]]
            lw[order[360:370]] = lw[order[365]]  # ties inside the tail too
            cols.append(-lw)
        ll = np.stack(cols, axis=1)
        for i in range(ll.shape[1]):
            assert _psis_column(ll[:, i])[1] >= 1.0 / 3.0  # the tied tail is smoothed
        _assert_kernel_matches_column_oracle(ll)

    def test_nonpositive_exceedance_quartile(self):
        rng = np.random.default_rng(12)
        tied = _heavy_log_weights(rng)
        order = np.argsort(tied, kind="stable")
        # the lowest quarter of the tail ties with the cutoff: zero exceedances
        tied[order[290:341]] = tied[order[320]]
        # the cutoff and most of the tail lie below the smallest normal double,
        # so their exceedances over the clipped cutoff are negative
        sunk = -800.0 - rng.exponential(5.0, 400)
        sunk[:10] = rng.normal(0.0, 0.5, 10)
        ll = np.stack([-tied, -sunk], axis=1)
        for i in range(2):
            lw = -ll[:, i] - (-ll[:, i]).max()
            tail = np.sort(lw)[320:]
            cutoff = max(np.sort(lw)[319], math.log(np.finfo(float).tiny))
            assert np.exp(tail[80 // 4]) - math.exp(cutoff) <= 0
        _assert_kernel_matches_column_oracle(ll)

    def test_underflowing_tail(self):
        rng = np.random.default_rng(2)
        cols = [-np.exp(rng.normal(0, 3.0, 400))]  # as in test_underflowing_tail_flagged_as_unassessable
        for n_top in (1, 4):
            # n_top weights near the largest, the rest below exp(-800) = 0
            lw = -800.0 - rng.exponential(5.0, 400)
            lw[rng.choice(400, n_top, replace=False)] = -rng.exponential(1.0, n_top)
            cols.append(-lw)
        ll = np.stack(cols, axis=1)
        assert all(_psis_column(ll[:, i])[1] == math.inf for i in range(3))
        _assert_kernel_matches_column_oracle(ll)

    def test_pareto_one_tail(self):
        rng = np.random.default_rng(3)
        ll = np.stack([-np.log1p(rng.pareto(1.0, 400)) for _ in range(6)], axis=1)
        _assert_kernel_matches_column_oracle(ll)

    def test_record_count_not_a_block_multiple(self, monkeypatch):
        rng = np.random.default_rng(4)
        ll = rng.normal(-2, 1, (400, 50)) + rng.standard_t(3, (400, 50))
        ll[:, 20] = -np.log1p(rng.pareto(1.0, 400))
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 400)  # 7 records a block
        with pytest.warns(RuntimeWarning, match="k-hat"):
            res = elpd_loo(LogLikMatrix(ll))
        for i in range(50):
            lw_s, khat_s = _psis_column(ll[:, i])
            assert res.pointwise[i] == pytest.approx(logsumexp(lw_s + ll[:, i]), abs=1e-10)
            assert res.khat[i] == pytest.approx(khat_s, abs=1e-10)


class TestStreamedElpd:
    @pytest.mark.parametrize("block_records", [None, 7])
    def test_equals_matrix_path(self, log_age_fit, monkeypatch, block_records):
        problem, fit, draws = log_age_fit
        if block_records is not None:
            monkeypatch.setattr(evaluation, "_BLOCK_BYTES", block_records * 8 * draws.draws.shape[0])
        matrix = elpd_loo(pointwise_loglik(fit, draws, problem.records))
        streamed = elpd_loo(fit=fit, draws=draws, records=problem.records)
        np.testing.assert_allclose(streamed.pointwise, matrix.pointwise, rtol=0, atol=1e-10)
        np.testing.assert_allclose(streamed.khat, matrix.khat, rtol=0, atol=1e-10)
        assert streamed.flagged == matrix.flagged
        assert streamed.elpd == pytest.approx(matrix.elpd, rel=1e-12)

    def test_non_finite_names_global_draw_and_record(self, tiny_records, monkeypatch):
        problem = FitProblem(
            Family.GAMMA,
            Transform(TransformKind.GAMMA_REFLECTED),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            tiny_records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        # a reflection offset of 40 years puts every male record with a
        # partner aged 40 or more outside the gamma's support
        shifted = dataclasses.replace(fit, transform=Transform(TransformKind.GAMMA_REFLECTED, offset=40.0))
        first = next(
            i for i, r in enumerate(tiny_records) if r.respondent_sex == 0 and r.partner_age >= 40.0
        )
        assert first >= 7
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 120)
        with pytest.raises(ValueError, match=f"draw 0, record {first} "):
            elpd_loo(fit=shifted, draws=draws, records=tiny_records)
        with pytest.raises(ValueError, match=f"draw 0, record {first} "):
            pointwise_loglik(shifted, draws, tiny_records)

    def test_needs_matrix_or_fit(self, log_age_fit):
        _, fit, draws = log_age_fit
        with pytest.raises(ValueError, match="fit, draws and records"):
            elpd_loo(fit=fit, draws=draws)

    @pytest.mark.filterwarnings("ignore:PSIS tail index")
    def test_memory_bounded_by_block(self, tiny_records):
        # the four-slot sinh-arcsinh density has the most block-sized temporaries
        problem = FitProblem(
            Family.SINH_ARCSINH,
            Transform(TransformKind.LOG_RATIO),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            tiny_records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 1000, seed=2)
        records = simulate(default_config(n=20_000, seed=5))
        matrix_bytes = 20_000 * 1000 * 8
        tracemalloc.start()
        try:
            res = elpd_loo(fit=fit, draws=draws, records=records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.pointwise.shape == (20_000,) and np.all(np.isfinite(res.pointwise))
        assert peak < matrix_bytes / 4, f"peak {peak / 1e6:.1f} MB"


class TestKfold:
    def test_kfold_close_to_psis(self, small_records):
        records = small_records[:300]
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LOG_RATIO),
            ModelSpec(ModelTag.CONVENTIONAL),
            records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 800, seed=3)
        ll = pointwise_loglik(fit, draws, records)
        psis = elpd_loo(ll)
        kfold = elpd_loo(ll, method="exact_kfold", problem=problem, n_draws=800, seed=4)
        assert kfold.method == "exact_kfold"
        combined = math.sqrt(psis.se**2 + kfold.se**2)
        assert abs(psis.elpd - kfold.elpd) < 2 * combined

    def test_kfold_without_matrix(self, tiny_records):
        records = tiny_records[:60]
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LINEAR_AGE),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            records,
        )
        res = elpd_loo(method="exact_kfold", problem=problem, folds=3, n_draws=200, seed=4)
        # fold 0 by hand, with scipy's log-sum-exp over the held-out matrix
        held = np.arange(0, 60, 3)
        fit = fit_map(dataclasses.replace(problem, records=[r for i, r in enumerate(records) if i % 3]))
        ll = pointwise_loglik(fit, laplace_draws(fit, 200, seed=5), [records[i] for i in held])
        expected = logsumexp(ll.values, axis=0) - math.log(200)
        np.testing.assert_allclose(res.pointwise[held], expected, rtol=0, atol=1e-12)

    def test_kfold_needs_problem(self):
        with pytest.raises(ValueError):
            elpd_loo(LogLikMatrix(np.zeros((200, 4))), method="exact_kfold")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            elpd_loo(LogLikMatrix(np.zeros((200, 4))), method="waic")


class TestElpdDiff:
    def test_identical_models(self):
        a = np.array([1.0, -2.0, 0.5])
        assert elpd_diff(a, a) == (0.0, 0.0)

    def test_constant_offset_has_zero_se(self):
        a = np.array([1.0, 2.0, 3.0])
        d, se = elpd_diff(a + 0.7, a)
        assert d == pytest.approx(3 * 0.7)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        d, se = elpd_diff(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert d == pytest.approx(6.0)
        assert se == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=20), rng.normal(size=20)
        dab, seab = elpd_diff(a, b)
        dba, seba = elpd_diff(b, a)
        assert dab == -dba and seab == seba

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            elpd_diff(np.zeros(3), np.zeros(4))


class TestComparisonReport:
    def make_result(self, pointwise):
        pointwise = np.asarray(pointwise, dtype=float)
        return ElpdResult(
            elpd=float(pointwise.sum()),
            se=float(np.sqrt(pointwise.size * np.var(pointwise, ddof=1))),
            pointwise=pointwise,
            method="psis",
        )

    def test_ranking_and_diffs(self):
        good = self.make_result([-1.0, -1.1, -0.9])
        worse = self.make_result([-2.0, -1.6, -1.5])
        report = ComparisonReport.from_models(
            [("worse", worse, 0.9, True), ("good", good, 0.4, True)]
        )
        assert [r.name for r in report.rows] == ["good", "worse"]
        assert report.rows[0].rank == 1
        assert report.rows[0].elpd_diff == 0.0 and report.rows[0].diff_se == 0.0
        diff, se = elpd_diff(worse.pointwise, good.pointwise)
        assert report.rows[1].elpd_diff == pytest.approx(diff)
        assert report.rows[1].diff_se == pytest.approx(se)
        dicts = report.to_dicts()
        assert dicts[0]["model"] == "good" and dicts[1]["rank"] == 2


class TestQqRmse:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(0).normal(30, 5, 500)
        assert qq_rmse({"g": x}, {"g": x.copy()}) == 0.0

    def test_constant_shift(self):
        x = np.random.default_rng(1).normal(30, 5, 500)
        assert qq_rmse({"g": x}, {"g": x + 0.5}) == pytest.approx(0.5, abs=1e-9)

    def test_two_group_hand_case(self):
        # frozen by a direct type-7 quantile computation before the build
        obs = {"a": np.arange(1.0, 11.0), "b": np.arange(1.0, 11.0)}
        pred = {"a": np.arange(2.0, 12.0), "b": np.arange(1.0, 11.0)}
        assert qq_rmse(obs, pred) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_empty_group_listed(self):
        with pytest.raises(ValueError, match="g2"):
            qq_rmse({"g1": [1.0, 2.0], "g2": []}, {"g1": [1.0, 2.0], "g2": [1.0]})

    def test_missing_predictive_group_listed(self):
        with pytest.raises(ValueError, match="g1"):
            qq_rmse({"g1": [1.0, 2.0]}, {})
