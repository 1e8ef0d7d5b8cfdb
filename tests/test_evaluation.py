import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import lognorm

from agemix import evaluation, transforms
from agemix.data_io import Records, default_config, simulate, stratify
from agemix.design import ModelSpec, ModelTag
from agemix.distributions import Family
from agemix.distributions import log_pdf_slots
from agemix.evaluation import (
    ElpdResult,
    _psis_block,
    _tail_length,
    elpd_diff,
    elpd_loo,
    pointwise_loglik,
    qq_rmse,
    rank_by_elpd,
)
from agemix import inference
from agemix.inference import FitProblem, draw_params, fit_map, fit_map_batch, laplace_draws, laplace_draws_batch
from agemix.transforms import Transform, TransformKind, forward_array
from psis_reference import _psis_column, gpd_fit
from sinh_arcsinh_reference import logpdf_sinh_arcsinh as sas_reference


def psis_one(fit, draws, records):
    """``elpd_batch``'s PSIS result for one fit: its ElpdResult, or the exception that stopped it."""
    return evaluation.elpd_batch("psis", fits=[fit], draws=[draws], records=[records])[0]


def kfold_one(problem, n_draws, seed):
    """``elpd_batch``'s exact k-fold result for one problem, likewise."""
    return evaluation.elpd_batch("kfold", problems=[problem], n_draws=n_draws, seeds=[seed])[0]


@pytest.fixture
def three_folds(monkeypatch):
    """Three k-fold folds, so that the tests' duplicate records share a held-out fold."""
    monkeypatch.setattr(evaluation, "_FOLDS", 3)


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

        mu = draws[:, 0:1]
        sigma = np.exp(draws[:, 1:2])
        y = small_records[:40].partner_age
        direct = log_pdf_slots(Family.NORMAL, y[None, :], mu, sigma)
        np.testing.assert_allclose(ll, direct, rtol=0, atol=1e-12)

    def test_shape(self, log_age_fit):
        problem, fit, draws = log_age_fit
        ll = pointwise_loglik(fit, draws[:3], problem.records[:4])
        assert ll.shape == (3, 4)

    def test_lognormal_change_of_variables_identity(self, log_age_fit):
        # a lognormal evaluated at p equals the normal at log p plus the
        # Jacobian term, entry by entry
        problem, fit, draws = log_age_fit
        records = problem.records[:100]
        ll = pointwise_loglik(fit, draws, records)

        ages, sexes, p = records.respondent_age, records.respondent_sex, records.partner_age
        from agemix.design import design_matrices

        mats = design_matrices(fit.spec, ages, sexes, slots=fit.slots, center=True)
        a, b = fit.offsets["mu"]
        mu = draws[:, a:b] @ mats["mu"].T
        a, b = fit.offsets["sigma"]
        sigma = np.exp(draws[:, a:b] @ mats["sigma"].T)
        direct = lognorm.logpdf(p[None, :], s=sigma, scale=np.exp(mu))
        np.testing.assert_allclose(ll, direct, rtol=0, atol=1e-12)

    def test_non_finite_entry_names_record_and_draw(self, small_records):
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LINEAR_AGE),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            small_records[:5],
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        corrupted = draws.copy()
        corrupted[7, 1] = -800.0  # sigma underflows for draw 7
        with pytest.raises(ValueError, match="draw 7"):
            pointwise_loglik(fit, corrupted, small_records[:5])

    def test_overflowing_sinh_arcsinh_draw_names_first_minus_inf_record(self, small_records):
        # draw 3 gets epsilon - 355 and sigma / 1000, so w = epsilon + delta *
        # asinh(z) passes -355.9, where sinh(w)^2 / 2 overflows, for the
        # records below the location only: their density is -inf
        records = small_records[:40]
        t = Transform(TransformKind.LOG_RATIO)
        problem = FitProblem(Family.SINH_ARCSINH, t, ModelSpec(ModelTag.INTERCEPT_ONLY), records)
        fit = fit_map(problem)
        draws = laplace_draws(fit, 50, seed=0)
        corrupted = draws.copy()
        corrupted[3, fit.offsets["epsilon"][0]] -= 355.0
        corrupted[3, fit.offsets["sigma"][0]] -= math.log(1000.0)
        params, cell_of = draw_params(fit, corrupted[3:4], records.respondent_age, records.respondent_sex)
        y = forward_array(t, records.respondent_age, records.respondent_sex, records.partner_age)
        with np.errstate(over="ignore"):
            want = sas_reference(y[None, :], *(p[:, cell_of] for p in params))[0]
        overflowed = np.isneginf(want)
        assert overflowed.any() and not overflowed.all() and not np.isnan(want).any()
        first = int(np.argmax(overflowed))
        with pytest.raises(ValueError, match=rf"non-finite log likelihood at draw 3, record {first} "):
            pointwise_loglik(fit, corrupted, records)


def _assert_kernel_matches_column_oracle(ll):
    """``_psis_block`` on ll (draws x records) equals ``_psis_column`` per record."""
    pointwise_b, khat_b = _psis_block(np.ascontiguousarray(ll.T))
    for i in range(ll.shape[1]):
        lw_s, khat_s = _psis_column(ll[:, i])
        np.testing.assert_allclose(pointwise_b[i], logsumexp(lw_s + ll[:, i]), rtol=0, atol=1e-10)
        np.testing.assert_allclose(khat_b[i], khat_s, rtol=0, atol=1e-10)


class TestPsis:
    def test_constant_density_model(self):
        ll = np.full((300, 6), math.log(0.25))
        res = elpd_loo(ll)
        assert res.elpd == pytest.approx(6 * math.log(0.25), rel=1e-12)
        assert res.se == 0.0

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            elpd_loo(np.zeros((99, 5)))

    def test_matrix_path_matches_column_reference(self):
        rng = np.random.default_rng(5)
        ll = rng.normal(-2, 1, (400, 50)) + rng.standard_t(4, (400, 50))
        _assert_kernel_matches_column_oracle(ll)

    def test_heavy_tail_flagged(self):
        # the diagnostic's power at 400 draws (a 60-draw tail): most Pareto(1)
        # weight tails (true GPD shape k = 1) are flagged, few Pareto(2) ones (k = 0.5)
        rng = np.random.default_rng(2)
        heavy = -np.log1p(rng.pareto(1.0, (400, 200)))
        light = -np.log1p(rng.pareto(2.0, (400, 200)))
        with pytest.warns(RuntimeWarning, match="k-hat"):
            res = elpd_loo(np.hstack([heavy, light]))
        flagged = np.array(res.flagged)
        assert np.count_nonzero(flagged < 200) >= 0.75 * 200
        assert np.count_nonzero(flagged >= 200) <= 0.20 * 200

    def test_underflowing_tail_flagged_as_unassessable(self):
        rng = np.random.default_rng(2)
        ll = rng.normal(-2, 0.2, (400, 8))
        ll[:, 3] = -np.exp(rng.normal(0, 3.0, 400))  # weights underflow to zeros
        with pytest.warns(RuntimeWarning, match="k-hat"):
            res = elpd_loo(ll)
        assert res.khat[3] == math.inf
        assert 3 in res.flagged

    def test_never_exceeds_in_sample_lpd(self, small_records, log_age_fit):
        problem, fit, draws = log_age_fit
        ll = pointwise_loglik(fit, draws, problem.records)
        res = elpd_loo(ll)
        in_sample = logsumexp(ll, axis=0) - math.log(ll.shape[0])
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
        res = elpd_loo(ll)
        combined = math.sqrt(res.se**2 + n * np.var(exact, ddof=1))
        assert abs(res.elpd - exact.sum()) < 2 * combined
        assert abs(res.elpd - exact.sum()) < 0.5  # tight agreement in absolute terms


def _heavy_log_weights(rng, s=400):
    # Pareto(1) importance weights: k-hat near 1, so the tail is smoothed
    return np.log1p(rng.pareto(1.0, s))


class TestPsisKernel:
    # with S = 400 draws the tail is the top _tail_length(400) = 60 weights and
    # the cutoff is the weight at stable-sorted position 339; the cases below
    # derive their positions from that

    def test_ties_at_tail_cutoff(self):
        # tie ranges of sorted positions around the cutoff c: across it, from
        # it into the tail, up to just below it, just past it, and at the top
        # of the tail; every column also ties 10 weights inside the tail.
        # Pareto(1/2) weights (k = 2) keep every tied tail above the
        # smoothing threshold, which Pareto(1) tails miss for some ranges
        s = 400
        c = s - _tail_length(s) - 1
        rng = np.random.default_rng(11)
        cols = []
        for first, last in ((c - 9, c + 11), (c, c + 11), (c - 19, c), (c - 19, c + 2), (s - 5, s)):
            lw = np.log1p(rng.pareto(0.5, s))
            order = np.argsort(lw, kind="stable")
            lw[order[first:last]] = lw[order[first]]
            lw[order[c + 21 : c + 31]] = lw[order[c + 26]]
            ranked = np.sort(lw)
            assert ranked[first] == ranked[last - 1] and ranked[c + 21] == ranked[c + 30]
            assert (ranked[c] == ranked[first]) == (first <= c < last)
            cols.append(-lw)
        ll = np.stack(cols, axis=1)
        for i in range(ll.shape[1]):
            assert _psis_column(ll[:, i])[1] >= 1.0 / 3.0  # the tied tail is smoothed
        _assert_kernel_matches_column_oracle(ll)

    def test_zero_exceedances_stay_raw(self):
        # the lowest quarter of the tail ties with the cutoff: those draws
        # exceed it by zero and stay raw; only the 45 above them are smoothed
        s = 400
        m = _tail_length(s)
        c = s - m - 1
        rng = np.random.default_rng(12)
        lw = _heavy_log_weights(rng, s)
        order = np.argsort(lw, kind="stable")
        lw[order[c - 49 : c + 1 + m // 4]] = lw[order[c]]
        ranked = np.sort(lw)
        assert ranked[c - 49] == ranked[c + m // 4] < ranked[c + m // 4 + 1]
        ll = -lw[:, None]
        lw_s, khat = _psis_column(ll[:, 0])
        assert 1.0 / 3.0 <= khat < math.inf
        raw, smoothed = order[: c + 1 + m // 4], order[c + 1 + m // 4 :]
        offset = lw_s[raw] - lw[raw]
        np.testing.assert_allclose(offset, offset[0], rtol=0, atol=1e-12)
        assert not np.allclose(lw_s[smoothed] - lw[smoothed], offset[0])
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

    def test_tail_below_the_floating_point_floor(self):
        # 20 weights between the smallest normal double and the largest one,
        # the other 40 of the tail below it: their exceedances over the
        # clipped cutoff are negative, which turned the Pareto profile NaN
        # (neither flagged nor smoothed) while they entered the fit; now only
        # the 20 positive ones do, and their exponentially spread tail is flagged
        rng = np.random.default_rng(13)
        lw = -800.0 - rng.exponential(5.0, 400)
        lw[:20] = np.linspace(math.log(np.finfo(float).tiny) + 0.5, 0.0, 20)
        ll = -lw[:, None]
        khat = _psis_column(ll[:, 0])[1]
        assert khat == gpd_fit(np.exp(lw[:20]) - np.finfo(float).tiny)[0]
        assert 0.7 < khat < math.inf
        _assert_kernel_matches_column_oracle(ll)
        with pytest.warns(RuntimeWarning, match="k-hat") as caught:
            _psis_block(np.ascontiguousarray(ll.T))
            assert elpd_loo(ll).flagged == (0,)
        # the k-hat warning is the only one: the profile grid of the
        # unassessable tail raises no numpy RuntimeWarning
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [
            "PSIS tail index k-hat exceeds 0.7 for 1 record(s); ELPD may be unreliable"
        ]

    def test_tail_partly_below_the_floating_point_floor(self):
        # 30 Pareto(1) weights above the smallest normal double, the other 370
        # draws below it: the 60-draw tail holds 30 of each, and only the 30
        # positive exceedances over the clipped cutoff are fitted and smoothed
        rng = np.random.default_rng(14)
        lw = -800.0 - rng.exponential(5.0, 400)
        lw[:30] = _heavy_log_weights(rng, 30)
        lw[:30] -= lw[:30].max()
        ll = -lw[:, None]
        lw_s, khat = _psis_column(ll[:, 0])
        assert khat == gpd_fit(np.sort(np.exp(lw[:30])) - np.finfo(float).tiny)[0]
        assert 1.0 / 3.0 <= khat < math.inf  # the positive tail is smoothed
        assert not np.allclose(lw_s[:30] - lw_s[30:].max(), lw[:30] - lw[30:].max())
        np.testing.assert_allclose(lw_s[30:] - lw_s[30], lw[30:] - lw[30], rtol=0, atol=1e-10)
        _assert_kernel_matches_column_oracle(ll)

    def test_draw_order_never_enters(self):
        # smoothed rows (one with 10 tied weights inside its tail), unsmoothed
        # ones and an unassessable one; permuting each row's draws leaves every
        # tail value, and so k-hat, as it was
        s = 400
        rng = np.random.default_rng(15)
        heavy = [_heavy_log_weights(rng, s) for _ in range(3)]
        order = np.argsort(heavy[0], kind="stable")
        heavy[0][order[s - 30 : s - 20]] = heavy[0][order[s - 25]]
        light = [rng.normal(0, 0.3, s) for _ in range(3)]
        ll = -np.stack([*heavy, *light, np.exp(rng.normal(0, 3.0, s))])
        pointwise, khat = _psis_block(ll)
        assert np.all(khat[:3] >= 1.0 / 3.0) and np.all(khat[3:6] < 1.0 / 3.0) and khat[6] == math.inf
        for seed in range(3):
            permuted = np.random.default_rng(seed).permuted(ll, axis=1)
            pointwise_p, khat_p = _psis_block(permuted)
            np.testing.assert_array_equal(khat_p, khat)
            np.testing.assert_allclose(pointwise_p, pointwise, rtol=0, atol=1e-14)

    def test_profile_chunking_never_enters(self, monkeypatch):
        # rows with 60, 30 and 20 positive exceedances (the rest of their
        # tails below the floating-point floor), light rows, and a row of
        # subnormal exceedances whose profile turns NaN (k-hat = inf): filling
        # the Pareto profile scratch one row at a time or one block at a time
        # gives the same bits
        s = 400
        rng = np.random.default_rng(16)
        rows = [_heavy_log_weights(rng, s) for _ in range(3)] + [rng.normal(0, 0.3, s) for _ in range(2)]
        for n_top in (30, 30, 20):
            lw = -800.0 - rng.exponential(5.0, s)
            lw[:n_top] = _heavy_log_weights(rng, n_top)
            rows.append(lw - lw[:n_top].max())
        degenerate = -800.0 - rng.exponential(5.0, s)
        degenerate[:6] = math.log(np.finfo(float).tiny) + 1e-8  # exceedances about 2e-316
        degenerate[6] = 0.0
        rows.append(degenerate)
        ll = -np.stack(rows)
        pointwise, khat = _psis_block(ll)
        assert np.all(khat[:3] >= 1.0 / 3.0) and np.all(np.isfinite(khat[:8])) and khat[8] == math.inf
        for chunk_bytes in (1, 1 << 40):  # one row per chunk, one chunk per tail length
            monkeypatch.setattr(evaluation, "_GPD_CHUNK_BYTES", chunk_bytes)
            pointwise_c, khat_c = _psis_block(ll)
            assert pointwise_c.tobytes() == pointwise.tobytes() and khat_c.tobytes() == khat.tobytes()

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
            res = elpd_loo(ll)
        for i in range(50):
            lw_s, khat_s = _psis_column(ll[:, i])
            assert res.pointwise[i] == pytest.approx(logsumexp(lw_s + ll[:, i]), abs=1e-10)
            assert res.khat[i] == pytest.approx(khat_s, abs=1e-10)


class TestStreamedElpd:
    @pytest.mark.parametrize("block_records", [None, 7])
    def test_equals_matrix_path(self, log_age_fit, monkeypatch, block_records):
        problem, fit, draws = log_age_fit
        if block_records is not None:
            monkeypatch.setattr(evaluation, "_BLOCK_BYTES", block_records * 8 * draws.shape[0])
        matrix = elpd_loo(pointwise_loglik(fit, draws, problem.records))
        streamed = psis_one(fit, draws, problem.records)
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
        first = int(np.flatnonzero((tiny_records.respondent_sex == 0) & (tiny_records.partner_age >= 40.0))[0])
        assert first >= 7
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 120)
        res = psis_one(shifted, draws, tiny_records)
        assert isinstance(res, ValueError) and f"draw 0, record {first} " in str(res)
        with pytest.raises(ValueError, match=f"draw 0, record {first} "):
            pointwise_loglik(shifted, draws, tiny_records)

    def test_non_finite_names_caller_record_after_duplicates(self, tiny_records, monkeypatch):
        # as above, with a copy of every record before the offending one
        # ahead of it: the distinct stream holds the offending record at a
        # lower row than the caller's, and the message must give the caller's
        problem = FitProblem(
            Family.GAMMA,
            Transform(TransformKind.GAMMA_REFLECTED),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            tiny_records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        shifted = dataclasses.replace(fit, transform=Transform(TransformKind.GAMMA_REFLECTED, offset=40.0))
        first = int(np.flatnonzero((tiny_records.respondent_sex == 0) & (tiny_records.partner_age >= 40.0))[0])
        order = np.concatenate([np.arange(first), np.arange(len(tiny_records))])
        records = tiny_records[order]
        assert int(np.flatnonzero(order == first)[0]) == 2 * first
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 120)
        res = psis_one(shifted, draws, records)
        assert isinstance(res, ValueError) and f"draw 0, record {2 * first} " in str(res)

    def test_non_finite_names_lowest_record_in_a_later_block(self, tiny_records, monkeypatch):
        # as above; keys ascend by outcome, so the offending records' distinct
        # outcomes fill the first 7-key blocks, and the record with the largest
        # of them, moved to the front, is named although its block comes later
        problem = FitProblem(
            Family.GAMMA,
            Transform(TransformKind.GAMMA_REFLECTED),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            tiny_records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 120, seed=0)
        shifted = dataclasses.replace(fit, transform=Transform(TransformKind.GAMMA_REFLECTED, offset=40.0))
        args = (tiny_records.respondent_age, tiny_records.respondent_sex, tiny_records.partner_age)
        y = forward_array(shifted.transform, *args)
        bad = np.flatnonzero((tiny_records.respondent_sex == 0) & (tiny_records.partner_age >= 40.0))
        last = bad[np.argmax(y[bad])]
        assert np.unique(y[bad]).size > 7 and np.count_nonzero(np.unique(y) < y[last]) >= 7
        records = tiny_records[np.concatenate([[last], np.delete(np.arange(len(tiny_records)), last)])]
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 120)
        res = psis_one(shifted, draws, records)
        assert isinstance(res, ValueError) and "draw 0, record 0 " in str(res)

    def test_kfold_non_finite_names_caller_record(self, tiny_records, monkeypatch, three_folds):
        # the reflection offset of 40 years, set on every fold fit, puts the
        # held-out records of male respondents with partners aged 40 or more
        # outside the gamma's support; the message gives the record's index
        # among the caller's records, not among its fold's
        problem = FitProblem(
            Family.GAMMA,
            Transform(TransformKind.GAMMA_REFLECTED),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            tiny_records,
        )
        shifted = Transform(TransformKind.GAMMA_REFLECTED, offset=40.0)

        def shifted_fits(problems):
            return [dataclasses.replace(f, transform=shifted) for f in fit_map_batch(problems)]

        monkeypatch.setattr(evaluation, "fit_map_batch", shifted_fits)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 120)
        bad = np.flatnonzero((tiny_records.respondent_sex == 0) & (tiny_records.partner_age >= 40.0))
        first = int(bad[bad % 3 == (bad % 3).min()].min())  # the lowest in the first fold that holds any
        assert first // 3 != first
        res = kfold_one(problem, 120, 4)
        assert isinstance(res, ValueError) and f"draw 0, record {first} " in str(res)

    def test_duplicate_records_scored_once(self, tiny_records, monkeypatch):
        # every record twice, the copies permuted: each distinct record is
        # scored once and its scores copied to its duplicates
        perm = np.random.default_rng(7).permutation(len(tiny_records))
        records = tiny_records[np.concatenate([np.arange(len(tiny_records)), perm])]
        problem = FitProblem(
            Family.SKEW_NORMAL,
            Transform(TransformKind.LOG_RATIO),
            ModelSpec(ModelTag.DISTRIBUTIONAL_1),
            records,
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, 300, seed=6)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 7 * 8 * 300)
        with pytest.warns(RuntimeWarning, match="k-hat"):
            matrix = elpd_loo(pointwise_loglik(fit, draws, records))
            streamed = psis_one(fit, draws, records)
        np.testing.assert_allclose(streamed.pointwise, matrix.pointwise, rtol=0, atol=1e-10)
        np.testing.assert_allclose(streamed.khat, matrix.khat, rtol=0, atol=1e-10)
        assert streamed.flagged == matrix.flagged and matrix.flagged
        columns = np.column_stack([records.respondent_age, records.respondent_sex, records.partner_age])
        _, inverse = np.unique(columns, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        assert np.unique(inverse).size < len(tiny_records)  # duplicates beyond the copies
        for values in (streamed.pointwise, streamed.khat):
            one = np.empty(inverse.max() + 1)
            one[inverse] = values
            np.testing.assert_array_equal(values, one[inverse])

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
            res = psis_one(fit, draws, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.pointwise.shape == (20_000,) and np.all(np.isfinite(res.pointwise))
        assert peak < matrix_bytes / 4, f"peak {peak / 1e6:.1f} MB"


class TestBatchStream:
    """The log-likelihood stream of a batch of fits: blocks of at most
    ``_block_rows`` keys run across fit boundaries, each row is its key's
    density under its own fit's draws, and a block links no more design rows
    than it holds keys."""

    @pytest.fixture(scope="class")
    def combination(self):
        cells = list(stratify(simulate(default_config(n=500, seed=3))).values())
        spec = ModelSpec(ModelTag.INTERCEPT_ONLY)
        problems = [FitProblem(Family.SKEW_NORMAL, Transform(TransformKind.LOG_RATIO), spec, r) for r in cells]
        return cells, fit_map_batch(problems)

    def test_blocks_cross_fits_and_hold_each_fits_densities(self, combination, monkeypatch):
        cells, fits = combination
        draws = laplace_draws_batch(fits, 120, list(range(len(fits))))
        # each fit alone, as a batch of one: its records' Jacobian-adjusted densities
        alone = [pointwise_loglik(f, d, r) for f, d, r in zip(fits, draws, cells)]
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 16 * 8 * 120)  # 16 keys a block
        owners, blocks = [], []  # the fits whose parameters the next block reads; per block (shape, C order, owners)
        real = evaluation._row_params

        def recording(fit, mats, d):
            owners.append(next(f for f, other in enumerate(fits) if other is fit))
            return real(fit, mats, d)

        def kernel(block):
            blocks.append((block.shape, block.flags.c_contiguous, owners[:]))
            owners.clear()
            return block.T

        monkeypatch.setattr(evaluation, "_row_params", recording)
        values, errors = evaluation._stream(fits, draws, cells, kernel, 120)
        assert errors == [None] * len(fits)
        for (v, jacobian), want in zip(values, alone):
            np.testing.assert_array_equal(v + jacobian, want)
        assert all(c_order and shape[1] == 120 and 0 < shape[0] <= evaluation._block_rows(120) == 16
                   for shape, c_order, _ in blocks)
        # intercept-only: a fit's keys are its distinct outcomes
        keys = [np.unique(forward_array(f.transform, r.respondent_age, r.respondent_sex, r.partner_age)).size
                for f, r in zip(fits, cells)]
        assert sum(shape[0] for shape, *_ in blocks) == sum(keys)
        order = [f for *_, mine in blocks for f in mine]
        assert order == sorted(order) and set(order) == set(range(len(fits)))
        assert any(len(mine) > 1 for *_, mine in blocks)

    def test_fractional_ages_link_at_most_one_row_per_key(self, monkeypatch):
        # every record its own design row: three regression fits of one spec
        rng = np.random.default_rng(1)
        ages = rng.uniform(15, 64, 600)
        records = Records(ages, rng.integers(0, 2, 600), np.rint(ages * np.exp(rng.normal(0.05, 0.15, 600))))
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_4).with_knots_from_ages(ages)
        cells = [records[i::3] for i in range(3)]
        problems = [FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), spec, r) for r in cells]
        fits = fit_map_batch(problems, max_iter=0)  # the stream reads the fits' spec and layout only
        draws = [f.beta_packed + 0.01 * rng.standard_normal((40, f.beta_packed.size)) for f in fits]
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 64 * 8 * 40)
        linked, blocks, real = [], [], inference._natural_params  # blocks: (keys, design rows, fits) per block

        def counting(family, etas):
            linked.append(next(iter(etas.values())).shape[0])
            return real(family, etas)

        def kernel(block):
            assert block.flags.c_contiguous and block.shape[1] == 40
            blocks.append((block.shape[0], sum(linked), len(linked)))
            linked.clear()
            return block[:, :1].T

        monkeypatch.setattr(inference, "_natural_params", counting)
        evaluation._stream(fits, draws, cells, kernel, 1)
        assert sum(keys for keys, *_ in blocks) == 600
        assert all(0 < rows <= keys <= evaluation._block_rows(40) == 64 for keys, rows, _ in blocks)
        assert any(n_fits > 1 for *_, n_fits in blocks)

    @pytest.mark.filterwarnings("ignore:PSIS tail index")
    def test_combination_memory(self, combination):
        # scoring the 12 cells one elpd_loo at a time, before blocks spanned
        # fits, peaked at 4.36 MB under tracemalloc on this input (numpy 2.4,
        # skew normal, whose density has the most block-sized temporaries);
        # the batch's stream read 4.31 MB there. The 5% allows for other numpy
        # versions' temporaries; a stream holding one block more would fail
        cells, fits = combination
        draws = laplace_draws_batch(fits, 1000, list(range(len(fits))))
        tracemalloc.start()
        try:
            results = evaluation.elpd_batch("psis", fits=fits, draws=draws, records=cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.all(np.isfinite(r.pointwise)) for r in results)
        assert peak < 1.05 * 4.36e6, f"peak {peak / 1e6:.2f} MB"


class TestKeyedElpd:
    """``elpd_batch`` scores each distinct (design row, transformed outcome) once
    and adds each record's own log Jacobian; per record that equals the
    reference on the full Jacobian-adjusted matrix."""

    # (respondent_age, respondent_sex, partner_age) rows appended to 60
    # simulated records: equal partner ages at different respondent ages, and
    # (20, 40) with (25, 50), whose log ratios are both log 2
    EXTRA = [(20.0, 0, 40.0), (25.0, 1, 50.0), (31.0, 0, 40.0), (47.0, 1, 40.0), (25.0, 1, 50.0)]

    @pytest.fixture(scope="class")
    def records(self, tiny_records):
        base = tiny_records[:60]
        extra = np.array(self.EXTRA, dtype=float)
        return Records(
            np.concatenate([base.respondent_age, extra[:, 0]]),
            np.concatenate([base.respondent_sex, extra[:, 1].astype(np.int64)]),
            np.concatenate([base.partner_age, extra[:, 2]]),
        )

    @staticmethod
    def expected_keys(records, kind, tag):
        y = forward_array(Transform(kind), records.respondent_age, records.respondent_sex, records.partner_age)
        if tag is ModelTag.INTERCEPT_ONLY:
            return np.unique(y).size
        return np.unique(np.column_stack([records.respondent_age, records.respondent_sex, y]), axis=0).shape[0]

    @staticmethod
    def count_scored_rows(monkeypatch):
        seen = []

        def counting(family, x, *slots):
            seen.append(np.shape(x)[0])
            return log_pdf_slots(family, x, *slots)

        monkeypatch.setattr(evaluation, "log_pdf_slots", counting)
        return seen

    CASES = [
        (Family.NORMAL, TransformKind.LINEAR_AGE, ModelTag.INTERCEPT_ONLY),
        (Family.SKEW_NORMAL, TransformKind.LOG_RATIO, ModelTag.INTERCEPT_ONLY),
        (Family.NORMAL, TransformKind.LOG_AGE, ModelTag.CONVENTIONAL),
    ]

    @pytest.mark.filterwarnings("ignore:PSIS tail index")
    @pytest.mark.parametrize("family,kind,tag", CASES, ids=["linear_age", "log_ratio", "regression"])
    def test_psis_per_record_equals_reference(self, records, family, kind, tag, monkeypatch):
        problem = FitProblem(family, Transform(kind), ModelSpec(tag), records)
        fit = fit_map(problem)
        draws = laplace_draws(fit, 400, seed=3)
        ll = pointwise_loglik(fit, draws, records)
        seen = self.count_scored_rows(monkeypatch)
        res = psis_one(fit, draws, records)
        assert sum(seen) == self.expected_keys(records, kind, tag) < len(records)
        for i in range(len(records)):
            lw, khat = _psis_column(ll[:, i])
            np.testing.assert_allclose(res.pointwise[i], logsumexp(lw + ll[:, i]), rtol=1e-12, atol=0)
            np.testing.assert_allclose(res.khat[i], khat, rtol=1e-12, atol=0)
        if tag is ModelTag.INTERCEPT_ONLY:
            # records of one key (here: one outcome) share their k-hat, and
            # their pointwise ELPDs differ by their log Jacobians alone
            args = (fit.transform, records.respondent_age, records.respondent_sex, records.partner_age)
            _, key = np.unique(forward_array(*args), return_inverse=True)
            assert key[-5] == (key[-4] if kind is TransformKind.LOG_RATIO else key[-3])
            outcome = res.pointwise - transforms.log_jacobian_array(*args)
            for k in np.unique(key):
                members = np.flatnonzero(key == k)
                assert np.all(res.khat[members] == res.khat[members[0]])
                np.testing.assert_allclose(outcome[members], outcome[members[0]], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family,kind,tag", CASES, ids=["linear_age", "log_ratio", "regression"])
    def test_kfold_per_record_equals_reference(self, records, family, kind, tag, monkeypatch, three_folds):
        problem = FitProblem(family, Transform(kind), ModelSpec(tag), records)
        seen = self.count_scored_rows(monkeypatch)
        res = kfold_one(problem, 200, 4)
        monkeypatch.undo()
        assignment = np.arange(len(records)) % 3
        keys = 0
        for fold in range(3):
            held = np.flatnonzero(assignment == fold)
            fit = fit_map(dataclasses.replace(problem, records=records[assignment != fold]))
            ll = pointwise_loglik(fit, laplace_draws(fit, 200, seed=5 + fold), records[held])
            want = logsumexp(ll, axis=0) - math.log(200)
            np.testing.assert_allclose(res.pointwise[held], want, rtol=1e-12, atol=0)
            keys += self.expected_keys(records[held], kind, tag)
        assert sum(seen) == keys
        assert keys < len(records)  # some fold scores one key for several of its held-out records


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
        kfold = kfold_one(problem, 800, 4)
        combined = math.sqrt(psis.se**2 + kfold.se**2)
        assert abs(psis.elpd - kfold.elpd) < 2 * combined

    def test_kfold_without_matrix(self, tiny_records, three_folds):
        records = tiny_records[:60]
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.LINEAR_AGE),
            ModelSpec(ModelTag.INTERCEPT_ONLY),
            records,
        )
        res = kfold_one(problem, 200, 4)
        # fold 0 by hand, with scipy's log-sum-exp over the held-out matrix
        held = np.arange(0, 60, 3)
        fit = fit_map(dataclasses.replace(problem, records=records[np.arange(60) % 3 != 0]))
        ll = pointwise_loglik(fit, laplace_draws(fit, 200, seed=5), records[held])
        expected = logsumexp(ll, axis=0) - math.log(200)
        np.testing.assert_allclose(res.pointwise[held], expected, rtol=0, atol=1e-12)

    def test_kfold_with_duplicate_records(self, tiny_records, three_folds):
        # each fold's held-out matrix by hand, duplicates and all
        source = np.concatenate([np.arange(60), np.arange(60)[::-1]])
        records = tiny_records[source]
        problem = FitProblem(
            Family.NORMAL,
            Transform(TransformKind.AGE_DIFFERENCE),
            ModelSpec(ModelTag.CONVENTIONAL),
            records,
        )
        res = kfold_one(problem, 200, 4)
        assignment = np.arange(120) % 3
        assert np.unique(source[assignment == 1]).size < np.count_nonzero(assignment == 1)  # copies share fold 1
        for fold in range(3):
            held = np.flatnonzero(assignment == fold)
            fit = fit_map(dataclasses.replace(problem, records=records[assignment != fold]))
            ll = pointwise_loglik(fit, laplace_draws(fit, 200, seed=5 + fold), records[held])
            expected = logsumexp(ll, axis=0) - math.log(200)
            np.testing.assert_allclose(res.pointwise[held], expected, rtol=0, atol=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown ELPD method"):
            evaluation.elpd_batch("waic")


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


class TestRankByElpd:
    def make_result(self, pointwise):
        pointwise = np.asarray(pointwise, dtype=float)
        return ElpdResult(
            elpd=float(pointwise.sum()),
            se=float(np.sqrt(pointwise.size * np.var(pointwise, ddof=1))),
            pointwise=pointwise,
        )

    def test_ranking_and_diffs(self):
        good = self.make_result([-1.0, -1.1, -0.9])
        worse = self.make_result([-2.0, -1.6, -1.5])
        rows = rank_by_elpd([("worse", worse, 0.9, True), ("good", good, 0.4, True)])
        assert [r["model"] for r in rows] == ["good", "worse"]
        assert rows[0]["rank"] == 1 and rows[1]["rank"] == 2
        assert rows[0]["elpd_diff"] == 0.0 and rows[0]["se_of_diff"] == 0.0
        diff, se = elpd_diff(worse.pointwise, good.pointwise)
        assert rows[1]["elpd_diff"] == pytest.approx(diff)
        assert rows[1]["se_of_diff"] == pytest.approx(se)

    def test_equal_elpd_keeps_given_order(self):
        a = self.make_result([-1.0, -2.0])
        b = self.make_result([-2.0, -1.0])
        rows = rank_by_elpd([("a", a, 0.5, False), ("b", b, 0.4, True)])
        assert [r["model"] for r in rows] == ["a", "b"]
        assert rows[0] == {
            "rank": 1, "model": "a", "elpd": -3.0, "elpd_diff": 0.0, "se_of_diff": 0.0,
            "qq_rmse": 0.5, "elpd_se": a.se, "converged": False, "n_flagged": 0,
        }


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

    def test_infinite_tail_samples_sort_past_the_quantiles(self):
        rng = np.random.default_rng(2)
        obs = rng.normal(30, 5, 1000)
        pred = rng.normal(31, 5, 10_000)
        pred[:400] = np.inf  # 4% at each end
        pred[400:800] = -np.inf
        capped = np.clip(pred, -1e6, 1e6)
        value = qq_rmse({"g": obs}, {"g": pred})
        assert math.isfinite(value)
        assert value == qq_rmse({"g": obs}, {"g": capped})

    def test_equals_quantiles_of_the_unsorted_samples(self):
        # read from sorted copies, the quantiles are np.quantile's of the
        # samples as given, bit for bit: ties and infinite samples included
        rng = np.random.default_rng(4)
        obs = rng.normal(30, 5, 200)
        qs = evaluation._DECILES
        for n in (1, 2, 7, 10, 1000):
            x = rng.normal(30, 5, n)
            samples = [x, np.round(x)]
            for share in (0.05, 0.15, 0.5, 1.0):
                wild = x.copy()
                wild[rng.permutation(n)[: math.ceil(share * n)]] = np.inf
                both = wild.copy()
                both[rng.permutation(n)[: math.ceil(share * n / 2)]] = -np.inf
                samples += [wild, -wild, both]
            for pred in samples:
                with np.errstate(invalid="ignore"):
                    error = np.quantile(obs, qs) - np.quantile(pred, qs)
                if np.all(np.isfinite(error)):
                    assert qq_rmse({"g": obs}, {"g": pred}) == float(np.sqrt(np.mean(error**2)))
                else:
                    with pytest.raises(ValueError, match="non-finite quantile"):
                        qq_rmse({"g": obs}, {"g": pred})

    @pytest.mark.parametrize("qs", [evaluation._DECILES, (0.025, 0.975)])
    def test_sorted_quantiles_equal_np_quantile_bit_for_bit(self, qs):
        # 1-D samples and 2-D rows, finite or holding +-inf and NaN
        rng = np.random.default_rng(5)
        for n in [*range(1, 81), 1000, 10_000]:
            x = rng.normal(30, 5, (3, n))
            x[1, rng.random(n) < 0.1] = np.inf
            x[1, rng.random(n) < 0.1] = -np.inf
            x[2, rng.random(n) < 0.05] = np.nan
            x[2, rng.random(n) < 0.05] = np.inf
            cases = [(x, np.sort(x, axis=1))] + [(row, np.sort(row)) for row in x]
            for given, ascending in cases:
                with np.errstate(invalid="ignore"):  # inf - inf
                    expected = np.quantile(given, qs, axis=-1)
                    got = evaluation._sorted_quantiles(ascending, qs)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (n, given.ndim)

    def test_non_finite_quantile_names_the_group(self):
        rng = np.random.default_rng(3)
        obs = {"fine": rng.normal(30, 5, 100), "wild": rng.normal(30, 5, 100)}
        wild = rng.normal(30, 5, 1000)
        wild[:150] = np.inf  # 15%: the 0.9 quantile reads an infinite sample
        pred = {"fine": rng.normal(30, 5, 1000), "wild": wild}
        with pytest.raises(ValueError, match="non-finite quantile in group wild"):
            qq_rmse(obs, pred)
