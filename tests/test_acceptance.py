"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest``; the per-criterion lines bypass output capture so
they appear in any mode.
"""

import dataclasses
import math
import time
import zlib
from collections import Counter

import numpy as np
from click.testing import CliRunner
from scipy.stats import lognorm

from agemix.cli import main as cli_main
from agemix.data_io import (
    GeneratorConfig,
    Records,
    default_config,
    save_csv,
    simulate,
    stratify,
)
from agemix.deheap import deheap, heaping_index
from agemix.design import ModelSpec, ModelTag, design_matrices
from agemix.distributions import Family, cdf, log_pdf, quantile, sample
from agemix.evaluation import elpd_diff, elpd_loo, pointwise_loglik, qq_rmse
from agemix.inference import (
    FitProblem,
    _default_init,
    _Prepared,
    fit_map,
    laplace_draws,
    neg_log_posterior_and_grad,
    predictive_for_records,
)
from agemix.transforms import Transform, TransformKind

from conftest import ks_statistic
from test_distributions import density_mass, random_params


def _report(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        print(f"\n[acceptance] criterion {num:02d} {status}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_density_normalization(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for family in Family:
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        for _ in range(20):
            worst = max(worst, abs(density_mass(family, random_params(family, rng)) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(capsys, 1, "density normalization, 20 random parameter sets per family",
            ok, f"worst |err|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_normal_reduction(capsys):
    grid = np.linspace(-8.0, 8.0, 1000)
    from agemix.distributions import ParamVector

    n = ParamVector(mu=0.3, sigma=1.7)
    sas = ParamVector(mu=0.3, sigma=1.7, epsilon=0.0, delta=1.0)
    sn = ParamVector(mu=0.3, sigma=1.7, epsilon=0.0)
    worst = 0.0
    for x in grid:
        base = log_pdf(Family.NORMAL, n, float(x))
        worst = max(worst, abs(log_pdf(Family.SINH_ARCSINH, sas, float(x)) - base))
        worst = max(worst, abs(log_pdf(Family.SKEW_NORMAL, sn, float(x)) - base))
    ok = worst < 1e-12
    _report(capsys, 2, "sinh-arcsinh and skew-normal reduce to the normal log density",
            ok, f"worst |diff|={worst:.2e}")


def test_criterion_03_sampler_cdf_quantile_coherence(capsys):
    worst_ks = 0.0
    for family in Family:
        rng = np.random.default_rng(zlib.crc32(("ks" + family.value).encode()))
        for trial in range(10):
            params = random_params(family, rng)
            draws = np.sort(sample(family, params, 10_000, seed=1000 + trial))
            worst_ks = max(worst_ks, ks_statistic(draws, cdf(family, params, draws)))
    worst_rt = 0.0
    qs = np.arange(0.01, 0.995, 0.01)
    for family in Family:
        rng = np.random.default_rng(zlib.crc32(("rt" + family.value).encode()))
        for _ in range(2):
            params = random_params(family, rng)
            for q in qs:
                x = quantile(family, params, float(q))
                worst_rt = max(worst_rt, abs(cdf(family, params, x) - q))
    ok = worst_ks < 0.02 and worst_rt < 1e-9
    _report(capsys, 3, "sampler KS < 0.02 and cdf(quantile(q)) = q to 1e-9",
            ok, f"worst KS={worst_ks:.4f}, worst roundtrip={worst_rt:.2e}")


GRADIENT_COMBOS = [
    (family, kind)
    for family in (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH)
    for kind in (
        TransformKind.LINEAR_AGE,
        TransformKind.AGE_DIFFERENCE,
        TransformKind.LOG_AGE,
        TransformKind.LOG_RATIO,
    )
] + [
    (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
    (Family.GAMMA, TransformKind.LINEAR_AGE),
    (Family.BETA, TransformKind.BETA_RESCALED),
]

SPEC_TAGS = (
    ModelTag.CONVENTIONAL,
    ModelTag.DISTRIBUTIONAL_1,
    ModelTag.DISTRIBUTIONAL_2,
    ModelTag.DISTRIBUTIONAL_3,
    ModelTag.DISTRIBUTIONAL_4,
)


def test_criterion_04_gradient_correctness(capsys):
    records = simulate(default_config(n=200, seed=2024))
    rng = np.random.default_rng(42)
    h = 1e-5
    worst = 0.0
    n_checked = 0
    for family, kind in GRADIENT_COMBOS:
        for tag in SPEC_TAGS:
            problem = FitProblem(family, Transform(kind), ModelSpec(tag), records)
            prep = _Prepared(problem)
            base = _default_init(prep)
            # betas scaled per column so the fixed-h oracle stays in its own
            # truncation budget and the likelihood stays finite
            scale = np.concatenate(
                [np.maximum(np.abs(prep.X[s]).max(axis=0), 1.0) for s in prep.slots]
            )
            for _ in range(2):
                beta = base + 0.15 * rng.standard_normal(prep.dim) / scale
                value, grad = neg_log_posterior_and_grad(prep, beta)
                assert math.isfinite(value), (family, kind, tag)
                fd = np.empty(prep.dim)
                for j in range(prep.dim):
                    e = np.zeros(prep.dim)
                    e[j] = h
                    fd[j] = (
                        neg_log_posterior_and_grad(prep, beta + e)[0]
                        - neg_log_posterior_and_grad(prep, beta - e)[0]
                    ) / (2 * h)
                rel = np.linalg.norm(grad - fd) / (np.linalg.norm(grad) + np.linalg.norm(fd))
                worst = max(worst, rel)
                n_checked += 1
    ok = worst < 1e-5
    _report(capsys, 4, "analytic gradients match central finite differences (h=1e-5)",
            ok, f"worst rel err={worst:.2e} over {n_checked} checks")


def test_criterion_05_parameter_recovery(capsys):
    cfg = dataclasses.replace(default_config(n=50_000, seed=424242), integer_ages=False)
    records = simulate(cfg)
    t0 = time.monotonic()
    fit = fit_map(
        FitProblem(
            Family.SINH_ARCSINH,
            Transform(TransformKind.LOG_RATIO),
            ModelSpec(ModelTag.DISTRIBUTIONAL_2),
            records,
        )
    )
    elapsed = time.monotonic() - t0
    worst_z = 0.0
    for slot in ("mu", "sigma", "epsilon", "delta"):
        z = (fit.coef(slot) - cfg.coefficients[slot]) / fit.coef_sd(slot)
        worst_z = max(worst_z, float(np.max(np.abs(z))))
    ok = fit.converged and worst_z < 3.0 and elapsed < 60.0
    _report(capsys, 5, "every MAP coefficient within 3 Laplace SDs of the n=50,000 truth",
            ok, f"worst |z|={worst_z:.2f}, fit {elapsed:.1f}s")


def test_criterion_06_jacobian_elpd_consistency(capsys):
    records = simulate(default_config(n=400, seed=606))
    problem = FitProblem(
        Family.NORMAL, Transform(TransformKind.LOG_AGE), ModelSpec(ModelTag.CONVENTIONAL), records
    )
    fit = fit_map(problem)
    draws = laplace_draws(fit, 300, seed=1)
    ll_log_scale = pointwise_loglik(fit, draws, records)

    ages, sexes, partners = records.respondent_age, records.respondent_sex, records.partner_age
    mats = design_matrices(fit.spec, ages, sexes, slots=fit.slots, center=True)
    a, b = fit.offsets["mu"]
    mu = draws[:, a:b] @ mats["mu"].T
    a, b = fit.offsets["sigma"]
    sigma = np.exp(draws[:, a:b] @ mats["sigma"].T)
    ll_lognormal = lognorm.logpdf(partners[None, :], s=sigma, scale=np.exp(mu))

    worst = float(np.max(np.abs(ll_log_scale - ll_lognormal)))
    ok = worst < 1e-12
    _report(capsys, 6, "lognormal-on-age and normal-on-log-age log likelihoods identical",
            ok, f"worst |diff|={worst:.2e}")


def test_criterion_07_elpd_exact_refit_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    partners = [float(np.clip(rng.normal(34.0, 2.0), 20, 60)) for _ in range(50)]
    records = Records(np.full(50, 30.0), np.ones(50, dtype=int), partners)
    problem = FitProblem(
        Family.NORMAL,
        Transform(TransformKind.LINEAR_AGE),
        ModelSpec(ModelTag.INTERCEPT_ONLY),
        records,
    )
    fit = fit_map(problem)
    draws = laplace_draws(fit, 4000, seed=11)
    psis = elpd_loo(pointwise_loglik(fit, draws, records))

    # brute-force oracle: 50 exact leave-one-out refits
    exact = np.empty(len(records))
    for i in range(len(records)):
        held_out = records[i : i + 1]
        rest = records[np.arange(len(records)) != i]
        refit = fit_map(
            FitProblem(
                Family.NORMAL,
                Transform(TransformKind.LINEAR_AGE),
                ModelSpec(ModelTag.INTERCEPT_ONLY),
                rest,
            )
        )
        refit_draws = laplace_draws(refit, 2000, seed=100 + i)
        ll = pointwise_loglik(refit, refit_draws, held_out)
        exact[i] = float(np.logaddexp.reduce(ll[:, 0]) - math.log(ll.shape[0]))
    exact_elpd = float(exact.sum())
    exact_se = math.sqrt(len(records) * np.var(exact, ddof=1))
    combined = math.sqrt(psis.se**2 + exact_se**2)
    gap = abs(psis.elpd - exact_elpd)
    elapsed = time.monotonic() - t0
    ok = gap < 2 * combined and elapsed < 120.0
    _report(capsys, 7, "PSIS ELPD within 2 combined SEs of 50 exact leave-one-out refits",
            ok, f"psis={psis.elpd:.2f}, exact={exact_elpd:.2f}, gap={gap:.3f}, 2se={2*combined:.3f}, {elapsed:.0f}s")


def test_criterion_08_family_ordering(capsys):
    cfg = GeneratorConfig(
        n=40_000,
        seed=99,
        family=Family.SINH_ARCSINH,
        transform=Transform(TransformKind.LINEAR_AGE),
        spec=ModelSpec(ModelTag.INTERCEPT_ONLY),
        coefficients={
            "mu": [30.0],
            "sigma": [math.log(3.0)],
            "epsilon": [-0.5],
            "delta": [math.log(0.75)],
        },
        age_weights=[1.0 if 25 <= a <= 29 else 0.0 for a in range(15, 65)],
        integer_ages=False,
    )
    records = simulate(cfg)
    ok = True
    details = []
    for sex in (0, 1):
        subset = records[records.respondent_sex == sex]
        results = {}
        for family in (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH):
            fit = fit_map(
                FitProblem(
                    family,
                    Transform(TransformKind.LINEAR_AGE),
                    ModelSpec(ModelTag.INTERCEPT_ONLY),
                    subset,
                )
            )
            draws = laplace_draws(fit, 1000, seed=5)
            results[family] = elpd_loo(pointwise_loglik(fit, draws, subset))
        e = {f: r.elpd for f, r in results.items()}
        ordered = (
            e[Family.SINH_ARCSINH] > e[Family.SKEW_NORMAL] > e[Family.NORMAL]
        )
        diff, se = elpd_diff(
            results[Family.SINH_ARCSINH].pointwise, results[Family.SKEW_NORMAL].pointwise
        )
        significant = diff > 2 * se
        ok = ok and ordered and significant
        details.append(f"sex {sex}: diff={diff:.0f}, se={se:.0f}")
    _report(capsys, 8, "sinh-arcsinh > skew normal > normal by ELPD, top gap > 2 SE",
            ok, "; ".join(details))


def _nonlinear_truth_coefficients(spec):
    def curve(param, a, s):
        if param == "mu":
            return np.where(
                s == 1,
                0.35 - 0.007 * (a - 35) - 0.06 * np.sin((a - 20) / 9.0),
                0.15 - 0.004 * (a - 35) + 0.08 * np.sin((a - 15) / 8.0),
            )
        if param == "sigma":
            return np.where(
                s == 1,
                -1.8 - 0.010 * (a - 35) + 0.20 * np.cos((a - 30) / 12.0),
                -2.3 + 0.012 * (a - 35) + 0.25 * np.sin((a - 15) / 10.0),
            )
        if param == "epsilon":
            return np.where(
                s == 1,
                -0.3 - 0.008 * (a - 35) - 0.10 * np.sin((a - 20) / 12.0),
                0.3 + 0.010 * (a - 35) + 0.15 * np.sin((a - 25) / 10.0),
            )
        return np.where(
            s == 1,
            0.05 - 0.003 * (a - 35) + 0.08 * np.sin((a - 25) / 11.0),
            -0.15 + 0.004 * (a - 35) + 0.10 * np.cos((a - 15) / 9.0),
        )

    grid_a = np.tile(np.arange(15.0, 65.0), 2)
    grid_s = np.repeat([0, 1], 50)
    x = design_matrices(spec, grid_a, grid_s, center=False)["mu"]
    coefs = {}
    for param in ("mu", "sigma", "epsilon", "delta"):
        beta, *_ = np.linalg.lstsq(x, curve(param, grid_a, grid_s), rcond=None)
        coefs[param] = beta
    return coefs


def test_criterion_09_model_ordering(capsys):
    spec = ModelSpec(ModelTag.DISTRIBUTIONAL_4).resolved()
    cfg = GeneratorConfig(
        n=24_000,
        seed=31,
        family=Family.SINH_ARCSINH,
        transform=Transform(TransformKind.LOG_RATIO),
        spec=spec,
        coefficients=_nonlinear_truth_coefficients(spec),
        integer_ages=False,
    )
    records = simulate(cfg)
    elpd = {}
    qq = {}
    converged = True
    for tag in SPEC_TAGS:
        fit = fit_map(
            FitProblem(
                Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), ModelSpec(tag), records
            )
        )
        converged = converged and fit.converged
        draws = laplace_draws(fit, 1000, seed=5)
        elpd[tag] = elpd_loo(pointwise_loglik(fit, draws, records)).elpd
        observed, predictive = {}, {}
        for key, recs in stratify(records).items():
            observed[str(key)] = recs.partner_age
            predictive[str(key)] = predictive_for_records(fit, draws, recs, 4000, seed=9)
        qq[tag] = qq_rmse(observed, predictive)

    gaps = [
        elpd[ModelTag.DISTRIBUTIONAL_1] - elpd[ModelTag.CONVENTIONAL],
        elpd[ModelTag.DISTRIBUTIONAL_2] - elpd[ModelTag.DISTRIBUTIONAL_1],
        elpd[ModelTag.DISTRIBUTIONAL_3] - elpd[ModelTag.DISTRIBUTIONAL_2],
        elpd[ModelTag.DISTRIBUTIONAL_4] - elpd[ModelTag.DISTRIBUTIONAL_3],
    ]
    ordered = (
        elpd[ModelTag.DISTRIBUTIONAL_4] > elpd[ModelTag.DISTRIBUTIONAL_1] > elpd[ModelTag.CONVENTIONAL]
    )
    largest_first = gaps[0] == max(gaps)
    qq_better = qq[ModelTag.DISTRIBUTIONAL_4] < qq[ModelTag.CONVENTIONAL]
    ok = converged and ordered and largest_first and qq_better
    _report(capsys, 9, "ELPD(D4) > ELPD(D1) > ELPD(Conventional), largest gap Conv->D1, QQ(D4) < QQ(Conv)",
            ok, f"gaps={[round(g) for g in gaps]}, qq Conv={qq[ModelTag.CONVENTIONAL]:.2f} D4={qq[ModelTag.DISTRIBUTIONAL_4]:.2f}")


def test_criterion_10_qq_rmse_properties(capsys):
    rng = np.random.default_rng(10)
    groups = {f"g{i}": rng.normal(30 + i, 4, 400) for i in range(4)}
    self_comparison = qq_rmse(groups, {k: v.copy() for k, v in groups.items()})
    shift = 1.75
    shifted = qq_rmse(groups, {k: v + shift for k, v in groups.items()})
    ok = self_comparison == 0.0 and abs(shifted - shift) < 1e-9
    _report(capsys, 10, "QQ RMSE: self-comparison 0, constant shift recovered exactly",
            ok, f"self={self_comparison}, shift err={abs(shifted - shift):.2e}")


def test_criterion_11_deheaping(capsys):
    cfg = dataclasses.replace(default_config(n=60_000, seed=777), heaping=0.3)
    records = simulate(cfg)
    before = heaping_index(records)
    out, report = deheap(records, bandwidth=2.0, seed=123)
    after = heaping_index(out)
    reduction_ok = after <= 0.2 * before

    def groups(recs):
        return Counter(zip(recs.respondent_sex.tolist(), recs.respondent_age.astype(int).tolist()))

    conserved = groups(records) == groups(out) and len(out) == len(records)

    # hand spike case: counts (10,10,50,10,10), nhat=10, final (18,...,18)
    spike_partners = [float(p) for p in range(26, 35) for _ in range(50 if p == 30 else 10)]
    n_spike = len(spike_partners)
    spike = Records(np.full(n_spike, 30.0), np.ones(n_spike, dtype=int), spike_partners)
    spike_out, _ = deheap(spike, bandwidth=2.0, seed=3)
    counts = Counter(spike_out.partner_age.astype(int).tolist())
    spike_ok = [counts[p] for p in range(28, 33)] == [18, 18, 18, 18, 18]

    ok = reduction_ok and conserved and spike_ok
    _report(capsys, 11, "deheaping cuts heaping index by >= 80%, conserves counts, matches spike case",
            ok, f"index {before:.3f}->{after:.3f} ({100 * (1 - after / before):.0f}% reduction)")


def test_criterion_12_cli_reproducibility(capsys, tmp_path):
    runner = CliRunner()
    data = tmp_path / "records.csv"
    weights = [1.0 if 20 <= a <= 49 else 0.0 for a in range(15, 65)]
    cfg = dataclasses.replace(default_config(n=1200, seed=99), heaping=0.3, age_weights=weights)
    save_csv(simulate(cfg), data)

    def run_twice(args, outputs):
        blobs = []
        for rep in ("x", "y"):
            out = tmp_path / f"{args[0]}-{rep}"
            argv = [a.format(out=out, data=data) for a in args]
            result = runner.invoke(cli_main, argv)
            assert result.exit_code == 0, f"{argv}: {result.output}"
            blobs.append(tuple((out / name).read_bytes() for name in outputs))
        return blobs[0] == blobs[1]

    checks = {
        "simulate": run_twice(
            ["simulate", "--out", "{out}/sim.csv", "--n", "300", "--seed", "4"], ["sim.csv"]
        ),
        "moments": run_twice(
            ["moments", "{data}", "--out", "{out}"], ["moments.csv"]
        ),
        "deheap": run_twice(
            ["deheap", "{data}", "--out", "{out}", "--seed", "6"],
            ["deheaped.csv", "heap_report.json"],
        ),
        "compare-distributions": run_twice(
            ["compare-distributions", "{data}", "--out", "{out}", "--seed", "2",
             "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
            ["combos.csv", "subset_rankings.csv", "transform_shares.csv"],
        ),
        "compare-models": run_twice(
            ["compare-models", "{data}", "--out", "{out}", "--seed", "2",
             "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
            ["model_comparison.csv", "parameter_curves.csv", "predictive_histograms.csv"],
        ),
    }
    ok = all(checks.values())
    failing = [k for k, v in checks.items() if not v]
    _report(capsys, 12, "every CLI command is byte-identical across same-seed reruns",
            ok, "all commands" if ok else f"mismatch: {failing}")
