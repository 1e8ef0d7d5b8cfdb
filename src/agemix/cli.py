"""Command-line entry points.

Five commands: ``simulate`` draws synthetic partnership records;
``moments`` tabulates subset-level empirical moments; ``deheap`` applies the
age-heaping correction; ``compare-distributions`` fits the per-subset
distribution/outcome grid and ranks the families by ELPD; and
``compare-models`` fits the five regression specifications with the
sinh-arcsinh family on the log-ratio outcome.

Every command emits CSV reports plus a ``manifest.json`` sidecar; wall-clock
time and timestamps live only in the manifest so repeated runs with the same
seed produce byte-identical CSVs. Exit status is zero only when every fit
converged and all reports were written.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, data_io
from .data_io import GeneratorConfig, load_csv, save_csv, stratify
from .deheap import deheap as run_deheap
from .design import ModelSpec, ModelTag
from .distributions import Family, empirical_moments
# pointwise_loglik is not called here (PSIS streams record blocks inside
# elpd_loo) but stays importable: perfbench/trace.py wraps agemix.cli's names
from .evaluation import ComparisonReport, elpd_diff, elpd_loo, pointwise_loglik, qq_rmse  # noqa: F401
from .inference import (
    FitProblem,
    _full_etas,
    _natural_params,
    draw_etas,
    fit_map,
    laplace_draws,
    posterior_predictive,
    predictive_for_records,
)
from .transforms import Transform, TransformKind

FAMILY_ORDER = (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH, Family.GAMMA, Family.BETA)
VARIABLE_ORDER = (
    TransformKind.LINEAR_AGE,
    TransformKind.AGE_DIFFERENCE,
    TransformKind.LOG_AGE,
    TransformKind.LOG_RATIO,
)

FAMILY_LABEL = {
    Family.NORMAL: "Normal",
    Family.SKEW_NORMAL: "Skew normal",
    Family.SINH_ARCSINH: "Sinh-arcsinh",
    Family.GAMMA: "Gamma",
    Family.BETA: "Beta",
}
TRANSFORM_LABEL = {
    TransformKind.LINEAR_AGE: "Linear age",
    TransformKind.AGE_DIFFERENCE: "Age difference",
    TransformKind.LOG_AGE: "Log-age",
    TransformKind.LOG_RATIO: "Log-ratio",
    TransformKind.GAMMA_REFLECTED: "Linear age (reflected)",
    TransformKind.BETA_RESCALED: "Linear age (rescaled)",
}

MODEL_TAGS = (
    ModelTag.CONVENTIONAL,
    ModelTag.DISTRIBUTIONAL_1,
    ModelTag.DISTRIBUTIONAL_2,
    ModelTag.DISTRIBUTIONAL_3,
    ModelTag.DISTRIBUTIONAL_4,
)

HISTOGRAM_AGES = (16, 24, 37)
CURVE_AGES = tuple(range(15, 65))


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "NA"
        return repr(v)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _settings_hash(settings: dict) -> str:
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, settings: dict, inputs, outputs, t0: float) -> Path:
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "seed": settings.get("seed"),
        "settings": settings,
        "config_hash": _settings_hash(settings),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_clock_seconds": time.time() - t0,
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


@click.group()
@click.version_option(__version__)
def main():
    """Distributional regression toolkit for partner age distributions."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Generator config JSON (packaged default if omitted).")
@click.option("--out", "out_path", type=click.Path(), required=True, help="Output CSV path.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--n", type=int, default=None, help="Override the config sample size.")
def simulate(config_path, out_path, seed, n):
    """Draw synthetic partnership records from a truth model."""
    t0 = time.time()
    if config_path is not None:
        if not Path(config_path).exists():
            click.echo(f"error: config file not found: {config_path}", err=True)
            sys.exit(1)
        config = GeneratorConfig.from_json_file(config_path)
        if seed is not None:
            config.seed = seed
        if n is not None:
            config.n = n
    else:
        config = data_io.default_config(n=n, seed=seed)

    records = data_io.simulate(config)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(records, out_path)
    settings = config.to_dict()
    manifest = _write_manifest(
        out_path.parent, "simulate", settings, [config_path] if config_path else [], [out_path], t0
    )
    click.echo(f"wrote {len(records)} records to {out_path} (manifest: {manifest})")


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@main.command()
@click.argument("data", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
def moments(data, out_dir):
    """Empirical partner-age moments by sex and five-year age bin."""
    t0 = time.time()
    records = load_csv(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for key, recs in stratify(records).items():
        m = empirical_moments(recs.partner_age)
        rows.append([key.sex_label, key.bin_label, len(recs), m.mean, m.sd, m.skewness, m.kurtosis])
    path = out_dir / "moments.csv"
    _write_csv(path, ["sex", "age_bin", "n", "mean", "sd", "skewness", "kurtosis"], rows)
    _write_manifest(out_dir, "moments", {"data": str(data), "seed": None}, [data], [path], t0)
    click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
# deheap
# ---------------------------------------------------------------------------


@main.command("deheap")
@click.argument("data", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
@click.option("--bandwidth", type=float, default=2.0, show_default=True, help="Kernel bandwidth in years.")
@click.option("--seed", type=int, default=0, show_default=True)
def deheap_cmd(data, out_dir, bandwidth, seed):
    """Redistribute excess records from heaped partner ages."""
    t0 = time.time()
    records = load_csv(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    new_records, report = run_deheap(records, bandwidth=bandwidth, seed=seed)
    csv_path = out_dir / "deheaped.csv"
    save_csv(new_records, csv_path)
    report_path = out_dir / "heap_report.json"
    report_blob = {"manifest": "manifest.json", **report.to_dict()}
    report_path.write_text(json.dumps(report_blob, indent=2) + "\n")
    settings = {"data": str(data), "bandwidth": bandwidth, "seed": seed}
    _write_manifest(out_dir, "deheap", settings, [data], [csv_path, report_path], t0)
    click.echo(
        f"heaping index {report.index_before:.4f} -> {report.index_after:.4f}; "
        f"moved {report.n_moved} of {report.n_records} records"
    )


# ---------------------------------------------------------------------------
# compare-distributions
# ---------------------------------------------------------------------------


def _distribution_combos():
    combos = []
    for family in (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH):
        for kind in VARIABLE_ORDER:
            combos.append((family, kind))
    combos.append((Family.GAMMA, TransformKind.GAMMA_REFLECTED))
    combos.append((Family.BETA, TransformKind.BETA_RESCALED))
    return combos


def _fit_subset_combo(task):
    """Fit one (subset, family, transform) cell; returns a metrics dict."""
    (key_sex, key_bin, records, family_value, kind_value, seed, n_draws, elpd_method, qq_samples) = task
    family = Family(family_value)
    kind = TransformKind(kind_value)
    fam_idx = list(Family).index(family)
    kind_idx = list(TransformKind).index(kind)
    base = {
        "sex": key_sex,
        "bin_start": key_bin,
        "family": family.value,
        "transform": kind.value,
        "n_records": len(records),
    }
    try:
        problem = FitProblem(family, Transform(kind), ModelSpec(ModelTag.INTERCEPT_ONLY), records)
        fit = fit_map(problem)
        draws = laplace_draws(fit, n_draws, seed=_child_seed(seed, key_sex, key_bin, fam_idx, kind_idx, 1))
        res = elpd_loo(
            method=elpd_method,
            fit=fit,
            draws=draws,
            records=records,
            problem=problem,
            seed=_child_seed(seed, key_sex, key_bin, fam_idx, kind_idx, 2),
        )
        pred = predictive_for_records(
            fit, draws, records, qq_samples, seed=_child_seed(seed, key_sex, key_bin, fam_idx, kind_idx, 3)
        )
        qq = qq_rmse({"subset": records.partner_age}, {"subset": pred})
        base.update(
            {
                "ok": True,
                "converged": fit.converged,
                "elpd": res.elpd,
                "elpd_se": res.se,
                "pointwise": res.pointwise,
                "qq_rmse": qq,
                "n_flagged": len(res.flagged),
                "error": None,
            }
        )
    except Exception as exc:  # noqa: BLE001 - failure markers belong in the report
        base.update(
            {
                "ok": False,
                "converged": False,
                "elpd": math.nan,
                "elpd_se": math.nan,
                "pointwise": None,
                "qq_rmse": math.nan,
                "n_flagged": 0,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
    return base


def _run_tasks(tasks, worker, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


@main.command("compare-distributions")
@click.argument("data", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=None, help="Parallel fits (default: available cores).")
@click.option("--elpd", "elpd_method", type=click.Choice(["psis", "kfold"]), default="psis", show_default=True)
@click.option("--draws", type=int, default=4000, show_default=True, help="Laplace draws per fit.")
@click.option("--qq-samples", type=int, default=10000, show_default=True, help="Predictive samples per subset.")
def compare_distributions(data, out_dir, seed, jobs, elpd_method, draws, qq_samples):
    """Rank the five families per (sex, age-bin) subset by ELPD."""
    t0 = time.time()
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    records = load_csv(data)
    subsets = stratify(records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    method = "exact_kfold" if elpd_method == "kfold" else "psis"

    tasks = []
    for key, recs in subsets.items():
        for family, kind in _distribution_combos():
            tasks.append(
                (key.sex, key.bin_start, recs, family.value, kind.value, seed, draws, method, qq_samples)
            )
    results = _run_tasks(tasks, _fit_subset_combo, jobs)
    results.sort(key=lambda r: (r["sex"], r["bin_start"], r["family"], r["transform"]))

    combo_rows = [
        [
            "female" if r["sex"] == 1 else "male",
            f"{r['bin_start']}-{r['bin_start'] + 4}",
            FAMILY_LABEL[Family(r["family"])],
            TRANSFORM_LABEL[TransformKind(r["transform"])],
            r["n_records"],
            r["elpd"],
            r["elpd_se"],
            r["qq_rmse"],
            r["converged"],
            r["n_flagged"],
            r["error"],
        ]
        for r in results
    ]
    combos_path = out_dir / "combos.csv"
    _write_csv(
        combos_path,
        ["sex", "age_bin", "distribution", "variable", "n", "elpd", "elpd_se", "qq_rmse", "converged", "n_flagged", "error"],
        combo_rows,
    )

    # per-subset family ranking at each family's best variable
    ranking_rows = []
    best_variable: dict[tuple[int, int, str], str] = {}
    all_ok = all(r["ok"] and r["converged"] for r in results)
    for key in subsets:
        cell = [r for r in results if (r["sex"], r["bin_start"]) == (key.sex, key.bin_start)]
        best_per_family = {}
        for fam in FAMILY_ORDER:
            fam_rows = [r for r in cell if r["family"] == fam.value and r["ok"]]
            if not fam_rows:
                continue
            best = max(fam_rows, key=lambda r: r["elpd"])
            best_per_family[fam] = best
            best_variable[(key.sex, key.bin_start, fam.value)] = best["transform"]
        if not best_per_family:
            continue
        ranked = sorted(best_per_family.items(), key=lambda kv: -kv[1]["elpd"])
        top = ranked[0][1]
        for rank, (fam, row) in enumerate(ranked, start=1):
            if row is top:
                diff, dse = 0.0, 0.0
            else:
                diff, dse = elpd_diff(row["pointwise"], top["pointwise"])
            ranking_rows.append(
                [
                    key.sex_label,
                    key.bin_label,
                    rank,
                    FAMILY_LABEL[fam],
                    row["elpd"],
                    diff,
                    dse,
                    row["qq_rmse"],
                    TRANSFORM_LABEL[TransformKind(row["transform"])],
                ]
            )
    ranking_header = ["sex", "age_bin", "rank", "distribution", "elpd", "elpd_diff", "se_of_diff", "qq_rmse", "best_variable"]
    rankings_path = out_dir / "subset_rankings.csv"
    _write_csv(rankings_path, ranking_header, ranking_rows)
    rankings_json_path = out_dir / "subset_rankings.json"
    rankings_json_path.write_text(
        json.dumps([dict(zip(ranking_header, row)) for row in ranking_rows], indent=2) + "\n"
    )

    # share of subsets in which each variable wins, per real-line family
    share_rows = []
    share_families = (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH)
    n_subsets = len(subsets)
    for kind in VARIABLE_ORDER:
        row = [TRANSFORM_LABEL[kind]]
        for fam in share_families:
            wins = sum(
                1
                for key in subsets
                if best_variable.get((key.sex, key.bin_start, fam.value)) == kind.value
            )
            row.append(100.0 * wins / n_subsets if n_subsets else math.nan)
        share_rows.append(row)
    shares_path = out_dir / "transform_shares.csv"
    _write_csv(shares_path, ["variable", "normal", "skew_normal", "sinh_arcsinh"], share_rows)

    settings = {
        "data": str(data),
        "seed": seed,
        "elpd": elpd_method,
        "draws": draws,
        "qq_samples": qq_samples,
    }
    report = {
        "manifest": "manifest.json",
        "n_subsets": n_subsets,
        "n_models": len(results),
        "all_converged": all_ok,
        "failures": [r["error"] for r in results if not r["ok"]],
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(
        out_dir,
        "compare-distributions",
        settings,
        [data],
        [combos_path, rankings_path, rankings_json_path, shares_path, report_path],
        t0,
    )
    click.echo(f"fit {len(results)} models over {n_subsets} subsets -> {out_dir}")
    if not all_ok:
        click.echo("warning: some fits failed or did not converge", err=True)
        sys.exit(1)


# ---------------------------------------------------------------------------
# compare-models
# ---------------------------------------------------------------------------


def _fit_model_spec(task):
    """Fit one regression specification on the full data set."""
    (tag_value, records, seed, n_draws, elpd_method, qq_samples) = task
    tag = ModelTag(tag_value)
    tag_idx = list(ModelTag).index(tag)
    out = {"tag": tag.value, "error": None, "ok": True}
    try:
        problem = FitProblem(
            Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), ModelSpec(tag), records
        )
        fit = fit_map(problem)
        draws = laplace_draws(fit, n_draws, seed=_child_seed(seed, tag_idx, 1))
        res = elpd_loo(
            method=elpd_method, fit=fit, draws=draws, records=records, problem=problem, seed=_child_seed(seed, tag_idx, 2)
        )

        observed = {}
        predictive = {}
        for key, recs in stratify(records).items():
            observed[str(key)] = recs.partner_age
            predictive[str(key)] = predictive_for_records(
                fit, draws, recs, qq_samples, seed=_child_seed(seed, tag_idx, 3, key.sex, key.bin_start)
            )
        qq = qq_rmse(observed, predictive)

        curves = []
        for sex in (0, 1):
            etas = draw_etas(fit, draws.draws, np.array(CURVE_AGES, float), np.full(len(CURVE_AGES), sex))
            params = _natural_params(fit.family, _full_etas(fit, etas))
            for name, values in zip(("mu", "sigma", "epsilon", "delta"), params):
                est = np.mean(values, axis=0)
                lo = np.quantile(values, 0.025, axis=0)
                hi = np.quantile(values, 0.975, axis=0)
                for age, e, l, h in zip(CURVE_AGES, est, lo, hi):
                    curves.append([tag.value, name, sex, age, float(e), float(l), float(h)])

        hist_rows = []
        n_per_draw = max(1, 50000 // n_draws)
        edges = np.arange(0.0, 101.0)
        for sex in (0, 1):
            for age in HISTOGRAM_AGES:
                samples = posterior_predictive(
                    fit, draws, float(age), sex, n_per_draw, seed=_child_seed(seed, tag_idx, 4, sex, age)
                )
                density, _ = np.histogram(samples, bins=edges, density=True)
                for left, d in zip(edges[:-1], density):
                    hist_rows.append([tag.value, sex, age, int(left), float(d)])

        out.update(
            {
                "converged": fit.converged,
                "elpd": res.elpd,
                "elpd_result": res,
                "n_flagged": len(res.flagged),
                "qq_rmse": qq,
                "curves": curves,
                "histograms": hist_rows,
                "knots": list(fit.spec.knots) if fit.spec.knots else None,
                "nlp": fit.nlp,
                "iterations": fit.iterations,
                "gradient_norm": fit.gradient_norm,
                "min_curvature_eigenvalue": fit.min_curvature_eigenvalue,
            }
        )
    except Exception as exc:  # noqa: BLE001
        out.update(
            {
                "ok": False,
                "converged": False,
                "elpd": math.nan,
                "elpd_result": None,
                "n_flagged": 0,
                "qq_rmse": math.nan,
                "curves": [],
                "histograms": [],
                "knots": None,
                "nlp": math.nan,
                "iterations": None,
                "gradient_norm": math.nan,
                "min_curvature_eigenvalue": math.nan,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
    return out


@main.command("compare-models")
@click.argument("data", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=None, help="Parallel fits (default: available cores).")
@click.option("--elpd", "elpd_method", type=click.Choice(["psis", "kfold"]), default="psis", show_default=True)
@click.option("--draws", type=int, default=4000, show_default=True, help="Laplace draws per fit.")
@click.option("--qq-samples", type=int, default=10000, show_default=True, help="Predictive samples per group.")
def compare_models(data, out_dir, seed, jobs, elpd_method, draws, qq_samples):
    """Fit the five regression specifications (sinh-arcsinh, log-ratio)."""
    t0 = time.time()
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    records = load_csv(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    method = "exact_kfold" if elpd_method == "kfold" else "psis"

    tasks = [(tag.value, records, seed, draws, method, qq_samples) for tag in MODEL_TAGS]
    results = _run_tasks(tasks, _fit_model_spec, jobs)
    results.sort(key=lambda r: list(ModelTag).index(ModelTag(r["tag"])))
    by_tag = {r["tag"]: r for r in results}

    display = {t.value: ModelSpec(t).display_name for t in MODEL_TAGS}
    ok_rows = [r for r in results if r["ok"]]
    comparison_rows = []
    if ok_rows:
        ranked = ComparisonReport.from_models(
            (display[r["tag"]], r["elpd_result"], r["qq_rmse"], r["converged"]) for r in ok_rows
        )
        comparison_rows = [
            [d["rank"], d["model"], d["elpd"], d["elpd_diff"], d["se_of_diff"],
             d["qq_rmse"], d["elpd_se"], d["converged"]]
            for d in ranked.to_dicts()
        ]
    comparison_header = ["rank", "model", "elpd", "elpd_diff", "se_of_diff", "qq_rmse", "elpd_se", "converged"]
    comparison_path = out_dir / "model_comparison.csv"
    _write_csv(comparison_path, comparison_header, comparison_rows)
    comparison_json_path = out_dir / "model_comparison.json"
    comparison_json_path.write_text(
        json.dumps([dict(zip(comparison_header, row)) for row in comparison_rows], indent=2) + "\n"
    )

    curves_path = out_dir / "parameter_curves.csv"
    _write_csv(
        curves_path,
        ["model", "parameter", "sex", "age", "estimate", "lower95", "upper95"],
        [row for r in results for row in r["curves"]],
    )

    hist_path = out_dir / "predictive_histograms.csv"
    _write_csv(
        hist_path,
        ["model", "sex", "age", "partner_age", "density"],
        [row for r in results for row in r["histograms"]],
    )

    all_ok = all(r["ok"] and r["converged"] for r in results)
    settings = {
        "data": str(data),
        "seed": seed,
        "elpd": elpd_method,
        "draws": draws,
        "qq_samples": qq_samples,
    }
    report = {
        "manifest": "manifest.json",
        "models": {
            tag.value: {
                "converged": by_tag[tag.value]["converged"],
                "elpd": by_tag[tag.value]["elpd"],
                "qq_rmse": by_tag[tag.value]["qq_rmse"],
                "knots": by_tag[tag.value]["knots"],
                "nlp": by_tag[tag.value]["nlp"],
                "iterations": by_tag[tag.value]["iterations"],
                "gradient_norm": by_tag[tag.value]["gradient_norm"],
                "min_curvature_eigenvalue": by_tag[tag.value]["min_curvature_eigenvalue"],
                "error": by_tag[tag.value]["error"],
            }
            for tag in MODEL_TAGS
        },
        "all_converged": all_ok,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(
        out_dir,
        "compare-models",
        settings,
        [data],
        [comparison_path, comparison_json_path, curves_path, hist_path, report_path],
        t0,
    )
    click.echo(f"fit {len(results)} specifications -> {out_dir}")
    if not all_ok:
        click.echo("warning: some fits failed or did not converge", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
