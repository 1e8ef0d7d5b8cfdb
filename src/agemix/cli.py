"""Command-line entry points.

Five commands: ``simulate`` draws synthetic partnership records;
``moments`` tabulates subset-level empirical moments; ``deheap`` applies the
age-heaping correction; ``compare-distributions`` fits the per-subset
distribution/outcome grid and ranks the families by ELPD; and
``compare-models`` fits the five regression specifications with the
sinh-arcsinh family on the log-ratio outcome.

Both compare commands take the same options and run one path (``_compare``):
one task per batch of fits that share family, transform and spec fits them
and scores them together (``_score``: ``--draws`` Laplace draws, ELPD,
predictive QQ RMSE; k-fold draws as many per fold fit), and the fits that
succeeded are ranked by ``evaluation.rank_by_elpd``. compare-distributions
runs one task per (family, transform) combination, which fits its 12 subsets
as one batch; compare-models runs one per specification, a batch of one. A
fit or batch that raises gives a failure marker per fit (NaN scores and the
error text) in the reports instead of aborting the run. The parameter curves
of ``compare-models`` come from ``inference.draw_params``.

The records commands load no fitting module: ``inference`` and
``evaluation`` are imported on the compare path only, once, before any worker
process starts, and ``_score`` looks their functions up there at each call.

Every command emits CSV reports plus a ``manifest.json`` sidecar; wall-clock
time, peak memory and timestamps live only in the manifest so repeated runs
with the same seed produce byte-identical CSVs; ``simulate``'s manifest also
counts the partner ages it clipped (``n_clipped``). A data file that is
malformed or holds no records stops a command with one ``Error:`` line and
exit status 1. Exit status is zero only when every fit converged and all
reports were written.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, data_io
from .data_io import CsvError, GeneratorConfig, load_csv, save_csv, stratify
from .deheap import deheap as run_deheap
from .design import ModelSpec, ModelTag
from .distributions import Family, empirical_moments
from .transforms import Transform, TransformKind

# the families on the real line, fitted under every variable in VARIABLE_ORDER
REAL_LINE_FAMILIES = (Family.NORMAL, Family.SKEW_NORMAL, Family.SINH_ARCSINH)
FAMILY_ORDER = (*REAL_LINE_FAMILIES, Family.GAMMA, Family.BETA)
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


def _finite(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json(value, **kwargs) -> str:
    """Strict JSON text of ``value``: non-finite floats become null."""
    return json.dumps(_finite(value), allow_nan=False, **kwargs)


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _settings_hash(settings: dict) -> str:
    return hashlib.sha256(_json(settings, sort_keys=True).encode()).hexdigest()


def _peak_rss_mb(who) -> float:
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest
    # peak among reaped children (worker processes), not a sum, and it
    # survives exec, so a launcher's own children count too
    return resource.getrusage(who).ru_maxrss / 1024.0


def _write_manifest(out_dir: Path, command: str, settings: dict, inputs, outputs, t0: float, **fields) -> Path:
    """Write ``manifest.json``; ``fields`` are command-specific entries after the outputs."""
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "seed": settings.get("seed"),
        "settings": settings,
        "config_hash": _settings_hash(settings),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        **fields,
        "wall_clock_seconds": time.time() - t0,
        "peak_rss_mb": {
            "process": _peak_rss_mb(resource.RUSAGE_SELF),
            "children": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        },
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / "manifest.json"
    path.write_text(_json(manifest, indent=2) + "\n")
    return path


@click.group()
@click.version_option(__version__)
def main():
    """Distributional regression toolkit for partner age distributions."""


_AT_LEAST_1 = click.IntRange(min=1)
_SEED = click.IntRange(min=0)


def _require_finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


def _load(data):
    """``load_csv`` of a command's data file; a malformed file, or one without
    records, is a one-line error with exit status 1."""
    try:
        records = load_csv(data)
    except CsvError as exc:
        raise click.ClickException(str(exc)) from None
    if not len(records):
        raise click.ClickException(f"{data}: no records")
    return records


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None, help="Generator config JSON (packaged default if omitted).")
@click.option("--out", "out_path", type=click.Path(), required=True, help="Output CSV path.")
@click.option("--seed", type=_SEED, default=None, help="Override the config seed.")
@click.option("--n", type=_AT_LEAST_1, default=None, help="Override the config sample size.")
def simulate(config_path, out_path, seed, n):
    """Draw synthetic partnership records from a truth model."""
    t0 = time.time()
    if config_path is not None:
        if not Path(config_path).exists():
            click.echo(f"error: config file not found: {config_path}", err=True)
            sys.exit(1)
        try:
            config = GeneratorConfig.from_json_file(config_path, n=n, seed=seed)
        except ValueError as exc:  # a value the file gives is out of range, like --n 0
            raise click.BadParameter(str(exc), param_hint="'--config'") from None
    else:
        config = data_io.default_config(n=n, seed=seed)

    records, n_clipped = data_io.simulate(config, return_clipped=True)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(records, out_path)
    settings = config.to_dict()
    manifest = _write_manifest(
        out_path.parent, "simulate", settings, [config_path] if config_path else [], [out_path], t0,
        n_clipped=n_clipped,
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
    records = _load(data)
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
@click.option("--bandwidth", type=click.FloatRange(min=0, min_open=True), default=2.0, show_default=True,
              callback=_require_finite, help="Kernel bandwidth in years.")
@click.option("--seed", type=_SEED, default=0, show_default=True)
def deheap_cmd(data, out_dir, bandwidth, seed):
    """Redistribute excess records from heaped partner ages."""
    t0 = time.time()
    records = _load(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    new_records, report = run_deheap(records, bandwidth=bandwidth, seed=seed)
    csv_path = out_dir / "deheaped.csv"
    save_csv(new_records, csv_path)
    report_path = out_dir / "heap_report.json"
    report_blob = {"manifest": "manifest.json", **report.to_dict()}
    report_path.write_text(_json(report_blob, indent=2) + "\n")
    settings = {"data": str(data), "bandwidth": bandwidth, "seed": seed}
    _write_manifest(out_dir, "deheap", settings, [data], [csv_path, report_path], t0)
    click.echo(
        f"heaping index {report.index_before:.4f} -> {report.index_after:.4f}; "
        f"moved {report.n_moved} of {report.n_records} records"
    )


# ---------------------------------------------------------------------------
# the fit-score-rank path shared by compare-distributions and compare-models
# ---------------------------------------------------------------------------

# the scores of a fit that failed: the marker row carries the error instead
_FAILED = {
    "ok": False,
    "converged": False,
    "elpd": math.nan,
    "elpd_se": math.nan,
    "n_flagged": 0,
    "max_khat": math.nan,
    "n_inf_predictive": 0,
    "elpd_result": None,
    "qq_rmse": math.nan,
    "knots": None,
    "nlp": math.nan,
    "iterations": None,
    "gradient_norm": math.nan,
    "min_curvature_eigenvalue": math.nan,
}


def _score(problems, seed_parts, n_draws, elpd_method, qq_samples, groups, extra=None) -> list[dict]:
    """Fit a batch of problems of one family, transform and spec and score each
    fit by ELPD and predictive QQ RMSE; one row per problem.

    ``seed_parts[i]`` seeds problem i's draws and samples, ``groups[i]`` lists (name, records, seed
    parts) per QQ group, and ``extra(fit, draws)`` returns further fields. Fits, draws, ELPD and
    predictive samples each run once for the problems not failed yet. An exception turns the row
    of its problem (or of each, if a stage raises) into ``_FAILED`` plus its text."""
    from . import evaluation, inference

    errors = [None] * len(problems)

    def batched(stage) -> dict:
        """Map each problem not failed yet to ``stage``'s output; an exception fails it."""
        live = [i for i, error in enumerate(errors) if error is None]
        try:
            outs = stage(live)
        except Exception as exc:  # noqa: BLE001 - failure markers belong in the report
            outs = [exc] * len(live)
        for i, out in zip(live, outs):
            errors[i] = out if isinstance(out, Exception) else None
        return dict(zip(live, outs))

    fits = batched(lambda live: inference.fit_map_batch([problems[i] for i in live]))
    draws = batched(lambda live: inference.laplace_draws_batch(
        [fits[i] for i in live], n_draws, [_child_seed(*seed_parts[i], 1) for i in live]))
    results = batched(lambda live: evaluation.elpd_batch(
        elpd_method, fits=[fits[i] for i in live], draws=[draws[i] for i in live],
        records=[problems[i].records for i in live], problems=[problems[i] for i in live], n_draws=n_draws,
        seeds=[_child_seed(*seed_parts[i], 2) for i in live]))
    predictive = batched(lambda live: inference.predictive_batch([fits[i] for i in live], [draws[i] for i in live], [
        [(recs, qq_samples, _child_seed(*seed_parts[i], 3, *parts)) for _, recs, parts in groups[i]] for i in live]))
    rows = []
    for i in range(len(problems)):
        try:
            if errors[i] is not None:
                raise errors[i]
            fit, res, observed = fits[i], results[i], {name: recs.partner_age for name, recs, _ in groups[i]}
            samples = dict(zip(observed, predictive[i]))
            scores = {
                "ok": True,
                "converged": fit.converged,
                "elpd": res.elpd,
                "elpd_se": res.se,
                "n_flagged": len(res.flagged),
                # k-fold has no k-hat
                "max_khat": float(res.khat.max()) if res.khat is not None else math.nan,
                "n_inf_predictive": int(sum(np.isinf(p).sum() for p in samples.values())),
                "elpd_result": res,
                "qq_rmse": evaluation.qq_rmse(observed, samples),
                "knots": list(fit.spec.knots) if fit.spec.knots else None,
                "nlp": fit.nlp,
                "iterations": fit.iterations,
                "gradient_norm": fit.gradient_norm,
                "min_curvature_eigenvalue": fit.min_curvature_eigenvalue,
                "error": None,
            }
            if extra is not None:
                scores.update(extra(fit, draws[i]))
            rows.append(scores)
        except Exception as exc:  # noqa: BLE001 - failure markers belong in the report
            rows.append({**_FAILED, "error": f"{type(exc).__name__}: {exc}"})
    return rows


def _ranked(results, name) -> list[dict]:
    """``rank_by_elpd`` rows of the fits that succeeded, best ELPD first."""
    from .evaluation import rank_by_elpd

    return rank_by_elpd(
        (name(r), r["elpd_result"], r["qq_rmse"], r["converged"]) for r in results if r["ok"]
    )


def _run(task, tasks, jobs: int):
    """The result rows of every task, in order: ``task`` maps each to a list
    of them. With more than one job, a process pool runs the tasks."""
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return [row for rows in pool.map(task, tasks) for row in rows]
    return [row for t in tasks for row in task(t)]


def _write_table(out_dir: Path, stem: str, header, rows) -> list[Path]:
    """Write ``rows`` as ``stem``.csv and as a JSON list of objects."""
    csv_path, json_path = out_dir / f"{stem}.csv", out_dir / f"{stem}.json"
    _write_csv(csv_path, header, rows)
    json_path.write_text(_json([dict(zip(header, row)) for row in rows], indent=2) + "\n")
    return [csv_path, json_path]


def _compare_options(qq_help: str):
    """The data argument and the options both compare commands take."""
    options = (
        click.argument("data", type=click.Path(exists=True)),
        click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory."),
        click.option("--seed", type=_SEED, default=0, show_default=True),
        click.option("--jobs", type=_AT_LEAST_1, default=None, help="Parallel fits (default: available cores)."),
        click.option("--elpd", "elpd_method", type=click.Choice(["psis", "kfold"]), default="psis", show_default=True),
        click.option("--draws", type=_AT_LEAST_1, default=4000, show_default=True, help="Laplace draws per fit."),
        click.option("--qq-samples", type=_AT_LEAST_1, default=10000, show_default=True, help=qq_help),
    )

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


def _compare(
    command, tasks_of, task, write_reports, data, out_dir, seed, jobs, elpd_method, draws, qq_samples
):
    """Run one compare command: fit every task, write its reports and manifest.

    ``tasks_of(records)`` gives the leading fields of each task, to which the
    seed and the scoring settings are appended; ``task`` fits and scores one,
    returning a result row per fit (``_run``); ``write_reports(out_dir,
    results, all_ok)`` returns the paths it wrote and a summary. The exit
    status is 1 when any fit failed or did not converge.
    """
    if elpd_method == "psis" and draws < 100:
        raise click.BadParameter(f"{draws} is below 100, the fewest PSIS accepts.", param_hint="'--draws'")
    t0 = time.time()
    records = _load(data)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(*head, seed, draws, elpd_method, qq_samples) for head in tasks_of(records)]
    # the fitting modules load here, once, so that worker processes inherit them
    from . import evaluation, inference  # noqa: F401
    results = _run(task, tasks, jobs if jobs is not None else (os.cpu_count() or 1))
    all_ok = all(r["ok"] and r["converged"] for r in results)
    outputs, summary = write_reports(out_dir, results, all_ok)
    settings = {"data": str(data), "seed": seed, "elpd": elpd_method, "draws": draws, "qq_samples": qq_samples}
    _write_manifest(out_dir, command, settings, [data], outputs, t0)
    click.echo(f"fit {summary} -> {out_dir}")
    if not all_ok:
        click.echo("warning: some fits failed or did not converge", err=True)
        sys.exit(1)


# ---------------------------------------------------------------------------
# compare-distributions
# ---------------------------------------------------------------------------

DISTRIBUTION_COMBOS = tuple((family, kind) for family in REAL_LINE_FAMILIES for kind in VARIABLE_ORDER) + (
    (Family.GAMMA, TransformKind.GAMMA_REFLECTED),
    (Family.BETA, TransformKind.BETA_RESCALED),
)


def _subset_tasks(records):
    subsets = list(stratify(records).items())
    return [(subsets, family, kind) for family, kind in DISTRIBUTION_COMBOS]


def _fit_subset_combo(task):
    """Fit and score every subset (cell) of one (family, transform)
    combination as one batch: one result row per cell."""
    from .inference import FitProblem

    subsets, family, kind, seed, n_draws, elpd_method, qq_samples = task
    problems = [FitProblem(family, Transform(kind), ModelSpec(ModelTag.INTERCEPT_ONLY), recs) for _, recs in subsets]
    parts = [(seed, key.sex, key.bin_start, list(Family).index(family), list(TransformKind).index(kind))
             for key, _ in subsets]
    groups = [[("subset", records, ())] for _, records in subsets]
    return [
        {"key": key, "family": family, "transform": kind, "sex": key.sex_label, "age_bin": key.bin_label,
         "distribution": FAMILY_LABEL[family], "variable": TRANSFORM_LABEL[kind], "n": len(records), **row}
        for (key, records), row in zip(subsets, _score(problems, parts, n_draws, elpd_method, qq_samples, groups))
    ]


# the columns of combos.csv, each a field of a subset cell's result row
COMBO_COLUMNS = ("sex", "age_bin", "distribution", "variable", "n", "elpd", "elpd_se", "qq_rmse", "converged",
                 "n_flagged", "max_khat", "n_inf_predictive", "error")
# the columns of subset_rankings, each a field of a rank_by_elpd row or of the row it ranks
RANKING_COLUMNS = ("sex", "age_bin", "rank", "distribution", "elpd", "elpd_diff", "se_of_diff", "qq_rmse",
                   "best_variable", "n_flagged")


def _write_subset_reports(out_dir: Path, results, all_ok):
    results.sort(key=lambda r: (r["key"], r["family"].value, r["transform"].value))
    combos_path = out_dir / "combos.csv"
    _write_csv(combos_path, COMBO_COLUMNS, [[r[c] for c in COMBO_COLUMNS] for r in results])

    # per-subset family ranking, each family at its best variable
    ranking_rows, winners = [], []  # winners: each subset's best row of each family
    for _, cell in itertools.groupby(results, key=lambda r: r["key"]):
        fitted = [r for r in cell if r["ok"]]
        best = [
            max(rows, key=lambda r: r["elpd"])
            for family in FAMILY_ORDER
            if (rows := [r for r in fitted if r["family"] is family])
        ]
        winners += best
        for d in _ranked(best, lambda r: r):
            row = {**d["model"], **d, "best_variable": d["model"]["variable"]}
            ranking_rows.append([row[c] for c in RANKING_COLUMNS])
    rankings = _write_table(out_dir, "subset_rankings", RANKING_COLUMNS, ranking_rows)

    # share of subsets in which each variable is a real-line family's best,
    # and how many of those wins rest on a cell with k-hat flags
    shares_path = out_dir / "transform_shares.csv"
    n_subsets = len({r["key"] for r in results})
    wins = Counter((r["family"], r["transform"]) for r in winners)
    flagged_wins = Counter((r["family"], r["transform"]) for r in winners if r["n_flagged"] > 0)
    families = [family.value for family in REAL_LINE_FAMILIES]
    _write_csv(
        shares_path,
        ["variable", *families, *(f"{family}_flagged" for family in families)],
        [
            [TRANSFORM_LABEL[kind]]
            + [100.0 * wins[family, kind] / n_subsets if n_subsets else math.nan for family in REAL_LINE_FAMILIES]
            + [flagged_wins[family, kind] for family in REAL_LINE_FAMILIES]
            for kind in VARIABLE_ORDER
        ],
    )

    report = {
        "manifest": "manifest.json",
        "n_subsets": n_subsets,
        "n_models": len(results),
        # ranking rows whose cell has records with k-hat above KHAT_WARN
        "n_flagged_ranking_rows": sum(row[-1] > 0 for row in ranking_rows),
        "all_converged": all_ok,
        "failures": [r["error"] for r in results if not r["ok"]],
    }
    report_path = out_dir / "report.json"
    report_path.write_text(_json(report, indent=2) + "\n")
    return [combos_path, *rankings, shares_path, report_path], f"{len(results)} models over {n_subsets} subsets"


@main.command("compare-distributions")
@_compare_options("Predictive samples per subset.")
def compare_distributions(**options):
    """Rank the five families per (sex, age-bin) subset by ELPD."""
    _compare("compare-distributions", _subset_tasks, _fit_subset_combo, _write_subset_reports, **options)


# ---------------------------------------------------------------------------
# compare-models
# ---------------------------------------------------------------------------


# the fields of each model in compare-models' report.json, in order
REPORT_KEYS = (
    "converged",
    "elpd",
    "qq_rmse",
    "knots",
    "nlp",
    "iterations",
    "gradient_norm",
    "min_curvature_eigenvalue",
    "max_khat",
    "n_flagged",
    "n_inf_predictive",
    "error",
)


def _model_tasks(records):
    # the QQ groups, which every specification shares
    groups = [(str(key), recs, (key.sex, key.bin_start)) for key, recs in stratify(records).items()]
    return [(tag, records, groups) for tag in MODEL_TAGS]


def _fit_model_spec(task):
    """Fit and score one regression specification on the full data set."""
    from .evaluation import _sorted_quantiles
    from .inference import FitProblem, draw_params, posterior_predictive

    tag, records, groups, seed, n_draws, elpd_method, qq_samples = task
    seed_parts = (seed, list(ModelTag).index(tag))
    problem = FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), ModelSpec(tag), records)

    def curves_and_histograms(fit, draws):
        curves = []
        for sex in (0, 1):
            params, cell_of = draw_params(fit, draws, CURVE_AGES, np.full(len(CURVE_AGES), sex))
            for name, values in zip(("mu", "sigma", "epsilon", "delta"), params):
                # each cell's draws sorted once, as rows of the C-ordered (cells, draws) array
                lo, hi = _sorted_quantiles(np.sort(values.T, axis=1), (0.025, 0.975))[:, cell_of]
                # np.take gathers C-ordered, which fixes the mean's summation order
                est = np.mean(np.take(values, cell_of, axis=1), axis=0)
                for age, e, l, h in zip(CURVE_AGES, est, lo, hi):
                    curves.append([tag.value, name, sex, age, float(e), float(l), float(h)])

        histograms = []
        n_per_draw = max(1, 50000 // n_draws)
        edges = np.arange(0.0, 101.0)
        for sex in (0, 1):
            for age in HISTOGRAM_AGES:
                samples = posterior_predictive(
                    fit, draws, float(age), sex, n_per_draw, seed=_child_seed(*seed_parts, 4, sex, age)
                )
                density, _ = np.histogram(samples, bins=edges, density=True)
                for left, d in zip(edges[:-1], density):
                    histograms.append([tag.value, sex, age, int(left), float(d)])
        return {"curves": curves, "histograms": histograms}

    (scores,) = _score([problem], [seed_parts], n_draws, elpd_method, qq_samples, [groups], curves_and_histograms)
    # a failed fit leaves no curves and no histograms
    return [{"tag": tag, "curves": [], "histograms": [], **scores}]


def _write_model_reports(out_dir: Path, results, all_ok):
    header = ["rank", "model", "elpd", "elpd_diff", "se_of_diff", "qq_rmse", "elpd_se", "converged"]
    comparison = _write_table(
        out_dir,
        "model_comparison",
        header,
        [[d[k] for k in header] for d in _ranked(results, lambda r: ModelSpec(r["tag"]).display_name)],
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
    report = {
        "manifest": "manifest.json",
        "models": {r["tag"].value: {k: r[k] for k in REPORT_KEYS} for r in results},
        "all_converged": all_ok,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(_json(report, indent=2) + "\n")
    return [*comparison, curves_path, hist_path, report_path], f"{len(results)} specifications"


@main.command("compare-models")
@_compare_options("Predictive samples per group.")
def compare_models(**options):
    """Fit the five regression specifications (sinh-arcsinh, log-ratio)."""
    _compare("compare-models", _model_tasks, _fit_model_spec, _write_model_reports, **options)


if __name__ == "__main__":
    main()
