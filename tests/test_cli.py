import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import agemix.cli
import agemix.evaluation
import agemix.inference
from agemix.cli import main
from agemix.data_io import default_config, load_csv, save_csv, simulate, stratify
from agemix.design import ModelSpec, ModelTag
from agemix.distributions import Family
from agemix.inference import (FitError, FitProblem, fit_map, fit_map_batch, laplace_draws, laplace_draws_batch,
                              predictive_batch, predictive_for_records)
from agemix.transforms import Transform, TransformKind
from conftest import assert_same_records


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Small heaped data set covering all 12 subsets."""
    path = tmp_path_factory.mktemp("data") / "records.csv"
    weights = [1.0 if 20 <= a <= 49 else 0.0 for a in range(15, 65)]
    cfg = dataclasses.replace(default_config(n=1200, seed=99), heaping=0.3, age_weights=weights)
    save_csv(simulate(cfg), path)
    return path


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulateCommand:
    def test_row_count(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--out", str(out), "--n", "50", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 51

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(main, ["simulate", "--out", str(out), "--n", "200", "--seed", "5"])
            assert result.exit_code == 0, result.output
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_fails_without_output(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert result.exit_code != 0
        assert not out.exists()

    def test_custom_config(self, runner, tmp_path):
        cfg = default_config(n=30, seed=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(load_csv(out)) == 30
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(out) in manifest["outputs"]

    def test_manifest_counts_clipped_partner_ages(self, runner, tmp_path):
        cfg = default_config(n=2000, seed=5)
        cfg = dataclasses.replace(cfg, coefficients={**cfg.coefficients, "epsilon": [-0.8, -0.5, -0.004, 0.002],
                                                     "delta": [-0.5, 0.05, 0.004, 0.0]})
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "sim.csv"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        with pytest.warns(RuntimeWarning, match="partner ages into") as caught:
            result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
            records, n_clipped = simulate(cfg, return_clipped=True)
        assert result.exit_code == 0, result.output
        assert n_clipped > 0 and len(caught) == 2
        assert json.loads((tmp_path / "manifest.json").read_text())["n_clipped"] == n_clipped
        save_csv(records, tmp_path / "library.csv")
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()
        result = runner.invoke(main, ["simulate", "--n", "200", "--seed", "5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "manifest.json").read_text())["n_clipped"] == 0

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_sample_size_below_one_is_a_usage_error(self, runner, tmp_path, n):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(default_config(n=30, seed=2).to_dict()))
        out = tmp_path / "sim.csv"
        for config in ([], ["--config", str(cfg_path)]):
            result = runner.invoke(main, ["simulate", *config, "--out", str(out), "--n", n])
            assert result.exit_code == 2, result.output
            assert "Invalid value for '--n'" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda config: {**config, "n": 0}, "n must be"),
        (lambda config: {**config, "heaping": 3.0}, "heaping must be"),
        (lambda config: {"n": 10, "seed": 1}, "the generator config lacks the key 'transform'"),
        (lambda config: [config], "a generator config must be a JSON object"),
        (lambda config: {**config, "transform": "log_ratio"}, "a generator config field has the wrong type"),
        (lambda config: {**config, "n": None}, "a generator config field has the wrong type"),
        (lambda config: {**config, "seed": -1}, "seed must be >= 0"),
        (lambda config: {**config, "sex_ratio": 3.0}, "sex_ratio must be in [0, 1]"),
        (lambda config: {**config, "age_weights": [1.0] * 10}, "age_weights must be 50"),
        (lambda config: {**config, "age_weights": [1.0] * 49 + [-1.0]}, "age_weights must be 50"),
        (lambda config: {**config, "age_weights": [0.0] * 50}, "age_weights must be 50"),
    ], ids=["n-0", "heaping-3.0", "missing-transform", "json-list", "transform-string", "n-null", "seed-negative",
            "sex_ratio-3.0", "age_weights-ten", "age_weights-negative", "age_weights-zeros"])
    def test_invalid_config_file_value_is_a_usage_error(self, runner, tmp_path, edit, message):
        # as --n 0 is: exit status 2, naming the problem, no traceback and no output
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(edit(default_config(n=30, seed=2).to_dict())))
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--config'" in result.output and message in result.output
        assert result.exc_info[0] is SystemExit and not out.exists()

    def test_overrides_apply_to_a_config_file(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(default_config(n=30, seed=2).to_dict()))
        out = tmp_path / "sim.csv"
        result = runner.invoke(main, ["simulate", "--config", str(cfg_path), "--out", str(out), "--n", "7", "--seed", "4"])
        assert result.exit_code == 0, result.output
        assert_same_records(load_csv(out), simulate(default_config(n=7, seed=4)))


class TestMomentsCommand:
    def test_twelve_rows(self, runner, data_csv, tmp_path):
        result = runner.invoke(main, ["moments", str(data_csv), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "moments.csv")
        assert len(rows) == 12
        assert set(rows[0]) == {"sex", "age_bin", "n", "mean", "sd", "skewness", "kurtosis"}

    def test_constant_subset_gets_na_markers(self, runner, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text(
            "respondent_age,respondent_sex,partner_age\n" + "".join("30,1,35\n" for _ in range(10))
        )
        result = runner.invoke(main, ["moments", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "moments.csv")
        assert rows[0]["sd"] == "0.0"
        assert rows[0]["skewness"] == "NA" and rows[0]["kurtosis"] == "NA"

    def test_manifest_records_peak_rss(self, runner, data_csv, tmp_path):
        result = runner.invoke(main, ["moments", str(data_csv), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rss = json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"]
        assert rss["process"] > 0
        assert rss["children"] >= 0


class TestDeheapCommand:
    def test_reduces_heaping_and_writes_manifest(self, runner, data_csv, tmp_path):
        result = runner.invoke(
            main, ["deheap", str(data_csv), "--out", str(tmp_path), "--seed", "3"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "heap_report.json").read_text())
        assert report["heaping_index_after"] < report["heaping_index_before"]
        assert (tmp_path / "manifest.json").exists()
        assert len(load_csv(tmp_path / "deheaped.csv")) == len(load_csv(data_csv))

    def test_report_fields_in_order(self, runner, data_csv, tmp_path):
        # the report is its dataclasses' fields in order, so a renamed field would show here
        result = runner.invoke(main, ["deheap", str(data_csv), "--out", str(tmp_path), "--seed", "3"])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "heap_report.json").read_text())
        assert list(report) == ["manifest", "bandwidth", "seed", "n_records", "heaping_index_before",
                                "heaping_index_after", "n_moved", "groups"]
        group = next(g for g in report["groups"] if g["moved"])
        assert list(group) == ["sex", "respondent_age", "n_records", "skipped", "expected", "excess", "shares", "moved"]
        p_star, moves = next(iter(group["moved"].items()))
        assert p_star.isdigit() and all(p.isdigit() and isinstance(c, int) for p, c in moves.items())

    def test_unheaped_input_unchanged(self, runner, tmp_path):
        path = tmp_path / "u.csv"
        cfg = default_config(n=800, seed=12)
        records = simulate(cfg)
        save_csv(records, path)
        result = runner.invoke(main, ["deheap", str(path), "--out", str(tmp_path / "out"), "--seed", "1"])
        assert result.exit_code == 0, result.output
        out_records = load_csv(tmp_path / "out" / "deheaped.csv")
        moved = int(np.count_nonzero(records.partner_age != out_records.partner_age))
        assert moved <= 0.02 * len(records)

    def test_byte_identical_reruns(self, runner, data_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main, ["deheap", str(data_csv), "--out", str(out), "--seed", "7"]
            )
            assert result.exit_code == 0, result.output
            outs.append((out / "deheaped.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("bandwidth", ["0", "-1", "nan", "inf", "-inf"])
    def test_bandwidth_must_be_positive_and_finite(self, runner, data_csv, tmp_path, bandwidth):
        out = tmp_path / "out"
        result = runner.invoke(main, ["deheap", str(data_csv), "--out", str(out), f"--bandwidth={bandwidth}"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--bandwidth'" in result.output
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "deheap", "compare-distributions", "compare-models"])
def test_negative_seed_is_a_usage_error(runner, data_csv, tmp_path, command):
    # numpy seeds only non-negative integers; a negative one stops before any work
    data = [] if command == "simulate" else [str(data_csv)]
    out = tmp_path / ("sim.csv" if command == "simulate" else "out")
    result = runner.invoke(main, [command, *data, "--out", str(out), "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--seed'" in result.output and result.exc_info[0] is SystemExit
    assert not out.exists()


class TestBadInput:
    """A malformed data file stops each command that reads one with a one-line
    error and exit status 1, not a traceback."""

    HEADER = "respondent_age,respondent_sex,partner_age\n"

    @pytest.mark.parametrize("command", ["moments", "deheap", "compare-distributions", "compare-models"])
    def test_malformed_csv(self, runner, tmp_path, command):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "30,x,31\n")
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {path}: 1 malformed row(s): line 2: could not convert string to float: 'x'"
        ]

    @pytest.mark.parametrize("command", ["moments", "deheap", "compare-distributions", "compare-models"])
    def test_header_only_csv(self, runner, tmp_path, command):
        path = tmp_path / "header-only.csv"
        path.write_text(self.HEADER)
        result = runner.invoke(main, [command, str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {path}: no records"]
        assert not (tmp_path / "out").exists()

    def test_fractional_age_stops_deheap(self, runner, tmp_path):
        # deheaping works on whole ages; a fractional one is a data error
        path = tmp_path / "frac.csv"
        path.write_text(self.HEADER + "31,0,33\n30.5,1,41\n")
        result = runner.invoke(main, ["deheap", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"Error: {path}: deheaping operates on integer age grids; record 1 has respondent_age=30.5"
        ]
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def cd_outcome(runner, data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cd")
    result = runner.invoke(
        main,
        ["compare-distributions", str(data_csv), "--out", str(out), "--seed", "2",
         "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
    )
    return result, out


@pytest.fixture(scope="module")
def cm_outcome(runner, data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cm")
    result = runner.invoke(
        main,
        ["compare-models", str(data_csv), "--out", str(out), "--seed", "2",
         "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
    )
    return result, out


class TestCompareDistributions:
    def test_exit_and_shapes(self, cd_outcome):
        result, out = cd_outcome
        assert result.exit_code == 0, result.output
        rankings = read_rows(out / "subset_rankings.csv")
        assert len(rankings) == 12 * 5
        combos = read_rows(out / "combos.csv")
        assert len(combos) == 12 * 14
        shares = read_rows(out / "transform_shares.csv")
        assert [r["variable"] for r in shares] == ["Linear age", "Age difference", "Log-age", "Log-ratio"]

    def test_rank_one_has_zero_diff(self, cd_outcome):
        _, out = cd_outcome
        for row in read_rows(out / "subset_rankings.csv"):
            if row["rank"] == "1":
                assert float(row["elpd_diff"]) == 0.0
                assert float(row["se_of_diff"]) == 0.0

    def test_share_columns_sum_to_100(self, cd_outcome):
        _, out = cd_outcome
        shares = read_rows(out / "transform_shares.csv")
        for family in ("normal", "skew_normal", "sinh_arcsinh"):
            assert sum(float(r[family]) for r in shares) == pytest.approx(100.0)

    def test_share_flag_columns_count_flagged_winning_cells(self, cd_outcome):
        _, out = cd_outcome
        shares = read_rows(out / "transform_shares.csv")
        rankings = read_rows(out / "subset_rankings.csv")
        total = 0
        for family, label in (("normal", "Normal"), ("skew_normal", "Skew normal"), ("sinh_arcsinh", "Sinh-arcsinh")):
            for share in shares:
                flagged = sum(
                    r["distribution"] == label and r["best_variable"] == share["variable"] and int(r["n_flagged"]) > 0
                    for r in rankings
                )
                assert share[f"{family}_flagged"] == str(flagged)
                total += flagged
        assert total > 0

    def test_manifest_lists_outputs(self, cd_outcome):
        _, out = cd_outcome
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "compare-distributions"
        assert len(manifest["outputs"]) == 5
        for path in manifest["outputs"]:
            assert Path(path).exists()

    def test_rankings_json_mirrors_csv(self, cd_outcome):
        _, out = cd_outcome
        rows = read_rows(out / "subset_rankings.csv")
        blob = json.loads((out / "subset_rankings.json").read_text())
        assert len(blob) == len(rows)
        assert blob[0]["rank"] == 1 and blob[0]["elpd_diff"] == 0.0

    def test_rankings_carry_the_flagged_count_of_their_cell(self, cd_outcome):
        _, out = cd_outcome
        combos = {
            (r["sex"], r["age_bin"], r["distribution"], r["variable"]): r for r in read_rows(out / "combos.csv")
        }
        rows = read_rows(out / "subset_rankings.csv")
        for row in rows:
            cell = combos[row["sex"], row["age_bin"], row["distribution"], row["best_variable"]]
            assert row["n_flagged"] == cell["n_flagged"]
        blob = json.loads((out / "subset_rankings.json").read_text())
        assert [r["n_flagged"] for r in blob] == [int(r["n_flagged"]) for r in rows]
        report = json.loads((out / "report.json").read_text())
        assert report["n_flagged_ranking_rows"] == sum(int(r["n_flagged"]) > 0 for r in rows)
        assert 0 < report["n_flagged_ranking_rows"] < len(rows)

    def test_combos_carry_max_khat(self, cd_outcome):
        _, out = cd_outcome
        for row in read_rows(out / "combos.csv"):
            max_khat = float(row["max_khat"])
            assert (max_khat > 0.7) == (int(row["n_flagged"]) > 0)


@pytest.fixture(scope="module")
def one_subset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("one") / "one.csv"
    weights = [1.0 if 25 <= a <= 29 else 0.0 for a in range(15, 65)]
    cfg = dataclasses.replace(default_config(n=140, seed=17), age_weights=weights, sex_ratio=1.0)
    save_csv(simulate(cfg), path)
    return path


class TestElpdAndJobsFlags:
    def test_kfold_elpd_flag(self, runner, one_subset_csv, tmp_path, monkeypatch):
        # every fold fit draws --draws samples, not elpd_batch's default
        real = agemix.evaluation.laplace_draws_batch
        counts = []

        def laplace_draws_batch(fits, n_draws, seeds):
            counts.extend([n_draws] * len(fits))
            return real(fits, n_draws, seeds)

        monkeypatch.setattr(agemix.evaluation, "laplace_draws_batch", laplace_draws_batch)
        result = runner.invoke(
            main,
            ["compare-distributions", str(one_subset_csv), "--out", str(tmp_path),
             "--seed", "3", "--jobs", "1", "--elpd", "kfold", "--draws", "150",
             "--qq-samples", "800"],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "subset_rankings.csv")
        assert len(rows) == 5
        assert counts == [150] * (14 * 10)  # 14 fits of the one subset, 10 folds each

    def test_parallel_jobs_match_serial_bytes(self, runner, data_csv, tmp_path):
        blobs = []
        for jobs, name in (("1", "serial"), ("2", "parallel")):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["compare-distributions", str(data_csv), "--out", str(out),
                 "--seed", "2", "--jobs", jobs, "--draws", "150", "--qq-samples", "1500"],
            )
            assert result.exit_code == 0, result.output
            reports = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".json") and p.name != "manifest.json")
            blobs.append({p.name: p.read_bytes() for p in reports})
        assert sorted(blobs[0]) == ["combos.csv", "report.json", "subset_rankings.csv", "subset_rankings.json",
                                    "transform_shares.csv"]
        assert blobs[0] == blobs[1]


class TestOptionBounds:
    """Out-of-range counts are usage errors (exit 2) raised before the data loads."""

    class Loaded(Exception):
        pass

    @pytest.fixture
    def run(self, runner, data_csv, tmp_path, monkeypatch):
        def load_csv(path):
            raise self.Loaded

        monkeypatch.setattr(agemix.cli, "load_csv", load_csv)
        out = tmp_path / "out"

        def run(command, *args):
            return runner.invoke(main, [command, str(data_csv), "--out", str(out), *args]), out

        return run

    @pytest.mark.parametrize(
        "below, at",
        [
            (["--draws", "99"], ["--draws", "100"]),
            (["--elpd", "kfold", "--draws", "0"], ["--elpd", "kfold", "--draws", "1"]),
            (["--qq-samples", "0"], ["--qq-samples", "1"]),
            (["--jobs", "0"], ["--jobs", "1"]),
        ],
        ids=["psis-draws", "kfold-draws", "qq-samples", "jobs"],
    )
    @pytest.mark.parametrize("command", ["compare-distributions", "compare-models"])
    def test_bound(self, run, command, below, at):
        result, out = run(command, *below)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{below[-2]}'" in result.output
        assert not out.exists()
        result, _ = run(command, *at)
        assert isinstance(result.exception, self.Loaded)

    def test_negative_jobs(self, run):
        result, out = run("compare-models", "--jobs", "-1")
        assert result.exit_code == 2, result.output
        assert not out.exists()


class TestCompareModels:
    def test_exit_and_rows(self, cm_outcome):
        result, out = cm_outcome
        assert result.exit_code == 0, result.output
        rows = read_rows(out / "model_comparison.csv")
        assert len(rows) == 5
        assert {r["model"] for r in rows} == {
            "Conventional",
            "Distributional 1",
            "Distributional 2",
            "Distributional 3",
            "Distributional 4",
        }

    def test_report_carries_fit_diagnostics(self, cm_outcome):
        _, out = cm_outcome
        models = json.loads((out / "report.json").read_text())["models"]
        for entry in models.values():
            assert entry["converged"] is True
            assert isinstance(entry["iterations"], int) and entry["iterations"] >= 1
            assert entry["gradient_norm"] < 1e-6
            assert entry["min_curvature_eigenvalue"] > 0

    def test_report_carries_max_khat(self, cm_outcome):
        _, out = cm_outcome
        models = json.loads((out / "report.json").read_text())["models"]
        for entry in models.values():
            assert isinstance(entry["max_khat"], float) and 0.0 < entry["max_khat"] < math.inf
            assert isinstance(entry["n_flagged"], int)
            assert (entry["max_khat"] > 0.7) == (entry["n_flagged"] > 0)

    def test_parameter_curve_grid(self, cm_outcome):
        _, out = cm_outcome
        rows = read_rows(out / "parameter_curves.csv")
        assert len(rows) == 5 * 4 * 2 * 50

    def test_conventional_higher_order_curves_flat(self, cm_outcome):
        _, out = cm_outcome
        rows = [
            r
            for r in read_rows(out / "parameter_curves.csv")
            if r["model"] == "conventional" and r["parameter"] in ("epsilon", "delta")
        ]
        by_group = {}
        for r in rows:
            by_group.setdefault((r["parameter"], r["sex"]), set()).add(r["estimate"])
        for values in by_group.values():
            assert len(values) == 1

    def test_histogram_output(self, cm_outcome):
        _, out = cm_outcome
        rows = read_rows(out / "predictive_histograms.csv")
        assert len(rows) == 5 * 2 * 3 * 100

    def test_records_are_stratified_once(self, runner, data_csv, tmp_path, monkeypatch):
        # the five specifications share one set of QQ groups
        sizes = []

        def counting(records):
            sizes.append(len(records))
            return stratify(records)

        monkeypatch.setattr(agemix.cli, "stratify", counting)
        result = runner.invoke(main, ["compare-models", str(data_csv), "--out", str(tmp_path), "--seed", "2",
                                      "--jobs", "1", "--draws", "100", "--qq-samples", "500"])
        assert result.exit_code == 0, result.output
        assert sizes == [1200]


def _fail_fit_map(monkeypatch, should_fail):
    """Make the CLI's fits raise for the problems ``should_fail`` picks: the
    whole batch that holds one (``agemix.inference.fit_map_batch``, which the
    CLI looks up at each call; compare-models fits batches of one)."""
    real_batch = agemix.inference.fit_map_batch

    def fit_map_batch(problems, *args, **kwargs):
        if any(map(should_fail, problems)):
            raise FitError("injected failure")
        return real_batch(problems, *args, **kwargs)

    monkeypatch.setattr(agemix.inference, "fit_map_batch", fit_map_batch)


class TestFailureMarkers:
    """One failed fit leaves marker rows, is left out of rankings and sets exit 1."""

    def test_compare_distributions_marks_failed_family(self, runner, data_csv, tmp_path, monkeypatch):
        _fail_fit_map(monkeypatch, lambda problem: problem.family is Family.SKEW_NORMAL)
        result = runner.invoke(
            main,
            ["compare-distributions", str(data_csv), "--out", str(tmp_path), "--seed", "2",
             "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
        )
        assert result.exit_code == 1, result.output
        combos = read_rows(tmp_path / "combos.csv")
        assert len(combos) == 12 * 14
        failed = [r for r in combos if r["distribution"] == "Skew normal"]
        assert len(failed) == 12 * 4
        for row in failed:
            assert row["error"] == "FitError: injected failure"
            assert row["elpd"] == row["elpd_se"] == row["qq_rmse"] == "NA"
            assert row["converged"] == "false" and row["n_flagged"] == "0"
        assert all(r["error"] == "NA" for r in combos if r["distribution"] != "Skew normal")

        rankings = read_rows(tmp_path / "subset_rankings.csv")
        assert len(rankings) == 12 * 4
        assert "Skew normal" not in {r["distribution"] for r in rankings}
        assert sorted(r["rank"] for r in rankings) == sorted(["1", "2", "3", "4"] * 12)
        shares = read_rows(tmp_path / "transform_shares.csv")
        assert all(float(r["skew_normal"]) == 0.0 for r in shares)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_converged"] is False
        assert report["failures"] == ["FitError: injected failure"] * (12 * 4)

    def test_compare_models_marks_failed_specification(self, runner, data_csv, tmp_path, monkeypatch):
        _fail_fit_map(monkeypatch, lambda problem: problem.spec.tag is ModelTag.DISTRIBUTIONAL_2)
        result = runner.invoke(
            main,
            ["compare-models", str(data_csv), "--out", str(tmp_path), "--seed", "2",
             "--jobs", "1", "--draws", "150", "--qq-samples", "1500"],
        )
        assert result.exit_code == 1, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_converged"] is False
        failed = report["models"]["distributional_2"]
        assert failed["error"] == "FitError: injected failure"
        assert failed["converged"] is False and failed["elpd"] is None and failed["n_flagged"] == 0
        assert all(m["error"] is None for tag, m in report["models"].items() if tag != "distributional_2")

        comparison = read_rows(tmp_path / "model_comparison.csv")
        assert len(comparison) == 4
        assert "Distributional 2" not in {r["model"] for r in comparison}
        curves = read_rows(tmp_path / "parameter_curves.csv")
        assert len(curves) == 4 * 400
        assert "distributional_2" not in {r["model"] for r in curves}
        assert len(read_rows(tmp_path / "predictive_histograms.csv")) == 4 * 600

    def test_failed_fit_report_is_strict_json(self, runner, data_csv, tmp_path, monkeypatch):
        # a failed fit's NaN scores are written as null, never as a bare NaN
        _fail_fit_map(monkeypatch, lambda problem: problem.spec.tag is ModelTag.DISTRIBUTIONAL_2)
        result = runner.invoke(
            main,
            ["compare-models", str(data_csv), "--out", str(tmp_path), "--seed", "2",
             "--jobs", "1", "--draws", "100", "--qq-samples", "500"],
        )
        assert result.exit_code == 1, result.output

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for path in sorted(tmp_path.glob("*.json")):
            json.loads(path.read_text(), parse_constant=reject)
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        failed = report["models"]["distributional_2"]
        for key in ("elpd", "qq_rmse", "nlp", "gradient_norm", "min_curvature_eigenvalue"):
            assert failed[key] is None, key


def _infinite_khat(monkeypatch, should_mark):
    """Make ``agemix.evaluation.elpd_batch``, as the CLI calls it, report record 0
    as unassessable (k-hat = inf) for the problems ``should_mark`` picks."""
    real = agemix.evaluation.elpd_batch

    def elpd_batch(*args, **kwargs):
        results = real(*args, **kwargs)
        for problem, res in zip(kwargs["problems"], results):
            if should_mark(problem):
                res.khat[0] = math.inf
                res.flagged = tuple(sorted({0, *res.flagged}))
        return results

    monkeypatch.setattr(agemix.evaluation, "elpd_batch", elpd_batch)


class TestInfiniteKhat:
    """An infinite max k-hat reads inf in CSV and null in JSON."""

    def test_compare_distributions(self, runner, one_subset_csv, tmp_path, monkeypatch):
        _infinite_khat(monkeypatch, lambda problem: problem.family is Family.GAMMA)
        result = runner.invoke(
            main,
            ["compare-distributions", str(one_subset_csv), "--out", str(tmp_path), "--seed", "3",
             "--jobs", "1", "--draws", "100", "--qq-samples", "500"],
        )
        assert result.exit_code == 0, result.output
        for row in read_rows(tmp_path / "combos.csv"):
            assert (row["max_khat"] == "inf") == (row["distribution"] == "Gamma")
        gamma = [r for r in read_rows(tmp_path / "subset_rankings.csv") if r["distribution"] == "Gamma"]
        assert int(gamma[0]["n_flagged"]) >= 1

    def test_compare_models(self, runner, data_csv, tmp_path, monkeypatch):
        _infinite_khat(monkeypatch, lambda problem: problem.spec.tag is ModelTag.DISTRIBUTIONAL_2)
        result = runner.invoke(
            main,
            ["compare-models", str(data_csv), "--out", str(tmp_path), "--seed", "2",
             "--jobs", "1", "--draws", "100", "--qq-samples", "500"],
        )
        assert result.exit_code == 0, result.output
        models = json.loads((tmp_path / "report.json").read_text())["models"]
        for tag, entry in models.items():
            assert (entry["max_khat"] is None) == (tag == "distributional_2")


class TestBatchScoring:
    """Scoring a combination's 12 subset cells as one batch gives every cell,
    bit for bit, what scoring it as a batch of one gives: draws, pointwise
    ELPD, k-hat, flagged records, predictive samples and QQ RMSE; a cell that
    fails keeps its own failure marker and leaves its neighbours as they are."""

    @pytest.fixture(scope="class")
    def cells(self):
        subsets = stratify(simulate(default_config(n=500, seed=3)))
        spec = ModelSpec(ModelTag.INTERCEPT_ONLY)
        problems = [FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_RATIO), spec, r) for r in subsets.values()]
        parts = [(1, key.sex, key.bin_start) for key in subsets]
        return list(subsets), problems, parts, [[("subset", p.records, ())] for p in problems]

    @staticmethod
    def score(cells, method, n_draws, qq_samples, only=None):
        """(rows, k-hat warning texts) of the cells ``only`` picks (all by default) as one batch."""
        _, problems, parts, groups = cells
        pick = range(len(problems)) if only is None else only
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = agemix.cli._score([problems[i] for i in pick], [parts[i] for i in pick], n_draws, method,
                                     qq_samples, [groups[i] for i in pick])
        return rows, [str(w.message) for w in caught if "k-hat" in str(w.message)]

    @staticmethod
    def assert_same_row(batched, single):
        for key in ("ok", "converged", "n_flagged", "n_inf_predictive", "error", "iterations"):
            assert batched[key] == single[key], key
        for key in ("elpd", "elpd_se", "max_khat", "qq_rmse", "nlp", "gradient_norm"):
            np.testing.assert_array_equal(batched[key], single[key], err_msg=key)
        if batched["ok"]:
            b, s = batched["elpd_result"], single["elpd_result"]
            np.testing.assert_array_equal(b.pointwise, s.pointwise)
            assert (b.khat is None) == (s.khat is None) and b.flagged == s.flagged
            if b.khat is not None:
                np.testing.assert_array_equal(b.khat, s.khat)

    def assert_cells_alone(self, cells, method, n_draws, qq_samples, rows, messages):
        singles = [self.score(cells, method, n_draws, qq_samples, [i]) for i in range(len(rows))]
        for row, (single, _) in zip(rows, singles):
            self.assert_same_row(row, single[0])
        # one k-hat warning per flagged cell, in cell order
        assert messages == [m for _, texts in singles for m in texts]

    def test_psis(self, cells):
        rows, messages = self.score(cells, "psis", 1000, 2000)
        assert all(r["ok"] for r in rows) and sum(r["n_flagged"] > 0 for r in rows) == len(messages) > 0
        self.assert_cells_alone(cells, "psis", 1000, 2000, rows, messages)

    def test_kfold(self, cells):
        rows, messages = self.score(cells, "kfold", 200, 500)
        assert all(r["ok"] for r in rows) and messages == []
        self.assert_cells_alone(cells, "kfold", 200, 500, rows, messages)

    def test_draws_and_predictive_samples(self, cells):
        _, problems, parts, _ = cells
        fits = fit_map_batch(problems)
        seeds = [agemix.cli._child_seed(*p, 1) for p in parts]
        draws = laplace_draws_batch(fits, 1000, seeds)
        samples = predictive_batch(fits, draws, [[(p.records, 2000, s + 1)] for p, s in zip(problems, seeds)])
        for fit, problem, seed, d, (sample,) in zip(fits, problems, seeds, draws, samples):
            np.testing.assert_array_equal(d, laplace_draws(fit, 1000, seed))
            np.testing.assert_array_equal(sample, predictive_for_records(fit, d, problem.records, 2000, seed + 1))

    @pytest.mark.parametrize("method", ["psis", "kfold"])
    def test_failed_cell_keeps_its_marker(self, cells, method, monkeypatch):
        keys, *_ = cells
        n_draws, qq_samples = (1000, 2000) if method == "psis" else (200, 500)
        want, _ = self.score(cells, method, n_draws, qq_samples)
        # cell 3's fit (PSIS) or its fold fits (k-fold) do not converge: every
        # record of a fold fit lies in the cell's (sex, age bin)
        key = keys[3]
        module = agemix.inference if method == "psis" else agemix.evaluation
        real = module.fit_map_batch

        def fit_map_batch(problems):
            def in_cell(r):
                return r.respondent_sex[0] == key.sex and key.bin_start <= r.respondent_age[0] < key.bin_start + 5
            fits = real(problems)
            return [dataclasses.replace(f, converged=False) if in_cell(p.records) else f for p, f in zip(problems, fits)]

        monkeypatch.setattr(module, "fit_map_batch", fit_map_batch)
        rows, _ = self.score(cells, method, n_draws, qq_samples)
        assert rows[3]["error"] == "FitError: cannot draw from a non-converged fit" and not rows[3]["ok"]
        assert math.isnan(rows[3]["elpd"]) and rows[3]["n_flagged"] == 0
        for i, (row, single) in enumerate(zip(rows, want)):
            if i != 3:
                self.assert_same_row(row, single)


class TestInfinitePredictive:
    """Predictive partner ages that overflow the inverse transform are counted
    per fit, not reported as RuntimeWarnings."""

    @pytest.fixture(scope="class")
    def cell(self):
        # a 28-record cell whose sinh-arcsinh log-age fit has heavy enough tails
        # that some predictive draws overflow exp
        records = stratify(simulate(default_config(n=500, seed=3)))
        key = next(k for k in records if k.sex == 0 and k.bin_start == 20)
        problem = FitProblem(Family.SINH_ARCSINH, Transform(TransformKind.LOG_AGE), ModelSpec(ModelTag.INTERCEPT_ONLY),
                             records[key])
        return problem, fit_map(problem)

    def test_score_counts_infinite_samples(self, cell):
        problem, fit = cell
        parts = (7, 0, 20)
        # _score fits the batch itself: the batch of one is fit_map's fit
        (scores,) = agemix.cli._score([problem], [parts], 1000, "psis", 10000, [[("subset", problem.records, ())]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = laplace_draws(fit, 1000, seed=agemix.cli._child_seed(*parts, 1))
            predictive = predictive_for_records(
                fit, draws, problem.records, 10000, seed=agemix.cli._child_seed(*parts, 3)
            )
        assert scores["n_inf_predictive"] == np.isinf(predictive).sum() > 0

    def test_reports_carry_the_count(self, cd_outcome, cm_outcome):
        for row in read_rows(cd_outcome[1] / "combos.csv"):
            assert int(row["n_inf_predictive"]) >= 0
        for entry in json.loads((cm_outcome[1] / "report.json").read_text())["models"].values():
            assert isinstance(entry["n_inf_predictive"], int)


# Runs the CLI with the arguments it is given (or only imports the package
# when there are none) and prints the scipy and agemix modules loaded by then.
_MODULE_PROBE = """
import json, sys
try:
    import agemix, agemix.cli
    if sys.argv[1:]:
        agemix.cli.main(sys.argv[1:], prog_name="agemix")
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "agemix"))))
"""


def _modules_after(args, cwd) -> list[str]:
    """scipy and agemix modules a fresh process has loaded after running ``args``."""
    src = str(Path(agemix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartupImports:
    """Every command loads no scipy: the special functions of the densities,
    derivatives and samplers are numpy ports of Cephes, and the Newton solves
    and Laplace draws use numpy.linalg. The records commands, and importing
    the package, load no fitting module either.

    Each case runs in a fresh process: this one imported them long ago.
    """

    _FIT = ["--out", "out", "--jobs", "1", "--draws", "100", "--qq-samples", "500"]

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--version"],
            ["moments", "{data}", "--out", "out"],
            ["deheap", "{data}", "--out", "out"],
            ["simulate", "--n", "200", "--out", "sim.csv", "--seed", "1"],
            ["compare-models", "{data}", *_FIT],
            # all five families, with exact k-fold refits as well
            ["compare-distributions", "{data}", *_FIT],
            ["compare-distributions", "{data}", *_FIT, "--elpd", "kfold"],
        ],
        ids=["import", "version", "moments", "deheap", "simulate", "compare-models", "compare-distributions",
             "compare-distributions-kfold"],
    )
    def test_no_scipy(self, args, data_csv, tmp_path):
        args = [a.format(data=data_csv) for a in args]
        assert [m for m in _modules_after(args, tmp_path) if m.split(".")[0] == "scipy"] == []

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--version"],
            ["moments", "{data}", "--out", "out"],
            ["deheap", "{data}", "--out", "out"],
            ["simulate", "--n", "200", "--out", "sim.csv", "--seed", "1"],
        ],
        ids=["import", "version", "moments", "deheap", "simulate"],
    )
    def test_records_commands_load_no_fitting_module(self, args, data_csv, tmp_path):
        args = [a.format(data=data_csv) for a in args]
        modules = _modules_after(args, tmp_path)
        assert "agemix.cli" in modules
        assert {"agemix.inference", "agemix.evaluation"}.isdisjoint(modules)
