"""agemix benchmark: three batch workloads, each run as a closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client launches each ``agemix`` command as a child process with
``--jobs 1`` only after the previous one has ended. A repetition is the
workload's full command sequence; repetitions run until the next one would end
past ``--seconds`` (at least two, so reruns can be compared byte for byte).
Every repetition's outputs are checked. Times are rescaled to a reference
machine speed (see ``REFERENCE_NOMINAL_S``). With ``--trace 1`` one more repetition
runs under ``trace.py``, which calls ``agemix.cli.main`` in-process with spans
around each layer, and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else the
run measured (machine facts, every repetition, every span) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
# one BLAS thread: the benchmark measures the pipeline, not BLAS scaling, and a
# single thread is the steadiest setting on a shared machine of any size
BLAS_THREADS = 1
# Machine-speed reference. On a shared host the same command takes 15-40%
# longer from one minute to the next, and what slows it slows any fresh Python
# process that loads numpy and scipy about as much (an in-cache loop does not
# follow it). So the benchmark times one such process (REFERENCE_ARGV: the
# third-party imports of agemix, no agemix code) before the set-up calls, after
# each of them and after each workload command, and rescales each timed command
# by REFERENCE_NOMINAL_S / (mean of the reference times just before and after
# it). Reported times are seconds at the speed where the reference takes
# REFERENCE_NOMINAL_S, about its median on the baseline machine. A change to
# agemix cannot move the reference; raw wall times stay in the detail file.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy, scipy.integrate, scipy.linalg, scipy.optimize, scipy.special"]
REFERENCE_NOMINAL_S = 0.7
SETUP_REPS = 3
MIN_REPS = 2
FAMILIES = ("normal", "skew_normal", "sinh_arcsinh", "gamma", "beta")
MODEL_TAGS = ("conventional", "distributional_1", "distributional_2", "distributional_3", "distributional_4")
KHAT_WARNING = re.compile(r"k-hat exceeds [0-9.]+ for (\d+) record")


@dataclass
class Outcome:
    """What the checks of one command found."""

    ops: int
    failed: int = 0
    elpd_terms: int = 0
    flagged_terms: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str, ops: int = 1) -> None:
        self.failed = min(self.ops, self.failed + ops)
        self.reasons.append(reason)


@dataclass
class Command:
    name: str
    args: list[str]
    out: Path
    ops: int  # operations the command attempts: fit cells, or 1
    records: int
    check: Callable[[Path, str, Outcome], None]  # (out_dir, stderr_text, outcome)


@dataclass
class Workload:
    n: int
    smoke_n: int
    heaping: float
    commands: Callable[..., list[Command]]  # (data_csv, rows, work_dir, seed, smoke)
    # records drawn from FIXED_DATA_SEED instead of the workload seed
    fixed_data: bool = False


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_compare_models(n: int):
    def check(out: Path, stderr: str, result: Outcome) -> None:
        models = json.loads((out / "report.json").read_text())["models"]
        for tag in MODEL_TAGS:
            m = models[tag]
            if m["error"] is not None or not m["converged"] or not _finite(m["elpd"]):
                result.fail(f"{tag}: not converged, failed or non-finite ELPD")
        conventional = models["conventional"]["elpd"]
        for tag in MODEL_TAGS[1:]:
            if not models[tag]["elpd"] > conventional:
                result.fail(f"{tag}: ELPD does not beat the conventional specification")
        result.elpd_terms = len(MODEL_TAGS) * n
        result.flagged_terms = sum(int(k) for k in KHAT_WARNING.findall(stderr))

    return check


def check_compare_distributions(out: Path, stderr: str, result: Outcome) -> None:
    with (out / "combos.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != result.ops:
        result.fail(f"expected {result.ops} fit cells, got {len(rows)}", ops=abs(result.ops - len(rows)))
    for r in rows:
        if r["error"] != "NA" or r["converged"] != "true" or not _finite(r["elpd"]):
            result.fail(f"{r['sex']} {r['age_bin']} {r['distribution']}/{r['variable']}: {r['error']}")
        result.elpd_terms += int(r["n"])
        result.flagged_terms += int(r["n_flagged"])


def _load_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _heaping_index(rows: np.ndarray) -> float:
    share = np.mean((rows[:, 2] - rows[:, 0]) % 5 == 0)
    return max(0.0, share - 0.2) / 0.8


def check_simulate(n: int):
    def check(out: Path, stderr: str, result: Outcome) -> None:
        rows = _load_rows(out / "sim.csv")
        if rows.shape != (n, 3) or not np.all(np.isfinite(rows)):
            result.fail(f"simulate wrote {rows.shape} values, expected ({n}, 3)")

    return check


def check_moments(rows: np.ndarray):
    in_bins = int(np.sum((rows[:, 0] >= 20) & (rows[:, 0] < 50)))

    def check(out: Path, stderr: str, result: Outcome) -> None:
        with (out / "moments.csv").open() as fh:
            table = list(csv.DictReader(fh))
        if sum(int(r["n"]) for r in table) != in_bins or not all(_finite(r["mean"]) for r in table):
            result.fail("moments table does not cover the binned records with finite means")

    return check


def check_deheap(before: np.ndarray):
    def per_group(rows: np.ndarray) -> np.ndarray:
        return np.unique(rows[:, 1] * 100 + rows[:, 0], return_counts=True)[1]

    def check(out: Path, stderr: str, result: Outcome) -> None:
        after = _load_rows(out / "deheaped.csv")
        if after.shape != before.shape or not np.array_equal(per_group(before), per_group(after)):
            result.fail("deheap did not conserve the records per (sex, age)")
        elif not _heaping_index(after) < _heaping_index(before):
            result.fail("deheap did not lower the heaping index")

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _draws(smoke: bool) -> list[str]:
    return ["--draws", "200", "--qq-samples", "500"] if smoke else ["--draws", "1000"]


def models_elpd(data: Path, rows: np.ndarray, work: Path, seed: int, smoke: bool) -> list[Command]:
    out = work / "compare-models"
    args = ["compare-models", str(data), "--out", str(out), "--seed", str(seed), "--jobs", "1", *_draws(smoke)]
    return [Command("compare-models", args, out, len(MODEL_TAGS), len(rows), check_compare_models(len(rows)))]


def subsets_fit(data: Path, rows: np.ndarray, work: Path, seed: int, smoke: bool) -> list[Command]:
    out = work / "compare-distributions"
    args = ["compare-distributions", str(data), "--out", str(out), "--seed", str(seed), "--jobs", "1",
            *_draws(smoke)]
    # 12 (sex, age bin) subsets x 14 (family, outcome) combinations
    return [Command("compare-distributions", args, out, 12 * 14, len(rows), check_compare_distributions)]


def records_io(data: Path, rows: np.ndarray, work: Path, seed: int, smoke: bool) -> list[Command]:
    n = len(rows)
    sim, mom, deh = work / "simulate", work / "moments", work / "deheap"
    return [
        Command("simulate", ["simulate", "--out", str(sim / "sim.csv"), "--n", str(n), "--seed", str(seed)],
                sim, 1, n, check_simulate(n)),
        Command("moments", ["moments", str(data), "--out", str(mom)], mom, 1, n, check_moments(rows)),
        Command("deheap", ["deheap", str(data), "--out", str(deh), "--seed", str(seed)], deh, 1, n,
                check_deheap(rows)),
    ]


# Sizes keep three to five repetitions inside a 40 s run on one core, because
# CPU speed on a shared machine moves by 10-20% between seconds and a median
# over repetitions is steadier than one. models-elpd needs n of about 3000 for
# every distributional specification to beat the conventional one on every data
# seed tried (at n = 2000 distributional 4 loses on some); both fitting
# workloads take 1000 draws instead of the default 4000.
#
# The fitting workloads fit one fixed record set and take only the CLI seed
# (Laplace draws, predictive samples) from the workload seed: the BFGS fits hit
# their iteration cap on some record sets and not on others, so fit time moves
# by up to 2x between record sets drawn from the same truth, far beyond any
# bound a comparison could use.
FIXED_DATA_SEED = 0
WORKLOADS = {
    # the ELPD and memory heavy path: five fits on all records, n x draws matrices
    "models-elpd": Workload(n=3000, smoke_n=300, heaping=0.0, commands=models_elpd, fixed_data=True),
    # the fit heavy path: 168 small per-subset MAP fits
    "subsets-fit": Workload(n=500, smoke_n=300, heaping=0.0, commands=subsets_fit, fixed_data=True),
    # the records layer alone: simulate, moments and deheap on a heaped file
    "records-io": Workload(n=300_000, smoke_n=3000, heaping=0.3, commands=records_io),
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # every k-hat warning reaches stderr, where the checks count them
    env["PYTHONWARNINGS"] = "always::RuntimeWarning"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Reference:
    """Times REFERENCE_ARGV between timed spans; see REFERENCE_NOMINAL_S."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.times: list[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(REFERENCE_ARGV, env=self.env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor for the span that just ended: nominal over the reference time around it."""
        self.sample()
        return REFERENCE_NOMINAL_S / ((self.times[-2] + self.times[-1]) / 2.0)


def launch(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS MB, exit code)."""
    with stderr_path.open("w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def output_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def run_repetition(commands: list[Command], env: dict, work: Path, hashes: dict | None, speed: Reference,
                   traced: bool = False) -> dict:
    """Run one repetition and check its outputs against the first repetition's ``hashes``.

    ``wall_s`` is raw wall time; ``norm_wall_s`` is rescaled to the reference speed.
    """
    rep = {"wall_s": 0.0, "norm_wall_s": 0.0, "peak_rss_mb": 0.0, "ops": 0, "failed": 0, "records": 0,
           "elpd_terms": 0, "flagged_terms": 0, "commands": [], "hashes": {}, "reasons": []}
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
        stderr_path = work / f"{cmd.name}.stderr"
        spans_path = work / f"{cmd.name}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace.py"), str(spans_path), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "agemix.cli", *cmd.args]
        wall, rss, code = launch(argv, env, stderr_path)
        scale = speed.scale()
        stderr = stderr_path.read_text(errors="replace")
        outcome = Outcome(ops=cmd.ops)
        try:
            cmd.check(cmd.out, stderr, outcome)
        except Exception:  # noqa: BLE001 - a broken output fails the command, not the run
            outcome.fail(f"{cmd.name}: outputs unreadable: {traceback.format_exc(limit=2)}", ops=cmd.ops)
        if code != 0:
            outcome.fail(f"{cmd.name}: exit code {code}: {stderr[-500:]}", ops=outcome.ops)
        outputs = output_hashes(cmd.out) if cmd.out.exists() else {}
        if hashes is not None and outputs != hashes.get(cmd.name):
            outcome.fail(f"{cmd.name}: rerun outputs differ from the first repetition", ops=outcome.ops)
        report_bytes = sum(p.stat().st_size for p in cmd.out.rglob("*") if p.is_file()) if cmd.out.exists() else 0
        rep["commands"].append({"name": cmd.name, "wall_s": wall, "speed_scale": scale, "peak_rss_mb": rss,
                                "exit_code": code,
                                "report_bytes": report_bytes,
                                "spans": json.loads(spans_path.read_text()) if traced and spans_path.exists() else None})
        rep["hashes"][cmd.name] = outputs
        rep["wall_s"] += wall
        rep["norm_wall_s"] += wall * scale
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["records"] += cmd.records
        for key in ("ops", "failed", "elpd_terms", "flagged_terms"):
            rep[key] += getattr(outcome, key)
        rep["reasons"] += outcome.reasons
        shutil.rmtree(cmd.out, ignore_errors=True)
    return rep


def measure_setup(env: dict, speed: Reference) -> tuple[float, list[float]]:
    """Median ``agemix --version`` time at the reference speed, and the raw wall times."""
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "agemix.cli", "--version"], env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        scaled.append(walls[-1] * speed.scale())
    return statistics.median(scaled), walls


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(reps: list[dict], setup_s: float) -> dict:
    ops = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    terms = sum(r["elpd_terms"] for r in reps)
    flagged = sum(r["flagged_terms"] for r in reps)
    med = lambda key: statistics.median(key(r) for r in reps)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(lambda r: r["norm_wall_s"]), "s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss_mb"]), "MB"),
        "ops_per_s": (med(lambda r: r["ops"] / r["norm_wall_s"]), "1/s"),
        "records_per_s": (med(lambda r: r["records"] / r["norm_wall_s"]), "1/s"),
        "ok_fraction": (1.0 - failed / ops, "fraction"),
        "elpd_reliable_fraction": (1.0 - flagged / terms if terms else 1.0, "fraction"),
    }


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced repetition."""
    sums: dict[str, float] = {}
    fits: list[tuple[str, float]] = []  # (family, self seconds) per fit_map call
    counts = {"design.calls": 0, "evaluation.loglik_bytes": 0, "evaluation.rss_growth_mb": 0.0,
              "evaluation.khat_max": 0.0, "evaluation.khat_flagged_records": 0, "evaluation.khat_flagged_cells": 0,
              "inference.iterations": 0, "inference.iter_cap_hits": 0, "inference.not_converged": 0,
              "deheap.records_moved": 0, "deheap.heaping_index_after": 0.0, "trace.spans": 0,
              "trace.hooks_missing": 0}
    grad_calls = dict.fromkeys(FAMILIES, 0)
    cli_self = startup = 0.0
    for cmd in traced["commands"]:
        blob = cmd["spans"]
        if blob is None:
            continue
        spans = blob["spans"]
        own = _self_times(spans)
        main_wall = blob["main_end"] - blob["main_start"]
        startup += cmd["wall_s"] - main_wall
        cli_self += main_wall - sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        counts["trace.spans"] += len(spans)
        counts["trace.hooks_missing"] = max(counts["trace.hooks_missing"], len(blob["missing_hooks"]))
        for family, calls in blob["grad_calls"].items():
            grad_calls[family] = grad_calls.get(family, 0) + calls
        for s, t in zip(spans, own):
            name = s["name"]
            module = name.split(".")[0]
            sums[name] = sums.get(name, 0.0) + t
            sums[module] = sums.get(module, 0.0) + t
            if name == "design.design_matrices":
                counts["design.calls"] += 1
            elif name == "inference.fit_map":
                fits.append((s["family"], t))
                counts["inference.iterations"] += s["iterations"]
                counts["inference.iter_cap_hits"] += s["iterations"] >= blob["max_iter"]
                counts["inference.not_converged"] += not s["converged"]
            elif name == "evaluation.pointwise_loglik":
                counts["evaluation.loglik_bytes"] = max(counts["evaluation.loglik_bytes"], s["loglik_bytes"])
            elif name == "evaluation.elpd_loo" and "khat_max" in s:
                counts["evaluation.khat_max"] = max(counts["evaluation.khat_max"], s["khat_max"])
                counts["evaluation.khat_flagged_records"] += s["flagged"]
                counts["evaluation.khat_flagged_cells"] += s["flagged"] > 0
            elif name == "deheap.deheap":
                counts["deheap.records_moved"] += s["moved"]
                counts["deheap.heaping_index_after"] = s["index_after"]
            if "rss_growth_kb" in s:
                counts["evaluation.rss_growth_mb"] += s["rss_growth_kb"] / 1024.0

    wall = traced["wall_s"]
    seconds = lambda *names: (sum(sums.get(n, 0.0) for n in names), "s")
    fit_times = [t for _, t in fits]
    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.covered_fraction": ((wall - cli_self - startup) / wall, "fraction"),
        "cli.startup_s": (startup, "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.report_bytes": (sum(c["report_bytes"] for c in traced["commands"]), "bytes"),
    }
    for module in ("evaluation", "inference", "design", "data_io", "deheap", "distributions"):
        metrics[f"{module}.self_s"] = seconds(module)
    metrics.update({
        "evaluation.pointwise_loglik_s": seconds("evaluation.pointwise_loglik"),
        "evaluation.elpd_loo_s": seconds("evaluation.elpd_loo"),
        "evaluation.qq_rmse_s": seconds("evaluation.qq_rmse"),
        "inference.fit_map_s": seconds("inference.fit_map"),
        "inference.fit_map_p50_s": (float(np.percentile(fit_times, 50)) if fit_times else 0.0, "s"),
        "inference.fit_map_p90_s": (float(np.percentile(fit_times, 90)) if fit_times else 0.0, "s"),
        "inference.fits": (len(fits), "count"),
        "inference.grad_calls": (sum(grad_calls.values()), "count"),
        "inference.laplace_draws_s": seconds("inference.laplace_draws"),
        "inference.predictive_s": seconds("inference.posterior_predictive", "inference.predictive_for_records"),
        "inference.draw_etas_s": seconds("inference.draw_etas"),
        "design.design_matrices_s": seconds("design.design_matrices"),
        "data_io.load_csv_s": seconds("data_io.load_csv"),
        "data_io.stratify_s": seconds("data_io.stratify"),
        "data_io.save_csv_s": seconds("data_io.save_csv"),
        "data_io.simulate_s": seconds("data_io.simulate"),
        "deheap.deheap_s": seconds("deheap.deheap"),
        "distributions.empirical_moments_s": seconds("distributions.empirical_moments"),
    })
    for family in FAMILIES:
        metrics[f"inference.grad_calls.{family}"] = (grad_calls.get(family, 0), "count")
        metrics[f"inference.fit_map_s.{family}"] = (sum(t for f, t in fits if f == family), "s")
    units = {"evaluation.loglik_bytes": "bytes", "evaluation.rss_growth_mb": "MB",
             "evaluation.khat_max": "dimensionless", "deheap.heaping_index_after": "fraction"}
    for name, value in counts.items():
        metrics[name] = (value, units.get(name, "count"))
    return metrics


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def machine_facts(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration):
        pass
    revision = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "ram_gb": None if mem_kb is None else round(mem_kb / 1024**2, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    n = workload.smoke_n if smoke else workload.n
    env = child_env(root)
    work = root / ".perfbench_out" / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "records.csv"
        rows = gen.records(n, FIXED_DATA_SEED if workload.fixed_data else seed, workload.heaping)
        gen.write_csv(data, rows)
        commands = workload.commands(data, rows, work, seed, smoke)
        speed = Reference(env)
        setup_s, setup_walls = measure_setup(env, speed)

        reps: list[dict] = []
        t0 = time.perf_counter()
        while True:
            t_rep = time.perf_counter()
            reps.append(run_repetition(commands, env, work, reps[0]["hashes"] if reps else None, speed))
            now = time.perf_counter()
            if len(reps) >= MIN_REPS and (now - t0) + (now - t_rep) > seconds:
                break
        all_reps = list(reps)
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        if trace:
            traced = run_repetition(commands, env, work, reps[0]["hashes"], speed, traced=True)
            all_reps.append(traced)
            metrics = per_layer(traced, untraced_wall)
        else:
            metrics = end_to_end(reps, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["ops"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    machine = machine_facts(root)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke, "n": n,
        "machine": machine, "setup_walls_s": setup_walls, "reference_s": speed.times, "result": result,
        "reasons": [reason for r in all_reps for reason in r["reasons"]],
        "repetitions": [{k: v for k, v in r.items() if k != "hashes"} for r in all_reps],
    }
    out = root / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    out.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print("machine: " + json.dumps(machine))
    for reason in detail["reasons"][:20]:
        print(f"check failed: {reason}")
    return result


def smoke(root: Path) -> int:
    """Run every workload once at very small n; check each named metric."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            got = run(root, name, seed=1, seconds=0, trace=trace, smoke=True)["metrics"]
            for m in listed:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {m['name']} missing or without unit {m['unit']}")
            print(f"smoke {name} trace={int(trace)}: {len(listed)} metrics checked")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; checks metric names")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "agemix" / "cli.py").is_file():
        print(f"error: {root} is not an agemix source checkout (no src/agemix/cli.py)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
