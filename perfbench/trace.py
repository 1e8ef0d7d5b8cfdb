"""Run one agemix CLI command in this process with spans around each layer.

Usage: python3 perfbench/trace.py SPANS_JSON -- <agemix arguments>

Wraps the public functions of each layer where their caller looks them up
(``agemix.cli.fit_map``, ``agemix.evaluation.design_matrices``, ...), calls
``agemix.cli.main`` with the given arguments, keeps every span in memory and
writes them to SPANS_JSON when the command ends. Gradient calls are counted,
not spanned, because a fit makes thousands of them. ``run.py`` launches this
script once per command and turns the spans into per-layer metrics.
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

# (module where the caller looks the name up, attribute, span name)
HOOKS = (
    ("agemix.cli", "load_csv", "data_io.load_csv"),
    ("agemix.cli", "stratify", "data_io.stratify"),
    ("agemix.cli", "save_csv", "data_io.save_csv"),
    ("agemix.data_io", "simulate", "data_io.simulate"),
    ("agemix.cli", "run_deheap", "deheap.deheap"),
    ("agemix.cli", "empirical_moments", "distributions.empirical_moments"),
    ("agemix.cli", "fit_map", "inference.fit_map"),
    ("agemix.cli", "laplace_draws", "inference.laplace_draws"),
    ("agemix.cli", "draw_etas", "inference.draw_etas"),
    ("agemix.inference", "draw_etas", "inference.draw_etas"),
    ("agemix.cli", "posterior_predictive", "inference.posterior_predictive"),
    ("agemix.cli", "predictive_for_records", "inference.predictive_for_records"),
    ("agemix.cli", "pointwise_loglik", "evaluation.pointwise_loglik"),
    ("agemix.cli", "elpd_loo", "evaluation.elpd_loo"),
    ("agemix.cli", "qq_rmse", "evaluation.qq_rmse"),
    ("agemix.inference", "design_matrices", "design.design_matrices"),
    ("agemix.evaluation", "design_matrices", "design.design_matrices"),
    ("agemix.data_io", "design_matrices", "design.design_matrices"),
)
GRADIENT_HOOK = ("agemix.inference", "neg_log_posterior_and_grad")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans: name, start, end, parent span index, fit-cell id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.cell: int | None = None
        self.grad_calls: dict[str, int] = {}
        self.missing: list[str] = []

    def span(self, name: str, fn):
        is_fit = name == "inference.fit_map"
        is_eval = name.startswith("evaluation.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # each top-level MAP fit opens a fit cell; later spans belong to it
            if is_fit and not any(self.spans[i]["name"] == name for i in self.stack):
                self.cell = 0 if self.cell is None else self.cell + 1
            record = {"name": name, "parent": self.stack[-1] if self.stack else None, "cell": self.cell}
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            rss0 = _maxrss_kb() if is_eval else 0
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if is_eval:
                record["rss_growth_kb"] = _maxrss_kb() - rss0
            record.update(_attributes(name, args, result))
            return result

        return wrapper

    def counter(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, beta):
            family = getattr(problem, "problem", problem).family.value
            self.grad_calls[family] = self.grad_calls.get(family, 0) + 1
            return fn(problem, beta)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, getattr(module, attr)))
        module_name, attr = GRADIENT_HOOK
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            setattr(module, attr, self.counter(getattr(module, attr)))
        else:
            self.missing.append(f"{module_name}.{attr}")


def _attributes(name: str, args, result) -> dict:
    """Counts read off a layer's arguments and result at its boundary."""
    if name == "inference.fit_map":
        return {
            "family": args[0].family.value,
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
        }
    if name == "evaluation.pointwise_loglik":
        return {"loglik_bytes": int(result.values.nbytes)}
    if name == "evaluation.elpd_loo" and result.khat is not None:
        finite = result.khat[np.isfinite(result.khat)]
        return {"khat_max": float(finite.max(initial=0.0)), "flagged": len(result.flagged)}
    if name == "deheap.deheap":
        report = result[1]
        return {"moved": int(report.n_moved), "index_after": float(report.index_after)}
    return {}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py SPANS_JSON -- <agemix arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import agemix.cli
    from agemix.inference import fit_map

    tracer = Tracer()
    tracer.install()
    max_iter = inspect.signature(fit_map).parameters["max_iter"].default
    t_main = time.perf_counter()
    try:
        agemix.cli.main.main(cli_args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t_end = time.perf_counter()
    blob = {
        "process_start": T_PROCESS,
        "main_start": t_main,
        "main_end": t_end,
        "exit_code": code,
        "max_iter": max_iter,
        "grad_calls": tracer.grad_calls,
        "missing_hooks": tracer.missing,
        "spans": tracer.spans,
    }
    with open(spans_path, "w") as fh:
        json.dump(blob, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
