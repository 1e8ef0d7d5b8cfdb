"""agemix: distributional regression for partner age distributions.

Each public name loads its submodule on first access (PEP 562), so importing
the package, or running a records command, loads no fitting module.
"""

import importlib

# importing a submodule binds its name on the package, so the deheap function,
# which shares its submodule's name, is bound now and keeps that name
from .deheap import deheap

__version__ = "0.1.0"

_EXPORTS = {
    "data_io": ("GeneratorConfig", "Records", "SubsetKey", "load_csv", "save_csv", "simulate", "stratify"),
    "deheap": ("HeapReport", "deheap", "heaping_index", "nw_expected"),
    "design": ("ModelSpec", "ModelTag", "spline_basis"),
    "distributions": ("Family", "Moments", "ParamVector", "cdf", "empirical_moments", "log_pdf", "quantile", "sample"),
    "evaluation": ("ElpdResult", "elpd_diff", "elpd_loo", "pointwise_loglik", "qq_rmse", "rank_by_elpd"),
    "inference": ("FitProblem", "FitResult", "draw_params", "fit_map", "fit_map_batch", "laplace_draws",
                  "neg_log_posterior_and_grad", "posterior_predictive", "predictive_for_records"),
    "transforms": ("Transform", "TransformKind"),
}
# the submodule that defines each public name
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
