"""agemix: distributional regression for partner age distributions."""

from .data_io import GeneratorConfig, Records, SubsetKey, load_csv, save_csv, simulate, stratify
from .deheap import HeapReport, deheap, heaping_index, nw_expected
from .design import ModelSpec, ModelTag, spline_basis
from .distributions import Family, Moments, ParamVector, cdf, empirical_moments, log_pdf, quantile, sample
from .evaluation import (
    ElpdResult,
    elpd_diff,
    elpd_loo,
    pointwise_loglik,
    qq_rmse,
    rank_by_elpd,
)
from .inference import (
    FitProblem,
    FitResult,
    draw_params,
    fit_map,
    fit_map_batch,
    laplace_draws,
    neg_log_posterior_and_grad,
    posterior_predictive,
    predictive_for_records,
)
from .transforms import Transform, TransformKind

__version__ = "0.1.0"
