"""Design matrices for the five regression specifications.

Each specification assigns one design row per distributional parameter
(location, scale, skewness, tail weight). Rows range from a bare intercept
through linear age-sex interactions up to sex-specific natural cubic splines
in respondent age. Sex is coded 1 = female.

The natural cubic spline basis is the truncated-power construction: columns
are piecewise cubic, C2-continuous, and exactly linear beyond the boundary
knots. Columns are rescaled by the boundary span so values stay O(1).

Design rows depend only on (age, sex), so ``_design_cells`` builds them once
per distinct cell. ``_unique_pairs`` finds the distinct pairs of two columns
(these cells, the CSV writer's lines, the ELPD keys): whole-valued pairs with
a small code range by counting, any others by sorting integer codes.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, replace

import numpy as np

__all__ = [
    "ModelTag",
    "ModelSpec",
    "spline_basis",
    "design_matrices",
    "slot_recipes",
    "uncenter_matrix",
    "AGE_CENTER",
]

SLOT_NAMES = ("mu", "sigma", "epsilon", "delta")

# linear-age columns are centered at this age inside the optimizer; reported
# coefficients are translated back to the uncentered scale
AGE_CENTER = 35.0


class ModelTag(str, enum.Enum):
    """Regression specifications, plus the intercept-only setting used for
    the per-subset distribution comparison fits."""

    INTERCEPT_ONLY = "intercept_only"
    CONVENTIONAL = "conventional"
    DISTRIBUTIONAL_1 = "distributional_1"
    DISTRIBUTIONAL_2 = "distributional_2"
    DISTRIBUTIONAL_3 = "distributional_3"
    DISTRIBUTIONAL_4 = "distributional_4"


_DISPLAY = {
    ModelTag.INTERCEPT_ONLY: "Intercept only",
    ModelTag.CONVENTIONAL: "Conventional",
    ModelTag.DISTRIBUTIONAL_1: "Distributional 1",
    ModelTag.DISTRIBUTIONAL_2: "Distributional 2",
    ModelTag.DISTRIBUTIONAL_3: "Distributional 3",
    ModelTag.DISTRIBUTIONAL_4: "Distributional 4",
}

# row recipes; column kinds are const / sex / age / sexage / spline / sexspline
_CONST = ("const",)
_LINEAR = ("const", "sex", "age", "sexage")
_ADDITIVE = ("const", "sex", "age")
_SPLINE = ("const", "sex", "spline", "sexspline")

_RECIPES = {
    ModelTag.INTERCEPT_ONLY: (_CONST, _CONST, _CONST, _CONST),
    ModelTag.CONVENTIONAL: (_LINEAR, _CONST, _CONST, _CONST),
    ModelTag.DISTRIBUTIONAL_1: (_LINEAR, _ADDITIVE, _ADDITIVE, _ADDITIVE),
    ModelTag.DISTRIBUTIONAL_2: (_LINEAR, _LINEAR, _LINEAR, _LINEAR),
    ModelTag.DISTRIBUTIONAL_3: (_SPLINE, _LINEAR, _LINEAR, _LINEAR),
    ModelTag.DISTRIBUTIONAL_4: (_SPLINE, _SPLINE, _SPLINE, _SPLINE),
}


@dataclass(frozen=True)
class ModelSpec:
    """A regression specification plus its spline configuration.

    ``knots`` holds the resolved interior knot positions. When ``None``, an
    ``inference.FitProblem`` places them at evenly spaced quantiles of its
    respondent ages when it is made (``with_knots_from_ages``); a design or a
    generator config without them spaces them evenly (``resolved``).
    """

    tag: ModelTag
    interior_knots: int = 5
    boundary: tuple[float, float] = (15.0, 64.0)
    knots: tuple[float, ...] | None = None

    def __post_init__(self):
        lo, hi = self.boundary
        if not lo < hi:
            raise ValueError(f"boundary must be increasing, got {self.boundary}")
        if self.knots is not None:
            _check_knots(self.knots, self.boundary)

    @property
    def display_name(self) -> str:
        return _DISPLAY[self.tag]

    @property
    def uses_splines(self) -> bool:
        return any("spline" in r for r in _RECIPES[self.tag])

    def resolved(self) -> "ModelSpec":
        """Spec with concrete knots (evenly spaced fallback)."""
        if not self.uses_splines or self.knots is not None:
            return self
        lo, hi = self.boundary
        m = self.interior_knots
        pts = tuple(lo + (hi - lo) * (i + 1) / (m + 1) for i in range(m))
        return replace(self, knots=pts)

    def with_knots_from_ages(self, ages) -> "ModelSpec":
        """Spec with interior knots at quantiles {1/(m+1), ..., m/(m+1)} of
        ``ages``; falls back to even spacing when there are no ages or the
        quantiles collide or leave the boundary interval."""
        if not self.uses_splines or self.knots is not None:
            return self
        ages = np.asarray(ages, dtype=float)
        if not ages.size:
            return self.resolved()
        m = self.interior_knots
        lo, hi = self.boundary
        qs = np.quantile(ages, [(i + 1) / (m + 1) for i in range(m)])
        ok = np.all(np.diff(qs) > 0) and qs[0] > lo and qs[-1] < hi
        if not ok:
            return self.resolved()
        return replace(self, knots=tuple(float(q) for q in qs))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            tag=ModelTag(d["tag"]),
            interior_knots=int(d.get("interior_knots", 5)),
            boundary=tuple(d.get("boundary", (15.0, 64.0))),
            knots=None if d.get("knots") is None else tuple(d["knots"]),
        )


def _check_knots(knots, boundary) -> None:
    lo, hi = boundary
    ks = np.asarray(knots, dtype=float)
    if ks.size and (np.any(np.diff(ks) <= 0) or ks[0] <= lo or ks[-1] >= hi):
        raise ValueError(
            f"interior knots must be strictly increasing and inside {boundary}, got {list(ks)}"
        )


def spline_basis(age, interior_knots, boundary) -> np.ndarray:
    """Natural cubic spline basis values (intercept excluded).

    Returns ``interior + 1`` columns: a rescaled linear term plus one
    truncated-power term per interior knot. For a scalar ``age`` the result
    is a 1-D vector; for an array it is an (n, K) matrix.
    """
    _check_knots(interior_knots, boundary)
    lo, hi = float(boundary[0]), float(boundary[1])
    scalar = np.isscalar(age) or np.ndim(age) == 0
    x = np.atleast_1d(np.asarray(age, dtype=float))
    knots = np.concatenate([[lo], np.asarray(interior_knots, dtype=float), [hi]])
    span = hi - lo

    def d(k_idx):
        return (
            np.clip(x - knots[k_idx], 0.0, None) ** 3
            - np.clip(x - knots[-1], 0.0, None) ** 3
        ) / (knots[-1] - knots[k_idx])

    cols = [(x - lo) / span]
    d_last = d(len(knots) - 2)
    for k_idx in range(len(knots) - 2):
        cols.append((d(k_idx) - d_last) / span**2)
    out = np.column_stack(cols)
    return out[0] if scalar else out


def _columns(recipe, ages: np.ndarray, sexes: np.ndarray, basis, *, center: bool) -> np.ndarray:
    n = ages.shape[0]
    a = ages - AGE_CENTER if center else ages
    cols = []
    for kind in recipe:
        if kind == "const":
            cols.append(np.ones(n))
        elif kind == "sex":
            cols.append(sexes.copy())
        elif kind == "age":
            cols.append(a)
        elif kind == "sexage":
            cols.append(sexes * a)
        elif kind == "spline":
            cols.extend(basis.T)
        elif kind == "sexspline":
            cols.extend((sexes[:, None] * basis).T)
        else:  # pragma: no cover
            raise ValueError(f"unknown column kind {kind!r}")
    return np.column_stack(cols)


def slot_recipes(spec: ModelSpec) -> dict[str, tuple[str, ...]]:
    """Column recipe per distributional-parameter slot."""
    return dict(zip(SLOT_NAMES, _RECIPES[spec.tag]))


def row_width(spec: ModelSpec, recipe) -> int:
    k = spec.interior_knots + 1
    return sum(k if "spline" in kind else 1 for kind in recipe)


def design_matrices(
    spec: ModelSpec, ages, sexes, slots=SLOT_NAMES, *, center: bool = True
) -> dict[str, np.ndarray]:
    """(n, d) design matrix per requested slot.

    ``center=True`` produces the internally used parameterization with
    linear-age columns shifted by ``AGE_CENTER``; the spec must already carry
    resolved knots if it uses splines.
    """
    s = spec.resolved()
    recipes = slot_recipes(s)
    ages = np.atleast_1d(np.asarray(ages, dtype=float))
    sexes = np.atleast_1d(np.asarray(sexes, dtype=float))
    # the spline and sex x spline columns of every slot share one basis
    basis = spline_basis(ages, s.knots, s.boundary) if s.uses_splines else None
    return {slot: _columns(recipes[slot], ages, sexes, basis, center=center) for slot in slots}


def uncenter_matrix(spec: ModelSpec, slot: str) -> np.ndarray:
    """Matrix M with uncentered coefficients b = M @ c (c centered).

    Centering maps the age column a to a - AGE_CENTER, which folds
    AGE_CENTER * c_age into the intercept (and AGE_CENTER * c_sexage into the
    sex main effect); M undoes that fold. Spline columns are never centered.
    """
    recipe = slot_recipes(spec)[slot]
    # expand recipe into per-column kinds
    kinds: list[str] = []
    k = spec.interior_knots + 1
    for kind in recipe:
        kinds.extend([kind] * (k if "spline" in kind else 1))
    d = len(kinds)
    m = np.eye(d)
    for j, kind in enumerate(kinds):
        if kind == "age":
            m[kinds.index("const"), j] = -AGE_CENTER
        elif kind == "sexage":
            m[kinds.index("sex"), j] = -AGE_CENTER
    return m


# _unique_pairs counts pairs whose codes span at most this many integers per input pair, so its buffers stay O(n)
_COUNT_SPAN = 4


def _design_cells(spec: ModelSpec, slots, ages, sexes, center: bool):
    """(mats, cell_of): the design rows of ``spec`` per slot at each distinct
    (age, sex) cell, in (age, sex) order, and the cell of each observation."""
    cell_ages, cell_sexes, cell_of = _unique_pairs(np.asarray(ages, dtype=float), sexes)
    return design_matrices(spec, cell_ages, cell_sexes, slots=slots, center=center), cell_of


def _whole_offsets(col: np.ndarray, limit: int):
    """(offsets, low, span): ``col`` less its minimum ``low`` as integers, and the
    number of integers ``span`` it covers, if ``col`` holds whole numbers within
    ``limit`` consecutive integers; None otherwise, also for NaN or infinities."""
    low, high = col.min(), col.max()
    # whole floats below 2**53 in magnitude are exact integers
    if not (high - low < limit and -(2.0**53) < low and high < 2.0**53):
        return None
    whole = col.astype(np.intp, copy=False)
    if whole is not col and not np.array_equal(whole, col):
        return None
    return whole - int(low), low, int(high - low) + 1


def _unique_pairs(a, b, return_index=False):
    """The distinct pairs (a[i], b[i]) of 1-D ``a`` and ``b`` as ``np.unique(np.column_stack((a, b)), axis=0)``
    finds them, in (a, b) order: (a values, b values, [first index,] inverse), each column's values in its dtype.

    Whole-valued pairs whose codes (a - min a) * span(b) + (b - min b) span at most
    ``_COUNT_SPAN`` integers per input pair are counted; any other pairs take one
    sort of integer codes after one per column."""
    a, b = np.asarray(a), np.asarray(b)
    limit = _COUNT_SPAN * a.size
    # b first: the ELPD keys' outcomes are mostly fractional, so they fall back after one pass over b
    b_coded = _whole_offsets(b, limit) if a.size else None
    a_coded = _whole_offsets(a, limit // b_coded[2]) if b_coded else None
    if a_coded is None:
        a_vals, a_code = np.unique(a, return_inverse=True)
        b_vals, b_code = np.unique(b, return_inverse=True)
        codes, *rest = np.unique(a_code * b_vals.size + b_code, return_index=return_index, return_inverse=True)
        return (a_vals[codes // b_vals.size], b_vals[codes % b_vals.size], *rest)
    (a_off, a_low, _), (b_off, b_low, b_span) = a_coded, b_coded
    code = a_off * b_span + b_off
    present = np.flatnonzero(np.bincount(code))  # the codes in ascending, so (a, b), order
    rank = np.empty(present[-1] + 1, dtype=np.intp)
    rank[present] = np.arange(present.size)
    inverse = rank[code]
    a_vals = (present // b_span + a_low).astype(a.dtype, copy=False)
    b_vals = (present % b_span + b_low).astype(b.dtype, copy=False)
    if not return_index:
        return a_vals, b_vals, inverse
    first = np.empty(present.size, dtype=np.intp)
    # numpy assigns repeated indices in order, so each pair's lowest index is written last
    first[inverse[::-1]] = np.arange(a.size - 1, -1, -1)
    return a_vals, b_vals, first, inverse
