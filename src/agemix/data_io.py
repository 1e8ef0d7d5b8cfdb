"""Columnar partnership records (``Records``, validated once where built),
CSV reading and writing, stratification, and the synthetic data generator.

Distinct pairs (CSV lines, design cells) come from ``design._unique_pairs``
and ``design._design_cells``, and family parameters from
``distributions._natural_params``, so this module loads no fitting code."""

from __future__ import annotations

import csv
import json
import logging
import warnings
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .design import ModelSpec, _design_cells, _unique_pairs, row_width, slot_recipes
from .distributions import Family, _natural_params, linpred_slots, sample_slots
from .transforms import Transform, TransformKind, inverse_array

__all__ = [
    "Records",
    "RecordError",
    "CsvError",
    "SubsetKey",
    "BIN_STARTS",
    "GeneratorConfig",
    "load_csv",
    "save_csv",
    "stratify",
    "simulate",
    "default_config",
]

log = logging.getLogger(__name__)

CSV_HEADER = ["respondent_age", "respondent_sex", "partner_age"]
AGE_MIN, AGE_MAX = 15.0, 64.0
PARTNER_MAX = 150.0
BIN_STARTS = (20, 25, 30, 35, 40, 45)
BIN_WIDTH = 5


class RecordError(ValueError):
    """A record violates the age/sex range requirements."""


class CsvError(ValueError):
    """A CSV file could not be parsed into valid records."""


def _range_problems(ages, sexes, partners) -> list[tuple[int, str]]:
    """(row, message) for every row outside the age/sex ranges, in row order."""
    bad_age = ~((ages >= AGE_MIN) & (ages <= AGE_MAX))
    bad_sex = ~((sexes == 0) | (sexes == 1))
    bad_partner = ~((partners > 0.0) & (partners < PARTNER_MAX))
    problems = []
    for i in np.flatnonzero(bad_age | bad_sex | bad_partner).tolist():
        if bad_age[i]:
            msg = f"respondent_age must be in [{AGE_MIN:g}, {AGE_MAX:g}], got {float(ages[i])!r}"
        elif bad_sex[i]:
            msg = f"respondent_sex must be 0 or 1, got {sexes[i]:g}"
        else:
            msg = f"partner_age must be in (0, {PARTNER_MAX:g}), got {float(partners[i])!r}"
        problems.append((i, msg))
    return problems


@dataclass(frozen=True, eq=False)
class Records:
    """Partnership records as three validated, read-only columns (sex 1 = female).

    Ages are float64 and sex int64. ``len``, slices and integer or boolean
    index arrays act on all three columns and return ``Records``; a row out
    of range raises ``RecordError`` naming the first such row.
    """

    respondent_age: np.ndarray
    respondent_sex: np.ndarray
    partner_age: np.ndarray

    def __post_init__(self):
        ages = np.array(self.respondent_age, dtype=float)
        sexes = np.array(self.respondent_sex)
        partners = np.array(self.partner_age, dtype=float)
        if ages.ndim != 1 or not ages.shape == sexes.shape == partners.shape:
            shapes = (ages.shape, sexes.shape, partners.shape)
            raise RecordError(f"record columns must be 1-D and of equal length, got shapes {shapes}")
        problems = _range_problems(ages, sexes, partners)
        if problems:
            i, msg = problems[0]
            raise RecordError(f"record {i}: {msg}")
        columns = {"respondent_age": ages, "respondent_sex": sexes.astype(np.int64), "partner_age": partners}
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return self.respondent_age.shape[0]

    def __getitem__(self, index) -> Records:
        return Records(self.respondent_age[index], self.respondent_sex[index], self.partner_age[index])


@dataclass(frozen=True, order=True)
class SubsetKey:
    """Stratification cell: sex x five-year respondent age bin."""

    sex: int
    bin_start: int

    @property
    def bin_label(self) -> str:
        return f"{self.bin_start}-{self.bin_start + BIN_WIDTH - 1}"

    @property
    def sex_label(self) -> str:
        return "female" if self.sex == 1 else "male"

    def __str__(self) -> str:
        return f"{self.sex_label} {self.bin_label}"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def load_csv(path) -> Records:
    """Read partnership records from a CSV with the standard header.

    Blank lines are ignored. Any malformed row aborts the load with a
    CsvError listing every offending line. A sex field must equal 0 or 1
    (``1.0`` is 1); a fractional one is a malformed row.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        first = fh.readline()
        header = next(csv.reader([first]), None) if first else None
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        body = fh.tell()
        if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
            return Records([], [], [])
        # a well-formed file parses in one C pass straight from the file; any
        # other file is parsed row by row below, so that every malformed line
        # can be named
        fh.seek(body)
        try:
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if values.shape[1] == 3:
                return Records(values[:, 0], values[:, 1], values[:, 2])
        except ValueError:
            pass

        fh.seek(body)
        rows, line_nos, problems = [], [], []
        for line_no, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise ValueError(f"expected 3 fields, got {len(row)}")
                rows.append([float(v) for v in row])
                line_nos.append(line_no)
            except ValueError as exc:
                problems.append((line_no, str(exc)))
    ages, sexes, partners = np.array(rows, dtype=float).reshape(-1, 3).T
    out_of_range = _range_problems(ages, sexes, partners)
    problems = sorted(problems + [(line_nos[i], msg) for i, msg in out_of_range])
    if problems:
        texts = [f"line {line_no}: {msg}" for line_no, msg in problems]
        raise CsvError(f"{path}: {len(texts)} malformed row(s): " + "; ".join(texts))
    return Records(ages, sexes, partners)


# records per write, which bounds the memory a write holds
_WRITE_BLOCK = 1 << 16
# decimal text of every whole number a valid record field can hold
_WHOLE_TEXT = np.array([str(i) for i in range(int(PARTNER_MAX))], dtype=object)


def _field_text(values: np.ndarray) -> list[str]:
    """Whole values as integers, any other value as its float repr."""
    out = _WHOLE_TEXT[values.astype(np.int64)]
    fractional = np.flatnonzero(values != np.trunc(values))
    out[fractional] = [repr(v) for v in values[fractional].tolist()]
    return out.tolist()


def save_csv(records: Records, path) -> None:
    """Write ``records`` under the standard header, in the format ``load_csv`` reads.

    Lines end in CRLF, the csv module's default terminator.
    """
    # ages are positive and sex is 0 or 1, so the pair (age signed by sex, partner age)
    # identifies a line: per block of records, each distinct pair's line is formatted once
    ages, sexes, partners = records.respondent_age, records.respondent_sex, records.partner_age
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for start in range(0, len(records), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            signed = np.where(sexes[block] == 1, -ages[block], ages[block])
            signed, partner, line_of = _unique_pairs(signed, partners[block])
            fields = zip(*(_field_text(col) for col in (np.abs(signed), 1.0 * (signed < 0), partner)))
            lines = np.array([f"{a},{s},{p}\r\n" for a, s, p in fields], dtype=object)
            fh.write("".join(lines[line_of].tolist()))


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def stratify(records: Records) -> dict[SubsetKey, Records]:
    """Split records into the 12 (sex, five-year bin) subsets.

    Bin membership is by floor of respondent age; ages outside [20, 50) are
    excluded. Subsets keep the records' order. Empty subsets are omitted
    (and noted in the log).
    """
    keys = [SubsetKey(sex, start) for sex in (0, 1) for start in BIN_STARTS]
    bin_of = (np.floor(records.respondent_age) - BIN_STARTS[0]) // BIN_WIDTH
    inside = (bin_of >= 0) & (bin_of < len(BIN_STARTS))
    # subset codes in key order, len(keys) outside the bins: one stable sort groups
    # the subsets, each in record order
    code = np.where(inside, records.respondent_sex * len(BIN_STARTS) + bin_of, len(keys)).astype(np.int8)
    order = np.argsort(code, kind="stable")
    bounds = np.cumsum([0, *np.bincount(code, minlength=len(keys))])
    out = {key: records[order[lo:hi]] for key, lo, hi in zip(keys, bounds, bounds[1:]) if hi > lo}
    n_missing = len(keys) - len(out)
    if n_missing:
        log.info("stratify: %d of 12 subsets are empty and omitted", n_missing)
    return out


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Truth model and sampling plan for the synthetic generator.

    Coefficient vectors are on the uncentered design scale of ``spec``.
    ``age_weights`` (optional) gives relative weights over the integer ages
    15..64, 50 finite, non-negative values with a positive sum; respondent
    ages are always drawn from that grid. ``seed`` is non-negative and the
    share of women ``sex_ratio`` in [0, 1]. A config is validated when made
    and frozen: ``dataclasses.replace`` makes a changed copy, validated again.
    """

    n: int
    seed: int
    family: Family
    transform: Transform
    spec: ModelSpec
    coefficients: dict[str, np.ndarray]
    age_weights: np.ndarray | None = None
    sex_ratio: float = 0.5
    heaping: float = 0.0
    integer_ages: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.sex_ratio <= 1.0:
            raise ValueError(f"sex_ratio must be in [0, 1], got {self.sex_ratio}")
        if not 0.0 <= self.heaping <= 1.0:
            raise ValueError(f"heaping must be in [0, 1], got {self.heaping}")
        if self.age_weights is not None:
            w = np.asarray(self.age_weights, dtype=float)
            if not (w.shape == (int(AGE_MAX - AGE_MIN) + 1,) and np.all(w >= 0) and 0 < w.sum() < np.inf):
                raise ValueError(f"age_weights must be 50 finite, non-negative values with a positive sum: {w}")
            object.__setattr__(self, "age_weights", w)
        spec = self.spec.resolved()
        object.__setattr__(self, "spec", spec)
        recipes = slot_recipes(spec)
        for slot in linpred_slots(self.family):
            if slot not in self.coefficients:
                raise ValueError(f"missing coefficient vector for slot {slot!r}")
            got = np.asarray(self.coefficients[slot], dtype=float)
            want = row_width(spec, recipes[slot])
            if got.shape != (want,):
                raise ValueError(
                    f"coefficients[{slot!r}] must have length {want} for "
                    f"{spec.tag.value}, got {got.shape}"
                )
            self.coefficients[slot] = got

    def to_dict(self) -> dict:
        """The config's fields in order, its arrays as lists, as ``from_dict`` reads them."""
        return {
            **asdict(self),
            "coefficients": {k: np.asarray(v, dtype=float).tolist() for k, v in self.coefficients.items()},
            "age_weights": None if self.age_weights is None else self.age_weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        """The config ``d`` describes; a missing key or a field of the wrong JSON type is a ValueError."""
        try:
            t = d["transform"]
            fields = dict(
                n=int(d["n"]),
                seed=int(d["seed"]),
                family=Family(d["family"]),
                transform=Transform(
                    kind=TransformKind(t["kind"]),
                    upper_bound=float(t.get("upper_bound", 150.0)),
                    offset=float(t.get("offset", 150.0)),
                ),
                spec=ModelSpec.from_dict(d["spec"]),
                coefficients={k: np.asarray(v, dtype=float) for k, v in d["coefficients"].items()},
                age_weights=None if d.get("age_weights") is None else np.asarray(d["age_weights"], dtype=float),
                sex_ratio=float(d.get("sex_ratio", 0.5)),
                heaping=float(d.get("heaping", 0.0)),
                integer_ages=bool(d.get("integer_ages", True)),
            )
        except KeyError as exc:
            raise ValueError(f"the generator config lacks the key {exc.args[0]!r}") from exc
        except (TypeError, AttributeError) as exc:  # a field of the wrong JSON type, such as a string for an object
            raise ValueError(f"a generator config field has the wrong type: {exc}") from exc
        return cls(**fields)

    @classmethod
    def from_json_file(cls, path, n: int | None = None, seed: int | None = None) -> "GeneratorConfig":
        """The config in ``path``; ``n`` and ``seed``, when given, replace its own before validation."""
        return _config_from_json(Path(path).read_text(), n, seed)


def _config_from_json(text: str, n: int | None, seed: int | None) -> GeneratorConfig:
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError("a generator config must be a JSON object")
    d.update({key: value for key, value in (("n", n), ("seed", seed)) if value is not None})
    return GeneratorConfig.from_dict(d)


def default_config(n: int | None = None, seed: int | None = None) -> GeneratorConfig:
    """The packaged default truth configuration, with ``n`` and ``seed`` when given."""
    text = resources.files("agemix").joinpath("configs/default_simulation.json").read_text()
    return _config_from_json(text, n, seed)


def simulate(config: GeneratorConfig, return_clipped: bool = False) -> Records | tuple[Records, int]:
    """Draw synthetic partnership records from the configured truth model.

    Respondent age and sex come from the configured marginals, the outcome is
    sampled from the truth family at the design-implied parameters and mapped
    back to a partner age; with probability ``heaping`` the offset from the
    respondent's age is then rounded to the nearest multiple of five.
    Bit-reproducible for a fixed seed.

    Integer partner ages outside [1, 149] are clipped into it, with one
    RuntimeWarning that counts them; ``return_clipped`` returns (records,
    count) instead of the records alone.
    """
    ss = np.random.SeedSequence(config.seed)
    rng_cov, rng_y, rng_heap = (np.random.default_rng(s) for s in ss.spawn(3))

    age_grid = np.arange(int(AGE_MIN), int(AGE_MAX) + 1)
    probs = None if config.age_weights is None else config.age_weights / config.age_weights.sum()
    ages = rng_cov.choice(age_grid, size=config.n, p=probs).astype(float)
    sexes = (rng_cov.uniform(size=config.n) < config.sex_ratio).astype(int)

    # linear predictors depend only on (age, sex): link each cell once, then gather per record
    slots = linpred_slots(config.family)
    mats, cell_of = _design_cells(config.spec, slots, ages, sexes, center=False)
    params = _natural_params(config.family, {slot: mats[slot] @ config.coefficients[slot] for slot in slots})
    y = sample_slots(config.family, [p[cell_of] for p in params], (config.n,), rng_y)
    partners = inverse_array(config.transform, ages, sexes, y)

    n_clipped = 0
    if config.integer_ages:
        partners = np.rint(partners)
        n_clipped = int(np.count_nonzero((partners < 1.0) | (partners > PARTNER_MAX - 1.0)))
        np.clip(partners, 1.0, PARTNER_MAX - 1.0, out=partners)
        if n_clipped:
            warnings.warn(f"simulate clipped {n_clipped} of {config.n} partner ages into [1, {PARTNER_MAX - 1:g}]",
                          RuntimeWarning, stacklevel=2)

    if config.heaping > 0.0:
        heap_mask = rng_heap.uniform(size=config.n) < config.heaping
        heaped = ages + 5.0 * np.rint((partners - ages) / 5.0)
        ok = (heaped > 0.0) & (heaped < PARTNER_MAX)
        partners = np.where(heap_mask & ok, heaped, partners)

    records = Records(ages, sexes, partners)
    return (records, n_clipped) if return_clipped else records
