"""Record ingestion, stratification, and the synthetic data generator."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .design import ModelSpec, SLOT_NAMES, design_matrices, slot_recipes, row_width
from .distributions import Family, linpred_slots
from .inference import _natural_params, _sample_family
from .transforms import Transform, TransformKind, inverse_array

__all__ = [
    "PartnershipRecord",
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


@dataclass(frozen=True)
class PartnershipRecord:
    """One reported partnership. Sex is coded 1 = female."""

    respondent_age: float
    respondent_sex: int
    partner_age: float

    def __post_init__(self):
        if not AGE_MIN <= self.respondent_age <= AGE_MAX:
            raise RecordError(
                f"respondent_age must be in [{AGE_MIN:g}, {AGE_MAX:g}], got {self.respondent_age!r}"
            )
        if self.respondent_sex not in (0, 1):
            raise RecordError(f"respondent_sex must be 0 or 1, got {self.respondent_sex!r}")
        if not 0.0 < self.partner_age < PARTNER_MAX:
            raise RecordError(
                f"partner_age must be in (0, {PARTNER_MAX:g}), got {self.partner_age!r}"
            )


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


def _parse_row(row: list[str], line_no: int) -> PartnershipRecord:
    if len(row) != 3:
        raise CsvError(f"line {line_no}: expected 3 fields, got {len(row)}")
    try:
        age = float(row[0])
        sex = int(float(row[1]))
        partner = float(row[2])
    except ValueError as exc:
        raise CsvError(f"line {line_no}: {exc}") from exc
    try:
        return PartnershipRecord(age, sex, partner)
    except RecordError as exc:
        raise CsvError(f"line {line_no}: {exc}") from exc


def load_csv(path, strict: bool = True) -> list[PartnershipRecord]:
    """Read partnership records from a CSV with the standard header.

    In strict mode any malformed row aborts the load with a report listing
    every offending line; otherwise bad rows are logged and skipped.
    """
    path = Path(path)
    records = []
    problems = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise CsvError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                records.append(_parse_row(row, line_no))
            except CsvError as exc:
                problems.append(str(exc))
    if problems:
        if strict:
            raise CsvError(f"{path}: {len(problems)} malformed row(s): " + "; ".join(problems))
        for p in problems:
            log.warning("%s: skipped %s", path, p)
    return records


def _format_age(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def save_csv(records, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [_format_age(r.respondent_age), str(int(r.respondent_sex)), _format_age(r.partner_age)]
            )


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


def stratify(records) -> dict[SubsetKey, list[PartnershipRecord]]:
    """Split records into the 12 (sex, five-year bin) subsets.

    Bin membership is by floor of respondent age; ages outside [20, 50) are
    excluded. Empty subsets are omitted (and noted in the log).
    """
    out: dict[SubsetKey, list[PartnershipRecord]] = {}
    for r in records:
        whole = int(np.floor(r.respondent_age))
        if whole < BIN_STARTS[0] or whole >= BIN_STARTS[-1] + BIN_WIDTH:
            continue
        start = BIN_STARTS[(whole - BIN_STARTS[0]) // BIN_WIDTH]
        out.setdefault(SubsetKey(int(r.respondent_sex), start), []).append(r)
    n_missing = 2 * len(BIN_STARTS) - len(out)
    if n_missing:
        log.info("stratify: %d of 12 subsets are empty and omitted", n_missing)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass
class GeneratorConfig:
    """Truth model and sampling plan for the synthetic generator.

    Coefficient vectors are on the uncentered design scale of ``spec``.
    ``age_weights`` (optional) gives relative weights over the integer ages
    15..64; respondent ages are always drawn from that grid.
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
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.heaping <= 1.0:
            raise ValueError("heaping intensity must be in [0, 1]")
        self.spec = self.spec.resolved()
        spec = self.spec
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
        return {
            "n": self.n,
            "seed": self.seed,
            "family": self.family.value,
            "transform": {
                "kind": self.transform.kind.value,
                "upper_bound": self.transform.upper_bound,
                "offset": self.transform.offset,
            },
            "spec": self.spec.to_dict(),
            "coefficients": {k: [float(x) for x in v] for k, v in self.coefficients.items()},
            "age_weights": None if self.age_weights is None else [float(w) for w in self.age_weights],
            "sex_ratio": self.sex_ratio,
            "heaping": self.heaping,
            "integer_ages": self.integer_ages,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        t = d["transform"]
        return cls(
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

    @classmethod
    def from_json_file(cls, path) -> "GeneratorConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def default_config(n: int | None = None, seed: int | None = None) -> GeneratorConfig:
    """The packaged default truth configuration."""
    text = resources.files("agemix").joinpath("configs/default_simulation.json").read_text()
    cfg = GeneratorConfig.from_dict(json.loads(text))
    if n is not None:
        cfg.n = int(n)
    if seed is not None:
        cfg.seed = int(seed)
    return cfg


def simulate(config: GeneratorConfig) -> list[PartnershipRecord]:
    """Draw synthetic partnership records from the configured truth model.

    Respondent age and sex come from the configured marginals, the outcome is
    sampled from the truth family at the design-implied parameters and mapped
    back to a partner age; with probability ``heaping`` the offset from the
    respondent's age is then rounded to the nearest multiple of five.
    Bit-reproducible for a fixed seed.
    """
    ss = np.random.SeedSequence(config.seed)
    rng_cov, rng_y, rng_heap = (np.random.default_rng(s) for s in ss.spawn(3))

    age_grid = np.arange(int(AGE_MIN), int(AGE_MAX) + 1)
    if config.age_weights is None:
        probs = None
    else:
        w = np.asarray(config.age_weights, dtype=float)
        if w.shape != age_grid.shape:
            raise ValueError(f"age_weights must have length {age_grid.size}, got {w.shape}")
        probs = w / w.sum()
    ages = rng_cov.choice(age_grid, size=config.n, p=probs).astype(float)
    sexes = (rng_cov.uniform(size=config.n) < config.sex_ratio).astype(int)

    slots = linpred_slots(config.family)
    mats = design_matrices(config.spec, ages, sexes, slots=slots, center=False)
    etas = {slot: mats[slot] @ config.coefficients[slot] for slot in slots}
    for slot in SLOT_NAMES:
        etas.setdefault(slot, np.zeros(config.n))
    params = _natural_params(config.family, etas)
    y = _sample_family(config.family, params, (config.n,), rng_y)
    partners = inverse_array(config.transform, ages, sexes, y)

    if config.integer_ages:
        partners = np.clip(np.rint(partners), 1.0, PARTNER_MAX - 1.0)

    if config.heaping > 0.0:
        heap_mask = rng_heap.uniform(size=config.n) < config.heaping
        heaped = ages + 5.0 * np.rint((partners - ages) / 5.0)
        ok = (heaped > 0.0) & (heaped < PARTNER_MAX)
        partners = np.where(heap_mask & ok, heaped, partners)

    return [
        PartnershipRecord(float(a), int(s), float(p))
        for a, s, p in zip(ages, sexes, partners)
    ]
