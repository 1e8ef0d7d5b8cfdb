"""Correction of age heaping in reported partner ages.

Respondents disproportionately report partner ages that are a multiple of
five years away from their own age. Within each (sex, respondent age) group,
expected counts at those "heaped" partner ages are estimated by a
Gaussian-kernel Nadaraya-Watson regression trained only on non-heaped ages;
the positive excess over the expectation is then redistributed to the four
neighbouring ages (p*-2 .. p*+2, never another heaped age), each receiving a
share proportional to its observed count, by moving floor(share * excess)
randomly chosen records. Expected counts and excesses are computed for the
whole group before any record moves, counts are conserved exactly, and all
randomness is driven by per-group seeds derived from the caller's seed.
Groups come from one stable sort of a 16-bit (sex, age) key, so each
group's records, and hence its random draws, keep their record order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_io import Records

__all__ = [
    "HeapReport",
    "GroupHeapDetail",
    "nw_expected",
    "deheap",
    "heaping_index",
    "is_heaped",
]

# under uniform placement of (p - a) mod 5, a fifth of records sit on heaps
_UNIFORM_SHARE = 0.2
_WINDOW = (-2, -1, 1, 2)


def _integer_ages(records: Records) -> np.ndarray:
    """(respondent ages, partner ages) as int64; raises naming the first non-integer age."""
    ages = np.stack([records.respondent_age, records.partner_age])
    whole = np.rint(ages)
    bad = np.argwhere((np.abs(ages - whole) > 1e-9).T)  # record-major
    if bad.size:
        i, j = bad[0]
        name = ("respondent_age", "partner_age")[j]
        raise ValueError(
            f"deheaping operates on integer age grids; record {i} has {name}={float(ages[j, i])!r}"
        )
    return whole.astype(np.int64)


def is_heaped(respondent_age, partner_age):
    """True where the partner age sits a multiple of five years from the
    respondent's, both rounded to whole years; takes scalars or arrays."""
    offset = np.rint(partner_age).astype(np.int64) - np.rint(respondent_age).astype(np.int64)
    return offset % 5 == 0


def heaping_index(records: Records) -> float:
    """Excess share of records at heaped ages, scaled to [0, 1].

    0 means the heaped share is at (or below) the 1/5 expected under a
    uniform offset distribution; 1 means every record is heaped.
    """
    return _heaping_index(is_heaped(records.respondent_age, records.partner_age))


def _heaping_index(heaped: np.ndarray) -> float:
    """``heaping_index`` of the records where ``heaped`` holds whether each is heaped."""
    if not heaped.size:
        raise ValueError("heaping_index requires a nonempty record set")
    frac = int(np.count_nonzero(heaped)) / heaped.size
    return max(0.0, frac - _UNIFORM_SHARE) / (1.0 - _UNIFORM_SHARE)


def nw_expected(counts, respondent_age: int, bandwidth: float) -> dict[int, float]:
    """Expected counts at heaped partner ages for one (sex, age) group.

    ``counts`` maps integer partner age to an observed count. The regression
    is trained on every integer age in the observed range whose offset from
    the respondent age is not a multiple of five (absent ages count as zero)
    and evaluated at the heaped ages in the range.
    """
    if not counts:
        return {}
    a = int(respondent_age)
    lo, hi = min(counts), max(counts)
    support = np.arange(lo, hi + 1)
    heaped_mask = (support - a) % 5 == 0
    train_p = support[~heaped_mask]
    if train_p.size < 2:
        raise ValueError(
            f"Nadaraya-Watson needs >= 2 non-heaped support ages, got {train_p.size}"
        )
    train_n = np.array([counts.get(int(p), 0) for p in train_p], dtype=float)
    heaped_p = support[heaped_mask]
    # one (heaped x train) kernel; each row sums along its contiguous axis
    u = (heaped_p[:, None] - train_p) / bandwidth
    w = np.exp(-0.5 * u * u)
    nhat = np.sum(w * train_n, axis=1) / np.sum(w, axis=1)
    return dict(zip(heaped_p.tolist(), nhat.tolist()))


@dataclass
class GroupHeapDetail:
    """Per-(sex, respondent age) bookkeeping of the correction."""

    sex: int
    respondent_age: int
    n_records: int
    skipped: str | None = None
    expected: dict = field(default_factory=dict)  # p* -> nhat
    excess: dict = field(default_factory=dict)  # p* -> e
    shares: dict = field(default_factory=dict)  # p* -> {p: b}
    moved: dict = field(default_factory=dict)  # p* -> {p: count}


@dataclass
class HeapReport:
    """Summary of one deheaping pass."""

    bandwidth: float
    seed: int
    n_records: int
    index_before: float
    index_after: float
    n_moved: int
    groups: list[GroupHeapDetail] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The report's fields in order, the two indexes named ``heaping_index_*``;
        ``json`` writes the groups' integer partner-age keys as text."""
        return {("heaping_" + k if k.startswith("index_") else k): v for k, v in asdict(self).items()}


def deheap(records: Records, bandwidth: float = 2.0, seed: int = 0):
    """Redistribute excess heaped records; returns (new_records, HeapReport).

    Groups with fewer than two records, or without enough non-heaped support
    for the kernel regression, pass through unchanged and are noted in the
    report.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be a positive finite number of years, got {bandwidth!r}")
    ages, partners = _integer_ages(records)
    index_before = _heaping_index((partners - ages) % 5 == 0)  # raises on an empty set
    sexes = records.respondent_sex
    new_partner = records.partner_age.copy()

    # one stable sort by (sex, age), 16 bits as Records keeps ages below 1000: each
    # group's indices stay in record order, which the per-group permutations depend on
    key = (sexes * 1000 + ages).astype(np.int16)
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order])) + 1

    details = []
    n_moved_total = 0
    for idx in np.split(order, bounds):
        sex, age = int(sexes[idx[0]]), int(ages[idx[0]])
        detail = GroupHeapDetail(sex=sex, respondent_age=age, n_records=len(idx))
        details.append(detail)
        if len(idx) < 2:
            detail.skipped = "fewer than 2 records"
            continue
        group_partners = partners[idx]
        counts = {p: c for p, c in enumerate(np.bincount(group_partners).tolist()) if c}
        try:
            expected = nw_expected(counts, age, bandwidth)
        except ValueError as exc:
            detail.skipped = str(exc)
            continue
        detail.expected = expected

        rng = np.random.default_rng(np.random.SeedSequence([seed, sex, age]))
        for p_star in sorted(expected):
            n_star = counts.get(p_star, 0)
            excess = max(n_star - expected[p_star], 0.0)
            detail.excess[p_star] = excess
            if excess <= 0.0 or n_star == 0:
                continue
            denom = expected[p_star] + sum(counts.get(p_star + off, 0) for off in _WINDOW)
            if denom <= 0.0:
                detail.moved[p_star] = {}
                continue
            # receivers p* + off are never heaped themselves (offsets 1..4 mod 5)
            shares = {p_star + off: counts.get(p_star + off, 0) / denom for off in _WINDOW}
            # epsilon keeps an exactly-integer b*excess from flooring one short
            # under float round-off
            moves = {p: int(math.floor(b * excess + 1e-9)) for p, b in shares.items()}
            detail.shares[p_star] = shares
            detail.moved[p_star] = moves
            total_moving = sum(moves.values())
            if total_moving == 0:
                continue
            pool = rng.permutation(idx[group_partners == p_star])
            cursor = 0
            for p, take in moves.items():
                new_partner[pool[cursor : cursor + take]] = float(p)
                partners[pool[cursor : cursor + take]] = p
                cursor += take
            n_moved_total += total_moving

    index_after = _heaping_index((partners - ages) % 5 == 0)
    del ages, partners, key, order, idx  # freed before Records copies the columns
    new_records = Records(records.respondent_age, sexes, new_partner)
    report = HeapReport(
        bandwidth=bandwidth,
        seed=seed,
        n_records=len(records),
        index_before=index_before,
        index_after=index_after,
        n_moved=n_moved_total,
        groups=details,
    )
    return new_records, report
