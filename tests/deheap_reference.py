"""Record-at-a-time deheaping: the reference the columnar ``agemix.deheap``
is tested against.

This is the per-record implementation the columnar one replaced, reading
rows from a ``Records`` set. For equal inputs, seed and bandwidth it must
give the same partner ages and the same ``HeapReport``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from agemix.deheap import GroupHeapDetail, HeapReport, nw_expected

_UNIFORM_SHARE = 0.2
_WINDOW = (-2, -1, 1, 2)


class Row(NamedTuple):
    respondent_age: float
    respondent_sex: int
    partner_age: float


def rows_of(records) -> list[Row]:
    return [
        Row(a, s, p)
        for a, s, p in zip(
            records.respondent_age.tolist(), records.respondent_sex.tolist(), records.partner_age.tolist()
        )
    ]


def heaping_index(rows) -> float:
    heaped = sum(1 for r in rows if (int(round(r.partner_age)) - int(round(r.respondent_age))) % 5 == 0)
    frac = heaped / len(rows)
    return max(0.0, frac - _UNIFORM_SHARE) / (1.0 - _UNIFORM_SHARE)


def reference_deheap(records, bandwidth: float = 2.0, seed: int = 0):
    """(new partner ages, HeapReport), record by record."""
    rows = rows_of(records)
    for i, r in enumerate(rows):
        for name in ("respondent_age", "partner_age"):
            v = getattr(r, name)
            if abs(v - round(v)) > 1e-9:
                raise ValueError(
                    f"deheaping operates on integer age grids; record {i} has {name}={v!r}"
                )
    if not rows:
        raise ValueError("deheap requires a nonempty record set")

    index_before = heaping_index(rows)
    new_partner = np.array([float(r.partner_age) for r in rows])

    groups: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(rows):
        key = (int(r.respondent_sex), int(round(r.respondent_age)))
        groups.setdefault(key, []).append(i)

    details = []
    n_moved_total = 0
    for (sex, age) in sorted(groups):
        idx = groups[(sex, age)]
        detail = GroupHeapDetail(sex=sex, respondent_age=age, n_records=len(idx))
        details.append(detail)
        if len(idx) < 2:
            detail.skipped = "fewer than 2 records"
            continue
        counts: dict[int, int] = {}
        by_partner: dict[int, list[int]] = {}
        for i in idx:
            p = int(round(rows[i].partner_age))
            counts[p] = counts.get(p, 0) + 1
            by_partner.setdefault(p, []).append(i)
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
            shares = {}
            move_counts = {}
            for off in _WINDOW:
                p = p_star + off
                b = counts.get(p, 0) / denom
                shares[p] = b
                move_counts[p] = int(math.floor(b * excess + 1e-9))
            detail.shares[p_star] = shares
            total_moving = sum(move_counts.values())
            if total_moving == 0:
                detail.moved[p_star] = move_counts
                continue
            pool = rng.permutation(np.array(by_partner[p_star], dtype=int))
            cursor = 0
            for off in _WINDOW:
                p = p_star + off
                take = move_counts[p]
                for i in pool[cursor : cursor + take]:
                    new_partner[i] = float(p)
                cursor += take
            detail.moved[p_star] = move_counts
            n_moved_total += total_moving

    new_rows = [r._replace(partner_age=float(p)) for r, p in zip(rows, new_partner)]
    report = HeapReport(
        bandwidth=bandwidth,
        seed=seed,
        n_records=len(rows),
        index_before=index_before,
        index_after=heaping_index(new_rows),
        n_moved=n_moved_total,
        groups=details,
    )
    return new_partner, report
