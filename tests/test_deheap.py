import dataclasses
from collections import Counter

import numpy as np
import pytest

from agemix.data_io import Records, default_config, simulate
from agemix.deheap import deheap, heaping_index, is_heaped, nw_expected
from conftest import assert_same_records
from deheap_reference import reference_deheap


def group_records(counts_by_partner_age, respondent_age=30, sex=1):
    partners = [float(p) for p, n in counts_by_partner_age.items() for _ in range(n)]
    n = len(partners)
    return Records(np.full(n, float(respondent_age)), np.full(n, sex), partners)


def partner_counts(records):
    return Counter(records.partner_age.astype(int).tolist())


def group_counts(records):
    return Counter(zip(records.respondent_sex.tolist(), records.respondent_age.astype(int).tolist()))


class TestNwExpected:
    def test_flat_counts(self):
        counts = {p: 10 for p in range(26, 35) if (p - 30) % 5}
        out = nw_expected(counts, 30, bandwidth=2.0)
        assert set(out) == {30}
        assert out[30] == pytest.approx(10.0, rel=1e-12)

    def test_triangular_oracle(self):
        # frozen from a direct weighted-average computation before the build
        counts = {p: 10 - 2 * abs(p - 30) for p in range(26, 35)}
        out = nw_expected(counts, 30, bandwidth=2.0)
        assert out[30] == pytest.approx(6.294686108265487, rel=1e-12)

    def test_small_bandwidth_locality(self):
        counts = {p: p for p in range(26, 35)}
        out = nw_expected(counts, 30, bandwidth=0.25)
        assert 29.0 <= out[30] <= 31.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        counts = {p: int(rng.integers(0, 30)) for p in range(20, 45)}
        out = nw_expected(counts, 30, bandwidth=2.0)
        assert all(v >= 0 for v in out.values())

    @pytest.mark.parametrize("bandwidth", [0.5, 2.0, 7.3])
    def test_equals_one_kernel_per_heaped_age(self, bandwidth):
        # the loop the (heaped x train) kernel replaced: bitwise equal, as the report needs
        rng = np.random.default_rng(1)
        counts = {p: int(rng.integers(1, 40)) for p in range(1, 150) if rng.random() < 0.8}
        support = np.arange(min(counts), max(counts) + 1)
        train_p = support[(support - 33) % 5 != 0]
        train_n = np.array([counts.get(int(p), 0) for p in train_p], dtype=float)
        want = {}
        for p_star in support[(support - 33) % 5 == 0]:
            u = (p_star - train_p) / bandwidth
            w = np.exp(-0.5 * u * u)
            want[int(p_star)] = float(np.sum(w * train_n) / np.sum(w))
        assert nw_expected(counts, 33, bandwidth) == want

    def test_insufficient_support_raises(self):
        with pytest.raises(ValueError):
            nw_expected({30: 50}, 30, bandwidth=2.0)


class TestDeheapSpikeCases:
    def wings(self, center_count):
        counts = {p: 10 for p in range(26, 35)}
        counts[30] = center_count
        return counts

    def test_hand_spike_case(self):
        # counts (10,10,50,10,10) around p*=30 with nhat=10: excess 40,
        # each neighbour share 0.2, floor(8.0) = 8 moved to each
        records = group_records(self.wings(50))
        out, report = deheap(records, bandwidth=2.0, seed=3)
        after = partner_counts(out)
        assert [after[p] for p in range(28, 33)] == [18, 18, 18, 18, 18]
        g = report.groups[0]
        assert g.excess[30] == pytest.approx(40.0, abs=1e-9)
        assert g.moved[30] == {28: 8, 29: 8, 31: 8, 32: 8}

    def test_integer_share_moves_exactly(self):
        # excess 10, shares 0.2: d = 2.0 moves exactly 2 per neighbour
        records = group_records(self.wings(20))
        out, report = deheap(records, bandwidth=2.0, seed=3)
        assert report.groups[0].moved[30] == {28: 2, 29: 2, 31: 2, 32: 2}

    def test_fractional_share_floors(self):
        # excess 9, shares 0.2: d = 1.8 moves 1 per neighbour, remainder stays
        records = group_records(self.wings(19))
        out, report = deheap(records, bandwidth=2.0, seed=3)
        assert report.groups[0].moved[30] == {28: 1, 29: 1, 31: 1, 32: 1}
        assert partner_counts(out)[30] == 15

    def test_no_heaping_leaves_records_unchanged(self):
        records = group_records(self.wings(10))
        out, report = deheap(records, bandwidth=2.0, seed=3)
        assert_same_records(out, records)
        assert report.n_moved == 0


@pytest.fixture(scope="module")
def heaped_records():
    cfg = dataclasses.replace(default_config(n=20_000, seed=555), heaping=0.35)
    return simulate(cfg)


class TestDeheapProperties:
    def test_counts_conserved_per_group_and_globally(self, heaped_records):
        out, _ = deheap(heaped_records, seed=1)
        assert group_counts(out) == group_counts(heaped_records)
        assert len(out) == len(heaped_records)

    def test_heaped_ages_never_gain(self, heaped_records):
        out, _ = deheap(heaped_records, seed=1)
        for (sex, age) in group_counts(heaped_records):
            in_group = (heaped_records.respondent_sex == sex) & (heaped_records.respondent_age == age)
            before = partner_counts(heaped_records[in_group])
            after = partner_counts(out[in_group])
            for p in set(before) | set(after):
                if is_heaped(age, p):
                    assert after[p] <= before[p]
                elif after[p] > before[p]:
                    # receivers sit within two years of a multiple-of-five offset
                    offset = (p - age) % 5
                    assert offset in (1, 2, 3, 4)

    def test_reduces_heaping(self, heaped_records):
        out, report = deheap(heaped_records, seed=1)
        assert report.index_after < report.index_before

    def test_deterministic_given_seed(self, heaped_records):
        a, _ = deheap(heaped_records, seed=9)
        b, _ = deheap(heaped_records, seed=9)
        assert_same_records(a, b)

    def test_second_pass_never_increases_index(self, heaped_records):
        once, report1 = deheap(heaped_records, seed=2)
        twice, report2 = deheap(once, seed=2)
        assert report2.index_after <= report1.index_after + 1e-12

    def test_report_round_trips_to_json(self, heaped_records):
        import json

        _, report = deheap(heaped_records, seed=1)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["n_records"] == len(heaped_records)
        assert blob["heaping_index_before"] > blob["heaping_index_after"]


class TestHeapingIndex:
    def test_uniform_offsets(self):
        records = group_records({p: 20 for p in range(25, 30)}, sex=0)
        assert heaping_index(records) == pytest.approx(0.0, abs=1e-12)

    def test_all_heaped(self):
        records = group_records({35: 50}, sex=0)
        assert heaping_index(records) == 1.0

    def test_forty_percent_heaped(self):
        records = group_records({35: 40, 26: 15, 27: 15, 28: 15, 29: 15}, sex=0)
        assert heaping_index(records) == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            heaping_index(Records([], [], []))


class TestValidation:
    def test_non_integer_ages_rejected(self):
        records = Records([30.0, 30.0, 30.0], [0, 0, 0], [28.0, 27.5, 28.0])
        with pytest.raises(ValueError, match="record 1 has partner_age=27.5"):
            deheap(records)

    @pytest.mark.parametrize(
        "ages, partners, message",
        [
            ([30.0, 30.5], [28.0, 27.5], "record 1 has respondent_age=30.5"),
            ([30.0, 30.5], [28.5, 27.0], "record 0 has partner_age=28.5"),
        ],
    )
    def test_first_non_integer_age_in_record_order(self, ages, partners, message):
        with pytest.raises(ValueError, match=message):
            deheap(Records(ages, [0, 0], partners))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            deheap(Records([], [], []))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
    def test_bandwidth_must_be_positive_and_finite(self, bandwidth):
        records = group_records({35: 40, 26: 15, 27: 15, 28: 15, 29: 15}, sex=0)
        with pytest.raises(ValueError, match=f"bandwidth must be a positive finite number of years, got {bandwidth!r}"):
            deheap(records, bandwidth=bandwidth)

    def test_tiny_group_passes_through(self):
        records = group_records({35: 1}, sex=0)
        out, report = deheap(records)
        assert out.partner_age.tolist() == [35.0]
        assert report.groups[0].skipped is not None


class TestMatchesRecordwiseReference:
    """The columnar deheap equals the record-at-a-time reference exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bandwidth", [0.5, 2.0, 5.0])
    def test_heaped_simulated_data(self, heaped_records, seed, bandwidth):
        records = heaped_records[:6000]
        out, report = deheap(records, bandwidth=bandwidth, seed=seed)
        ref_partners, ref_report = reference_deheap(records, bandwidth=bandwidth, seed=seed)
        np.testing.assert_array_equal(out.partner_age, ref_partners)
        assert report.n_moved > 0
        assert report.to_dict() == ref_report.to_dict()

    def test_skipped_groups(self):
        # a lone record (fewer than 2), a group with one partner age (no
        # non-heaped support) and a heaped group, interleaved in record order
        weights = [1.0 if a == 33 else 0.0 for a in range(15, 65)]
        cfg = dataclasses.replace(default_config(n=400, seed=3), heaping=0.5, age_weights=weights)
        heaped = simulate(cfg)
        lone = Records([20.0], [1], [30.0])
        flat = group_records({45: 4}, respondent_age=40, sex=0)
        ages = np.concatenate([heaped.respondent_age, lone.respondent_age, flat.respondent_age])
        order = np.random.default_rng(0).permutation(ages.size)
        records = Records(
            ages[order],
            np.concatenate([heaped.respondent_sex, lone.respondent_sex, flat.respondent_sex])[order],
            np.concatenate([heaped.partner_age, lone.partner_age, flat.partner_age])[order],
        )
        out, report = deheap(records, seed=4)
        ref_partners, ref_report = reference_deheap(records, seed=4)
        np.testing.assert_array_equal(out.partner_age, ref_partners)
        skipped = [g.skipped for g in report.groups if g.skipped]
        assert "fewer than 2 records" in skipped
        assert any("non-heaped support" in s for s in skipped)
        assert report.n_moved > 0
        assert report.to_dict() == ref_report.to_dict()

    def test_groups_at_both_ends_of_the_key_range(self):
        # (sex 1, age 64) and (sex 0, age 15) are the largest and smallest group
        # keys; the largest would collide with (sex 0, age 40) in 8 bits
        weights = [1.0 if a in (15, 40, 64) else 0.0 for a in range(15, 65)]
        cfg = dataclasses.replace(default_config(n=3000, seed=8), heaping=0.5, age_weights=weights)
        records = simulate(cfg)
        groups = group_counts(records)
        assert {(1, 64), (0, 15), (0, 40)} <= set(groups) and min(groups.values()) > 100
        out, report = deheap(records, seed=2)
        ref_partners, ref_report = reference_deheap(records, seed=2)
        np.testing.assert_array_equal(out.partner_age, ref_partners)
        moved = {(g.sex, g.respondent_age) for g in report.groups if any(any(m.values()) for m in g.moved.values())}
        assert {(1, 64), (0, 15)} <= moved
        assert report.to_dict() == ref_report.to_dict()

    def test_non_integer_error_names_the_same_record(self):
        records = Records([30.0, 30.5, 31.0], [0, 1, 1], [28.0, 27.0, 27.5])
        with pytest.raises(ValueError) as ours:
            deheap(records)
        with pytest.raises(ValueError) as ref:
            reference_deheap(records)
        assert str(ours.value) == str(ref.value)
