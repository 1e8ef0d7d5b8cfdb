import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import agemix.data_io
from agemix.data_io import (
    BIN_STARTS,
    CsvError,
    GeneratorConfig,
    RecordError,
    Records,
    SubsetKey,
    default_config,
    load_csv,
    save_csv,
    simulate,
    stratify,
)
from agemix.deheap import heaping_index
from agemix.design import ModelSpec, ModelTag, design_matrices
from agemix.distributions import Family
from agemix.transforms import Transform, TransformKind
from conftest import assert_same_records

HEADER = "respondent_age,respondent_sex,partner_age\n"


def rows(*triples):
    """Records from (respondent_age, respondent_sex, partner_age) triples."""
    ages, sexes, partners = zip(*triples)
    return Records(ages, sexes, partners)


class TestRecords:
    def test_valid(self):
        r = Records([30.0, 25.0], [1, 0], [41.0, 22.0])
        assert len(r) == 2
        assert r.respondent_sex.dtype == np.int64 and r.respondent_sex.tolist() == [1, 0]
        assert r.respondent_age.dtype == np.float64 and r.partner_age.dtype == np.float64

    @pytest.mark.parametrize(
        "age,sex,partner,message",
        [
            (70.0, 0, 41.0, r"respondent_age must be in \[15, 64\], got 70.0"),
            (14.9, 1, 30.0, r"respondent_age must be in \[15, 64\], got 14.9"),
            (30.0, 2, 30.0, r"respondent_sex must be 0 or 1, got 2"),
            (30.0, 1, 0.0, r"partner_age must be in \(0, 150\), got 0.0"),
            (30.0, 1, 150.0, r"partner_age must be in \(0, 150\), got 150.0"),
        ],
    )
    def test_invalid_names_first_bad_row(self, age, sex, partner, message):
        with pytest.raises(RecordError, match="record 1: " + message):
            rows((30.0, 0, 41.0), (age, sex, partner), (70.0, 5, 0.0))

    def test_fractional_sex_rejected(self):
        with pytest.raises(RecordError, match="respondent_sex must be 0 or 1, got 0.5"):
            Records([30.0], [0.5], [40.0])

    def test_unequal_columns_rejected(self):
        with pytest.raises(RecordError, match="equal length"):
            Records([30.0, 31.0], [1], [40.0, 41.0])

    def test_columns_are_read_only_copies(self):
        ages = np.array([30.0, 31.0])
        r = Records(ages, [1, 0], [40.0, 41.0])
        ages[0] = 99.0
        assert r.respondent_age[0] == 30.0
        with pytest.raises(ValueError):
            r.partner_age[0] = 50.0

    def test_slices_and_index_arrays_return_records(self):
        r = rows((30.0, 1, 41.0), (25.0, 0, 22.0), (44.5, 1, 50.0))
        assert_same_records(r[1:], rows((25.0, 0, 22.0), (44.5, 1, 50.0)))
        assert_same_records(r[np.array([2, 0])], rows((44.5, 1, 50.0), (30.0, 1, 41.0)))
        assert_same_records(r[r.respondent_sex == 1], rows((30.0, 1, 41.0), (44.5, 1, 50.0)))
        assert len(r[:0]) == 0

    def test_single_position_rejected(self):
        r = rows((30.0, 1, 41.0))
        with pytest.raises(RecordError, match="1-D"):
            r[0]


class TestCsv:
    def test_round_trip(self, tmp_path, tiny_records):
        path = tmp_path / "r.csv"
        save_csv(tiny_records, path)
        assert_same_records(load_csv(path), tiny_records)

    def test_round_trip_non_integer_ages(self, tmp_path):
        cfg = dataclasses.replace(default_config(n=300, seed=31), integer_ages=False)
        records = simulate(cfg)
        path = tmp_path / "r.csv"
        save_csv(records, path)
        lines = path.read_bytes().split(b"\r\n")
        age, sex, partner = records.respondent_age[0], records.respondent_sex[0], records.partner_age[0]
        assert not float(partner).is_integer()
        assert lines[1] == f"{int(age)},{sex},{float(partner)!r}".encode()
        assert_same_records(load_csv(path), records)

    def test_writes_whole_ages_as_integers_with_crlf(self, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(rows((30.0, 1, 41.0), (44.5, 0, 22.25)), path)
        assert path.read_bytes() == (
            b"respondent_age,respondent_sex,partner_age\r\n30,1,41\r\n44.5,0,22.25\r\n"
        )

    def test_each_record_written_as_its_own_fields_across_write_blocks(self, tmp_path):
        # more records than one write block, whole and fractional ages of both sexes
        rng = np.random.default_rng(2)
        n = 70_000
        ages = rng.integers(15, 64, n) + np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        partners = rng.integers(1, 149, n) + np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        sexes = rng.integers(0, 2, n)
        path = tmp_path / "r.csv"
        save_csv(Records(ages, sexes, partners), path)

        def text(v):
            return str(int(v)) if v.is_integer() else repr(v)

        lines = [f"{text(a)},{s},{text(p)}\r\n" for a, s, p in zip(ages.tolist(), sexes.tolist(), partners.tolist())]
        assert path.read_bytes() == (HEADER.replace("\n", "\r\n") + "".join(lines)).encode()

    def test_well_formed_rows_in_order(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(HEADER + "30,1,41\n25,0,22\n44.5,1,50\n")
        assert_same_records(load_csv(path), rows((30.0, 1, 41.0), (25.0, 0, 22.0), (44.5, 1, 50.0)))

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(HEADER)
        assert len(load_csv(path)) == 0

    def test_blank_bodies_and_trailing_blank_lines_load_without_warnings(self, tmp_path):
        path = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for body in ("", "\n", "\r\n\r\n\n"):
                path.write_bytes((HEADER + body).encode())
                assert_same_records(load_csv(path), Records([], [], []))
            path.write_bytes((HEADER + "30,1,41\r\n25,0,22\r\n\r\n\n").encode())
            assert_same_records(load_csv(path), rows((30.0, 1, 41.0), (25.0, 0, 22.0)))

    def test_range_error_strict_names_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(HEADER + "30,1,41\n70,0,41\n")
        with pytest.raises(CsvError, match="line 3"):
            load_csv(path)

    # lines 3 and 9 are blank; line 5 holds an out-of-range value, line 6 a
    # wrong field count and line 7 a non-numeric field
    MIXED = HEADER + "30,1,41\n\n25,0,22\n30,1,150\n30,1\nbogus,0,41\n31,0,33\n\n40,1,38\n"

    def test_strict_names_every_malformed_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.MIXED)
        with pytest.raises(CsvError) as info:
            load_csv(path)
        message = str(info.value)
        assert "3 malformed row(s)" in message
        assert message.endswith(
            "line 5: partner_age must be in (0, 150), got 150.0; "
            "line 6: expected 3 fields, got 2; "
            "line 7: could not convert string to float: 'bogus'"
        )

    def test_quoted_fields_and_fractional_sex(self, tmp_path):
        # the csv module unquotes fields; 1.0 is sex 1, a fractional sex is
        # malformed, whether the file takes the row-by-row parse (quotes) or not
        path = tmp_path / "r.csv"
        only_line_3 = r"1 malformed row\(s\): line 3: respondent_sex must be 0 or 1, got 0.7$"
        for first in ('"30",1.0,41', "30,1.0,41"):
            path.write_text(HEADER + first + "\n25,0.7,22\n31,0,40\n")
            with pytest.raises(CsvError, match=only_line_3):
                load_csv(path)

    @pytest.mark.parametrize("first", ["30,1,41", '"30",1,41'])  # the one-pass parse and the row-by-row one
    def test_byte_order_mark_is_skipped(self, tmp_path, first):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        body = HEADER + first + "\n25,0,22\n44.5,1,50\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert_same_records(load_csv(marked), load_csv(plain))
        assert_same_records(load_csv(marked), rows((30.0, 1, 41.0), (25.0, 0, 22.0), (44.5, 1, 50.0)))

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n30,1,41\n")
        with pytest.raises(CsvError, match="header"):
            load_csv(path)


class TestStratify:
    def test_boundary_convention(self):
        out = stratify(rows((20.0, 0, 30.0), (24.9, 0, 30.0), (25.0, 0, 30.0)))
        assert len(out[SubsetKey(0, 20)]) == 2
        assert len(out[SubsetKey(0, 25)]) == 1

    def test_out_of_range_excluded(self):
        assert stratify(rows((19.0, 0, 30.0), (50.0, 1, 30.0))) == {}

    def test_partition(self, small_records):
        out = stratify(small_records)
        whole = np.floor(small_records.respondent_age)
        in_range = (whole >= 20) & (whole < 50)
        # every in-range record lands in exactly one cell, in record order
        cell = np.full(len(small_records), -1)
        for n, (key, recs) in enumerate(out.items()):
            in_bin = (whole >= key.bin_start) & (whole < key.bin_start + 5)
            mask = in_range & in_bin & (small_records.respondent_sex == key.sex)
            assert_same_records(recs, small_records[mask])
            assert np.all(cell[mask] == -1)
            cell[mask] = n
        assert np.all((cell >= 0) == in_range)
        assert list(out) == sorted(out)

    def test_twelve_subsets_with_full_coverage(self, small_records):
        out = stratify(small_records)
        assert len(out) == 12
        assert {k.bin_start for k in out} == set(BIN_STARTS)

    def test_subset_key_labels(self):
        key = SubsetKey(1, 35)
        assert key.bin_label == "35-39"
        assert str(key) == "female 35-39"


class TestGeneratorConfig:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            GeneratorConfig(
                n=10,
                seed=0,
                family=Family.NORMAL,
                transform=Transform(TransformKind.LINEAR_AGE),
                spec=ModelSpec(ModelTag.CONVENTIONAL),
                coefficients={"mu": [1.0, 2.0], "sigma": [0.0]},
            )

    def test_missing_slot_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            GeneratorConfig(
                n=10,
                seed=0,
                family=Family.NORMAL,
                transform=Transform(TransformKind.LINEAR_AGE),
                spec=ModelSpec(ModelTag.CONVENTIONAL),
                coefficients={"mu": [1.0, 2.0, 3.0, 4.0]},
            )

    def test_overrides_are_validated(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(default_config(n=30, seed=2).to_dict()))
        for n in (0, -5):
            with pytest.raises(ValueError, match="n must be >= 1"):
                default_config(n=n)
            with pytest.raises(ValueError, match="n must be >= 1"):
                GeneratorConfig.from_json_file(path, n=n)
        cfg = GeneratorConfig.from_json_file(path, n=7, seed=4)
        assert (cfg.n, cfg.seed) == (7, 4)
        assert cfg.to_dict() == default_config(n=7, seed=4).to_dict()

    def test_frozen_after_validation(self):
        # a field set after validation would skip it: n = 0 made simulate return no records
        cfg = default_config(n=10, seed=1)
        for field, value in (("n", 0), ("heaping", 3.0), ("seed", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field, value)
        assert (cfg.n, cfg.heaping, cfg.seed) == (10, 0.0, 1)

    @pytest.mark.parametrize("field,value,match", [
        ("n", 0, "n must be >= 1"),
        ("heaping", 3.0, "heaping must be"),
        ("seed", -1, "seed must be >= 0"),
        ("sex_ratio", 3.0, "sex_ratio must be in"),
        ("sex_ratio", math.nan, "sex_ratio must be in"),
        ("age_weights", [1.0] * 10, "age_weights must be 50"),
        ("age_weights", [1.0] * 49 + [-1.0], "age_weights must be 50"),
        ("age_weights", [0.0] * 50, "age_weights must be 50"),
        ("age_weights", [1.0] * 49 + [math.nan], "age_weights must be 50"),
    ], ids=["n-0", "heaping-3", "seed-negative", "sex_ratio-3", "sex_ratio-nan", "age_weights-ten", "age_weights-negative",
            "age_weights-zeros", "age_weights-nan"])
    def test_replace_validates_again(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(default_config(n=10, seed=1), **{field: value})
        assert len(simulate(dataclasses.replace(default_config(n=10, seed=1), n=3))) == 3

    def test_json_round_trip(self):
        cfg = default_config(n=100, seed=3)
        again = GeneratorConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()


class TestSimulate:
    # n = 20,000 records at seed 5 under the default truth and three variants
    CONFIGS = {
        "default": {},
        "heaping": {"heaping": 0.3},
        "fractional": {"integer_ages": False},
        "weighted-fractional": {"age_weights": np.linspace(1.0, 3.0, 50), "integer_ages": False},
    }
    # SHA-256 of save_csv(simulate(cfg)). Rounded partner ages absorb the last-bit
    # differences between numpy's float64 exp, sinh and arcsinh kernels (AVX-512 or
    # not), so these hold on any x86-64 machine; fractional ones differ between them
    GOLDEN = {
        "default": "36aca4f1ae268feaaff29a4bf6870acf9575cfd96035f6b9e3ff57ba5b3a617a",
        "heaping": "be647a94a4559bd952f842020b2f8322f1424c158dee4a6912fb27e4616f9aed",
    }

    def simulated_bytes(self, name, path) -> bytes:
        cfg = dataclasses.replace(default_config(n=20_000, seed=5), **self.CONFIGS[name])
        save_csv(simulate(cfg), path)
        return path.read_bytes()

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_bytes(self, tmp_path, name):
        digest = hashlib.sha256(self.simulated_bytes(name, tmp_path / "sim.csv")).hexdigest()
        assert digest == self.GOLDEN[name]

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_cells_give_the_bytes_of_per_record_design_rows(self, tmp_path, monkeypatch, name):
        # every record its own cell: the full n x width design matrix per slot
        per_cell = self.simulated_bytes(name, tmp_path / "cells.csv")

        def per_record(spec, slots, ages, sexes, center):
            return design_matrices(spec, ages, sexes, slots=slots, center=center), np.arange(len(ages))

        monkeypatch.setattr(agemix.data_io, "_design_cells", per_record)
        assert self.simulated_bytes(name, tmp_path / "records.csv") == per_cell

    # a truth whose skew and light tails put about a tenth of the partner ages above 149
    CLIPPING = {"epsilon": [-0.8, -0.5, -0.004, 0.002], "delta": [-0.5, 0.05, 0.004, 0.0]}

    def clipping_config(self, n):
        cfg = default_config(n=n, seed=5)
        return dataclasses.replace(cfg, coefficients={**cfg.coefficients, **self.CLIPPING})

    def test_clipped_partner_ages_are_counted(self, tmp_path):
        with pytest.warns(RuntimeWarning, match=r"clipped 2044 of 20000 partner ages into \[1, 149\]") as caught:
            records, n_clipped = simulate(self.clipping_config(20_000), return_clipped=True)
        assert n_clipped == 2044 and len(caught) == 1
        # the bytes that simulate wrote before it counted the clipped ages
        save_csv(records, tmp_path / "sim.csv")
        digest = hashlib.sha256((tmp_path / "sim.csv").read_bytes()).hexdigest()
        assert digest == "ca441614b2ba2b24e0756c1cc00458b4fc6979dd75c203b677785d2d5e4cffa2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, n_clipped = simulate(default_config(n=20_000, seed=5), return_clipped=True)
        assert n_clipped == 0

    def test_memory_bounded_per_record(self):
        # design rows are built per (age, sex) cell, not per record
        cfg = default_config(n=100_000, seed=3)
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * cfg.n) <= 20

    def test_bit_reproducible(self):
        cfg = default_config(n=500, seed=11)
        assert_same_records(simulate(cfg), simulate(cfg))

    def test_seed_changes_output(self):
        a = simulate(default_config(n=500, seed=11))
        b = simulate(default_config(n=500, seed=12))
        assert not np.array_equal(a.partner_age, b.partner_age)

    def test_no_heaping_when_intensity_zero(self):
        cfg = default_config(n=30_000, seed=4)
        assert heaping_index(simulate(cfg)) < 0.02

    def test_full_heaping(self):
        cfg = dataclasses.replace(default_config(n=2_000, seed=4), heaping=1.0)
        records = simulate(cfg)
        offsets = (records.partner_age.astype(int) - records.respondent_age.astype(int)) % 5
        # offsets not at 0 can only come from the boundary guard (rare clips)
        assert np.count_nonzero(offsets == 0) >= 0.999 * len(records)

    def test_truth_mean_oracle(self):
        # mu row (1, s, a, s*a) with coefficients (2, 0, 1.05, -0.1):
        # female aged 30 -> 2 + 0 + 31.5 - 3 = 30.5
        cfg = GeneratorConfig(
            n=100_000,
            seed=21,
            family=Family.NORMAL,
            transform=Transform(TransformKind.LINEAR_AGE),
            spec=ModelSpec(ModelTag.CONVENTIONAL),
            coefficients={"mu": [2.0, 0.0, 1.05, -0.1], "sigma": [0.0]},
        )
        records = simulate(cfg)
        subset = records.partner_age[(records.respondent_sex == 1) & (records.respondent_age == 30.0)]
        assert len(subset) > 500
        assert np.mean(subset) == pytest.approx(30.5, abs=0.1)

    def test_integer_ages_by_default(self):
        records = simulate(default_config(n=200, seed=5))
        assert np.all(records.partner_age == np.round(records.partner_age))
        assert np.all(records.respondent_age == np.round(records.respondent_age))

    def test_invariants_hold(self):
        records = simulate(default_config(n=5_000, seed=6))
        assert np.all((15 <= records.respondent_age) & (records.respondent_age <= 64))
        assert np.all((0 < records.partner_age) & (records.partner_age < 150))
