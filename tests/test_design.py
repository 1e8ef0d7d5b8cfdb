import json

import numpy as np
import pytest

from agemix.design import (
    AGE_CENTER,
    ModelSpec,
    ModelTag,
    design_matrices,
    slot_recipes,
    spline_basis,
    uncenter_matrix,
)

BOUNDARY = (15.0, 64.0)
KNOTS5 = tuple(15 + 49 * (i + 1) / 6 for i in range(5))


class TestSplineBasis:
    def test_dimension(self):
        b = spline_basis(30.0, KNOTS5, BOUNDARY)
        assert b.shape == (6,)

    def test_second_derivative_zero_at_boundaries(self):
        h = 1e-4
        for knot in BOUNDARY:
            f2 = (
                spline_basis(knot + h, KNOTS5, BOUNDARY)
                - 2 * spline_basis(knot, KNOTS5, BOUNDARY)
                + spline_basis(knot - h, KNOTS5, BOUNDARY)
            ) / h**2
            assert np.max(np.abs(f2)) < 1e-5

    def test_linear_tail_beyond_boundary(self):
        h = 1e-5
        b_hi = spline_basis(64.0, KNOTS5, BOUNDARY)
        slope = (spline_basis(64.0 + h, KNOTS5, BOUNDARY) - spline_basis(64.0 - h, KNOTS5, BOUNDARY)) / (2 * h)
        for a in (70.0, 90.0):
            extrapolated = b_hi + slope * (a - 64.0)
            assert np.max(np.abs(spline_basis(a, KNOTS5, BOUNDARY) - extrapolated)) < 1e-9

    def test_least_squares_interpolation_oracle(self):
        ages = np.linspace(15, 64, 200)
        basis = spline_basis(ages, KNOTS5, BOUNDARY)
        x = np.column_stack([np.ones_like(ages), basis])
        y = np.sin(ages / 10.0)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.max(np.abs(x @ coef - y)) < 0.05

    def test_non_monotone_knots_rejected(self):
        with pytest.raises(ValueError):
            spline_basis(30.0, (40.0, 20.0), BOUNDARY)
        with pytest.raises(ValueError):
            spline_basis(30.0, (10.0, 20.0), BOUNDARY)


def design_row(spec, age, sex):
    """Uncentered design row of one observation, per slot."""
    return {slot: x[0] for slot, x in design_matrices(spec, [age], [sex], center=False).items()}


class TestDesignRows:
    def test_conventional_rows(self):
        row = design_row(ModelSpec(ModelTag.CONVENTIONAL), 30.0, 1)
        np.testing.assert_array_equal(row["mu"], [1.0, 1.0, 30.0, 30.0])
        for slot in ("sigma", "epsilon", "delta"):
            np.testing.assert_array_equal(row[slot], [1.0])

    def test_distributional2_rows(self):
        row = design_row(ModelSpec(ModelTag.DISTRIBUTIONAL_2), 20.0, 0)
        for slot in ("mu", "sigma", "epsilon", "delta"):
            np.testing.assert_array_equal(row[slot], [1.0, 0.0, 20.0, 0.0])

    def test_distributional1_rows(self):
        row = design_row(ModelSpec(ModelTag.DISTRIBUTIONAL_1), 25.0, 1)
        np.testing.assert_array_equal(row["mu"], [1.0, 1.0, 25.0, 25.0])
        np.testing.assert_array_equal(row["sigma"], [1.0, 1.0, 25.0])

    def test_male_spline_interaction_block_is_zero(self):
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_4)
        row = design_row(spec, 33.0, 0)
        k = spec.interior_knots + 1
        # layout: (1, s, phi_1..phi_K, s*phi_1..s*phi_K)
        assert row["mu"].shape == (2 + 2 * k,)
        assert row["mu"][1] == 0.0
        np.testing.assert_array_equal(row["mu"][2 + k :], np.zeros(k))
        assert np.any(row["mu"][2 : 2 + k] != 0)

    def test_female_spline_interaction_mirrors_main_block(self):
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_3)
        row = design_row(spec, 41.0, 1)
        k = spec.interior_knots + 1
        np.testing.assert_array_equal(row["mu"][2 : 2 + k], row["mu"][2 + k :])

    def test_row_lengths_constant_and_pure(self):
        rng = np.random.default_rng(0)
        for tag in ModelTag:
            spec = ModelSpec(tag)
            widths = None
            for _ in range(5):
                a, s = rng.uniform(15, 64), int(rng.integers(0, 2))
                row = design_row(spec, a, s)
                got = tuple(row[slot].shape[0] for slot in ("mu", "sigma", "epsilon", "delta"))
                widths = widths or got
                assert got == widths
            again = design_row(spec, 30.0, 1)
            np.testing.assert_array_equal(again["mu"], design_row(spec, 30.0, 1)["mu"])


class TestModelSpec:
    def test_json_round_trip(self):
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_3, interior_knots=4, boundary=(18.0, 60.0), knots=(25.0, 33.0, 41.0, 52.0))
        again = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_knots_from_age_quantiles(self):
        ages = np.concatenate([np.full(100, 20.0), np.full(100, 30.0), np.full(100, 44.0), np.full(100, 58.0)])
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_4).with_knots_from_ages(ages)
        assert spec.knots is not None and len(spec.knots) == 5
        assert all(15.0 < k < 64.0 for k in spec.knots)
        assert list(spec.knots) == sorted(spec.knots)

    @pytest.mark.parametrize("ages", [np.full(50, 30.0), np.empty(0)], ids=["degenerate", "empty"])
    def test_degenerate_ages_fall_back_to_even_spacing(self, ages):
        spec = ModelSpec(ModelTag.DISTRIBUTIONAL_4).with_knots_from_ages(ages)
        assert spec.knots == ModelSpec(ModelTag.DISTRIBUTIONAL_4).resolved().knots

    def test_invalid_boundary(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelTag.CONVENTIONAL, boundary=(64.0, 15.0))


class TestCentering:
    @pytest.mark.parametrize("tag", list(ModelTag))
    def test_uncenter_matrix_translates_exactly(self, tag):
        spec = ModelSpec(tag).resolved()
        rng = np.random.default_rng(1)
        ages = rng.uniform(15, 64, 40)
        sexes = rng.integers(0, 2, 40)
        for slot, recipe in slot_recipes(spec).items():
            xc = design_matrices(spec, ages, sexes, slots=(slot,), center=True)[slot]
            xu = design_matrices(spec, ages, sexes, slots=(slot,), center=False)[slot]
            m = uncenter_matrix(spec, slot)
            c = rng.standard_normal(xc.shape[1])
            np.testing.assert_allclose(xu @ (m @ c), xc @ c, rtol=1e-12, atol=1e-12)

    def test_centering_shifts_age_column(self):
        spec = ModelSpec(ModelTag.CONVENTIONAL)
        xc = design_matrices(spec, [40.0], [1], slots=("mu",), center=True)["mu"]
        np.testing.assert_array_equal(xc[0], [1.0, 1.0, 40.0 - AGE_CENTER, 40.0 - AGE_CENTER])
