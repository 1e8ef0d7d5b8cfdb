import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import norm

from agemix.transforms import (
    Transform,
    TransformError,
    TransformKind,
    forward_array,
    inverse_array,
    log_jacobian_array,
)

ALL_KINDS = list(TransformKind)


def t(kind):
    return Transform(kind)


class TestForward:
    def test_log_ratio(self):
        assert forward_array(t(TransformKind.LOG_RATIO), [20], [0], [30]) == pytest.approx([math.log(1.5)], abs=1e-10)

    def test_gamma_reflection_male(self):
        assert forward_array(t(TransformKind.GAMMA_REFLECTED), [40], [0], [25]) == [125.0]

    def test_gamma_reflection_leaves_female_unchanged(self):
        assert forward_array(t(TransformKind.GAMMA_REFLECTED), [40], [1], [25]) == [25.0]

    def test_age_difference_identity_case(self):
        assert forward_array(t(TransformKind.AGE_DIFFERENCE), [40], [1], [40]) == [0.0]

    def test_beta_rescale(self):
        assert forward_array(t(TransformKind.BETA_RESCALED), [30], [1], [30]) == pytest.approx([0.2])

    def test_log_age_domain_error_names_record(self):
        with pytest.raises(TransformError, match="partner_age"):
            forward_array(t(TransformKind.LOG_AGE), [30], [1], [-2.0])

    def test_beta_rescale_domain_error(self):
        with pytest.raises(TransformError):
            forward_array(t(TransformKind.BETA_RESCALED), [30], [1], [151.0])

    def test_array_matches_one_record_at_a_time(self):
        ages = np.array([20.0, 35.0, 50.0])
        sexes = np.array([0, 1, 0])
        partners = np.array([25.0, 30.0, 45.0])
        for kind in ALL_KINDS:
            got = forward_array(t(kind), ages, sexes, partners)
            want = [forward_array(t(kind), [a], [s], [p])[0] for a, s, p in zip(ages, sexes, partners)]
            np.testing.assert_allclose(got, want, rtol=0, atol=0)


class TestInverse:
    def test_log_ratio_round_trip_value(self):
        assert inverse_array(t(TransformKind.LOG_RATIO), [20], [0], [0.4054651081081644]) == pytest.approx([30.0], abs=1e-9)

    def test_gamma_reflection_round_trip(self):
        assert inverse_array(t(TransformKind.GAMMA_REFLECTED), [40], [0], [125.0]) == [25.0]

    def test_beta_rescale(self):
        assert inverse_array(t(TransformKind.BETA_RESCALED), [40], [1], [0.2]) == pytest.approx([30.0])

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        age=st.floats(15, 64),
        sex=st.integers(0, 1),
        partner=st.floats(0.5, 149.0),
    )
    def test_round_trip_property(self, kind, age, sex, partner):
        y = forward_array(t(kind), [age], [sex], [partner])
        back = inverse_array(t(kind), [age], [sex], y)
        assert back == pytest.approx([partner], rel=1e-12, abs=1e-12)


class TestLogJacobian:
    def test_log_age(self):
        assert log_jacobian_array(t(TransformKind.LOG_AGE), [30], [0], [20]) == pytest.approx([-2.99573227], abs=1e-8)

    def test_unit_slope_transforms(self):
        for kind in (TransformKind.LINEAR_AGE, TransformKind.AGE_DIFFERENCE, TransformKind.GAMMA_REFLECTED):
            assert log_jacobian_array(t(kind), [30], [0], [27]) == [0.0]

    def test_beta_rescale_constant(self):
        assert log_jacobian_array(t(TransformKind.BETA_RESCALED), [30], [0], [27]) == pytest.approx([-math.log(150)])

    @pytest.mark.parametrize(
        "kind,density,p_range",
        [
            (TransformKind.LOG_AGE, lambda y: norm.pdf(y, loc=3.4, scale=0.3), (1e-6, 200.0)),
            (TransformKind.LOG_RATIO, lambda y: norm.pdf(y, loc=0.1, scale=0.25), (1e-6, 400.0)),
            (TransformKind.AGE_DIFFERENCE, lambda y: norm.pdf(y, loc=3, scale=5), (-160.0, 200.0)),
            (TransformKind.BETA_RESCALED, lambda y: beta_dist.pdf(y, 4, 12), (1e-9, 150.0 - 1e-9)),
        ],
    )
    def test_change_of_variables_normalizes(self, kind, density, p_range):
        # the density of y pushed onto the partner-age scale must stay a density
        age, sex = 30.0, 1

        def partner_density(p):
            y = forward_array(t(kind), [age], [sex], [p])[0]
            return density(y) * math.exp(log_jacobian_array(t(kind), [age], [sex], [p])[0])

        total, _ = quad(partner_density, *p_range, limit=400)
        assert total == pytest.approx(1.0, abs=1e-5)
