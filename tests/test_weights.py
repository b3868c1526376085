"""Moderate weights: evaluation, certification, and the convolution bound."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from chlab.config import ConfigError, TrackedWeight, scenario_from_dict
from chlab.field import Field, Grid
from chlab.weights import (
    CertifyConfig,
    OneSided,
    StandardFamily,
    Tabulated,
    Truncated,
    certify_admissible,
    check_weighted_young,
    moderate_ratio,
    submultiplicative_ratio,
    threshold_weight,
    weighted_lp_norm,
)
from helpers import compact_random

# admissible corner of the family: growth at most exponential
admissible_params = {
    "a": st.floats(0.0, 1.0),
    "b": st.floats(0.0, 1.0),
    "c": st.floats(0.0, 4.0),
    "d": st.floats(0.0, 3.0),
}

points = st.floats(-30.0, 30.0, allow_nan=False)


class TestEvaluation:
    def test_standard_family_closed_form(self):
        w = StandardFamily(a=0.5, b=1.0, c=2.0, d=1.0)
        for x in (-2.0, 0.0, 0.3, 7.5):
            expected = (
                math.exp(0.5 * abs(x))
                * (1.0 + abs(x)) ** 2
                * math.log(math.e + abs(x))
            )
            assert w.value(x) == pytest.approx(expected, rel=1e-12)

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.1, 1.0),
           c=st.floats(0.0, 4.0), d=st.floats(0.0, 3.0))
    def test_even_and_at_least_one(self, a, b, c, d):
        w = StandardFamily(a=a, b=b, c=c, d=d)
        xs = np.array([0.5, 1.0, 3.0, 10.0])
        assert np.allclose(w.value(xs), w.value(-xs), rtol=1e-12)
        assert np.all(w.value(xs) >= 1.0)
        assert w.value(0.0) == pytest.approx(1.0)

    def test_negative_growth_exponent_rejected(self):
        with pytest.raises(ValueError, match="b must be"):
            StandardFamily(b=-0.5)

    def test_one_sided_flat_left_exponential_right(self):
        w = OneSided(a=0.5)
        assert w.value(-5.0) == 1.0
        assert w.value(3.0) == pytest.approx(math.exp(1.5), rel=1e-12)
        assert w.log_derivative(-1.0) == 0.0
        assert w.log_derivative(1.0) == 0.5

    def test_huge_weight_overflows_to_inf_not_garbage(self):
        w = StandardFamily(a=1.0, b=1.0)
        assert w.value(1e4) == math.inf


class TestTabulated:
    def test_interpolates_between_nodes(self):
        w = Tabulated(np.array([-1.0, 0.0, 1.0]), np.array([2.0, 1.0, 2.0]))
        assert w.value(0.5) == pytest.approx(1.5)
        assert w.value(-1.0) == pytest.approx(2.0)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="increasing"):
            Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            Tabulated(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="matching"):
            Tabulated(np.array([0.0, 1.0]), np.array([1.0]))

    def test_out_of_range_evaluation_is_an_error(self):
        w = Tabulated(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="outside"):
            w.value(2.0)


class TestTruncation:
    base = StandardFamily(a=0.5, b=1.0, c=1.0)

    def test_clamps_exactly_at_cap(self):
        t = Truncated(self.base, 10.0)
        big = self.base.value(30.0)
        assert big > 10.0
        assert t.value(30.0) == 10.0
        assert t.value(0.0) == self.base.value(0.0)

    @given(points)
    def test_never_exceeds_cap_or_base(self, x):
        t = Truncated(self.base, 7.5)
        v = t.value(x)
        assert v <= 7.5 + 1e-12
        assert v <= self.base.value(x) + 1e-12

    @given(points, st.floats(0.5, 50.0), st.floats(0.5, 50.0))
    def test_monotone_in_the_cap(self, x, cap1, cap2):
        lo, hi = sorted((cap1, cap2))
        assert (
            Truncated(self.base, lo).value(x)
            <= Truncated(self.base, hi).value(x) + 1e-12
        )

    def test_log_derivative_vanishes_where_clamped(self):
        t = Truncated(self.base, 2.0)
        assert t.log_derivative(20.0) == 0.0
        assert t.log_derivative(0.1) == self.base.log_derivative(0.1)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            Truncated(self.base, 0.0)


class TestSubmultiplicativity:
    @given(x=points, y=points, **admissible_params)
    def test_admissible_family_ratio_at_most_one(self, x, y, a, b, c, d):
        w = StandardFamily(a=a, b=b, c=c, d=d)
        assert submultiplicative_ratio(w, x, y) <= 1.0 + 1e-12

    @given(points, points)
    def test_moderate_self_ratio_equals_submultiplicative(self, x, y):
        w = StandardFamily(a=0.5, b=1.0, c=1.0, d=1.0)
        assert moderate_ratio(w, w, x, y) == pytest.approx(
            submultiplicative_ratio(w, x, y), rel=1e-12
        )

    def test_superexponential_weight_violates_submultiplicativity(self):
        w = StandardFamily(a=0.1, b=2.0)  # e^{0.1 x^2}
        assert submultiplicative_ratio(w, 10.0, 10.0) > 1.0
        assert not w.certifiable


class TestCertification:
    def test_subcritical_exponential_certificate(self):
        w = StandardFamily(a=0.5, b=1.0)
        cert = certify_admissible(w, w)
        assert cert.admissible
        assert cert.C0 == pytest.approx(1.0, abs=1e-9)
        assert cert.A == pytest.approx(0.5, abs=1e-9)
        assert cert.v_submultiplicative_ratio <= 1.0 + 1e-12
        # integral of e^{|x|/2} e^{-|x|} = integral of e^{-|x|/2} = 4
        assert cert.integral_v_exp == pytest.approx(4.0, abs=1e-8)
        assert cert.lp_v_exp[2.0] == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert cert.lp_v_exp[math.inf] == pytest.approx(1.0, abs=1e-12)
        assert cert.quadrature_converged and not cert.overflowed

    def test_polynomial_certificate_with_analytic_integral(self):
        w = StandardFamily(c=2.0)
        cert = certify_admissible(w, w)
        assert cert.admissible
        # integral of (1+|x|)^2 e^{-|x|} = 2 (1 + 2 + 2) = 10
        assert cert.integral_v_exp == pytest.approx(10.0, abs=1e-7)
        assert cert.A <= 2.0 + 1e-9  # sup 2/(1+|x|) = 2

    def test_threshold_weight_certificate_vs_quadrature_oracle(self):
        w = threshold_weight(1.0)
        cert = certify_admissible(w, w)
        assert cert.admissible
        oracle, err = quad(
            lambda x: math.exp(-x / 2.0)
            * math.sqrt(1.0 + x)
            * math.log(math.e + x),
            0.0,
            np.inf,
        )
        assert cert.integral_v_exp == pytest.approx(2.0 * oracle, abs=1e-6)
        assert err < 1e-8

    def test_critical_exponential_is_rejected_but_keeps_sup_route(self):
        w = StandardFamily(a=1.0, b=1.0)  # e^{|x|}
        cert = certify_admissible(w, w)
        assert not cert.admissible
        assert not cert.quadrature_converged
        assert cert.integral_v_exp == math.inf
        # sup of v(x) e^{-|x|} = 1 survives: the L^infinity route stays open
        assert cert.lp_v_exp[math.inf] == pytest.approx(1.0, abs=1e-12)

    def test_one_sided_weight_with_exponential_majorant(self):
        cert = certify_admissible(OneSided(a=0.5), StandardFamily(a=0.5, b=1.0))
        assert cert.admissible
        assert cert.C0 == pytest.approx(1.0, abs=1e-9)

    def test_certificate_record_is_bit_reproducible(self):
        w = threshold_weight(1.0)
        cfg = CertifyConfig(sample_count=2000)
        a = certify_admissible(w, w, cfg).as_record()
        b = certify_admissible(w, w, cfg).as_record()
        assert a == b


class TestWeightedNorms:
    grid = Grid(16.0, 512)

    def test_sup_norm_matches_direct_maximum(self):
        u = Field(self.grid, np.exp(-self.grid.x**2))
        w = StandardFamily(c=2.0)
        direct = float(np.max(np.abs(u.values) * w.value(self.grid.x)))
        assert weighted_lp_norm(u, w, math.inf) == pytest.approx(direct)

    def test_l2_norm_matches_direct_sum(self):
        u = Field(self.grid, np.exp(-self.grid.x**2))
        w = StandardFamily(a=0.25, b=1.0)
        weighted = np.abs(u.values) * w.value(self.grid.x)
        direct = math.sqrt(float(np.sum(weighted**2)) * self.grid.dx)
        assert weighted_lp_norm(u, w, 2.0) == pytest.approx(direct, rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 8.0))
    def test_absolutely_homogeneous(self, seed, p):
        u = compact_random(self.grid, np.random.default_rng(seed))
        w = StandardFamily(c=1.0)
        assert weighted_lp_norm(Field(self.grid, 3.0 * u.values), w, p) == (
            pytest.approx(3.0 * weighted_lp_norm(u, w, p), rel=1e-12)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, s1, s2):
        u = compact_random(self.grid, np.random.default_rng(s1))
        v = compact_random(self.grid, np.random.default_rng(s2))
        w = StandardFamily(a=0.5, b=1.0)
        for p in (1.0, 2.0, math.inf):
            lhs = weighted_lp_norm(Field(self.grid, u.values + v.values), w, p)
            rhs = weighted_lp_norm(u, w, p) + weighted_lp_norm(v, w, p)
            assert lhs <= rhs * (1 + 1e-12) + 1e-15

    def test_exponent_below_one_rejected(self):
        u = Field(self.grid, np.zeros(self.grid.N))
        with pytest.raises(ValueError, match="p must be"):
            weighted_lp_norm(u, StandardFamily(), 0.5)


@functools.lru_cache(maxsize=None)
def young_certificate(phi):
    """The certificate depends only on phi: make it once per case, not
    once per hypothesis example."""
    return certify_admissible(phi, phi, CertifyConfig(sample_count=2000))


class TestWeightedYoung:
    """||(f1*f2) phi||_p <= C0 ||f1 v||_1 ||f2 phi||_p on compactly
    supported samples (support in |x| < L/4 keeps the circular convolution
    equal to the line convolution)."""

    grid = Grid(16.0, 512)

    young_cases = [
        (StandardFamily(a=0.5, b=1.0), 2.0),
        (StandardFamily(c=2.0), math.inf),
        (threshold_weight(1.0), math.inf),
    ]

    @pytest.mark.parametrize("phi,p", young_cases)
    @given(st.integers(0, 2**32 - 1))
    def test_inequality_holds_on_random_pairs(self, phi, p, seed):
        rng = np.random.default_rng(seed)
        f1 = compact_random(self.grid, rng)
        f2 = compact_random(self.grid, rng)
        cert = young_certificate(phi)
        report = check_weighted_young(f1, f2, phi, phi, p, C0=cert.C0)
        assert report.passed, (report.lhs, report.rhs)
        assert report.lhs <= report.rhs + report.slack


class TestSerialization:
    """Weights survive the scenario config echo (the only serializer)."""

    base = scenario_from_dict({
        "name": "echo", "grid": {"L": 20.0, "N": 256},
        "initial_data": {"kind": "gaussian"}, "solver": {"t_end": 0.1}})

    def echoed(self, w):
        s = replace(self.base, weights_to_track=(TrackedWeight(w, 2.0),))
        return scenario_from_dict(s.effective_config()).weights_to_track[0].weight

    round_trip_weights = [
        StandardFamily(a=0.5, b=1.0, c=0.5, d=1.0),
        OneSided(a=0.25),
        Truncated(StandardFamily(c=2.0), 50.0),
    ]

    @pytest.mark.parametrize("w", round_trip_weights)
    def test_dict_round_trip(self, w):
        back = self.echoed(w)
        assert back == w
        xs = np.linspace(-20.0, 20.0, 101)
        assert np.array_equal(back.value(xs), w.value(xs))

    def test_tabulated_round_trip(self):
        w = Tabulated(np.array([-2.0, 0.0, 2.0]), np.array([3.0, 1.0, 3.0]))
        back = self.echoed(w)
        xs = np.linspace(-2.0, 2.0, 41)
        assert np.array_equal(back.value(xs), w.value(xs))

    def test_unknown_kind_rejected(self):
        config = self.base.effective_config()
        config["weights_to_track"] = [{"weight": {"kind": "mystery"}}]
        with pytest.raises(ConfigError, match="kind"):
            scenario_from_dict(config)


class TestThresholdWeight:
    def test_matches_standard_family_members(self):
        w = threshold_weight(1.5)
        assert w == StandardFamily(a=0.5, b=1.0, c=0.5, d=1.5)

    def test_log_exponent_must_exceed_half(self):
        with pytest.raises(ValueError, match="exceed 1/2"):
            threshold_weight(0.5)
