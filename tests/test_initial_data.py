"""Closed-form initial data against independent quadrature oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, erfcx

from chlab.config import ConfigError, scenario_from_dict
from chlab.field import Grid, derivative, momentum_of
from chlab.initial_data import (
    FromPotential,
    Gaussian,
    GaussianShape,
    MollifiedExponential,
    MollifiedPeakon,
    OddGaussianDerivative,
    TanhGaussianShape,
    _erfc,
    _erfcx,
    smoothed_exponential,
)

GRID = Grid(20.0, 1024)


def _mollified_oracle(x: float, rate: float, width: float) -> float:
    """(e^{-rate |.|} * N_width)(x) by adaptive quadrature (the independent
    check of the erfcx-based closed form)."""

    def integrand(y):
        return (
            math.exp(-rate * abs(y))
            * math.exp(-((x - y) ** 2) / (2.0 * width**2))
            / (width * math.sqrt(2.0 * math.pi))
        )

    # [-60, 60] truncates below e^{-40} of the value; break at the kink
    value, err = quad(integrand, -60.0, 60.0, points=[0.0, x], limit=200,
                      epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    return value


class TestSmoothedExponential:
    @pytest.mark.parametrize("rate", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("width", [0.05, 0.3])
    def test_matches_quadrature_oracle(self, rate, width):
        for x in (0.0, 0.4, 2.0, 8.0):
            values, _ = smoothed_exponential(np.array([x]), rate, width)
            assert values[0] == pytest.approx(
                _mollified_oracle(x, rate, width), abs=1e-10
            )

    def test_even_in_x(self):
        xs = np.linspace(0.1, 15.0, 40)
        plus, dplus = smoothed_exponential(xs, 1.3, 0.2)
        minus, dminus = smoothed_exponential(-xs, 1.3, 0.2)
        assert np.allclose(plus, minus, rtol=1e-14)
        assert np.allclose(dplus, -dminus, rtol=1e-14)

    def test_derivative_consistent_with_values(self):
        h = 1e-6
        for x in (0.5, 3.0):
            up, _ = smoothed_exponential(np.array([x + h]), 1.0, 0.1)
            dn, _ = smoothed_exponential(np.array([x - h]), 1.0, 0.1)
            _, d = smoothed_exponential(np.array([x]), 1.0, 0.1)
            assert d[0] == pytest.approx((up[0] - dn[0]) / (2 * h), abs=1e-6)

    def test_tail_inflation_factor(self):
        # far from the crest the tail is e^{a^2 w^2 / 2} e^{-a|x|}
        a, w = 1.0, 0.25
        values, _ = smoothed_exponential(np.array([12.0]), a, w)
        assert values[0] * math.exp(12.0) == pytest.approx(
            math.exp(a * a * w * w / 2.0), rel=1e-10
        )

    def test_converges_to_kinked_exponential(self):
        # pointwise O(width) at the kink, faster away from it
        xs = np.array([0.0, 1.0, 4.0])
        values, _ = smoothed_exponential(xs, 1.0, 1e-5)
        assert np.allclose(values, np.exp(-np.abs(xs)), atol=1e-4)

    def test_no_overflow_on_wide_grids(self):
        # e^{a^2 w^2/2 - a x} overflows naively; the erfcx branch must not
        values, dvalues = smoothed_exponential(np.linspace(-700, 700, 101), 2.0, 0.5)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(dvalues))
        inner, _ = smoothed_exponential(np.linspace(-300, 300, 101), 2.0, 0.5)
        assert np.all(inner > 0)

    @pytest.mark.parametrize("rate,width", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0)])
    def test_rejects_nonpositive_parameters(self, rate, width):
        with pytest.raises(ValueError):
            smoothed_exponential(np.zeros(3), rate, width)


# erfcx: both sides of the switch to the asymptotic series at z = 26, then
# out to 1e6; erfc: [-30, 26], where erfc(26) ~ 5.7e-296 is still normal
ERFCX_POINTS = np.concatenate([
    np.linspace(0.0, 40.0, 801), 26.0 + np.linspace(-1e-6, 1e-6, 21),
    np.geomspace(1e-8, 1e6, 400)])
ERFC_POINTS = np.linspace(-30.0, 26.0, 1121)


def _max_rel(values, reference):
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


class TestErrorFunctions:
    """The numpy/math erfc and erfcx behind the mollified data, against
    scipy.special and, where mpmath imports, 40-digit references."""

    def test_erfcx_matches_scipy(self):
        assert _max_rel(_erfcx(ERFCX_POINTS), erfcx(ERFCX_POINTS)) < 2e-15

    def test_erfc_matches_scipy(self):
        # scipy's own error on this range is 5.7e-14
        assert _max_rel(_erfc(ERFC_POINTS), erfc(ERFC_POINTS)) < 1e-13

    def test_both_match_40_digit_references(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref_x = [float(mpmath.exp(mpmath.mpf(z) ** 2)
                           * mpmath.erfc(mpmath.mpf(z)))
                     for z in ERFCX_POINTS[::4]]
            ref_c = [float(mpmath.erfc(mpmath.mpf(z)))
                     for z in ERFC_POINTS[::4]]
        assert _max_rel(_erfcx(ERFCX_POINTS[::4]), np.array(ref_x)) < 1e-15
        assert _max_rel(_erfc(ERFC_POINTS[::4]), np.array(ref_c)) < 1e-15

    def test_erfcx_limits(self):
        assert _erfcx(np.array([0.0]))[0] == 1.0
        assert np.array_equal(_erfcx(np.array([np.inf])), [0.0])
        assert _erfcx(np.array([], dtype=float)).shape == (0,)


class TestClosedFormData:
    def test_gaussian_build_and_derivative(self):
        data = Gaussian(amplitude=2.0, width=1.5, center=0.5)
        u = data.build(GRID)
        expected = 2.0 * np.exp(-(((GRID.x - 0.5) / 1.5) ** 2))
        assert np.allclose(u.values, expected, rtol=1e-14)
        z = (GRID.x - 0.5) / 1.5
        exact = 2.0 * (-2.0 * z / 1.5) * np.exp(-z * z)
        spectral = derivative(u).values
        assert np.max(np.abs(exact - spectral)) < 1e-10

    def test_gaussian_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            Gaussian(width=0.0).build(GRID)

    def test_odd_gaussian_derivative_shape(self):
        data = OddGaussianDerivative(amplitude=2.5, width=1.0)
        u = data.build(GRID)
        assert np.allclose(u.values, -2.5 * GRID.x * np.exp(-(GRID.x**2)))
        # slope at the origin is -amplitude
        exact = -2.5 * (1.0 - 2.0 * GRID.x**2) * np.exp(-(GRID.x**2))
        origin = np.argmin(np.abs(GRID.x))
        assert exact[origin] == pytest.approx(-2.5)
        assert np.max(np.abs(exact - derivative(u).values)) < 1e-10

    def test_mollified_peakon_derivative_exact(self):
        data = MollifiedPeakon(c=1.2, x0=0.0, mollify_width=0.1)
        u = data.build(GRID)
        exact = 1.2 * smoothed_exponential(GRID.x, 1.0, 0.1)[1]
        assert np.max(np.abs(exact - derivative(u).values)) < 1e-8
        assert float(np.max(u.values)) < 1.2  # mollification rounds the crest
        assert float(np.max(u.values)) > 1.1

    def test_mollified_exponential_rate_controls_tails(self):
        slow = MollifiedExponential(rate=0.5, mollify_width=0.1).build(GRID)
        fast = MollifiedExponential(rate=2.0, mollify_width=0.1).build(GRID)
        xi = np.argmin(np.abs(GRID.x - 8.0))
        assert slow.values[xi] > fast.values[xi]
        assert math.log(slow.values[xi] / fast.values[xi]) == pytest.approx(
            8.0 * (2.0 - 0.5), rel=0.01
        )


class TestFromPotential:
    def test_momentum_of_build_recovers_gaussian_potential(self):
        grid = Grid(30.0, 2048)
        shape = GaussianShape(amplitude=1.0, width=1.0, center=0.0)
        u = FromPotential(m0=shape).build(grid)
        recovered = momentum_of(u).values
        assert np.max(np.abs(recovered - shape.sample(grid.x))) < 1e-10

    def test_momentum_of_build_recovers_sign_changing_potential(self):
        grid = Grid(40.0, 2048)
        shape = TanhGaussianShape(amplitude=1.0, slope_width=1.0,
                                  envelope_width=6.0)
        u = FromPotential(m0=shape).build(grid)
        recovered = momentum_of(u).values
        assert np.max(np.abs(recovered - shape.sample(grid.x))) < 1e-10
        # odd potential gives an odd velocity
        assert np.max(np.abs(u.values + u.values[(-np.arange(grid.N)) % grid.N]
                             )) < 1e-12


class TestSerialization:
    """Initial data survives the scenario config echo (the only
    serializer)."""

    base = scenario_from_dict({
        "name": "echo", "grid": {"L": 20.0, "N": 1024},
        "initial_data": {"kind": "gaussian"}, "solver": {"t_end": 0.1}})

    def echoed(self, data):
        s = replace(self.base, initial_data=data)
        return scenario_from_dict(s.effective_config()).initial_data

    def rejects(self, initial_data, match):
        config = self.base.effective_config()
        config["initial_data"] = initial_data
        with pytest.raises(ConfigError, match=match):
            scenario_from_dict(config)

    cases = [
        MollifiedPeakon(c=1.5, x0=-2.0, mollify_width=0.1),
        MollifiedExponential(amplitude=0.5, rate=1.2, center=1.0,
                             mollify_width=0.2),
        Gaussian(amplitude=2.0, width=0.7, center=-1.0),
        OddGaussianDerivative(amplitude=3.0, width=1.1),
        FromPotential(m0=GaussianShape(amplitude=1.0, width=2.0, center=0.0)),
        FromPotential(m0=TanhGaussianShape(amplitude=1.0, slope_width=0.5,
                                           envelope_width=4.0)),
    ]

    @pytest.mark.parametrize("data", cases, ids=lambda d: type(d).__name__)
    def test_dict_round_trip(self, data):
        assert self.echoed(data) == data

    def test_unknown_kind_rejected(self):
        self.rejects({"kind": "mystery"}, "initial_data.kind")

    def test_unknown_potential_shape_rejected(self):
        self.rejects({"kind": "from_potential", "m0": {"shape": "spiral"}},
                     "initial_data.m0.shape")

    @given(st.floats(0.2, 3.0), st.floats(-5.0, 5.0), st.floats(0.01, 0.5))
    def test_round_trip_preserves_samples(self, rate, center, width):
        data = MollifiedExponential(amplitude=1.0, rate=rate, center=center,
                                    mollify_width=width)
        back = self.echoed(data)
        assert np.array_equal(back.build(GRID).values, data.build(GRID).values)
