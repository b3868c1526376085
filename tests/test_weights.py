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
    MAX_DOUBLINGS,
    QUAD_INNER_TOL,
    QUAD_RANGE0,
    SAMPLE_COUNT,
    SAMPLE_RANGE,
    OneSided,
    StandardFamily,
    Truncated,
    Weight,
    _G7_WEIGHTS,
    _GK_MAX_LIVE,
    _GK_MAX_ROUNDS,
    _K15_NODES,
    _K15_WEIGHTS,
    _SCAN_BLOCK,
    _YOUNG_SLACK,
    _gauss_kronrod,
    _sample_set,
    _sup_scan_grid,
    _sup_v_exp,
    _uniform_draws,
    certify_admissible,
    check_weighted_young,
    threshold_weight,
    weighted_lp_norm,
)
from helpers import compact_random, moderate_ratio

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


# weights that decay on some side, and the condition each one fails
DECAYING = [
    (StandardFamily(a=-0.5, b=1.0), "a < 0"),
    (StandardFamily(c=-1.0), "c < 0"),
    (StandardFamily(d=-1.0), "d < 0"),
    (OneSided(a=-0.5), "a < 0"),
    (Truncated(StandardFamily(c=-1.0), 10.0), "c < 0"),
]


class TestSubmultiplicativity:
    @given(x=points, y=points, **admissible_params)
    def test_admissible_family_ratio_at_most_one(self, x, y, a, b, c, d):
        w = StandardFamily(a=a, b=b, c=c, d=d)
        assert moderate_ratio(w, x, y) <= 1.0 + 1e-12

    def test_superexponential_weight_violates_submultiplicativity(self):
        w = StandardFamily(a=0.1, b=2.0)  # e^{0.1 x^2}
        assert moderate_ratio(w, 10.0, 10.0) > 1.0
        assert not w.certifiable

    def test_growth_exponent_is_moot_without_exponential_factor(self):
        w = StandardFamily(a=0.0, b=2.0, c=1.0)  # (1+|x|)
        assert w.certifiable and w.obstruction is None
        cert = certify_admissible(w)
        assert cert["admissible"]
        assert cert["integral_v_exp"] == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("w,condition", DECAYING,
                             ids=[str(row[0]) for row in DECAYING])
    def test_decaying_weight_is_not_certified(self, w, condition):
        # v = phi has inf v = 0 on the line, and v(0) = 1 > v(x) v(-x):
        # whatever the samples on [-32, 32] give, no certificate holds
        assert moderate_ratio(w, 5.0, -5.0) > 1.0
        assert not w.certifiable
        assert condition in w.obstruction
        assert not certify_admissible(w)["admissible"]


class TestCertification:
    def test_subcritical_exponential_certificate(self):
        w = StandardFamily(a=0.5, b=1.0)
        cert = certify_admissible(w)
        assert cert["admissible"]
        assert cert["C0"] == pytest.approx(1.0, abs=1e-9)
        assert cert["A"] == pytest.approx(0.5, abs=1e-9)
        # integral of e^{|x|/2} e^{-|x|} = integral of e^{-|x|/2} = 4
        assert cert["integral_v_exp"] == pytest.approx(4.0, abs=1e-8)
        assert cert["lp_v_exp"]["inf"] == pytest.approx(1.0, abs=1e-12)
        assert cert["quadrature_converged"] and not cert["overflowed"]

    def test_polynomial_certificate_with_analytic_integral(self):
        w = StandardFamily(c=2.0)
        cert = certify_admissible(w)
        assert cert["admissible"]
        # integral of (1+|x|)^2 e^{-|x|} = 2 (1 + 2 + 2) = 10
        assert cert["integral_v_exp"] == pytest.approx(10.0, abs=1e-7)
        assert cert["A"] <= 2.0 + 1e-9  # sup 2/(1+|x|) = 2

    def test_threshold_weight_certificate_vs_quadrature_oracle(self):
        w = threshold_weight(1.0)
        cert = certify_admissible(w)
        assert cert["admissible"]
        oracle, err = quad(
            lambda x: math.exp(-x / 2.0)
            * math.sqrt(1.0 + x)
            * math.log(math.e + x),
            0.0,
            np.inf,
        )
        assert cert["integral_v_exp"] == pytest.approx(2.0 * oracle, abs=1e-6)
        assert err < 1e-8

    def test_critical_exponential_is_rejected_but_keeps_sup_route(self):
        w = StandardFamily(a=1.0, b=1.0)  # e^{|x|}
        cert = certify_admissible(w)
        assert not cert["admissible"]
        assert not cert["quadrature_converged"]
        assert cert["integral_v_exp"] == math.inf
        assert cert["quadrature_range"] == 131072.0
        # sup of v(x) e^{-|x|} = 1 survives: the L^infinity route stays open
        assert cert["lp_v_exp"]["inf"] == pytest.approx(1.0, abs=1e-12)

    def test_supercritical_exponential_is_rejected_at_overflow(self):
        # v e^{-|x|} = e^{0.2|x|} overflows on the piece [2048, 4096]
        w = StandardFamily(a=1.2, b=1.0)
        cert = certify_admissible(w)
        assert not cert["admissible"]
        assert not cert["quadrature_converged"]
        assert cert["quadrature_range"] == 4096.0

    def test_certificate_record_is_bit_reproducible(self):
        w = threshold_weight(1.0)
        a = certify_admissible(w, seed=3)
        b = certify_admissible(w, seed=3)
        assert a == b


# (v, integral of v(x) e^{-|x|} dx) in closed form
CLOSED_FORMS = [
    (StandardFamily(c=2.0), 10.0),
    (StandardFamily(a=0.5, b=1.0), 4.0),
    (OneSided(a=0.5), 3.0),
    (Truncated(StandardFamily(a=1.0, b=1.0), 1e4),
     2.0 * (math.log(1e4) + 1.0)),
    # 2 + (a/2) sqrt(pi) e^{a^2/4} (1 + erf(a/2)) at a = 1/2
    (StandardFamily(a=0.5, b=0.5),
     2.0 + 0.5 * math.sqrt(math.pi) * math.exp(1.0 / 16.0)
     * (1.0 + math.erf(0.25))),
    # the threshold weights have no closed form: these are the integrals
    # computed with mpmath at 30 digits, rounded to double
    (threshold_weight(1.0), 10.534874382931908),
    (threshold_weight(0.75), 9.329665613964913),
]


class Delegate(Weight):
    """Delegates to ``base``, but reads as not even whatever ``base`` is:
    its certificate scans and integrates the whole line."""

    def __init__(self, base):
        self.base = base

    def _log_value(self, x):
        return self.base._log_value(x)

    def _log_derivative(self, x):
        return self.base._log_derivative(x)


class CountingWeight(Delegate):
    """Delegates to ``base``, even when it is, and records the size of each
    point set its log is taken at."""

    def __init__(self, base):
        super().__init__(base)
        self.even = base.even
        self.sizes = []

    def _log_value(self, x):
        self.sizes.append(np.size(x))
        return self.base._log_value(x)


def quadrature_rounds(log_f, lo, hi):
    """Rounds the adaptive quadrature needs on [lo, hi]."""
    calls = []

    def counted(x):
        calls.append(x.size)
        return log_f(x)

    _gauss_kronrod(counted, lo, hi, QUAD_INNER_TOL)
    return len(calls)


def reference_gauss_kronrod(f, lo, hi, tol):
    """One subinterval product at a time: the adaptive G7/K15 quadrature as
    a plain loop."""
    live, accepted = [(lo, hi)], []
    for round_ in range(_GK_MAX_ROUNDS):
        bisected = []
        for a, b in live:
            centre, half = 0.5 * (a + b), 0.5 * (b - a)
            ys = f(centre + half * _K15_NODES)
            if not np.all(np.isfinite(ys)):
                return math.inf
            kronrod = half * float(ys @ _K15_WEIGHTS)
            if abs(kronrod - half * float(ys @ _G7_WEIGHTS)) <= (
                    tol * (b - a) / (hi - lo)):
                accepted.append(kronrod)
            else:
                bisected.append((a, b, centre, kronrod))
        if not bisected:
            break
        if (round_ == _GK_MAX_ROUNDS - 1
                or 2 * len(bisected) > _GK_MAX_LIVE):
            accepted.extend(k for *_, k in bisected)
            break
        live = [(a, c) for a, _, c, _ in bisected] + [
            (c, b) for _, b, c, _ in bisected]
    return math.fsum(accepted)


def identity(x):
    return x


def cusp(x):
    """log of x^{-1/2}: no subinterval at 0 meets its share of tol."""
    return -0.5 * np.log(np.abs(x))


# (log_f, intervals): intervals that converge, hit the live cap (e^x on
# [0, 700], x^{-1/2} next to 0) or overflow (e^x on [0, 1000])
INTERVALS = [
    (identity, [(-5.0, 0.0), (0.0, 700.0), (0.0, 1000.0), (1.0, 3.0)]),
    (cusp, [(-1.0, 0.0), (0.0, 1.0), (1.0, 4.0)]),
    (threshold_weight(1.0)._log_value, [(-32.0, 0.0), (0.0, 32.0),
                                        (32.0, 64.0)]),
]


class TestQuadrature:
    @pytest.mark.parametrize("v,integral", CLOSED_FORMS,
                             ids=[str(row[0]) for row in CLOSED_FORMS])
    def test_certificate_matches_closed_form(self, v, integral):
        cert = certify_admissible(v)
        assert cert["quadrature_converged"]
        assert cert["integral_v_exp"] == pytest.approx(integral, rel=1e-12)

    def test_cusp_certificate_does_bounded_work(self):
        # e^{|x|^{1/2}/2} has a |x|^{1/2} cusp at 0: only the subintervals
        # next to it need bisecting, a few thousand points in all
        base = StandardFamily(a=0.5, b=0.5)
        counting = CountingWeight(base)
        cert = certify_admissible(counting)
        assert cert["admissible"]
        # the rest are the sampled constants (x + y, x and y of the pairs,
        # and the points, then v at the two extremal points of log v) and
        # the blocks of the sup scan on x >= 0
        half = _sup_scan_grid().size
        blocks = -(-half // _SCAN_BLOCK)
        assert counting.sizes[:5] == [SAMPLE_COUNT] * 4 + [2]
        assert counting.sizes.count(SAMPLE_COUNT) == 4
        quadrature = counting.sizes[5:-blocks]
        assert sum(counting.sizes[-blocks:]) == half
        assert 0 < sum(quadrature) <= 10**5
        # one log evaluation per round: as many as the piece of each
        # doubling needs

        def log_f(x):
            return base._log_value(x) - np.abs(x)

        R = cert["quadrature_range"]
        pieces = [(0.0, QUAD_RANGE0)] + [
            (r, 2 * r) for r in QUAD_RANGE0 * 2.0 ** np.arange(
                round(math.log2(R / QUAD_RANGE0)))]
        assert len(quadrature) == sum(quadrature_rounds(log_f, *piece)
                                      for piece in pieces)

    @pytest.mark.parametrize("log_f,intervals", INTERVALS,
                             ids=["overflow-and-caps", "cusp", "threshold"])
    def test_vectorised_rounds_match_the_plain_loop(self, log_f, intervals):
        # the rows of a round are summed in another order than the loop's
        # dot products
        for lo, hi in intervals:
            value = _gauss_kronrod(log_f, lo, hi, QUAD_INNER_TOL)
            with np.errstate(over="ignore"):
                ref = reference_gauss_kronrod(
                    lambda x: np.exp(log_f(x)), lo, hi, QUAD_INNER_TOL)
            assert isinstance(value, float)
            assert value == pytest.approx(ref, rel=1e-13)

    def test_inf_only_where_the_integrand_overflows(self):
        # e^x overflows on [0, 1000], and stays finite on [0, 700] and
        # [-5, 0]
        assert _gauss_kronrod(identity, 0.0, 1000.0, 1e-9) == math.inf
        assert _gauss_kronrod(identity, 0.0, 700.0, 1e-9) == pytest.approx(
            math.expm1(700.0), rel=1e-12)
        assert _gauss_kronrod(identity, -5.0, 0.0, 1e-9) == pytest.approx(
            -math.expm1(-5.0), rel=1e-12)

    def test_live_interval_cap_bounds_the_work(self):
        # e^x reaches 1e304 on [0, 700]: an absolute tolerance of 1e-9 is
        # never met, so every subinterval is bisected until the cap
        sizes = []

        def log_f(x):
            sizes.append(x.size)
            return x

        value = _gauss_kronrod(log_f, 0.0, 700.0, 1e-9)
        assert value == pytest.approx(math.expm1(700.0), rel=1e-12)
        assert max(sizes) <= _GK_MAX_LIVE * 15
        assert len(sizes) < _GK_MAX_ROUNDS

    def test_round_cap_bounds_the_work(self):
        # on [0, w], |K15 - G7| of x^{-1/2} scales like w^{1/2}, so the
        # subinterval at 0 never meets its share tol * w of the tolerance;
        # tol is far above the rounding noise of e^{-log(x)/2}, which fails
        # the small subintervals next to it at tol = 1e-9
        calls = []

        def log_f(x):
            calls.append(x.size)
            return cusp(x)

        value = _gauss_kronrod(log_f, 0.0, 1.0, 1e-3)
        assert len(calls) == _GK_MAX_ROUNDS
        assert max(calls) < _GK_MAX_LIVE
        assert value == pytest.approx(2.0, rel=1e-9)


EVEN = [row[0] for row in CLOSED_FORMS if row[0].even]


class TestEvenWeights:
    @pytest.mark.parametrize("v", EVEN, ids=[str(v) for v in EVEN])
    def test_half_line_certificate_equals_the_whole_line_one(self, v):
        half, whole = certify_admissible(v), certify_admissible(Delegate(v))
        for key in ("C0", "A", "inf_v", "quadrature_range"):
            assert half[key] == whole[key]
        assert half["lp_v_exp"]["inf"] == whole["lp_v_exp"]["inf"]
        assert half["integral_v_exp"] == pytest.approx(
            whole["integral_v_exp"], rel=1e-12)

    def test_which_weights_are_even(self):
        assert threshold_weight(1.0) in EVEN
        assert not OneSided(a=0.5).even
        assert not Truncated(OneSided(a=0.5), 10.0).even
        assert Truncated(StandardFamily(c=2.0), 10.0).even

    @given(**admissible_params)
    def test_standard_family_log_is_even_to_the_bit(self, a, b, c, d):
        w = StandardFamily(a=a, b=b, c=c, d=d)
        xs = np.linspace(0.0, 200.0, 101)
        assert np.array_equal(w._log_value(xs), w._log_value(-xs))


def whole_grid():
    """The sup scan's grid on both sides of 0, built afresh."""
    near = np.linspace(0.0, 32.0, 65537)
    far = 32.0 * 2 ** np.linspace(0.0, 12, 8193)
    g = np.concatenate([-far[::-1], -near[::-1], near, far])
    return g[np.abs(g) <= 32.0 * 2**12]


def whole_grid_scan(v):
    """The sup scan as one whole-grid expression, grid built afresh."""
    g = whole_grid()
    with np.errstate(over="ignore"):
        return g, float(np.max(np.exp(v._log_value(g) - np.abs(g))))


class NaNAt(Weight):
    """log v = 0 except NaN at the single point ``at``."""

    def __init__(self, at):
        self.at = at

    def _log_value(self, x):
        return np.where(x == self.at, np.nan, 0.0)


class TestSupScan:
    @pytest.mark.parametrize("v", [row[0] for row in CLOSED_FORMS],
                             ids=[str(row[0]) for row in CLOSED_FORMS])
    def test_blockwise_scan_equals_whole_grid(self, v):
        g, whole = whole_grid_scan(v)
        half = _sup_scan_grid()
        # the cached half is the whole grid's x >= 0 half, which it mirrors
        assert np.array_equal(half, g[g.size // 2:])
        assert np.array_equal(np.concatenate([-half[::-1], half]), g)
        # the last block is a partial one
        assert half.size > _SCAN_BLOCK and half.size % _SCAN_BLOCK != 0
        assert _sup_v_exp(v) == whole
        assert certify_admissible(v)["lp_v_exp"]["inf"] == whole

    def test_overflow_gives_inf(self):
        # v e^{-|x|} = e^{0.2|x|} overflows long before |x| = 131072
        v = StandardFamily(a=1.2, b=1.0)
        assert whole_grid_scan(v)[1] == math.inf
        assert _sup_v_exp(v) == math.inf

    # a point inside a full block of the x < 0 half, read by the mirrored
    # pass, and the last point, in the partial block
    @pytest.mark.parametrize("index", [3 * _SCAN_BLOCK + 17, -1])
    def test_nan_at_one_point_gives_nan(self, index):
        v = NaNAt(whole_grid()[index])
        assert math.isnan(whole_grid_scan(v)[1])
        assert math.isnan(_sup_v_exp(v))

    def test_grid_is_cached_and_read_only(self):
        half = _sup_scan_grid()
        assert _sup_scan_grid() is half
        assert not half.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            half[0] = 0.0
        assert np.max(half) == QUAD_RANGE0 * 2**MAX_DOUBLINGS


class TestSubmultiplicativeRatio:
    def test_phi_is_v_reuses_c0(self):
        # a weight certified against itself: its submultiplicativity
        # ratio is C0, the largest v(x+y)/(v(x) v(y)) over the seed's pairs
        v = threshold_weight(1.0)
        cert = certify_admissible(v)
        pairs = numpy_draws(0)[0]
        ratio = float(np.max(moderate_ratio(v, pairs[:, 0], pairs[:, 1])))
        assert cert["C0"] == ratio


def numpy_draws(seed):
    """The pairs and the points as numpy's default_rng(seed) draws them."""
    rng = np.random.default_rng(seed)
    pairs = rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=(SAMPLE_COUNT, 2))
    return pairs, rng.uniform(-SAMPLE_RANGE, SAMPLE_RANGE, size=SAMPLE_COUNT)


def point_space_extrema(v, seed):
    """C0, inf_v and overflowed as the samples' exponentiated values give
    them: drawn afresh, every ratio and value exponentiated, then reduced."""
    pairs, singles = numpy_draws(seed)
    C0 = float(np.max(moderate_ratio(v, pairs[:, 0], pairs[:, 1])))
    v_vals = v.value(singles)
    inf_v = float(np.min(v_vals))
    overflowed = bool(not np.all(np.isfinite(v_vals))
                      or not math.isfinite(C0))
    return C0, inf_v, overflowed


def same_bits(a, b):
    """Equal to the bit, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def random_standard_weights(count, seed=2024):
    """A seeded batch of the standard family on both sides of the
    certifiable range: decaying, super-exponential and overflowing ones."""
    rng = np.random.default_rng(seed)
    return [StandardFamily(a=float(rng.uniform(0.0, 1.2)),
                           b=float(rng.uniform(0.0, 1.5)),
                           c=float(rng.uniform(-1.0, 4.0)),
                           d=float(rng.uniform(-1.0, 3.0)))
            for _ in range(count)]


# the closed-form weights, the kinds the benchmark certifies on top of them
# (one-sided, a truncation, the threshold profile with d = 3/4 and a
# sub-exponential one), weights whose v e^{-|x|} (a = 1.2) or whose samples
# (a = 30) overflow, and a truncation clamped on every sample
LOG_SPACE_CASES = list(dict.fromkeys(
    [row[0] for row in CLOSED_FORMS]
    + [OneSided(a=0.5), Truncated(StandardFamily(a=1.0, b=1.0), 1e4),
       threshold_weight(0.75), StandardFamily(a=0.5, b=0.5),
       StandardFamily(a=1.2, b=1.0), StandardFamily(a=30.0, b=1.0),
       Truncated(StandardFamily(c=3.0), 0.5)]
    + random_standard_weights(24)))


class NaNAtSample(NaNAt):
    """NaN at one sample point, flat elsewhere, with a log-derivative."""

    def _log_derivative(self, x):
        return np.zeros_like(x)


class TestLogSpaceExtrema:
    """The certificate takes each extremum over log values and exponentiates
    once; it equals the extremum of the exponentiated samples to the bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("v", LOG_SPACE_CASES,
                             ids=[str(v) for v in LOG_SPACE_CASES])
    def test_equals_point_space_to_the_bit(self, v, seed):
        cert = certify_admissible(v, seed)
        C0, inf_v, overflowed = point_space_extrema(v, seed)
        assert same_bits(cert["C0"], C0)
        assert same_bits(cert["inf_v"], inf_v)
        assert cert["overflowed"] is overflowed
        assert same_bits(cert["lp_v_exp"]["inf"], whole_grid_scan(v)[1])
        # A is taken blockwise, and equals the whole-array maximum
        points = _sample_set(seed)[3]
        assert same_bits(cert["A"],
                         float(np.max(np.abs(v.log_derivative(points)))))

    def test_overflow_cases_are_covered(self):
        # v e^{-|x|} overflows on the scan, not on the samples ...
        cert = certify_admissible(StandardFamily(a=1.2, b=1.0))
        assert cert["lp_v_exp"]["inf"] == math.inf
        assert not cert["overflowed"]
        # ... and e^{30|x|} overflows on the samples, with C0 finite
        cert = certify_admissible(StandardFamily(a=30.0, b=1.0))
        assert cert["overflowed"] and math.isfinite(cert["C0"])
        assert not cert["admissible"]

    # NaN at the first coordinate of one pair (C0) or at one point (inf_v
    # and the overflow test)
    @pytest.mark.parametrize("column", [0, 2], ids=["pair", "point"])
    def test_nan_at_one_sample_propagates(self, column):
        pairs, singles = numpy_draws(0)
        at = (pairs[:, 0] if column == 0 else singles)[SAMPLE_COUNT // 3]
        v = NaNAtSample(at)
        cert = certify_admissible(v)
        C0, inf_v, overflowed = point_space_extrema(v, 0)
        assert math.isnan(C0) == (column == 0)
        assert math.isnan(inf_v) == (column == 2)
        assert same_bits(cert["C0"], C0)
        assert same_bits(cert["inf_v"], inf_v)
        assert cert["overflowed"] is overflowed is True
        assert not cert["admissible"]

    def test_sample_set_is_kept_read_only(self):
        sums, xs, ys, points = _sample_set(5)
        assert _sample_set(5)[0] is sums
        pairs, singles = numpy_draws(5)
        assert np.array_equal(xs, pairs[:, 0])
        assert np.array_equal(ys, pairs[:, 1])
        assert np.array_equal(sums, pairs[:, 0] + pairs[:, 1])
        assert np.array_equal(points, singles)
        for arr in (sums, xs, ys, points):
            assert arr.flags.c_contiguous and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


# seeds of one to five 32-bit words; the fifth word of the last one runs
# SeedSequence's loop that mixes the words past its 4-word pool
STREAM_SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 1,
                2**128 + 2**97 + 12345]


class TestUniformDraws:
    """The sample set is numpy's PCG64 default_rng(seed) stream, drawn
    without numpy.random; numpy itself is the reference."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equals_numpy_to_the_bit(self, seed):
        pairs, points = numpy_draws(seed)
        expected = np.concatenate([pairs.ravel(), points])
        drawn = _uniform_draws(seed, 3 * SAMPLE_COUNT)
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025])
    def test_short_draws_are_the_stream_s_head(self, count):
        expected = np.random.default_rng(7).uniform(
            -SAMPLE_RANGE, SAMPLE_RANGE, size=count)
        assert np.array_equal(_uniform_draws(7, count).view(np.uint64),
                              expected.view(np.uint64))

    def test_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="non-negative"):
            _uniform_draws(-1, 1)

    @pytest.mark.parametrize("seed", [0, 3, 2**32])
    def test_sample_set_splits_numpy_s_two_calls(self, seed):
        sums, xs, ys, points = _sample_set(seed)
        pairs, singles = numpy_draws(seed)
        for got, expected in [(xs, pairs[:, 0]), (ys, pairs[:, 1]),
                              (sums, pairs[:, 0] + pairs[:, 1]),
                              (points, singles)]:
            assert np.array_equal(got.view(np.uint64),
                                  expected.view(np.uint64))
        # the points own their memory: no view keeps the whole draw alive
        assert points.base is None


class TestWeightedNorms:
    grid = Grid(16.0, 512)

    def test_sup_norm_matches_direct_maximum(self):
        u = Field(self.grid, np.exp(-self.grid.x**2))
        w = StandardFamily(c=2.0).value(self.grid.x)
        direct = float(np.max(np.abs(u.values) * w))
        assert weighted_lp_norm(u, w, math.inf) == pytest.approx(direct)

    def test_l2_norm_matches_direct_sum(self):
        u = Field(self.grid, np.exp(-self.grid.x**2))
        w = StandardFamily(a=0.25, b=1.0).value(self.grid.x)
        weighted = np.abs(u.values) * w
        direct = math.sqrt(float(np.sum(weighted**2)) * self.grid.dx)
        assert weighted_lp_norm(u, w, 2.0) == pytest.approx(direct, rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 8.0))
    def test_absolutely_homogeneous(self, seed, p):
        u = compact_random(self.grid, np.random.default_rng(seed))
        w = StandardFamily(c=1.0).value(self.grid.x)
        assert weighted_lp_norm(Field(self.grid, 3.0 * u.values), w, p) == (
            pytest.approx(3.0 * weighted_lp_norm(u, w, p), rel=1e-12)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, s1, s2):
        u = compact_random(self.grid, np.random.default_rng(s1))
        v = compact_random(self.grid, np.random.default_rng(s2))
        w = StandardFamily(a=0.5, b=1.0).value(self.grid.x)
        for p in (1.0, 2.0, math.inf):
            lhs = weighted_lp_norm(Field(self.grid, u.values + v.values), w, p)
            rhs = weighted_lp_norm(u, w, p) + weighted_lp_norm(v, w, p)
            assert lhs <= rhs * (1 + 1e-12) + 1e-15

    def test_exponent_below_one_rejected(self):
        u = Field(self.grid, np.zeros(self.grid.N))
        with pytest.raises(ValueError, match="p must be"):
            weighted_lp_norm(u, np.ones(self.grid.N), 0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_zero_field_has_zero_norm(self, p):
        # no rescaling by a zero peak: the norm of 0 is exactly 0
        u = Field(self.grid, np.zeros(self.grid.N))
        w = StandardFamily(a=0.5, b=1.0).value(self.grid.x)
        assert weighted_lp_norm(u, w, p) == 0.0


@functools.lru_cache(maxsize=None)
def young_certificate(phi):
    """The certificate depends only on phi: make it once per case, not
    once per hypothesis example."""
    return certify_admissible(phi)


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
        report = check_weighted_young(f1, f2, phi, p, C0=cert["C0"])
        assert report.passed, (report.lhs, report.rhs)
        assert report.lhs <= report.rhs + _YOUNG_SLACK

    def test_fields_on_different_grids_are_refused(self):
        rng = np.random.default_rng(0)
        f1 = compact_random(self.grid, rng)
        f2 = compact_random(Grid(16.0, 256), rng)
        with pytest.raises(ValueError, match="fields must share a grid"):
            check_weighted_young(f1, f2, StandardFamily(c=2.0), 2.0, C0=1.0)


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
