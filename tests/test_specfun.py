import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from latcrit import GammaDomainError, specfun, upper_gamma
from latcrit.specfun import _lower_series, _upper_cf, _upper_gamma


def gamma_quadrature(a: float, x: float) -> float:
    """Adaptive-quadrature oracle for the upper incomplete gamma."""
    val, err = integrate.quad(lambda t: math.exp(-t) * t ** (a - 1.0), x, np.inf,
                              limit=400, epsabs=1e-300, epsrel=1e-13)
    assert err < 1e-11 * abs(val)
    return val


class TestClosedForms:
    @pytest.mark.parametrize("x", [0.1, 1.0, 3.7, 25.0])
    def test_a_equals_one(self, x):
        assert abs(upper_gamma(1.0, x) - math.exp(-x)) < 1e-13 * math.exp(-x)

    def test_small_x_limit_is_gamma(self):
        assert abs(upper_gamma(3.0, 1e-13) - 2.0) < 1e-11

    def test_exp1_at_one(self):
        # E1(x) = Gamma(0, x)
        oracle = gamma_quadrature(0.0, 1.0)
        assert abs(upper_gamma(0.0, 1.0) - oracle) < 1e-12
        assert abs(upper_gamma(0.0, 1.0) - float(mp.e1(1))) < 1e-15

    def test_a_two_integration_by_parts(self):
        # Gamma(2, x) = (x + 1) e^{-x}
        for x in (0.2, 2.0, 9.0):
            assert abs(upper_gamma(2.0, x) - (x + 1) * math.exp(-x)) < 1e-14


class TestQuadratureGrid:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 3.0, 3.5])
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 3.0, 10.0, 30.0])
    def test_relative_accuracy(self, a, x):
        oracle = gamma_quadrature(a, x)
        assert abs(upper_gamma(a, x) - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("x", [0.3, 2.0, 8.0])
    def test_against_scipy(self, a, x):
        ref = float(special.gammaincc(a, x) * special.gamma(a))
        assert abs(upper_gamma(a, x) - ref) <= 1e-12 * abs(ref)


class TestNegativeOrder:
    # downward recurrence cancels one digit per unit of |a| near x ~ |a|;
    # the analytic-continuation paths only need ~1e-10 here
    @pytest.mark.parametrize("a", [-0.5, -1.5, -2.0])
    @pytest.mark.parametrize("x", [0.5, 2.0, 11.0])
    def test_recurrence_against_quadrature(self, a, x):
        oracle = gamma_quadrature(a, x)
        assert abs(upper_gamma(a, x) - oracle) <= 1e-10 * abs(oracle)

    @pytest.mark.parametrize("x", [0.5, 2.0, 11.0])
    def test_near_zero_order(self, x):
        # the zeta derivative oracle evaluates at a = +-1e-4
        oracle = gamma_quadrature(-1e-4, x)
        assert abs(upper_gamma(-1e-4, x) - oracle) <= 1e-12 * abs(oracle)


class TestDomain:
    def test_rejects_nonpositive_x(self):
        with pytest.raises(GammaDomainError):
            upper_gamma(1.0, 0.0)
        with pytest.raises(GammaDomainError):
            upper_gamma(1.0, -2.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(GammaDomainError, match="finite x > 0"):
            upper_gamma(1.0, x)
        with pytest.raises(GammaDomainError, match="finite x > 0"):
            upper_gamma(2.5, np.array([1.0, x, 3.0]))

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_order(self, a):
        # before any work: not the iteration cap, nor the downward recurrence's depth
        with pytest.raises(GammaDomainError, match="finite order"):
            upper_gamma(a, 2.0)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="failed to converge"):
            upper_gamma(0.7, [0.5])

    def test_both_branches_agree_at_crossover(self):
        for a in (0.7, 2.0, 3.5):
            x = a + 1.0
            lo = math.gamma(a) - _lower_series(a, np.array([x * (1 - 1e-13)]))[0]
            hi = _upper_cf(a, np.array([x * (1 + 1e-13)]))[0]
            assert abs(lo - hi) < 1e-12 * abs(hi)

    @pytest.mark.parametrize("a", [0.0, -0.5, -1.5, 1e-4, -1e-4, 0.3, -0.3])
    def test_continuous_across_the_switch_at_one(self, a):
        # x < 1: small-order series or downward recurrence; x >= 1: continued fraction
        lo = upper_gamma(a, 1.0 - 1e-13)
        hi = upper_gamma(a, 1.0 + 1e-13)
        assert abs(lo - hi) < 1e-12 * abs(hi)


MIXED_X = [0.05, 0.3, 0.999, 1.0, 1.5, 3.0, 4.4, 4.5, 4.6, 25.0, 120.0, 700.0]


def mixed_lanes(a: float) -> np.ndarray:
    """Lanes in every regime of order a, with some at both switch points +- 1e-13."""
    edges = [a + 1.0 - 1e-13, a + 1.0, a + 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-13]
    return np.array(MIXED_X + [e for e in edges if e > 0])


class TestArrayKernel:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 3.5, 4.5, -0.5, -1.5, -1e-4])
    def test_against_mpmath(self, a):
        xs = np.geomspace(0.05, 700.0, 160)
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(float(x)))) for x in xs])
        rel = np.abs(upper_gamma(a, xs) - ref) / np.abs(ref)
        assert rel.max() <= 2e-14, (a, xs[rel.argmax()], rel.max())

    @pytest.mark.parametrize("a", [1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4,
                                   1e-2, -1e-2, 0.3, -0.3])
    def test_small_order_against_mpmath(self, a):
        # Gamma(a) - gamma(a, x) would cancel as a -> 0; the small-order
        # series below x = 1 has no such difference
        xs = np.geomspace(0.05, 30.0, 120)
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(float(x)))) for x in xs])
        rel = np.abs(upper_gamma(a, xs) - ref) / np.abs(ref)
        assert rel.max() <= 1e-13, (a, xs[rel.argmax()], rel.max())

    @pytest.mark.parametrize("a", [-10.0, -30.5])
    def test_large_negative_order_against_mpmath(self, a):
        # the continued fraction covers x >= 1, where the downward recurrence
        # would cancel; mpmath needs extra digits at these orders
        xs = np.geomspace(0.05, 300.0, 60)
        with mp.workdps(60):
            ref = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(float(x)))) for x in xs])
        rel = np.abs(upper_gamma(a, xs) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12, (a, xs[rel.argmax()], rel.max())

    @pytest.mark.parametrize("a", [0.0, 0.7, 2.0, 3.5, 4.5, -0.5, -1.5, 0.3, -1e-4])
    def test_lanes_match_one_element_calls(self, a):
        xs = mixed_lanes(a)
        vals = upper_gamma(a, xs)
        singles = np.array([upper_gamma(a, float(x)) for x in xs])
        assert np.array_equal(vals, singles)

    @pytest.mark.parametrize("a", [0.0, 2.5, -1.5])
    def test_permuting_input_permutes_output(self, a):
        xs = mixed_lanes(a)
        perm = np.random.default_rng(5).permutation(len(xs))
        assert np.array_equal(upper_gamma(a, xs[perm]), upper_gamma(a, xs)[perm])

    def test_shapes(self):
        empty = upper_gamma(1.5, np.empty(0))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert type(upper_gamma(1.5, 2.0)) is float
        assert type(upper_gamma(1.5, np.float64(2.0))) is float
        assert type(upper_gamma(0.0, 2.0)) is float
        grid = np.array([[0.5, 2.0], [7.0, 40.0]])
        assert np.array_equal(upper_gamma(1.5, grid), upper_gamma(1.5, grid.ravel()).reshape(2, 2))


CLOSED_ORDERS = [0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]


class TestClosedFormRoutes:
    """Integer and half-integer orders >= 1 and a = 0 at x >= 1 take closed forms."""

    @pytest.mark.parametrize("a", CLOSED_ORDERS)
    def test_against_mpmath_to_one_part_in_1e15(self, a):
        # a = 0 below x = 1 keeps the small-order series; every other lane
        # here is an upward recurrence or the E1 continued fraction
        xs = np.geomspace(1e-4, 700.0, 400)
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(mp.mpf(a), mp.mpf(float(x)))) for x in xs])
        normal = ref >= np.finfo(float).tiny
        rel = np.abs(upper_gamma(a, xs) - ref)[normal] / ref[normal]
        assert rel.max() <= 1e-15, (a, xs[normal][rel.argmax()], rel.max())

    @pytest.mark.parametrize("a", CLOSED_ORDERS)
    def test_lanes_at_the_depth_switches_are_independent(self, a):
        # the E1 continued fraction is 120, 60 or 40 levels deep from x = 1,
        # 2 and 3, and the recurrence stops at x = 708; a lane gives the same
        # bits alone as inside a mixed array
        edges = [v for e in (1.0, 2.0, 3.0, 708.0)
                 for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
        xs = np.array(edges + MIXED_X + [750.0])
        vals = upper_gamma(a, xs)
        assert np.array_equal(vals, np.array([upper_gamma(a, float(x)) for x in xs]))
        for lane in range(0, len(xs), 3):
            assert np.array_equal(upper_gamma(a, xs[lane:lane + 3]), vals[lane:lane + 3])

    @pytest.mark.parametrize("a", [0.5, 0.7, 2.25, 3.3, -0.5, -1.5, -1e-4, 1e-4, 100.5, 101.0])
    def test_other_orders_are_the_iterative_regimes(self, a):
        # a = 1/2 included: erfc(sqrt x) would carry sqrt's rounding times 2x;
        # orders above 100 would overflow x^c in the recurrence
        xs = mixed_lanes(a)
        assert np.array_equal(upper_gamma(a, xs), _upper_gamma(a, xs))

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.5, 4.0])
    def test_lanes_outside_the_closed_forms_are_the_iterative_regimes(self, a):
        # a = 0 below x = 1; the other orders beyond x = 708, where e^{-x}
        # is no longer a normal float
        xs = np.array([0.05, 0.3, 0.999]) if a == 0.0 else np.array([708.5, 720.0, 750.0])
        assert np.array_equal(upper_gamma(a, xs), _upper_gamma(a, xs))
