import dataclasses
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from latcrit import (
    VERDICT_CRITICAL,
    GramMatrix,
    TruncationError,
    ZetaPoleError,
    completed_zeta,
    determinant,
    enumerate_layers,
    epstein_zeta,
    fully_critical,
    gram_inverse,
    height,
    height_constant,
    layer_cardinalities,
    normalized_to_det1,
    upper_gamma,
)
from latcrit.catalog import load_catalog

from helpers import (
    F_value,
    basis_rule_radius,
    box_layers,
    box_tail,
    directional_derivative_fd,
    large_denominator_form,
    majorant_soundness,
    random_unimodular,
    tangent_part,
    transform_gram,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
A3 = GramMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
D4 = GramMatrix([[2, 0, 1, 1], [0, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]])
D12 = GramMatrix([[1, 0], [0, 2]])


def direct_sum_z_i2(s: float, K: int) -> float:
    """Plain lattice sum over m^2 + n^2 <= K (slowly convergent reference)."""
    total = 0.0
    R = int(math.isqrt(K))
    for m in range(-R, R + 1):
        for n in range(-R, R + 1):
            q = m * m + n * n
            if 0 < q <= K:
                total += q ** (-s)
    return total


def random_tangent(A: np.ndarray, rng) -> np.ndarray:
    S = rng.standard_normal(A.shape)
    H = tangent_part(A, 0.5 * (S + S.T))
    return H / np.linalg.norm(H)


class TestEpsteinZeta:
    def test_z_i2_at_2_against_dirichlet_factorization(self):
        # Z(I2, s) = 4 zeta(s) beta(s); beta(2) is Catalan's constant
        oracle = float(4 * mp.zeta(2) * mp.catalan)
        assert abs(epstein_zeta(I2, 2.0) - oracle) < 1e-10

    def test_z_i2_at_2_against_direct_sum(self):
        # the raw sum converges like 1/K: only a sanity bracket
        val = epstein_zeta(I2, 2.0)
        crude = direct_sum_z_i2(2.0, 4000)
        assert abs(val - crude) < 1e-3

    @pytest.mark.parametrize("s", [1.3, 2.0, 3.0])
    def test_scaling_law(self, s):
        two = GramMatrix([[2, 0], [0, 2]])
        assert abs(epstein_zeta(two, s) - 2.0 ** (-s) * epstein_zeta(I2, s)) < 1e-10

    def test_pole_raises(self):
        with pytest.raises(ZetaPoleError):
            epstein_zeta(I2, 1.0)  # n/2 = 1
        with pytest.raises(ZetaPoleError):
            epstein_zeta(I2, 0.0)

    @pytest.mark.parametrize("Q", [I2, A2], ids=["I2", "A2"])
    @pytest.mark.parametrize("s", [-1.0, -2.0])
    def test_trivial_zeros_at_negative_integers(self, Q, s):
        assert epstein_zeta(Q, s) == 0.0

    @pytest.mark.parametrize("s", [-1.001, -0.999, -1.5, -2.001])
    def test_continuation_near_trivial_zeros(self, s):
        # Z(I2, s) = 4 zeta(s) beta(s) also at negative s
        oracle = float(4 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]))
        assert abs(epstein_zeta(I2, s) - oracle) < 1e-12

    def test_functional_equation_symmetry(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((3, 3))
        rand_spd = B @ B.T + 3 * np.eye(3)
        rand_spd /= np.linalg.det(rand_spd) ** (1 / 3)
        cases = [(I2.to_float(), 0.7), (normalized_to_det1(A2), 1.3),
                 (rand_spd, 0.9), (rand_spd, -0.6)]
        for A, s in cases:
            n = A.shape[0]
            lhs = completed_zeta(A, s)
            rhs = completed_zeta(np.linalg.inv(A), n / 2 - s)
            assert abs(lhs - rhs) < 1e-10

    def test_accepts_gram_or_array(self):
        a = epstein_zeta(A2, 2.0)
        b = epstein_zeta(A2.to_float(), 2.0)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_is_rejected_before_any_sum(self, s, monkeypatch):
        # NaN used to run the continued fraction to its step limit and inf
        # the lower series; -inf reached math.floor's OverflowError
        H = sys.modules["latcrit.height"]
        monkeypatch.setattr(H, "_certified_sum", None)
        for zeta in (completed_zeta, epstein_zeta):
            with pytest.raises(ValueError, match="s must be finite"):
                zeta(A2, s)

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    @pytest.mark.parametrize("s", [0.5, -2.0])
    def test_extreme_finite_form_is_rejected_before_any_sum(self, scale, s, monkeypatch):
        # det overflowed to inf with a RuntimeWarning, or underflowed to 0
        # and det^(-1/2) raised ZeroDivisionError; s = -2 is a trivial zero
        H = sys.modules["latcrit.height"]
        monkeypatch.setattr(H, "_certified_sum", None)
        for zeta in (completed_zeta, epstein_zeta):
            with pytest.raises(ValueError, match="no finite determinant-1 normalization"):
                zeta(scale * np.eye(2), s)

    def test_exact_input_sums_exact_layers(self, monkeypatch):
        # a GramMatrix is summed over the exact layers of itself and its
        # inverse, and agrees with its float copy
        walks = _record_walks(monkeypatch)
        for Q, s in ((A2, 1.7), (D4, 1.2), (A3, -0.6)):
            z = completed_zeta(Q, s)
            assert abs(z - completed_zeta(Q.to_float(), s)) <= 1e-13 * abs(z)
        assert (walks["integral"], walks["float"]) == (6, 6)


class TestFValue:
    def test_unimodular_invariance(self):
        rng = np.random.default_rng(3)
        base = F_value(A2)
        for _ in range(3):
            U = random_unimodular(2, rng)
            assert abs(F_value(transform_gram(A2, U)) - base) < 1e-11

    def test_radius_doubling_self_consistency(self):
        # F at its certified radius against F's terms summed up to twice it
        H = sys.modules["latcrit.height"]
        A = I2.to_float()
        F, _, _, radius, _ = H._certified_sum(H._sides(A, det1=False), H._F_orders(2), "F value")
        _, c = H.short_vectors_float(A, 2 * radius)
        _, b = H.short_vectors_float(A, 2 * radius)  # I2 is its own inverse
        wide = 2.0 * (math.fsum(H._summand(1.0, 1.0, math.pi * c, upper_gamma(1.0, math.pi * c)))
                      + math.fsum(upper_gamma(0.0, math.pi * b)))
        assert F == F_value(I2)
        assert abs(F - wide) < 1e-11

    def test_self_inverse_identity_case(self):
        assert F_value(I2) == F_value(I2.to_float())


class TestHeightConstant:
    def test_closed_form_value(self):
        C = height_constant(2)
        assert abs(C - (-1.0 - float(np.euler_gamma) - math.log(math.pi))) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_against_series_differentiation(self, n):
        # Richardson-extrapolated two-sided differentiation, base step 1e-4
        def f(s):
            return math.pi ** s / math.gamma(s) * (1.0 / (s - n / 2) - 1.0 / s)

        eps = 1e-4
        d1 = (f(eps) - f(-eps)) / (2 * eps)
        d2 = (f(eps / 2) - f(-eps / 2)) / eps
        assert abs(height_constant(n) - (4 * d2 - d1) / 3) < 1e-9

    def test_against_full_continuation(self):
        # C = d/ds Z(Q^{-1}, s)|_0 - F_Q(0) with the full continuation
        eps = 1e-4
        d1 = (epstein_zeta(I2, eps) - epstein_zeta(I2, -eps)) / (2 * eps)
        d2 = (epstein_zeta(I2, eps / 2) - epstein_zeta(I2, -eps / 2)) / eps
        deriv = (4 * d2 - d1) / 3
        assert abs(height_constant(2) - (deriv - F_value(I2))) < 1e-9


class TestHeight:
    def test_z2_against_classical_closed_form(self):
        # 3 log(2 pi) + log 2 - 4 log Gamma(1/4), via the Dirichlet
        # factorization and the lemniscatic special value
        closed = float(3 * mp.log(2 * mp.pi) + mp.log(2)
                       - 4 * mp.log(mp.gamma(mp.mpf(1) / 4)))
        rep = height(I2)
        assert abs(rep.height - closed) < 1e-12

    def test_hexagonal_beats_square(self):
        h_hex = height(A2).height
        h_sq = height(I2).height
        assert h_hex < h_sq
        assert h_sq - h_hex > 0.02  # strict, with visible margin

    def test_fcc_beats_cubic_in_dim3(self):
        h_fcc = height(GramMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])).height
        h_cub = height(GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).height
        assert h_fcc < h_cub

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(5)
        base = height(A3).height
        for _ in range(2):
            U = random_unimodular(3, rng)
            assert abs(height(transform_gram(A3, U)).height - base) < 1e-10

    def test_report_invariants(self):
        rep = height(D4)
        assert rep.tail_estimate < 1e-12 * abs(rep.F_value)
        assert np.allclose(rep.gradient, rep.gradient.T, atol=1e-14)
        assert rep.height == rep.constant_C + rep.F_value + 2 * math.log(2 * math.pi)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_form_is_rejected(self, entry):
        # inf used to warn in the normalization and then raise LinAlgError,
        # NaN to report an asymmetric form
        with pytest.raises(ValueError, match="form must have finite entries"):
            height(np.array([[entry, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="form must have finite entries"):
            completed_zeta(np.array([[1.0, entry], [entry, 1.0]]), 0.5)

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    def test_extreme_finite_form_is_rejected(self, scale):
        # det overflows to inf or underflows to 0: rejected before any
        # enumeration, with no RuntimeWarning and no TruncationError
        with pytest.raises(ValueError, match="no finite determinant-1 normalization"):
            height(scale * np.eye(2))

    @pytest.mark.parametrize("Q", [GramMatrix([[1_000_000_007, 1], [1, 1_000_000_009]]),
                                   large_denominator_form(10**15 + 37)],
                             ids=["large-entries", "large-denominator"])
    def test_guard_falls_back_to_the_float_walk(self, Q, monkeypatch):
        # entries near 1e9 make the bincount table too large (the bound is
        # about 1.7e10); a denominator near 1e15 also makes the norms exceed
        # 2^53: both sides take the float walk, and the height is the float
        # input's
        walks = _record_walks(monkeypatch)
        rep = height(Q)
        assert (walks["integral"], walks["float"]) == (0, 2)
        ref = height(Q.to_float())
        assert abs(rep.height - ref.height) <= 1e-13 * abs(ref.height)
        assert (rep.half_vectors_form, rep.half_vectors_dual) == (
            ref.half_vectors_form, ref.half_vectors_dual)

    def test_symmetrization_keeps_the_bits_in_the_normal_range(self):
        H = sys.modules["latcrit.height"]
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            M = rng.normal(size=(n, n))
            A = M @ M.T + n * np.eye(n)
            A[0, 1] += 1e-12  # asymmetric within the tolerance
            assert np.array_equal(H._as_form(A), 0.5 * (A + A.T))

    def test_bit_reproducibility(self):
        a = height(A2)
        b = height(A2)
        assert a.height == b.height
        assert a.F_value == b.F_value
        assert (a.gradient == b.gradient).all()
        assert a.tail_estimate == b.tail_estimate


class TestGradient:
    @pytest.mark.parametrize("Q", [I2, A2, A3, D4], ids=["I2", "A2", "A3", "D4"])
    def test_fd_agreement_nontangent(self, Q):
        # pure gradient identity: d/dt F(geodesic) = <G, H> for any symmetric H
        A = normalized_to_det1(Q)
        G = height(A).gradient
        rng = np.random.default_rng(Q.n)
        for _ in range(5):
            S = rng.standard_normal(A.shape)
            S = 0.5 * (S + S.T)
            S /= np.linalg.norm(S)
            fd = directional_derivative_fd(A, S, 1e-4)
            an = float(np.tensordot(G, S))
            assert abs(fd - an) <= 1e-4 * abs(an)

    @pytest.mark.parametrize("Q", [I2, A2, A3, D4], ids=["I2", "A2", "A3", "D4"])
    def test_fd_agreement_tangent(self, Q):
        # tangent directional derivatives vanish at these stationary bases,
        # so agreement is asserted relative to the gradient scale
        A = normalized_to_det1(Q)
        G = height(A).gradient
        scale = float(np.linalg.norm(G))
        rng = np.random.default_rng(100 + Q.n)
        for _ in range(20):
            H = random_tangent(A, rng)
            fd = directional_derivative_fd(A, H, 1e-4)
            an = float(np.tensordot(G, H))
            assert abs(fd - an) <= 1e-4 * max(abs(an), scale)

    def test_fd_nonstationary_direction_is_detected(self):
        A = normalized_to_det1(D12)
        G = height(A).gradient
        rng = np.random.default_rng(13)
        H = random_tangent(A, rng)
        an = float(np.tensordot(G, H))
        fd = directional_derivative_fd(A, H, 1e-4)
        assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-12)

    def test_zero_direction(self):
        A = normalized_to_det1(A2)
        assert directional_derivative_fd(A, np.zeros((2, 2)), 1e-4) == 0.0

    def test_step_sign_symmetry(self):
        A = normalized_to_det1(A2)
        rng = np.random.default_rng(17)
        H = random_tangent(A, rng)
        a = directional_derivative_fd(A, H, 1e-4)
        b = directional_derivative_fd(A, H, -1e-4)
        assert a == b  # central difference is even in the step

    def test_gradient_transformation_law(self):
        # F(U^t Q U) = F(Q) forces G(U^t Q U) = U^{-1} G(Q) U^{-t}
        rng = np.random.default_rng(19)
        U = random_unimodular(2, rng, ops=5)
        Uf = U.astype(float)
        G1 = height(A2).gradient
        G2 = height(transform_gram(A2, U)).gradient
        Uin = np.linalg.inv(Uf)
        assert np.allclose(G2, Uin @ G1 @ Uin.T, atol=1e-12)


class TestStationarity:
    def test_d4_is_stationary(self):
        assert height(D4).projected_residual < 1e-7

    def test_dims_2_to_5_certified_catalog_is_stationary(self):
        # the paper's theorem end to end: every layer a 2-design, hence a
        # stationary point of the height, for the lattice and for its dual
        for e in load_catalog().entries:
            if e.gram.n <= 5:
                assert fully_critical(e, e.reference_N).verdict == VERDICT_CRITICAL, e.name
                assert height(e).projected_residual <= 1e-12, e.name
                assert height(gram_inverse(e.gram)).projected_residual <= 1e-12, e.name

    def test_dims_2_to_4_catalog_is_stationary(self):
        for e in load_catalog().entries:
            if e.gram.n <= 4:
                assert height(e).projected_residual < 1e-6, e.name

    def test_non_eutactic_forms_are_not(self):
        assert height(D12).projected_residual > 1e-2
        assert height(GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])).projected_residual > 1e-3

    def test_duals_of_dims_2_to_4_are_stationary(self):
        for e in load_catalog().entries:
            if e.gram.n <= 4:
                assert height(gram_inverse(e.gram)).projected_residual < 1e-6, e.name


class TestOneLatticeSumLoop:
    def test_one_enumeration_per_side_per_round(self, monkeypatch):
        # a GramMatrix takes the exact route: the integral forms of the form
        # and of its inverse are walked once each, at the predicted radius,
        # and the float walk never runs
        H = sys.modules["latcrit.height"]
        walks = _record_walks(monkeypatch)
        rep = height(load_catalog().by_name("std5b"))
        assert walks == {"radius": [rep.truncation_radius] * 2, "integral": 2, "float": 0}
        assert rep.truncation_radius > H._RADII[0]

    def test_radius_is_final_when_the_prediction_falls_short(self, monkeypatch):
        # infinite a-priori tolerances make the prediction the smallest
        # radius; the real check rejects it, and no larger radius is tried
        H = sys.modules["latcrit.height"]
        e = load_catalog().by_name("std5b")
        real = H._bounds
        monkeypatch.setattr(H, "_bounds", lambda *args: [(m, math.inf) for m, _ in real(*args)])
        walks = _record_walks(monkeypatch)
        with pytest.raises(TruncationError):
            height(e)
        assert walks == {"radius": [H._RADII[0]] * 2, "integral": 2, "float": 0}

    def test_grad_F_takes_no_pinned_radius(self):
        # height is the gradient's only route, and no sum takes a radius or
        # the grid's start: the grid is fixed
        with pytest.raises(TypeError):
            height(I2, radius=20.0)
        for call in (height, lambda Q, **kw: completed_zeta(Q, 1.7, **kw),
                     lambda Q, **kw: epstein_zeta(Q, 1.7, **kw)):
            with pytest.raises(TypeError):
                call(A2, cutoff=40.0)

    def test_enumerated_sum_reaches_its_basis_lower_bound(self, monkeypatch):
        # every summand is positive, so the enumerated sum is at least the
        # basis vectors' share (the grid's basis_sum), and the a-priori
        # tolerance TAIL_REL * basis_sum is at most the real one: the radius
        # the majorants choose always passes the final check
        H = sys.modules["latcrit.height"]
        runs = _record_certified_sums(monkeypatch)
        for e in load_catalog().entries:
            height(e)
            height(gram_inverse(e.gram))
        for A in list(_random_forms()) + [SKEWED]:
            height(A)
        for A, s in ZETA_CASES:
            completed_zeta(A, s)
        assert len(runs) == 84 + 13 + len(ZETA_CASES)
        # the 84 catalogue sums run on exact layers, the rest on float input
        assert [sides.integral[0] is not None for sides, _, _, _ in runs] == [True] * 84 + [
            False] * (13 + len(ZETA_CASES))
        for sides, orders, gradient, (total, _, _, _, _) in runs:
            a_priori = H._bounds(sides, orders, gradient)[0][1]
            assert a_priori <= H.TAIL_REL * total, (sides.A, a_priori, total)

    @pytest.mark.parametrize("name", ["sta3", "stc12", "std5b", "ste10a"])
    def test_height_agrees_with_F_value_and_grad_F(self, name):
        # F against the F-only sum, the gradient against the central
        # difference of F, and the residual against the tangent projection
        Q = load_catalog().by_name(name).gram
        rep = height(Q)
        A = normalized_to_det1(Q)
        G = rep.gradient
        assert abs(rep.F_value - F_value(A)) <= rep.tail_estimate
        S = np.random.default_rng(Q.n).standard_normal(A.shape)
        S = 0.5 * (S + S.T) / np.linalg.norm(S)
        an = float(np.tensordot(G, S))
        assert abs(directional_derivative_fd(A, S, 1e-4) - an) <= 1e-4 * abs(an)
        residual = np.linalg.norm(tangent_part(A, G)) / np.linalg.norm(G)
        assert abs(rep.projected_residual - residual) <= 1e-14

    def test_gradient_assembly_against_fsum(self, monkeypatch):
        # the BLAS products (V w)^t V against exactly rounded sums of the same
        # rounded products w_k V_ki V_kj, on each entry's final collection;
        # the weights are taken on the distinct norms and gathered to the
        # vectors through the layers' inverse index
        H = sys.modules["latcrit.height"]
        real = H._grad_sum
        calls = []
        monkeypatch.setattr(H, "_grad_sum", lambda sides, layers, f: calls.append(
            (sides, layers, f)) or real(sides, layers, f))
        for e in load_catalog().entries:
            height(e)
            sides, (form, dual), f = calls[-1]
            n = sides.A.shape[0]
            V = form.half.astype(float)
            w1 = H._gradient_weight(n, math.pi * form.distinct, f)[form.inverse]
            W = dual.half.astype(float) @ sides.Ainv
            b = dual.distinct
            w2 = (np.exp(-math.pi * b) / b)[dual.inverse]
            terms = np.concatenate([-2.0 * (V * w1[:, None])[:, :, None] * V[:, None, :],
                                    2.0 * (W * w2[:, None])[:, :, None] * W[:, None, :]])
            ref = np.array([math.fsum(t) for t in terms.reshape(len(terms), -1).T.tolist()])
            ref = ref.reshape(n, n)
            G, _ = real(sides, (form, dual), f)
            assert np.abs(G - 0.5 * (ref + ref.T)).max() <= 5e-14, e.name

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recurrence_gradient_weight(self, n):
        # psi1 from F's summand f by Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x},
        # across both regimes of upper_gamma (series below a + 1, continued
        # fraction above)
        H = sys.modules["latcrit.height"]
        xs = np.array([0.05, 0.3, 1.0, 2.0, 3.4, 4.4, 10.0, 25.0, 60.0, 120.0])
        f = xs ** (-n / 2) * upper_gamma(n / 2, xs)
        w = H._gradient_weight(n, xs, f)
        for x, wx in zip(xs, w):
            ref = mp.pi * mp.mpf(x) ** (-(n / 2 + 1)) * mp.gammainc(mp.mpf(n) / 2 + 1, x)
            assert abs(wx - ref) <= 1e-14 * ref, (n, x)


class TestGammaFloor:
    ORDERS = [-2.5, -0.6, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]

    @pytest.mark.parametrize("a", ORDERS)
    def test_floor_is_a_lower_bound_exact_at_integer_orders(self, a):
        H = sys.modules["latcrit.height"]
        xs = np.geomspace(0.05, 700.0, 60)
        floor = H._gamma_floor(a, xs)
        for x, lo in zip(xs, floor):
            with mp.workdps(40):
                ref = mp.mpf(x) ** (-a) * mp.gammainc(a, x)
            if a >= 1 and a == int(a):
                assert abs(lo - ref) <= 1e-15 * ref, (a, x)
            else:
                assert 0.0 < lo <= ref, (a, x)

    def test_floor_radius_matches_the_evaluated_basis_rule(self):
        # the floor lowers F's a-priori tolerance below the one the basis
        # terms' exact values give, but on the catalogue and its duals both
        # rules choose the same grid radius
        for e in load_catalog().entries:
            for q in (e.gram, gram_inverse(e.gram)):
                assert basis_rule_radius(q) == height(q).truncation_radius, e.name


class TestSides:
    def test_exact_sides_take_the_exact_inverse(self, monkeypatch):
        # a GramMatrix's A has the bits of normalized_to_det1 (of the form
        # itself without det1) and its A^-1 is the exact inverse times delta,
        # bit for bit, on the catalogue and its duals; the integral forms are
        # d Q and d' Q^-1 at units d delta and d' / delta; no float matrix is
        # inverted
        H = sys.modules["latcrit.height"]
        inverted, real_inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverted.append(M) or real_inv(M))
        for e in load_catalog().entries:
            for q in (e.gram, gram_inverse(e.gram)):
                qinv = gram_inverse(q)
                (P, d), (Pi, di) = q.integral_rescale(), qinv.integral_rescale()
                delta = float(determinant(q)) ** (1.0 / q.n)
                sides = H._sides(q, det1=True)
                assert np.array_equal(sides.A, normalized_to_det1(q)), e.name
                assert np.array_equal(sides.Ainv, qinv.to_float() * delta), e.name
                assert sides.det == float(determinant(q))
                [(Pf, unit), (Pif, unit_inv)] = sides.integral
                assert np.array_equal(Pf, P) and unit == d * delta
                assert np.array_equal(Pif, Pi) and unit_inv == di / delta
                plain = H._sides(q, det1=False)
                assert np.array_equal(plain.A, q.to_float())
                assert np.array_equal(plain.Ainv, qinv.to_float())
                assert [u for _, u in plain.integral] == [d, di]
            assert np.array_equal(H._sides(e, det1=True).Ainv, H._sides(e.gram, det1=True).Ainv)
        assert inverted == []

    def test_float_sides_invert_once_symmetrized(self, monkeypatch):
        H = sys.modules["latcrit.height"]
        inverted, real_inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverted.append(M) or real_inv(M))
        for A0 in [D4.to_float(), 3.0 * A3.to_float(), SKEWED]:
            det = float(np.linalg.det(A0))
            for det1, A in ((False, A0), (True, A0 / det ** (1.0 / A0.shape[0]))):
                inverted.clear()
                sides = H._sides(A0, det1=det1)
                [M] = inverted
                assert np.array_equal(M, A) and np.array_equal(sides.A, A)
                Ainv = real_inv(A)
                assert np.array_equal(sides.Ainv, 0.5 * (Ainv + Ainv.T))
                assert sides.det == det and sides.integral == (None, None)


class TestOncePerValue:
    @pytest.mark.parametrize("name", ["sta2", "stc12", "std5b", "ste10a", "stf28a"])
    def test_layers_regroup_the_walk(self, name, monkeypatch):
        # each side's half-set is the float walk's, in walk order; its exact
        # integer norms regroup into the layers through the inverse index;
        # the layer counts are the exact ones (the certificate's enumeration,
        # and the brute-force box where it is small); and a summand summed
        # against the layer counts agrees with the exactly rounded sum over
        # the vectors
        H = sys.modules["latcrit.height"]
        runs = _record_certified_sums(monkeypatch)
        Q = load_catalog().by_name(name).gram
        height(Q)
        [(sides, _, _, (_, _, _, radius, (form, dual)))] = runs
        a = sides.A.shape[0] / 2
        for q, M, (P, unit), side, g in (
                (Q, sides.A, sides.integral[0], form,
                 lambda c: H._summand(a, 1.0, math.pi * c, upper_gamma(a, math.pi * c))),
                (gram_inverse(Q), sides.Ainv, sides.integral[1], dual,
                 lambda b: upper_gamma(0.0, math.pi * b))):
            X, _ = H.short_vectors_float(M, radius)
            assert np.array_equal(X, side.half)
            m = np.rint(side.distinct * unit)
            assert np.array_equal(m / unit, side.distinct)
            assert np.array_equal(m[side.inverse], ((side.half @ P) * side.half).sum(1))
            assert np.all(np.diff(side.distinct) > 0)
            assert np.array_equal(np.bincount(side.inverse), side.counts)
            d = q.integral_rescale()[1]
            bound = Fraction(math.floor((radius * (1 + 1e-9) + 1e-9) * unit), d)
            layers = {Fraction(int(k), d): 2 * int(c) for k, c in zip(m, side.counts)}
            assert layers == dict(layer_cardinalities(enumerate_layers(q, bound))), name
            if q.n <= 5:
                assert layers == box_layers(q, bound), name
            total = float(side.counts @ g(side.distinct))
            ref = math.fsum(g(side.distinct[side.inverse]).tolist())
            assert abs(total - ref) <= 1e-15 * ref, name

    def test_reports_match_with_a_cleared_and_a_warm_cache(self):
        H = sys.modules["latcrit.height"]
        forms = [load_catalog().by_name(name).gram for name in ("sta3", "stc12", "std5b")]
        forms += [gram_inverse(forms[1]), SKEWED]
        H._radius_gamma.cache_clear()
        cold = [repr(height(q).to_dict()) for q in forms]
        zeta_cold = [completed_zeta(A, s) for A, s in ZETA_CASES]
        assert H._radius_gamma.cache_info().currsize > 0
        assert [repr(height(q).to_dict()) for q in forms] == cold
        assert [completed_zeta(A, s) for A, s in ZETA_CASES] == zeta_cold

    def test_cached_grid_values_are_read_only(self):
        H = sys.modules["latcrit.height"]
        height(A3)
        g = H._radius_gamma(1.5)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 0.0
        assert np.array_equal(g, upper_gamma(1.5, math.pi * H._RADII))

    def test_warm_sweep_evaluates_each_distinct_norm_once(self, monkeypatch):
        # 765,092 vectors on 1,175 exact layers (5,608 distinct float norms
        # before the layers were exact): one call per side per height, on
        # its layers' norms; the radius lanes come from the cache, which
        # fills through the module attribute once per order (n/2 for
        # n = 2..7, and 0), and the basis lanes take the floor
        H = sys.modules["latcrit.height"]
        entries = load_catalog().entries
        lanes = []
        real = H.upper_gamma
        monkeypatch.setattr(H, "upper_gamma", lambda a, x: lanes.append(np.size(x)) or real(a, x))
        H._radius_gamma.cache_clear()
        for e in entries:
            height(e)
        assert len(lanes) == 2 * len(entries) + 7
        lanes.clear()
        runs = _record_certified_sums(monkeypatch)
        for e in entries:
            height(e)
        assert len(lanes) == 2 * len(entries)
        sides = [side for _, _, _, (_, _, _, _, layers) in runs for side in layers]
        assert lanes == [len(side.distinct) for side in sides]
        assert sum(lanes) == 1175
        assert sum(len(side.half) for side in sides) == 765_092


class TestClosedFormGamma:
    def test_catalogue_heights_match_the_iterative_regimes(self, monkeypatch):
        # upper_gamma takes closed forms at the height's orders (n/2 and 0);
        # the 42 catalogue heights and their inverses' are computed again
        # with every call routed through the iterative regimes alone, grid
        # cache included: the same radii and vectors, heights within 1e-15
        H = sys.modules["latcrit.height"]
        specfun = sys.modules["latcrit.specfun"]
        forms = [q for e in load_catalog().entries for q in (e.gram, gram_inverse(e.gram))]
        shipped = [height(q) for q in forms]
        H._radius_gamma.cache_clear()
        monkeypatch.setattr(H, "upper_gamma",
                            lambda a, x: specfun._upper_gamma(float(a), np.asarray(x, dtype=float)))
        try:
            iterative = [height(q) for q in forms]
        finally:
            H._radius_gamma.cache_clear()
        for got, ref in zip(shipped, iterative):
            assert got.truncation_radius == ref.truncation_radius
            assert got.half_vectors_form == ref.half_vectors_form
            assert got.half_vectors_dual == ref.half_vectors_dual
            assert abs(got.height - ref.height) <= 1e-15 * abs(ref.height)
            assert got.projected_residual <= 1e-13
        assert any(got.height != ref.height for got, ref in zip(shipped, iterative))


def _random_forms():
    """Seeded SPD forms in dims 2-7, one plain and one skewed by diag(e^(+-2)) per dimension."""
    rng = np.random.default_rng(2026)
    for n in range(2, 8):
        for skew in (0.0, 2.0):
            B = rng.standard_normal((n, n))
            D = np.diag(np.exp(skew * rng.uniform(-1.0, 1.0, n)))
            yield D @ (B.T @ B + 0.5 * np.eye(n)) @ D


SKEWED = np.diag([10.0, 10.0, 0.01])  # det 1; lam_max(A^-1) = 100 > lam_max(A) = 10
ZETA_CASES = [(A2.to_float(), 1.7), (SKEWED, 0.8), (SKEWED, -0.6),
              (normalized_to_det1(D4), 1.2), (3.0 * A3.to_float(), 2.5)]


def _record_certified_sums(monkeypatch) -> list:
    """Record (sides, orders, gradient, result) of every ``_certified_sum`` call."""
    H = sys.modules["latcrit.height"]
    real = H._certified_sum
    runs = []

    def recording(sides, orders, what, gradient=False):
        out = real(sides, orders, what, gradient)
        runs.append((sides, orders, gradient, out))
        return out

    monkeypatch.setattr(H, "_certified_sum", recording)
    return runs


def _record_walks(monkeypatch) -> dict:
    """Record the radius of each side's layers and count the integral and float walks.

    A walk is integral when ``short_vectors_float`` receives the integral
    form P that ``_layers`` was given, and float when it receives M itself.
    """
    H = sys.modules["latcrit.height"]
    walks = {"radius": [], "integral": 0, "float": 0}
    real_layers, real_walk = H._layers, H.short_vectors_float
    side = {}

    def layers(M, integral, radius):
        walks["radius"].append(radius)
        side["M"] = M
        return real_layers(M, integral, radius)

    def walk(Qf, bound):
        walks["float" if Qf is side["M"] else "integral"] += 1
        return real_walk(Qf, bound)

    monkeypatch.setattr(H, "_layers", layers)
    monkeypatch.setattr(H, "short_vectors_float", walk)
    return walks


class TestAnnulusMajorant:
    def test_sound_on_catalogue(self):
        for e in load_catalog().entries:
            for majorant, remainder in majorant_soundness(e.gram):
                assert remainder <= majorant, e.name

    def test_sound_on_random_forms(self):
        for A in list(_random_forms()) + [SKEWED]:
            for majorant, remainder in majorant_soundness(A):
                assert remainder <= majorant, A

    def test_zeta_majorant_sound(self, monkeypatch):
        # completed_zeta certifies with its own summands: record the sum's
        # inputs and result, then compare the majorant at the certified
        # radius with the terms over (r, 2r] plus the box majorant beyond 2r
        H = sys.modules["latcrit.height"]
        runs = _record_certified_sums(monkeypatch)
        for A, s in ZETA_CASES:
            completed_zeta(A, s)
        for (A, s), (sides, orders, gradient, (_, _, tail, r, _)) in zip(ZETA_CASES, runs):
            n = A.shape[0]
            Ainv = np.linalg.inv(A)
            [(majorant, _)] = H._bounds(sides, orders, gradient)
            j = int(np.searchsorted(H._RADII, r, side="right")) - 1
            assert majorant[j] == tail
            g1 = lambda c: (math.pi * c) ** (-s) * upper_gamma(s, math.pi * c)
            g2 = lambda b: (np.linalg.det(A) ** -0.5 * (math.pi * b) ** (s - n / 2)
                            * upper_gamma(n / 2 - s, math.pi * b))
            _, c = H.short_vectors_float(A, 2 * r)
            _, b = H.short_vectors_float(Ainv, 2 * r)
            remainder = (2 * np.sum(g1(c[c > r])) + 2 * np.sum(g2(b[b > r]))
                         + box_tail(np.diag(Ainv), 2 * r, g1) + box_tail(np.diag(A), 2 * r, g2))
            assert 0.0 < remainder <= tail, (s, remainder, tail)

    @pytest.mark.parametrize("A", [np.array([[2.0, 1.0], [1.0, 2.0]]), SKEWED,
                                   np.diag([0.2, 1.0, 3.0, 7.0, 0.5])],
                             ids=["A2", "skewed3", "diag5"])
    def test_annulus_counts_cover_the_lattice_points(self, A):
        H = sys.modules["latcrit.height"]
        _, norms = H.short_vectors_float(A, 40.0)
        t = np.array([0.5, 1.0, 2.5, 6.0, 13.0, 20.0, 40.0])
        outer, inner = H._annulus_counts(A, t)
        for i, r in enumerate(t):
            for k in range(i, len(t)):
                count = 2 * int(np.sum((norms > r) & (norms <= t[k])))
                assert count <= outer[k] - inner[i], (r, t[k])

    def test_dual_gradient_factor_covers_every_dual_vector(self):
        # |A^-1 y|^2 <= lam A^-1[y] needs lam = lam_max(A^-1); lam_max(A)
        # is too small on this form (y = e3 gives 1e4 > 10 * 100)
        H = sys.modules["latcrit.height"]
        Ainv = np.linalg.inv(SKEWED)
        lam = H._norm_factor(Ainv)
        Y, b = H.short_vectors_float(Ainv, 200.0)
        W = Y.astype(float) @ Ainv
        assert np.all(np.sum(W * W, 1) <= lam * b * (1 + 1e-12))
        assert np.any(np.sum(W * W, 1) > np.linalg.eigvalsh(SKEWED)[-1] * b)

    def test_g_that_does_not_underflow_raises(self):
        H = sys.modules["latcrit.height"]
        A = np.array([[1.3, 0.2], [0.2, 0.8]])
        sides = H._sides(A, det1=False)
        slow = np.exp(-0.01 * H._X)
        fast = np.exp(-H._X)
        assert sides.majorant(fast, fast)[0] > 0.0
        with pytest.raises(TruncationError):
            sides.majorant(slow, fast)
        with pytest.raises(TruncationError):
            sides.majorant(fast, slow)
        with pytest.raises(TruncationError):
            box_tail(np.diag(A), 12.0, lambda c: np.exp(-0.001 * c))

    def test_summation_by_parts_with_exact_counts(self):
        # with the exact counting function of a point set in place of the
        # volume counts, the majorant is the upper Riemann sum of g over the
        # points beyond t_j; points just above grid radii make it nearly tight
        H = sys.modules["latcrit.height"]
        A = np.array([[1.3, 0.2], [0.2, 0.8]])
        t = H._RADII
        points = t[[0, 1, 1, 5, 40, 41, 300]] * (1 + 1e-9)
        exact = np.searchsorted(points, t, side="right").astype(float)
        none = np.zeros_like(t)
        sides = dataclasses.replace(H._sides(A, det1=False), counts=((exact, exact), (none, none)))
        g = np.exp(-H._X)
        majorant = sides.majorant(g, g)
        for j, r in enumerate(t):
            true = float(np.sum(np.exp(-math.pi * points[points > r])))
            assert true <= majorant[j] <= true * math.exp(0.02 * math.pi * r) + 1e-300, j

    def test_majorant_is_nonincreasing_in_the_radius(self):
        H = sys.modules["latcrit.height"]
        for majorant, _ in H._bounds(H._sides(D4, det1=True), H._F_orders(4), True):
            assert np.all(np.diff(majorant) <= 0.0)
            assert majorant[-1] == 0.0
