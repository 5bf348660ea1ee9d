import math
import sys

import mpmath as mp
import numpy as np
import pytest

from latcrit import (
    VERDICT_CRITICAL,
    GramMatrix,
    TangentDirection,
    ZetaPoleError,
    completed_zeta,
    directional_derivative_fd,
    epstein_zeta,
    F_value,
    fully_critical,
    grad_F,
    gram_inverse,
    height,
    height_constant,
    normalized_to_det1,
    stationarity_residual,
    tangent_project,
    upper_gamma,
)
from latcrit.catalog import load_catalog

from helpers import random_unimodular, transform_gram

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
    Ainv = np.linalg.inv(A)
    S = rng.standard_normal(A.shape)
    S = 0.5 * (S + S.T)
    lam = np.tensordot(Ainv, S) / np.tensordot(Ainv, Ainv)
    H = S - lam * Ainv
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


class TestFValue:
    def test_unimodular_invariance(self):
        rng = np.random.default_rng(3)
        base = F_value(A2)
        for _ in range(3):
            U = random_unimodular(2, rng)
            assert abs(F_value(transform_gram(A2, U)) - base) < 1e-11

    def test_radius_doubling_self_consistency(self):
        a = F_value(I2, cutoff=40.0)
        b = F_value(I2, cutoff=80.0)
        assert abs(a - b) < 1e-11

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
        G = grad_F(A)
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
        G = grad_F(A)
        scale = float(np.linalg.norm(G))
        rng = np.random.default_rng(100 + Q.n)
        for _ in range(20):
            H = random_tangent(A, rng)
            fd = directional_derivative_fd(A, H, 1e-4)
            an = float(np.tensordot(G, H))
            assert abs(fd - an) <= 1e-4 * max(abs(an), scale)

    def test_fd_nonstationary_direction_is_detected(self):
        A = normalized_to_det1(D12)
        G = grad_F(A)
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
        G1 = grad_F(A2.to_float())
        G2 = grad_F(transform_gram(A2, U).to_float())
        Uin = np.linalg.inv(Uf)
        assert np.allclose(G2, Uin @ G1 @ Uin.T, atol=1e-12)

    def test_accepts_tangent_direction_objects(self):
        H = tangent_project(I2, np.diag([1.0, 0.0]))
        fd = directional_derivative_fd(I2, H, 1e-4)
        an = float(np.tensordot(grad_F(I2.to_float()), H.H))
        assert abs(fd - an) <= 1e-4 * max(abs(an), 1e-6)


class TestStationarity:
    def test_d4_is_stationary(self):
        assert stationarity_residual(D4) < 1e-7

    def test_dims_2_to_5_certified_catalog_is_stationary(self):
        # the paper's theorem end to end: every layer a 2-design, hence a
        # stationary point of the height, for the lattice and for its dual
        for e in load_catalog().entries:
            if e.gram.n <= 5:
                assert fully_critical(e, e.reference_N).verdict == VERDICT_CRITICAL, e.name
                assert stationarity_residual(e.gram) <= 1e-12, e.name
                assert stationarity_residual(gram_inverse(e.gram)) <= 1e-12, e.name

    def test_dims_2_to_4_catalog_is_stationary(self):
        for e in load_catalog().entries:
            if e.gram.n <= 4:
                assert stationarity_residual(e.gram) < 1e-6, e.name

    def test_non_eutactic_forms_are_not(self):
        assert stationarity_residual(D12) > 1e-2
        assert stationarity_residual(GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) > 1e-3

    def test_duals_of_dims_2_to_4_are_stationary(self):
        for e in load_catalog().entries:
            if e.gram.n <= 4:
                assert stationarity_residual(gram_inverse(e.gram)) < 1e-6, e.name


class TestOneLatticeSumLoop:
    def test_one_enumeration_per_side_per_round(self, monkeypatch):
        H = sys.modules["latcrit.height"]
        real = H.short_vectors_float
        radii = []

        def counting(A, radius):
            radii.append(radius)
            return real(A, radius)

        monkeypatch.setattr(H, "short_vectors_float", counting)
        rep = height(load_catalog().by_name("std5b"))
        # two radius rounds, each enumerating the form and its dual once
        assert len(radii) == 4
        assert radii[0] == radii[1] < radii[2] == radii[3] == rep.truncation_radius

    def test_grad_F_takes_no_pinned_radius(self):
        with pytest.raises(TypeError):
            grad_F(I2.to_float(), radius=20.0)

    @pytest.mark.parametrize("name", ["sta3", "stc12", "std5b", "ste10a"])
    def test_height_agrees_with_F_value_and_grad_F(self, name):
        Q = load_catalog().by_name(name).gram
        rep = height(Q)
        A = normalized_to_det1(Q)
        assert abs(rep.F_value - F_value(A)) <= rep.tail_estimate
        assert np.linalg.norm(rep.gradient - grad_F(A)) <= rep.tail_estimate
        assert stationarity_residual(Q) == rep.projected_residual

    @pytest.mark.parametrize("n", range(1, 8))
    def test_recurrence_gradient_weight(self, n):
        # psi1 from F's summand f by Gamma(a+1, x) = a Gamma(a, x) + x^a e^{-x},
        # across both regimes of upper_gamma (series below a + 1, continued
        # fraction above)
        H = sys.modules["latcrit.height"]
        xs = np.array([0.05, 0.3, 1.0, 2.0, 3.4, 4.4, 10.0, 25.0, 60.0, 120.0])
        f = xs ** (-n / 2) * np.array([upper_gamma(n / 2, x) for x in xs])
        w = H._gradient_weight(n, xs, f)
        for x, wx in zip(xs, w):
            ref = mp.pi * mp.mpf(x) ** (-(n / 2 + 1)) * mp.gammainc(mp.mpf(n) / 2 + 1, x)
            assert abs(wx - ref) <= 1e-14 * ref, (n, x)
