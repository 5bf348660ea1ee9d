import dataclasses
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from latcrit import (
    VERDICT_CRITICAL,
    EnumerationBudgetError,
    GramMatrix,
    TruncationError,
    ZetaPoleError,
    completed_zeta,
    determinant,
    double,
    enumerate_layers,
    epstein_zeta,
    fully_critical,
    gram_inverse,
    height,
    height_constant,
    layer_moments,
    lll_reduce,
    upper_gamma,
)
from latcrit import shells
from latcrit.catalog import load_catalog

from helpers import (
    F_at_the_walk,
    F_value,
    basis_rule_radius,
    box_layers,
    box_tail,
    directional_derivative_fd,
    half_rows,
    large_denominator_form,
    layer_counts,
    majorant_soundness,
    normalized_to_det1,
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

    @pytest.mark.parametrize("s", [-0.5, 0.3, 1.7, 2.5, 3.1])
    def test_z_a2_against_dirichlet_factorization(self, s):
        # A2[x] = 2 (a^2 + ab + b^2), which represents m 6 sum_{d | m} chi_-3(d)
        # times: Z(A2, s) = 2^-s 6 zeta(s) L(s, chi_-3)
        oracle = float(2 ** -s * 6 * mp.zeta(s) * mp.dirichlet(s, [0, 1, -1]))
        assert abs(epstein_zeta(A2, s) - oracle) < 1e-14 * abs(oracle)

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
        F, _, _, radius, _, _ = H._certified_sum(H._sides(A, det1=False), H._F_orders(2), "F value")
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

    @pytest.mark.parametrize("form, message", [
        (np.ones((2, 3)), "form must be a square matrix"),
        (np.ones(4), "form must be a square matrix"),
        (np.array([[2.0, 1.0], [0.0, 2.0]]), "form must be symmetric"),
    ])
    def test_float_form_must_be_square_and_symmetric(self, form, message):
        with pytest.raises(ValueError, match=message):
            height(form)

    def test_a_walk_beyond_the_budget_is_refused(self, monkeypatch):
        # the collector keeps at most DEFAULT_MAX_VECTORS vectors, two per
        # half-set vector; stf28a's form side holds far more than 500 pairs
        monkeypatch.setattr(shells, "DEFAULT_MAX_VECTORS", 1_000)
        with pytest.raises(EnumerationBudgetError) as exc:
            height(load_catalog().by_name("stf28a"))
        assert exc.value.budget == 1_000 and exc.value.processed > 1_000

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
        # pure gradient identity: d/dt F(geodesic) = <G, H> for any symmetric H;
        # float input takes the numeric route
        A = normalized_to_det1(Q)
        rep = height(A)
        assert rep.route == "numeric"
        G = rep.gradient
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
        # so agreement is asserted relative to the gradient scale (numeric
        # route)
        A = normalized_to_det1(Q)
        rep = height(A)
        assert rep.route == "numeric"
        G = rep.gradient
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

    def test_trace_against_the_form_half(self):
        # Tr(A G) = -(n/2) S_A(n/2), S_A(n/2) = sum_m x^{-n/2} Gamma(n/2, x)
        # at x = pi A[m] (F's form half): Tr(A G) sums e^{-pi A^-1[y]} over
        # the dual and -(n/2 f + e^{-x}) over the form, and Poisson summation
        # at tau = i cancels the two e^{-x} sums at det 1.  On the catalogue,
        # its exact inverses and its float forms
        H = sys.modules["latcrit.height"]
        forms = [e.gram for e in load_catalog().entries]
        worst = 0.0
        for L in forms + [gram_inverse(q) for q in forms] + [q.to_float() for q in forms]:
            sides = H._sides(L, det1=True)
            n = sides.A.shape[0]
            _, G, _, _, (form, _), _ = H._certified_sum(sides, H._F_orders(n), "height",
                                                        gradient=True)
            x = math.pi * form.distinct
            half = 2.0 * float(form.counts @ (x ** (-n / 2) * upper_gamma(n / 2, x)))
            trace = float(np.tensordot(sides.A, G))
            worst = max(worst, abs(trace + n / 2 * half) / (n / 2 * half))
        assert worst <= 1e-13

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


def _numeric(monkeypatch):
    """Turn the theorem route off: ``height`` then sums every gradient (``_grad_sum``)."""
    H = sys.modules["latcrit.height"]
    monkeypatch.setattr(H, "_certificate", lambda *args: None)


def _record_verdicts(monkeypatch) -> list:
    """Record the norm of every layer judged: the height's certificate judges in ``certify``."""
    C = sys.modules["latcrit.certify"]
    real, judged = C.two_design_verdict, []
    monkeypatch.setattr(C, "two_design_verdict", lambda m, card, S, Q, scale=1: judged.append(
        m) or real(m, card, S, Q, scale))
    return judged


REPORT_FIELDS = ("height", "F_value", "constant_C", "projected_residual", "truncation_radius",
                 "tail_estimate", "half_vectors_form", "half_vectors_dual")


class TestTheoremRoute:
    def test_against_the_numeric_route_and_the_certificate(self, monkeypatch):
        # the 42 entries, their exact inverses and their 2Q rescalings: every
        # one is certified from the walk of its tested side at F's radius,
        # with the report fully_critical gives on its integral form d Q (the
        # per-layer verdicts and cardinalities included).  Against the
        # numeric route, which the theorem route turned off gives: F and the
        # height within 2e-15 relative, the radius and both counts no
        # larger, the theorem's G = -(S_A / 2) A^-1 within 1e-14 relative of
        # the summed one, a residual of at most 1e-15 and a tail below
        # 1e-12 |F|
        H = sys.modules["latcrit.height"]
        forms = [e.gram for e in load_catalog().entries]
        forms = forms + [gram_inverse(q) for q in forms] + [double(q) for q in forms]
        real, certs = H._certificate, []
        monkeypatch.setattr(H, "_certificate",
                            lambda *args: certs.append(real(*args)) or certs[-1])
        reports = [height(q) for q in forms]
        assert len(certs) == len(forms)
        _numeric(monkeypatch)
        worst, walked = 0.0, [0, 0]
        for q, rep, cert in zip(forms, reports, certs):
            num = height(q)
            assert (rep.route, num.route, num.certificate) == ("theorem", "numeric", None)
            assert rep.constant_C == num.constant_C
            assert abs(rep.F_value - num.F_value) <= 2e-15 * abs(num.F_value), q
            assert abs(rep.height - num.height) <= 2e-15 * abs(num.height), q
            assert rep.truncation_radius <= num.truncation_radius, q
            assert rep.half_vectors_form <= num.half_vectors_form, q
            assert rep.half_vectors_dual <= num.half_vectors_dual, q
            assert rep.tail_estimate < 1e-12 * abs(rep.F_value), q
            walked[0] += rep.half_vectors_form + rep.half_vectors_dual
            walked[1] += num.half_vectors_form + num.half_vectors_dual
            worst = max(worst, np.linalg.norm(rep.gradient - num.gradient)
                        / np.linalg.norm(num.gradient))
            assert rep.projected_residual <= 1e-15
            P, _ = q.integral_rescale()
            ref = fully_critical(GramMatrix(P))
            assert {**cert.to_dict(), "name": None} == {**ref.to_dict(), "name": None}, q
            assert rep.certificate == {"tested": ref.tested, "level": ref.level,
                                       "weight": ref.weight, "horizon_B": ref.horizon_B,
                                       "layers_tested": ref.layers_tested}
        assert worst <= 1e-14
        assert sum(rep.certificate["layers_tested"] for rep in reports[:42]) == 60
        assert sum(rep.half_vectors_form + rep.half_vectors_dual for rep in reports[:42]) == 518_900
        assert walked[0] < walked[1]

    @pytest.mark.parametrize("name", ["sta3", "stb3", "stc12", "std5b", "ste10a", "stf7a"])
    def test_fd_agreement_of_the_theorem_gradient(self, name):
        # one entry per dimension 2-7: the theorem's G against the central
        # difference of F along a random symmetric direction
        Q = load_catalog().by_name(name).gram
        rep = height(Q)
        assert rep.route == "theorem"
        A = normalized_to_det1(Q)
        S = np.random.default_rng(Q.n).standard_normal(A.shape)
        S = 0.5 * (S + S.T) / np.linalg.norm(S)
        an = float(np.tensordot(rep.gradient, S))
        assert abs(directional_derivative_fd(A, S, 1e-4) - an) <= 1e-4 * abs(an)

    def test_uncertified_forms_judge_every_layer_as_fully_critical_does(self, monkeypatch):
        # diag(1, 2) and the seeded forms whose certificate fails at its first
        # layer: the report the height judges (``certify._report``) is
        # fully_critical's on the integral form d Q, every layer's verdict
        # included, so no stop at a failed layer hides the later ones; then
        # the numeric route, every other field as with the theorem route
        # turned off, bit for bit
        from helpers import exact_kernel_forms

        H = sys.modules["latcrit.height"]
        forms = [D12] + [q for name, q in exact_kernel_forms(60)
                         if name.startswith("seeded") and q.n <= 5]
        failing, refs = [], []
        for q in forms:
            P, _ = q.integral_rescale()
            ref = fully_critical(GramMatrix(P))
            if ref.per_layer and not ref.per_layer[0].is_design:
                failing.append(q)
                refs.append({**ref.to_dict(), "name": None})
        assert D12 in failing and len(failing) >= 40
        real, judged = H._report, []
        monkeypatch.setattr(H, "_report", lambda *args: judged.append(real(*args)) or judged[-1])
        reports, later = [], 0
        for q, ref in zip(failing, refs):
            judged.clear()
            reports.append(height(q))
            assert [{**rep.to_dict(), "name": None} for rep in judged] == [ref], q
            assert judged[0].layers_tested == len(judged[0].cardinalities), q
            later += judged[0].layers_tested > 1
        assert later >= 40
        monkeypatch.undo()
        _numeric(monkeypatch)
        for q, rep in zip(failing, reports):
            num = height(q)
            assert (rep.route, rep.certificate) == ("numeric", None)
            for field in REPORT_FIELDS:
                assert getattr(rep, field) == getattr(num, field), (q, field)
            assert np.array_equal(rep.gradient, num.gradient)

    @pytest.mark.parametrize("rows, horizon", [([[7, 3], [3, 1009]], 10_580),
                                               ([[2, 0], [0, 33]], 136)])
    def test_a_horizon_beyond_the_walk_judges_no_layer(self, rows, horizon, monkeypatch):
        # [[7, 3], [3, 1009]] has horizon 10,580, whose floor is already
        # beyond the height's walk; diag(2, 33) has horizon 136, a range of
        # Q[x] <= 136 against a walk to 103, though its floor (Q[x] <= 43)
        # is within it
        C = sys.modules["latcrit.certify"]
        Q = GramMatrix(rows)
        assert C._counted(C._plan(Q, None, True)).horizon == horizon
        judged = _record_verdicts(monkeypatch)
        rep = height(Q)
        assert (rep.route, rep.certificate, judged) == ("numeric", None, [])

    def test_a_large_level_is_ruled_out_before_its_cusps_are_counted(self, monkeypatch):
        # level 8,000,000,052: both sides walk exactly, but the horizon's
        # floor already exceeds the walk, so no cusp or index is counted
        C = sys.modules["latcrit.certify"]
        Q = GramMatrix([[2, 1], [1, 10**9 + 7]])
        def refuse(N):
            raise AssertionError("counted")
        monkeypatch.setattr(C, "_gamma0", refuse)
        walks = _record_walks(monkeypatch)
        rep = height(Q)
        assert (walks["integral"], walks["float"]) == (2, 0)
        assert (rep.route, rep.certificate) == ("numeric", None)
        assert C._plan(Q, None, True).level == 8_000_000_052

    def test_float_input_is_never_judged(self, monkeypatch):
        H = sys.modules["latcrit.height"]
        monkeypatch.setattr(H, "_plan", None)
        for e in load_catalog().entries[:12]:
            rep = height(normalized_to_det1(e.gram))
            assert (rep.route, rep.certificate) == ("numeric", None)

    @pytest.mark.parametrize("Q, walks, judged, route, at", [
        (load_catalog().by_name("stc12").gram, 2, 1, "theorem", "r_F"),
        (GramMatrix([[6 * v for v in row]
                     for row in load_catalog().by_name("ste15a").gram.entries]),
         2, 1, "theorem", "r_N"),
        (GramMatrix([[14, -16, 8], [-16, 45, -20], [8, -20, 9]]), 3, 1, "numeric", "r_N"),
        (D12, 2, 1, "numeric", "r_N"), (GramMatrix([[7, 3], [3, 1009]]), 2, 0, "numeric", "r_N"),
        (GramMatrix([[4, 9, -3], [9, 30, -9], [-3, -9, 20]]), 2, 1, "numeric", "r_N")],
        ids=["stc12", "6ste15a", "fails-below", "diag12", "horizon-beyond",
             "covered-at-the-numeric-radius"])
    def test_walks_and_one_reduction_per_height(self, Q, walks, judged, route, at, monkeypatch):
        # the height reduces each side once, on its walk record, and the
        # certificate reduces nothing of its own.  stc12 walks its tested
        # side at F's radius r_F, passes, and walks the other one there;
        # 6 ste15a's range lies beyond the walk to r_F but within the walk to
        # the numeric radius r_N, where it passes and is kept, with the
        # numeric gradient's majorant in the tail; the third form is covered
        # at r_F but fails, so both sides are walked again at the larger r_N;
        # diag(1, 2) fails too, but its two radii are equal and its tested
        # side's walk is kept; [[7, 3], [3, 1009]]'s range lies beyond both
        # walks; the last form's range lies beyond the walk to r_F but within
        # the one to r_N, where it is judged (and fails) on that walk
        H = sys.modules["latcrit.height"]
        shells = sys.modules["latcrit.shells"]
        sides = H._sides(Q, det1=True)
        F_row, theorem = H._bounds(sides, H._F_orders(Q.n), True)
        numeric = H._numeric_bound(sides)
        radii = {"r_F": H._radius([F_row, theorem]), "r_N": H._radius([F_row, numeric])}
        calls = {"walk": 0, "lll": 0, "judged": 0}
        real_walk, real_lll, real_cert = H.short_vectors_float, shells.lll_reduce, H._certificate
        monkeypatch.setattr(H, "short_vectors_float", lambda *a: calls.__setitem__(
            "walk", calls["walk"] + 1) or real_walk(*a))
        monkeypatch.setattr(shells, "lll_reduce", lambda *a: calls.__setitem__(
            "lll", calls["lll"] + 1) or real_lll(*a))
        monkeypatch.setattr(H, "_certificate", lambda *a: calls.__setitem__(
            "judged", calls["judged"] + 1) or real_cert(*a))
        rep = height(Q)
        assert (calls, rep.route) == ({"walk": walks, "lll": 2, "judged": judged}, route)
        assert rep.truncation_radius == radii[at]
        j = int(np.searchsorted(H._RADII, radii[at], side="right")) - 1
        row = theorem if (route, at) == ("theorem", "r_F") else numeric
        assert rep.tail_estimate == float(F_row[0][j] + row[0][j])
        _numeric(monkeypatch)
        num = height(Q).truncation_radius
        assert num == radii["r_N"]
        assert (rep.truncation_radius < num) == (route == "theorem" and at == "r_F")

    def test_theorem_radius_is_at_most_the_numeric_one(self):
        # the proof of r_F <= r_N (``height._numeric_bound``) and its premises: at
        # every grid radius the theorem gradient's majorant is at most the
        # numeric gradient's and its a-priori tolerance at least the numeric
        # one's, so r_F, where F's majorant and the theorem gradient's meet
        # their tolerances, is at most r_N, F's and the numeric gradient's.
        # On every exact kernel form (the catalogue, its working forms and
        # 900 seeded forms), the 42 float entries, and three diagonal forms
        # far from the catalogue's shapes
        from helpers import exact_kernel_forms

        H = sys.modules["latcrit.height"]
        forms = [q for _, q in exact_kernel_forms()]
        forms += [e.gram.to_float() for e in load_catalog().entries]
        forms += [GramMatrix([[2]]), GramMatrix([[1, 0], [0, 100]]),
                  GramMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 40000]])]
        for q in forms:
            sides = H._sides(q, det1=True)
            F_row, theorem = H._bounds(sides, H._F_orders(sides.A.shape[0]), True)
            numeric = H._numeric_bound(sides)
            assert np.all(theorem[0] <= numeric[0]) and theorem[1] >= numeric[1], q
            assert H._radius([F_row, theorem]) <= H._radius([F_row, numeric]), q
        assert len(forms) == 1001 + 42 + 3


def _record_built(monkeypatch) -> tuple[dict, list]:
    """Count ``_norm_factor`` and float inversions, and keep every walk's HalfSet."""
    H = sys.modules["latcrit.height"]
    calls, halves = {"norm_factor": 0, "inv": 0}, []
    real_factor, real_inv, real_walk = H._norm_factor, np.linalg.inv, H.short_vectors_float

    def counted(key, fn):
        return lambda *a: calls.__setitem__(key, calls[key] + 1) or fn(*a)

    monkeypatch.setattr(H, "_norm_factor", counted("norm_factor", real_factor))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", real_inv))
    def walk(*args):
        out = real_walk(*args)
        halves.append(out[0])
        return out

    monkeypatch.setattr(H, "short_vectors_float", walk)
    return calls, halves


class TestBuiltOnFirstRead:
    def test_theorem_route_builds_only_what_its_report_reads(self, monkeypatch):
        # every catalogue height passes at F's radius r_F: the numeric
        # gradient's majorant and its lam_max are never built, no walk is
        # joined, no layer index and no gradient map is built, and the two
        # float inversions per height bound the walks of its two reduced
        # integral forms
        calls, halves = _record_built(monkeypatch)
        runs = _record_certified_sums(monkeypatch)
        for e in load_catalog().entries:
            assert height(e).route == "theorem"
        assert calls == {"norm_factor": 0, "inv": 84} and len(halves) == 84
        assert not any("_joined" in vars(half) for half in halves)
        for sides, _, _, (*_, layers, _) in runs:
            assert "maps" not in vars(sides)
            assert not any("inverse" in vars(side) for side in layers)

    def test_numeric_route_builds_them(self, monkeypatch):
        # diag(1, 2) fails its certificate at r_F = r_N and sums its gradient
        calls, halves = _record_built(monkeypatch)
        runs = _record_certified_sums(monkeypatch)
        assert height(D12).route == "numeric"
        assert calls["norm_factor"] == 1 and len(halves) == 2
        assert all("_joined" in vars(half) for half in halves)
        [(sides, _, _, (*_, layers, _))] = runs
        assert "maps" in vars(sides) and all("inverse" in vars(side) for side in layers)


class TestOneLatticeSumLoop:
    def test_one_enumeration_per_side_per_round(self, monkeypatch):
        # a GramMatrix takes the exact route: the integral forms of the form
        # and of its inverse are walked once each, at the predicted radius,
        # and the float walk never runs
        H = sys.modules["latcrit.height"]
        walks = _record_walks(monkeypatch)
        rep = height(load_catalog().by_name("ste10a"))
        assert walks == {"radius": [rep.truncation_radius] * 2, "integral": 2, "float": 0}
        assert rep.truncation_radius > H._RADII[0]

    def test_radius_is_final_when_the_prediction_falls_short(self, monkeypatch):
        # infinite a-priori tolerances make the prediction the smallest
        # radius; the real check rejects it, and no larger radius is tried
        H = sys.modules["latcrit.height"]
        e = load_catalog().by_name("stf7a")
        real, real_numeric = H._bounds, H._numeric_bound
        monkeypatch.setattr(H, "_bounds", lambda *args: [(m, math.inf) for m, _ in real(*args)])
        monkeypatch.setattr(H, "_numeric_bound", lambda sides: (real_numeric(sides)[0], math.inf))
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
        for sides, orders, gradient, (total, *_) in runs:
            a_priori = H._bounds(sides, orders, gradient)[0][1]
            assert a_priori <= H.TAIL_REL * total, (sides.A, a_priori, total)

    @pytest.mark.parametrize("name", ["sta3", "stc12", "std5b", "ste10a"])
    def test_height_agrees_with_F_value_and_grad_F(self, name):
        # F against a reference sum, the gradient against the central
        # difference of F, and the residual against the tangent projection,
        # on both routes: the exact entry takes the theorem route, its float
        # form the numeric one.  The numeric route's F is within its tail of
        # the F-only sum.  The theorem route sums F at F's own radius, where
        # the tail (1.0e-17 on sta3) is below one rounding of F: its F is
        # checked against the exact sum over the same layers, within the
        # rounding of its terms and of their summation (``F_at_the_walk``);
        # the truncation beyond is the tail's (TestAnnulusMajorant)
        Q = load_catalog().by_name(name).gram
        A = normalized_to_det1(Q)
        for L, route in ((Q, "theorem"), (A, "numeric")):
            rep = height(L)
            assert rep.route == route
            G = rep.gradient
            if route == "numeric":
                assert abs(rep.F_value - F_value(A)) <= rep.tail_estimate
            else:
                exact, rounding = F_at_the_walk(Q, rep.truncation_radius)
                assert abs(float(rep.F_value - exact)) <= rounding
            S = np.random.default_rng(Q.n).standard_normal(A.shape)
            S = 0.5 * (S + S.T) / np.linalg.norm(S)
            an = float(np.tensordot(G, S))
            assert abs(directional_derivative_fd(A, S, 1e-4) - an) <= 1e-4 * abs(an)
            residual = np.linalg.norm(tangent_part(A, G)) / np.linalg.norm(G)
            assert abs(rep.projected_residual - residual) <= 1e-14

    def test_gradient_assembly_against_exact_moments(self, monkeypatch):
        # the fold of each parent's leaves against an exact reference on each
        # entry's final collection: the certificate's per-layer moments S of
        # the full layers (Python ints, in input coordinates) at the walk's
        # integer bound, times the float weights as Fractions, and the dual's
        # sum sandwiched by the float A^-1 as Fractions; the weights are
        # taken on the distinct norms of the layers, one per layer
        # (the catalogue takes the theorem route, so its certificates are
        # turned off here to sum the gradient on the numeric one)
        H = sys.modules["latcrit.height"]
        real = H._grad_sum
        calls = []
        monkeypatch.setattr(H, "_certificate", lambda *args: None)
        monkeypatch.setattr(H, "_grad_sum", lambda sides, layers, f: calls.append(
            (sides, layers, f)) or real(sides, layers, f))
        for e in load_catalog().entries:
            height(e)
            sides, (form, dual), f = calls[-1]
            n = sides.A.shape[0]
            weights = (H._gradient_weight(n, math.pi * form.distinct, f),
                       np.exp(-math.pi * dual.distinct) / dual.distinct)
            sums = []
            for q, side, (_, unit), w in zip((e.gram, gram_inverse(e.gram)), (form, dual),
                                             sides.integral, weights):
                m = np.rint(side.distinct * unit).astype(np.int64)
                moments = layer_moments(q, Fraction(int(m[-1]), q.integral_rescale()[1]))
                assert [norm * q.integral_rescale()[1] for norm in moments] == m.tolist()
                assert [card for card, _ in moments.values()] == (2 * side.counts).tolist()
                sums.append(sum((Fraction(wl) * S for wl, (_, S) in zip(w.tolist(),
                                                                      moments.values())),
                                np.zeros((n, n), dtype=object)))
            Ainv = np.array([[Fraction(v) for v in row] for row in sides.Ainv.tolist()])
            ref = Ainv @ sums[1] @ Ainv - sums[0]
            ref = np.array((ref + ref.T) / 2, dtype=float)
            G, _ = real(sides, (form, dual), f)
            assert np.abs(G - ref).max() <= 5e-14, e.name

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
        # bit for bit, on the catalogue and its duals.  Each side is walked
        # on its walk record, the LLL-reduced Qr = U^t Q U and
        # Qr' = U'^t Q^-1 U': as Qr / delta and delta Qr', as the int64
        # integral rows d Qr at unit d delta and d' Qr' at unit d' / delta,
        # and mapped by U^t and U'^t A^-1; no float matrix is inverted
        H = sys.modules["latcrit.height"]
        inverted, real_inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverted.append(M) or real_inv(M))
        for e in load_catalog().entries:
            for q in (e.gram, gram_inverse(e.gram)):
                qinv = gram_inverse(q)
                (qred, U), (qred_inv, U_inv) = lll_reduce(q), lll_reduce(qinv)
                (P, d), (Pi, di) = qred.integral_rescale(), qred_inv.integral_rescale()
                delta = float(determinant(q)) ** (1.0 / q.n)
                sides = H._sides(q, det1=True)
                assert np.array_equal(sides.A, normalized_to_det1(q)), e.name
                assert np.array_equal(sides.Ainv, qinv.to_float() * delta), e.name
                assert np.array_equal(sides.walked[0], qred.to_float() / delta), e.name
                assert np.array_equal(sides.walked[1], qred_inv.to_float() * delta), e.name
                assert np.array_equal(sides.U[0], U) and np.array_equal(sides.U[1], U_inv)
                assert np.array_equal(sides.maps[0], U.T), e.name
                assert np.array_equal(sides.maps[1], U_inv.T.astype(float) @ sides.Ainv), e.name
                assert sides.det == float(determinant(q))
                [(Pf, unit), (Pif, unit_inv)] = sides.integral
                assert Pf.dtype == Pif.dtype == np.int64
                assert Pf.tolist() == P and unit == d * delta and d == q.integral_rescale()[1]
                assert Pif.tolist() == Pi and unit_inv == di / delta
                assert sides.exact[0]._P == q._P and sides.exact[0].is_integral
                assert sides.exact[1] == d * di
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
                assert sides.det == det and sides.integral == (None, None) and sides.exact is None
                assert sides.walked[0] is sides.A and sides.walked[1] is sides.Ainv
                assert all(np.array_equal(U, np.eye(len(A))) for U in sides.U)
                assert np.array_equal(sides.maps[1], sides.Ainv)

    def test_reduced_dual_walk_keeps_the_layers(self):
        # on the catalogue, its duals and ste36 under six column shears, each
        # side walked on its LLL-reduced basis gives the layers its input
        # basis gives at the height's radius: the same distinct norms and
        # per-layer counts (the brute-force box's for n <= 5), and
        # half_vectors_form and half_vectors_dual unchanged; 26 of the 42
        # entries' dual bases and 19 of their own bases change under the
        # reduction, and so does the sheared form's
        H = sys.modules["latcrit.height"]
        changed = {}  # (name, side): the reduction changed the side's basis
        entries = load_catalog().entries
        forms = [(name, q) for e in entries
                 for name, q in ((e.name, e.gram), (f"{e.name}^-1", gram_inverse(e.gram)))]
        for name, q in forms + [("sheared ste36", SHEARED_STE36)]:
            rep = height(q)
            sides = H._sides(q, det1=True)
            radius = rep.truncation_radius
            for k, (p, half_vectors) in enumerate(((q, rep.half_vectors_form),
                                                   (gram_inverse(q), rep.half_vectors_dual))):
                P, d = p.integral_rescale()
                unit = sides.integral[k][1]
                integral = (np.array(P, dtype=float), unit)
                given = H._layers((sides.A, sides.Ainv)[k], integral, radius,
                                  H._exact_bound(integral, radius))
                reduced = H._walk(sides, k, radius)
                assert np.array_equal(reduced.distinct, given.distinct), (name, k)
                assert np.array_equal(reduced.counts, given.counts), (name, k)
                assert half_vectors == len(reduced.half) == len(given.half), (name, k)
                if q.n <= 5:
                    m = np.rint(reduced.distinct * unit).astype(np.int64)
                    bound = Fraction(math.floor((radius * (1 + 1e-9) + 1e-9) * unit), d)
                    assert {Fraction(int(v), d): 2 * int(c) for v, c in zip(m, reduced.counts)
                            } == box_layers(p, bound), (name, k)
                changed[name, k] = not np.array_equal(sides.U[k], np.eye(q.n))
        assert [sum(changed[e.name, k] for e in entries) for k in (0, 1)] == [19, 26]
        assert changed["sheared ste36", 0]


class TestOncePerValue:
    @pytest.mark.parametrize("name", ["sta2", "stc12", "std5b", "ste10a", "stf28a"])
    def test_layers_regroup_the_walk(self, name, monkeypatch):
        # each side's half-set is the float walk's of the form it walks (its
        # reduced basis, rows in reduced coordinates), in walk order; its exact integer
        # norms regroup into the layers through the inverse index;
        # the layer counts are the exact ones (the certificate's enumeration,
        # and the brute-force box where it is small); and a summand summed
        # against the layer counts agrees with the exactly rounded sum over
        # the vectors
        H = sys.modules["latcrit.height"]
        runs = _record_certified_sums(monkeypatch)
        Q = load_catalog().by_name(name).gram
        height(Q)
        [(sides, _, _, (_, _, _, radius, (form, dual), _))] = runs
        a = sides.A.shape[0] / 2
        for q, M, (P, unit), side, g in (
                (Q, sides.walked[0], sides.integral[0], form,
                 lambda c: H._summand(a, 1.0, math.pi * c, upper_gamma(a, math.pi * c))),
                (gram_inverse(Q), sides.walked[1], sides.integral[1], dual,
                 lambda b: upper_gamma(0.0, math.pi * b))):
            X, _ = H.short_vectors_float(M, radius)
            rows = half_rows(side.half)
            assert np.array_equal(half_rows(X), rows)
            m = np.rint(side.distinct * unit)
            assert np.array_equal(m / unit, side.distinct)
            assert np.array_equal(m[side.inverse], ((rows @ P) * rows).sum(1))
            assert np.all(np.diff(side.distinct) > 0)
            assert np.array_equal(np.bincount(side.inverse), side.counts)
            d = q.integral_rescale()[1]
            bound = Fraction(math.floor((radius * (1 + 1e-9) + 1e-9) * unit), d)
            layers = {Fraction(int(k), d): 2 * int(c) for k, c in zip(m, side.counts)}
            assert layers == layer_counts(enumerate_layers(q, bound)), name
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
        # 518,900 vectors on 1,065 exact layers at F's radius (765,092 on
        # 1,175 at the gradient's, 5,608 distinct float norms before the
        # layers were exact): one call per side per height, on
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
        sides = [side for _, _, _, (_, _, _, _, layers, _) in runs for side in layers]
        assert lanes == [len(side.distinct) for side in sides]
        assert sum(lanes) == 1065
        assert sum(len(side.half) for side in sides) == 518_900


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
# ste36 under six seeded column shears: a skewed basis of a catalogue lattice
SHEARED_STE36 = GramMatrix([[2, -4, 0, 5, 4, 1], [-4, 26, 3, -26, 0, -7], [0, 3, 2, -2, 4, -1],
                            [5, -26, -2, 28, 7, 7], [4, 0, 4, 7, 26, 0], [1, -7, -1, 7, 0, 2]])
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

    def layers(M, integral, radius, bound):
        walks["radius"].append(radius)
        side["M"] = M
        return real_layers(M, integral, radius, bound)

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
        for (A, s), (sides, orders, gradient, (_, _, tail, r, _, _)) in zip(ZETA_CASES, runs):
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
        W = half_rows(Y) @ Ainv
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
        sides = H._sides(D4, det1=True)
        for majorant, _ in [*H._bounds(sides, H._F_orders(4), True), H._numeric_bound(sides)]:
            assert np.all(np.diff(majorant) <= 0.0)
            assert majorant[-1] == 0.0
