from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    GramError,
    GramMatrix,
    ParityError,
    determinant,
    double,
    gram_from_json,
    gram_from_text,
    gram_inverse,
    is_even,
    level,
    lll_reduce,
    orthosum_A1,
)
from latcrit.catalog import load_catalog
from latcrit.cli import _random_integral_spd
from latcrit.gram import _leading_minors
from latcrit.height import _projected_residual, _sides

from helpers import (
    bareiss_determinant,
    cofactor_adjugate,
    exact_kernel_forms,
    exp_map_float,
    gram_json,
    leading_minors_rational,
    lll_reduce_rational,
    random_rational_spd,
    tangent_part,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
A1 = GramMatrix([[2]])


def cofactor_inverse_2x2(Q: GramMatrix):
    (a, b), (_, d) = Q.entries
    det = a * d - b * b
    return [[d / det, -b / det], [-b / det, a / det]]


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(GramError):
            GramMatrix([[1, 2], [0, 1]])

    def test_rejects_indefinite(self):
        with pytest.raises(GramError):
            GramMatrix([[1, 2], [2, 1]])

    def test_rejects_nonsquare(self):
        with pytest.raises(GramError):
            GramMatrix([[1, 0, 0], [0, 1, 0]])

    def test_accepts_rational_strings(self):
        q = GramMatrix([["1/2", 0], [0, "3/2"]])
        assert q.entries[0][0] == Fraction(1, 2)

    @pytest.mark.parametrize("rows", [
        [[1, 1], [1, 1]],                       # singular: second minor 0
        [[0, 1], [1, 0]],                       # zero first pivot
        [[2, 0], [0, -3]],                      # negative diagonal
        [[-1]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],      # late zero pivot: minors 1, 1, 0
        [["1/2", "1/3"], ["1/3", "2/9"]],       # rational, second minor 0
    ])
    def test_rejects_non_positive_definite(self, rows):
        # a GramError, never a ZeroDivisionError from the elimination
        with pytest.raises(GramError, match="not positive definite"):
            GramMatrix(rows)

    @pytest.mark.parametrize("entry", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_float(self, entry):
        # a GramError naming the entry, not Fraction's OverflowError or ValueError
        with pytest.raises(GramError, match=f"cannot interpret {entry!r} as an exact rational"):
            GramMatrix([[entry, 0], [0, 1]])
        with pytest.raises(GramError):
            GramMatrix([[2.0, 1.0], [1.0, entry]])


class TestIntegralForm:
    def test_cached_form(self):
        q = GramMatrix([["1/2", "-1/4"], ["-1/4", "2/3"]])
        assert q.integral_rescale() == ([[6, -3], [-3, 8]], 12)
        assert not q.is_integral and A2.is_integral
        rows, _ = q.integral_rescale()
        rows[0][0] = 0  # a copy: the cached form is untouched
        assert q.integral_rescale()[0][0][0] == 6

    def test_minors_match_rational_oracle(self):
        # Bareiss minors of P = d Q are d^k times the minors of Q
        for name, Q in exact_kernel_forms():
            P, d = Q.integral_rescale()
            got = [Fraction(m, d ** (k + 1)) for k, m in enumerate(_leading_minors(P))]
            assert got == leading_minors_rational(Q.entries), name

    def test_huge_entries_are_exact(self):
        # B^t B with B of order 10^15: entries of order 10^30, far past float
        rng = np.random.default_rng(30)
        B = [[int(v) * 10**15 + int(w) for v, w in zip(rng.integers(-9, 10, 6),
                                                       rng.integers(0, 10**6, 6))]
             for _ in range(6)]
        rows = [[sum(B[k][i] * B[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        for Q in (GramMatrix(rows), GramMatrix([[Fraction(v, 7) for v in r] for r in rows])):
            assert max(abs(v) for r in Q.entries for v in r) > 10**29
            det = determinant(Q)
            assert det == bareiss_determinant(Q.entries)
            adj = cofactor_adjugate(Q.entries)
            assert gram_inverse(Q).entries == tuple(tuple(v / det for v in r) for r in adj)
            red, U = lll_reduce_rational(Q)
            got_red, got_U = lll_reduce(Q)
            assert got_red == red and (got_U == U).all()


class TestInverse:
    def test_identity(self):
        I3 = GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert gram_inverse(I3) == I3

    def test_diagonal(self):
        assert gram_inverse(GramMatrix([[1, 0], [0, 2]])) == GramMatrix([["1", 0], [0, "1/2"]])

    def test_a2_against_cofactor_oracle(self):
        assert gram_inverse(A2) == GramMatrix(cofactor_inverse_2x2(A2))
        assert gram_inverse(A2).entries[0][0] == Fraction(2, 3)

    def test_involution_on_random_rationals(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(4):
                Q = random_rational_spd(n, rng)
                assert gram_inverse(gram_inverse(Q)) == Q

    def test_catalog_against_cofactor_adjugate(self):
        for e in load_catalog().entries:
            det = bareiss_determinant(e.gram.entries)
            adj = cofactor_adjugate(e.gram.entries)
            assert gram_inverse(e.gram).entries == tuple(tuple(v / det for v in r) for r in adj)

    def test_det_of_inverse_is_reciprocal(self):
        for e in load_catalog().entries[:10]:
            assert determinant(gram_inverse(e.gram)) == 1 / determinant(e.gram)


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(GramMatrix([[int(i == j) for j in range(n)]
                                           for i in range(n)])) == 1

    def test_a2_cofactor(self):
        assert determinant(A2) == 2 * 2 - 1 * 1 == 3

    def test_catalog_against_bareiss_oracle(self):
        cat = load_catalog()
        assert determinant(cat.by_name("stc12").gram) == 4
        for e in cat.entries:
            assert determinant(e.gram) == bareiss_determinant(e.gram.entries)


class TestParityAndLevel:
    def test_is_even_examples(self):
        assert not is_even(I2)
        assert is_even(A2)
        q = load_catalog().by_name("ste10a").gram
        assert not is_even(q)           # odd diagonal 3
        assert is_even(double(q))

    def test_non_integral_is_not_even(self):
        assert not is_even(GramMatrix([["1/2", 0], [0, "1/2"]]))

    def level_oracle(self, Q):
        # increasing search straight from the definition
        qinv = gram_inverse(Q)
        l = 1
        while True:
            scaled = [[v * l for v in row] for row in qinv.entries]
            if all(v.denominator == 1 for row in scaled for v in row) and all(
                int(scaled[i][i]) % 2 == 0 for i in range(Q.n)
            ):
                return l
            l += 1

    def test_level_examples(self):
        assert level(A1) == 4 == self.level_oracle(A1)
        twoA2 = GramMatrix([[4, 2], [2, 4]])
        assert level(twoA2) == 6 == self.level_oracle(twoA2)
        assert level(double(load_catalog().by_name("ste10a").gram)) == 20

    def test_closed_form_matches_search(self):
        forms = [Q for _, Q in exact_kernel_forms(seeded=0) if is_even(Q)]
        rng = np.random.default_rng(10)
        for k in range(100):
            Q = _random_integral_spd(2 + k % 6, rng)
            forms.append(Q if is_even(Q) else double(Q))
        for Q in forms:
            assert level(Q) == self.level_oracle(Q)

    def test_level_rejects_odd(self):
        with pytest.raises(ParityError):
            level(I2)

    def test_level_of_double_is_twice(self):
        # exhaustively over the embedded catalogue, on the even working form
        for e in load_catalog().entries:
            work = e.gram if is_even(e.gram) else double(e.gram)
            assert level(double(work)) == 2 * level(work)


class TestBlockOps:
    def test_double(self):
        assert double(I2) == GramMatrix([[2, 0], [0, 2]])

    def test_double_of_integral_is_even(self):
        for e in load_catalog().entries:
            assert is_even(double(e.gram))
            level(double(e.gram))  # never raises

    def test_orthosum(self):
        assert orthosum_A1(A2) == GramMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 2]])

    def test_orthosum_determinant_doubles(self):
        q = load_catalog().by_name("stb6").gram  # A3
        assert determinant(orthosum_A1(q)) == 2 * determinant(q)

    def test_orthosum_preserves_parity(self):
        for name in ("stb6", "ste10a"):
            q = load_catalog().by_name(name).gram
            assert is_even(orthosum_A1(q)) == is_even(q)


class TestExpMap:
    # the geodesic chart behind the gradient's finite-difference oracle
    def test_zero_direction(self):
        A = A2.to_float()
        assert np.allclose(exp_map_float(A, np.zeros((2, 2)), 1.0), A, atol=1e-15)

    def test_commuting_diagonal(self):
        out = exp_map_float(I2.to_float(), np.diag([1.0, -1.0]), 0.3)
        expect = np.diag([np.exp(0.3), np.exp(-0.3)])
        assert np.allclose(out, expect, atol=1e-14)
        assert abs(np.linalg.det(out) - 1.0) < 1e-14

    def test_offdiagonal_against_series_oracle(self):
        Hm = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = exp_map_float(I2.to_float(), Hm, 0.1)
        # truncated power series of expm(0.1 * Hm)
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 30):
            term = term @ (0.1 * Hm) / k
            series = series + term
        assert np.allclose(out, series, atol=1e-14)
        assert abs(out[0, 1] - np.sinh(0.1)) < 1e-14
        assert np.allclose(out, out.T, atol=1e-14)

    def test_det_preserved_for_tangent_directions(self):
        rng = np.random.default_rng(11)
        for Q in (A2, GramMatrix([[2, 0, 1, 1], [0, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]])):
            A = Q.to_float()
            d0 = float(determinant(Q))
            for _ in range(5):
                S = rng.standard_normal((Q.n, Q.n))
                H = tangent_part(A, 0.5 * (S + S.T))
                t = float(rng.uniform(-0.5, 0.5))
                d = np.linalg.det(exp_map_float(A, H, t))
                assert abs(d - d0) / d0 < 1e-10


class TestTangentProject:
    # the projection of a gradient onto the determinant-1 tangent space,
    # through the relative residual the height reports, which takes the
    # inverse that the height's sides hold
    def test_parallel_component_removed(self):
        A = A2.to_float()
        assert _projected_residual(_sides(A, det1=False).Ainv, 3.7 * np.linalg.inv(A)) < 1e-14

    def test_idempotent_and_linear(self):
        A = A2.to_float()
        rng = np.random.default_rng(5)
        S1 = rng.standard_normal((2, 2))
        S1 = 0.5 * (S1 + S1.T)
        S2 = rng.standard_normal((2, 2))
        S2 = 0.5 * (S2 + S2.T)

        def projected_norm(G):
            return _projected_residual(_sides(A, det1=False).Ainv, G) * np.linalg.norm(G)

        # adding a parallel component leaves the projection unchanged, and
        # the projection of a combination is the combination of projections
        shifted = S1 - 2.5 * np.linalg.inv(A)
        assert abs(projected_norm(shifted) - projected_norm(S1)) < 1e-14
        assert abs(projected_norm(tangent_part(A, S1)) - projected_norm(S1)) < 1e-14
        combo = 2.0 * tangent_part(A, S1) - 3.0 * tangent_part(A, S2)
        assert abs(projected_norm(2.0 * S1 - 3.0 * S2) - np.linalg.norm(combo)) < 1e-13

    def test_worked_example(self):
        # diag(2, 0) at I2 projects to diag(1, -1): residual sqrt(2) / 2
        out = _projected_residual(_sides(I2, det1=False).Ainv, np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert abs(out - 1.0 / np.sqrt(2.0)) < 1e-15


class TestSerialization:
    def test_json_round_trip(self):
        q = GramMatrix([["1/2", "-1/4"], ["-1/4", "2"]], name="demo")
        back = gram_from_json(gram_json(q))
        assert back == q and back.name == "demo"

    def test_plain_text_format(self):
        q = gram_from_text("2\n2 1\n1 2\n")
        assert q == A2

    def test_text_with_rationals(self):
        q = gram_from_text("2  1/2 0  0 3/2")
        assert q.entries[1][1] == Fraction(3, 2)

    def test_json_dimension_check(self):
        with pytest.raises(GramError):
            gram_from_json('{"n": 3, "gram": [[1, 0], [0, 1]]}')
