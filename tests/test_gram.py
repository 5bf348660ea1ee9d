import math
from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    GramError,
    GramMatrix,
    LatticeDescriptor,
    ParityError,
    determinant,
    double,
    gram_from_json,
    gram_from_text,
    gram_inverse,
    is_even,
    level,
    lll_reduce,
)
from latcrit import gram
from latcrit.catalog import load_catalog, reproduce_tables
from latcrit.cli import _random_integral_spd
from latcrit.gram import _adjugate, _level_dual, _stored
from latcrit.height import _projected_residual, _sides, height

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
    validated_form,
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

    def test_repr_names_the_form(self):
        assert repr(GramMatrix([[2, 1], [1, 2]], name="A2")) == "<GramMatrix 'A2' n=2>"
        assert repr(A1) == "<GramMatrix n=1>"

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

    def test_object_form_is_built_once_and_read_only(self):
        # the exact verdicts' operand: P as Python ints, kept on the form
        q = GramMatrix([["1/2", "-1/4"], ["-1/4", "2/3"]])
        A = q._objects
        assert A.dtype == object and A.tolist() == [[6, -3], [-3, 8]]
        assert all(type(v) is int for v in A.flat)
        assert q._objects is A and not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 0

    @pytest.mark.parametrize("field", ["reference_dimM", "reference_N"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_descriptor_refuses_nonpositive_reference_metadata(self, field, value):
        with pytest.raises(GramError, match="reference metadata must be positive"):
            LatticeDescriptor(gram=A2, **{field: value})
        assert getattr(LatticeDescriptor(gram=A2, **{field: 1}), field) == 1

    def test_minors_match_rational_oracle(self):
        # validation is the elimination: the determinant it keeps is the last
        # rational minor, and it refuses exactly the forms with a nonpositive
        # minor.  P[k][k] - t moves the (k+1)-st minor m_(k+1) - t m_k, so t
        # at the floor of m_(k+1) / m_k and one past it lands on either side
        accepted = set()
        for name, Q in exact_kernel_forms():
            assert determinant(Q) == leading_minors_rational(Q.entries)[-1], name
            P, _ = Q.integral_rescale()
            minors = leading_minors_rational(P)
            for k in range(1, Q.n):
                cut = minors[k] // minors[k - 1]
                for t in (cut, cut + 1):
                    rows = [list(row) for row in P]
                    rows[k][k] -= t
                    want = leading_minors_rational(rows)
                    accepted.add(min(want) > 0)
                    if min(want) > 0:
                        assert determinant(GramMatrix(rows)) == want[-1], name
                    else:
                        with pytest.raises(GramError, match="not positive definite"):
                            GramMatrix(rows)
        assert accepted == {True, False}

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

    def test_inverse_reads_the_primitive_adjugate(self):
        # P^-1 = A / (c det P0) with A = adj P0, P = c P0 primitive, against
        # the cofactor oracle: every catalogue form's rows, their double and
        # six times them, kept by validation, by a form stored unchecked on
        # first read, and by the double
        for e in load_catalog().entries:
            rows = [list(row) for row in e.gram._P]
            want = cofactor_adjugate(rows)
            det = bareiss_determinant(rows)
            for k in (1, 2, 6):
                P = [[k * v for v in row] for row in rows]
                for Q in (GramMatrix(P), _stored(P, 1, k ** e.gram.n * e.gram._det),
                          double(GramMatrix([[Fraction(v, 2) for v in row] for row in P]))):
                    adj, det0, c = Q._inverse
                    assert c == k * math.gcd(*(v for row in rows for v in row)), e.name
                    assert [[Fraction(v, c * det0) for v in row] for row in adj] == [
                        [w / (k * det) for w in row] for row in want], e.name

    def test_det_of_inverse_is_reciprocal(self):
        for e in load_catalog().entries[:10]:
            assert determinant(gram_inverse(e.gram)) == 1 / determinant(e.gram)

    def test_stored_inverse_is_the_validated_form(self):
        # the inverse is stored unchecked: it equals the form that validation
        # and the gcd give from d adj(P) / det P, determinant included
        forms = [(e.name, e.gram) for e in load_catalog().entries] + list(exact_kernel_forms())
        for name, Q in forms:
            got = gram_inverse(Q)
            adj, det = _adjugate(Q._P)
            want = validated_form([[Q._d * v for v in row] for row in adj], det)
            assert (got._P, got._d, got._det) == (want._P, want._d, want._det), name
        assert len(forms) == 1043


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

    def test_stored_double_is_the_validated_form(self):
        # 2Q is stored unchecked: it equals the form that validation gives
        # from the entries 2P / d, determinant included
        # the seeded rational forms in quarters have even denominators
        rng = np.random.default_rng(31)
        forms = [(e.name, e.gram) for e in load_catalog().entries] + list(exact_kernel_forms())
        forms += [(f"quarters-{n}-{k}", random_rational_spd(n, rng)) for n in range(1, 7)
                  for k in range(5)]
        assert sum(Q._d % 2 == 0 for _, Q in forms) >= 20
        for name, Q in forms:
            got = double(Q)
            want = validated_form([[2 * p for p in row] for row in Q._P], Q._d)
            assert (got._P, got._d, got._det, got.name) == (
                want._P, want._d, want._det, want.name), name
        assert len(forms) == 1073


class TestOneElimination:
    """Each form runs one ``_adjugate`` elimination and keeps it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(P):
            count[0] += 1
            return _adjugate(P)

        monkeypatch.setattr(gram, "_adjugate", counted)
        return count

    def test_one_per_validated_construction(self, calls):
        forms = [Q for _, Q in exact_kernel_forms(seeded=20)]
        before = calls[0]
        for k, Q in enumerate(forms, 1):
            GramMatrix(Q.entries)
            assert calls[0] - before == k

    def test_none_for_the_premises_of_a_validated_form_or_its_double(self, calls):
        for name, Q in exact_kernel_forms(seeded=20):
            Q = GramMatrix(Q.entries)
            before = calls[0]
            for V in (Q, double(Q)):
                gram_inverse(V)
                if is_even(V):
                    _level_dual(V, level(V))
            assert calls[0] == before, name

    def test_none_after_the_catalogue_loads(self, calls):
        # reproduce_tables reads the process's one catalogue, and the heights
        # of its 42 entries and of their inverses read the kept eliminations
        cat = load_catalog()
        before = calls[0]
        assert all(r.verdict == "fully-critical" for r in reproduce_tables([2, 3, 4, 5, 6, 7]))
        assert load_catalog().entries is cat.entries and len(cat.entries) == 42
        for e in cat.entries:
            height(e)
            height(gram_inverse(e.gram))
        assert calls[0] == before

    def test_none_beyond_construction_for_a_rational_height(self, calls):
        for q in (3, 7):
            Q = GramMatrix([[Fraction(v, q) for v in row] for row in A2.entries])
            before = calls[0]
            height(Q)
            assert calls[0] == before, q

    def test_a_form_stored_unchecked_eliminates_on_first_read(self, calls):
        dual, _ = _level_dual(A2, level(A2))
        before = calls[0]
        gram_inverse(dual)
        gram_inverse(dual)
        assert calls[0] - before == 1

    def test_none_for_a_stored_inverse(self, calls):
        # gram_inverse reads its result's elimination off its source's, equal
        # to the one the elimination itself gives (called directly here, not
        # counted): the inverse of every seeded form and of its double, the
        # inverse of that inverse, which is the form again, and their premises
        for name, Q in exact_kernel_forms(seeded=20):
            Q = GramMatrix(Q.entries)
            before = calls[0]
            for V in (Q, double(Q)):
                R = gram_inverse(V)
                c = math.gcd(*(v for row in R._P for v in row))
                assert R._inverse == (*_adjugate([[v // c for v in row] for row in R._P]), c)
                back = gram_inverse(R)
                assert (back._P, back._d, back._det) == (V._P, V._d, V._det), name
                for W in (R, double(R)):
                    if is_even(W):
                        _level_dual(W, level(W))
            assert calls[0] == before, name


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

    @pytest.mark.parametrize("text", ['{"gram": 5}', '{"gram": [1, 2]}', '{"gram": [[1], 2]}',
                                      '{"n": 2, "gram": 5}', '{"gram": null}', '{"gram": "2"}',
                                      '{"gram": ["2"]}'])
    def test_json_rows_that_are_not_sequences(self, text):
        with pytest.raises(GramError, match="sequence of rows"):
            gram_from_json(text)

    def test_json_booleans_are_not_entries(self):
        with pytest.raises(GramError, match="cannot interpret True"):
            gram_from_json('{"gram": [[true, false], [false, true]]}')
