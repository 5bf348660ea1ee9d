import functools
import sys
from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    DesignComputationError,
    GramMatrix,
    double,
    fully_critical,
    gram_inverse,
    height,
    layer_moments,
    two_design_verdict,
)
from latcrit.catalog import load_catalog

from helpers import (
    box_vectors,
    moment_identity_holds,
    pair_sum_bruteforce,
    random_rational_spd,
    random_unimodular,
    streamed_verdicts,
    transform_gram,
    two_product_trace,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
D12 = GramMatrix([[1, 0], [0, 2]])


def verdict_at(Q, m):
    m = Fraction(m)
    verdicts = streamed_verdicts(Q, m)
    assert m in verdicts
    return verdicts[m]


def moment_at(Q, m):
    m = Fraction(m)
    return layer_moments(Q, m)[m]


class TestDesignConstant:
    def test_t2_is_size_over_n(self):
        # the design value is (|M| / n) m^2 |M|: c_2 = |M| / n
        for q, m in [(I2, 1), (GramMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), 2),
                     (load_catalog().by_name("ste10a").gram, 3)]:
            card, _ = moment_at(q, m)
            assert verdict_at(q, m).rhs == Fraction(card, q.n) * m * m * card


class TestPairPowerSum:
    # the t = 2 pair sum is the verdict's lhs, Tr(PSPS) / d^2
    def test_z2_norm1_t2(self):
        assert verdict_at(I2, 1).lhs == 8
        assert pair_sum_bruteforce(box_vectors(I2, 1), I2, 2) == 8  # 16 pairs

    def test_diag12_norm1(self):
        assert verdict_at(D12, 1).lhs == 4

    def test_ste10a_norm3_full_convention(self):
        # the reference transcript states 150 per antipodal-pair class;
        # the full-set sum is four times that
        assert verdict_at(load_catalog().by_name("ste10a").gram, 3).lhs == 600 == 4 * 150

    @pytest.mark.parametrize("t", [2])
    def test_against_bruteforce(self, t):
        for Q, m in [(I2, 1), (I2, 2), (A2, 2), (D12, 1), (D12, 2)]:
            assert verdict_at(Q, m).lhs == pair_sum_bruteforce(box_vectors(Q, m), Q, t)

    def test_rational_form(self):
        q = gram_inverse(A2)
        m = Fraction(2, 3)
        assert verdict_at(q, m).lhs == pair_sum_bruteforce(box_vectors(q, m), q, 2)


class TestIsTDesign:
    def test_ste10a_norm4(self):
        v = verdict_at(load_catalog().by_name("ste10a").gram, 4)
        assert v.is_design and v.lhs == v.rhs == 2400 == 4 * 600

    def test_diag12_failure_values(self):
        v = verdict_at(D12, 1)
        assert (v.lhs, v.rhs, v.is_design) == (4, 2, False)

    def test_a2_norm2(self):
        v = verdict_at(A2, 2)
        assert v.is_design and v.lhs == v.rhs == 72

    def test_pair_sum_dominates_design_value(self):
        # the provable inequality lhs >= rhs on every layer (a violation raises)
        for name in ("sta2", "sta3", "stb6", "stc5", "stc12"):
            q = load_catalog().by_name(name).gram
            verdicts = streamed_verdicts(q, 6)
            assert verdicts
            assert all(v.lhs >= v.rhs for v in verdicts.values())

    def test_json_shape(self):
        d = verdict_at(D12, 1).to_dict()
        assert d == {"norm": 1, "t": 2, "lhs": 4, "rhs": 2, "is_design": False}


class TestMomentMatrix:
    def test_z2_norm1(self):
        card, S = moment_at(I2, 1)
        assert card == 4 and (S == 2 * np.eye(2, dtype=object)).all()

    def test_z2_norm5_bruteforce(self):
        _, S = moment_at(I2, 5)
        direct = np.zeros((2, 2), dtype=object)
        for v in box_vectors(I2, 5):
            direct += np.outer(v, v).astype(object)
        assert (S == direct).all() and S[0, 0] == 20

    def test_a2_norm2_corollary(self):
        card, S = moment_at(A2, 2)
        assert (S == 2 * np.array([[2, -1], [-1, 2]], dtype=object)).all()
        # n * S == m |M| Q^{-1} cross-multiplied
        qinv = gram_inverse(A2)
        for i in range(2):
            for j in range(2):
                assert 2 * S[i, j] == 2 * card * qinv.entries[i][j]


class TestMomentRoute:
    def test_examples(self):
        assert verdict_at(I2, 1).is_design
        assert not verdict_at(D12, 1).is_design
        assert verdict_at(load_catalog().by_name("ste10a").gram, 3).is_design

    def test_integer_comparison_and_scale(self):
        # the verdict compares integers; its sides are Tr(AA) / d^2 and
        # m^2 |M|^2 / n as Fractions, and scale divides both, the decision
        # unchanged: on the catalogue and on forms with denominators
        rng = np.random.default_rng(7)
        forms = [e.gram for e in load_catalog().entries]
        forms += [random_rational_spd(n, rng) for n in range(2, 6) for _ in range(3)]
        designs = layers = 0
        for Q in forms:
            bound = 2 * min(Q.entries[i][i] for i in range(Q.n))
            for m, (card, S) in layer_moments(Q, bound).items():
                w = two_design_verdict(m, card, S, Q)
                assert (w.lhs, w.rhs) == (two_product_trace(S, Q),
                                          Fraction(card * card, Q.n) * m * m)
                assert w.is_design == (w.lhs == w.rhs)
                w4 = two_design_verdict(m, card, S, Q, scale=4)
                assert (w4.norm, w4.lhs, w4.rhs, w4.is_design) == (
                    m, w.lhs / 4, w.rhs / 4, w.is_design)
                designs += w.is_design
                layers += 1
        assert 0 < designs < layers

    def test_broken_moment_raises(self):
        # a zero moment for a nonempty layer breaks Tr(PSPS) >= m^2 |M|^2 / n
        with pytest.raises(DesignComputationError):
            two_design_verdict(Fraction(1), 4, np.zeros((2, 2), dtype=object), I2)

    def test_route_agreement_everywhere(self):
        # the trace identity against the entrywise moment identity and the
        # brute-force pair sum, both built from box-enumerated vectors
        rng = np.random.default_rng(17)
        forms = [e.gram for e in load_catalog().entries if e.gram.n <= 4]
        forms += [random_rational_spd(n, rng) for n in (2, 2, 3, 3, 4, 4)]
        for q in forms:
            verdicts = streamed_verdicts(q, 8)
            assert verdicts
            for m, v in verdicts.items():
                vecs = box_vectors(q, m)
                assert v.is_design == moment_identity_holds(q, vecs)
                assert v.lhs == pair_sum_bruteforce(vecs, q, 2)
                assert v.rhs == Fraction(len(vecs) ** 2, q.n) * m * m


class TestOneObjectArray:
    def test_each_judged_form_builds_its_object_array_once(self, monkeypatch):
        # the verdicts read the judged form's integral form from one object
        # array kept on the form: one build per certificate and per height
        # on the theorem route, however many layers they judge
        built = []
        real = GramMatrix._objects.func
        counted = functools.cached_property(lambda Q: built.append(Q) or real(Q))
        counted.__set_name__(GramMatrix, "_objects")
        monkeypatch.setattr(GramMatrix, "_objects", counted)
        ste10a = GramMatrix(load_catalog().by_name("ste10a").gram.entries)
        rep = fully_critical(ste10a, 60)
        assert (rep.verdict, len(rep.per_layer), built) == ("fully-critical", 58, [ste10a])
        for name in ("ste10a", "stf28a"):  # the input side, and the level dual
            built.clear()
            hrep = height(GramMatrix(load_catalog().by_name(name).gram.entries))
            assert hrep.route == "theorem" and hrep.certificate["layers_tested"] >= 1, name
            assert len(built) == 1, name


class TestInvarianceProperties:
    def test_unimodular_invariance(self):
        rng = np.random.default_rng(29)
        q = load_catalog().by_name("sta3").gram
        base = streamed_verdicts(q, 8)
        for _ in range(3):
            qq = transform_gram(q, random_unimodular(2, rng))
            assert streamed_verdicts(qq, 8) == base

    def test_verdict_does_not_depend_on_the_basis(self, monkeypatch):
        # a layer of Q with moment S is, in the basis U (x = U y), a layer of
        # U^t Q U with moment U^-1 S U^-t: the verdict must read the same
        # lhs, rhs and is_design.  Every layer the catalogue certificates
        # judge up to the Gamma0 horizon, on both sides of the level
        # duality, and the refuted layers of diag(1, 2)
        C = sys.modules["latcrit.certify"]
        judged = []

        def record(Q, bound, **kw):
            moments = layer_moments(Q, bound, **kw)
            judged.extend((Q, m, card, S) for m, (card, S) in moments.items())
            return moments

        monkeypatch.setattr(C, "layer_moments", record)
        for e in load_catalog().entries:
            for dualize in (True, False):
                C._certify(e, None, 4_000_000, dualize=dualize)
        judged.extend((D12, m, card, S) for m, (card, S) in layer_moments(D12, 12).items())
        rng = np.random.default_rng(41)
        designs = 0
        for Q, m, card, S in judged:
            U = random_unimodular(Q.n, rng)
            Uinv = np.rint(np.linalg.inv(U)).astype(np.int64)
            assert (U @ Uinv == np.eye(Q.n, dtype=np.int64)).all()
            Ui = Uinv.astype(object)
            want = two_design_verdict(m, card, S, Q)
            got = two_design_verdict(m, card, Ui @ S @ Ui.T, transform_gram(Q, U))
            assert (got.lhs, got.rhs, got.is_design) == (want.lhs, want.rhs, want.is_design)
            designs += want.is_design
        assert designs >= 100 and designs < len(judged)

    def test_scaling_invariance(self):
        for name in ("sta3", "stb6", "stc12"):
            q = load_catalog().by_name(name).gram
            a = streamed_verdicts(q, 6)
            b = streamed_verdicts(double(q), 12)
            assert [2 * m for m in a] == list(b)
            assert [v.is_design for v in a.values()] == [v.is_design for v in b.values()]
