from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    DesignComputationError,
    GramMatrix,
    design_constant,
    double,
    enumerate_layers,
    gram_inverse,
    is_t_design,
    moment_matrix,
    pair_power_sum,
    two_design_verdict,
)
from latcrit.catalog import load_catalog

from helpers import (
    box_vectors,
    moment_identity_holds,
    pair_sum_bruteforce,
    random_rational_spd,
    random_unimodular,
    transform_gram,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
D12 = GramMatrix([[1, 0], [0, 2]])


def layer_of(Q, m):
    lay = enumerate_layers(Q, m).layer_at(m)
    assert lay is not None
    return lay


class TestDesignConstant:
    def test_t2_is_size_over_n(self):
        for n in (2, 3, 6):
            assert design_constant(n, 2, 10) == Fraction(10, n)

    def test_t4_example(self):
        assert design_constant(2, 4, 6) == Fraction(9, 4)

    def test_reduced(self):
        assert design_constant(6, 2, 10) == Fraction(5, 3)

    def test_odd_t_rejected(self):
        with pytest.raises(ValueError):
            design_constant(3, 3, 5)


class TestPairPowerSum:
    def test_z2_norm1_t2(self):
        lay = layer_of(I2, 1)
        assert pair_power_sum(lay, 2) == 8
        assert pair_sum_bruteforce(lay.vectors, I2, 2) == 8  # 16 pairs

    def test_diag12_norm1(self):
        assert pair_power_sum(layer_of(D12, 1), 2) == 4

    def test_ste10a_norm3_full_convention(self):
        # the reference transcript states 150 per antipodal-pair class;
        # the full-set sum is four times that
        lay = layer_of(load_catalog().by_name("ste10a").gram, 3)
        assert pair_power_sum(lay, 2) == 600 == 4 * 150

    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_against_bruteforce(self, t):
        for Q, m in [(I2, 1), (I2, 2), (A2, 2), (D12, 1), (D12, 2)]:
            lay = layer_of(Q, m)
            assert pair_power_sum(lay, t) == pair_sum_bruteforce(lay.vectors, Q, t)

    def test_rational_form(self):
        q = gram_inverse(A2)
        m = Fraction(2, 3)
        lay = layer_of(q, m)
        assert pair_power_sum(lay, 2) == pair_sum_bruteforce(lay.vectors, q, 2)

    def test_object_fallback_path(self):
        # force the big-value branch by a large t
        lay = layer_of(load_catalog().by_name("stc12").gram, 2)
        assert pair_power_sum(lay, 10) == pair_sum_bruteforce(lay.vectors,
                                                              lay.gram, 10)


class TestIsTDesign:
    def test_ste10a_norm4(self):
        lay = layer_of(load_catalog().by_name("ste10a").gram, 4)
        v = is_t_design(lay, 2, 6)
        assert v.is_design and v.lhs == v.rhs == 2400 == 4 * 600

    def test_diag12_failure_values(self):
        v = is_t_design(layer_of(D12, 1), 2, 2)
        assert (v.lhs, v.rhs, v.is_design) == (4, 2, False)

    def test_a2_norm2(self):
        v = is_t_design(layer_of(A2, 2), 2, 2)
        assert v.is_design and v.lhs == v.rhs == 72

    def test_d4_minimal_layer_is_4_design(self):
        lay = layer_of(load_catalog().by_name("stc12").gram, 2)
        assert is_t_design(lay, 4, 4).is_design

    def test_z4_minimal_layer_not_4_design(self):
        lay = layer_of(load_catalog().by_name("stc4").gram, 1)
        v = is_t_design(lay, 4, 4)
        assert not v.is_design and v.lhs > v.rhs

    def test_pair_sum_dominates_design_value(self):
        # the provable inequality: lhs >= rhs on every layer, any even t
        for name in ("sta2", "sta3", "stb6", "stc5", "stc12"):
            q = load_catalog().by_name(name).gram
            for lay in enumerate_layers(q, 6).layers:
                for t in (2, 4, 6):
                    v = is_t_design(lay, t, q.n)
                    assert v.lhs >= v.rhs

    def test_json_shape(self):
        d = is_t_design(layer_of(D12, 1), 2, 2).to_dict()
        assert d == {"norm": 1, "t": 2, "lhs": 4, "rhs": 2, "is_design": False}


class TestMomentMatrix:
    def test_z2_norm1(self):
        S = moment_matrix(layer_of(I2, 1))
        assert (S == 2 * np.eye(2, dtype=object)).all()

    def test_z2_norm5_bruteforce(self):
        S = moment_matrix(layer_of(I2, 5))
        vecs = box_vectors(I2, 5)
        direct = np.zeros((2, 2), dtype=object)
        for v in vecs:
            direct += np.outer(v, v).astype(object)
        assert (S == direct).all() and S[0, 0] == 20

    def test_a2_norm2_corollary(self):
        lay = layer_of(A2, 2)
        S = moment_matrix(lay)
        assert (S == 2 * np.array([[2, -1], [-1, 2]], dtype=object)).all()
        # n * S == m |M| Q^{-1} cross-multiplied
        qinv = gram_inverse(A2)
        for i in range(2):
            for j in range(2):
                assert 2 * S[i, j] == 2 * 6 * qinv.entries[i][j]


def routine_verdict(lay):
    rows, d = lay.gram.integral_rescale()
    return two_design_verdict(lay.norm, lay.cardinality, moment_matrix(lay),
                              np.array(rows, dtype=np.int64), d)


class TestMomentRoute:
    def test_examples(self):
        assert routine_verdict(layer_of(I2, 1)).is_design
        assert not routine_verdict(layer_of(D12, 1)).is_design
        q = load_catalog().by_name("ste10a").gram
        assert routine_verdict(layer_of(q, 3)).is_design

    def test_broken_moment_raises(self):
        # a zero moment for a nonempty layer breaks Tr(PSPS) >= m^2 |M|^2 / n
        with pytest.raises(DesignComputationError):
            two_design_verdict(Fraction(1), 4, np.zeros((2, 2), dtype=object),
                               np.eye(2, dtype=np.int64), 1)

    def test_route_agreement_everywhere(self):
        # the trace identity against the entrywise moment identity and the
        # brute-force pair sum, both built from box-enumerated vectors
        rng = np.random.default_rng(17)
        forms = [e.gram for e in load_catalog().entries if e.gram.n <= 4]
        forms += [random_rational_spd(n, rng) for n in (2, 2, 3, 3, 4, 4)]
        for q in forms:
            for lay in enumerate_layers(q, 8).layers:
                v = routine_verdict(lay)
                assert is_t_design(lay, 2, q.n) == v
                vecs = box_vectors(q, lay.norm)
                assert v.is_design == moment_identity_holds(q, vecs)
                assert v.lhs == pair_sum_bruteforce(vecs, q, 2)


class TestInvarianceProperties:
    def test_unimodular_invariance(self):
        rng = np.random.default_rng(29)
        q = load_catalog().by_name("sta3").gram
        for _ in range(3):
            U = random_unimodular(2, rng)
            qq = transform_gram(q, U)
            for lay, lay2 in zip(enumerate_layers(q, 8).layers,
                                 enumerate_layers(qq, 8).layers):
                assert lay.norm == lay2.norm
                a = is_t_design(lay, 2, 2)
                b = is_t_design(lay2, 2, 2)
                assert (a.lhs, a.rhs, a.is_design) == (b.lhs, b.rhs, b.is_design)

    def test_scaling_invariance(self):
        for name in ("sta3", "stb6", "stc12"):
            q = load_catalog().by_name(name).gram
            q2 = double(q)
            for lay, lay2 in zip(enumerate_layers(q, 6).layers,
                                 enumerate_layers(q2, 12).layers):
                assert lay2.norm == 2 * lay.norm
                assert (is_t_design(lay, 2, q.n).is_design
                        == is_t_design(lay2, 2, q.n).is_design)
