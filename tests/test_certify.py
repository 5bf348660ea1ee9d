import math
from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    VERDICT_CRITICAL,
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    EnumerationBudgetError,
    GramMatrix,
    conjecture_probe,
    dual_descriptor,
    fully_critical,
    gamma1_index,
    is_even,
    level,
    orthosum_A1,
    double,
    enumerate_layers,
    sturm_bound,
)
from latcrit.catalog import load_catalog

from helpers import box_layers, random_unimodular, transform_gram

D12 = GramMatrix([[1, 0], [0, 2]])


def sl2_order_bruteforce(N: int) -> int:
    cnt = 0
    for a in range(N):
        for b in range(N):
            for c in range(N):
                for d in range(N):
                    if (a * d - b * c) % N == 1:
                        cnt += 1
    return cnt


class TestGamma1Index:
    def test_small_cases(self):
        assert gamma1_index(1) == 1
        assert gamma1_index(2) == 3
        assert gamma1_index(4) == 12
        assert gamma1_index(20) == 288

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 9, 10, 12])
    def test_against_group_order_oracle(self, N):
        # index of the preimage of the upper unipotent subgroup:
        # |SL2(Z/N)| / N
        assert gamma1_index(N) == sl2_order_bruteforce(N) // N

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma1_index(0)


class TestSturmBound:
    def test_examples(self):
        assert sturm_bound(5, 20) == 120
        assert sturm_bound(4, 3) == 3          # ceil(4*8/12)
        assert sturm_bound(12, 1) == 1         # ceil(12*1/12)

    def test_dominates_reference_pivots(self):
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            assert sturm_bound(rep.weight, rep.level) >= e.reference_N


class TestFullyCritical:
    def test_ste10a_transcript(self):
        rep = fully_critical(load_catalog().by_name("ste10a"), override_bound=60)
        assert rep.verdict == VERDICT_CRITICAL
        assert rep.level == 20 and rep.weight == 5
        assert rep.doubled and not rep.augmented_with_A1
        sums = {int(v.norm): int(v.lhs) for v in rep.per_layer}
        assert [sums[m] for m in range(3, 11)] == [
            150, 600, 600, 5400, 7350, 9600, 48600, 86400]
        assert [sums[m] for m in range(57, 61)] == [
            1122854400, 2066841600, 7026050400, 4118640000]
        assert all(v.is_design for v in rep.per_layer)
        assert rep.per_layer[0].norm == 3  # layers 1, 2 empty

    def test_diag12_failure(self):
        rep = fully_critical(D12)
        assert rep.verdict == VERDICT_FAILURE
        assert rep.verdict_text == "failure-at(1)"
        assert rep.failure_norm == 1 and rep.doubled

    def test_doubled_input_same_failure(self):
        rep = fully_critical(GramMatrix([[2, 0], [0, 4]]))
        assert rep.verdict == VERDICT_FAILURE
        assert rep.failure_norm == 2 and not rep.doubled

    def test_sta3_critical(self):
        rep = fully_critical(load_catalog().by_name("sta3"))
        assert rep.verdict == VERDICT_CRITICAL
        assert not rep.doubled and not rep.augmented_with_A1

    def test_odd_dimension_uses_augmented_level(self):
        e = load_catalog().by_name("stb6")  # A3, even, dim 3
        rep = fully_critical(e)
        assert rep.augmented_with_A1
        assert rep.weight == (3 + 1) // 2 + 2 == 4
        assert rep.level == level(orthosum_A1(e.gram))

    def test_bound_stability(self):
        # a sound certificate does not flip when the horizon grows
        for name in ("sta2", "sta3", "stb3", "stb6", "stc12"):
            e = load_catalog().by_name(name)
            r1 = fully_critical(e)
            r2 = fully_critical(e, override_bound=r1.bound_B + 3)
            assert r1.verdict == r2.verdict == VERDICT_CRITICAL

    def test_unimodular_invariance(self):
        rng = np.random.default_rng(41)
        for name in ("sta3", "stc12"):
            q = load_catalog().by_name(name).gram
            base = fully_critical(q).verdict
            for _ in range(3):
                qq = transform_gram(q, random_unimodular(q.n, rng))
                assert fully_critical(qq).verdict == base

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            fully_critical(GramMatrix([["1/2", 0], [0, 1]]))

    def test_budget_gives_inconclusive_not_failure(self):
        e = load_catalog().by_name("ste10a")
        rep = fully_critical(e, override_bound=60, max_vectors=3000)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert rep.certified_upto is not None and rep.certified_upto < 60
        assert all(v.is_design for v in rep.per_layer)
        assert rep.note

    def test_report_serializes(self):
        rep = fully_critical(load_catalog().by_name("sta3"))
        d = rep.to_dict()
        assert d["verdict"] == "fully-critical"
        assert d["level"] == 3

    def test_cardinalities_are_pair_counts(self):
        rep = fully_critical(load_catalog().by_name("sta3"))
        cards = dict(rep.cardinalities)
        assert cards[Fraction(2)] == 3  # 6 vectors, 3 antipodal pairs


class TestA1Augmentation:
    @pytest.mark.parametrize("name", ["sta3", "stb6", "stc12"])
    def test_layer_counts_convolve_with_a1(self, name):
        # premise of the odd-dimension horizon: the layers of Q + A1 are the
        # convolution of Q's layers with A1's (two vectors at each norm 2k^2)
        q = load_catalog().by_name(name).gram
        B = 12
        base = box_layers(q, B)
        base[Fraction(0)] = 1
        expected: dict[Fraction, int] = {}
        for m, c in base.items():
            for k in range(math.isqrt(B // 2) + 1):
                norm = m + 2 * k * k
                if 0 < norm <= B:
                    expected[norm] = expected.get(norm, 0) + c * (1 if k == 0 else 2)
        got = enumerate_layers(orthosum_A1(q), B).layers
        assert {lay.norm: lay.cardinality for lay in got} == expected


class TestDuality:
    def test_dual_descriptor_integral_and_reduced(self):
        e = load_catalog().by_name("stc9")
        d = dual_descriptor(e)
        assert d.gram.is_integral
        g = 0
        import math
        for row in d.gram.entries:
            for v in row:
                g = math.gcd(g, int(v))
        assert g == 1

    def test_dual_of_d4_is_critical(self):
        rep = fully_critical(dual_descriptor(load_catalog().by_name("stc12")))
        assert rep.verdict == VERDICT_CRITICAL

    def test_self_dual_z2(self):
        d = dual_descriptor(load_catalog().by_name("sta2"))
        assert d.gram.entries == load_catalog().by_name("sta2").gram.entries


class TestConjectureProbe:
    def test_catalog_samples(self):
        for name in ("sta2", "sta3", "stb4", "stc12"):
            e = load_catalog().by_name(name)
            assert conjecture_probe(e, e.reference_N) == (True, True)

    def test_counterexamples_to_first_layer(self):
        assert conjecture_probe(D12) == (False, False)
        assert conjecture_probe(GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == (False, False)

    def test_budget_cut_run_refutes_nothing(self):
        e = load_catalog().by_name("ste10a")
        assert fully_critical(e, e.reference_N, max_vectors=200).verdict == VERDICT_INCONCLUSIVE
        assert conjecture_probe(e, e.reference_N, max_vectors=200) == (True, True)
