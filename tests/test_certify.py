import math
import sys
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
    determinant,
    fully_critical,
    gamma0_index,
    gram_inverse,
    is_even,
    level,
    orthosum_A1,
    double,
    enumerate_layers,
    sturm_bound,
    two_design_verdict,
)
from latcrit.catalog import load_catalog
from latcrit.shells import _int_matrix_and_denominator
from latcrit.cli import _random_integral_spd

from helpers import (
    box_layers,
    dim_M_gamma1,
    dim_S_gamma0_chi,
    gamma1_index,
    projective_line_size,
    random_unimodular,
    sturm_bound_gamma1,
    transform_gram,
)

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


class TestGamma0Index:
    def test_against_projective_line(self):
        # [SL2(Z) : Gamma_0(N)] = |P^1(Z/N)|
        assert [gamma0_index(N) for N in range(1, 31)] == [
            projective_line_size(N) for N in range(1, 31)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma0_index(0)


class TestSturmBound:
    def test_examples(self):
        assert sturm_bound(5, 20) == 15        # floor(5*36/12)
        assert sturm_bound(4, 3) == 1          # floor(4*4/12)
        assert sturm_bound(12, 1) == 1         # floor(12*1/12)
        assert sturm_bound(6, 1) == 1          # floor(6/12) = 0, raised to 1

    def test_dominates_reference_pivots(self):
        # the reference pivots come from the Gamma_1 space: its bound
        # dominates them, and the Gamma_0 horizon is at or below them
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            assert sturm_bound_gamma1(rep.weight, rep.level) >= e.reference_N
            assert sturm_bound(rep.weight, rep.level) <= e.reference_N

    def test_reference_dimension_is_gamma1(self):
        levels = 0
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            if rep.level >= 5:
                levels += 1
                assert dim_M_gamma1(rep.weight, rep.level) == e.reference_dimM, e.name
        assert levels == 26

    def test_cusp_space_fits_under_the_horizon(self):
        # Sturm makes the coefficients through q^B injective on the cusp
        # space, so its dimension is at most B; the formula also asserts that
        # chi_D is a character mod N with the weight's parity
        assert [dim_S_gamma0_chi(k, 1, 1) for k in (6, 12, 24)] == [0, 1, 2]
        assert dim_S_gamma0_chi(3, 7, -7) == dim_S_gamma0_chi(4, 5, 1) == 1
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            dim = dim_S_gamma0_chi(rep.weight, rep.level, rep.character_D)
            assert dim <= sturm_bound(rep.weight, rep.level), e.name

    def test_gamma0_certificates_hold_at_gamma1(self):
        # seeded random forms: the Gamma_0 horizon never exceeds the Gamma_1
        # one, and nothing it certifies fails within the larger Gamma_1 range
        rng = np.random.default_rng(2026)
        verdicts = {VERDICT_CRITICAL: 0, VERDICT_FAILURE: 0}
        for k in range(120):
            q = _random_integral_spd(2 + k % 4, rng)
            rep = fully_critical(q)
            verdicts[rep.verdict] += 1
            wide = sturm_bound_gamma1(rep.weight, rep.level)
            assert rep.bound_B <= wide
            if rep.verdict == VERDICT_CRITICAL:
                assert fully_critical(q, wide).verdict == VERDICT_CRITICAL
        assert verdicts == {VERDICT_CRITICAL: 9, VERDICT_FAILURE: 111}


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

    def test_e8_certifies_at_bound_one(self):
        # level 1, weight 6: floor(6/12) = 0, so the floor of 1 applies
        e8 = GramMatrix([[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
                         [0, -1, 2, -1, 0, 0, 0, 0], [0, 0, -1, 2, -1, 0, 0, 0],
                         [0, 0, 0, -1, 2, -1, 0, -1], [0, 0, 0, 0, -1, 2, -1, 0],
                         [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, 0, 0, -1, 0, 0, 2]])
        rep = fully_critical(e8)
        assert rep.verdict == VERDICT_CRITICAL
        assert (rep.level, rep.weight, rep.bound_B, rep.character_D) == (1, 6, 1, 1)
        assert rep.cardinalities == ((2, 120),)

    def test_report_states_its_premises(self):
        d = fully_critical(load_catalog().by_name("sta3")).to_dict()
        assert (d["group"], d["character_D"], d["weight"], d["bound_B"]) == ("Gamma0(3)", -3, 3, 1)
        assert d["layers_tested"] == 1 and d["vacuous"] is False

    def test_ste27_certificate_is_vacuous(self):
        rep = fully_critical(load_catalog().by_name("ste27"))
        assert rep.verdict == VERDICT_CRITICAL
        assert rep.layers_tested == 0 and rep.vacuous
        # nothing to test: its cusp space S_5(Gamma_0(3), chi_-243) is zero
        assert dim_S_gamma0_chi(rep.weight, rep.level, rep.character_D) == 0
        assert rep.to_dict()["vacuous"] is True
        # its minimum is 4, beyond the horizon (x.x) <= 2B = 2
        wider = fully_critical(load_catalog().by_name("ste27"), 2)
        assert wider.cardinalities == ((4, 27),) and not wider.vacuous

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

    def test_below_the_horizon_is_inconclusive(self):
        # ste15a's Gamma0(20) horizon is B = 15: a pass at B = 5 proves only
        # its layers; one at the horizon or above certifies the lattice
        e = load_catalog().by_name("ste15a")
        low = fully_critical(e, 5)
        assert (low.bound_B, low.horizon_B) == (5, 15)
        assert low.verdict == VERDICT_INCONCLUSIVE
        assert all(v.is_design for v in low.per_layer) and low.layers_tested == 4
        assert low.certified_upto == 10
        assert "(x,x) <= 10" in low.note and "B = 15" in low.note
        assert low.to_dict()["horizon_B"] == 15
        for B in (15, 16):
            assert fully_critical(e, B).verdict == VERDICT_CRITICAL
        # a refuted layer below the horizon is still a refutation
        assert fully_critical(GramMatrix([[2, 0], [0, 4]]), 1).verdict == VERDICT_FAILURE

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

    @pytest.mark.parametrize("name, upto", [("sta2", 0), ("stb4", 2), ("stf28a", 0)])
    @pytest.mark.parametrize("budget", [0, 1])
    def test_no_bound_fits_the_budget(self, name, upto, budget):
        # an exhausted budget is a verdict, never an exception; stb4 (A3*,
        # minimum 3) has no vector with (x,x) <= 2, so that range fits any budget
        rep = fully_critical(load_catalog().by_name(name), max_vectors=budget)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert rep.certified_upto == upto
        assert (rep.layers_tested, rep.vacuous, rep.per_layer) == (0, False, ())
        # the note is in the input's norms: the doubled sta2's smallest range is (x,x) <= 1
        least = 1 if rep.doubled else 2
        assert rep.note.endswith(f"no bound >= {least} fits" if upto == 0
                                 else "certified range reduced")
        assert rep.to_dict()["certified_upto"] == upto
        # nothing certified: whether the first two layers are designs is unknown
        first_two = None if upto == 0 else True
        assert rep.first_two_designs is first_two
        assert conjecture_probe(load_catalog().by_name(name), max_vectors=budget) == (
            first_two, True)

    def test_budget_note_is_in_the_input_norms(self):
        # stc4 is doubled: the range cut from is (x,x) <= 2 of the input,
        # (x,x) <= 4 of the working form, and certified_upto is in the same norms
        rep = fully_critical(load_catalog().by_name("stc4"), max_vectors=30)
        assert rep.doubled and (rep.bound_B, rep.certified_upto) == (2, 1)
        assert rep.note == "enumeration budget 30 exceeded at (x,x)<=2; certified range reduced"

    def test_walks_the_input_layers(self, monkeypatch):
        # every entry is walked on its own form, at (x,x) <= 2B of the even
        # form, that is Q[x] <= 2B / s; on the odd entries each row equals
        # the doubled form's verdict restated per antipodal pair and in the
        # input's norms (norm / s, sums / 4 s^2), the rows before the change
        C = sys.modules["latcrit.certify"]
        real, calls = C.layer_moments, []
        monkeypatch.setattr(C, "layer_moments",
                            lambda Q, bound, **kw: calls.append((Q, bound)) or real(Q, bound, **kw))
        odd = 0
        for e in load_catalog().entries:
            calls.clear()
            rep = fully_critical(e)
            q, s = e.gram, 2 if rep.doubled else 1
            assert calls[0][0] is q and calls[0][1] == Fraction(2 * rep.bound_B, s), e.name
            assert all(Q is q for Q, _ in calls) and calls[-1][1] == rep.certified_upto, e.name
            if not rep.doubled:
                continue
            odd += 1
            work = double(q)
            P, d = _int_matrix_and_denominator(work)
            old = [(m / s, w.lhs / (4 * s * s), w.rhs / (4 * s * s))
                   for m, (card, S) in real(work, 2 * rep.certified_upto).items()
                   for w in [two_design_verdict(m, card, S, P, d)]]
            assert [(v.norm, v.lhs, v.rhs) for v in rep.per_layer] == old, e.name
        assert odd > 0

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


def integral_dual(Q: GramMatrix) -> GramMatrix:
    """det(Q) Q^{-1} over its content: an integral form similar to the dual lattice."""
    adj = [[v * determinant(Q) for v in row] for row in gram_inverse(Q).entries]
    content = math.gcd(*(int(v) for row in adj for v in row))
    return GramMatrix([[v / content for v in row] for row in adj])


def level_dual(Q: GramMatrix) -> GramMatrix:
    """N W^{-1} for the working even form W (Q, or 2Q when Q is odd) of level N."""
    work = Q if is_even(Q) else double(Q)
    N = level(work)
    return GramMatrix([[N * v for v in row] for row in gram_inverse(work).entries])


class TestDuality:
    def test_dual_descriptor_integral_and_reduced(self):
        # det(Q) Q^{-1} is the adjugate, integral for every integral Q
        for e in load_catalog().entries:
            assert integral_dual(e.gram).is_integral, e.name
        d = integral_dual(load_catalog().by_name("stc9").gram)
        assert math.gcd(*(int(v) for row in d.entries for v in row)) == 1

    def test_dual_of_d4_is_critical(self):
        rep = fully_critical(integral_dual(load_catalog().by_name("stc12").gram))
        assert rep.verdict == VERDICT_CRITICAL

    def test_self_dual_z2(self):
        q = load_catalog().by_name("sta2").gram
        assert integral_dual(q).entries == q.entries

    # Poisson summation maps theta_{L,P} to theta_{L*,P} under tau -> -1/tau
    # for every harmonic P of degree 2, so a lattice is fully critical
    # exactly when its dual is.  The level-N dual N Q^-1 of the working even
    # form is even and integral, with its own level, weight and horizon.

    def test_catalogue_verdicts_match_their_level_duals(self):
        for e in load_catalog().entries:
            rep = fully_critical(e)
            assert rep.verdict == VERDICT_CRITICAL, e.name
            dual = level_dual(e.gram)
            assert is_even(dual), e.name
            assert fully_critical(dual).verdict == rep.verdict, e.name

    def test_random_verdicts_match_their_level_duals(self):
        # the seeded forms of test_gamma0_certificates_hold_at_gamma1
        rng = np.random.default_rng(2026)
        verdicts = {VERDICT_CRITICAL: 0, VERDICT_FAILURE: 0}
        for k in range(120):
            q = _random_integral_spd(2 + k % 4, rng)
            rep = fully_critical(q)
            verdicts[rep.verdict] += 1
            assert fully_critical(level_dual(q)).verdict == rep.verdict, q.entries
        assert verdicts == {VERDICT_CRITICAL: 9, VERDICT_FAILURE: 111}


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
