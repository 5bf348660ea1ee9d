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
    gram_inverse,
    is_even,
    level,
    double,
    enumerate_layers,
    gamma0_cusps,
    gamma0_horizon,
    two_design_verdict,
)
from latcrit.catalog import load_catalog
from latcrit.certify import SIDE_INPUT, SIDE_LEVEL_DUAL, _certify, _gamma0, _horizon_floor
from latcrit.cli import _random_integral_spd
from latcrit.gram import _level_dual
from latcrit.shells import DEFAULT_MAX_VECTORS

from helpers import (
    box_layers,
    dim_M_gamma1,
    dim_S_gamma0_chi,
    gamma0_cusp_orbits,
    gamma0_cusps_divisor_sum,
    gamma1_index,
    layer_counts,
    level_dual,
    projective_line_size,
    random_unimodular,
    sheared_z2,
    sturm_bound,
    sturm_bound_gamma1,
    transform_gram,
    two_product_trace,
    with_A1,
)

I2 = GramMatrix([[1, 0], [0, 1]])
D12 = GramMatrix([[1, 0], [0, 2]])
# the entries whose level dual N W^-1 is sparser than W: N^n > (det W)^2
DUAL_SIDE = {"stb6", "stc10", "std15a", "std15b", "std20", "ste12a", "ste15a", "ste18a",
             "ste21a", "ste30", "ste36", "stf28a", "stf42", "stf63"}


def seeded_forms() -> list[GramMatrix]:
    """The 120 seeded forms of test_gamma0_certificates_hold_at_gamma1."""
    rng = np.random.default_rng(2026)
    return [_random_integral_spd(2 + k % 4, rng) for k in range(120)]


def own_side(q):
    """The certificate of q at its horizon on its own layers, never its level dual's."""
    return _certify(q, None, DEFAULT_MAX_VECTORS, dualize=False)


@pytest.fixture
def walk_dtypes(monkeypatch):
    """The dtypes ``shells._moments`` sums the exact walks' moments in (``_summable``)."""
    S = sys.modules["latcrit.shells"]
    real, seen = S._summable, set()

    def summable(X):
        X = real(X)
        seen.add(X.dtype)
        return X

    monkeypatch.setattr(S, "_summable", summable)
    return seen


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
        assert [_gamma0(N)[0] for N in range(1, 31)] == [
            projective_line_size(N) for N in range(1, 31)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _gamma0(0)


class TestSturmBound:
    def test_examples(self):
        assert gamma0_horizon(5, 20) == 12     # floor((5*36 - 6*5)/12), Sturm's 15
        assert gamma0_horizon(6, 16) == 9      # floor((6*24 - 6*5)/12), Sturm's 12
        assert gamma0_horizon(4, 3) == 1       # floor((4*4 - 6*1)/12) = 0, raised to 1
        assert gamma0_horizon(12, 1) == 1      # floor(12*1/12): one cusp, Sturm's bound
        assert gamma0_horizon(6, 1) == 1       # floor(6/12) = 0, raised to 1
        assert sturm_bound(5, 20) == 15 and sturm_bound(6, 1) == 1
        with pytest.raises(ValueError):
            gamma0_horizon(0, 4)

    def test_cusps_against_orbit_count(self):
        # c(N) = sum_{d | N} phi(gcd(d, N/d)) is the number of orbits of
        # (c : d) -> (c : c + d) on P^1(Z/N)
        assert [gamma0_cusps(N) for N in (1, 2, 4, 12, 16, 20)] == [1, 2, 3, 6, 6, 6]
        assert [gamma0_cusps(N) for N in range(1, 201)] == [
            gamma0_cusp_orbits(N) for N in range(1, 201)]
        with pytest.raises(ValueError):
            gamma0_cusps(0)

    def test_horizon_never_exceeds_sturm(self):
        for N in range(1, 201):
            for k in range(1, 13):
                assert gamma0_horizon(k, N) <= sturm_bound(k, N), (k, N)

    def test_gamma0_counts_against_the_oracles(self):
        # one factorization gives the index (Sturm's bound at weight 12 is
        # the index), the cusps (the divisor sum defining them) and the
        # horizon of every weight up to 12
        for N in range(1, 2001):
            index, cusps = sturm_bound(12, N), gamma0_cusps_divisor_sum(N)
            assert (_gamma0(N)[0], gamma0_cusps(N)) == (index, cusps), N
            for k in range(1, 13):
                assert gamma0_horizon(k, N) == max(1, (k * index - 6 * (cusps - 1)) // 12), (k, N)
        # prime powers and products of them beyond the orbit test's range
        for N in (243, 256, 360, 484, 500):
            assert gamma0_cusps(N) == gamma0_cusp_orbits(N), N
            assert _gamma0(N)[0] == projective_line_size(N), N

    def test_gamma0_counts_factor_a_large_level_at_once(self):
        # 10^12 has 169 divisors and 2^60 has 61; the divisor scan that
        # defines the cusps would walk to 10^6 and 2^30
        assert gamma0_cusps(10**12) == (2**6 + 2**5) * (5**6 + 5**5) == 1_800_000
        assert (gamma0_cusps(2**60), _gamma0(2**60)[0]) == (2**30 + 2**29, 3 * 2**59)
        assert gamma0_horizon(5, 2**60) == (5 * 3 * 2**59 - 6 * (2**30 + 2**29 - 1)) // 12

    def test_horizon_floor_never_exceeds_the_horizon(self):
        # the floor (k - 1)(N + 1) - 6 over 12 counts no cusp and no index;
        # its genus bound on the cusp count, c <= I/6 + 2, is tight at N = 4
        for N in range(1, 3001):
            assert gamma0_cusps(N) <= Fraction(_gamma0(N)[0], 6) + 2, N
            for k in range(1, 13):
                assert _horizon_floor(k, N) <= gamma0_horizon(k, N), (k, N)
        assert gamma0_cusps(4) == Fraction(_gamma0(4)[0], 6) + 2

    def test_plan_counts_cusps_only_when_asked(self, monkeypatch):
        # the plan walks and counts nothing; the height's certificate compares
        # the horizon's floor with its walk first, and ``_counted`` then reads
        # the cusps and the horizon from one factorization of the level
        C = sys.modules["latcrit.certify"]
        real, counted = C._gamma0, []
        monkeypatch.setattr(C, "_gamma0", lambda N: counted.append(N) or real(N))
        monkeypatch.setattr(C, "layer_moments", None)
        plan = C._plan(GramMatrix([[2, 1], [1, 10**9 + 7]]), None, True)
        assert (plan.tested, plan.level, plan.s, plan.cusps, plan.horizon, plan.B, counted) == (
            SIDE_INPUT, 8_000_000_052, 2, 0, 0, None, [])
        ste10a = load_catalog().by_name("ste10a").gram
        plan = C._plan(ste10a, None, True)
        assert counted == []
        got = C._counted(plan)
        assert (got.horizon, got.cusps, got.B, counted) == (12, 6, 12, [20])
        assert got == C._counted(got)
        assert C._counted(C._plan(ste10a, 5, True))[-3:] == (6, 12, 5)

    def test_dominates_reference_pivots(self):
        # the reference pivots come from the Gamma_1 space: its bound
        # dominates them, and the Gamma_0 horizon is at or below them
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            assert sturm_bound_gamma1(rep.weight, rep.level) >= e.reference_N
            assert gamma0_horizon(rep.weight, rep.level) <= e.reference_N

    def test_reference_dimension_is_gamma1(self):
        levels = 0
        for e in load_catalog().entries:
            rep = fully_critical(e, override_bound=1)
            if rep.level >= 5:
                levels += 1
                assert dim_M_gamma1(rep.weight, rep.level) == e.reference_dimM, e.name
        assert levels == 26

    def test_cusp_space_fits_under_the_horizon(self):
        # the horizon makes the coefficients through q^B injective on the
        # cusp space, so its dimension is at most B; the formula also asserts that
        # chi_D is a character mod N with the weight's parity.  Both sides of
        # the entries and the seeded forms: 324 premises, 50 of them with dim = B
        assert [dim_S_gamma0_chi(k, 1, 1) for k in (6, 12, 24)] == [0, 1, 2]
        assert dim_S_gamma0_chi(3, 7, -7) == dim_S_gamma0_chi(4, 5, 1) == 1
        attained = 0
        for q in [e.gram for e in load_catalog().entries] + seeded_forms():
            for side in (q, level_dual(q)):
                rep = _certify(side, 1, DEFAULT_MAX_VECTORS, dualize=False)
                dim = dim_S_gamma0_chi(rep.weight, rep.level, rep.character_D)
                assert dim <= gamma0_horizon(rep.weight, rep.level) == rep.horizon_B, q.entries
                attained += dim == rep.horizon_B
        assert attained == 50

    def test_cusp_horizon_decides_as_sturm(self):
        # each side of the seeded forms decides at the cusp-counted horizon
        # as at Sturm's bound, and every first failure lies at (x,x) <= 2B
        # of the even form: a weak oracle, for these failures come on the
        # first layers; the proof is the module docstring's
        failures = 0
        for q in seeded_forms():
            for side in (q, level_dual(q)):
                rep = own_side(side)
                wide = _certify(side, sturm_bound(rep.weight, rep.level), DEFAULT_MAX_VECTORS,
                                dualize=False)
                assert (rep.verdict, rep.failure_norm) == (wide.verdict, wide.failure_norm)
                if rep.verdict == VERDICT_FAILURE:
                    failures += 1
                    assert rep.failure_norm * (2 if rep.doubled else 1) <= 2 * rep.horizon_B
        assert failures == 2 * 111

    def test_vacuous_wherever_the_horizon_leaves_no_layer(self):
        # the tested side's brute-force layers up to (x,x) <= 2B are the
        # layers tested, and the certificate is vacuous exactly when there
        # are none: 14 entries at the cusp-counted horizon
        vacuous = 0
        for e in load_catalog().entries:
            rep = fully_critical(e)
            side = level_dual(e.gram) if rep.tested == SIDE_LEVEL_DUAL else e.gram
            layers = box_layers(side, Fraction(2 * rep.bound_B, 2 if rep.doubled else 1))
            assert (rep.vacuous, rep.layers_tested) == (layers == {}, len(layers)), e.name
            vacuous += rep.vacuous
        assert vacuous == 14

    def test_gamma0_certificates_hold_at_gamma1(self):
        # seeded random forms: the Gamma_0 horizon never exceeds the Gamma_1
        # one, and nothing it certifies fails within the larger Gamma_1 range
        verdicts = {VERDICT_CRITICAL: 0, VERDICT_FAILURE: 0}
        for q in seeded_forms():
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

    def test_ste36_dual_certificate_is_vacuous(self):
        # E6's level dual (E6* scaled by 3) has minimum 4, beyond its horizon
        # (x.x) <= 2B = 2: a sound horizon proof with no layer, flagged
        e = load_catalog().by_name("ste36")
        rep = fully_critical(e)
        assert rep.tested == SIDE_LEVEL_DUAL and rep.verdict == VERDICT_CRITICAL
        assert rep.layers_tested == 0 and rep.vacuous and rep.to_dict()["vacuous"] is True
        assert dim_S_gamma0_chi(rep.weight, rep.level, rep.character_D) == 0
        assert box_layers(level_dual(e.gram), 2) == {}
        # its own side tests E6's first layer
        assert not own_side(e).vacuous

    def test_odd_dimension_uses_augmented_level(self):
        e = load_catalog().by_name("stb6")  # A3, even, dim 3
        rep = fully_critical(e)
        assert rep.augmented_with_A1
        assert rep.weight == (3 + 1) // 2 + 2 == 4
        assert rep.level == level(with_A1(e.gram))

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
        # ste15a's Gamma0(20) horizon is B = 12: a pass at B = 5 or 11 proves
        # only its layers; one at the horizon or above certifies the lattice
        e = load_catalog().by_name("ste15a")
        low = fully_critical(e, 5)
        assert (low.bound_B, low.horizon_B, low.cusps) == (5, 12, 6)
        assert low.verdict == VERDICT_INCONCLUSIVE
        assert all(v.is_design for v in low.per_layer) and low.layers_tested == 4
        assert low.certified_upto == 10
        assert "(x,x) <= 10" in low.note and "B = 12" in low.note
        assert low.to_dict()["horizon_B"] == 12 and low.to_dict()["cusps"] == 6
        assert fully_critical(e, 11).verdict == VERDICT_INCONCLUSIVE
        for B in (12, 13):
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

    @pytest.mark.parametrize("name, upto", [("sta2", 0), ("stf7d", 2), ("stf28a", 9)])
    @pytest.mark.parametrize("budget", [0, 1])
    def test_no_bound_fits_the_budget(self, name, upto, budget):
        # an exhausted budget is a verdict, never an exception; stf7d
        # (doubled) has no vector with (x,x) <= 2, so that range fits any
        # budget, and neither has stf28a's level dual (minimum 14) with (x,x) <= 9
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
        assert rep.first_two_designs is (None if upto == 0 else True)
        # the probe reads the input's own layers: stf28a's own (x,x) <= 2 does not fit
        own = 0 if name == "stf28a" else upto
        assert conjecture_probe(load_catalog().by_name(name), max_vectors=budget) == (
            None if own == 0 else True, True)

    def test_budget_note_is_in_the_input_norms(self):
        # stf7a is doubled: the range cut from is (x,x) <= 2 of the input,
        # (x,x) <= 4 of the working form, and certified_upto is in the same norms
        rep = fully_critical(load_catalog().by_name("stf7a"), max_vectors=30)
        assert rep.doubled and (rep.bound_B, rep.certified_upto) == (2, 1)
        assert rep.note == "enumeration budget 30 exceeded at (x,x)<=2; certified range reduced"

    def test_walks_the_input_layers(self, monkeypatch):
        # every entry is walked on its own form, or on its level dual where
        # that is sparser, at (x,x) <= 2B of the even form, that is Q[x] <=
        # 2B / s; on the odd entries each row equals the doubled form's
        # verdict restated per antipodal pair and in the input's norms
        # (norm / s, sums / 4 s^2), the rows before the change
        C = sys.modules["latcrit.certify"]
        real, calls = C.layer_moments, []
        monkeypatch.setattr(C, "layer_moments",
                            lambda Q, bound, **kw: calls.append((Q, bound)) or real(Q, bound, **kw))
        odd = 0
        for e in load_catalog().entries:
            calls.clear()
            rep = fully_critical(e)
            assert (rep.tested == SIDE_LEVEL_DUAL) == (e.name in DUAL_SIDE), e.name
            if rep.tested == SIDE_LEVEL_DUAL:  # the dual's rows, at its own horizon
                assert not rep.doubled and calls == [(level_dual(e.gram), 2 * rep.bound_B)]
                continue
            q, s = e.gram, 2 if rep.doubled else 1
            assert calls[0][0] is q and calls[0][1] == Fraction(2 * rep.bound_B, s), e.name
            assert all(Q is q for Q, _ in calls) and calls[-1][1] == rep.certified_upto, e.name
            if not rep.doubled:
                continue
            odd += 1
            work = double(q)
            old = [(m / s, w.lhs / (4 * s * s), w.rhs / (4 * s * s))
                   for m, (card, S) in real(work, 2 * rep.certified_upto).items()
                   for w in [two_design_verdict(m, card, S, work)]]
            assert [(v.norm, v.lhs, v.rhs) for v in rep.per_layer] == old, e.name
        assert odd > 0

    def test_certify_default_verdicts(self, monkeypatch, walk_dtypes):
        # every layer the horizon with a 4M budget tests, 60 on the sparser
        # sides (105 at Sturm's bound): the one-product lhs equals the
        # two-product trace Tr(AA) / d^2 (the rows are per antipodal pair, a
        # quarter of it), and every walk stays on the int64 route
        C = sys.modules["latcrit.certify"]
        real, pairs = C.two_design_verdict, []

        def verdict(m, card, S, Q, scale=1):
            w = real(m, card, S, Q, scale)
            pairs.append((w.lhs * scale, two_product_trace(S, Q)))
            return w

        monkeypatch.setattr(C, "two_design_verdict", verdict)
        for e in load_catalog().entries:
            fully_critical(e, max_vectors=4_000_000)
        assert len(pairs) == 60 and all(a == b for a, b in pairs)
        assert walk_dtypes == {np.dtype(np.int64)}

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
        assert layer_counts(enumerate_layers(with_A1(q), B)) == expected

    def test_premises_read_from_the_working_form(self):
        # diag(W, 2), built entry by entry, has level lcm(level(W), 4) and
        # twice W's determinant: on the odd-dimensional catalogue entries and
        # seeded forms of test_gamma0_certificates_hold_at_gamma1, whose
        # reports state the built form's level, weight and discriminant
        odd = [q for q in [e.gram for e in load_catalog().entries] + seeded_forms() if q.n % 2]
        assert len(odd) == 17 + 60
        for q in odd:
            work = q if is_even(q) else double(q)
            aug = with_A1(work)
            assert math.lcm(level(work), 4) == level(aug), q.entries
            assert determinant(aug) == 2 * determinant(work), q.entries
            rep = fully_critical(q, 1)
            assert (rep.level, rep.weight, rep.character_D) == (
                level(aug), aug.n // 2 + 2, (-1) ** (aug.n // 2) * int(determinant(aug)))


class TestShearedForms:
    # a basis far from reduced gives small vectors input coordinates of
    # size K: their moments leave int64 and are summed in Python ints, so
    # each report is the reduced basis's

    @pytest.mark.parametrize("K", [10**9, 25 * 10**8, 5 * 10**18])
    def test_sheared_z2_reports_z2(self, K, walk_dtypes):
        q = sheared_z2(K)
        for B in (None, 12):
            assert fully_critical(q, B).to_dict() == fully_critical(I2, B).to_dict()
        assert conjecture_probe(q, 12) == (True, True)
        assert np.dtype(object) in walk_dtypes

    @pytest.mark.parametrize("name", ["sta3", "stc12", "ste36"])  # A2, D4, E6
    def test_seeded_shears_report_their_form(self, name):
        rng = np.random.default_rng(20)
        e = load_catalog().by_name(name)
        want = [{**fully_critical(e.gram, B).to_dict(), "name": None} for B in (None, 4)]
        for _ in range(3):
            U = np.eye(e.gram.n, dtype=np.int64)
            i, j = rng.choice(e.gram.n, size=2, replace=False)
            U[i, j] = rng.integers(1, 10**9, endpoint=True)
            q = transform_gram(e.gram, U)
            assert [fully_critical(q, B).to_dict() for B in (None, 4)] == want, U.tolist()


def integral_dual(Q: GramMatrix) -> GramMatrix:
    """det(Q) Q^{-1} over its content: an integral form similar to the dual lattice."""
    adj = [[v * determinant(Q) for v in row] for row in gram_inverse(Q).entries]
    content = math.gcd(*(int(v) for row in adj for v in row))
    return GramMatrix([[v / content for v in row] for row in adj])


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
    # These oracles certify each side on its own layers (``own_side``), so
    # that both sides are really walked.

    def test_catalogue_verdicts_match_their_level_duals(self):
        for e in load_catalog().entries:
            rep = own_side(e)
            assert rep.verdict == VERDICT_CRITICAL and rep.tested == SIDE_INPUT, e.name
            dual = level_dual(e.gram)
            assert is_even(dual), e.name
            assert own_side(dual).verdict == rep.verdict, e.name

    def test_random_verdicts_match_their_level_duals(self):
        verdicts = {VERDICT_CRITICAL: 0, VERDICT_FAILURE: 0}
        for q in seeded_forms():
            rep = own_side(q)
            verdicts[rep.verdict] += 1
            assert own_side(level_dual(q)).verdict == rep.verdict, q.entries
        assert verdicts == {VERDICT_CRITICAL: 9, VERDICT_FAILURE: 111}

    def test_closed_form_dual_premises(self):
        # the route's dual, (N / det W) adj(W) with level N / gcd(N, c(W))
        # and determinant N^n / det W, is the cofactor oracle's N W^-1, with
        # its level() and determinant(); three seeded duals have a level below N
        below = 0
        for q in [e.gram for e in load_catalog().entries] + seeded_forms():
            work = q if is_even(q) else double(q)
            N = level(work)
            dual, dual_level = _level_dual(work, N)
            assert dual == level_dual(q), q.entries
            assert dual_level == level(dual), q.entries
            assert determinant(dual) == Fraction(N ** q.n) / determinant(work), q.entries
            below += dual_level < N
        assert below == 3

    def test_sparser_side_is_walked(self):
        # the level dual is walked exactly when N^n > (det W)^2, at its own
        # horizon; the report names it, in the transcript field as well
        for e in load_catalog().entries:
            rep = fully_critical(e)
            q = e.gram
            work = q if is_even(q) else double(q)
            dual = level_dual(q)
            assert (e.name in DUAL_SIDE) == (determinant(dual) > determinant(work)), e.name
            want = own_side(dual if e.name in DUAL_SIDE else q)
            assert rep.to_dict() == {**want.to_dict(), "name": e.name,
                                     "tested": SIDE_LEVEL_DUAL if e.name in DUAL_SIDE
                                     else SIDE_INPUT}, e.name
            # an override bound always walks the input
            assert fully_critical(e, rep.bound_B).tested == SIDE_INPUT

    def test_dual_verdicts_decide_the_input(self):
        # on the seeded forms the route's verdict is the input side's; a
        # failure on the dual is a refutation of the input, at a dual norm
        sides = {SIDE_INPUT: 0, SIDE_LEVEL_DUAL: 0}
        for q in seeded_forms():
            rep = fully_critical(q)
            sides[rep.tested] += 1
            assert rep.verdict == own_side(q).verdict, q.entries
            if rep.tested == SIDE_LEVEL_DUAL:
                assert rep.verdict == VERDICT_FAILURE
                assert rep.failure_norm in {v.norm for v in own_side(level_dual(q)).per_layer}
        assert sides == {SIDE_INPUT: 53, SIDE_LEVEL_DUAL: 67}


class TestConjectureProbe:
    def test_catalog_samples(self):
        for name in ("sta2", "sta3", "stb4", "stc12"):
            e = load_catalog().by_name(name)
            assert conjecture_probe(e, e.reference_N) == (True, True)

    def test_counterexamples_to_first_layer(self):
        assert conjecture_probe(D12) == (False, False)
        assert conjecture_probe(GramMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == (False, False)

    def test_reads_the_inputs_own_layers(self, monkeypatch):
        # with no bound the certificate may walk a sparser level dual, but the
        # probe's first two layers are the input's
        C = sys.modules["latcrit.certify"]
        real, walked = C.layer_moments, []
        monkeypatch.setattr(C, "layer_moments",
                            lambda Q, bound, **kw: walked.append(Q) or real(Q, bound, **kw))
        for name in sorted(DUAL_SIDE):
            walked.clear()
            e = load_catalog().by_name(name)
            assert conjecture_probe(e) == (True, True)
            assert walked == [e.gram] and walked[0] is e.gram, name

    def test_budget_cut_run_refutes_nothing(self):
        e = load_catalog().by_name("ste10a")
        assert fully_critical(e, e.reference_N, max_vectors=200).verdict == VERDICT_INCONCLUSIVE
        assert conjecture_probe(e, e.reference_N, max_vectors=200) == (True, True)
