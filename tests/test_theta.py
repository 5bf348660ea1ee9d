"""Theta-series facts, checked on the layers they count.

The theta series of an integral form Q is the sum of q^(Q[x]/2) over the
lattice, so its coefficients are the layer cardinalities of
``enumerate_layers``; its degree-2 spherical series vanishes at q^(m/2)
exactly when the layer of norm m is a 2-design, which is read off the
streamed 2-design verdicts (``helpers.streamed_verdicts``).
"""

from fractions import Fraction

from latcrit import (
    GramMatrix,
    double,
    enumerate_layers,
    fully_critical,
)
from latcrit.catalog import load_catalog
from latcrit.certify import SIDE_LEVEL_DUAL

from helpers import box_layers, layer_counts, level_dual, streamed_verdicts, with_A1

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
A1 = GramMatrix([[2]])


def counts(Q: GramMatrix, bound) -> dict[Fraction, int]:
    return layer_counts(enumerate_layers(Q, bound))


def convolve(a: dict, b: dict, bound) -> dict:
    """Layer counts of an orthogonal sum from those of its summands."""
    a = {Fraction(0): 1, **a}
    b = {Fraction(0): 1, **b}
    out: dict = {}
    for m, c in a.items():
        for k, e in b.items():
            if 0 < m + k <= bound:
                out[m + k] = out.get(m + k, 0) + c * e
    return out


class TestThetaSeries:
    def test_a1_classical(self):
        # 1 + 2q + 2q^4 + 2q^9
        assert counts(A1, 18) == {2: 2, 8: 2, 18: 2}

    def test_a2_truncated(self):
        # 1 + 6q + 0q^2 + ...
        assert counts(A2, 4) == {2: 6}

    def test_odd_lattice_half_integer_exponents(self):
        c = counts(I2, 2)
        assert c[Fraction(1)] == 4
        assert c[Fraction(2)] == 4

    def test_weighted_series_of_scaled_z2_vanishes(self):
        verdicts = streamed_verdicts(double(I2), 40)
        assert verdicts
        assert all(v.is_design for v in verdicts.values())

    def test_coefficient_cardinality_identity(self):
        for name in ("sta3", "stb6", "stc12"):
            q = load_catalog().by_name(name).gram
            assert counts(q, 12) == box_layers(q, 12)


class TestThetaProduct:
    def test_multiplicativity_a2_a1(self):
        assert counts(with_A1(A2), 40) == convolve(counts(A2, 40), counts(A1, 40), 40)

    def test_multiplicativity_a1_a1(self):
        q = GramMatrix([[2, 0], [0, 2]])
        a1 = counts(A1, 50)
        assert counts(q, 50) == convolve(a1, a1, 50)


class TestVanishingReport:
    def test_ste10a_doubled_all_vanish(self):
        q = double(load_catalog().by_name("ste10a").gram)
        verdicts = streamed_verdicts(q, 120)
        assert len(verdicts) == 58
        assert all(v.is_design for v in verdicts.values())

    def test_diag24_fails_at_first_exponent(self):
        q = GramMatrix([[2, 0], [0, 4]])
        first = streamed_verdicts(q, 2)
        assert list(first) == [2]  # layer (x,x)=2 is {+-e1}
        assert not first[2].is_design

    def test_matches_per_layer_verdicts(self):
        # the rows are the layers of the lattice the report names: ste15a is
        # certified on its sparser level dual
        cat = load_catalog()
        forms = [GramMatrix([[2, 0], [0, 4]])] + [cat.by_name(n).gram for n in ("stc4", "ste15a")]
        for q in forms:
            rep = fully_critical(q)
            tested = level_dual(q) if rep.tested == SIDE_LEVEL_DUAL else q
            top = max(v.norm for v in rep.per_layer)
            direct = {m: v.is_design for m, v in streamed_verdicts(tested, top).items()}
            assert {v.norm: v.is_design for v in rep.per_layer} == direct
        assert rep.tested == SIDE_LEVEL_DUAL
