from fractions import Fraction

import numpy as np
import pytest

from latcrit import (
    EnumerationBudgetError,
    GramMatrix,
    cardinality_vector,
    double,
    dump_spectrum,
    enumerate_layers,
    gram_inverse,
    half_layer,
    is_even,
    layer_cardinalities,
    layer_moments,
    lll_reduce,
    normalized_to_det1,
    short_vectors_float,
)
from latcrit import shells
from latcrit.catalog import load_catalog

from helpers import (
    box_layers,
    fincke_pohst_rows,
    is_lll_reduced,
    random_rational_spd,
    random_unimodular,
    transform_gram,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
A1 = GramMatrix([[2]])


class TestExamples:
    def test_z2_up_to_5(self):
        spec = enumerate_layers(I2, 5)
        got = {int(m): c for m, c in layer_cardinalities(spec)}
        # frozen from the box oracle over [-3,3]^2
        assert got == {1: 4, 2: 4, 4: 4, 5: 8}
        assert got == {int(m): c for m, c in box_layers(I2, 5).items()}

    def test_a2_norm_2(self):
        spec = enumerate_layers(A2, 2)
        assert len(spec.layers) == 1
        assert spec.layers[0].norm == 2 and spec.layers[0].cardinality == 6

    def test_a1_up_to_9(self):
        spec = enumerate_layers(A1, 9)
        assert layer_cardinalities(spec) == [(Fraction(2), 2), (Fraction(8), 2)]

    def test_ste10a_low_layers_match_transcript(self):
        # transcript counts one vector per antipodal pair
        q = load_catalog().by_name("ste10a").gram
        spec = enumerate_layers(q, 10)
        assert spec.layer_at(1) is None and spec.layer_at(2) is None
        pairs = [(int(m), c // 2) for m, c in layer_cardinalities(spec)]
        assert pairs == [(3, 10), (4, 15), (5, 12), (6, 30), (7, 30),
                         (8, 30), (9, 60), (10, 72)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("name,bound", [
        ("sta2", 20), ("sta3", 20), ("stb4", 20), ("stb6", 20),
        ("stc5", 16), ("stc9", 16), ("stc12", 12),
        ("std6", 12), ("ste10a", 8), ("stf8", 16),
    ])
    def test_matches_box_enumeration(self, name, bound):
        q = load_catalog().by_name(name).gram
        got = {m: c for m, c in layer_cardinalities(enumerate_layers(q, bound))}
        assert got == box_layers(q, bound)

    def test_rational_form(self):
        q = gram_inverse(A2)  # entries in thirds
        got = {m: c for m, c in layer_cardinalities(enumerate_layers(q, 3))}
        assert got == box_layers(q, 3)

    def test_float_walk_on_unreduced_basis(self):
        # short_vectors_float walks the basis it is given, with no LLL step
        q = load_catalog().by_name("stc9").gram
        skewed = transform_gram(q, random_unimodular(q.n, np.random.default_rng(29), ops=12))
        assert max(skewed.entries[i][i] for i in range(q.n)) > 4 * max(q.entries[i][i] for i in range(q.n))
        X, norms = short_vectors_float(np.array(skewed.entries, dtype=float), 16)
        got: dict[Fraction, int] = {}
        for x, m in zip(X, np.rint(norms).astype(int)):
            assert skewed.value(tuple(int(v) for v in x)) == m
            got[Fraction(int(m))] = got.get(Fraction(int(m)), 0) + 2
        assert got == box_layers(skewed, 16)

    def test_seeded_fuzz_dims_2_to_5(self):
        # every catalogue form of dims 2-5 in a random basis, against a box over that basis
        rng = np.random.default_rng(2024)
        entries = [e for e in load_catalog().entries if e.gram.n <= 5]
        assert len(entries) == 18
        for e in entries:
            qq = transform_gram(e.gram, random_unimodular(e.gram.n, rng))
            bound = {2: 20, 3: 20, 4: 16, 5: 12}[e.gram.n]
            got = {m: c for m, c in layer_cardinalities(enumerate_layers(qq, bound))}
            assert got == box_layers(qq, bound), e.name


class TestArrayWalk:
    @pytest.mark.parametrize("name,bound", [
        ("sta2", 40), ("stb3", 40), ("stc12", 40), ("std5a", 24), ("ste10a", 20), ("stf8", 20),
    ])
    def test_rows_match_per_node_recursion(self, name, bound, monkeypatch):
        Qred, _ = lll_reduce(load_catalog().by_name(name).gram)
        R = np.linalg.cholesky(np.array(Qred.entries, dtype=float)).T.copy()
        ref = fincke_pohst_rows(R, float(bound))
        for chunk in (shells._CHUNK_ROWS, 8):
            monkeypatch.setattr(shells, "_CHUNK_ROWS", chunk)
            got = list(shells._fp_rows(R, float(bound)))
            assert max(len(X) for X in got) <= chunk
            assert np.array_equal(np.concatenate(got), ref)


class TestSplitFrontiers:
    """With a tiny _CHUNK_ROWS every frontier is split; the results must not move."""

    def test_split_walk_matches_default_and_box(self, monkeypatch):
        cat = load_catalog()
        cases = [(cat.by_name("stf8").gram, 16), (cat.by_name("ste10a").gram, 8)]
        default = [enumerate_layers(q, b) for q, b in cases]
        default_moments = [layer_moments(q, b) for q, b in cases]
        sta3 = normalized_to_det1(cat.by_name("sta3").gram)
        float_default = short_vectors_float(sta3, 6.0)
        monkeypatch.setattr(shells, "_CHUNK_ROWS", 8)
        for (q, b), ref, ref_moments in zip(cases, default, default_moments):
            spec = enumerate_layers(q, b)
            assert layer_cardinalities(spec) == layer_cardinalities(ref)
            for lay, lay_ref in zip(spec.layers, ref.layers):
                assert (lay.vectors == lay_ref.vectors).all()
            assert {m: c for m, c in layer_cardinalities(spec)} == box_layers(q, b)
            moments = layer_moments(q, b)
            assert list(moments) == list(ref_moments)
            for m, (cnt, S) in moments.items():
                assert cnt == ref_moments[m][0] and (S == ref_moments[m][1]).all()
        X, norms = short_vectors_float(sta3, 6.0)
        assert (X == float_default[0]).all() and (norms == float_default[1]).all()


class TestInvariants:
    def test_unimodular_invariance_of_counts(self):
        rng = np.random.default_rng(17)
        for name in ("sta3", "stb6", "stc12"):
            q = load_catalog().by_name(name).gram
            base = layer_cardinalities(enumerate_layers(q, 10))
            for _ in range(3):
                U = random_unimodular(q.n, rng)
                qq = transform_gram(q, U)
                assert layer_cardinalities(enumerate_layers(qq, 10)) == base

    def test_layers_exact_and_antipodal(self):
        q = load_catalog().by_name("stc9").gram
        spec = enumerate_layers(q, 12)
        for lay in spec.layers:
            assert lay.cardinality % 2 == 0
            vecs = {tuple(map(int, row)) for row in lay.vectors}
            assert len(vecs) == lay.cardinality          # pairwise distinct
            assert (0,) * q.n not in vecs
            for v in list(vecs)[:50]:
                assert tuple(-x for x in v) in vecs      # antipodal closure
                assert q.value(v) == lay.norm            # exact rational recheck

    def test_norms_strictly_increasing(self):
        spec = enumerate_layers(load_catalog().by_name("std6").gram, 20)
        norms = spec.norms()
        assert all(a < b for a, b in zip(norms, norms[1:]))


class TestHalfLayer:
    def test_z2_norm_1(self):
        lay = enumerate_layers(I2, 1).layers[0]
        reps = {tuple(map(int, r)) for r in half_layer(lay)}
        assert reps == {(1, 0), (0, 1)}

    def test_a2_norm_2_has_three(self):
        lay = enumerate_layers(A2, 2).layers[0]
        assert len(half_layer(lay)) == 3

    def test_covers_all_pairs(self):
        lay = enumerate_layers(load_catalog().by_name("stc12").gram, 4).layers[0]
        reps = half_layer(lay)
        full = {tuple(map(int, r)) for r in lay.vectors}
        rebuilt = set()
        for r in reps:
            rebuilt.add(tuple(map(int, r)))
            rebuilt.add(tuple(-int(x) for x in r))
        assert rebuilt == full


class TestStreaming:
    def test_moments_match_stored_enumeration(self):
        q = load_catalog().by_name("stc10").gram
        spec = enumerate_layers(q, 12)
        moments = layer_moments(q, 12)
        assert set(moments) == set(spec.norms())
        for lay in spec.layers:
            cnt, S = moments[lay.norm]
            assert cnt == lay.cardinality
            direct = lay.vectors.T.astype(object) @ lay.vectors.astype(object)
            assert (S == direct).all()

    def test_budget_error(self):
        q = load_catalog().by_name("ste10a").gram
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_layers(q, 40, max_vectors=100)
        assert exc.value.processed > 100


class TestLLL:
    def test_transform_is_unimodular_congruence(self):
        rng = np.random.default_rng(23)
        for name in ("sta3", "stc9", "ste10a"):
            q = load_catalog().by_name(name).gram
            skewed = transform_gram(q, random_unimodular(q.n, rng, ops=12))
            red, U = lll_reduce(skewed)
            assert abs(round(np.linalg.det(U.astype(float)))) == 1
            assert transform_gram(skewed, U) == red

    def test_output_is_lll_reduced(self):
        rng = np.random.default_rng(29)
        forms = []
        for e in load_catalog().entries:
            q = e.gram
            forms += [q, q if is_even(q) else double(q),
                      transform_gram(q, random_unimodular(q.n, rng, ops=12))]
        forms += [random_rational_spd(n, rng) for n in range(2, 7) for _ in range(4)]
        for q in forms:
            red, U = lll_reduce(q)
            assert is_lll_reduced(red)
            assert abs(round(np.linalg.det(U.astype(float)))) == 1
            assert transform_gram(q, U) == red

    def test_reduces_skewed_basis(self):
        U = np.array([[1, 7], [0, 1]], dtype=np.int64)
        skewed = transform_gram(I2, U)
        red, _ = lll_reduce(skewed)
        assert red == I2


class TestFormats:
    def test_cardinality_vector(self):
        spec = enumerate_layers(I2, 5)
        assert cardinality_vector(spec, 5) == [4, 4, 0, 4, 8]
        assert cardinality_vector(spec, 5, antipodal_pairs=True) == [2, 2, 0, 2, 4]

    def test_dump_format(self):
        spec = enumerate_layers(A1, 8)
        text = dump_spectrum(spec)
        lines = text.strip().splitlines()
        assert lines[0] == "2 2"
        assert set(lines[1:3]) == {"1", "-1"}
        assert lines[3] == "8 2"
