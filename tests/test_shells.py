import math
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
    fully_critical,
    gram_inverse,
    is_even,
    layer_moments,
    lll_reduce,
    short_vectors_float,
)
from latcrit import shells
from latcrit.catalog import load_catalog
from latcrit.height import _sides

from helpers import (
    box_layers,
    exact_kernel_forms,
    fincke_pohst_rows,
    half_rows,
    is_lll_reduced,
    large_denominator_form,
    layer_counts,
    lll_reduce_rational,
    normalized_to_det1,
    quadratic_value,
    random_rational_spd,
    random_unimodular,
    sheared_z2,
    transform_gram,
    validated_form,
)

I2 = GramMatrix([[1, 0], [0, 1]])
A2 = GramMatrix([[2, 1], [1, 2]])
A1 = GramMatrix([[2]])


class TestExamples:
    def test_z2_up_to_5(self):
        got = layer_counts(enumerate_layers(I2, 5))
        # frozen from the box oracle over [-3,3]^2
        assert got == {1: 4, 2: 4, 4: 4, 5: 8}
        assert got == box_layers(I2, 5)

    def test_a2_norm_2(self):
        assert layer_counts(enumerate_layers(A2, 2)) == {2: 6}

    def test_a1_up_to_9(self):
        layers = enumerate_layers(A1, 9)
        assert list(layer_counts(layers).items()) == [(Fraction(2), 2), (Fraction(8), 2)]

    def test_ste10a_low_layers_match_transcript(self):
        # transcript counts one vector per antipodal pair
        q = load_catalog().by_name("ste10a").gram
        counts = layer_counts(enumerate_layers(q, 10))
        assert 1 not in counts and 2 not in counts
        pairs = [(int(m), c // 2) for m, c in counts.items()]
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
        assert layer_counts(enumerate_layers(q, bound)) == box_layers(q, bound)

    def test_rational_form(self):
        q = gram_inverse(A2)  # entries in thirds
        assert layer_counts(enumerate_layers(q, 3)) == box_layers(q, 3)

    def test_float_walk_on_unreduced_basis(self):
        # short_vectors_float walks the basis it is given, with no LLL step;
        # on an integral form its norms are the exact integers, so its slack
        # admits none above the integer bound
        q = load_catalog().by_name("stc9").gram
        skewed = transform_gram(q, random_unimodular(q.n, np.random.default_rng(29), ops=12))
        assert max(skewed.entries[i][i] for i in range(q.n)) > 4 * max(q.entries[i][i] for i in range(q.n))
        X, norms = short_vectors_float(np.array(skewed.entries, dtype=float), 16)
        assert np.array_equal(norms, np.rint(norms)) and norms.max() <= 16
        got: dict[Fraction, int] = {}
        for x, m in zip(half_rows(X), np.rint(norms).astype(int)):
            assert quadratic_value(skewed, x) == m
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
            assert layer_counts(enumerate_layers(qq, bound)) == box_layers(qq, bound), e.name


class TestArrayWalk:
    @staticmethod
    def check_rows(Q, bound, monkeypatch):
        # the walk on Q's integral form P: leaves in order, compact (each
        # slice's level-0 parents with x_0 = 0, nondecreasing parent indices
        # and x_0), and each leaf's norm from the leaf quadratic equal to
        # P[x] in Python ints; returns the level where the walk leaves its
        # scalar phase: the first from the root whose nodes create more than
        # _SCALAR_CHILDREN children, or the leaf level
        rows, d = Q.integral_rescale()
        P = np.array(rows, dtype=float)
        assert shells._norm_magnitude(P, bound * d) < shells.FLOAT_EXACT
        ref, ref_norms, children = fincke_pohst_rows(P, float(bound * d))
        # 1: single-row slices; 3 and 8: slices with childless parents inside
        for chunk in (shells._CHUNK_ROWS, 8, 3, 1):
            monkeypatch.setattr(shells, "_CHUNK_ROWS", chunk)
            got = list(shells._fp_rows(P, float(bound * d)))
            assert max(max(len(X), len(x)) for X, _, x, _ in got) <= chunk
            assert all(len(p) == len(x) == len(norms) for _, p, x, norms in got)
            assert all(not X[:, 0].any() and np.all(np.diff(p) >= 0) for X, p, _, _ in got)
            rows = [half_rows(shells.HalfSet(X, p, x)) for X, p, x, _ in got]
            assert np.array_equal(np.concatenate(rows), ref)
            assert np.concatenate([norms for *_, norms in got]).tolist() == ref_norms
        return next((i for i in range(Q.n - 1, 0, -1) if children[i] > shells._SCALAR_CHILDREN), 0)

    # where the walk leaves its scalar phase: at the leaves (the scalar phase
    # covers every level above them), mid-tree, or at the root (more than 32
    # children there: it never runs)
    PHASES = {("sta2", 40): "leaves", ("std5a", 2): "leaves", ("stf8", 8): "leaves",
              ("stb3", 40): "mid", ("stc12", 40): "mid", ("std5a", 24): "mid",
              ("ste10a", 20): "mid", ("stf8", 20): "mid", ("sta2", 1100): "root"}

    @pytest.mark.parametrize("name,bound", list(PHASES))
    def test_rows_match_per_node_recursion(self, name, bound, monkeypatch):
        Qred, _ = lll_reduce(load_catalog().by_name(name).gram)
        level, n = self.check_rows(Qred, bound, monkeypatch), Qred.n
        phase = self.PHASES[name, bound]
        assert {"leaves": level == 0, "mid": 0 < level < n - 1, "root": level == n - 1}[phase]

    def test_rows_match_on_a_one_dimensional_form(self, monkeypatch):
        # the root is the leaf level: the walk is vectorized from the start
        assert self.check_rows(GramMatrix([[3]]), 40, monkeypatch) == 0

    def test_rows_match_on_an_unreduced_basis(self, monkeypatch):
        # a skewed basis leaves nodes with no integer in their interval; at
        # 3 rows a slice two of them fall strictly inside a slice
        q = load_catalog().by_name("stc9").gram
        skewed = transform_gram(q, random_unimodular(q.n, np.random.default_rng(29), ops=12))
        self.check_rows(skewed, 16, monkeypatch)

    def test_rows_match_on_the_catalogue_walks(self, monkeypatch):
        # the 42 walks of the default-horizon certificates, and both integral
        # sides of each entry's height at radius 6 (about half the height's
        # first radius, so that the per-node oracle stays fast)
        walks, fp_rows = [], shells._fp_rows

        def record(P, bound):
            walks.append((P, bound))
            return fp_rows(P, bound)

        monkeypatch.setattr(shells, "_fp_rows", record)
        entries = load_catalog().entries
        for e in entries:
            fully_critical(e)
        assert len(walks) == 42
        for e in entries:
            for P, unit in _sides(e.gram, det1=True).integral:
                walks.append((P, float(math.floor(shells._slack_bound(6.0) * unit))))
        for P, bound in walks:
            ref, ref_norms, _ = fincke_pohst_rows(P, bound)
            got = list(fp_rows(P, bound))
            rows = [half_rows(shells.HalfSet(X, p, x)) for X, p, x, _ in got]
            assert np.array_equal(np.concatenate(rows) if rows else np.empty((0, len(P))), ref)
            assert [v for *_, norms in got for v in norms.tolist()] == ref_norms


class TestFloatBound:
    @pytest.mark.parametrize("bound", [np.inf, np.nan, -1.0])
    def test_rejects_a_bound_that_is_not_finite_and_nonnegative(self, bound):
        with pytest.raises(ValueError):
            short_vectors_float(A2.to_float(), bound)

    def test_zero_bound_is_empty(self):
        X, norms = short_vectors_float(A2.to_float(), 0.0)
        assert len(X) == 0 and half_rows(X).shape == (0, 2) and norms.shape == (0,)

    def test_a_leaf_past_the_mask_is_dropped(self):
        # the walk's floor tolerance of 1e-12 keeps x = 1 on [[q]], q just past
        # the mask at _slack_bound(1): the mask drops it, and nothing is left
        q = shells._slack_bound(1.0) * (1 + 1e-12)
        X, norms = short_vectors_float(np.array([[q]]), 1.0)
        assert len(X) == 0 and norms.shape == (0,)

    def test_exact_filter_drops_a_leaf_inside_the_walks_slack(self):
        # the walk's budget 10^9 (1 + 1e-9) + 1e-9 rounds to 10^9 + 1, so it
        # keeps x = 1 of norm 10^9 + 1; the exact filter at 10^9 drops it
        assert enumerate_layers(GramMatrix([[10**9 + 1]]), 10**9) == {}
        assert list(enumerate_layers(GramMatrix([[10**9 + 1]]), 10**9 + 1)) == [10**9 + 1]

    def test_budget_counts_both_vectors_of_each_kept_leaf(self, monkeypatch):
        # read at each call: 2 |half| vectors fit a budget of exactly that,
        # and one vector less refuses the walk
        X, _ = short_vectors_float(A2.to_float(), 12.0)
        monkeypatch.setattr(shells, "DEFAULT_MAX_VECTORS", 2 * len(X))
        assert len(short_vectors_float(A2.to_float(), 12.0)[0]) == len(X)
        monkeypatch.setattr(shells, "DEFAULT_MAX_VECTORS", 2 * len(X) - 1)
        with pytest.raises(EnumerationBudgetError) as exc:
            short_vectors_float(A2.to_float(), 12.0)
        assert (exc.value.processed, exc.value.budget, exc.value.bound) == (
            2 * len(X), 2 * len(X) - 1, 12.0)


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
            layers = enumerate_layers(q, b)
            assert list(layers) == list(ref)
            for m, X in layers.items():
                assert np.array_equal(X, ref[m])
            assert layer_counts(layers) == box_layers(q, b)
            moments = layer_moments(q, b)
            assert list(moments) == list(ref_moments)
            for m, (cnt, S) in moments.items():
                assert cnt == ref_moments[m][0] and (S == ref_moments[m][1]).all()
        X, norms = short_vectors_float(sta3, 6.0)
        assert np.array_equal(half_rows(X), half_rows(float_default[0]))
        assert np.array_equal(norms, float_default[1])

    def test_rows_gather_slice_by_slice(self, monkeypatch):
        # at 64 rows a slice the walk of stc12's integral form to 40 spans 34
        # slices, which share 6 frontiers; rows(pick), for sorted picks
        # within and across slices, gathers the rows the joined set gives,
        # and neither rows nor len joins the slices
        P = np.array(lll_reduce(load_catalog().by_name("stc12").gram)[0].integral_rescale()[0],
                     dtype=float)
        monkeypatch.setattr(shells, "_CHUNK_ROWS", 64)
        half, norms = short_vectors_float(P, 40.0)
        frontiers = {id(X): len(X) for X, _, _ in half.slices}
        assert len(half.slices) > 5 * len(frontiers) > 25 and len(half) == len(norms)
        picks = [np.empty(0, np.intp), np.arange(0, len(half), 7), np.flatnonzero(norms <= 12),
                 np.arange(len(half))]
        got = [half.rows(pick) for pick in picks] + [half.rows()]
        assert "_joined" not in vars(half)
        joined = half_rows(half).astype(np.int64)
        assert len(half.parents) == sum(frontiers.values())
        for pick, rows in zip(picks + [slice(None)], got):
            assert rows.dtype == np.int64 and np.array_equal(rows, joined[pick])


class TestInvariants:
    def test_unimodular_invariance_of_counts(self):
        rng = np.random.default_rng(17)
        for name in ("sta3", "stb6", "stc12"):
            q = load_catalog().by_name(name).gram
            base = list(layer_counts(enumerate_layers(q, 10)).items())
            for _ in range(3):
                U = random_unimodular(q.n, rng)
                qq = transform_gram(q, U)
                assert list(layer_counts(enumerate_layers(qq, 10)).items()) == base

    def test_layers_exact_and_antipodal(self):
        q = load_catalog().by_name("stc9").gram
        for m, X in enumerate_layers(q, 12).items():
            assert X.dtype == np.int64 and len(X) % 2 == 0
            assert np.array_equal(X, np.array(sorted(X.tolist())))  # lex-sorted
            vecs = {tuple(map(int, row)) for row in X}
            assert len(vecs) == len(X)                   # pairwise distinct
            assert (0,) * q.n not in vecs
            for v in list(vecs)[:50]:
                assert tuple(-x for x in v) in vecs      # antipodal closure
                assert quadratic_value(q, v) == m        # exact rational recheck

    def test_norms_strictly_increasing(self):
        norms = list(enumerate_layers(load_catalog().by_name("std6").gram, 20))
        assert all(a < b for a, b in zip(norms, norms[1:]))


def half_set(Q, bound):
    """The rows the exact path walks: one representative per antipodal pair."""
    chunks = [X for X, _, _ in shells._half_candidates(Q, Fraction(bound))]
    return {tuple(map(int, r)) for X in chunks for r in X}


class TestHalfLayer:
    def test_z2_norm_1(self):
        assert half_set(I2, 1) == {(1, 0), (0, 1)}

    def test_a2_norm_2_has_three(self):
        assert len(half_set(A2, 2)) == 3

    def test_covers_all_pairs(self):
        q = load_catalog().by_name("stc12").gram
        full = {tuple(map(int, r)) for X in enumerate_layers(q, 4).values() for r in X}
        reps = half_set(q, 4)
        assert len(full) == 2 * len(reps)
        assert reps | {tuple(-x for x in r) for r in reps} == full


class TestNormRoutes:
    ROUTES = {"float": (0.0, 2.0**53), "object": (2.0**53, np.inf)}

    @pytest.mark.parametrize("d, route", [(1, "float"), (4 * 10**13, "float"),
                                          (10**15 + 37, "object"), (10**17 + 3, "object")])
    def test_large_denominators_reach_each_route(self, d, route, monkeypatch):
        # the certificate takes the walk's float64 leaf norms while the
        # walk's magnitude is below 2^53 (d = 4e13 is at 0.8 of it) and
        # Python ints beyond; the route is read from the magnitude _half_candidates
        # decides by and from its _exact_norms calls; both routes give the
        # box's layers, and the walk's norms are the Python-int ones
        magnitudes, walked, object_calls = [], [], []
        real_magnitude, real_walk, real_exact = (shells._norm_magnitude, shells._fp_rows,
                                                 shells._exact_norms)

        def magnitude(P, bound):
            magnitudes.append(real_magnitude(P, bound))
            return magnitudes[-1]

        def walk(P, bound):
            for X, p, x, norms in real_walk(P, bound):
                walked.append((P, half_rows(shells.HalfSet(X, p, x)), norms))
                yield X, p, x, norms

        def exact(X, P):
            object_calls.append(len(X))
            return real_exact(X, P)

        monkeypatch.setattr(shells, "_norm_magnitude", magnitude)
        monkeypatch.setattr(shells, "_fp_rows", walk)
        monkeypatch.setattr(shells, "_exact_norms", exact)
        q = large_denominator_form(d)
        got = layer_counts(enumerate_layers(q, 6))
        assert got == box_layers(q, 6) and len(got) >= 3
        assert {m: c for m, (c, _) in layer_moments(q, 6).items()} == got
        lo, hi = self.ROUTES[route]
        assert magnitudes and all(lo <= m < hi for m in magnitudes)
        assert walked and (len(object_calls) > 0) == (route == "object")
        if route == "float":
            for P, X, norms in walked:
                ints = real_exact(X.astype(np.int64), P.astype(np.int64))
                assert norms.tolist() == ints.tolist()


class TestStreaming:
    def test_moments_match_stored_enumeration(self):
        q = load_catalog().by_name("stc10").gram
        layers = enumerate_layers(q, 12)
        moments = layer_moments(q, 12)
        assert list(moments) == list(layers)
        for m, X in layers.items():
            cnt, S = moments[m]
            assert cnt == len(X)
            direct = X.T.astype(object) @ X.astype(object)
            assert (S == direct).all()

    def test_no_rows_give_no_layers(self):
        # the height's certificate takes the moments of no rows when no layer
        # is in range: no runs and no moments, not an IndexError
        assert list(shells._runs(np.empty(0, np.int64))) == []
        assert list(shells._moments(np.empty((0, 3), np.int64), np.empty(0, np.int64))) == []

    def test_budget_error(self):
        q = load_catalog().by_name("ste10a").gram
        with pytest.raises(EnumerationBudgetError) as exc:
            enumerate_layers(q, 40, max_vectors=100)
        assert exc.value.processed > 100
        # a negative budget is refused before the walk, not reported as exhausted
        for collect in (enumerate_layers, layer_moments):
            with pytest.raises(ValueError, match="budget must be nonnegative"):
                collect(q, 40, max_vectors=-1)


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

    def test_integral_lll_matches_rational_oracle(self):
        # same (Q_red, U): the integer rounding and Lovasz tests decide as
        # the rational ones, also on forms with denominators 3 and 7
        for name, Q in exact_kernel_forms():
            red, U = lll_reduce(Q)
            want_red, want_U = lll_reduce_rational(Q)
            assert red == want_red and (U == want_U).all(), name

    def test_stored_result_is_the_validated_form(self):
        # the reduced form is stored unchecked: it equals the form that
        # validation and the gcd give, with the same determinant and content
        forms = 0
        for name, Q in exact_kernel_forms():
            red, _ = lll_reduce(Q)
            P, d = red.integral_rescale()
            want = validated_form(P, d)
            assert (red._P, red._d, red._det, red.name) == (
                want._P, want._d, want._det, want.name), name
            assert red._det == Q._det, name
            forms += 1
        assert forms == 1001

    def test_reduces_skewed_basis(self):
        U = np.array([[1, 7], [0, 1]], dtype=np.int64)
        skewed = transform_gram(I2, U)
        red, _ = lll_reduce(skewed)
        assert red == I2

    @pytest.mark.parametrize("K", [2**63, 2**63 + 1, 10**19])
    def test_transform_beyond_int64_is_in_python_ints(self, K):
        # Z^2 in the basis (1, 0), (K, 1) reduces by U = [[1, -K], [0, 1]]:
        # int64 while -K fits (down to -2^63), Python ints once it does not
        red, U = lll_reduce(sheared_z2(K))
        assert red == I2 and U.tolist() == [[1, -K], [0, 1]]
        assert U.dtype == (np.int64 if K <= 2**63 else object)
        assert transform_gram(sheared_z2(K), U) == red


class TestWalkRecord:
    def test_record_is_the_reduction_with_int64_rows(self):
        # (Q_red, P, d, U): lll_reduce's pair, and P = d Q_red as int64 rows,
        # with d Q integral; a reduced form beyond int64 has no rows
        for name, Q in exact_kernel_forms():
            red, P, d, U = shells.walk_record(Q)
            want_red, want_U = lll_reduce(Q)
            assert red == want_red and np.array_equal(U, want_U), name
            assert P.dtype == np.int64 and P.tolist() == red.integral_rescale()[0], name
            assert d == Q.integral_rescale()[1], name
        red, P, d, _ = shells.walk_record(GramMatrix([[2, 1], [1, 10**30 + 7]]))
        assert P is None and d == 1 and red.entries[1][1] == 10**30 + 7

    def test_walked_coordinates_meet_the_magnitude_premise(self):
        # the premise of the float-exact guard (shells._norm_magnitude): every
        # coordinate of every leaf the walk yields, before any mask, has
        # |x_k| <= sqrt(bound (P^-1)_kk) + 2, with P^-1 taken in Fractions
        # (cofactors, by the independent Bareiss oracle); so every row's
        # sum_jk |x_j| |P_jk| |x_k| is within the guard's magnitude.  On the
        # reduced walks of the exact kernel forms at three integer bounds
        from helpers import bareiss_determinant

        walked = 0
        for name, Q in exact_kernel_forms():
            _, P, _, _ = shells.walk_record(Q)
            rows = P.tolist()
            n = len(rows)
            det = bareiss_determinant(rows)
            inv_diag = [bareiss_determinant([r[:k] + r[k + 1:] for r in rows[:k] + rows[k + 1:]])
                        / det for k in range(n)]
            for bound in (1, 5, 12):
                leaves = [shells.HalfSet(X, p, x).rows()
                          for X, p, x, _ in shells._fp_rows(P.astype(float), float(bound))]
                if not leaves:
                    continue
                X = np.concatenate(leaves)
                walked += len(X)
                for k, top in enumerate(np.abs(X).max(axis=0).tolist()):
                    assert top <= 2 or (top - 2) ** 2 <= bound * inv_diag[k], (name, bound, k)
                spread = ((np.abs(X) @ np.abs(P)) * np.abs(X)).sum(axis=1).max()
                assert spread <= shells._norm_magnitude(P, bound), (name, bound)
        assert walked > 100_000


class TestFormats:
    def test_cardinality_vector(self):
        layers = enumerate_layers(I2, 5)
        assert cardinality_vector(layers, 5) == [4, 4, 0, 4, 8]
        assert cardinality_vector(layers, 3) == [4, 4, 0]
        with pytest.raises(ValueError, match="integral norms"):
            cardinality_vector(enumerate_layers(gram_inverse(A2), 2), 2)

    def test_dump_format(self):
        text = dump_spectrum(enumerate_layers(A1, 8))
        lines = text.strip().splitlines()
        assert lines[0] == "2 2"
        assert set(lines[1:3]) == {"1", "-1"}
        assert lines[3] == "8 2"
