import numpy as np
import pytest

from latcrit import GramMatrix, determinant, gram_from_json, is_even
from latcrit.catalog import INCOMPLETE_DIMS, load_catalog, reproduce_tables

from helpers import gram_json

# the worked-example matrix, as displayed in the source
STE10A = [[3, 1, 1, 1, 1, 0],
          [1, 3, -1, 1, 0, 1],
          [1, -1, 3, 0, 1, -1],
          [1, 1, 0, 3, -1, -1],
          [1, 0, 1, -1, 3, 1],
          [0, 1, -1, -1, 1, 3]]


class TestLoad:
    def test_counts_per_dimension(self):
        cat = load_catalog()
        assert len(cat.by_dim(2)) == 2
        assert len(cat.by_dim(3)) == 3
        assert len(cat.by_dim(4)) == 6
        assert len(cat.by_dim(5)) == 7
        assert len(cat.by_dim(6)) == 17
        assert len(cat.by_dim(7)) == 7
        assert sum(len(cat.by_dim(d)) for d in (2, 3, 4, 5, 6)) == 35
        assert INCOMPLETE_DIMS == {7}

    def test_ste10a_matrix(self):
        assert load_catalog().by_name("ste10a").gram == GramMatrix(STE10A)

    def test_sta3_metadata(self):
        e = load_catalog().by_name("sta3")
        assert e.traditional_name == "A2"
        assert e.reference_dimM == 2 and e.reference_N == 1

    def test_all_entries_integral_spd(self):
        for e in load_catalog().entries:
            assert e.gram.is_integral
            assert determinant(e.gram) > 0

    def test_known_invariants(self):
        cat = load_catalog()
        assert determinant(cat.by_name("stc12").gram) == 4        # D4
        assert determinant(cat.by_name("stf28b").gram) == 64      # 2 E7*
        assert determinant(cat.by_name("ste36").gram) == 3        # E6
        assert is_even(cat.by_name("stf28a").gram)                # A7

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_catalog().by_name("nosuch")

    def test_json_round_trip_bit_exact(self):
        for e in load_catalog().entries:
            assert gram_from_json(gram_json(e.gram)) == e.gram


class TestReproduceTables:
    def test_dims_2_3_sturm_mode(self):
        summary = reproduce_tables([2, 3])
        assert len(summary.rows) == 5
        assert not summary.mismatches
        for r in summary.rows:
            assert r.verdict == "fully-critical"
            assert r.bound_used <= r.reference_N

    def test_dim_4_fast_mode(self):
        # the default Gamma_0 horizon is never beyond the reference N
        summary = reproduce_tables([4])
        assert len(summary.rows) == 6
        assert all(r.verdict == "fully-critical" for r in summary.rows)
        assert [r.bound_used for r in summary.rows] == [2, 2, 1, 4, 2, 1]
        assert all(r.bound_used <= r.reference_N for r in summary.rows)

    def test_dim_7_flagged_incomplete(self):
        summary = reproduce_tables([7], max_vectors=2_000_000)
        assert all(r.incomplete_dim for r in summary.rows)
        assert len(summary.rows) == 7

    def test_rejects_unknown_dim(self):
        with pytest.raises(ValueError):
            reproduce_tables([11])
