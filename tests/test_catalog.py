import numpy as np
import pytest

from latcrit import (VERDICT_CRITICAL, VERDICT_INCONCLUSIVE, FullyCriticalReport, GramMatrix,
                     determinant, fully_critical, gram_from_json, is_even)
from latcrit import catalog
from latcrit.catalog import INCOMPLETE_DIMS, load_catalog, reproduce_tables
from latcrit.cli import main

from helpers import envelope, gram_json

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

    def test_corrupt_counts_are_a_hard_failure(self, monkeypatch):
        monkeypatch.setitem(catalog._EXPECTED_PER_DIM, 5, 8)
        with pytest.raises(RuntimeError, match="dimension 5 has 7 entries, expected 8"):
            load_catalog()

    def test_json_round_trip_bit_exact(self):
        for e in load_catalog().entries:
            assert gram_from_json(gram_json(e.gram)) == e.gram


class TestReproduceTables:
    def test_dims_2_3_sturm_mode(self):
        reports = reproduce_tables([2, 3])
        assert [r.input.name for r in reports] == ["sta2", "sta3", "stb3", "stb4", "stb6"]
        for r in reports:
            assert isinstance(r, FullyCriticalReport)
            assert r.verdict == VERDICT_CRITICAL
            assert r.bound_B <= r.input.reference_N

    def test_dim_4_fast_mode(self):
        # the default Gamma_0 horizon is never beyond the reference N
        reports = reproduce_tables([4])
        assert len(reports) == 6
        assert all(r.verdict == VERDICT_CRITICAL for r in reports)
        assert [r.bound_B for r in reports] == [1, 1, 1, 2, 1, 1]
        assert all(r.bound_B <= r.input.reference_N for r in reports)
        assert all(r.bound_B <= r.input.reference_N for r in reports)

    def test_dim_7_flagged_incomplete(self, capsys):
        # the flag is the CLI's; a budget of one vector makes the run cheap
        names = [e.name for e in load_catalog().by_dim(7)]
        assert main(["tables", "--dims", "7", "--max-vectors", "1", "--format", "json"]) == 2
        rows = envelope(capsys.readouterr().out).outcome["rows"]
        assert [r["name"] for r in rows] == names
        assert all(r["incomplete_dim"] for r in rows)
        assert main(["tables", "--dims", "7", "--max-vectors", "1"]) == 2
        lines = [l for l in capsys.readouterr().out.splitlines() if l.split()[0] in names]
        assert len(lines) == 7
        assert all(l.endswith(" [catalogue incomplete]") for l in lines)

    def test_rows_are_the_reports(self):
        # the rows are fully_critical's own reports, in catalogue order
        reports = reproduce_tables([5, 2], max_vectors=50)
        entries = load_catalog().by_dim(2) + load_catalog().by_dim(5)
        assert [r.input for r in reports] == entries
        for e, r in zip(entries, reports):
            assert r.to_dict() == fully_critical(e, max_vectors=50).to_dict()
        assert {r.verdict for r in reports} == {VERDICT_CRITICAL, VERDICT_INCONCLUSIVE}

    def test_rejects_unknown_dim(self):
        with pytest.raises(ValueError):
            reproduce_tables([11])
