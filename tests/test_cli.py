import json

import pytest

from latcrit.cli import RunReport, main

DIAG12 = '{"name": "diag12", "n": 2, "gram": [[1, 0], [0, 2]]}'


@pytest.fixture
def diag12_file(tmp_path):
    p = tmp_path / "diag12.json"
    p.write_text(DIAG12, encoding="utf-8")
    return str(p)


class TestFullyCritical:
    def test_ste10a_transcript(self, capsys):
        rc = main(["fully-critical", "--name", "ste10a", "--bound", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "the layer (x,x)=1 is empty" in out
        assert "the layer (x,x)=2 is empty" in out
        assert "150 = 150, 2-DESIGN on the layer (x,x)=3" in out
        assert "4118640000 = 4118640000, 2-DESIGN on the layer (x,x)=60" in out
        assert "RESULT: fully critical" in out

    def test_failure_exit_code(self, diag12_file, capsys):
        rc = main(["fully-critical", "--gram", diag12_file])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAILURE" in out

    def test_fast_paper_bound(self, capsys):
        rc = main(["fully-critical", "--name", "stc12", "--fast-paper-bound"])
        assert rc == 0

    def test_budget_inconclusive_exit_code(self, capsys):
        rc = main(["fully-critical", "--name", "ste10a", "--bound", "60",
                   "--max-vectors", "3000"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "inconclusive" in out

    def test_json_format(self, capsys):
        rc = main(["fully-critical", "--name", "sta3", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        rep = RunReport.from_json(out)
        assert rep.command == "fully-critical"
        assert rep.outcome["verdict"] == "fully-critical"
        assert rep.outcome["level"] == 3


class TestDesign:
    def test_counterexample(self, diag12_file, capsys):
        rc = main(["design", "--gram", diag12_file, "--layer-norm", "1", "--t", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "4 != 2, NOT a 2-design" in out

    def test_design_layer(self, capsys):
        rc = main(["design", "--name", "sta3", "--layer-norm", "2", "--t", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "72 = 72, 2-DESIGN on the layer (x,x)=2" in out

    def test_empty_layer(self, capsys):
        rc = main(["design", "--name", "sta3", "--layer-norm", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "empty" in out


class TestLayers:
    def test_dump_file(self, tmp_path, capsys):
        dump = tmp_path / "layers.txt"
        rc = main(["layers", "--name", "sta2", "--bound", "2",
                   "--dump-layers", str(dump)])
        assert rc == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "1 4"

    @pytest.mark.parametrize("argv", [
        ["layers", "--name", "stf28a", "--bound", "40"],
        ["design", "--name", "stf28a", "--layer-norm", "40"],
    ])
    def test_budget_is_honoured(self, argv, capsys):
        rc = main(argv + ["--max-vectors", "1000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("inconclusive: enumeration budget exceeded")

    def test_json_vectors(self, capsys):
        rc = main(["layers", "--name", "sta2", "--bound", "5", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["cardinality_vector"] == [4, 4, 0, 4, 8]
        assert rep.outcome["pair_vector"] == [2, 2, 0, 2, 4]


class TestTables:
    def test_dim_4(self, capsys):
        rc = main(["tables", "--dims", "4", "--fast-paper-bound", "--threads", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [l for l in out.splitlines() if l.startswith("stc")]
        assert len(rows) == 6
        assert all("fully-critical" in r for r in rows)

    def test_dims_2_3(self, capsys):
        rc = main(["tables", "--dims", "2,3", "--threads", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 entries, 0 mismatches" in out

    def test_inconclusive_rows_exit_2(self, capsys):
        rc = main(["tables", "--dims", "4", "--max-vectors", "1000", "--threads", "1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert [l.split()[2] for l in out.splitlines() if l.startswith("stc9")] == ["inconclusive"]
        assert "failure" not in out


class TestNumericCommands:
    def test_height_json(self, capsys):
        rc = main(["height", "--name", "sta3", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["height"] < 1.06
        assert rep.outcome["tail_estimate"] < 1e-12 * abs(rep.outcome["F_value"])

    def test_height_truncation_failure_exits_2(self, capsys):
        rc = main(["height", "--name", "stc12", "--radius", "0.01"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_height_zero_radius_rejected_before_enumeration(self, capsys):
        rc = main(["height", "--name", "sta2", "--radius", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cutoff must be positive") and err.count("\n") == 1

    def test_threads_only_on_tables(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["height", "--name", "sta3", "--threads", "2"])
        assert exc.value.code == 2

    def test_stationarity(self, capsys):
        rc = main(["stationarity", "--name", "stc12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stationarity residual" in out

    def test_analyze(self, capsys):
        rc = main(["analyze", "--name", "ste10a", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["determinant"] == "125"
        assert rep.outcome["even"] is False
        assert rep.outcome["level_of_even_form"] == 20
        assert rep.outcome["min_norm"] == "3"


class TestProbe:
    def test_catalog_entry(self, capsys):
        rc = main(["probe-conjecture", "--name", "sta3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no counterexample candidates" in out

    def test_exhausted_budget_is_not_a_counterexample(self, capsys):
        # the budget cuts the horizon: inconclusive, as fully-critical says
        rc = main(["probe-conjecture", "--name", "ste10a", "--max-vectors", "200"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "ste10a: first_two=True verdict=inconclusive" in out
        assert "no counterexample candidates" in out
        rc = main(["fully-critical", "--name", "ste10a", "--fast-paper-bound",
                   "--max-vectors", "200"])
        assert rc == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_budget_error_row_is_inconclusive(self, capsys):
        # fully_critical itself gives up (no bound >= 2 fits the budget): exit 2, no hit
        rc = main(["probe-conjecture", "--name", "sta2", "--max-vectors", "1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "sta2: inconclusive (enumeration budget exceeded" in out
        assert "no counterexample candidates" in out

    def test_random_forms(self, capsys):
        rc = main(["probe-conjecture", "--random", "5", "--dims", "2,3",
                   "--seed", "1", "--bound", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no counterexample candidates" in out


class TestRunReport:
    def test_round_trip(self):
        rep = RunReport("height", {"name": "x"}, {"v": 1.5}, 0.01, {"r": 2.0}, "0.1.0")
        back = RunReport.from_json(rep.to_json())
        assert back == rep

    def test_errors_give_exit_2(self, capsys):
        rc = main(["analyze", "--name", "nope"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["layers", "--name", "sta2"],
        ["design", "--name", "sta2"],
        ["analyze"],
        ["fully-critical", "--gram", "DIAG12", "--fast-paper-bound"],
        ["probe-conjecture"],
    ])
    def test_exit_2_with_one_error_line(self, argv, diag12_file, capsys):
        rc = main([diag12_file if a == "DIAG12" else a for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "error: error" not in lines[0]
