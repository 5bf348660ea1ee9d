import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import latcrit
from latcrit import GramMatrix, __version__, conjecture_probe, fully_critical, height, load_catalog
from latcrit.cli import RunReport, _random_integral_spd, main

from helpers import (box_vectors, gram_json, moment_identity_holds, pair_sum_bruteforce,
                     random_rational_spd)

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
        # the flag is gone: the default Gamma_0 horizon is at or below the reference N
        with pytest.raises(SystemExit) as exc:
            main(["fully-critical", "--name", "stc12", "--fast-paper-bound"])
        assert exc.value.code == 2
        capsys.readouterr()
        rc = main(["fully-critical", "--name", "stc12"])
        assert rc == 0
        assert "stc12: Gamma0(2) with character D = 4, weight 4, bound B = 1" in (
            capsys.readouterr().out)

    def test_vacuous_certificate_is_flagged(self, capsys):
        rc = main(["fully-critical", "--name", "ste27"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == (
            "ste27: Gamma0(3) with character D = -243, weight 5, bound B = 1, "
            "horizon B = 1, 0 nonempty layers tested (vacuous)")

    def test_budget_inconclusive_exit_code(self, capsys):
        rc = main(["fully-critical", "--name", "ste10a", "--bound", "60",
                   "--max-vectors", "3000"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "inconclusive" in out

    def test_below_the_horizon_exits_inconclusive(self, capsys):
        rc = main(["fully-critical", "--name", "ste15a", "--bound", "5", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 2
        assert rep.outcome["verdict"] == "inconclusive"
        assert (rep.outcome["bound_B"], rep.outcome["horizon_B"]) == (5, 15)
        assert rep.outcome["certified_upto"] == 10
        rc = main(["fully-critical", "--name", "ste15a"])
        assert rc == 0
        assert "bound B = 15, horizon B = 15, 14 nonempty layers tested" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exhausted_budget_is_a_report(self, fmt, capsys):
        # no bound >= 2 fits: the verdict is on stdout, nothing on stderr;
        # a negative budget is bad input, refused before any enumeration
        rc = main(["fully-critical", "--name", "sta2", "--max-vectors", "-5", "--format", fmt])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == "error: enumeration budget must be nonnegative, got -5\n"
        rc = main(["fully-critical", "--name", "sta2", "--max-vectors", "1", "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == ""
        if fmt == "text":
            assert captured.out.splitlines()[-1] == (
                "RESULT: inconclusive (enumeration budget 1 exceeded at (x,x)<=1; "
                "no bound >= 1 fits)")
            return
        out = RunReport.from_json(captured.out).outcome
        assert out["verdict"] == "inconclusive"
        assert (out["certified_upto"], out["layers_tested"], out["vacuous"]) == (0, 0, False)
        assert out["per_layer"] == [] and "no bound >= 1 fits" in out["note"]

    def test_json_format(self, capsys):
        rc = main(["fully-critical", "--name", "sta3", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        rep = RunReport.from_json(out)
        assert rep.command == "fully-critical"
        assert rep.outcome["verdict"] == "fully-critical"
        assert rep.outcome["level"] == 3
        assert rep.outcome["group"] == "Gamma0(3)" and rep.outcome["character_D"] == -3
        assert rep.outcome["layers_tested"] == 1 and rep.outcome["vacuous"] is False


class TestDesign:
    def test_counterexample(self, diag12_file, capsys):
        rc = main(["design", "--gram", diag12_file, "--layer-norm", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "4 != 2, NOT a 2-design" in out

    def test_design_layer(self, capsys):
        rc = main(["design", "--name", "sta3", "--layer-norm", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "72 = 72, 2-DESIGN on the layer (x,x)=2" in out

    def test_empty_layer(self, capsys):
        rc = main(["design", "--name", "sta3", "--layer-norm", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "empty" in out

    def test_rational_forms_against_bruteforce(self, tmp_path, capsys):
        # the layer's norm key comes from the LLL-reduced form, the verdict's
        # P = d Q from the input form; A2 / 4 adds layers that are 2-designs
        def enc(v):
            return int(v) if v.denominator == 1 else str(v)

        rng = np.random.default_rng(2026)
        forms = [random_rational_spd(n, rng) for n in (2, 3, 4, 2, 3)]
        forms.append(GramMatrix([["1/2", "1/4"], ["1/4", "1/2"]]))
        nonempty = refuted = 0
        for i, q in enumerate(forms):
            path = tmp_path / f"form{i}.json"
            path.write_text(gram_json(q), encoding="utf-8")
            for k in range(1, 25):
                m = Fraction(k, 4)
                rc = main(["design", "--gram", str(path), "--layer-norm", str(m),
                           "--format", "json"])
                out = RunReport.from_json(capsys.readouterr().out).outcome
                vecs = box_vectors(q, m)
                if not vecs:
                    assert (rc, out) == (0, {"layer_norm": str(m), "empty": True})
                    continue
                nonempty += 1
                design = moment_identity_holds(q, vecs)
                refuted += not design
                assert out == {"norm": enc(m), "t": 2,
                               "lhs": enc(pair_sum_bruteforce(vecs, q, 2)),
                               "rhs": enc(Fraction(len(vecs) ** 2, q.n) * m * m),
                               "is_design": design}
                assert rc == (0 if design else 1)
        assert nonempty > refuted > 0


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
        rc = main(argv + ["--max-vectors", "-5"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == "error: enumeration budget must be nonnegative, got -5\n"

    def test_json_vectors(self, capsys):
        rc = main(["layers", "--name", "sta2", "--bound", "5", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["cardinality_vector"] == [4, 4, 0, 4, 8]
        assert rep.outcome["pair_vector"] == [2, 2, 0, 2, 4]


class TestTables:
    def test_dim_4(self, capsys):
        rc = main(["tables", "--dims", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [l for l in out.splitlines() if l.startswith("stc")]
        assert len(rows) == 6
        assert all("fully-critical" in r for r in rows)

    def test_dims_2_3(self, capsys):
        rc = main(["tables", "--dims", "2,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 entries, 0 mismatches" in out

    def test_inconclusive_rows_exit_2(self, capsys):
        rc = main(["tables", "--dims", "4", "--max-vectors", "30"])
        out = capsys.readouterr().out
        assert rc == 2
        assert [l.split()[0] for l in out.splitlines() if "inconclusive" in l] == [
            "stc4", "stc10"]
        assert "failure" not in out
        # the note and certified_upto are both in the input's norms (stc4 is doubled)
        assert out.splitlines()[2] == ("  enumeration budget 30 exceeded at (x,x)<=2; "
                                       "certified range reduced; certified up to (x,x) <= 1")

    def test_exhausted_budget_rows_are_inconclusive(self, capsys):
        rc = main(["tables", "--dims", "2", "--max-vectors", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 2
        # each row is followed by its report's note
        assert [l.split()[:3] + l.split()[4:5] for l in lines[1:5:2]] == [
            ["sta2", "2", "inconclusive", "1"], ["sta3", "2", "inconclusive", "1"]]
        # in the input's norms: sta2 is doubled, sta3 is even
        assert lines[2:6:2] == [f"  enumeration budget 1 exceeded at (x,x)<={b}; "
                                f"no bound >= {b} fits; certified up to (x,x) <= 0"
                                for b in (1, 2)]
        assert lines[-1] == "2 entries, 2 mismatches"
        rc = main(["tables", "--dims", "2", "--max-vectors", "1", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 2
        assert [(r["verdict"], r["bound_used"], r["certified_upto"]) for r in rep.outcome["rows"]
                ] == [("inconclusive", 1, "0")] * 2
        assert [r["note"].rsplit("; ", 1)[1] for r in rep.outcome["rows"]] == [
            "no bound >= 1 fits", "no bound >= 2 fits"]
        assert all("error" not in r for r in rep.outcome["rows"])

    def test_rows_read_the_reports(self, capsys):
        assert main(["tables", "--dims", "3", "--format", "json"]) == 0
        rows = RunReport.from_json(capsys.readouterr().out).outcome["rows"]
        assert rows == [{
            "name": e.name, "dim": 3, "traditional_name": e.traditional_name,
            "verdict": "fully-critical", "expected": "fully-critical",
            "reference_N": e.reference_N, "bound_used": rep.bound_B,
            "certified_upto": str(rep.certified_upto), "note": "",
            "matches": True, "incomplete_dim": False,
        } for e in load_catalog().by_dim(3) for rep in [fully_critical(e)]]


class TestNumericCommands:
    def test_height_json(self, capsys):
        rc = main(["height", "--name", "sta3", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["height"] < 1.06
        assert rep.outcome["tail_estimate"] < 1e-12 * abs(rep.outcome["F_value"])
        assert rep.outcome == height(load_catalog().by_name("sta3")).to_dict()
        assert rep.outcome["half_vectors_form"] > 0 and rep.outcome["half_vectors_dual"] > 0
        assert rep.outcome["truncation_radius"] > 0

    def test_height_text_reports_radius_and_vectors(self, capsys):
        assert main(["height", "--name", "sta3"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("truncation radius 12.7324, 18 + 18 half-set vectors")

    def test_height_truncation_failure_exits_2(self, capsys, monkeypatch):
        # infinite a-priori tolerances make the first grid radius the chosen
        # one, where std5b's certified tail misses its real tolerance
        H = sys.modules["latcrit.height"]
        real = H._bounds
        monkeypatch.setattr(H, "_bounds", lambda *args: [(m, math.inf) for m, _ in real(*args)])
        rc = main(["height", "--name", "std5b"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: height: tail tolerance unattained") and err.count("\n") == 1
        with pytest.raises(SystemExit) as exc:  # the radius is not a height option
            main(["height", "--name", "sta2", "--radius", "4"])
        assert exc.value.code == 2

    def test_stationarity(self, capsys):
        rc = main(["stationarity", "--name", "stc12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stationarity residual" in out

    def test_stationarity_reads_the_height_report(self, capsys):
        e = load_catalog().by_name("std5b")
        assert main(["stationarity", "--name", "std5b", "--format", "json"]) == 0
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.outcome == {"projected_residual": height(e).projected_residual}

    def test_analyze(self, capsys):
        rc = main(["analyze", "--name", "ste10a", "--format", "json"])
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["determinant"] == "125"
        assert rep.outcome["even"] is False
        assert rep.outcome["level_of_even_form"] == 20
        assert rep.outcome["min_norm"] == "3"


    def test_analyze_enumerates_to_the_least_diagonal_entry(self, tmp_path, capsys, monkeypatch):
        # the minimum is at most every Q_ii: diag(1, 1, 1, 40000) walks to
        # norm 1, not to 40000, and std5b to 4, not to 5
        path = tmp_path / "skewed4.txt"
        path.write_text("4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 40000\n", encoding="utf-8")
        C = sys.modules["latcrit.cli"]
        real, bounds = C.enumerate_layers, []
        monkeypatch.setattr(C, "enumerate_layers",
                            lambda Q, bound, **kw: bounds.append(bound) or real(Q, bound, **kw))
        assert main(["analyze", "--gram", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "minimum 1, kissing number 6"
        assert main(["analyze", "--name", "std5b", "--format", "json"]) == 0
        rep = RunReport.from_json(capsys.readouterr().out)
        assert bounds == [1, 4]
        first = real(load_catalog().by_name("std5b").gram, 5).layers[0]  # the largest Q_ii
        assert rep.outcome["min_norm"] == str(first.norm) == "4"
        assert rep.outcome["kissing_number"] == first.cardinality


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
        rc = main(["fully-critical", "--name", "ste10a", "--bound", "60",
                   "--max-vectors", "200"])
        assert rc == 2
        assert "inconclusive" in capsys.readouterr().out

    def test_budget_error_row_is_inconclusive(self, capsys):
        # no bound >= 2 fits the budget: an inconclusive report, exit 2, no hit
        rc = main(["probe-conjecture", "--name", "sta2", "--max-vectors", "1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "sta2: first_two=None verdict=inconclusive" in out
        assert "no counterexample candidates" in out
        rc = main(["probe-conjecture", "--name", "sta2", "--max-vectors", "1", "--format", "json"])
        [row] = RunReport.from_json(capsys.readouterr().out).outcome["rows"]
        assert rc == 2
        # no layer was tested, so whether the first two are designs is unknown
        assert row == {"name": "sta2", "first_two_designs": None, "verdict": "inconclusive",
                       "bound_B": 1, "horizon_B": 1}

    def test_gram_input_is_probed_at_its_horizon(self, tmp_path, capsys):
        # a --gram copy has no reference N: the Gamma0(20) Sturm bound of
        # ste15a is 15; a --bound below it proves nothing beyond its layers
        path = tmp_path / "ste15a.json"
        path.write_text(gram_json(load_catalog().by_name("ste15a").gram), encoding="utf-8")
        for extra, B, code, verdict in (([], 15, 0, "fully-critical"),
                                        (["--bound", "4"], 4, 2, "inconclusive")):
            rc = main(["probe-conjecture", "--gram", str(path), "--format", "json"] + extra)
            [row] = RunReport.from_json(capsys.readouterr().out).outcome["rows"]
            assert rc == code
            assert (row["bound_B"], row["horizon_B"]) == (B, 15)
            assert row["verdict"] == verdict

    def test_rows_carry_conjecture_probes_pair(self, capsys):
        # the CLI reads first_two_designs from the same report as conjecture_probe
        cat = load_catalog()
        main(["probe-conjecture", "--all-catalog", "--format", "json"])
        rows = RunReport.from_json(capsys.readouterr().out).outcome["rows"]
        assert [r["name"] for r in rows] == [e.name for e in cat.entries]
        for e, row in zip(cat.entries, rows):
            assert row["first_two_designs"] == conjecture_probe(e)[0], e.name
        main(["probe-conjecture", "--random", "6", "--dims", "2,3,4", "--seed", "11",
              "--format", "json"])
        rows = RunReport.from_json(capsys.readouterr().out).outcome["rows"]
        rng = np.random.default_rng(11)
        forms = [_random_integral_spd(n, rng) for n in (2, 3, 4, 2, 3, 4)]
        assert len(rows) == len(forms)
        assert {r["first_two_designs"] for r in rows} == {True, False}
        for q, row in zip(forms, rows):
            assert row["first_two_designs"] == conjecture_probe(q)[0], row["name"]

    def test_random_forms(self, capsys):
        rc = main(["probe-conjecture", "--random", "5", "--dims", "2,3",
                   "--seed", "1", "--bound", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no counterexample candidates" in out


class TestRunReport:
    def test_round_trip(self):
        rep = RunReport("height", {"name": "x"}, {"v": 1.5}, 0.01, "0.1.0")
        back = RunReport.from_json(rep.to_json())
        assert back == rep
        assert list(json.loads(rep.to_json())) == [
            "command", "input", "outcome", "wall_time_s", "version"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--name", "sta3"],
        ["layers", "--name", "sta2", "--bound", "2"],
        ["design", "--name", "sta3", "--layer-norm", "2"],
        ["fully-critical", "--name", "sta3"],
        ["height", "--name", "sta2"],
        ["stationarity", "--name", "sta2"],
        ["tables", "--dims", "2"],
        ["probe-conjecture", "--name", "sta3"],
    ])
    def test_every_command_has_one_envelope(self, argv, capsys):
        # text and JSON runs share one exit code; the envelope names the command
        rc = main(argv)
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == rc == 0
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.command == argv[0] and rep.version == __version__
        assert rep.wall_time_s >= 0 and text.strip()

    def test_errors_give_exit_2(self, capsys):
        rc = main(["analyze", "--name", "nope"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write and flush raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedStdout:
    # exit 1 means a refutation, so a reader that stops early (| head -1)
    # is an error: exit 2 with one line on stderr and no traceback
    def test_in_process(self, monkeypatch, capsys):
        r, w = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedStdout(w))
            rc = main(["height", "--name", "sta2"])
            # the descriptor now writes to devnull, so the flush at exit is silent
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            os.close(r)
            os.close(w)
        assert rc == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["height", "--name", "sta2"], ["tables", "--dims", "2"]])
    def test_subprocess_with_closed_pipe(self, argv):
        # the pipe's read end is closed before the child starts, so its
        # first write meets EPIPE
        r, w = os.pipe()
        os.close(r)
        src = os.path.dirname(os.path.dirname(os.path.abspath(latcrit.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-m", "latcrit.cli", *argv], stdout=w,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(w)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "error: [Errno 32] Broken pipe\n"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["layers", "--name", "sta2"],
        ["design", "--name", "sta2"],
        ["analyze"],
        ["fully-critical", "--gram", "DIAG12", "--bound", "0"],
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

    @pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_json_entry(self, bad, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "gram": [[%s, 0], [0, 1]]}' % bad, encoding="utf-8")
        for cmd in (["analyze"], ["height"], ["fully-critical"]):
            rc = main(cmd + ["--gram", str(path)])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            [line] = captured.err.splitlines()
            assert line == f"error: cannot interpret {float(bad)!r} as an exact rational"
