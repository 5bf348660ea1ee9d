import dataclasses
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
from latcrit import (VERDICT_FAILURE, DesignVerdict, GramMatrix, __version__, conjecture_probe,
                     fully_critical, height, load_catalog, shells)
from latcrit.cli import _EMPTY_RUN, RunReport, _random_integral_spd, main

from helpers import (box_vectors, envelope, gram_json, moment_identity_holds, pair_sum_bruteforce,
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

    def test_transcript_collapses_long_empty_runs(self, tmp_path, capsys):
        # [[2, 1], [1, 100003]] fails at norm 2 with 929 layers tested up to
        # the horizon 412,752: one line per norm would be 412,754 lines.  A
        # run of more than _EMPTY_RUN empty layers is one line, so every norm
        # is still written and the lines stay a small multiple of the layers
        path = tmp_path / "long.txt"
        path.write_text("2\n2 1\n1 100003\n", encoding="utf-8")
        rc = main(["fully-critical", "--gram", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert "horizon B = 412752, 929 nonempty layers tested" in lines[0]
        assert "4 != 2, NOT a 2-design on the layer (x,x)=2" in lines
        assert lines[-1] == "RESULT: FAILURE at the layer (x,x)=2"
        assert len(lines) <= 3 * 929
        written = 0
        for line in lines[1:-1]:
            if line.startswith("the layers (x,x)="):
                a, b = map(int, line.split("=")[1].split(" ")[0].split(".."))
                assert b - a + 1 > _EMPTY_RUN
                written += b - a + 1
            else:
                written += 1
        assert written == 412752

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
        assert "stc12: Gamma0(2) (2 cusps) with character D = 4, weight 4, bound B = 1" in (
            capsys.readouterr().out)

    def test_vacuous_certificate_is_flagged(self, capsys):
        rc = main(["fully-critical", "--name", "ste27"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == (
            "ste27: Gamma0(3) (2 cusps) with character D = -243, weight 5, bound B = 1, "
            "horizon B = 1, 0 nonempty layers tested (vacuous)")

    def test_vacuous_dual_certificate_is_flagged(self, capsys):
        rc = main(["fully-critical", "--name", "ste36"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == ("ste36: Gamma0(3) (2 cusps) with character D = -243, weight 5, "
                            "bound B = 1, horizon B = 1, 0 nonempty layers tested (vacuous)")
        assert "level dual" in lines[1]

    @pytest.mark.parametrize("name, tested", [("stf28a", "level-dual"), ("stf8", "input")])
    def test_report_names_the_tested_side(self, name, tested, capsys):
        # stf28a and stf8 are each other's level duals: each walks stf8's side
        rc = main(["fully-critical", "--name", name, "--format", "json"])
        outcome = envelope(capsys.readouterr().out).outcome
        assert rc == 0
        assert (outcome["tested"], outcome["verdict"]) == (tested, "fully-critical")
        assert (outcome["level"], outcome["cusps"], outcome["bound_B"],
                outcome["layers_tested"]) == (16, 6, 9, 1)

    def test_budget_inconclusive_exit_code(self, capsys):
        rc = main(["fully-critical", "--name", "ste10a", "--bound", "60",
                   "--max-vectors", "3000"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "inconclusive" in out

    def test_below_the_horizon_exits_inconclusive(self, capsys):
        rc = main(["fully-critical", "--name", "ste15a", "--bound", "5", "--format", "json"])
        rep = envelope(capsys.readouterr().out)
        assert rc == 2
        assert rep.outcome["verdict"] == "inconclusive"
        assert (rep.outcome["bound_B"], rep.outcome["horizon_B"]) == (5, 12)
        assert rep.outcome["certified_upto"] == 10
        # at its horizon ste15a is certified on its sparser level dual
        rc = main(["fully-critical", "--name", "ste15a"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "(6 cusps)" in lines[0]
        assert "bound B = 12, horizon B = 12, 6 nonempty layers tested" in lines[0]
        assert lines[1].startswith("the layers tested are those of the level dual N W^-1")

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
        out = envelope(captured.out).outcome
        assert out["verdict"] == "inconclusive"
        assert (out["certified_upto"], out["layers_tested"], out["vacuous"]) == (0, 0, False)
        assert out["per_layer"] == [] and "no bound >= 1 fits" in out["note"]

    def test_json_format(self, capsys):
        rc = main(["fully-critical", "--name", "sta3", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        rep = envelope(out)
        assert rep.command == "fully-critical"
        assert rep.outcome["verdict"] == "fully-critical"
        assert rep.outcome["level"] == 3
        assert rep.outcome["group"] == "Gamma0(3)" and rep.outcome["character_D"] == -3
        assert rep.outcome["layers_tested"] == 1 and rep.outcome["vacuous"] is False

    def test_json_format_builds_no_transcript(self, capsys, monkeypatch):
        # the transcript is built only when it is printed: with it made to
        # raise, the JSON run exits 0 with the outcome it gives otherwise
        argv = ["fully-critical", "--name", "stf8", "--format", "json"]
        assert main(argv) == 0
        want = envelope(capsys.readouterr().out).outcome

        def refuse(report):
            raise AssertionError("transcript built under --format json")

        monkeypatch.setattr(sys.modules["latcrit.cli"], "_transcript", refuse)
        assert main(argv) == 0
        assert envelope(capsys.readouterr().out).outcome == want


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
                out = envelope(capsys.readouterr().out).outcome
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
        rep = envelope(capsys.readouterr().out)
        assert rc == 0
        assert rep.outcome["cardinality_vector"] == [4, 4, 0, 4, 8]
        assert rep.outcome["pair_vector"] == [2, 2, 0, 2, 4]

    def test_json_below_the_least_norm_is_empty(self, capsys):
        # A2's least norm is 2: below it the walk finds nothing, and no layer is reported
        rc = main(["layers", "--name", "sta3", "--bound", "1", "--format", "json"])
        out = envelope(capsys.readouterr().out).outcome
        assert (rc, out["layers"], out["cardinality_vector"]) == (0, [], [0])

    @pytest.mark.parametrize("inp", [["--name", "stc12"], ["--name", "ste10a"], "rational"])
    def test_json_and_dump_read_the_same_layers(self, inp, tmp_path, capsys):
        # the JSON layers are the dump's header lines, and pair_vector is
        # cardinality_vector halved (integral forms only)
        if inp == "rational":
            path = tmp_path / "rational.json"
            path.write_text('{"gram": [["2/3", "-1/3"], ["-1/3", "2/3"]]}', encoding="utf-8")
            inp = ["--gram", str(path)]
        dump = tmp_path / "layers.txt"
        rc = main(["layers", *inp, "--bound", "6", "--format", "json", "--dump-layers", str(dump)])
        out = envelope(capsys.readouterr().out).outcome
        assert rc == 0 and len(out["layers"]) >= 3
        lines, headers = dump.read_text().splitlines(), []
        while lines:
            m, c = lines[0].split()
            headers.append([m, int(c)])
            lines = lines[1 + int(c):]
        assert headers == out["layers"]
        if inp[0] == "--gram":
            assert "cardinality_vector" not in out and "pair_vector" not in out
        else:
            assert out["pair_vector"] == [c // 2 for c in out["cardinality_vector"]]
            assert sum(out["cardinality_vector"]) == sum(c for _, c in out["layers"])


class TestShearedZ2:
    # Z^2 in the basis (1, 0), (K, 1): small vectors have coordinates of
    # size K, and their moments and the huge ones themselves leave int64

    @pytest.fixture
    def shear(self, tmp_path):
        def write(K):
            path = tmp_path / f"shear{K}.txt"
            path.write_text(f"2\n1 {K}\n{K} {K * K + 1}\n", encoding="utf-8")
            return str(path)
        return write

    def test_certificate_and_probe(self, shear, capsys):
        path = shear(10**9)
        assert main(["fully-critical", "--gram", path, "--bound", "12"]) == 0
        assert "RESULT: fully critical" in capsys.readouterr().out
        assert main(["probe-conjecture", "--gram", path, "--bound", "12"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "no counterexample candidates"

    def test_design(self, shear, capsys):
        assert main(["design", "--gram", shear(25 * 10**8), "--layer-norm", "2"]) == 0
        assert "32 = 32, 2-DESIGN on the layer (x,x)=2" in capsys.readouterr().out

    def test_dumped_vectors_have_their_layer_norm(self, shear, tmp_path, capsys):
        K, dump = 25 * 10**8, tmp_path / "layers.txt"
        assert main(["layers", "--gram", shear(K), "--bound", "12",
                     "--dump-layers", str(dump)]) == 0
        lines, cards, big = iter(dump.read_text().splitlines()), {}, 0
        for header in lines:
            m, c = map(int, header.split())
            for _ in range(c):
                x, y = map(int, next(lines).split())
                assert x * x + 2 * K * x * y + (K * K + 1) * y * y == m
                big += abs(x) > 2**31
            cards[m] = c
        assert cards == {1: 4, 2: 4, 4: 4, 5: 8, 8: 4, 9: 4, 10: 8} and big

    def test_vectors_beyond_int64_exit_2(self, shear, tmp_path, capsys):
        dump = tmp_path / "layers.txt"
        rc = main(["layers", "--gram", shear(5 * 10**18), "--bound", "4",
                   "--dump-layers", str(dump)])
        captured = capsys.readouterr()
        assert (rc, captured.out, dump.exists()) == (2, "", False)
        [line] = captured.err.splitlines()
        assert line == "error: layer vectors up to Q[x] <= 4 leave int64"
        assert main(["fully-critical", "--gram", shear(5 * 10**18), "--bound", "6"]) == 0

    def test_reducing_transform_beyond_int64(self, shear, capsys):
        # K = 10^19 leaves int64 in LLL's transform itself, not only in the moments
        path = shear(10**19)
        assert main(["fully-critical", "--gram", path, "--bound", "6"]) == 0
        assert "RESULT: fully critical" in capsys.readouterr().out
        assert main(["probe-conjecture", "--gram", path, "--bound", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "no counterexample candidates"


class TestHugeReducedForm:
    # [[2, 1], [1, 10^30 + 7]] is LLL-reduced already, and its entry leaves
    # the int64 rows that the walk runs on: both commands name that cause

    @pytest.mark.parametrize("args", [["fully-critical"], ["layers", "--bound", "4"]],
                             ids=["fully-critical", "layers"])
    def test_refused_with_its_cause(self, args, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"gram": [[2, 1], [1, %d]]}' % (10**30 + 7), encoding="utf-8")
        rc = main([*args, "--gram", str(path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        [line] = captured.err.splitlines()
        assert line == ("error: cannot walk this form: its LLL-reduced integral form has an "
                        "entry beyond int64 (|entry| >= 2^63), and the walk runs on int64 rows")


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
        rc = main(["tables", "--dims", "7", "--max-vectors", "30"])
        out = capsys.readouterr().out
        assert rc == 2
        # stf28a, stf42 and stf63 are certified on their sparser level duals,
        # which fit the budget
        assert [l.split()[0] for l in out.splitlines() if "inconclusive" in l] == ["stf7a"]
        assert "failure" not in out
        # the note and certified_upto are both in the input's norms (stf7a is doubled)
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
        rep = envelope(capsys.readouterr().out)
        assert rc == 2
        assert [(r["verdict"], r["bound_used"], r["certified_upto"]) for r in rep.outcome["rows"]
                ] == [("inconclusive", 1, "0")] * 2
        assert [r["note"].rsplit("; ", 1)[1] for r in rep.outcome["rows"]] == [
            "no bound >= 1 fits", "no bound >= 2 fits"]
        assert all("error" not in r for r in rep.outcome["rows"])

    def test_rows_read_the_reports(self, capsys):
        assert main(["tables", "--dims", "3", "--format", "json"]) == 0
        rows = envelope(capsys.readouterr().out).outcome["rows"]
        assert rows == [{
            "name": e.name, "dim": 3, "traditional_name": e.traditional_name,
            "verdict": "fully-critical", "expected": "fully-critical",
            "reference_N": e.reference_N, "tested": rep.tested, "bound_used": rep.bound_B,
            "horizon_B": rep.horizon_B, "cusps": rep.cusps,
            "certified_upto": str(rep.certified_upto), "note": "",
            "matches": True, "incomplete_dim": False,
        } for e in load_catalog().by_dim(3) for rep in [fully_critical(e)]]

    def test_rows_name_the_side_tested(self, capsys):
        # a row names the lattice whose layers were tested: stf28a is
        # certified on its level dual, stf8 on its own layers, and the 14
        # dual-side rows are the entries whose level dual is sparser
        assert main(["tables", "--dims", "2,3,4,5,6,7", "--format", "json"]) == 0
        rows = {r["name"]: r for r in envelope(capsys.readouterr().out).outcome["rows"]}
        assert (rows["stf28a"]["tested"], rows["stf8"]["tested"]) == ("level-dual", "input")
        assert sorted(name for name, r in rows.items() if r["tested"] == "level-dual") == [
            "stb6", "stc10", "std15a", "std15b", "std20", "ste12a", "ste15a", "ste18a",
            "ste21a", "ste30", "ste36", "stf28a", "stf42", "stf63"]

    def test_rows_carry_the_cusps(self, capsys):
        # each row names the cusps of its group next to the horizon they
        # lower: ste10a is on Gamma0(20), stf28a's level dual on Gamma0(16)
        assert main(["tables", "--dims", "6,7", "--format", "json"]) == 0
        rows = {r["name"]: r for r in envelope(capsys.readouterr().out).outcome["rows"]}
        assert [(rows[name]["cusps"], rows[name]["horizon_B"], rows[name]["bound_used"])
                for name in ("ste10a", "stf28a")] == [(6, 12, 12), (6, 9, 9)]


class TestNumericCommands:
    def test_height_json(self, capsys):
        rc = main(["height", "--name", "sta3", "--format", "json"])
        rep = envelope(capsys.readouterr().out)
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
        # one, where stf7a's certified tail misses its real tolerance
        H = sys.modules["latcrit.height"]
        real, real_numeric = H._bounds, H._numeric_bound
        monkeypatch.setattr(H, "_bounds", lambda *args: [(m, math.inf) for m, _ in real(*args)])
        monkeypatch.setattr(H, "_numeric_bound", lambda sides: (real_numeric(sides)[0], math.inf))
        rc = main(["height", "--name", "stf7a"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: height: tail tolerance unattained") and err.count("\n") == 1
        with pytest.raises(SystemExit) as exc:  # the radius is not a height option
            main(["height", "--name", "sta2", "--radius", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd", ["height", "stationarity"])
    def test_walk_beyond_the_budget_exits_2(self, cmd, capsys, monkeypatch):
        monkeypatch.setattr(shells, "DEFAULT_MAX_VECTORS", 1_000)
        rc = main([cmd, "--name", "stf28a"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("inconclusive: enumeration budget exceeded: ")
        assert "(budget 1000)" in line

    def test_height_and_stationarity_name_the_route(self, capsys, tmp_path):
        # stc12 is certified from the height's own walks (input side, level 2,
        # horizon 1, one layer), diag(1, 2) is not: one text line each, and
        # the route in both commands' JSON
        diag12 = tmp_path / "diag12.txt"
        diag12.write_text("2\n1 0\n0 2\n")
        for args, route in ((["--name", "stc12"], "theorem"), (["--gram", str(diag12)], "numeric")):
            assert main(["height", *args]) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if "gradient route" in l]
            assert len(lines) == 1 and lines[0].startswith(f"gradient route: {route}")
            assert main(["height", *args, "--format", "json"]) == 0
            outcome = envelope(capsys.readouterr().out).outcome
            assert outcome["route"] == route
            assert main(["stationarity", *args, "--format", "json"]) == 0
            assert envelope(capsys.readouterr().out).outcome["route"] == route
            assert main(["stationarity", *args]) == 0
            assert capsys.readouterr().out.rstrip().endswith(f"{route} route")
        assert main(["height", "--name", "stc12", "--format", "json"]) == 0
        assert envelope(capsys.readouterr().out).outcome["certificate"] == {
            "tested": "input", "level": 2, "weight": 4, "horizon_B": 1, "layers_tested": 1}
        assert main(["height", "--name", "stc12"]) == 0
        assert ("gradient route: theorem (G = -(S_A/2) A^-1, certified on the input side: "
                "Gamma0(2), weight 4, horizon B = 1, 1 nonempty layers tested)"
                in capsys.readouterr().out)

    def test_stationarity(self, capsys):
        rc = main(["stationarity", "--name", "stc12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stationarity residual" in out

    def test_stationarity_reads_the_height_report(self, capsys):
        e = load_catalog().by_name("std5b")
        assert main(["stationarity", "--name", "std5b", "--format", "json"]) == 0
        rep = envelope(capsys.readouterr().out)
        h = height(e)
        assert rep.outcome == {"projected_residual": h.projected_residual, "route": h.route}
        assert h.route == "theorem"

    def test_analyze(self, capsys):
        rc = main(["analyze", "--name", "ste10a", "--format", "json"])
        rep = envelope(capsys.readouterr().out)
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
        rep = envelope(capsys.readouterr().out)
        assert bounds == [1, 4]
        m, X = next(iter(real(load_catalog().by_name("std5b").gram, 5).items()))  # the largest Q_ii
        assert rep.outcome["min_norm"] == str(m) == "4"
        assert rep.outcome["kissing_number"] == len(X)


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
        [row] = envelope(capsys.readouterr().out).outcome["rows"]
        assert rc == 2
        # no layer was tested, so whether the first two are designs is unknown
        assert row == {"name": "sta2", "first_two_designs": None, "verdict": "inconclusive",
                       "bound_B": 1, "horizon_B": 1, "cusps": 3}

    def test_rows_carry_the_cusps(self, capsys):
        # ste10a is on Gamma0(20), stf28a (A7) on Gamma0(16): six cusps each
        for name, B in (("ste10a", 12), ("stf28a", 9)):
            assert main(["probe-conjecture", "--name", name, "--format", "json"]) == 0
            [row] = envelope(capsys.readouterr().out).outcome["rows"]
            assert (row["cusps"], row["horizon_B"], row["bound_B"]) == (6, B, B)

    def test_gram_input_is_probed_at_its_horizon(self, tmp_path, capsys):
        # a --gram copy has no reference N: the Gamma0(20) horizon of ste15a
        # is 12; a --bound below it proves nothing beyond its layers
        path = tmp_path / "ste15a.json"
        path.write_text(gram_json(load_catalog().by_name("ste15a").gram), encoding="utf-8")
        for extra, B, code, verdict in (([], 12, 0, "fully-critical"),
                                        (["--bound", "11"], 11, 2, "inconclusive")):
            rc = main(["probe-conjecture", "--gram", str(path), "--format", "json"] + extra)
            [row] = envelope(capsys.readouterr().out).outcome["rows"]
            assert rc == code
            assert (row["bound_B"], row["horizon_B"], row["cusps"]) == (B, 12, 6)
            assert row["verdict"] == verdict

    def test_rows_carry_conjecture_probes_pair(self, capsys):
        # the CLI reads first_two_designs from the same report as conjecture_probe
        cat = load_catalog()
        main(["probe-conjecture", "--all-catalog", "--format", "json"])
        rows = envelope(capsys.readouterr().out).outcome["rows"]
        assert [r["name"] for r in rows] == [e.name for e in cat.entries]
        for e, row in zip(cat.entries, rows):
            assert row["first_two_designs"] == conjecture_probe(e)[0], e.name
        main(["probe-conjecture", "--random", "6", "--dims", "2,3,4", "--seed", "11",
              "--format", "json"])
        rows = envelope(capsys.readouterr().out).outcome["rows"]
        rng = np.random.default_rng(11)
        forms = [_random_integral_spd(n, rng) for n in (2, 3, 4, 2, 3, 4)]
        assert len(rows) == len(forms)
        assert {r["first_two_designs"] for r in rows} == {True, False}
        for q, row in zip(forms, rows):
            assert row["first_two_designs"] == conjecture_probe(q)[0], row["name"]

    def test_all_catalog_rows_read_the_inputs_own_layers(self, capsys, monkeypatch):
        # with no --bound, every row is the input's own certificate at its own
        # horizon, never its level dual's: the rows before the duality route
        C = sys.modules["latcrit.certify"]
        real, walked = C.layer_moments, []
        monkeypatch.setattr(C, "layer_moments",
                            lambda Q, bound, **kw: walked.append(Q) or real(Q, bound, **kw))
        # (horizon, cusps) of each entry's own group
        B = dict(sta2=(1, 3), sta3=(1, 2), stb3=(1, 3), stb4=(2, 4), stb6=(2, 4), stc4=(1, 3),
                 stc5=(1, 2), stc6=(1, 2), stc9=(2, 4), stc10=(1, 2), stc12=(1, 2),
                 std5a=(1, 3), std5b=(3, 4), std6=(7, 6), std10=(7, 6), std15a=(7, 6),
                 std15b=(7, 6), std20=(3, 4), ste6a=(1, 3), ste6c=(1, 3), ste7=(2, 2),
                 ste8=(3, 4), ste9=(1, 2), ste10a=(12, 6), ste12a=(3, 4), ste12b=(12, 6),
                 ste12c=(7, 6), ste15a=(12, 6), ste16=(7, 6), ste18a=(7, 6), ste21a=(2, 2),
                 ste21b=(2, 2), ste27=(1, 2), ste30=(1, 3), ste36=(1, 2), stf7a=(2, 3),
                 stf7d=(4, 4), stf8=(9, 6), stf28a=(9, 6), stf28b=(2, 3), stf42=(4, 4),
                 stf63=(2, 3))
        rc = main(["probe-conjecture", "--all-catalog", "--format", "json"])
        rows = envelope(capsys.readouterr().out).outcome["rows"]
        assert rc == 0
        assert rows == [{"name": name, "first_two_designs": True, "verdict": "fully-critical",
                         "bound_B": b, "horizon_B": b, "cusps": c}
                        for name, (b, c) in B.items()]
        entries = load_catalog().entries
        assert walked == [e.gram for e in entries]

    def test_counterexample_candidate_exits_1(self, capsys, monkeypatch):
        # no form is known to reach this branch: sta3's report, given two
        # 2-design layers and a third that fails, stands in for one
        cli = sys.modules["latcrit.cli"]
        real = cli._certify

        def candidate(desc, bound, max_vectors, *, dualize):
            rep = real(desc, bound, max_vectors, dualize=dualize)
            layers = tuple(DesignVerdict(norm=Fraction(m), lhs=Fraction(m + (m == 3)),
                                         rhs=Fraction(m), is_design=m < 3) for m in (1, 2, 3))
            return dataclasses.replace(rep, per_layer=layers, verdict=VERDICT_FAILURE,
                                       failure_norm=Fraction(3))

        monkeypatch.setattr(cli, "_certify", candidate)
        rc = main(["probe-conjecture", "--name", "sta3"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines == ["sta3: first_two=True verdict=failure-at(3)",
                         "!!! COUNTEREXAMPLE CANDIDATE(S): first two layers are 2-designs "
                         "but a later tested layer fails: sta3"]
        rc = main(["probe-conjecture", "--name", "sta3", "--format", "json"])
        outcome = envelope(capsys.readouterr().out).outcome
        assert rc == 1
        assert outcome["hits"] == ["sta3"]
        assert [(r["first_two_designs"], r["verdict"]) for r in outcome["rows"]] == [
            (True, "failure-at(3)")]

    def test_random_forms(self, capsys):
        rc = main(["probe-conjecture", "--random", "5", "--dims", "2,3",
                   "--seed", "1", "--bound", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no counterexample candidates" in out


class TestRunReport:
    def test_round_trip(self):
        rep = RunReport("height", {"name": "x"}, {"v": 1.5}, 0.01, "0.1.0")
        back = envelope(rep.to_json())
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
        rep = envelope(capsys.readouterr().out)
        assert rep.command == argv[0] and rep.version == __version__
        assert rep.wall_time_s >= 0 and text.strip()

    def test_errors_give_exit_2(self, capsys):
        rc = main(["analyze", "--name", "nope"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class _ClosedPipe(io.TextIOBase):
    """A stream whose reader has gone: every write and flush raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _child(argv) -> dict:
    """Popen arguments of ``python -m latcrit.cli`` in a child that imports this latcrit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latcrit.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return {"args": [sys.executable, "-m", "latcrit.cli", *argv], "env": env}


def _run_cli(argv, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(**_child(argv), timeout=120, **kw)


class TestClosedStdout:
    # exit 1 means a refutation, so a reader that stops early (| head -1)
    # is an error: exit 2 with one line on stderr and no traceback; the
    # line is best effort, so a closed stderr exits 2 as well
    def test_in_process(self, monkeypatch, capsys):
        r, w = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(w))
            rc = main(["height", "--name", "sta2"])
            # the descriptor now writes to devnull, so the flush at exit is silent
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
        finally:
            os.close(r)
            os.close(w)
        assert rc == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["height", "--name", "sta2"],
                                      ["layers", "--name", "sta3", "--bound", "0"]])
    def test_in_process_with_stderr_closed(self, argv, monkeypatch):
        r, w = os.pipe()
        e_r, e_w = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(w))
            monkeypatch.setattr(sys, "stderr", _ClosedPipe(e_w))
            rc = main(argv)
            assert os.path.samestat(os.fstat(e_w), os.stat(os.devnull))
        finally:
            for fd in (r, w, e_r, e_w):
                os.close(fd)
        assert rc == 2

    @pytest.mark.parametrize("argv", [["height", "--name", "sta2"], ["tables", "--dims", "2"]])
    def test_subprocess_with_closed_pipe(self, argv):
        # the pipe's read end is closed before the child starts, so its
        # first write meets EPIPE
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _run_cli(argv, stdout=w, stderr=subprocess.PIPE)
        finally:
            os.close(w)
        err = proc.stderr.decode()
        assert proc.returncode == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [["height", "--name", "sta2"], ["tables", "--dims", "2"],
                                      ["layers", "--name", "sta3", "--bound", "0"]])
    def test_subprocess_with_stdout_and_stderr_on_one_closed_pipe(self, argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _run_cli(argv, stdout=w, stderr=w)
        finally:
            os.close(w)
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv", [["layers", "--name", "sta3", "--bound", "0"],
                                      ["design", "--name", "stf28a", "--layer-norm", "40",
                                       "--max-vectors", "10"]])
    def test_subprocess_with_stderr_closed(self, argv):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _run_cli(argv, stdout=subprocess.PIPE, stderr=w)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_reader_that_stops_after_one_line(self):
        # latcrit tables 2>&1 | head -1: the pipe closes while the child
        # writes, so exit 0 (all written first) and exit 2 are both correct
        r, w = os.pipe()
        with subprocess.Popen(**_child(["tables", "--dims", "2,3"]), stdout=w, stderr=w) as proc:
            os.close(w)
            with os.fdopen(r, "rb") as reader:
                assert reader.readline().startswith(b"name")
            assert proc.wait(timeout=120) in (0, 2)


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

    @pytest.mark.parametrize("text, message", [
        ("", "error: empty input"),
        (" \n\n", "error: empty input"),
        ("2\n1 0\n0\n", "error: expected 4 entries, got 3"),
        ("2\n1 0\n0 1 5\n", "error: expected 4 entries, got 5"),
    ])
    def test_plain_text_input_checks(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        rc = main(["analyze", "--gram", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_fully_critical_bound_is_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fully-critical", "--name", "sta2", "--bound", "1.5"])
        assert exc.value.code == 2
        assert "argument --bound: invalid int value: '1.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("gram", ["5", "[1, 2]", '["2"]'])
    def test_json_rows_that_are_not_sequences(self, gram, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"gram": %s}' % gram, encoding="utf-8")
        for cmd in (["analyze"], ["height"], ["fully-critical"], ["probe-conjecture"]):
            rc = main(cmd + ["--gram", str(path)])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            [line] = captured.err.splitlines()
            assert line == "error: entries must be a sequence of rows of rationals"

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
