"""Command-line interface.

Subcommands: analyze, layers, design, fully-critical, height, stationarity,
tables, probe-conjecture.  Exit codes: 0 success, 1 definitive failure
(a refuted design property or a conjecture counterexample candidate),
2 inconclusive outcomes and errors.  Each subcommand returns its input,
its outcome, its text and its exit code; ``main`` times the call and
prints the text, or the RunReport envelope under --format json, and flushes.

Certification (fully-critical, tables, probe-conjecture) speaks only
through its reports: an exhausted enumeration budget is an inconclusive
verdict (exit 2) with its note on stdout, never a message on stderr.  ``main``
maps every library exception it can meet to exit 2 with a one-line message
on stderr: an exhausted budget of ``layers`` or ``design``, which enumerate
exactly the range asked for, or of a ``height`` walk (EnumerationBudgetError,
prefixed "inconclusive:"), a height whose tail majorant misses its tolerance
at the radius chosen from the fixed radius grid (TruncationError), a broken
design inequality (DesignComputationError), arithmetic failures
(ArithmeticError) and bad input, usage or output (ValueError, KeyError,
OSError; a stdout closed early, as by ``| head -1``, is a BrokenPipeError).
That line is written best effort, so a closed stderr exits 2 as well.
Exit 1 therefore always means a definitive refutation; ``tables`` exits 1
only when some row is a failure, and 2 when a row is inconclusive.

Text output for certification runs mirrors the reference transcript style
("150 = 150, 2-DESIGN on the layer (x,x)=3") so diffs against it are
trivial; a run of more than ``_EMPTY_RUN`` empty layers is one line
("the layers (x,x)=3..412 are empty"), so a range of 10^9 norms writes as
many lines as it has nonempty layers.  --format json emits a reparsable
RunReport instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .catalog import INCOMPLETE_DIMS, load_catalog, reproduce_tables
from .certify import (
    VERDICT_CRITICAL,
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    SIDE_LEVEL_DUAL,
    FullyCriticalReport,
    _certify,
    fully_critical,
)
from .design import DesignComputationError, two_design_verdict
from .gram import GramMatrix, LatticeDescriptor, determinant, is_even, level, double, load_gram
from .height import TruncationError, height
from .shells import (
    DEFAULT_MAX_VECTORS,
    EnumerationBudgetError,
    cardinality_vector,
    dump_spectrum,
    enumerate_layers,
    layer_moments,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
# a run of more empty layers than this is one transcript line; the catalogue's longest run is 13
_EMPTY_RUN = 16


@dataclass
class RunReport:
    """Envelope around one command execution; JSON round-trips exactly."""

    command: str
    input: dict
    outcome: dict
    wall_time_s: float
    version: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _resolve_input(args) -> LatticeDescriptor:
    if getattr(args, "name", None):
        return load_catalog().by_name(args.name)
    if getattr(args, "gram", None):
        g = load_gram(args.gram)
        return LatticeDescriptor(gram=g, name=g.name or args.gram)
    raise ValueError("supply --name CATALOG_NAME or --gram FILE")


def _input_dict(desc: LatticeDescriptor) -> dict:
    return {
        "name": desc.name,
        "n": desc.gram.n,
        "gram": [[str(v) for v in row] for row in desc.gram.entries],
    }


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (input, outcome, text, exit code)


def _cmd_analyze(args):
    desc = _resolve_input(args)
    Q = desc.gram
    det = determinant(Q)
    even = is_even(Q)
    info = {
        "n": Q.n,
        "determinant": str(det),
        "integral": Q.is_integral,
        "even": even,
    }
    if Q.is_integral:
        info["level_of_even_form"] = level(Q if even else double(Q))
        info["doubled_for_level"] = not even
    # the minimum is at most every Q_ii, so the least one bounds it
    layers = enumerate_layers(Q, min(Q.entries[i][i] for i in range(Q.n)))
    if layers:
        m, X = next(iter(layers.items()))
        info["min_norm"] = str(m)
        info["kissing_number"] = len(X)
    lines = [f"{desc.name or 'input'}: dimension {Q.n}, determinant {info['determinant']}"]
    lines.append(f"integral: {info['integral']}, even: {info['even']}")
    if "level_of_even_form" in info:
        which = "2Q" if info["doubled_for_level"] else "Q"
        lines.append(f"level of the even form {which}: {info['level_of_even_form']}")
    if "min_norm" in info:
        lines.append(f"minimum {info['min_norm']}, kissing number {info['kissing_number']}")
    return _input_dict(desc), info, "\n".join(lines), EXIT_OK


def _cmd_layers(args):
    desc = _resolve_input(args)
    if args.bound is None:
        raise ValueError("layers requires --bound B")
    layers = enumerate_layers(desc.gram, Fraction(args.bound), max_vectors=args.max_vectors)
    outcome = {"bound": args.bound,
               "layers": [[str(m), len(X)] for m, X in layers.items()]}
    if desc.gram.is_integral:  # every norm of an integral form is an integer
        cards = cardinality_vector(layers, int(Fraction(args.bound)))
        outcome["cardinality_vector"] = cards
        outcome["pair_vector"] = [c // 2 for c in cards]
    if args.dump_layers:
        with open(args.dump_layers, "w", encoding="utf-8") as fh:
            fh.write(dump_spectrum(layers))
    lines = [f"layers of {desc.name or 'input'} up to Q[x] <= {args.bound}:"]
    for m, X in layers.items():
        lines.append(f"  (x,x)={m}: {len(X)} vectors ({len(X) // 2} antipodal pairs)")
    return _input_dict(desc), outcome, "\n".join(lines), EXIT_OK


def _cmd_design(args):
    desc = _resolve_input(args)
    if args.layer_norm is None:
        raise ValueError("design requires --layer-norm M")
    m = Fraction(args.layer_norm)
    layer = layer_moments(desc.gram, m, max_vectors=args.max_vectors).get(m)
    if layer is None:
        return (_input_dict(desc), {"layer_norm": str(m), "empty": True},
                f"the layer (x,x)={m} is empty", EXIT_OK)
    card, S = layer
    verdict = two_design_verdict(m, card, S, desc.gram)
    if verdict.is_design:
        text = f"{verdict.lhs} = {verdict.rhs}, 2-DESIGN on the layer (x,x)={m}"
    else:
        text = (f"{verdict.lhs} != {verdict.rhs}, "
                f"NOT a 2-design on the layer (x,x)={m} -- FAILURE")
    return (_input_dict(desc), verdict.to_dict(), text,
            EXIT_OK if verdict.is_design else EXIT_FAILURE)


def _layer_line(v) -> str:
    tag = "2-DESIGN" if v.is_design else "NOT a 2-design"
    rel = "=" if v.is_design else "!="
    return f"{v.lhs} {rel} {v.rhs}, {tag} on the layer (x,x)={v.norm}"


def _transcript(report: FullyCriticalReport) -> str:
    lines = [
        f"{report.input.name or 'input'}: {report.group} ({report.cusps} cusps) with "
        f"character D = {report.character_D}, weight {report.weight}, bound B = {report.bound_B}, "
        f"horizon B = {report.horizon_B}, "
        f"{report.layers_tested} nonempty layers tested"
        + (" (vacuous)" if report.vacuous else "")
        + (" (doubled)" if report.doubled else "")
        + (" (A1-augmented horizon)" if report.augmented_with_A1 else "")
    ]
    if report.tested == SIDE_LEVEL_DUAL:
        lines.append("the layers tested are those of the level dual N W^-1 of the even form "
                     "W, the sparser side; by theta duality they are all 2-designs exactly "
                     "when the input's are")
    upto = report.certified_upto
    if upto is not None and upto.denominator == 1 and report.input.gram.is_integral:
        by_norm = {int(v.norm): v for v in report.per_layer
                   if v.norm.denominator == 1 and 1 <= v.norm <= upto}
        k = 1  # every integer norm from 1 to upto is written, each empty run up to _EMPTY_RUN long
        for m in [*sorted(by_norm), int(upto) + 1]:
            if m - k > _EMPTY_RUN:
                lines.append(f"the layers (x,x)={k}..{m - 1} are empty")
            else:
                lines += [f"the layer (x,x)={j} is empty" for j in range(k, m)]
            if m in by_norm:
                lines.append(_layer_line(by_norm[m]))
            k = m + 1
    else:
        lines += [_layer_line(v) for v in report.per_layer]
    if report.verdict == VERDICT_CRITICAL:
        lines.append("RESULT: fully critical (2-designs on every layer)")
    elif report.verdict == VERDICT_FAILURE:
        lines.append(f"RESULT: FAILURE at the layer (x,x)={report.failure_norm}")
    else:
        lines.append(f"RESULT: inconclusive ({report.note})")
    return "\n".join(lines)


def _cmd_fully_critical(args):
    desc = _resolve_input(args)
    rep = fully_critical(desc, args.bound, max_vectors=args.max_vectors)
    code = {VERDICT_CRITICAL: EXIT_OK, VERDICT_FAILURE: EXIT_FAILURE}.get(
        rep.verdict, EXIT_INCONCLUSIVE)
    text = _transcript(rep) if args.format == "text" else ""  # JSON carries the report alone
    return _input_dict(desc), rep.to_dict(), text, code


def _route_text(hrep) -> str:
    """One line naming the route of the height's gradient and, on the theorem route, its proof."""
    cert = hrep.certificate
    if cert is None:
        return "gradient route: numeric (summed over both walks)"
    return (f"gradient route: theorem (G = -(S_A/2) A^-1, certified on the {cert['tested']} "
            f"side: Gamma0({cert['level']}), weight {cert['weight']}, horizon B = "
            f"{cert['horizon_B']}, {cert['layers_tested']} nonempty layers tested)")


def _cmd_height(args):
    desc = _resolve_input(args)
    hrep = height(desc)
    text = (f"height({desc.name or 'input'} normalized to det 1) = {hrep.height!r}\n"
            f"F value {hrep.F_value!r}, constant {hrep.constant_C!r}\n"
            f"projected gradient residual {hrep.projected_residual:.3e}\n"
            f"{_route_text(hrep)}\n"
            f"truncation radius {hrep.truncation_radius:.4f}, "
            f"{hrep.half_vectors_form} + {hrep.half_vectors_dual} half-set vectors "
            f"(form + inverse), certified tail {hrep.tail_estimate:.3e}")
    return _input_dict(desc), hrep.to_dict(), text, EXIT_OK


def _cmd_stationarity(args):
    desc = _resolve_input(args)
    hrep = height(desc)
    res = hrep.projected_residual
    return (_input_dict(desc), {"projected_residual": res, "route": hrep.route},
            f"stationarity residual of {desc.name or 'input'} (normalized): {res:.6e}, "
            f"{hrep.route} route", EXIT_OK)


def _cmd_tables(args):
    dims = [int(d) for d in args.dims.split(",")] if args.dims else [2, 3, 4, 5, 6]
    rows, mism, failed = [], 0, 0
    lines = [f"{'name':9s} {'dim':3s} {'verdict':16s} {'expected':14s} "
             f"{'B':6s} {'N':4s} {'ok':2s}"]
    for rep in reproduce_tables(dims, max_vectors=args.max_vectors):
        e, n, ok = rep.input, rep.input.gram.n, rep.verdict == VERDICT_CRITICAL
        incomplete = n in INCOMPLETE_DIMS
        mism += not ok
        failed += rep.verdict == VERDICT_FAILURE
        rows.append({
            "name": e.name, "dim": n, "traditional_name": e.traditional_name,
            "verdict": rep.verdict_text, "expected": VERDICT_CRITICAL,
            "reference_N": e.reference_N, "tested": rep.tested, "bound_used": rep.bound_B,
            "horizon_B": rep.horizon_B, "cusps": rep.cusps,
            "certified_upto": str(rep.certified_upto), "note": rep.note,
            "matches": ok, "incomplete_dim": incomplete,
        })
        note = " [catalogue incomplete]" if incomplete else ""
        lines.append(f"{e.name:9s} {n:<3d} {rep.verdict_text:16s} {VERDICT_CRITICAL:14s} "
                     f"{rep.bound_B:<6d} {e.reference_N!s:4s} {'ok' if ok else 'XX'}{note}")
        if rep.note:
            lines.append(f"  {rep.note}; certified up to (x,x) <= {rep.certified_upto}")
    lines.append(f"{len(rows)} entries, {mism} mismatches")
    code = EXIT_FAILURE if failed else EXIT_INCONCLUSIVE if mism else EXIT_OK
    return {"dims": dims}, {"rows": rows, "mismatches": mism}, "\n".join(lines), code


def _random_integral_spd(dim: int, rng) -> GramMatrix:
    # unimodular congruence of a random positive diagonal: integral, SPD
    D = np.diag(rng.integers(1, 5, size=dim))
    U = np.eye(dim, dtype=np.int64)
    for _ in range(3 * dim):
        i, j = rng.integers(0, dim, size=2)
        if i == j:
            continue
        E = np.eye(dim, dtype=np.int64)
        E[i, j] = int(rng.integers(-2, 3))
        U = U @ E
    Q = U.T @ D @ U
    return GramMatrix(Q.tolist())


def _cmd_probe(args):
    jobs: list[LatticeDescriptor] = []
    if args.name:
        jobs.append(load_catalog().by_name(args.name))
    if args.gram:
        g = load_gram(args.gram)
        jobs.append(LatticeDescriptor(gram=g, name=g.name or args.gram))
    if args.all_catalog:
        jobs.extend(load_catalog().entries)
    if args.random:
        rng = np.random.default_rng(args.seed)
        dims = [int(d) for d in args.dims.split(",")] if args.dims else [2, 3, 4]
        for k in range(args.random):
            jobs.append(LatticeDescriptor(
                gram=_random_integral_spd(dims[k % len(dims)], rng),
                name=f"random-{k}"))
    if not jobs:
        raise ValueError("nothing to probe (use --name/--gram/--all-catalog/--random)")
    hits, rows, lines, inconclusive = [], [], [], False
    for desc in jobs:
        # the input's own layers, as conjecture_probe reads them
        rep = _certify(desc, args.bound, args.max_vectors, dualize=False)
        first_two = rep.first_two_designs
        rows.append({"name": desc.name, "first_two_designs": first_two,
                     "verdict": rep.verdict_text, "bound_B": rep.bound_B,
                     "horizon_B": rep.horizon_B, "cusps": rep.cusps})
        lines.append(f"{desc.name}: first_two={first_two} verdict={rep.verdict_text}")
        if first_two and rep.verdict == VERDICT_FAILURE:
            hits.append(desc.name)
        inconclusive |= rep.verdict == VERDICT_INCONCLUSIVE
    if hits:
        lines.append("!!! COUNTEREXAMPLE CANDIDATE(S): first two layers are 2-designs "
                     f"but a later tested layer fails: {', '.join(hits)}")
    else:
        lines.append("no counterexample candidates")
    code = EXIT_FAILURE if hits else EXIT_INCONCLUSIVE if inconclusive else EXIT_OK
    return {"jobs": [d.name for d in jobs]}, {"rows": rows, "hits": hits}, "\n".join(lines), code


# ---------------------------------------------------------------------------


def _add_input_flags(p):
    p.add_argument("--gram", help="Gram matrix file (JSON or plain text)")
    p.add_argument("--name", help="catalogue entry name (e.g. ste10a)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latcrit",
        description="2-design certification of lattice shells and torus height numerics",
    )
    ap.add_argument("--version", action="version", version=f"latcrit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            _add_input_flags(p)
        p.add_argument("--format", choices=["json", "text"], default="text")

    def budget(p):
        p.add_argument("--max-vectors", type=int, default=DEFAULT_MAX_VECTORS,
                       help="enumeration budget")

    p = sub.add_parser("analyze", help="structural summary of a form")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("layers", help="enumerate layers up to a norm bound")
    common(p)
    budget(p)
    p.add_argument("--bound", help="norm bound B (rational)")
    p.add_argument("--dump-layers", metavar="PATH", help="write the layer dump file")
    p.set_defaults(func=_cmd_layers)

    p = sub.add_parser("design", help="exact 2-design test of a single layer")
    common(p)
    budget(p)
    p.add_argument("--layer-norm", help="norm of the layer to test (rational)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("fully-critical", help="certify 2-designs on every layer")
    common(p)
    budget(p)
    p.add_argument("--bound", type=int, help="override the Gamma0 horizon B")
    p.set_defaults(func=_cmd_fully_critical)

    p = sub.add_parser("height", help="torus height of the determinant-1 form; the truncation "
                       "radius is chosen from proven tail majorants, and exit 2 reports a tail "
                       "that misses its tolerance; the gradient takes the theorem route "
                       "(-(S_A/2) A^-1) when the walk of an exact form's tested side "
                       "certifies every layer a 2-design, summed at F's own radius when the "
                       "walk there certifies it, and the numeric route (summed at the "
                       "gradient's radius) otherwise")
    common(p)
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("stationarity",
                       help="stationarity residual of the height: the projected gradient "
                            "residual of the height command's evaluation, with its gradient's "
                            "route (theorem: stationary by proof, at F's radius when the walk "
                            "there certifies it; numeric: summed, at the gradient's radius)")
    common(p)
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("tables", help="reproduce the catalogue classification")
    common(p, with_input=False)
    budget(p)
    p.add_argument("--dims", help="comma-separated dimensions (default 2,3,4,5,6)")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("probe-conjecture",
                       help="test: do 2-designs on the first two layers propagate?")
    common(p)
    budget(p)
    p.add_argument("--all-catalog", action="store_true")
    p.add_argument("--random", type=int, default=0, metavar="K",
                   help="also probe K random integral SPD forms")
    p.add_argument("--dims", help="dimensions for random forms (default 2,3,4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int,
                   help="override the Gamma0 horizon B of each probed form")
    p.set_defaults(func=_cmd_probe)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        inp, outcome, text, code = args.func(args)
        if args.format == "json":
            text = RunReport(args.command, inp, outcome, time.time() - t0, __version__).to_json()
        print(text, flush=True)
    except EnumerationBudgetError as exc:
        _error_line(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    except (TruncationError, DesignComputationError, ArithmeticError,
            ValueError, KeyError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed: flush to devnull at exit
            _to_devnull(sys.stdout)
        _error_line(f"error: {exc}")
        return EXIT_INCONCLUSIVE
    return code


def _to_devnull(stream) -> None:
    """Point the descriptor of a closed stream at devnull, so that its flush at exit succeeds."""
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def _error_line(text: str) -> None:
    """Write the one error line to stderr, best effort: a closed stderr must not exit 1."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
