"""Command-line interface.

Subcommands: analyze, layers, design, fully-critical, height, stationarity,
tables, probe-conjecture.  Exit codes: 0 success, 1 definitive failure
(a refuted design property or a conjecture counterexample candidate),
2 inconclusive outcomes and errors.  ``main`` maps every library exception
it can meet to exit 2 with a one-line message on stderr: an exhausted
enumeration budget (EnumerationBudgetError, prefixed "inconclusive:"), a
height truncation that cannot be certified (TruncationError), a broken
design inequality (DesignComputationError), arithmetic failures
(ArithmeticError) and bad input or usage (ValueError, KeyError, OSError).
Exit 1 therefore always means a definitive refutation; ``tables`` exits 1
only when some row is a failure, and 2 when a row is inconclusive or an
error.

Text output for certification runs mirrors the reference transcript style
("150 = 150, 2-DESIGN on the layer (x,x)=3") so diffs against it are
trivial; --format json emits a reparsable RunReport instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .catalog import load_catalog, reproduce_tables
from .certify import (
    VERDICT_CRITICAL,
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    FullyCriticalReport,
    fully_critical,
)
from .design import DesignComputationError, is_t_design
from .gram import GramMatrix, LatticeDescriptor, determinant, is_even, level, double, load_gram
from .height import DEFAULT_CUTOFF, TruncationError, height, stationarity_residual
from .shells import (
    DEFAULT_MAX_VECTORS,
    EnumerationBudgetError,
    cardinality_vector,
    dump_spectrum,
    enumerate_layers,
    layer_cardinalities,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2


@dataclass
class RunReport:
    """Envelope around one command execution; JSON round-trips exactly."""

    command: str
    input: dict
    outcome: dict
    wall_time_s: float
    truncation: dict
    version: str

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "input": self.input,
            "outcome": self.outcome,
            "wall_time_s": self.wall_time_s,
            "truncation": self.truncation,
            "version": self.version,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        obj = json.loads(text)
        return RunReport(
            command=obj["command"], input=obj["input"], outcome=obj["outcome"],
            wall_time_s=obj["wall_time_s"], truncation=obj["truncation"],
            version=obj["version"],
        )


def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


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
        "gram": [[_frac_str(v) for v in row] for row in desc.gram.entries],
    }


def _emit(args, report: RunReport, text: str):
    if args.format == "json":
        print(report.to_json())
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_analyze(args) -> int:
    desc = _resolve_input(args)
    Q = desc.gram
    t0 = time.time()
    det = determinant(Q)
    even = is_even(Q)
    info = {
        "n": Q.n,
        "determinant": _frac_str(det),
        "integral": Q.is_integral,
        "even": even,
    }
    if Q.is_integral:
        info["level_of_even_form"] = level(Q if even else double(Q))
        info["doubled_for_level"] = not even
    spec = enumerate_layers(Q, max(Q.entries[i][i] for i in range(Q.n)))
    if spec.layers:
        info["min_norm"] = _frac_str(spec.layers[0].norm)
        info["kissing_number"] = spec.layers[0].cardinality
    rep = RunReport("analyze", _input_dict(desc), info, time.time() - t0, {}, __version__)
    lines = [f"{desc.name or 'input'}: dimension {Q.n}, determinant {info['determinant']}"]
    lines.append(f"integral: {info['integral']}, even: {info['even']}")
    if "level_of_even_form" in info:
        which = "2Q" if info["doubled_for_level"] else "Q"
        lines.append(f"level of the even form {which}: {info['level_of_even_form']}")
    if "min_norm" in info:
        lines.append(f"minimum {info['min_norm']}, kissing number {info['kissing_number']}")
    _emit(args, rep, "\n".join(lines))
    return EXIT_OK


def _cmd_layers(args) -> int:
    desc = _resolve_input(args)
    if args.bound is None:
        raise ValueError("layers requires --bound B")
    t0 = time.time()
    spec = enumerate_layers(desc.gram, Fraction(args.bound), max_vectors=args.max_vectors)
    cards = layer_cardinalities(spec)
    outcome = {"bound": args.bound,
               "layers": [[_frac_str(m), c] for m, c in cards]}
    if desc.gram.is_integral and all(m.denominator == 1 for m, _ in cards):
        upto = int(Fraction(args.bound))
        outcome["cardinality_vector"] = cardinality_vector(spec, upto)
        outcome["pair_vector"] = cardinality_vector(spec, upto, antipodal_pairs=True)
    if args.dump_layers:
        with open(args.dump_layers, "w", encoding="utf-8") as fh:
            fh.write(dump_spectrum(spec))
    rep = RunReport("layers", _input_dict(desc), outcome, time.time() - t0, {}, __version__)
    lines = [f"layers of {desc.name or 'input'} up to Q[x] <= {args.bound}:"]
    for m, c in cards:
        lines.append(f"  (x,x)={_frac_str(m)}: {c} vectors ({c // 2} antipodal pairs)")
    _emit(args, rep, "\n".join(lines))
    return EXIT_OK


def _cmd_design(args) -> int:
    desc = _resolve_input(args)
    if args.layer_norm is None:
        raise ValueError("design requires --layer-norm M")
    m = Fraction(args.layer_norm)
    t0 = time.time()
    spec = enumerate_layers(desc.gram, m, max_vectors=args.max_vectors)
    lay = spec.layer_at(m)
    if lay is None:
        rep = RunReport("design", _input_dict(desc),
                        {"layer_norm": str(m), "empty": True},
                        time.time() - t0, {}, __version__)
        _emit(args, rep, f"the layer (x,x)={_frac_str(m)} is empty")
        return EXIT_OK
    verdict = is_t_design(lay, args.t, desc.gram.n)
    rep = RunReport("design", _input_dict(desc), verdict.to_dict(),
                    time.time() - t0, {}, __version__)
    if verdict.is_design:
        text = (f"{_frac_str(verdict.lhs)} = {_frac_str(verdict.rhs)}, "
                f"{args.t}-DESIGN on the layer (x,x)={_frac_str(m)}")
        _emit(args, rep, text)
        return EXIT_OK
    text = (f"{_frac_str(verdict.lhs)} != {_frac_str(verdict.rhs)}, "
            f"NOT a {args.t}-design on the layer (x,x)={_frac_str(m)} -- FAILURE")
    _emit(args, rep, text)
    return EXIT_FAILURE


def _transcript(report: FullyCriticalReport) -> str:
    lines = [
        f"{report.input.name or 'input'}: level {report.level}, weight {report.weight}, "
        f"bound B = {report.bound_B}"
        + (" (doubled)" if report.doubled else "")
        + (" (A1-augmented horizon)" if report.augmented_with_A1 else "")
    ]
    by_norm = {v.norm: v for v in report.per_layer}
    upto = report.certified_upto
    if upto is not None and upto.denominator == 1 and report.input.gram.is_integral:
        for k in range(1, int(upto) + 1):
            v = by_norm.get(Fraction(k))
            if v is None:
                lines.append(f"the layer (x,x)={k} is empty")
            elif v.is_design:
                lines.append(f"{_frac_str(v.lhs)} = {_frac_str(v.rhs)}, "
                             f"2-DESIGN on the layer (x,x)={k}")
            else:
                lines.append(f"{_frac_str(v.lhs)} != {_frac_str(v.rhs)}, "
                             f"NOT a 2-design on the layer (x,x)={k}")
    else:
        for v in report.per_layer:
            tag = "2-DESIGN" if v.is_design else "NOT a 2-design"
            rel = "=" if v.is_design else "!="
            lines.append(f"{_frac_str(v.lhs)} {rel} {_frac_str(v.rhs)}, {tag} "
                         f"on the layer (x,x)={_frac_str(v.norm)}")
    if report.verdict == VERDICT_CRITICAL:
        lines.append("RESULT: fully critical (2-designs on every layer)")
    elif report.verdict == VERDICT_FAILURE:
        lines.append(f"RESULT: FAILURE at the layer (x,x)={_frac_str(report.failure_norm)}")
    else:
        lines.append(f"RESULT: inconclusive ({report.note})")
    return "\n".join(lines)


def _cmd_fully_critical(args) -> int:
    desc = _resolve_input(args)
    override = None
    if args.fast_paper_bound:
        if desc.reference_N is None:
            raise ValueError("--fast-paper-bound needs catalogue reference data")
        override = desc.reference_N
    if args.bound is not None:
        override = int(args.bound)
    t0 = time.time()
    rep = fully_critical(desc, override, max_vectors=args.max_vectors)
    run = RunReport("fully-critical", _input_dict(desc), rep.to_dict(),
                    time.time() - t0,
                    {"bound_B": rep.bound_B, "certified_upto": str(rep.certified_upto)},
                    __version__)
    _emit(args, run, _transcript(rep))
    if rep.verdict == VERDICT_CRITICAL:
        return EXIT_OK
    if rep.verdict == VERDICT_FAILURE:
        return EXIT_FAILURE
    return EXIT_INCONCLUSIVE


def _cmd_height(args) -> int:
    desc = _resolve_input(args)
    cutoff = DEFAULT_CUTOFF if args.radius is None else float(args.radius) * math.pi
    t0 = time.time()
    hrep = height(desc, cutoff=cutoff)
    run = RunReport("height", _input_dict(desc), hrep.to_dict(), time.time() - t0,
                    {"truncation_radius": hrep.truncation_radius,
                     "tail_estimate": hrep.tail_estimate}, __version__)
    text = (f"height({desc.name or 'input'} normalized to det 1) = {hrep.height!r}\n"
            f"F value {hrep.F_value!r}, constant {hrep.constant_C!r}\n"
            f"projected gradient residual {hrep.projected_residual:.3e}\n"
            f"truncation radius {hrep.truncation_radius:.4f}, "
            f"certified tail {hrep.tail_estimate:.3e}")
    _emit(args, run, text)
    return EXIT_OK


def _cmd_stationarity(args) -> int:
    desc = _resolve_input(args)
    t0 = time.time()
    res = stationarity_residual(desc.gram)
    run = RunReport("stationarity", _input_dict(desc),
                    {"projected_residual": res}, time.time() - t0, {}, __version__)
    _emit(args, run, f"stationarity residual of {desc.name or 'input'} "
                     f"(normalized): {res:.6e}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    dims = [int(d) for d in args.dims.split(",")] if args.dims else [2, 3, 4, 5, 6]
    t0 = time.time()
    summary = reproduce_tables(dims, fast=args.fast_paper_bound,
                               threads=args.threads, max_vectors=args.max_vectors)
    rows_out = []
    lines = [f"{'name':9s} {'dim':3s} {'verdict':16s} {'expected':14s} "
             f"{'sturm':6s} {'N':4s} {'ok':2s}"]
    for r in summary.rows:
        rows_out.append({
            "name": r.name, "dim": r.dim, "traditional_name": r.traditional_name,
            "verdict": r.verdict, "expected": r.expected, "sturm": r.sturm,
            "reference_N": r.reference_N, "bound_used": r.bound_used,
            "matches": r.matches, "incomplete_dim": r.incomplete_dim,
            "error": r.error,
        })
        flag = "ok" if r.matches else "XX"
        note = " [catalogue incomplete]" if r.incomplete_dim else ""
        lines.append(f"{r.name:9s} {r.dim:<3d} {r.verdict:16s} {r.expected:14s} "
                     f"{r.sturm:<6d} {r.reference_N!s:4s} {flag}{note}")
        if r.error:
            lines.append(f"    error: {r.error}")
    mism = summary.mismatches
    lines.append(f"{len(summary.rows)} entries, {len(mism)} mismatches")
    run = RunReport("tables", {"dims": dims}, {"rows": rows_out,
                    "mismatches": len(mism)}, time.time() - t0, {}, __version__)
    _emit(args, run, "\n".join(lines))
    if any(r.verdict.startswith("failure") for r in summary.rows):
        return EXIT_FAILURE
    if mism:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


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


def _cmd_probe(args) -> int:
    t0 = time.time()
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
    hits = []
    inconclusive = 0
    rows = []
    lines = []
    for desc in jobs:
        override = args.bound if args.bound is not None else (
            desc.reference_N if desc.reference_N is not None else 12)
        try:
            rep = fully_critical(desc, override, max_vectors=args.max_vectors)
        except EnumerationBudgetError as exc:
            rows.append({"name": desc.name, "error": str(exc)})
            lines.append(f"{desc.name}: inconclusive ({exc})")
            inconclusive += 1
            continue
        # the same pair conjecture_probe returns, plus the verdict behind it
        first_two = all(v.is_design for v in rep.per_layer[:2])
        rows.append({"name": desc.name, "first_two_designs": first_two,
                     "verdict": rep.verdict_text})
        lines.append(f"{desc.name}: first_two={first_two} verdict={rep.verdict_text}")
        if first_two and rep.verdict == VERDICT_FAILURE:
            hits.append(desc.name)
        if rep.verdict == VERDICT_INCONCLUSIVE:
            inconclusive += 1
    if hits:
        lines.append("!!! COUNTEREXAMPLE CANDIDATE(S): first two layers are 2-designs "
                     f"but a later tested layer fails: {', '.join(hits)}")
    else:
        lines.append("no counterexample candidates")
    run = RunReport("probe-conjecture", {"jobs": [d.name for d in jobs]},
                    {"rows": rows, "hits": hits}, time.time() - t0, {}, __version__)
    _emit(args, run, "\n".join(lines))
    if hits:
        return EXIT_FAILURE
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


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

    p = sub.add_parser("design", help="exact t-design test of a single layer")
    common(p)
    budget(p)
    p.add_argument("--layer-norm", help="norm of the layer to test (rational)")
    p.add_argument("--t", type=int, default=2, help="design strength (even)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("fully-critical", help="certify 2-designs on every layer")
    common(p)
    budget(p)
    p.add_argument("--bound", help="override certification bound B")
    p.add_argument("--fast-paper-bound", action="store_true",
                   help="use the catalogue's externally computed pivot exponent N")
    p.set_defaults(func=_cmd_fully_critical)

    p = sub.add_parser("height", help="torus height of the determinant-1 form")
    common(p)
    p.add_argument("--radius", help="starting truncation radius R (include Q[m] <= R), "
                   "grown x1.35 per round for up to 10 rounds until the tail is certified")
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("stationarity", help="stationarity residual of the height")
    common(p)
    p.set_defaults(func=_cmd_stationarity)

    p = sub.add_parser("tables", help="reproduce the catalogue classification")
    common(p, with_input=False)
    budget(p)
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes (0 = auto)")
    p.add_argument("--dims", help="comma-separated dimensions (default 2,3,4,5,6)")
    p.add_argument("--fast-paper-bound", action="store_true")
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
    p.add_argument("--bound", type=int, help="certification bound for the probe")
    p.set_defaults(func=_cmd_probe)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (TruncationError, DesignComputationError, ArithmeticError,
            ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
