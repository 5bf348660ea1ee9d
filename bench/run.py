"""Benchmark of latcrit: exact certification, conjecture probing, height sweep.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; latcrit is imported from its ``src/`` and
nowhere else, so the command fails (exit 1, no result) without the package.
Workloads, metrics and the per-module table are described in bench/README.md.

Each workload is a list of items (a catalogue entry or a random form), each
run in this one process on one thread.  The first round runs every item once;
later rounds rerun the items that the item percentiles read until the
deadline, so those timings are medians of warm runs spread over the whole
run.  Times are reported in reference seconds, scaled by the host speed that
hostclock.py samples through the run; the report line keeps the measured
seconds.  Every output is checked by an oracle after the clock stops, and
repeats must reproduce the first output exactly.  With --trace 1 the first
round runs under span wrappers and gives the per-module metrics; the
untraced round after it gives the tracing overhead.  The last line of stdout
is the result JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_BUDGET = 4_000_000   # certify-default: stf28a overruns in about 8 s, not 50
PROBE_FORMS = 300
SETUP_REPEATS = 9
RERUN_FACTOR = 1.5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("certify-pinned", "certify-default", "probe-random", "height-sweep")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
    "decided_frac": "fraction", "peak_rss_mb": "MB",
}

_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import latcrit\n"
    "latcrit.load_catalog()\n"
    "print(time.perf_counter() - t0)\n"
)


def import_latcrit():
    sys.path.insert(0, str(SRC))
    try:
        import latcrit
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import latcrit from {SRC}: {exc}")
    if Path(latcrit.__file__).resolve().parent != SRC / "latcrit":
        raise SystemExit(f"bench: latcrit came from {latcrit.__file__}, not {SRC}")
    return latcrit


def measure_setup(clock: hostclock.HostClock) -> list[tuple[float, float]]:
    """(seconds, kernel seconds) for fresh interpreters that import latcrit and load the catalogue.

    The host clock's kernel is timed just before each interpreter starts,
    so that each set-up time is scaled by the host's speed at that moment.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        kernel_s = statistics.median(clock.kernel_s() for _ in range(5))
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append((float(proc.stdout.split()[-1]), kernel_s))
    return out


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(np) -> dict:
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


class Workload:
    """Items of one workload, the call that processes one, and its oracle."""

    def __init__(self, name: str, seed: int, catalog):
        import oracles

        C = sys.modules["latcrit.certify"]
        H = sys.modules["latcrit.height"]
        self.name = name
        if name == "probe-random":
            self.items = [(f.gram.name, f) for f in oracles.random_forms(seed, PROBE_FORMS)]
        else:
            entries = list(catalog.entries)
            random.Random(seed).shuffle(entries)
            self.items = [(e.name, e) for e in entries]
        # the calls look the functions up at call time, so span wrappers apply
        if name == "certify-pinned":
            self.call = lambda e: C.fully_critical(e, e.reference_N)
            self.check = lambda e, rep: oracles.check_certify(e, rep, pinned=True)
        elif name == "certify-default":
            self.call = lambda e: C.fully_critical(e, None, max_vectors=DEFAULT_BUDGET)
            self.check = lambda e, rep: oracles.check_certify(e, rep, pinned=False)
        elif name == "probe-random":
            self.call = lambda f: C.conjecture_probe(f.gram, oracles.PROBE_BOUND)
            self.check = oracles.check_probe
        elif name == "height-sweep":
            self.call = lambda e: H.height(e)
            self.check = oracles.check_height
        else:
            raise ValueError(f"unknown workload {name!r}")

    def fingerprint(self, out):
        return out if self.name == "probe-random" else out.to_dict()

    def decided(self, out) -> bool:
        """A definitive result: a fully-critical or failure verdict, or a finite height."""
        if self.name.startswith("certify"):
            return out.verdict != sys.modules["latcrit.certify"].VERDICT_INCONCLUSIVE
        if self.name == "height-sweep":
            return math.isfinite(out.height)
        return True


class Recorder:
    """Runs items, times them, and keeps each item's first output.

    An item's time leaves out the time the host clock's sampler took while
    the item ran.
    """

    def __init__(self, workload: Workload, clock: hostclock.HostClock):
        self.workload = workload
        self.clock = clock
        self.first: dict[str, object] = {}
        self.prints: dict[str, object] = {}
        self.errors: dict[str, list[str]] = {}
        self.tracebacks: dict[str, str] = {}
        self.unreproduced: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def run(self, iid: str, x) -> float:
        self.attempted += 1
        sampled = self.clock.spent
        t0 = time.perf_counter()
        try:
            out = self.workload.call(x)
        except Exception as exc:  # one item's failure is counted, the run goes on
            dt = time.perf_counter() - t0 - (self.clock.spent - sampled)
            self.failed += 1
            kind = type(exc).__name__
            self.errors.setdefault(iid, []).append(kind)
            self.tracebacks.setdefault(kind, traceback.format_exc())
            return dt
        dt = time.perf_counter() - t0 - (self.clock.spent - sampled)
        fp = self.workload.fingerprint(out)
        if iid not in self.prints:
            self.first[iid], self.prints[iid] = out, fp
        elif fp != self.prints[iid]:
            self.unreproduced.add(iid)
        return dt


def measure(rec: Recorder, deadline: float) -> tuple[dict[str, list[tuple[float, float]]], float]:
    """Every item once, then rounds of the rerun items until the deadline.

    Returns each item's (start, seconds) samples and the seconds of the first
    round, which the tracing overhead compares with the traced round.

    The host's speed drifts over tens of seconds, so the items that the
    median and tail percentile read are rerun in round-robin to spread their
    samples over the whole run: those whose first time is at most
    RERUN_FACTOR times the first time at the tail rank.  Their first run is
    a warm-up and is dropped once a rerun exists.  The longer items, such as
    stf28a, are timed once; they dominate wall_s, which their single long
    runs already average over many seconds.
    """
    def timed(iid, x):
        return time.perf_counter(), rec.run(iid, x)

    times = {iid: [timed(iid, x)] for iid, x in rec.workload.items}
    first = sorted(t[0][1] for t in times.values())
    cutoff = RERUN_FACTOR * nearest_rank(first, tail_percentile(len(first)))
    rerun = [(iid, x) for iid, x in rec.workload.items if times[iid][0][1] <= cutoff]
    warm: set[str] = set()
    while rerun and time.perf_counter() < deadline:
        for iid, x in rerun:
            if time.perf_counter() >= deadline:
                break
            t = timed(iid, x)
            if iid not in warm:
                warm.add(iid)
                times[iid] = []
            times[iid].append(t)
    return times, sum(first)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of n items beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    return sorted_vals[max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)]


def verify(rec: Recorder) -> tuple[list[str], set[str]]:
    """(wrong outputs, items whose every run was definitive and checked correct)."""
    wrong = [f"{iid}: repeated run gave a different output" for iid in sorted(rec.unreproduced)]
    decided = set()
    for iid, x in rec.workload.items:
        if iid not in rec.first:  # every run raised
            continue
        reason = rec.workload.check(x, rec.first[iid])
        if reason is not None:
            wrong.append(reason)
        elif (iid not in rec.errors and iid not in rec.unreproduced
              and rec.workload.decided(rec.first[iid])):
            decided.add(iid)
    return wrong, decided


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = hostclock.HostClock()
    # one BLAS/OpenMP thread, fixed before numpy is first imported
    os.environ.update({var: "1" for var in THREAD_VARS})
    latcrit = import_latcrit()
    import numpy as np
    import tracer

    start = time.perf_counter()
    catalog = latcrit.load_catalog()
    load_catalog_s = time.perf_counter() - start
    work = Workload(args.workload, args.seed, catalog)
    rec = Recorder(work, clock)

    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
        try:
            traced_wall = 0.0
            for iid, x in work.items:
                tr.item = iid
                traced_wall += rec.run(iid, x)
        finally:
            tr.uninstall()
    # the traced round ran without the sampler, so the round it is compared with does too
    with contextlib.nullcontext() if args.trace else clock:
        times, first_round_s = measure(rec, start + args.seconds)
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - clock.list_mb

    setup = [] if args.trace else measure_setup(clock)
    wrong, decided = verify(rec)

    item_median_s = {iid: statistics.median(dt for _, dt in t) for iid, t in times.items()}
    pct = tail_percentile(len(times))

    def summary(per_item: dict[str, float]) -> dict[str, float]:
        medians = sorted(per_item.values())
        return {"wall_s": sum(medians), "item_p50_s": statistics.median(medians),
                "item_tail_s": nearest_rank(medians, pct)}

    seconds = summary(item_median_s)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np), "measured_s": measured_s,
        "items": len(work.items), "item_samples": {iid: len(t) for iid, t in times.items()},
        "item_median_s": item_median_s, "item_tail_percentile": pct,
        "measured_seconds": seconds, "setup_samples_s": [s for s, _ in setup],
        "setup_kernel_s": [k for _, k in setup], "kernel_samples_s": clock.samples,
        "kernel_list_mb": clock.list_mb,
        "exceptions": rec.errors,
        "undecided": sorted(iid for iid, _ in work.items if iid not in decided),
        "wrong": wrong,
    }
    if args.trace:
        metrics = tracer.layer_metrics(tr, load_catalog_s, traced_wall - first_round_s)
        useful = tracer.by_item(tr.counts, "useful")
        wasted = tracer.by_item(tr.counts, "wasted")
        report.update({
            "traced_wall_s": traced_wall,
            "span_edges": {f"{p or '-'} > {c}": v for (p, c), v in tr.edges.items()},
            "per_item_layer_moments_vectors": {
                iid: useful.get(iid, 0) + wasted.get(iid, 0) for iid, _ in work.items},
            "per_item_upper_gamma_calls": tracer.by_item(tr.calls, "specfun.upper_gamma"),
        })
    else:
        reference = summary({
            iid: statistics.median(dt * clock.scale(t0, t0 + dt) for t0, dt in t)
            for iid, t in times.items()})
        metrics = {
            "setup_s": (statistics.median(
                s * hostclock.REFERENCE_S / k for s, k in setup), "s"),
            **{name: (v, "s") for name, v in reference.items()},
            "decided_frac": (len(decided) / len(work.items), "fraction"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for kind, tb in rec.tracebacks.items():
        print(f"bench: first {kind} traceback:\n{tb}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
