"""Span tracing of the public latcrit functions, installed from outside.

Each wrapped function is replaced, in the module namespace its caller looks
it up in, by a wrapper that records a span: its name, its duration and the
span that caused it.  Spans are aggregated in memory per (item, span) and per
(parent, child) edge; a span's self time is its duration minus the time of
its child spans.  Keeping aggregates instead of raw spans keeps memory flat
across the ~2.5 M incomplete-gamma calls of the height sweep.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

from latcrit import VERDICT_CRITICAL, EnumerationBudgetError


class Tracer:
    """Install span wrappers, aggregate spans and counters, and uninstall."""

    def __init__(self):
        self.item: Optional[str] = None      # identifier shared by one item's spans
        self.calls: Counter = Counter()       # (item, span) -> calls
        self.self_s: defaultdict = defaultdict(float)  # (item, span) -> self seconds
        self.counts: Counter = Counter()      # (item, counter) -> value
        self.edges: Counter = Counter()       # (parent span, span) -> calls
        self._stack: list[list] = []          # [span name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.item, name)] += value

    def wrap(self, module, attr: str, span: str, *,
             on_result: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> None:
        """Replace module.attr by a span-recording wrapper."""
        fn = getattr(module, attr)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self._close(frame, parent, perf() - t0)
            if on_result is not None:
                on_result(self, out)
            return out

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _close(self, frame: list, parent: Optional[list], dur: float) -> None:
        self._stack.pop()
        key = (self.item, frame[0])
        self.calls[key] += 1
        self.self_s[key] += dur - frame[1]
        self.edges[(parent[0] if parent else None, frame[0])] += 1
        if parent is not None:
            parent[1] += dur

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)


def by_item(table: dict, name: str) -> dict:
    """One span's or counter's values from an (item, name)-keyed table, by item."""
    return {item: v for (item, key), v in table.items() if key == name}


def total(table: dict, name: str):
    return sum(by_item(table, name).values(), 0)


def _layer_moments_done(tr: Tracer, moments: dict) -> None:
    tr.count("useful", sum(card for card, _ in moments.values()))


def _layer_moments_failed(tr: Tracer, exc: Exception) -> None:
    if isinstance(exc, EnumerationBudgetError):
        tr.count("budget_exceeded")
        tr.count("wasted", exc.processed)


def _fully_critical_done(tr: Tracer, rep) -> None:
    tr.count("layers_tested", len(rep.per_layer))
    if not rep.per_layer and rep.verdict == VERDICT_CRITICAL:
        tr.count("vacuous")


def _short_vectors_done(tr: Tracer, out) -> None:
    tr.count("float_vectors", len(out[0]))


def install(tr: Tracer) -> None:
    """Wrap every public function at the module boundary its consumer uses.

    The height module is taken from sys.modules: the package attribute
    ``latcrit.height`` is the height() function, which shadows the module.
    """
    C = sys.modules["latcrit.certify"]
    S = sys.modules["latcrit.shells"]
    H = sys.modules["latcrit.height"]
    tr.wrap(S, "lll_reduce", "shells.lll_reduce")
    tr.wrap(C, "layer_moments", "shells.layer_moments",
            on_result=_layer_moments_done, on_error=_layer_moments_failed)
    tr.wrap(C, "level", "gram.level")
    tr.wrap(C, "fully_critical", "certify.fully_critical", on_result=_fully_critical_done)
    tr.wrap(H, "short_vectors_float", "shells.short_vectors_float",
            on_result=_short_vectors_done)
    tr.wrap(H, "upper_gamma", "specfun.upper_gamma")
    tr.wrap(H, "height", "height.height")


def layer_metrics(tr: Tracer, load_catalog_s: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-module metrics of one traced pass, as {name: (value, unit)}.

    ``overhead_s`` is the traced pass time minus the untraced one.
    """
    useful = total(tr.counts, "useful")
    wasted = total(tr.counts, "wasted")
    enumerated = useful + wasted
    lm_self = total(tr.self_s, "shells.layer_moments")
    out: dict[str, tuple[float, str]] = {}
    for span in ("shells.lll_reduce", "shells.layer_moments", "shells.short_vectors_float",
                 "gram.level", "certify.fully_critical", "specfun.upper_gamma"):
        out[f"{span}.calls"] = (total(tr.calls, span), "count")
        out[f"{span}.self_s"] = (float(total(tr.self_s, span)), "s")
    out["shells.layer_moments.vectors"] = (enumerated, "count")
    out["shells.layer_moments.vectors_per_s"] = (enumerated / lm_self if lm_self > 0 else 0.0, "1/s")
    out["shells.budget_exceeded"] = (total(tr.counts, "budget_exceeded"), "count")
    out["shells.vectors_wasted"] = (wasted, "count")
    # 1.0 when nothing was enumerated: no work was wasted
    out["shells.useful_frac"] = (useful / enumerated if enumerated else 1.0, "fraction")
    out["shells.short_vectors_float.vectors"] = (total(tr.counts, "float_vectors"), "count")
    out["certify.layers_tested"] = (total(tr.counts, "layers_tested"), "count")
    out["certify.vacuous"] = (total(tr.counts, "vacuous"), "count")
    out["height.height.self_s"] = (float(total(tr.self_s, "height.height")), "s")
    out["height.radius_rounds"] = (total(tr.calls, "shells.short_vectors_float") / 2, "count")
    out["catalog.load_catalog.s"] = (load_catalog_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
