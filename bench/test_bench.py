"""Self-tests of the benchmark: names match BENCHMARK.json, oracles reject tampering."""

from __future__ import annotations

import dataclasses
import json
import time
import types
from fractions import Fraction

import pytest

import hostclock
import run

run.import_latcrit()

import oracles  # noqa: E402
import tracer  # noqa: E402
from latcrit import (  # noqa: E402
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    conjecture_probe,
    fully_critical,
    height,
    load_catalog,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match():
    # certify-pinned and probe-random are runnable but not in BENCHMARK.json (see README)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_end_to_end_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match():
    metrics = tracer.layer_metrics(tracer.Tracer(), 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("n, pct", [(42, 75.0), (300, 95.0), (5, 50.0)])
def test_tail_percentile_leaves_ten_items_beyond(n, pct):
    assert run.tail_percentile(n) == pct


def test_certify_oracle_rejects_tampered_verdict():
    entry = load_catalog().by_name("stb4")
    rep = fully_critical(entry, entry.reference_N)
    assert oracles.check_certify(entry, rep, pinned=True) is None
    for verdict in (VERDICT_FAILURE, VERDICT_INCONCLUSIVE):
        assert oracles.check_certify(entry, dataclasses.replace(rep, verdict=verdict),
                                     pinned=True) is not None
    wider = rep.bound_B + 1
    other = dataclasses.replace(rep, bound_B=wider,
                                certified_upto=Fraction(2 * wider, 2 if rep.doubled else 1))
    assert oracles.check_certify(entry, other, pinned=False) is None
    assert oracles.check_certify(entry, other, pinned=True) is not None


def test_probe_oracle_matches_probe_and_rejects_tampering():
    forms = oracles.random_forms(7, 12)
    outcomes = set()
    for form in forms:
        out = conjecture_probe(form.gram, oracles.PROBE_BOUND)
        outcomes.add(out)
        assert oracles.check_probe(form, out) is None
        assert oracles.check_probe(form, (out[0], not out[1])) is not None
    assert len(outcomes) > 1


def test_height_oracle_rejects_tampered_height():
    entry = load_catalog().by_name("sta2")
    rep = height(entry)
    assert oracles.check_height(entry, rep) is None
    for change in ({"height": rep.height + 1e-9}, {"projected_residual": 1e-8},
                   {"tail_estimate": abs(rep.F_value) * 1e-11}):
        assert oracles.check_height(entry, dataclasses.replace(rep, **change)) is not None


def test_tracer_self_time_excludes_children_and_uninstalls():
    def child():
        time.sleep(0.05)

    mod = types.SimpleNamespace(child=child)
    outer = types.SimpleNamespace(parent=lambda: (mod.child(), time.sleep(0.01)))
    tr = tracer.Tracer()
    tr.wrap(mod, "child", "m.child")
    tr.wrap(outer, "parent", "m.parent")
    tr.item = "x"
    outer.parent()
    tr.uninstall()
    assert mod.child is child
    assert tr.calls == {("x", "m.child"): 1, ("x", "m.parent"): 1}
    assert 0.05 <= tr.self_s[("x", "m.child")]
    assert 0.01 <= tr.self_s[("x", "m.parent")] < 0.04
    assert tr.edges == {(None, "m.parent"): 1, ("m.parent", "m.child"): 1}


def test_host_clock_scales_by_the_kernel_median_near_the_interval():
    clock = hostclock.HostClock()
    assert clock.kernel_s() > 0
    clock.at = [1.0, 2.0, 3.0, 20.0, 21.0]
    clock.samples = [0.001, 0.002, 0.003, 0.010, 0.010]
    assert clock.scale(2.0, 2.5) == pytest.approx(hostclock.REFERENCE_S / 0.002)
    assert clock.scale(19.0, 19.5) == pytest.approx(hostclock.REFERENCE_S / 0.010)
    # no sample within the window: the whole run's median
    assert clock.scale(10.0, 10.5) == pytest.approx(hostclock.REFERENCE_S / 0.003)
