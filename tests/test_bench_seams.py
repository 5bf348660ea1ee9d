"""The benchmark's tracer wraps these functions by module attribute.

A rename would only show when the benchmark runs; this keeps it in the test
suite.  The list mirrors ``bench/tracer.install``.
"""

import importlib

import pytest

SEAMS = [
    ("latcrit.certify", "layer_moments"),
    ("latcrit.certify", "level"),
    ("latcrit.certify", "fully_critical"),
    ("latcrit.shells", "lll_reduce"),
    ("latcrit.height", "short_vectors_float"),
    ("latcrit.height", "upper_gamma"),
    ("latcrit.height", "height"),
]


@pytest.mark.parametrize("module, attr", SEAMS)
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
