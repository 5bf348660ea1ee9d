"""The catalogue's exact outputs, pinned against fixtures in ``tests/data/``.

The 42 certificates at the cusp-counted horizon with a 4 M vector budget
are exact arithmetic, so their ``to_dict()`` must be equal on every
platform.  The 84 catalogue heights (each entry and its inverse) pin their
route, certificate, truncation radius and both half-vector counts exactly;
height, F, tail and gradient are pinned within 1e-14 relative, so that libm
differences between hosts do not fail the test.

The fixtures were written by this module's ``__main__`` before a change of
the walks that must not move them; regenerate them only for a change that
is meant to move an output, and say which:

    PYTHONPATH=src python tests/test_pinned.py
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from latcrit import fully_critical, gram_inverse, height
from latcrit.catalog import load_catalog

DATA = pathlib.Path(__file__).parent / "data"
CERTIFICATES = DATA / "catalogue_certificates.json"
HEIGHTS = DATA / "catalogue_heights.json"
EXACT = ("route", "certificate", "truncation_radius", "half_vectors_form", "half_vectors_dual")
CLOSE = ("height", "F_value", "tail_estimate")


def certificates() -> dict:
    """Each entry's certificate at the horizon with a 4 M budget, as ``to_dict()``."""
    return {e.name: fully_critical(e, None, max_vectors=4_000_000).to_dict()
            for e in load_catalog().entries}


def heights() -> dict:
    """The pinned fields of the height of each entry and of its inverse ("name^-1")."""
    out = {}
    for e in load_catalog().entries:
        for key, q in ((e.name, e.gram), (f"{e.name}^-1", gram_inverse(e.gram))):
            rep = height(q)
            out[key] = {**{k: getattr(rep, k) for k in EXACT + CLOSE},
                        "gradient": rep.gradient.tolist()}
    return out


def _load(path: pathlib.Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_certificates_are_pinned():
    assert certificates() == _load(CERTIFICATES)


def test_heights_are_pinned():
    pinned, got = _load(HEIGHTS), heights()
    assert got.keys() == pinned.keys()
    for key, want in pinned.items():
        have = got[key]
        assert {k: have[k] for k in EXACT} == {k: want[k] for k in EXACT}, key
        for k in CLOSE:
            assert have[k] == pytest.approx(want[k], rel=1e-14, abs=0), (key, k)
        G, G0 = np.array(have["gradient"]), np.array(want["gradient"])
        assert np.abs(G - G0).max() <= 1e-14 * np.abs(G0).max(), key


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for path, values in ((CERTIFICATES, certificates()), (HEIGHTS, heights())):
        path.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
