"""Independent output checks for the benchmark workloads, and its random inputs.

Nothing here calls the latcrit code paths being timed: the probe oracle
enumerates a coordinate box of a diagonal form isometric to the probed one
and tests the exact moment identity n*S = m*|M|*Q^{-1} in integers, and the
height oracle compares with closed forms evaluated in mpmath.  Each check
returns None for an accepted output and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from latcrit import (
    VERDICT_CRITICAL,
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    FullyCriticalReport,
    GramMatrix,
    HeightReport,
    LatticeDescriptor,
)

PROBE_BOUND = 12
PROBE_DIMS = (2, 3, 4, 5)
RESIDUAL_MAX = 1e-10
TAIL_REL_MAX = 1e-12
STA2_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RandomForm:
    """gram = basis^t diag(diag) basis with basis unimodular (a product of shears)."""

    gram: GramMatrix
    diag: tuple[int, ...]
    basis: np.ndarray


def random_forms(seed: int, count: int) -> list[RandomForm]:
    """Seeded integral SPD forms, dims cycling through PROBE_DIMS.

    Same distribution as ``latcrit probe-conjecture --random``: a random
    positive diagonal under a product of 3*dim random integer shears.  The
    diagonal and the shears are kept so the oracle can work on the isometric
    diagonal form, where the enumeration box is small.
    """
    rng = np.random.default_rng(seed)
    forms = []
    for k in range(count):
        dim = PROBE_DIMS[k % len(PROBE_DIMS)]
        d = rng.integers(1, 5, size=dim)
        U = np.eye(dim, dtype=np.int64)
        for _ in range(3 * dim):
            i, j = rng.integers(0, dim, size=2)
            if i == j:
                continue
            E = np.eye(dim, dtype=np.int64)
            E[i, j] = int(rng.integers(-2, 3))
            U = U @ E
        Q = U.T @ np.diag(d) @ U
        forms.append(RandomForm(GramMatrix(Q.tolist(), name=f"random-{k}"),
                                tuple(int(v) for v in d), U))
    return forms


def probe_expected(form: RandomForm, bound: int = PROBE_BOUND) -> tuple[bool, bool]:
    """(first two layers are 2-designs, every layer is) by brute force.

    The probe tests the even working form (the form, or twice it when odd)
    up to norm 2*bound, i.e. the form's own layers up to 2*bound or bound.
    Parity and layers are isometry invariants, so they are read off the
    diagonal form; a layer M of norm m is a 2-design iff n*S*D = m*|M|*I
    with S the sum of y y^t over M.
    """
    d = np.array(form.diag, dtype=np.int64)
    n = len(d)
    limit = 2 * bound if all(v % 2 == 0 for v in form.diag) else bound
    axes = [np.arange(-math.isqrt(limit // int(v)), math.isqrt(limit // int(v)) + 1) for v in d]
    Y = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    norms = (Y * Y) @ d
    keep = (norms > 0) & (norms <= limit)
    Y, norms = Y[keep], norms[keep]
    designs = []
    for m in np.unique(norms):
        layer = Y[norms == m]
        S = layer.T @ layer
        designs.append(np.array_equal(n * S * d[None, :],
                                      int(m) * len(layer) * np.eye(n, dtype=np.int64)))
    return all(designs[:2]), all(designs)


def check_probe(form: RandomForm, out) -> Optional[str]:
    Q = np.array([[int(v) for v in row] for row in form.gram.entries], dtype=np.int64)
    if (abs(round(np.linalg.det(form.basis))) != 1
            or not np.array_equal(form.basis.T @ np.diag(form.diag) @ form.basis, Q)):
        return f"{form.gram.name}: probed form is not isometric to its diagonal form"
    expected = probe_expected(form)
    if tuple(out) != expected:
        return f"{form.gram.name}: probe gave {tuple(out)}, brute force gives {expected}"
    return None


def check_certify(entry: LatticeDescriptor, rep: FullyCriticalReport, *,
                  pinned: bool) -> Optional[str]:
    """A catalogue entry is fully critical, or inconclusive once its budget ran out."""
    full = Fraction(2 * rep.bound_B, 2 if rep.doubled else 1)
    if rep.verdict == VERDICT_FAILURE:
        return f"{entry.name}: failure verdict on a catalogue entry"
    if rep.verdict == VERDICT_CRITICAL:
        if rep.certified_upto != full:
            return f"{entry.name}: fully-critical but certified only up to {rep.certified_upto}"
        if not all(v.is_design and v.lhs == v.rhs for v in rep.per_layer):
            return f"{entry.name}: fully-critical with a non-design layer"
    elif rep.verdict == VERDICT_INCONCLUSIVE:
        if not rep.certified_upto < full:
            return f"{entry.name}: inconclusive although the whole range was certified"
    else:
        return f"{entry.name}: unknown verdict {rep.verdict!r}"
    if pinned and rep.bound_B != entry.reference_N:
        return f"{entry.name}: bound {rep.bound_B} used, reference N is {entry.reference_N}"
    return None


def sta2_height() -> float:
    """Height of Z^2: 3 log 2pi + log 2 - 4 log Gamma(1/4)."""
    import mpmath

    with mpmath.workdps(40):
        return float(3 * mpmath.log(2 * mpmath.pi) + mpmath.log(2)
                     - 4 * mpmath.log(mpmath.gamma(mpmath.mpf(1) / 4)))


def check_height(entry: LatticeDescriptor, rep: HeightReport) -> Optional[str]:
    """Critical lattices are stationary; the tail is certified; Z^2 has a closed form."""
    if not math.isfinite(rep.height):
        return f"{entry.name}: height {rep.height} is not finite"
    if not rep.projected_residual <= RESIDUAL_MAX:
        return f"{entry.name}: projected residual {rep.projected_residual:.3e} > {RESIDUAL_MAX}"
    if not rep.tail_estimate < TAIL_REL_MAX * abs(rep.F_value):
        return f"{entry.name}: tail {rep.tail_estimate:.3e} not below {TAIL_REL_MAX}*|F|"
    if entry.name == "sta2" and not abs(rep.height - sta2_height()) <= STA2_TOL:
        return f"sta2: height {rep.height!r} differs from the closed form {sta2_height()!r}"
    return None
