"""Exact rational Gram-matrix algebra.

A positive definite symmetric matrix of rationals plays a double role: it is
the Gram matrix of a full-rank Euclidean lattice and the matrix of a positive
quadratic form on integer vectors.  Everything structural (inverse, parity,
level, block sums) is computed in exact arbitrary-precision rationals;
floating point enters only through the float copies the height machinery
reads (``to_float``, ``normalized_to_det1``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

RationalLike = int | Fraction | str


class GramError(ValueError):
    """Raised for ill-formed Gram matrices or violated preconditions."""


class ParityError(GramError):
    """Raised when an operation requires an even integral matrix."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12) if not x.is_integer() else Fraction(int(x))
    raise GramError(f"cannot interpret {x!r} as an exact rational")


def _frac_str(x: Fraction) -> str | int:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite matrix of exact rationals.

    Validated at construction: symmetry and positive definiteness (the latter
    by exact signs of the leading principal minors).  Instances are immutable;
    all operations on them are pure functions.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    name: Optional[str] = field(default=None, compare=False)

    def __init__(self, entries: Sequence[Sequence[RationalLike]], name: Optional[str] = None):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in entries)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise GramError("entries must form a nonempty square matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise GramError(f"not symmetric at ({i},{j})")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "name", name)
        if any(m <= 0 for m in _leading_minors(rows)):
            raise GramError("not positive definite (nonpositive leading minor)")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.entries for v in row)

    def denominator_lcm(self) -> int:
        d = 1
        for row in self.entries:
            for v in row:
                d = d * v.denominator // math.gcd(d, v.denominator)
        return d

    def integral_rescale(self) -> tuple[list[list[int]], int]:
        """Return (d*Q as integer rows, d) with d the entry denominator lcm."""
        d = self.denominator_lcm()
        return [[int(v * d) for v in row] for row in self.entries], d

    def to_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)

    def to_json(self) -> str:
        obj = {"n": self.n, "gram": [[_frac_str(v) for v in row] for row in self.entries]}
        if self.name is not None:
            obj = {"name": self.name, **obj}
        return json.dumps(obj)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<GramMatrix{tag} n={self.n}>"


@dataclass(frozen=True)
class LatticeDescriptor:
    """A named lattice: Gram matrix plus optional reference metadata.

    ``reference_dimM`` and ``reference_N`` carry externally computed
    modular-form space dimensions and pivot exponents, kept as regression
    data; ``fully_critical(desc, desc.reference_N)`` reproduces the
    reference transcripts.
    """

    gram: GramMatrix
    name: Optional[str] = None
    reference_dimM: Optional[int] = None
    reference_N: Optional[int] = None
    traditional_name: Optional[str] = None

    def __post_init__(self):
        for v in (self.reference_dimM, self.reference_N):
            if v is not None and v < 1:
                raise GramError("reference metadata must be positive")


def _leading_minors(rows: tuple[tuple[Fraction, ...], ...]) -> list[Fraction]:
    """Leading principal minors by fraction-free Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    minors: list[Fraction] = []
    det = Fraction(1)
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
            # Zero pivot: the k+1-st leading minor vanishes, so not PD.
            minors.extend([Fraction(0)] * (n - k))
            return minors
        det *= piv
        minors.append(det)
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f == 0:
                continue
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return minors


def determinant(Q: GramMatrix) -> Fraction:
    """Exact determinant; positive for any valid Gram matrix."""
    return _leading_minors(Q.entries)[-1]


def gram_inverse(Q: GramMatrix) -> GramMatrix:
    """Exact inverse: the Gram matrix of the dual lattice."""
    n = Q.n
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(Q.entries)]
    for k in range(n):
        piv = a[k][k]
        if piv == 0:  # cannot happen for PD input
            raise GramError("singular matrix")
        inv = 1 / piv
        a[k] = [v * inv for v in a[k]]
        for i in range(n):
            if i == k or a[i][k] == 0:
                continue
            f = a[i][k]
            a[i] = [vi - f * vk for vi, vk in zip(a[i], a[k])]
    return GramMatrix([row[n:] for row in a])


def is_even(Q: GramMatrix) -> bool:
    """True iff all entries are integers and the diagonal is even."""
    if not Q.is_integral:
        return False
    return all(Q.entries[i][i] % 2 == 0 for i in range(Q.n))


def level(Q: GramMatrix) -> int:
    """Smallest l >= 1 such that l * Q^{-1} is integral with even diagonal.

    Only defined for even integral input; rescaling the dual by sqrt(l) then
    yields another even lattice.
    """
    if not is_even(Q):
        raise ParityError("level requires an even integral Gram matrix")
    qinv = gram_inverse(Q)
    # l must clear all denominators of Q^{-1}; step through multiples of that lcm.
    base = qinv.denominator_lcm()
    l = base
    while True:
        scaled = [[v * l for v in row] for row in qinv.entries]
        if all(v.denominator == 1 for row in scaled for v in row) and all(
            int(scaled[i][i]) % 2 == 0 for i in range(Q.n)
        ):
            return l
        l += base


def double(Q: GramMatrix) -> GramMatrix:
    """Entrywise 2Q: Gram matrix of the sqrt(2)-rescaled lattice."""
    return GramMatrix([[2 * v for v in row] for row in Q.entries])


def orthosum_A1(Q: GramMatrix) -> GramMatrix:
    """Block sum with a rank-1 even lattice of minimum 2: diag(Q, 2)."""
    n = Q.n
    rows = [list(row) + [Fraction(0)] for row in Q.entries]
    rows.append([Fraction(0)] * n + [Fraction(2)])
    return GramMatrix(rows)


def normalized_to_det1(Q: GramMatrix) -> np.ndarray:
    """Q / det(Q)^{1/n} as a float matrix (determinant-1 representative)."""
    d = float(determinant(Q))
    return Q.to_float() / d ** (1.0 / Q.n)


# ---------------------------------------------------------------------------
# serialization


def gram_from_json(text: str) -> GramMatrix:
    obj = json.loads(text)
    rows = obj["gram"]
    if "n" in obj and len(rows) != obj["n"]:
        raise GramError("declared dimension does not match matrix size")
    return GramMatrix(rows, name=obj.get("name"))


def gram_from_text(text: str) -> GramMatrix:
    """Plain format: first line n, then n whitespace-separated rows."""
    tokens = text.split()
    if not tokens:
        raise GramError("empty input")
    n = int(tokens[0])
    vals = tokens[1:]
    if len(vals) != n * n:
        raise GramError(f"expected {n * n} entries, got {len(vals)}")
    rows = [[Fraction(v) for v in vals[i * n:(i + 1) * n]] for i in range(n)]
    return GramMatrix(rows)


def load_gram(path: str) -> GramMatrix:
    """Load a Gram matrix from a JSON or plain-text file (sniffed)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return gram_from_json(text)
    return gram_from_text(text)
