"""Exact rational Gram-matrix algebra.

A positive definite symmetric matrix of rationals plays a double role: it is
the Gram matrix of a full-rank Euclidean lattice and the matrix of a positive
quadratic form on integer vectors.  Everything structural (inverse, parity,
level, block sums) is computed in exact arbitrary-precision rationals;
floating point enters only through the exponential-map chart used by the
height machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Rational = Fraction
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

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def value(self, x: Sequence[int]) -> Fraction:
        """Evaluate the quadratic form x^t Q x exactly."""
        e = self.entries
        n = self.n
        total = Fraction(0)
        for i in range(n):
            xi = x[i]
            if xi == 0:
                continue
            row = e[i]
            s = sum(row[j] * x[j] for j in range(n) if x[j] != 0)
            total += xi * s
        return total

    def inner(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """Inner product x^t Q y."""
        e = self.entries
        n = self.n
        return sum(x[i] * sum(e[i][j] * y[j] for j in range(n)) for i in range(n))

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

    def scale(self, c: RationalLike) -> "GramMatrix":
        c = _as_fraction(c)
        if c <= 0:
            raise GramError("scale factor must be positive")
        return GramMatrix([[v * c for v in row] for row in self.entries])

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
    modular-form space dimensions and pivot exponents used as regression
    data and as the fast certification bound.
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


@dataclass(frozen=True, eq=False)
class TangentDirection:
    """Symmetric direction H at Q0 with Tr(Q0^{-1} H) = 0.

    Trace-orthogonality to Q0^{-1} is what keeps the exponential-map curve
    inside the determinant-1 manifold.
    """

    base: GramMatrix
    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.shape != (self.base.n, self.base.n):
            raise GramError("direction shape does not match base dimension")
        if not np.allclose(H, H.T, atol=1e-12):
            raise GramError("direction must be symmetric")
        qinv = gram_inverse(self.base).to_float()
        t = float(np.tensordot(qinv, H))
        scale = max(1.0, float(np.linalg.norm(H)))
        if abs(t) > 1e-12 * scale:
            raise GramError(f"direction not trace-orthogonal to Q0^-1 (Tr = {t:.3e})")
        object.__setattr__(self, "H", H)


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


def adjugate(Q: GramMatrix) -> GramMatrix:
    """det(Q) * Q^{-1}; integral whenever Q is integral."""
    d = determinant(Q)
    return gram_inverse(Q).scale(d)


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


class ExpMapError(GramError):
    """Matrix exponential could not be evaluated reliably."""


def _sym_sqrt(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(A)
    if np.any(w <= 0):
        raise ExpMapError("base matrix of exponential map is not positive definite")
    s = np.sqrt(w)
    return (V * s) @ V.T, (V / s) @ V.T


def exp_map(Q0: GramMatrix, H: TangentDirection, t: float = 1.0) -> np.ndarray:
    """Geodesic chart Q0 * exp(t * Q0^{-1} H), evaluated symmetrically.

    Computed as Q0^{1/2} exp(t Q0^{-1/2} H Q0^{-1/2}) Q0^{1/2} via the
    eigendecomposition of the symmetrized core, so the result is symmetric
    positive definite by construction and the determinant is preserved to
    roundoff when Tr(Q0^{-1} H) = 0.
    """
    if H.base != Q0:
        raise GramError("tangent direction is based at a different matrix")
    return exp_map_float(Q0.to_float(), H.H, t)


def exp_map_float(A: np.ndarray, H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """The float core of ``exp_map`` for a float base form and direction."""
    sq, isq = _sym_sqrt(A)
    core = isq @ (t * H) @ isq
    core = 0.5 * (core + core.T)
    w, V = np.linalg.eigh(core)
    if np.max(np.abs(w)) > 700.0:
        raise ExpMapError(
            f"exponential map diverges: spectral magnitude {np.max(np.abs(w)):.3e}"
        )
    E = (V * np.exp(w)) @ V.T
    out = sq @ E @ sq
    return 0.5 * (out + out.T)


def tangent_project(Q0: GramMatrix, S: np.ndarray) -> TangentDirection:
    """Remove the Q0^{-1}-parallel component of a symmetric matrix.

    Returns S - lambda * Q0^{-1} with lambda = <Q0^{-1}, S>/<Q0^{-1}, Q0^{-1}>;
    idempotent and linear in S.
    """
    S = np.asarray(S, dtype=float)
    qinv = gram_inverse(Q0).to_float()
    lam = float(np.tensordot(qinv, S)) / float(np.tensordot(qinv, qinv))
    return TangentDirection(base=Q0, H=S - lam * qinv)


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
