"""Exact Gram-matrix algebra on one cached integral form.

A positive definite symmetric matrix of rationals plays a double role: it is
the Gram matrix of a full-rank Euclidean lattice and the matrix of a positive
quadratic form on integer vectors.  Each ``GramMatrix`` holds only its
integral form P = d Q, with d the lcm of the entry denominators, and det P;
the Fraction entries of the API are derived when first read.  Everything
structural (positive definiteness, determinant, inverse, parity, level) runs
on P in Python-int, fraction-free kernels, on one Gauss-Jordan elimination
of the primitive part P0 of P = c P0 (``_adjugate``): its pivots are the
leading minors that validate P, and its adjugate gives the inverse, the
level and the level dual.  Each form keeps its elimination
(``GramMatrix._inverse``), from its validation, its source's primitive part
(``_scaled``) or its first read.  Floating point enters only through the
float copies the height machinery reads (``to_float``).
"""

from __future__ import annotations

import functools
import itertools
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
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):  # JSON true is no number
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(x).limit_denominator(10**12) if not x.is_integer() else Fraction(int(x))
    raise GramError(f"cannot interpret {x!r} as an exact rational")


def _frac_str(x: Fraction) -> str | int:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite matrix of exact rationals.

    Held as its integral form P = d Q (integer rows, d the lcm of the entry
    denominators, so P / d is in lowest terms) and det P; every exact kernel
    reads them, and ``entries``, the Fractions, is derived when first read.
    Validated at every construction: square, symmetric, and positive
    definite by the signs of the leading principal minors, the pivots of
    the elimination that inverts it.  Equality and hash follow (P, d).
    Instances are immutable; all operations on them are pure functions.
    """

    _P: tuple[tuple[int, ...], ...]
    _d: int
    name: Optional[str] = field(default=None, compare=False)

    def __init__(self, entries: Sequence[Sequence[RationalLike]], name: Optional[str] = None):
        try:
            rows = [[_as_fraction(x) for x in row] for row in entries]
        except TypeError:  # entries, or one of its rows, is not iterable
            rows = None
        # a string iterates as its characters, and is no row either
        if rows is None or isinstance(entries, str) or any(isinstance(r, str) for r in entries):
            raise GramError("entries must be a sequence of rows of rationals")
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise GramError("entries must form a nonempty square matrix")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise GramError(f"not symmetric at ({i},{j})")
        d = math.lcm(*(v.denominator for row in rows for v in row))
        _store(self, [[v.numerator * (d // v.denominator) for v in row] for row in rows], d, name)
        _, det, c = self._inverse  # the elimination that validates, kept by the form
        object.__setattr__(self, "_det", c ** n * det)

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(p, self._d) for p in row) for row in self._P)

    @functools.cached_property
    def _objects(self) -> np.ndarray:
        """P as a read-only object array of Python ints, built once: the exact verdicts' operand."""
        a = np.array(self._P, dtype=object)
        a.flags.writeable = False
        return a

    @functools.cached_property
    def _inverse(self) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        """(A, det P0, c) with P^{-1} = A / (c det P0): P = c P0, c the content of P and A = adj P0.

        Run once per form, at validation or on first read.  P's leading minors
        are c^k times P0's, so the pivots decide positive definiteness.  The
        form ``gram_inverse`` stores reads it from its source's in closed form
        (``_reinverse``), with no elimination.
        """
        if "_inverse_of" in self.__dict__:
            return _reinverse(*self.__dict__["_inverse_of"])
        c = math.gcd(*itertools.chain.from_iterable(self._P)) or 1
        return *_adjugate(self._P if c == 1 else [[v // c for v in row] for row in self._P]), c

    @property
    def n(self) -> int:
        return len(self._P)

    @property
    def is_integral(self) -> bool:
        return self._d == 1

    def integral_rescale(self) -> tuple[list[list[int]], int]:
        """Return (d*Q as integer rows, d) with d the entry denominator lcm."""
        return [list(row) for row in self._P], self._d

    def to_float(self) -> np.ndarray:
        # int / int is correctly rounded, as float(Fraction) is
        return np.array([[p / self._d for p in row] for row in self._P], dtype=float)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<GramMatrix{tag} n={self.n}>"


def _store(Q: GramMatrix, P: Sequence[Sequence[int]], d: int, name: Optional[str]) -> None:
    object.__setattr__(Q, "_P", tuple(tuple(row) for row in P))
    object.__setattr__(Q, "_d", d)
    object.__setattr__(Q, "name", name)


def _stored(P: Sequence[Sequence[int]], d: int, det: int) -> GramMatrix:
    """The form P / d with det P = det, stored unchecked: P / d must already be
    symmetric, positive definite and in lowest terms."""
    Q = object.__new__(GramMatrix)
    _store(Q, P, d, None)
    object.__setattr__(Q, "_det", det)
    return Q


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


def _adjugate(P: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj P, det P) by fraction-free Gauss-Jordan elimination of [P | I], for symmetric P.

    Bareiss's update runs on every row but the pivot row, so the left block
    ends as det(P) I and the right one as adj(P) = det(P) P^{-1}, every
    division exact (Sylvester's identity).  The pivot of step k is the
    (k+1)-st leading minor, so this is also the test of positive
    definiteness: a nonpositive pivot raises before it divides anything.
    """
    n = len(P)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(P)]
    prev = 1
    for k in range(n):
        piv, rk = a[k][k], a[k]
        if piv <= 0:
            raise GramError("not positive definite (nonpositive leading minor)")
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = piv
    return tuple(tuple(row[n:]) for row in a), prev


def determinant(Q: GramMatrix) -> Fraction:
    """Exact determinant; positive for any valid Gram matrix."""
    return Fraction(Q._det, Q._d ** Q.n)


def gram_inverse(Q: GramMatrix) -> GramMatrix:
    """Exact inverse d A / D of Q = P / d, P^{-1} = A / D: the Gram matrix of the dual lattice.

    With P = c P0, A = adj P0 and D = c det P0 (the form's elimination,
    ``GramMatrix._inverse``).  The inverse of a symmetric positive definite
    form is one, so it is stored unchecked.  g = gcd(D, d A) puts it in
    lowest terms, and its integral rows d A / g have determinant
    d^n det(adj P0) / g^n = d^n (det P0)^(n-1) / g^n.  Its elimination is
    not run: it is read from Q's on first read (``_reinverse``).
    """
    adj, det, c = Q._inverse
    n, d = Q.n, Q._d
    g = math.gcd(c * det, *(d * v for row in adj for v in row))
    R = _stored([[d * v // g for v in row] for row in adj], c * det // g,
                d ** n * det ** (n - 1) // g ** n)
    R.__dict__["_inverse_of"] = Q, g
    return R


def _reinverse(Q: GramMatrix, g: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """The elimination (``GramMatrix._inverse``) of ``gram_inverse(Q)``, in closed form.

    With Q = P / d, P = c P0, A = adj P0 and D = det P0, the inverse's rows
    are d A / g = (d a / g) (A / a), a the content of A, so its content is
    d a / g and its primitive part A / a.  adj A = D^(n-2) P0 and
    det A = D^(n-1), and adj and det are homogeneous of degrees n - 1 and
    n, so adj(A / a) = D^(n-2) P0 / a^(n-1) and det(A / a) = D^(n-1) / a^n
    (at n = 1, P0 = (1) and D = 1).
    """
    adj, D, c = Q._inverse
    n = Q.n
    a = math.gcd(*itertools.chain.from_iterable(adj))
    k, q = D ** max(n - 2, 0), a ** (n - 1)
    return (tuple(tuple(k * v // c // q for v in row) for row in Q._P), D ** (n - 1) // a ** n,
            Q._d * a // g)


def is_even(Q: GramMatrix) -> bool:
    """True iff all entries are integers and the diagonal is even."""
    return Q.is_integral and all(Q._P[i][i] % 2 == 0 for i in range(Q.n))


def level(Q: GramMatrix) -> int:
    """Smallest l >= 1 such that l * Q^{-1} is integral with even diagonal.

    Only defined for even integral input; rescaling the dual by sqrt(l) then
    yields another even lattice.  With Q^{-1} = A / D (the form's
    elimination, ``GramMatrix._inverse``) and g the gcd of D and every entry
    of A, l Q^{-1} is integral exactly for the multiples l of D / g, and
    (D / g) Q^{-1} has diagonal A_ii / g: the level is D / g, or twice that
    when some A_ii / g is odd.
    """
    if not is_even(Q):
        raise ParityError("level requires an even integral Gram matrix")
    adj, det, c = Q._inverse
    g = math.gcd(c * det, *(v for row in adj for v in row))
    base = c * det // g
    return base if all(adj[i][i] // g % 2 == 0 for i in range(Q.n)) else 2 * base


def _level_dual(W: GramMatrix, N: int) -> tuple[GramMatrix, int]:
    """(N W^{-1}, its level) for an even form W of level N, in closed form.

    N W^{-1} = N A / D (W's elimination, ``GramMatrix._inverse``) is even
    and integral by the definition of N, and symmetric positive definite
    with determinant N^n / det W, so it is stored unchecked.  Its level is
    the least l with l (N W^{-1})^{-1} =
    (l / N) W even and integral.  Write W = c W0 with c = gcd(W_ij for
    i < j, W_ii / 2): then W0 is even and the gcd of its off-diagonal and
    half-diagonal entries is 1, so (l / N) W is even integral exactly when N
    divides l c.  The level is N / gcd(N, c).
    """
    adj, det, content = W._inverse
    n, P = W.n, W._P
    c = math.gcd(*(P[i][j] for i in range(n) for j in range(i)), *(P[i][i] // 2 for i in range(n)))
    dual = _stored([[N * v // (content * det) for v in row] for row in adj], 1, N ** n // W._det)
    return dual, N // math.gcd(N, c)


def double(Q: GramMatrix) -> GramMatrix:
    """Entrywise 2Q: Gram matrix of the sqrt(2)-rescaled lattice.

    2Q of a valid form is one, so it is stored unchecked.  With
    g = gcd(2, d), 2P / g over d / g is in lowest terms, as P / d is: an odd
    d shares no factor with 2P that it does not share with P, and an even
    d / 2 divides d.
    """
    g = math.gcd(2, Q._d)
    return _scaled(Q, 2 // g, Q._d // g)


def _scaled(Q: GramMatrix, k: int, d: int) -> GramMatrix:
    """The form k P / d of Q = P / d', in lowest terms, stored unchecked.

    Its determinant is k^n det P, and k P = (k c) P0 keeps Q's elimination.
    """
    adj, det0, c = Q._inverse
    R = _stored([[k * p for p in row] for row in Q._P], d, k ** Q.n * Q._det)
    R.__dict__["_inverse"] = adj, det0, k * c
    return R


# ---------------------------------------------------------------------------
# serialization


def gram_from_json(text: str) -> GramMatrix:
    obj = json.loads(text)
    Q = GramMatrix(obj["gram"], name=obj.get("name"))
    if "n" in obj and Q.n != obj["n"]:
        raise GramError("declared dimension does not match matrix size")
    return Q


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
