"""Short-vector enumeration and layer decomposition.

All nonzero integer vectors x with Q[x] <= B are found by a branch-and-bound
walk over a floating-point Cholesky factorization (Fincke-Pohst), after an
exact LLL reduction of the Gram matrix that updates the reduced Gram matrix
in place with each column operation.  The walk (``_fp_rows``) goes one
tree level at a time over numpy frontiers, depth first, and yields int64 row
arrays of at most ``_CHUNK_ROWS`` rows; both the exact path
(``_half_candidates``) and the float path (``short_vectors_float``) read
them.  The float search tree is pruned with an inflated bound and every
candidate is re-verified in exact integer arithmetic, so the resulting layers
are complete and exact.

Only one representative per antipodal pair {x, -x} is walked (the highest
nonzero coordinate is kept positive); full layers are reconstituted from the
halves.  A streaming interface accumulates per-layer counts and second
moments without storing vectors, which is what the certification driver uses
for large bounds.  Both the stored and the streamed layers group vectors by
sorting their norms and cutting the runs of equal norms (``_runs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .gram import GramMatrix, RationalLike, _as_fraction

_CHUNK_ROWS = 1 << 14
DEFAULT_MAX_VECTORS = 60_000_000


class EnumerationBudgetError(RuntimeError):
    """The vector budget was exhausted before the bound was covered."""

    def __init__(self, processed: int, budget: int, bound):
        self.processed = processed
        self.budget = budget
        self.bound = bound
        super().__init__(
            f"enumeration budget exceeded: {processed} vectors seen "
            f"(budget {budget}) before covering Q[x] <= {bound}"
        )


# ---------------------------------------------------------------------------
# exact LLL reduction on the Gram matrix


_LLL_DELTA = Fraction(99, 100)


def lll_reduce(Q: GramMatrix) -> tuple[GramMatrix, np.ndarray]:
    """Exact LLL reduction (delta = 99/100); returns (Q_red, U) with Q_red = U^t Q U.

    Works on the Gram matrix alone (no basis embedding), as in Cohen, "A
    Course in Computational Algebraic Number Theory", 2.6.  G starts as Q and
    every column operation that builds the unimodular U -- the size reduction
    b_k -= q*b_j and the swap b_k <-> b_{k-1} -- is applied to G in place, on
    its columns and rows, so G = U^t Q U throughout.  The Gram-Schmidt data
    of b_0..b_k is read off G in rational arithmetic at each step, and a size
    reduction updates row k of mu in place.
    """
    n = Q.n
    G = [[Fraction(v) for v in row] for row in Q.entries]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def gso(k):
        # mu[i][j] and B[i] = |b_i*|^2 for i <= k
        mu = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        B = [Fraction(0)] * (k + 1)
        r = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        for i in range(k + 1):
            for j in range(i + 1):
                s = G[i][j]
                for l in range(j):
                    s -= r[i][l] * mu[j][l]
                r[i][j] = s
                if j < i:
                    mu[i][j] = s / B[j]
                else:
                    B[i] = s
        return mu, B

    k = 1
    while k < n:
        mu, B = gso(k)
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q != 0:
                for row in U:
                    row[k] -= q * row[j]
                for row in G:
                    row[k] -= q * row[j]
                G[k] = [a - q * b for a, b in zip(G[k], G[j])]
                mu[k][j] -= q
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
        if B[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            for row in U + G:
                row[k], row[k - 1] = row[k - 1], row[k]
            G[k], G[k - 1] = G[k - 1], G[k]
            k = max(k - 1, 1)

    return GramMatrix(G), np.array(U, dtype=np.int64)


# ---------------------------------------------------------------------------
# Fincke-Pohst core


def _fp_rows(R: np.ndarray, bound: float) -> Iterator[np.ndarray]:
    """Yield int64 row arrays covering every x != 0 with |R x|^2 <= bound.

    The Cholesky factor R is walked from coordinate n-1 down to 0 over numpy
    frontiers.  A node at level i holds its fixed coordinates, its centres
    S[:i+1] and its budget; its children x_i fill the interval
    |r_ii*x_i + S_i| <= sqrt(budget), laid out by cumulative counts and
    offsets, and keep budget - u^2 (u = r_ii*x_i + S_i, pruned if negative)
    and centres S[:i] + R[:i, i]*x_i.  Children are cut into slices of at
    most ``_CHUNK_ROWS`` and each slice is walked to the leaves before the
    next, so rows come out in per-node recursion order and no frontier or
    yielded array exceeds ``_CHUNK_ROWS`` rows.  One slice per level is
    alive, about 16n + 120 bytes a row, so memory is at most
    n * (16n + 120) * _CHUNK_ROWS bytes (27 MB at n = 7, 2^14 rows); the
    traced peak of ``fully_critical(stf28a, max_vectors=4_000_000)`` is
    12 MB, against 46 MB at 2^16 rows.

    Nodes whose fixed coordinates are all zero take x_i >= 0 (x_0 >= 1), so
    the highest nonzero coordinate is positive: one vector per antipodal
    pair.  The bound carries a 1e-9 relative inflation and the interval ends
    a 1e-12 guard, so boundary vectors are never pruned; callers filter.
    """
    n = R.shape[0]

    def expand(i, X, S, budget, zero):
        rii, t = R[i, i], S[:, i]
        rad = np.sqrt(budget)
        lo = np.ceil((-rad - t) / rii - 1e-12).astype(np.int64)
        hi = np.floor((rad - t) / rii + 1e-12).astype(np.int64)
        lo = np.where(zero, np.maximum(lo, 1 if i == 0 else 0), lo)
        ends = np.cumsum(np.maximum(hi - lo + 1, 0))
        total = int(ends[-1]) if len(ends) else 0
        for a in range(0, total, _CHUNK_ROWS):
            # parent p's children are the indices up to ends[p] - 1, which is x = hi[p]
            j = np.arange(a, min(a + _CHUNK_ROWS, total))
            p = np.searchsorted(ends, j, side="right")
            x = hi[p] + (j - ends[p] + 1)
            if i == 0:
                rows = X[p]
                rows[:, 0] = x
                yield rows
                continue
            u = rii * x + t[p]
            nb = budget[p] - u * u
            keep = nb >= 0
            p, x, nb = p[keep], x[keep], nb[keep]
            Xc = X[p]
            Xc[:, i] = x
            yield from expand(i - 1, Xc, S[p, :i] + R[:i, i] * x[:, None], nb, zero[p] & (x == 0))

    budget = bound + (1e-9 * bound + 1e-9)
    yield from expand(n - 1, np.zeros((1, n), dtype=np.int64), np.zeros((1, n)),
                      np.array([budget]), np.array([True]))


def _int_matrix_and_denominator(Q: GramMatrix) -> tuple[np.ndarray, int]:
    rows, d = Q.integral_rescale()
    return np.array(rows, dtype=np.int64), d


def _check_int64_safe(P: np.ndarray, bound_int: int) -> bool:
    # conservative overflow guard for norms computed by int64 einsum
    n = P.shape[0]
    Pf = np.abs(P).astype(float)
    dinv = np.linalg.inv(P.astype(float))
    xmax = np.sqrt(np.maximum(np.diag(dinv), 0.0) * float(bound_int)) + 2.0
    worst = float(xmax @ Pf @ xmax)
    return worst < 2**62


def _exact_norms(X: np.ndarray, P: np.ndarray, int64_safe: bool) -> np.ndarray:
    if int64_safe:
        return np.einsum("ij,jk,ik->i", X, P, X)
    Xo = X.astype(object)
    return np.asarray((Xo @ P.astype(object) * Xo).sum(axis=1))


def _half_candidates(
    Q: GramMatrix,
    bound: Fraction,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (X_orig, norms_scaled, denominator) chunks of exact short vectors.

    X_orig rows are in the coordinates of Q; norms_scaled are integers equal
    to d * Q[x] where d clears the denominators of Q.
    """
    if bound <= 0:
        raise ValueError("enumeration bound must be positive")
    Qred, U = lll_reduce(Q)
    P, d = _int_matrix_and_denominator(Qred)
    bound_int = math.floor(bound * d)
    if bound_int < 1:
        return
    L = np.linalg.cholesky(P.astype(float))
    R = L.T.copy()
    safe = _check_int64_safe(P, bound_int)
    seen = 0
    for X in _fp_rows(R, float(bound_int)):
        norms = _exact_norms(X, P, safe)
        mask = norms <= bound_int
        X, norms = X[mask], norms[mask]
        if len(X) == 0:
            continue
        seen += 2 * len(X)
        if seen > max_vectors:
            raise EnumerationBudgetError(seen, max_vectors, bound)
        Xo = X @ U.T  # back to input coordinates
        yield Xo, norms.astype(np.int64) if safe else norms, d


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True, eq=False)
class Layer:
    """All lattice vectors of one squared length, in input coordinates."""

    norm: Fraction
    vectors: np.ndarray  # (cardinality, n) int64, antipodally closed, sorted
    gram: GramMatrix

    @property
    def cardinality(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class LayerSpectrum:
    """Nonempty layers of Q with norm <= bound, strictly increasing in norm."""

    gram: GramMatrix
    bound: Fraction
    layers: tuple[Layer, ...]

    def norms(self) -> list[Fraction]:
        return [lay.norm for lay in self.layers]

    def layer_at(self, norm: RationalLike) -> Optional[Layer]:
        norm = _as_fraction(norm)
        for lay in self.layers:
            if lay.norm == norm:
                return lay
        return None


def half_layer(L: Layer) -> np.ndarray:
    """Representatives of the antipodal pairs of a layer.

    Convention: the highest-index nonzero coordinate is positive.  Empty
    layers give an empty array.
    """
    X = L.vectors
    if len(X) == 0:
        return X.reshape(0, L.gram.n)
    nz = X[:, ::-1] != 0
    last = X.shape[1] - 1 - np.argmax(nz, axis=1)
    sign = X[np.arange(len(X)), last]
    return X[sign > 0]


def _sorted_rows(X: np.ndarray, norms: np.ndarray) -> np.ndarray:
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (norms,)
    return np.lexsort(keys)


def _runs(norms: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """(norm, start, stop) of each run of equal values in sorted norms."""
    cuts = [0, *(np.flatnonzero(norms[1:] != norms[:-1]) + 1).tolist(), len(norms)]
    return ((norms[a], a, b) for a, b in zip(cuts, cuts[1:]))


def enumerate_layers(
    Q: GramMatrix,
    bound: RationalLike,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> LayerSpectrum:
    """Every nonzero x with 0 < Q[x] <= bound, grouped by exact norm."""
    bound = _as_fraction(bound)
    halves: list[np.ndarray] = []
    norm_chunks: list[np.ndarray] = []
    denom = 1
    for X, norms, d in _half_candidates(Q, bound, max_vectors=max_vectors):
        halves.append(X)
        norm_chunks.append(norms)
        denom = d
    if not halves:
        return LayerSpectrum(gram=Q, bound=bound, layers=())
    Xh = np.concatenate(halves)
    nh = np.concatenate(norm_chunks)
    X = np.concatenate([Xh, -Xh])
    norms = np.concatenate([nh, nh])
    order = _sorted_rows(X, norms)
    X, norms = X[order], norms[order]
    layers = tuple(Layer(norm=Fraction(int(m), denom), vectors=X[a:b], gram=Q)
                   for m, a, b in _runs(norms))
    return LayerSpectrum(gram=Q, bound=bound, layers=layers)


def layer_cardinalities(S: LayerSpectrum) -> list[tuple[Fraction, int]]:
    """(norm, cardinality) pairs of the nonempty layers, in norm order."""
    return [(lay.norm, lay.cardinality) for lay in S.layers]


def cardinality_vector(S: LayerSpectrum, upto: int, *, antipodal_pairs: bool = False) -> list[int]:
    """Dense cardinality vector at integer norms 1..upto (zeros for empty layers).

    Only meaningful for integral Gram matrices, where all norms are integers.
    ``antipodal_pairs`` counts {x, -x} once, the convention of the reference
    transcripts.
    """
    out = [0] * upto
    for lay in S.layers:
        if lay.norm.denominator != 1:
            raise ValueError("dense cardinality vector requires integral norms")
        m = int(lay.norm)
        if 1 <= m <= upto:
            out[m - 1] = lay.cardinality // 2 if antipodal_pairs else lay.cardinality
    return out


# ---------------------------------------------------------------------------
# streaming accumulation (no vector storage)


def layer_moments(
    Q: GramMatrix,
    bound: RationalLike,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> dict[Fraction, tuple[int, np.ndarray]]:
    """Per-layer cardinalities and exact second moments, streamed.

    Returns {norm: (cardinality, S)} with S = sum over the full layer of
    x x^t as an object-dtype array of Python ints.  Each chunk of half-layer
    vectors is grouped by one stable sort of its norms; every run of equal
    norms adds its X^t X (doubled for the antipodes) to that layer's sum.
    """
    bound = _as_fraction(bound)
    acc: dict[int, list] = {}
    denom = 1
    n = Q.n
    for X, norms, d in _half_candidates(Q, bound, max_vectors=max_vectors):
        denom = d
        order = np.argsort(norms, kind="stable")
        X, norms = X[order], norms[order]
        for m, a, b in _runs(norms):
            Xg = X[a:b]
            slot = acc.setdefault(int(m), [0, np.zeros((n, n), dtype=object)])
            slot[0] += 2 * len(Xg)
            slot[1] = slot[1] + 2 * (Xg.T @ Xg).astype(object)
    return {
        Fraction(m, denom): (cnt, S) for m, (cnt, S) in sorted(acc.items())
    }


# ---------------------------------------------------------------------------
# float-path collector (height machinery; no exact verification)


def short_vectors_float(Qf: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-set of short vectors of a float SPD matrix, with float norms.

    Used by the analytic (floating-point) code paths, where a relative 1e-9
    slack at the boundary is harmless.  Returns (X, norms) sorted by
    (norm, lexicographic), one representative per antipodal pair.
    """
    Qf = np.asarray(Qf, dtype=float)
    L = np.linalg.cholesky(Qf)
    R = L.T.copy()
    chunks = list(_fp_rows(R, float(bound)))
    if not chunks:
        return np.empty((0, Qf.shape[0]), dtype=np.int64), np.empty(0)
    X = np.concatenate(chunks)
    norms = np.einsum("ij,jk,ik->i", X.astype(float), Qf, X.astype(float))
    mask = norms <= bound * (1 + 1e-9) + 1e-9
    X, norms = X[mask], norms[mask]
    order = _sorted_rows(X, norms)
    return X[order], norms[order]


def dump_spectrum(S: LayerSpectrum) -> str:
    """Layer dump format: 'm_k count' header lines, one vector per line."""
    lines = []
    for lay in S.layers:
        m = lay.norm
        mtxt = str(m.numerator) if m.denominator == 1 else f"{m.numerator}/{m.denominator}"
        lines.append(f"{mtxt} {lay.cardinality}")
        for row in lay.vectors:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + ("\n" if lines else "")
