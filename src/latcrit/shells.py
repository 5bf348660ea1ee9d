"""Short-vector enumeration and layer decomposition.

All nonzero integer vectors x with Q[x] <= B are found by a branch-and-bound
walk over a floating-point Cholesky factorization (Fincke-Pohst).  Every
exact walk starts from one walk record (``walk_record``): the exact integral
LLL reduction Q_red = U^t Q U, its integral rows as int64, their
denominator and U.  The certificate (``layer_moments``,
``enumerate_layers``) and both sides of the height walk those rows: a
walked vector z is the vector U z of Q's basis, with the same norm, and the
height keeps its majorants on Q's basis, so that no radius moves.
The walk (``_fp_rows``) expands the sparse top of the tree node by node on
Python floats and the levels below over numpy frontiers, depth first; both
phases run the same IEEE operations in the same order, so the yields, and
with them the completeness argument below, do not depend on where it hands
over.  It yields its leaves compact, in slices of at most ``_CHUNK_ROWS``:
the level-0 parents, and each leaf's parent index, last coordinate x_0 and
norm.  The certificates gather them into int64 rows by ``HalfSet.rows``;
the height's one collector (``short_vectors_float``) keeps them compact and
sliced (``HalfSet``), so that the height sums over each parent's leaves in
closed form.  The float search tree is pruned with an inflated bound and
every candidate is re-verified with its exact norm, so the resulting layers
are complete and exact.  Each leaf's norm is the leaf quadratic
(P_00 x_0 + 2b) x_0 + c, with b and c computed once per parent: on an
integral form it is exact in float64 while ``_norm_magnitude`` is below
2^53, and beyond that the certificate's norms run in Python ints.  The same
magnitude bounds the walk's coordinates and decides, once per walk, whether
the vectors in input coordinates fit int64; ``_moments`` decides the same
for their moments, from its own rows.

Only one representative per antipodal pair {x, -x} is walked (the highest
nonzero coordinate is kept positive); full layers are reconstituted from the
halves.  A streaming interface accumulates per-layer counts and second
moments without storing vectors; every 2-design verdict (``fully_critical``
and the ``design`` command) reads it.  Both the stored and the streamed
layers group vectors by sorting their norms and cutting the runs of equal
norms (``_runs``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .gram import GramMatrix, RationalLike, _as_fraction, _stored

_CHUNK_ROWS = 1 << 14
_SCALAR_CHILDREN = 32
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


def lll_reduce(Q: GramMatrix) -> tuple[GramMatrix, np.ndarray]:
    """Exact LLL reduction (delta = 99/100); returns (Q_red, U) with Q_red = U^t Q U.

    U is int64, or holds Python ints (object dtype) when an entry leaves int64.

    Integral LLL on the Gram matrix alone (Cohen, "A Course in Computational
    Algebraic Number Theory", Alg. 2.6.7), run on the integral form
    G = d Q: scaling the form scales every |b_i*|^2 alike and leaves each mu
    unchanged, so the decisions are those on Q.  Every column operation that
    builds the unimodular U -- the size reduction b_k -= q*b_j and the swap
    b_k <-> b_{k-1} -- is applied to G in place, on its columns and rows, so
    G = d U^t Q U throughout.  The Gram-Schmidt data are the ints
    D[i+1] = |b_0*|^2 ... |b_i*|^2 (the leading minors of G, D[0] = 1) and
    lam[k][j] = D[j+1] mu_kj.  Rows from the first one a swap or an advance
    made stale up to k are rebuilt from G at each step, and a size
    reduction updates row k in place.  With B_k = |b_k*|^2 = D[k+1] / D[k]:

    - rounding: q = floor((2 lam_kj + D[j+1]) / (2 D[j+1])) = floor(mu_kj + 1/2);
    - Lovasz: 100 D[k+1] D[k-1] >= 99 D[k]^2 - 100 lam_k,k-1^2 is
      B_k >= (99/100 - mu_k,k-1^2) B_{k-1} multiplied by 100 D[k] D[k-1] > 0.
    """
    G, d = Q.integral_rescale()
    n = len(G)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def gso_row(i):
        # Cohen 2.6.7, step 2: lam[i][j] and D[i+1] from G and the rows above
        for j in range(i + 1):
            u = G[i][j]
            for l in range(j):
                u = (D[l + 1] * u - lam[i][l] * lam[j][l]) // D[l]
            if j < i:
                lam[i][j] = u
            else:
                D[i + 1] = u

    k, stale = 1, 0
    while k < n:
        for i in range(stale, k + 1):
            gso_row(i)
        for j in range(k - 1, -1, -1):
            q = (2 * lam[k][j] + D[j + 1]) // (2 * D[j + 1])
            if q != 0:
                for row in U:
                    row[k] -= q * row[j]
                for row in G:
                    row[k] -= q * row[j]
                G[k] = [a - q * b for a, b in zip(G[k], G[j])]
                lam[k][j] -= q * D[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        if 100 * D[k + 1] * D[k - 1] >= 99 * D[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            k += 1
            stale = k
        else:
            for row in U + G:
                row[k], row[k - 1] = row[k - 1], row[k]
            G[k], G[k - 1] = G[k - 1], G[k]
            stale = k - 1
            k = max(k - 1, 1)

    fits = all(-2 ** 63 <= u < 2 ** 63 for row in U for u in row)
    # U^t G U with U unimodular keeps the determinant and the content of G,
    # so G / d is still symmetric, positive definite and in lowest terms
    return _stored(G, d, Q._det), np.array(U, dtype=np.int64 if fits else object)


# ---------------------------------------------------------------------------
# Fincke-Pohst core


def _fp_rows(P: np.ndarray, bound: float) -> Iterator[tuple]:
    """Yield (X, p, x0, norms) covering every x != 0 with P[x] <= bound, in float64.

    The leaves come compact, one level-0 slice at a time: X holds the
    level-0 parents (their x_0 = 0), and leaf k is the row X[p[k]] with
    x_0 = x0[k], of norm norms[k]; slices of one parent frontier share X.

    The walk factors P = R^t R (Cholesky) and goes from coordinate n-1 down
    to 0.  A node at level i holds its fixed coordinates, its centres
    S[:i+1] and its budget; its children x_i fill the interval
    |r_ii*x_i + S_i| <= sqrt(budget) and keep budget - u^2 (u = r_ii*x_i +
    S_i, pruned if negative) and centres S[:i] + R[:i, i]*x_i.

    The walk has two phases that run these IEEE operations in the same
    order, so they give bit-identical nodes.  The sparse top of the tree is
    expanded node by node on Python floats while a whole level creates at
    most ``_SCALAR_CHILDREN`` children: a vectorized level costs about
    30 us of numpy calls however few nodes it holds, a Python child about
    1-2 us.  At the first level that would create more, and always at the
    leaf level, the frontier is handed over as arrays, in slices of at most
    ``_CHUNK_ROWS``, to the vectorized phase.  There a level's children are
    laid out by cumulative counts and cut into slices of at most
    ``_CHUNK_ROWS``; each child is mapped to its parent with one
    ``np.repeat`` of the parents' child counts, which a slice that does not
    hold every child clips to its first and last parent, found by
    bisection.  Each slice is walked to the leaves before the next, so leaves
    come out in per-node recursion order, p is nondecreasing, and no
    frontier or slice exceeds ``_CHUNK_ROWS`` rows.  One slice per level is
    alive, about 16n + 120 bytes a row, so memory is at most
    n * (16n + 120) * _CHUNK_ROWS bytes (27 MB at n = 7, 2^14 rows); the
    scalar frontier holds at most ``_SCALAR_CHILDREN`` nodes, so the bound
    stands.  The tracemalloc peak of ``fully_critical(stf28a, 46)``, the
    reference-N walk of 6.5 M pairs, is 12 MB, against 41 MB at 2^16 rows.

    A leaf's norm is the leaf quadratic (P_00 x_0 + 2b) x_0 + c, where the
    parents at level 0 (their x_0 = 0) give b = P[0, :] x and c = P[x] once
    each, about one parent per three leaves.  On an integral P whose
    ``_norm_magnitude`` is below FLOAT_EXACT every product and partial sum
    of b, c and the quadratic is an integer below 2^53 (each is bounded by
    part of the magnitude's sum), so the norms are the exact P[x] in any
    summation order; otherwise they are float64 roundings of P[x].

    Nodes whose fixed coordinates are all zero take x_i >= 0 (x_0 >= 1), so
    the highest nonzero coordinate is positive: one vector per antipodal
    pair.  The bound carries a 1e-9 relative inflation and the interval ends
    a 1e-12 guard, so boundary vectors are never pruned; callers filter.
    """
    n = P.shape[0]
    R = np.linalg.cholesky(P).T.copy()

    def expand(i, X, S, budget, zero):
        rii, t = R[i, i], S[:, i]
        rad = np.sqrt(budget)
        lo = np.ceil((-rad - t) / rii - 1e-12).astype(np.int64)
        hi = np.floor((rad - t) / rii + 1e-12).astype(np.int64)
        lo = np.where(zero, np.maximum(lo, 1 if i == 0 else 0), lo)
        size = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(size)
        # parent p's children are the indices ends[p] - size[p] .. ends[p] - 1,
        # the last one x = hi[p], so child j of parent p has x = j + 1 - off[p]
        off = ends - hi
        del rad, lo, hi  # size, ends and off are all the recursion below keeps alive
        if i == 0:  # the leaf quadratic's parent terms; X[:, 0] = 0, so Y[:, 0] = b
            Y = X @ P
            b2, c = 2.0 * Y[:, 0], (Y * X) @ np.ones(n)
            del Y
        total = int(ends[-1]) if len(ends) else 0
        for a in range(0, total, _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, total)
            if b - a == total:  # one slice holds every child
                p = np.repeat(np.arange(len(size)), size)
            else:  # parents p0 .. p1 - 1 cover the slice [a, b); clip the edge counts to it
                p0 = int(ends.searchsorted(a, "right"))
                p1 = int(ends.searchsorted(b - 1, "right")) + 1
                cnt = size[p0:p1].copy()
                cnt[0] -= a - (ends[p0] - size[p0])
                cnt[-1] -= ends[p1 - 1] - b
                p = np.repeat(np.arange(p0, p1), cnt)
            x = np.arange(a + 1.0, b + 1.0) - off[p]
            if i == 0:
                yield X, p, x, (P[0, 0] * x + b2[p]) * x + c[p]
                continue
            u = rii * x + t[p]
            nb = budget[p] - u * u
            keep = nb >= 0
            p, x, nb = p[keep], x[keep], nb[keep]
            Xc = X[p]
            Xc[:, i] = x
            yield from expand(i - 1, Xc, S[p, :i] + R[:i, i] * x[:, None], nb, zero[p] & (x == 0))

    # the scalar phase: the nodes (x_i+1 .. x_n-1, S[:i+1], budget, zero) of level i
    Rl = R.tolist()
    nodes = [((), [0.0] * n, bound + (1e-9 * bound + 1e-9), True)]
    i = n - 1
    while i > 0:
        rii, col = Rl[i][i], [row[i] for row in Rl[:i]]
        spans, total = [], 0
        for _, S, budget, zero in nodes:
            rad, t = math.sqrt(budget), S[i]
            lo = math.ceil((-rad - t) / rii - 1e-12)
            lo = max(lo, 0) if zero else lo
            hi = math.floor((rad - t) / rii + 1e-12)
            spans.append((lo, hi))
            total += max(hi - lo + 1, 0)
        if total > _SCALAR_CHILDREN:
            break
        children = []
        for (xs, S, budget, zero), (lo, hi) in zip(nodes, spans):
            for x in range(lo, hi + 1):
                u = rii * x + S[i]
                nb = budget - u * u
                if nb >= 0:
                    children.append(((x, *xs), [s + r * x for s, r in zip(S, col)], nb,
                                     zero and x == 0))
        nodes = children
        i -= 1
    # never empty: the all-zero node has lo <= 0 <= hi and keeps x_i = 0 at its full budget
    xs, S, budget, zero = zip(*nodes)
    X = np.zeros((len(nodes), n))
    X[:, i + 1:] = xs
    S, budget, zero = np.array(S), np.array(budget), np.array(zero)
    for a in range(0, len(nodes), _CHUNK_ROWS):
        b = a + _CHUNK_ROWS
        yield from expand(i, X[a:b], S[a:b], budget[a:b], zero[a:b])


# Integers of magnitude below 2^53 are exact in binary64 (Higham, "Accuracy
# and Stability of Numerical Algorithms"); INT64_SAFE is half of int64's 2^63.
FLOAT_EXACT = 2.0 ** 53
INT64_SAFE = 2.0 ** 62


def _slack_bound(bound: float) -> float:
    """bound (1 + 1e-9) + 1e-9: the height collector's mask, a relative 1e-9 slack."""
    return bound * (1 + 1e-9) + 1e-9


def _norm_magnitude(P: np.ndarray, bound: int) -> float:
    """A bound on every product and partial sum of the norms of the walk to P[x] <= bound.

    P is an integral form (int64, or float holding integers), inverted in
    floats; every caller passes a walk record's reduced rows
    (``walk_record``).  A walked row has |x_k| <= sqrt(bound (P^-1)_kk)
    plus the walk's slack, so with xmax_k = that root + 2 the sum
    sum_jk xmax_j |P_jk| xmax_k bounds sum_jk |x_j||P_jk||x_k|, and, as
    every xmax_k >= 2, also each entry of X @ P, each product and each
    partial sum, in any order, and each partial result of the walk's leaf
    quadratic (see ``_fp_rows``).  Its terms are nonnegative, so it is at
    least P_kk xmax_k^2.
    """
    Pf = np.asarray(P, dtype=float)
    xmax = np.sqrt(np.maximum(np.diag(np.linalg.inv(Pf)), 0.0) * float(bound)) + 2.0
    return float(xmax @ np.abs(Pf) @ xmax)


def _exact_norms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Exact norms P[x] of the int64 rows X in Python ints (an object array).

    The route of walks whose ``_norm_magnitude`` reaches FLOAT_EXACT, where
    the walk's own norms may be rounded.
    """
    Xo = X.astype(object)
    return np.asarray((Xo @ P.astype(object) * Xo).sum(axis=1))


def walk_record(Q: GramMatrix) -> tuple:
    """(Q_red, P, d, U): the walk record of Q, where every exact walk starts.

    Q_red = U^t Q U is the exact LLL reduction of Q (``lll_reduce``) and P
    its integral form d Q_red as int64 rows, or None when an entry leaves
    int64: the walk runs on int64 rows, so the certificate refuses such a
    form (``_half_candidates``) and the height walks Q_red in floats.
    """
    Qred, U = lll_reduce(Q)
    rows, d = Qred.integral_rescale()
    fits = all(-2 ** 63 <= v < 2 ** 63 for row in rows for v in row)
    return Qred, np.array(rows, dtype=np.int64) if fits else None, d, U


def _half_candidates(
    Q: GramMatrix,
    bound: Fraction,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield (X_orig, norms_scaled, denominator) chunks of exact short vectors.

    The walk is Q's record's (``walk_record``).  X_orig rows are in the
    coordinates of Q; norms_scaled are integers equal to d * Q[x] where d
    clears the denominators of Q.  X_orig holds Python ints unless its
    entries, and so the map back's partial sums, stay below INT64_SAFE:
    walked coordinates are at most xmax_k <= sqrt(magnitude / P_kk)
    (``_norm_magnitude``), input ones at most |U| xmax.  A negative
    ``max_vectors`` is refused, and so is a form whose record has no int64
    rows.
    """
    if bound <= 0:
        raise ValueError("enumeration bound must be positive")
    if max_vectors < 0:
        raise ValueError(f"enumeration budget must be nonnegative, got {max_vectors}")
    _, P, d, U = walk_record(Q)
    if P is None:
        raise ValueError("cannot walk this form: its LLL-reduced integral form has an entry "
                         "beyond int64 (|entry| >= 2^63), and the walk runs on int64 rows")
    bound_int = math.floor(bound * d)
    if bound_int < 1:
        return
    magnitude = _norm_magnitude(P, bound_int)
    walk_exact = magnitude < FLOAT_EXACT
    coord = float((np.abs(U) @ np.sqrt(magnitude / np.diag(P))).max())
    if coord >= INT64_SAFE:
        U = U.astype(object)
    seen = 0
    for X, p, x, norms in _fp_rows(P.astype(float), float(bound_int)):
        X = HalfSet(X, p, x).rows()
        norms = norms.astype(np.int64) if walk_exact else _exact_norms(X, P)
        mask = norms <= bound_int
        X, norms = X[mask], norms[mask]
        if len(X) == 0:
            continue
        seen += 2 * len(X)
        if seen > max_vectors:
            raise EnumerationBudgetError(seen, max_vectors, bound)
        Xo = X.astype(U.dtype, copy=False) @ U.T  # back to input coordinates
        yield Xo, norms, d


# ---------------------------------------------------------------------------
# layers


def _sorted_rows(X: np.ndarray, norms: np.ndarray) -> np.ndarray:
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (norms,)
    return np.lexsort(keys)


def _runs(norms: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """(norm, start, stop) of each run of equal values in sorted norms; none for no norms."""
    cuts = [0, *(np.flatnonzero(norms[1:] != norms[:-1]) + 1).tolist(), len(norms)]
    return ((norms[a], a, b) for a, b in zip(cuts, cuts[1:]) if a < b)


def enumerate_layers(
    Q: GramMatrix,
    bound: RationalLike,
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> dict[Fraction, np.ndarray]:
    """Every nonzero x with 0 < Q[x] <= bound, grouped by exact norm.

    Returns {norm: vectors} in increasing norm order; each layer's vectors
    are int64 rows in input coordinates, antipodally closed and lex-sorted.
    """
    bound = _as_fraction(bound)
    halves: list[np.ndarray] = []
    norm_chunks: list[np.ndarray] = []
    denom = 1
    for X, norms, d in _half_candidates(Q, bound, max_vectors=max_vectors):
        if X.dtype == object and np.abs(X).max() >= 2 ** 63:
            raise ValueError(f"layer vectors up to Q[x] <= {bound} leave int64")
        halves.append(X.astype(np.int64, copy=False))
        norm_chunks.append(norms)
        denom = d
    if not halves:
        return {}
    Xh = np.concatenate(halves)
    nh = np.concatenate(norm_chunks)
    X = np.concatenate([Xh, -Xh])
    norms = np.concatenate([nh, nh])
    order = _sorted_rows(X, norms)
    X, norms = X[order], norms[order]
    return {Fraction(int(m), denom): X[a:b] for m, a, b in _runs(norms)}


def cardinality_vector(layers: dict[Fraction, np.ndarray], upto: int) -> list[int]:
    """Dense cardinality vector at integer norms 1..upto (zeros for empty layers).

    Only meaningful for integral Gram matrices, where all norms are integers.
    """
    out = [0] * upto
    for m, X in layers.items():
        if m.denominator != 1:
            raise ValueError("dense cardinality vector requires integral norms")
        if 1 <= m <= upto:
            out[int(m) - 1] = len(X)
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
    x x^t as an object-dtype array of Python ints, added up chunk by chunk
    (``_moments``).
    """
    bound = _as_fraction(bound)
    acc: dict[int, list] = {}
    denom = 1
    n = Q.n
    for X, norms, d in _half_candidates(Q, bound, max_vectors=max_vectors):
        denom = d
        for m, card, S in _moments(X, norms):
            slot = acc.setdefault(m, [0, np.zeros((n, n), dtype=object)])
            slot[0] += card
            slot[1] = slot[1] + S
    return {
        Fraction(m, denom): (cnt, S) for m, (cnt, S) in sorted(acc.items())
    }


def _moments(X: np.ndarray, norms: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(norm, count, S) of each norm among the half-layer rows X, in increasing norm, one at a time.

    The rows are grouped by one stable sort of their integer norms; each
    run of equal norms gives its count and X^t X, both doubled for the
    antipodes, S in Python ints; no rows give none.  The products run in
    the dtype ``_summable`` picks from these rows: the one int64 rule.
    """
    X = _summable(X)
    order = np.argsort(norms, kind="stable")
    X, norms = X[order], norms[order]
    for m, a, b in _runs(norms):
        Xg = X[a:b]
        yield int(m), 2 * len(Xg), 2 * (Xg.T @ Xg).astype(object)


def _summable(X: np.ndarray) -> np.ndarray:
    """X, or X in Python ints unless INT64_SAFE bounds len(X) max|X|^2, and so X^t X's sums."""
    return X if len(X) * float(np.abs(X).max(initial=0)) ** 2 < INT64_SAFE else X.astype(object)


# ---------------------------------------------------------------------------
# the height's collector (it walks the form it is given: on an exact input, a walk record's rows)


class HalfSet:
    """Float vectors in the walk's compact form: vector k is parents[parent[k]] with x_0 = x0[k].

    A walk's set keeps the walk's slices (X, p, x_0) as they came
    (``_fp_rows``): p indexes the slice's frontier X of level-0 parents, and
    consecutive slices may share one X.  ``parents``, ``parent`` and ``x0``
    join them on first read: the frontiers concatenated once each, the
    indices offset into them; ``parents`` hold x_0 = 0 and ``parent`` is
    nondecreasing, so each parent's vectors are consecutive.  ``len`` counts
    the vectors and ``rows`` gathers them slice by slice, so neither joins.
    """

    def __init__(self, parents: np.ndarray, parent: np.ndarray, x0: np.ndarray):
        self.slices = ((parents, parent, x0),)  # (parents, n) float, (vectors,) intp and float

    @classmethod
    def walked(cls, slices: tuple) -> HalfSet:
        """The set of a walk's slices (X, p, x_0), at least one, joined on first read."""
        half = cls.__new__(cls)
        half.slices = slices
        return half

    def __len__(self) -> int:
        return sum(len(x) for _, _, x in self.slices)

    @functools.cached_property
    def _joined(self) -> tuple:
        if len(self.slices) == 1:
            return self.slices[0]
        frontiers, parent, start = [], [], 0
        for X, p, _ in self.slices:
            if not frontiers or X is not frontiers[-1]:  # a new frontier, indexed from ``start``
                start += len(frontiers[-1]) if frontiers else 0
                frontiers.append(X)
            parent.append(p + start)
        return (np.concatenate(frontiers), np.concatenate(parent),
                np.concatenate([x for _, _, x in self.slices]))

    parents = property(lambda self: self._joined[0])
    parent = property(lambda self: self._joined[1])
    x0 = property(lambda self: self._joined[2])

    def rows(self, pick=None) -> np.ndarray:
        """The vectors ``pick`` (increasing indices; all by default) as int64 rows, from a walk
        of an integral form, gathered slice by slice."""
        out, start = [], 0
        for X, p, x in self.slices:
            k = slice(None)
            if pick is not None:
                stop = start + len(x)
                k = pick[pick.searchsorted(start):pick.searchsorted(stop)] - start
                start = stop
            R = X[p[k]]
            R[:, 0] = x[k]
            out.append(R)
        return (out[0] if len(out) == 1 else np.concatenate(out)).astype(np.int64)


def short_vectors_float(Qf: np.ndarray, bound: float) -> tuple[HalfSet, np.ndarray]:
    """Half-set {x != 0 : Qf[x] <= bound} of an SPD matrix, with float norms.

    The height's one collector.  Each slice of the walk's leaves comes with
    their norms (``_fp_rows``) and is masked at ``_slack_bound(bound)``:
    the relative 1e-9 slack keeps the vectors whose rounded norm lands just
    above the bound.  On an integral form whose ``_norm_magnitude`` is below
    FLOAT_EXACT the norms are the exact integers.  Returns (half, norms),
    one representative per antipodal pair, in the walk's order, which does
    not depend on the bound; they are not sorted by norm.  ``half`` keeps
    the walk's compact level-0 form slice by slice, joined only when its
    parents, parent indices or x_0 are read (``HalfSet``); ``norms`` is one
    array.  The bound must be finite and nonnegative.  More kept vectors
    (two per leaf) than ``DEFAULT_MAX_VECTORS``, read at each call, raise
    EnumerationBudgetError.
    """
    bound = float(bound)
    if not (math.isfinite(bound) and bound >= 0):
        raise ValueError(f"enumeration bound must be finite and nonnegative, got {bound}")
    Qf = np.asarray(Qf, dtype=float)
    cut = _slack_bound(bound)
    slices, norm_slices, seen = [], [], 0
    for X, p, x, norms in _fp_rows(Qf, bound):
        keep = norms <= cut
        if not keep.all():
            p, x, norms = p[keep], x[keep], norms[keep]
        seen += 2 * len(x)
        if seen > DEFAULT_MAX_VECTORS:
            raise EnumerationBudgetError(seen, DEFAULT_MAX_VECTORS, bound)
        slices.append((X, p, x))
        norm_slices.append(norms)
    if not slices:
        return HalfSet(np.empty((0, Qf.shape[0])), np.empty(0, np.intp), np.empty(0)), np.empty(0)
    return HalfSet.walked(tuple(slices)), (norm_slices[0] if len(norm_slices) == 1
                                           else np.concatenate(norm_slices))


def dump_spectrum(layers: dict[Fraction, np.ndarray]) -> str:
    """Layer dump format: 'm_k count' header lines, one vector per line."""
    lines = []
    for m, X in layers.items():
        lines.append(f"{m} {len(X)}")
        for row in X:
            lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + ("\n" if lines else "")
