"""Shared independent oracles for the test suite.

Everything here is deliberately naive (boxes, nested loops, cofactor
formulas) so it cannot share a failure mode with the library's optimized
paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from latcrit import GramMatrix


def box_layers(Q: GramMatrix, bound) -> dict[Fraction, int]:
    """Brute-force layer cardinalities: exhaust the covering coordinate box."""
    bound = Fraction(bound)
    n = Q.n
    rows, d = Q.integral_rescale()
    P = np.array(rows, dtype=np.int64)
    bint = int(bound * d) if (bound * d).denominator == 1 else math.floor(bound * d)
    Pinv = np.linalg.inv(P.astype(float))
    ks = [int(math.isqrt(int(math.floor(float(bint) * Pinv[i, i]))) + 1) for i in range(n)]
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in ks], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    X = X[np.any(X != 0, axis=1)]
    norms = np.einsum("ij,jk,ik->i", X, P, X)
    out: dict[Fraction, int] = {}
    for v in norms[norms <= bint]:
        m = Fraction(int(v), d)
        out[m] = out.get(m, 0) + 1
    return out


def fincke_pohst_rows(R: np.ndarray, bound: float) -> np.ndarray:
    """Per-node recursion over the Cholesky factor R, one scalar node at a time.

    The reference for ``shells._fp_rows``: the same float operations per node
    (1e-9 bound inflation, 1e-12 interval guards, u = r_ii*x_i + S_i, centres
    S[:i] + R[:i, i]*x_i, highest nonzero coordinate > 0), so the rows must
    agree exactly and in order.
    """
    n = R.shape[0]
    rows: list[list[int]] = []
    x = [0] * n

    def rec(i, S, budget, all_zero):
        rad = math.sqrt(budget)
        lo = math.ceil((-rad - S[i]) / R[i, i] - 1e-12)
        hi = math.floor((rad - S[i]) / R[i, i] + 1e-12)
        if all_zero:
            lo = max(lo, 1 if i == 0 else 0)
        for xi in range(lo, hi + 1):
            x[i] = xi
            if i == 0:
                rows.append(list(x))
                continue
            u = R[i, i] * xi + S[i]
            if budget - u * u >= 0:
                rec(i - 1, S[:i] + R[:i, i] * xi, budget - u * u, all_zero and xi == 0)
        x[i] = 0

    rec(n - 1, np.zeros(n), bound + (1e-9 * bound + 1e-9), True)
    return np.array(rows, dtype=np.int64).reshape(-1, n)


def box_vectors(Q: GramMatrix, norm) -> list[tuple[int, ...]]:
    """All integer vectors with Q[x] equal to the given norm, by box search."""
    norm = Fraction(norm)
    n = Q.n
    rows, d = Q.integral_rescale()
    P = np.array(rows, dtype=np.int64)
    target = norm * d
    if target.denominator != 1:
        return []
    Pinv = np.linalg.inv(P.astype(float))
    ks = [int(math.isqrt(int(math.floor(float(target) * Pinv[i, i]))) + 1) for i in range(n)]
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in ks], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    norms = np.einsum("ij,jk,ik->i", X, P, X)
    return [tuple(int(v) for v in row) for row in X[norms == int(target)]]


def pair_sum_bruteforce(vectors, Q: GramMatrix, t: int) -> Fraction:
    """Sum over all ordered pairs of (x^t Q y)^t with nested loops.

    Runs in the integers of d*Q and divides by d^t once at the end.
    """
    rows, d = Q.integral_rescale()
    n = Q.n
    vecs = [list(map(int, v)) for v in vectors]
    total = 0
    for x in vecs:
        px = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(n)]
        for y in vecs:
            total += sum(px[i] * y[i] for i in range(n)) ** t
    return Fraction(total, d ** t)


def moment_identity_holds(Q: GramMatrix, vectors) -> bool:
    """n * S == m * |M| * Q^{-1} entrywise for a layer M of norm m.

    S is summed from the given vectors; Q^{-1} is adj(Q) / det(Q) with
    cofactors from Bareiss determinants, so both sides are multiplied by
    det(Q) and compared exactly.
    """
    n = Q.n
    vecs = [list(map(int, v)) for v in vectors]
    m = Q.inner(vecs[0], vecs[0])
    det = bareiss_determinant(Q.entries)
    for i in range(n):
        for j in range(n):
            s_ij = sum(v[i] * v[j] for v in vecs)
            minor = [[Q.entries[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            adj_ij = (-1) ** (i + j) * bareiss_determinant(minor)
            if n * s_ij * det != m * len(vecs) * adj_ij:
                return False
    return True


def bareiss_determinant(rows) -> Fraction:
    """Fraction-free (Bareiss) determinant, independent of the library path."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    prev = Fraction(1)
    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_lll_reduced(Q: GramMatrix) -> bool:
    """|mu_ij| <= 1/2 and the Lovasz condition at delta = 99/100, exactly.

    Gram-Schmidt straight from the entries: mu_ij = (Q_ij - sum_{l<j}
    mu_il mu_jl B_l) / B_j and B_i = Q_ii - sum_{l<i} mu_il^2 B_l, with
    B_i = |b_i*|^2, in nested loops over Fractions.
    """
    n = Q.n
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Q.entries[i][j]
            for l in range(j):
                s -= mu[i][l] * mu[j][l] * B[l]
            mu[i][j] = s / B[j]
        B[i] = Q.entries[i][i] - sum((mu[i][l] ** 2 * B[l] for l in range(i)), Fraction(0))
    size_reduced = all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    lovasz = all(B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * B[k - 1]
                 for k in range(1, n))
    return size_reduced and lovasz


def random_unimodular(n: int, rng, ops: int = 8, entry_bound: int = 2) -> np.ndarray:
    """Product of integer shear/swap matrices: det +-1, smallish entries."""
    U = np.eye(n, dtype=np.int64)
    for _ in range(ops):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        E = np.eye(n, dtype=np.int64)
        E[i, j] = int(rng.integers(-entry_bound, entry_bound + 1))
        U = U @ E
    if rng.integers(0, 2):
        U[[0, -1]] = U[[-1, 0]]
    return U


def transform_gram(Q: GramMatrix, U: np.ndarray) -> GramMatrix:
    G = np.array([[v for v in row] for row in Q.entries], dtype=object)
    Uo = U.astype(object)
    return GramMatrix((Uo.T @ G @ Uo).tolist())


def random_rational_spd(n: int, rng, denom: int = 4) -> GramMatrix:
    """Random SPD rational matrix: B^t B + eps I with rational B."""
    B = rng.integers(-3, 4, size=(n, n)).astype(object)
    G = B.T @ B
    rows = [[Fraction(int(G[i, j]), 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] += Fraction(1 + int(rng.integers(0, denom)), denom)
    return GramMatrix(rows)
