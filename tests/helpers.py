"""Shared independent oracles for the test suite.

Everything here is deliberately naive (boxes, nested loops, cofactor
formulas) so it cannot share a failure mode with the library's optimized
paths.  Three helpers run library code on purpose: ``streamed_verdicts`` is the
2-design route under test, the gradient's finite-difference oracle
evaluates F with the library's lattice sums (it checks the gradient, not F),
and the tail-majorant oracle takes its vectors from ``short_vectors_float``
and its summands from ``upper_gamma`` (it checks the counting and the
summation by parts, not the enumeration or the special function).
"""

from __future__ import annotations

import importlib
import json
import math
from fractions import Fraction

import numpy as np

from latcrit import (GramMatrix, TruncationError, layer_moments, short_vectors_float,
                     two_design_verdict, upper_gamma)

_height = importlib.import_module("latcrit.height")  # the module; latcrit.height is the function


def box_layers(Q: GramMatrix, bound) -> dict[Fraction, int]:
    """Brute-force layer cardinalities: exhaust the covering coordinate box.

    The norms are Python ints (object arrays) when |x^t P x| <= max|P_ij|
    (sum_i k_i)^2 could leave int64 on the box.
    """
    bound = Fraction(bound)
    n = Q.n
    rows, d = Q.integral_rescale()
    bint = int(bound * d) if (bound * d).denominator == 1 else math.floor(bound * d)
    Pinv = np.linalg.inv(np.array(rows, dtype=float))
    ks = [int(math.isqrt(int(math.floor(float(bint) * Pinv[i, i])))) + 1 for i in range(n)]
    dtype = np.int64 if max(abs(p) for row in rows for p in row) * sum(ks) ** 2 < 2**62 else object
    P = np.array(rows, dtype=dtype)
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in ks], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1).astype(dtype)
    X = X[np.any(X != 0, axis=1)]
    norms = np.einsum("ij,jk,ik->i", X, P, X)
    out: dict[Fraction, int] = {}
    for v in norms[norms <= bint]:
        m = Fraction(int(v), d)
        out[m] = out.get(m, 0) + 1
    return out


def large_denominator_form(d: int) -> GramMatrix:
    """(d A3 + E) / d: A3 perturbed by E / d, so its layers split by E[x].

    A denominator near 1e15 puts the certificate's norms on the int64
    route and one near 1e17 on the object route.
    """
    A3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    E = [[1, 3, 0], [3, 5, -2], [0, -2, 7]]
    return GramMatrix([[Fraction(d * a + e, d) for a, e in zip(ra, re)] for ra, re in zip(A3, E)])


def fincke_pohst_rows(P: np.ndarray, bound: float) -> tuple[np.ndarray, list[int]]:
    """Per-node recursion over the Cholesky factor of P, one scalar node at a time.

    The reference for ``shells._fp_rows``: the same float operations per node
    (1e-9 bound inflation, 1e-12 interval guards, u = r_ii*x_i + S_i, centres
    S[:i] + R[:i, i]*x_i, highest nonzero coordinate > 0), so the rows must
    agree exactly and in order.  P is an integral form (a float array of
    integers); each row's norm is P[x] summed in Python ints, which the
    walk's float norms must equal while they are float-exact.
    """
    n = P.shape[0]
    R = np.linalg.cholesky(P).T
    Pi = [[int(v) for v in row] for row in P]
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
    norms = [sum(Pi[j][k] * r[j] * r[k] for j in range(n) for k in range(n)) for r in rows]
    return np.array(rows, dtype=np.int64).reshape(-1, n), norms


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


def quadratic_value(Q: GramMatrix, x) -> Fraction:
    """x^t Q x exactly, by a double loop over the entries."""
    n = Q.n
    return sum((Q.entries[i][j] * int(x[i]) * int(x[j]) for i in range(n) for j in range(n)),
               Fraction(0))


def streamed_verdicts(Q: GramMatrix, bound) -> dict:
    """{norm: 2-design verdict} of every nonempty layer up to the bound.

    The route of ``latcrit design`` and ``fully_critical``: streamed
    ``layer_moments`` into ``two_design_verdict`` with the input's d * Q.
    """
    rows, d = Q.integral_rescale()
    P = np.array(rows, dtype=np.int64)
    return {m: two_design_verdict(m, card, S, P, d)
            for m, (card, S) in layer_moments(Q, bound).items()}


def moment_identity_holds(Q: GramMatrix, vectors) -> bool:
    """n * S == m * |M| * Q^{-1} entrywise for a layer M of norm m.

    S is summed from the given vectors; Q^{-1} is adj(Q) / det(Q) with
    cofactors from Bareiss determinants, so both sides are multiplied by
    det(Q) and compared exactly.
    """
    n = Q.n
    vecs = [list(map(int, v)) for v in vectors]
    m = quadratic_value(Q, vecs[0])
    det = bareiss_determinant(Q.entries)
    adj = cofactor_adjugate(Q.entries)
    return all(n * sum(v[i] * v[j] for v in vecs) * det == m * len(vecs) * adj[i][j]
               for i in range(n) for j in range(n))


def cofactor_adjugate(rows) -> list[list[Fraction]]:
    """adj(Q)[i][j] = (-1)^(i+j) det(Q with row j and column i deleted)."""
    n = len(rows)
    return [[(-1) ** (i + j) * bareiss_determinant(
                [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


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


def leading_minors_rational(rows) -> list[Fraction]:
    """Leading principal minors by Gaussian elimination over Fractions.

    The products of the pivots; after a zero pivot every later minor is
    reported as 0.  Independent of the library's integer Bareiss kernel.
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    minors: list[Fraction] = []
    det = Fraction(1)
    for k in range(n):
        piv = a[k][k]
        if piv == 0:
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


def lll_reduce_rational(Q: GramMatrix) -> tuple[GramMatrix, np.ndarray]:
    """LLL (delta = 99/100) on the Gram matrix in Fractions: (Q_red, U).

    The same operation order as ``lll_reduce`` (size-reduce row k against
    j = k-1 .. 0 with q = floor(mu + 1/2), then the Lovasz test, then swap
    or advance), but the Gram-Schmidt data mu and B are rebuilt from G in
    rational arithmetic at every step, so the integer kernel's d_j, lambda
    and its two integer tests are checked against their definitions.
    """
    n = Q.n
    G = [[Fraction(v) for v in row] for row in Q.entries]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def gso(k):
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
        if B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            for row in U + G:
                row[k], row[k - 1] = row[k - 1], row[k]
            G[k], G[k - 1] = G[k - 1], G[k]
            k = max(k - 1, 1)
    return GramMatrix(G), np.array(U, dtype=np.int64)


def exact_kernel_forms(seeded: int = 300, seed: int = 2026):
    """(name, form) pairs the exact kernels are checked on.

    Every catalogue form, its even working form and, in odd dimension, the
    A1-augmented working form; then ``seeded`` forms from
    ``cli._random_integral_spd`` in dimensions 2-7, each as given and
    divided by 3 and by 7.
    """
    from latcrit import double, is_even, orthosum_A1
    from latcrit.catalog import load_catalog
    from latcrit.cli import _random_integral_spd

    for e in load_catalog().entries:
        work = e.gram if is_even(e.gram) else double(e.gram)
        yield e.name, e.gram
        yield f"{e.name}/work", work
        if work.n % 2:
            yield f"{e.name}/aug", orthosum_A1(work)
    rng = np.random.default_rng(seed)
    for k in range(seeded):
        Q = _random_integral_spd(2 + k % 6, rng)
        yield f"seeded-{k}", Q
        for q in (3, 7):
            yield f"seeded-{k}/{q}", GramMatrix([[v / q for v in row] for row in Q.entries])


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


def tangent_part(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """S minus its component along A^{-1}: trace-orthogonal to A^{-1}."""
    Ainv = np.linalg.inv(A)
    return S - np.tensordot(Ainv, S) / np.tensordot(Ainv, Ainv) * Ainv


def random_rational_spd(n: int, rng, denom: int = 4) -> GramMatrix:
    """Random SPD rational matrix: B^t B + eps I with rational B."""
    B = rng.integers(-3, 4, size=(n, n)).astype(object)
    G = B.T @ B
    rows = [[Fraction(int(G[i, j]), 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] += Fraction(1 + int(rng.integers(0, denom)), denom)
    return GramMatrix(rows)


def box_tail(box_diag: np.ndarray, radius: float, g) -> float:
    """Coordinate-box majorant of the sum of g(Q[m]) over Q[m] > radius, g nonincreasing.

    #{m : Q[m] <= x} <= prod(2 sqrt(x Qinv_ii) + 1) with box_diag = diag(Qinv),
    and a term on the unit shell (j, j + 1] is at most g(max(j, radius)):
    the shells from floor(radius) are walked until a term underflows to 0.
    """
    js = math.floor(radius) + np.arange(1200.0)
    cnt = np.prod(2.0 * np.sqrt(box_diag * (js[:, None] + 1.0)) + 1.0, axis=1)
    terms = cnt * g(np.maximum(js, radius))
    if terms[-1] != 0.0:
        raise TruncationError("box majorant did not underflow")
    return float(terms.sum())


def height_remainders(A: np.ndarray, radius: float) -> tuple[float, float]:
    """True remainders of F and of the gradient beyond ``radius``, from 2 radius up boxed.

    F's remainder is the sum of its terms over r < Q[m] <= 2r on both sides
    (form and inverse, every nonzero vector) plus the box majorant beyond
    2r.  The gradient's is the sum of the Frobenius norms of its terms,
    psi1(c) |m|^2 and psi2(b) |A^-1 y|^2, which bounds the norm of its tail
    matrix; beyond 2r it is boxed with |x|^2 <= lam_max(A^-1) Q[x].
    """
    n = A.shape[0]
    Ainv = np.linalg.inv(A)
    lam = float(np.linalg.eigvalsh(Ainv)[-1])
    X, c = short_vectors_float(A, 2 * radius)
    X, c = X[c > radius], c[c > radius]
    Y, b = short_vectors_float(Ainv, 2 * radius)
    W, b = Y[b > radius] @ Ainv, b[b > radius]
    f = lambda c: (math.pi * c) ** (-n / 2) * upper_gamma(n / 2, math.pi * c)
    e1 = lambda b: upper_gamma(0.0, math.pi * b)
    psi1c = lambda c: (math.pi * c) ** (-n / 2) * upper_gamma(n / 2 + 1, math.pi * c)
    F_rem = (2 * np.sum(f(c)) + 2 * np.sum(e1(b))
             + box_tail(np.diag(Ainv), 2 * radius, f) + box_tail(np.diag(A), 2 * radius, e1))
    G_rem = (2 * np.sum(psi1c(c) / c * np.sum(X * X, 1))
             + 2 * np.sum(np.exp(-math.pi * b) / b * np.sum(W * W, 1))
             + box_tail(np.diag(Ainv), 2 * radius, lambda c: psi1c(c) * lam)
             + box_tail(np.diag(A), 2 * radius, lambda b: np.exp(-math.pi * b) * lam))
    return float(F_rem), float(G_rem)


def majorant_soundness(Q) -> list[tuple[float, float]]:
    """[(majorant, true remainder)] of F and the gradient at height's certified radius.

    The majorants are those ``height`` certified with: its sides' arrays read
    at the truncation radius, and their sum must be the report's tail
    estimate.  The remainders come from ``height_remainders``.
    """
    H = _height
    sides = H._sides(Q, det1=True)
    rep = H.height(Q)
    j = int(np.searchsorted(H._RADII, rep.truncation_radius, side="right")) - 1
    majorants = [float(m[j]) for m, _ in H._bounds(sides, H._F_orders(sides.A.shape[0]), True)]
    assert sum(majorants) == rep.tail_estimate
    return list(zip(majorants, height_remainders(sides.A, rep.truncation_radius)))


def basis_rule_radius(Q) -> float:
    """The radius ``height`` would choose with F's basis terms evaluated, not floored.

    The a-priori tolerance of F is TAIL_REL times the sum of F's terms over
    the basis vectors of both sides and their negatives, each term
    evaluated with ``upper_gamma``; the gradient keeps its absolute floor.
    The radius is the first grid radius where both majorants meet these
    tolerances, or the cap when none does.
    """
    H = _height
    sides = H._sides(Q, det1=True)
    n = sides.A.shape[0]
    (F_major, _), (G_major, G_tol) = H._bounds(sides, H._F_orders(n), True)
    xf, xd = math.pi * np.diag(sides.A), math.pi * np.diag(sides.Ainv)
    basis = 2.0 * (np.sum(xf ** (-n / 2) * upper_gamma(n / 2, xf)) + np.sum(upper_gamma(0.0, xd)))
    fits = np.flatnonzero((F_major <= H.TAIL_REL * basis) & (G_major <= G_tol)
                          & (H._RADII <= H._RADIUS_CAP))
    return float(H._RADII[fits[0]]) if fits.size else H._RADIUS_CAP


# ---------------------------------------------------------------------------
# modular-form premises of the certification horizon


def _prime_divisors(N: int) -> list[int]:
    return [p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]


def gamma1_index(N: int) -> int:
    """Index of Gamma_1(N) in SL_2(Z): N^2 prod(1 - 1/p^2), with small-N cases 1, 3."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N <= 2:
        return (1, 3)[N - 1]
    idx = Fraction(N * N)
    for p in _prime_divisors(N):
        idx *= 1 - Fraction(1, p * p)
    return int(idx)


def sturm_bound_gamma1(k: int, N: int) -> int:
    """ceil(k [SL_2(Z) : Gamma_1(N)] / 12): the horizon a Gamma_1 argument needs."""
    return math.ceil(Fraction(k * gamma1_index(N), 12))


def projective_line_size(N: int) -> int:
    """|P^1(Z/N)| by brute force: primitive pairs (c, d) mod N up to unit scaling.

    This count is the index of Gamma_0(N) in SL_2(Z).
    """
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    points = set()
    for c in range(N):
        for d in range(N):
            if math.gcd(math.gcd(c, d), N) == 1:
                points.add(min(((u * c) % N, (u * d) % N) for u in units))
    return len(points)


def dim_M_gamma1(k: int, N: int) -> int:
    """dim M_k(Gamma_1(N)) for N >= 5 and k >= 2 (Diamond-Shurman 3.5, 3.6, 3.9).

    For N >= 5, Gamma_1(N) has no elliptic points, every cusp is regular and
    -I is not in it, so dim = (k - 1)(g - 1) + k eps/2 with eps cusps and
    genus g = 1 + [SL_2(Z) : Gamma_1(N)]/24 - eps/2.
    """
    if N < 5 or k < 2:
        raise ValueError("formula needs N >= 5 and k >= 2")

    def phi(m: int) -> int:
        return sum(1 for u in range(1, m + 1) if math.gcd(u, m) == 1)

    eps = Fraction(sum(phi(d) * phi(N // d) for d in range(1, N + 1) if N % d == 0), 2)
    g = 1 + Fraction(gamma1_index(N), 24) - eps / 2
    dim = (k - 1) * (g - 1) + k * eps / 2
    assert dim.denominator == 1 and g.denominator == 1
    return int(dim)


def jacobi_symbol(a: int, n: int) -> int:
    """(a/n) for odd n > 0 by quadratic reciprocity."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def character_mod(D: int, N: int) -> list[int]:
    """chi_D(x) = (D/d) for x mod N, d an odd positive representative; 0 off the units.

    Asserts that the value does not depend on the representative, i.e. that
    chi_D is a Dirichlet character mod N.
    """
    out = []
    for x in range(N):
        reps = [d for d in range(x or N, x + 8 * N + 1, N) if d % 2 == 1]
        vals = {jacobi_symbol(D, d) for d in reps} if math.gcd(x, N) == 1 else {0}
        assert len(vals) == 1, f"(D/.) is not a character mod {N}"
        out.append(vals.pop())
    return out


def dim_S_gamma0_chi(k: int, N: int, D: int) -> int:
    """dim S_k(Gamma_0(N), chi_D) for k >= 3 (Cohen-Oesterle 1977).

    (k-1)/12 [SL_2(Z) : Gamma_0(N)] - 1/2 prod_p lambda(r_p, s_p, p)
    + gamma_4(k) sum_{x^2+1=0} chi(x) + gamma_3(k) sum_{x^2+x+1=0} chi(x),
    r_p and s_p the exponents of p in N and in the conductor of chi.
    """
    if k < 3:
        raise ValueError("formula used for k >= 3 only")
    chi = character_mod(D, N)
    assert N == 1 or chi[N - 1] == (-1) ** k, "character parity differs from the weight's"
    cond = min(f for f in range(1, N + 1) if N % f == 0 and all(
        chi[x] == chi[y] for x in range(N) for y in range(x % f, N, f) if chi[x] and chi[y]))
    index = Fraction(N)
    lam = Fraction(1)
    for p in _prime_divisors(N):
        index *= 1 + Fraction(1, p)
        r = next(e for e in range(N) if N % p ** (e + 1))
        s = next(e for e in range(N) if cond % p ** (e + 1))
        if 2 * s > r:
            lam *= 2 * p ** (r - s)
        elif r % 2:
            lam *= 2 * p ** (r // 2)
        else:
            lam *= p ** (r // 2) + p ** (r // 2 - 1)
    g4 = {0: Fraction(1, 4), 2: Fraction(-1, 4)}.get(k % 4, 0)
    g3 = {0: Fraction(1, 3), 2: Fraction(-1, 3)}.get(k % 3, 0)
    s4 = sum(chi[x] for x in range(N) if (x * x + 1) % N == 0)
    s3 = sum(chi[x] for x in range(N) if (x * x + x + 1) % N == 0)
    dim = Fraction(k - 1, 12) * index - lam / 2 + g4 * s4 + g3 * s3
    assert dim.denominator == 1 and dim >= 0
    return int(dim)


# ---------------------------------------------------------------------------
# the gradient's finite-difference oracle: F along geodesics of the form space


class ExpMapError(ValueError):
    """Matrix exponential could not be evaluated reliably."""


def _sym_sqrt(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(A)
    if np.any(w <= 0):
        raise ExpMapError("base matrix of exponential map is not positive definite")
    s = np.sqrt(w)
    return (V * s) @ V.T, (V / s) @ V.T


def exp_map_float(A: np.ndarray, H: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Geodesic chart A exp(t A^{-1} H) of a float form A, evaluated symmetrically.

    Computed as A^{1/2} exp(t A^{-1/2} H A^{-1/2}) A^{1/2} via the
    eigendecomposition of the symmetrized core, so the result is symmetric
    positive definite by construction and the determinant is preserved to
    roundoff when Tr(A^{-1} H) = 0.
    """
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


def gram_json(q: GramMatrix) -> str:
    """The JSON file format that ``gram_from_json`` and ``--gram`` read."""
    return json.dumps({"name": q.name, "n": q.n,
                       "gram": [[str(v) for v in row] for row in q.entries]})


def F_value(Q) -> float:
    """F(Q, 0) of the form as given (no rescaling to determinant 1).

    The Gamma-sum of ``height`` with F's orders, certified without the
    gradient.  Invariant under unimodular change of basis.
    """
    sides = _height._sides(Q, det1=False)
    return _height._certified_sum(sides, _height._F_orders(sides.A.shape[0]), "F value")[0]


def directional_derivative_fd(Q0, H, step: float = 1e-4) -> float:
    """Central difference of F along the geodesic through Q0 in direction H.

    This is the independent oracle for the gradient that ``height`` reports:
    at a determinant-1 form Q0 the value converges to <height(Q0).gradient, H>
    as the step shrinks.
    """
    A = _height._as_form(Q0)
    H = np.asarray(H, dtype=float)
    fp = F_value(exp_map_float(A, H, step))
    fm = F_value(exp_map_float(A, H, -step))
    return (fp - fm) / (2.0 * step)
