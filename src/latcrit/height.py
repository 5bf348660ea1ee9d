"""Epstein zeta continuation, flat-torus height, and stationarity numerics.

Everything here is floating point.  The zeta function is evaluated through
its incomplete-gamma representation (two exponentially convergent lattice
sums, one over the form and one over its inverse), which also yields the
height as the s-derivative at 0 and the analytic gradient of the underlying
invariant F on the determinant-1 manifold.  Truncation is by a norm radius
with a certified tail majorant: shells are counted by coordinate boxes and
the summand is monotone, so the reported tail estimate is a true upper
bound.  Fixed enumeration order keeps reports bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import (
    GramMatrix,
    LatticeDescriptor,
    TangentDirection,
    normalized_to_det1,
)
from .shells import short_vectors_float
from .specfun import upper_gamma

DEFAULT_CUTOFF = 40.0  # initial radius: include vectors with pi * Q[m] <= cutoff
TAIL_REL = 1e-13
EULER_GAMMA = float(np.euler_gamma)


class TruncationError(RuntimeError):
    """The certified tail could not be brought below tolerance."""


class ZetaPoleError(ValueError):
    """Evaluation at the simple pole s = n/2."""


def _as_form(Q) -> np.ndarray:
    if isinstance(Q, LatticeDescriptor):
        Q = Q.gram
    if isinstance(Q, GramMatrix):
        return Q.to_float()
    A = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("form must be a square matrix")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValueError("form must be symmetric")
    np.linalg.cholesky(A)  # raises if not positive definite
    return 0.5 * (A + A.T)


def _gamma_arr(a: float, xs: np.ndarray) -> np.ndarray:
    return np.array([upper_gamma(a, float(x)) for x in xs])


def _tail_bound(box_diag: np.ndarray, radius: float, g) -> float:
    """Upper bound for sum over Q[m] > radius of g(Q[m]), g nonincreasing.

    The count of lattice points with Q[m] <= x is bounded by the coordinate
    box prod(2 sqrt(x Qinv_ii) + 1); summand monotonicity turns the shell
    sum into a majorant series that is followed until it underflows.
    """
    total = 0.0
    j = float(math.floor(radius))
    for _ in range(1200):
        cnt = float(np.prod(2.0 * np.sqrt(np.maximum(box_diag, 0.0) * (j + 1.0)) + 1.0))
        term = cnt * g(max(j, radius))
        total += term
        if term == 0.0:
            return total
        j += 1.0
    raise TruncationError("tail majorant did not underflow; radius far too small")


@dataclass(frozen=True)
class _FormVectors:
    A: np.ndarray
    Ainv: np.ndarray
    half: np.ndarray       # integer half-set on the A side
    norms: np.ndarray      # A[m] for the half-set
    dual_half: np.ndarray
    dual_norms: np.ndarray
    radius: float
    dual_radius: float


def _collect(A: np.ndarray, radius: float, dual_radius: float) -> _FormVectors:
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    X, c = short_vectors_float(A, radius)
    Y, b = short_vectors_float(Ainv, dual_radius)
    return _FormVectors(A=A, Ainv=Ainv, half=X, norms=c, dual_half=Y, dual_norms=b,
                        radius=radius, dual_radius=dual_radius)


def completed_zeta(Q, s: float, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """pi^{-s} Gamma(s) Z(Q, s): the symmetric continuation.

    Splitting the Mellin integral of the lattice sum at 1 and applying
    Poisson summation to one half gives
        det^{-1/2}/(s - n/2) - 1/s + S_Q(s) + det^{-1/2} S_{Q^{-1}}(n/2 - s)
    with S_A(s) the incomplete-gamma sum over the nonzero vectors of A; the
    determinant factor on the dual sum is the general-determinant form of
    the identity (it is 1 on the determinant-1 manifold).  Invariant under
    (Q, s) -> (Q^{-1}, n/2 - s) when det Q = 1.
    """
    A = _as_form(Q)
    n = A.shape[0]
    if abs(s - n / 2) < 1e-12:
        raise ZetaPoleError(f"simple pole at s = n/2 = {n / 2}")
    if abs(s) < 1e-12:
        raise ZetaPoleError("s = 0 is handled by the height path")
    detA = float(np.linalg.det(A))
    radius = cutoff / math.pi
    for _ in range(10):
        fv = _collect(A, radius, radius)
        xs = math.pi * fv.norms
        ys = math.pi * fv.dual_norms
        sum1 = 2.0 * float(np.sum(xs ** (-s) * _gamma_arr(s, xs)))
        sum2 = 2.0 * float(np.sum(ys ** (-(n / 2 - s)) * _gamma_arr(n / 2 - s, ys)))
        g1 = lambda c: (math.pi * c) ** (-s) * upper_gamma(s, math.pi * c)
        g2 = lambda c: (math.pi * c) ** (-(n / 2 - s)) * upper_gamma(n / 2 - s, math.pi * c)
        tail = (_tail_bound(np.diag(fv.Ainv), fv.radius, g1)
                + detA ** (-0.5) * _tail_bound(np.diag(fv.A), fv.dual_radius, g2))
        body = sum1 + detA ** (-0.5) * sum2
        if tail <= TAIL_REL * max(abs(body), 1e-30):
            return detA ** (-0.5) / (s - n / 2) - 1.0 / s + body
        radius *= 1.35
    raise TruncationError("completed zeta: tail tolerance unattained")


def epstein_zeta(Q, s: float, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Analytically continued Z(Q, s) for real s, away from 0 and n/2."""
    rhs = completed_zeta(Q, s, cutoff=cutoff)
    return math.pi ** s / math.gamma(s) * rhs


def _F_terms(fv: _FormVectors) -> tuple[float, float]:
    """(F value, certified tail) for a fixed vector collection."""
    n = fv.A.shape[0]
    xs = math.pi * fv.norms
    ys = math.pi * fv.dual_norms
    part_dual = 2.0 * float(np.sum(_gamma_arr(0.0, ys)))
    part_main = 2.0 * float(np.sum(xs ** (-n / 2) * _gamma_arr(n / 2, xs)))
    g_dual = lambda b: upper_gamma(0.0, math.pi * b)
    g_main = lambda c: (math.pi * c) ** (-n / 2) * upper_gamma(n / 2, math.pi * c)
    tail = (_tail_bound(np.diag(fv.A), fv.dual_radius, g_dual)
            + _tail_bound(np.diag(fv.Ainv), fv.radius, g_main))
    return part_main + part_dual, tail


def F_value(Q, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """F(Q, 0): the Q-dependent part of the zeta derivative at s = 0.

    Two positive exponentially convergent sums, one over the form and one
    over its inverse; invariant under unimodular change of basis.
    """
    val, _, _ = _F_with_tail(Q, cutoff=cutoff)
    return val


def _F_with_tail(Q, *, cutoff: float = DEFAULT_CUTOFF) -> tuple[float, float, float]:
    A = _as_form(Q)
    radius = cutoff / math.pi
    for _ in range(10):
        fv = _collect(A, radius, radius)
        val, tail = _F_terms(fv)
        if tail <= TAIL_REL * max(abs(val), 1e-30):
            return val, tail, radius
        radius *= 1.35
    raise TruncationError("F value: tail tolerance unattained")


def height_constant(n: int) -> float:
    """s-derivative at 0 of pi^s/Gamma(s) (1/(s - n/2) - 1/s): -2/n - gamma - log(pi)."""
    return -2.0 / n - EULER_GAMMA - math.log(math.pi)


@dataclass(frozen=True, eq=False)
class HeightReport:
    """Height value with its gradient and stationarity diagnostics."""

    height: float
    F_value: float
    constant_C: float
    gradient: np.ndarray
    projected_residual: float
    truncation_radius: float
    tail_estimate: float

    def to_dict(self) -> dict:
        return {
            "height": self.height,
            "F_value": self.F_value,
            "constant_C": self.constant_C,
            "gradient": [list(map(float, row)) for row in self.gradient],
            "projected_residual": self.projected_residual,
            "truncation_radius": self.truncation_radius,
            "tail_estimate": self.tail_estimate,
        }


def height(L, *, cutoff: float = DEFAULT_CUTOFF) -> HeightReport:
    """Torus height of the determinant-1 representative of a lattice.

    The input form is rescaled to determinant 1; the height is
    C + F(Q, 0) + 2 log(2 pi) with C the closed-form constant, and the
    report carries the gradient of F with its tangent-projected residual.
    """
    if isinstance(L, LatticeDescriptor):
        Q = L.gram
    else:
        Q = L
    if isinstance(Q, GramMatrix):
        A = normalized_to_det1(Q)
    else:
        A = _as_form(Q)
        A = A / float(np.linalg.det(A)) ** (1.0 / A.shape[0])
    n = A.shape[0]
    F, tail, radius = _F_with_tail(A, cutoff=cutoff)
    C = height_constant(n)
    h = C + F + 2.0 * math.log(2.0 * math.pi)
    G, gtail, gradius = _grad_with_tail(A, radius=None, cutoff=cutoff)
    res = _projected_residual(A, G)
    return HeightReport(
        height=h,
        F_value=F,
        constant_C=C,
        gradient=G,
        projected_residual=res,
        truncation_radius=max(radius, gradius),
        tail_estimate=tail + gtail,
    )


# ---------------------------------------------------------------------------
# gradient of F on the determinant-1 manifold


def _grad_with_tail(Q, radius, *, cutoff: float = DEFAULT_CUTOFF):
    A = _as_form(Q)
    n = A.shape[0]
    r = radius if radius is not None else cutoff / math.pi
    for _ in range(10):
        fv = _collect(A, r, r)
        xs = math.pi * fv.norms
        w1 = math.pi * xs ** (-(n / 2 + 1)) * _gamma_arr(n / 2 + 1, xs)
        V = fv.half.astype(float)
        T1 = 2.0 * np.einsum("k,ki,kj->ij", w1, V, V)
        b = fv.dual_norms
        w2 = np.exp(-math.pi * b) / b
        W = fv.dual_half.astype(float) @ fv.Ainv
        T2 = 2.0 * np.einsum("k,ki,kj->ij", w2, W, W)
        G = -T1 + T2
        lam_max_inv = float(np.linalg.eigvalsh(fv.Ainv)[-1])
        lam_max = float(np.linalg.eigvalsh(fv.A)[-1])
        g1 = lambda c: (math.pi * (math.pi * c) ** (-(n / 2 + 1))
                        * upper_gamma(n / 2 + 1, math.pi * c) * c * lam_max_inv)
        g2 = lambda bb: math.exp(-math.pi * bb) * lam_max
        tail = (_tail_bound(np.diag(fv.Ainv), fv.radius, g1)
                + _tail_bound(np.diag(fv.A), fv.dual_radius, g2))
        gnorm = float(np.linalg.norm(G))
        if tail <= 1e-14 + TAIL_REL * gnorm:
            return 0.5 * (G + G.T), tail, r
        if radius is not None:
            # caller pinned the radius; report what it gives
            return 0.5 * (G + G.T), tail, r
        r *= 1.35
    raise TruncationError("gradient: tail tolerance unattained")


def grad_F(Q, radius: float | None = None, *, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Gradient of F(., 0) at the given form, as a symmetric matrix.

    Assembled from both lattice sums: -psi1 weights on m m^t over the form's
    vectors and psi2 weights on (Q^{-1}m)(Q^{-1}m)^t over the dual's, with
    psi1(c) = pi (pi c)^{-(n/2+1)} Gamma(n/2+1, pi c) and
    psi2(b) = exp(-pi b)/b.  Equivariant under unimodular changes of basis.
    """
    G, _, _ = _grad_with_tail(Q, radius, cutoff=cutoff)
    return G


def _projected_residual(A: np.ndarray, G: np.ndarray) -> float:
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    lam = float(np.tensordot(Ainv, G)) / float(np.tensordot(Ainv, Ainv))
    P = G - lam * Ainv
    return float(np.linalg.norm(P)) / max(float(np.linalg.norm(G)), 1e-300)


def stationarity_residual(Q0, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Relative Frobenius norm of the tangent projection of grad F.

    The form is normalized to determinant 1 first; a value near zero
    certifies numerical stationarity of the height at the lattice.
    """
    if isinstance(Q0, LatticeDescriptor):
        Q0 = Q0.gram
    if isinstance(Q0, GramMatrix):
        A = normalized_to_det1(Q0)
    else:
        A = _as_form(Q0)
        A = A / float(np.linalg.det(A)) ** (1.0 / A.shape[0])
    G, _, _ = _grad_with_tail(A, None, cutoff=cutoff)
    return _projected_residual(A, G)


# ---------------------------------------------------------------------------
# finite differences along geodesics


def _exp_map_raw(A: np.ndarray, H: np.ndarray, t: float) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    sq = (V * np.sqrt(w)) @ V.T
    isq = (V / np.sqrt(w)) @ V.T
    core = isq @ (t * H) @ isq
    core = 0.5 * (core + core.T)
    cw, cV = np.linalg.eigh(core)
    E = (cV * np.exp(cw)) @ cV.T
    out = sq @ E @ sq
    return 0.5 * (out + out.T)


def directional_derivative_fd(Q0, H, step: float = 1e-4, *,
                              cutoff: float = DEFAULT_CUTOFF) -> float:
    """Central difference of F along the geodesic through Q0 in direction H.

    This is the independent oracle for grad_F: the value converges to
    <grad_F(Q0), H> as the step shrinks.
    """
    A = _as_form(Q0)
    Hm = H.H if isinstance(H, TangentDirection) else np.asarray(H, dtype=float)
    fp = F_value(_exp_map_raw(A, Hm, step), cutoff=cutoff)
    fm = F_value(_exp_map_raw(A, Hm, -step), cutoff=cutoff)
    return (fp - fm) / (2.0 * step)
