"""Epstein zeta continuation, flat-torus height, and stationarity numerics.

Everything here is floating point.  The zeta function is evaluated through
its incomplete-gamma representation (two exponentially convergent lattice
sums, one over the form and one over its inverse), which also yields the
height as the s-derivative at 0 and the analytic gradient of the underlying
invariant F on the determinant-1 manifold.  All sums go through one radius
loop, ``_certified_sum``: each round enumerates the form and its inverse
once each, evaluates the sums the caller needs on that collection, and grows
the radius until their certified tails are within tolerance.  ``height``
takes F and its gradient from the same collection, the gradient's weight
derived from F's summand by the incomplete-gamma recurrence.  Each sum
costs one array call of ``upper_gamma`` per round over all its vectors, and
each tail majorant one more over a fixed grid of unit shells.  Tails are
majorants: shells are counted by coordinate boxes and the summands are
monotone, so the reported tail estimate is a true upper bound.  Fixed
enumeration order keeps reports bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import GramMatrix, LatticeDescriptor, normalized_to_det1
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


def _tail_bound(box_diag: np.ndarray, radius: float, g) -> float:
    """Upper bound for sum over Q[m] > radius of g(Q[m]), g nonincreasing.

    The count of lattice points with Q[m] <= x is bounded by the coordinate
    box prod(2 sqrt(x Qinv_ii) + 1); summand monotonicity turns the shell
    sum into a majorant series over the unit shells j = floor(radius), ...,
    floor(radius) + 1199.  ``g`` takes an array and is evaluated on the
    whole grid in one call; the terms are summed in order up to and
    including the first that underflows to zero.
    """
    js = math.floor(radius) + np.arange(1200.0)
    cnt = np.prod(2.0 * np.sqrt(np.maximum(box_diag, 0.0) * (js[:, None] + 1.0)) + 1.0, axis=1)
    terms = cnt * g(np.maximum(js, radius))
    zero = np.flatnonzero(terms == 0.0)
    if not zero.size:
        raise TruncationError("tail majorant did not underflow; radius far too small")
    return float(np.cumsum(terms[:zero[0] + 1])[-1])


@dataclass(frozen=True)
class _FormVectors:
    A: np.ndarray
    Ainv: np.ndarray
    half: np.ndarray       # integer half-set on the A side
    norms: np.ndarray      # A[m] for the half-set
    dual_half: np.ndarray  # integer half-set on the Ainv side
    dual_norms: np.ndarray
    radius: float          # both sides hold the vectors of norm <= radius


def _certified_sum(A: np.ndarray, cutoff: float, sums, what: str):
    """The one radius loop: (value, tail, radius) of ``sums`` at a certified radius.

    Each round collects the vectors of norm <= radius of the form and of its
    inverse, once each, and hands them to ``sums``, which returns
    (value, certified tail, tail within tolerance).  The radius starts at
    cutoff/pi and grows by 1.35 for at most 10 rounds.
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    radius = cutoff / math.pi
    for _ in range(10):
        X, c = short_vectors_float(A, radius)
        Y, b = short_vectors_float(Ainv, radius)
        value, tail, ok = sums(_FormVectors(A=A, Ainv=Ainv, half=X, norms=c,
                                            dual_half=Y, dual_norms=b, radius=radius))
        if ok:
            return value, tail, radius
        radius *= 1.35
    raise TruncationError(f"{what}: tail tolerance unattained")


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

    def sums(fv: _FormVectors):
        xs = math.pi * fv.norms
        ys = math.pi * fv.dual_norms
        sum1 = 2.0 * float(np.sum(xs ** (-s) * upper_gamma(s, xs)))
        sum2 = 2.0 * float(np.sum(ys ** (-(n / 2 - s)) * upper_gamma(n / 2 - s, ys)))
        g1 = lambda c: (math.pi * c) ** (-s) * upper_gamma(s, math.pi * c)
        g2 = lambda c: (math.pi * c) ** (-(n / 2 - s)) * upper_gamma(n / 2 - s, math.pi * c)
        tail = (_tail_bound(np.diag(fv.Ainv), fv.radius, g1)
                + detA ** (-0.5) * _tail_bound(np.diag(fv.A), fv.radius, g2))
        body = sum1 + detA ** (-0.5) * sum2
        return body, tail, tail <= TAIL_REL * max(abs(body), 1e-30)

    body, _, _ = _certified_sum(A, cutoff, sums, "completed zeta")
    return detA ** (-0.5) / (s - n / 2) - 1.0 / s + body


def epstein_zeta(Q, s: float, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Analytically continued Z(Q, s) for real s, away from 0 and n/2.

    At a negative integer s, 1/Gamma(s) = 0 and Z has its trivial zero.
    """
    if s < 0 and s == math.floor(s):
        _as_form(Q)
        return 0.0
    rhs = completed_zeta(Q, s, cutoff=cutoff)
    return math.pi ** s / math.gamma(s) * rhs


def _main_summands(fv: _FormVectors) -> np.ndarray:
    """f = x^{-n/2} Gamma(n/2, x) at x = pi A[m], over the form's half-set."""
    n = fv.A.shape[0]
    xs = math.pi * fv.norms
    return xs ** (-n / 2) * upper_gamma(n / 2, xs)


def _F_sum(fv: _FormVectors, f: np.ndarray) -> tuple[float, float, bool]:
    """(F value, certified tail, tail within TAIL_REL |F|) from the main summands f."""
    n = fv.A.shape[0]
    ys = math.pi * fv.dual_norms
    part_dual = 2.0 * float(np.sum(upper_gamma(0.0, ys)))
    part_main = 2.0 * float(np.sum(f))
    g_dual = lambda b: upper_gamma(0.0, math.pi * b)
    g_main = lambda c: (math.pi * c) ** (-n / 2) * upper_gamma(n / 2, math.pi * c)
    tail = (_tail_bound(np.diag(fv.A), fv.radius, g_dual)
            + _tail_bound(np.diag(fv.Ainv), fv.radius, g_main))
    val = part_main + part_dual
    return val, tail, tail <= TAIL_REL * max(abs(val), 1e-30)


def _gradient_weight(n: int, xs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """psi1 = pi x^{-(n/2+1)} Gamma(n/2+1, x) = pi (n/2 f + e^{-x}) / x, by recurrence."""
    return math.pi * (n / 2 * f + np.exp(-xs)) / xs


def _grad_sum(fv: _FormVectors, f: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(gradient of F, certified tail, tail within 1e-14 + TAIL_REL |G|)."""
    n = fv.A.shape[0]
    w1 = _gradient_weight(n, math.pi * fv.norms, f)
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
    g2 = lambda bb: np.exp(-math.pi * bb) * lam_max
    tail = (_tail_bound(np.diag(fv.Ainv), fv.radius, g1)
            + _tail_bound(np.diag(fv.A), fv.radius, g2))
    ok = tail <= 1e-14 + TAIL_REL * float(np.linalg.norm(G))
    return 0.5 * (G + G.T), tail, ok


def grad_F(Q, *, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Gradient of F(., 0) at the given form, as a symmetric matrix.

    Assembled from both lattice sums: -psi1 weights on m m^t over the form's
    vectors and psi2 weights on (Q^{-1}m)(Q^{-1}m)^t over the dual's, with
    psi1(c) = pi (pi c)^{-(n/2+1)} Gamma(n/2+1, pi c) and
    psi2(b) = exp(-pi b)/b.  Equivariant under unimodular changes of basis.
    """
    G, _, _ = _certified_sum(_as_form(Q), cutoff,
                             lambda fv: _grad_sum(fv, _main_summands(fv)), "gradient")
    return G


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
        return {**vars(self), "gradient": self.gradient.tolist()}


def _det1_form(L) -> np.ndarray:
    """The determinant-1 representative Q / det(Q)^{1/n} of a lattice or form."""
    Q = L.gram if isinstance(L, LatticeDescriptor) else L
    if isinstance(Q, GramMatrix):
        return normalized_to_det1(Q)
    A = _as_form(Q)
    return A / float(np.linalg.det(A)) ** (1.0 / A.shape[0])


def _projected_residual(A: np.ndarray, G: np.ndarray) -> float:
    """|G - lam A^-1| / |G|: G's part in the determinant-1 tangent space, relative."""
    Ainv = np.linalg.inv(A)
    Ainv = 0.5 * (Ainv + Ainv.T)
    lam = float(np.tensordot(Ainv, G)) / float(np.tensordot(Ainv, Ainv))
    P = G - lam * Ainv
    return float(np.linalg.norm(P)) / max(float(np.linalg.norm(G)), 1e-300)


def height(L, *, cutoff: float = DEFAULT_CUTOFF) -> HeightReport:
    """Torus height of the determinant-1 representative of a lattice.

    The input form is rescaled to determinant 1; the height is
    C + F(Q, 0) + 2 log(2 pi) with C the closed-form constant, and the
    report carries the gradient of F with its tangent-projected residual.
    F and the gradient come from the same vectors, at the first radius
    where both tails are within tolerance.
    """
    A = _det1_form(L)

    def sums(fv: _FormVectors):
        f = _main_summands(fv)
        F, ftail, fok = _F_sum(fv, f)
        G, gtail, gok = _grad_sum(fv, f)
        return (F, G), ftail + gtail, fok and gok

    (F, G), tail, radius = _certified_sum(A, cutoff, sums, "height")
    C = height_constant(A.shape[0])
    return HeightReport(
        height=C + F + 2.0 * math.log(2.0 * math.pi),
        F_value=F,
        constant_C=C,
        gradient=G,
        projected_residual=_projected_residual(A, G),
        truncation_radius=radius,
        tail_estimate=tail,
    )


def stationarity_residual(Q0, *, cutoff: float = DEFAULT_CUTOFF) -> float:
    """Relative Frobenius norm of the tangent projection of grad F.

    The form is normalized to determinant 1 first; a value near zero
    certifies numerical stationarity of the height at the lattice.
    """
    A = _det1_form(Q0)
    return _projected_residual(A, grad_F(A, cutoff=cutoff))
