"""Embedded catalogue of strongly eutactic lattices in dimensions 2 to 7.

Gram matrices follow the Batut-Martinet naming scheme (sta2, stc12, ...).
Each entry carries two pieces of externally computed reference data for the
modular-form space attached to its even working form: the dimension of the
space (dim M) and the exponent of the last echelon pivot (N).  That space is
the larger Gamma_1 one (dim M equals dim M_k(Gamma_1(level)) on every entry
of level >= 5), so N is dominated by the Gamma_1 Sturm bound but not by the
Gamma_0 horizon ``fully_critical`` uses, which is at or below N on every
entry.  With no bound given, 14 entries are certified on their sparser level
dual N W^{-1}, whose horizon equals the entry's own: no entry's dual has a
smaller level.  Both stay as regression data: ``fully_critical(e,
e.reference_N)`` walks the entry's own layers and reproduces the reference
transcripts.  ``reproduce_tables`` returns one
``FullyCriticalReport`` per entry; the CLI's table rows are read from them.

Dimension 7 is a partial list: the source catalogue of strongly eutactic
lattices is not complete there.

Transcription notes (divergences from the printed source table):
  * stf8 prints a row with diagonal -7 and stray signs; stored is the
    actual rescaled dual of the root lattice A7 (diagonal 7, off-diagonal
    -1), which is symmetric positive definite as required.
  * ste12c prints entry (6,4) = -1, inconsistent with its transpose and
    with the Kronecker block structure of the form; stored as -2.
  * stf28b prints an asymmetric matrix; stored is the symmetrization that
    is positive definite with determinant 64 and kissing number 56, the
    invariants of the rescaled dual of the root lattice E7.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .certify import FullyCriticalReport, fully_critical
from .gram import GramMatrix, LatticeDescriptor
from .shells import DEFAULT_MAX_VECTORS

# name: (gram rows, dim M, N, traditional name)
_RAW: dict[str, tuple[list[list[int]], int, int, str]] = {
    # --- dimension 2 ---
    "sta2": ([[1, 0], [0, 1]], 2, 1, "Z^2"),
    "sta3": ([[2, 1], [1, 2]], 2, 1, "A2"),
    # --- dimension 3 ---
    "stb3": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, 2, "Z^3"),
    "stb4": ([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]], 9, 8, "A3*"),
    "stb6": ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], 9, 8, "A3"),
    # --- dimension 4 ---
    "stc4": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3, 2, "Z^4"),
    "stc5": ([[4, -1, -1, -1], [-1, 4, -1, -1], [-1, -1, 4, -1], [-1, -1, -1, 4]],
             5, 4, "A4*"),
    "stc6": ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]], 2, 1, "A2+A2"),
    "stc9": ([[4, -2, -2, 1], [-2, 4, 1, -2], [-2, 1, 4, -2], [1, -2, -2, 4]],
             13, 12, "A2xA2"),
    "stc10": ([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]], 5, 4, "A4 = P4^2"),
    "stc12": ([[2, 0, 1, 1], [0, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]], 2, 1, "D4 = P4^1"),
    # --- dimension 5 ---
    "std5a": ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
               [0, 0, 0, 0, 1]], 3, 2, "Z^5"),
    "std5b": ([[5, 2, 2, 2, 2], [2, 4, 0, 0, 0], [2, 0, 4, 0, 0], [2, 0, 0, 4, 0],
               [2, 0, 0, 0, 4]], 11, 10, "D5*"),
    "std6": ([[5, -1, -1, -1, -1], [-1, 5, -1, -1, -1], [-1, -1, 5, -1, -1],
              [-1, -1, -1, 5, -1], [-1, -1, -1, -1, 5]], 21, 20, "A5*"),
    "std10": ([[3, -1, -1, -1, 1], [-1, 3, -1, -1, -1], [-1, -1, 3, 1, -1],
               [-1, -1, 1, 3, -1], [1, -1, -1, -1, 3]], 21, 20, "A5^2"),
    "std15a": ([[4, -2, -1, -2, 1], [-2, 4, -1, 1, -2], [-1, -1, 4, -1, -1],
                [-2, 1, -1, 4, 1], [1, -2, -1, 1, 4]], 21, 20, "A5^2"),
    "std15b": ([[2, 1, 1, 1, 1], [1, 2, 1, 1, 1], [1, 1, 2, 1, 1], [1, 1, 1, 2, 1],
                [1, 1, 1, 1, 2]], 21, 20, "A5^2"),
    "std20": ([[2, 0, 1, 1, 1], [0, 2, 1, 1, 1], [1, 1, 2, 1, 1], [1, 1, 1, 2, 1],
               [1, 1, 1, 1, 2]], 11, 10, "A5^2"),
    # --- dimension 6 ---
    "ste6a": ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
              3, 2, "Z^6"),
    "ste6c": ([[3, 1, 1, 1, 1, 1], [1, 2, 0, 0, 0, 0], [1, 0, 2, 0, 0, 0],
               [1, 0, 0, 2, 0, 0], [1, 0, 0, 0, 2, 0], [1, 0, 0, 0, 0, 2]],
              3, 2, "D6*"),
    "ste7": ([[6, -1, -1, -1, -1, -1], [-1, 6, -1, -1, -1, -1], [-1, -1, 6, -1, -1, -1],
              [-1, -1, -1, 6, -1, -1], [-1, -1, -1, -1, 6, -1], [-1, -1, -1, -1, -1, 6]],
             11, 10, "A6*"),
    "ste8": ([[3, -1, -1, 0, 0, 0], [-1, 3, -1, 0, 0, 0], [-1, -1, 3, 0, 0, 0],
              [0, 0, 0, 3, -1, -1], [0, 0, 0, -1, 3, -1], [0, 0, 0, -1, -1, 3]],
             11, 10, "A3*+A3*"),
    "ste9": ([[2, 1, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], [0, 0, 2, 1, 0, 0],
              [0, 0, 1, 2, 0, 0], [0, 0, 0, 0, 2, 1], [0, 0, 0, 0, 1, 2]],
             2, 1, "A2+A2+A2"),
    "ste10a": ([[3, 1, 1, 1, 1, 0], [1, 3, -1, 1, 0, 1], [1, -1, 3, 0, 1, -1],
                [1, 1, 0, 3, -1, -1], [1, 0, 1, -1, 3, 1], [0, 1, -1, -1, 1, 3]],
               58, 60, "Ext^2(A4)"),
    "ste12a": ([[2, -1, -1, 0, 0, 0], [-1, 2, 1, 0, 0, 0], [-1, 1, 2, 0, 0, 0],
                [0, 0, 0, 2, -1, -1], [0, 0, 0, -1, 2, 1], [0, 0, 0, -1, 1, 2]],
               11, 10, "A3+A3"),
    "ste12b": ([[5, -2, 2, 2, -2, 1], [-2, 5, 1, -1, -1, 0], [2, 1, 5, -1, -1, 2],
                [2, -1, -1, 5, -1, -2], [-2, -1, -1, -1, 5, -2], [1, 0, 2, -2, -2, 5]],
               58, 60, "Ext^2(A4)*_even"),
    # (6,4) corrected from a printed -1 to -2: symmetry and the A2-block
    # Kronecker pattern both force it.
    "ste12c": ([[6, 3, -2, -1, -2, -1], [3, 6, -1, -2, -1, -2], [-2, -1, 6, 3, -2, -1],
                [-1, -2, 3, 6, -1, -2], [-2, -1, -2, -1, 6, 3], [-1, -2, -1, -2, 3, 6]],
               21, 20, "A2xA3*"),
    "ste15a": ([[4, -2, -1, 0, 1, -2], [-2, 4, -1, -1, -2, 1], [-1, -1, 4, -1, 0, 1],
                [0, -1, -1, 4, 2, 1], [1, -2, 0, 2, 4, -1], [-2, 1, 1, 1, -1, 4]],
               58, 60, "Ext^2(A4)_even"),
    "ste16": ([[3, 1, 1, -1, 1, 1], [1, 3, -1, -1, -1, 1], [1, -1, 3, -1, 1, -1],
               [-1, -1, -1, 3, -1, -1], [1, -1, 1, -1, 3, 1], [1, 1, -1, -1, 1, 3]],
              39, 40, "D6+"),
    "ste18a": ([[4, 2, 2, 1, 2, 1], [2, 4, 1, 2, 1, 2], [2, 1, 4, 2, 2, 1],
                [1, 2, 2, 4, 1, 2], [2, 1, 2, 1, 4, 2], [1, 2, 1, 2, 2, 4]],
               21, 20, "A2xA3"),
    "ste21a": ([[2, 1, 1, 1, 1, 1], [1, 2, 1, 1, 1, 1], [1, 1, 2, 1, 1, 1],
                [1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 2, 1], [1, 1, 1, 1, 1, 2]],
               11, 10, "A6"),
    "ste21b": ([[4, -2, -2, -1, -2, -2], [-2, 4, 2, -1, 1, 2], [-2, 2, 4, 1, 2, 1],
                [-1, -1, 1, 4, 0, -1], [-2, 1, 2, 0, 4, 0], [-2, 2, 1, -1, 0, 4]],
               11, 10, "A6^(2) = P6^5"),
    "ste27": ([[4, -2, -1, 1, 1, 1], [-2, 4, -1, -2, -2, -2], [-1, -1, 4, -1, -1, -1],
               [1, -2, -1, 4, 1, 1], [1, -2, -1, 1, 4, 1], [1, -2, -1, 1, 1, 4]],
              2, 1, "E6^2 = P6^2"),
    "ste30": ([[2, 0, 1, 1, 1, 1], [0, 2, 1, 1, 1, 1], [1, 1, 2, 1, 1, 1],
               [1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 2, 1], [1, 1, 1, 1, 1, 2]],
              3, 2, "D6 = P6^3"),
    "ste36": ([[2, 0, 0, 1, 1, 1], [0, 2, 1, 1, 1, 1], [0, 1, 2, 1, 1, 1],
               [1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 2, 1], [1, 1, 1, 1, 1, 2]],
              3, 2, "E6 = P6^1"),
    # --- dimension 7 (partial list) ---
    "stf7a": ([[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
               [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1, 0],
               [0, 0, 0, 0, 0, 0, 1]], 4, 3, "Z^7"),
    "stf7d": ([[7, 2, 2, 2, 2, 2, 2], [2, 4, 0, 0, 0, 0, 0], [2, 0, 4, 0, 0, 0, 0],
               [2, 0, 0, 4, 0, 0, 0], [2, 0, 0, 0, 4, 0, 0], [2, 0, 0, 0, 0, 4, 0],
               [2, 0, 0, 0, 0, 0, 4]], 13, 12, "D7*"),
    "stf8": ([[7, -1, -1, -1, -1, -1, -1], [-1, 7, -1, -1, -1, -1, -1],
              [-1, -1, 7, -1, -1, -1, -1], [-1, -1, -1, 7, -1, -1, -1],
              [-1, -1, -1, -1, 7, -1, -1], [-1, -1, -1, -1, -1, 7, -1],
              [-1, -1, -1, -1, -1, -1, 7]], 47, 46, "A7*"),
    "stf28a": ([[2, 1, 1, 1, 1, 1, 1], [1, 2, 1, 1, 1, 1, 1], [1, 1, 2, 1, 1, 1, 1],
                [1, 1, 1, 2, 1, 1, 1], [1, 1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 1, 2, 1],
                [1, 1, 1, 1, 1, 1, 2]], 47, 46, "A7"),
    # symmetrized from the printed (asymmetric) table row; det 64 and kissing
    # number 56 at norm 3 match the rescaled dual of the root lattice E7
    "stf28b": ([[3, 1, 1, -1, 1, 1, 1], [1, 3, -1, -1, 1, 1, 1], [1, -1, 3, -1, -1, -1, -1],
                [-1, -1, -1, 3, -1, -1, -1], [1, 1, -1, -1, 3, 1, 1], [1, 1, -1, -1, 1, 3, 1],
                [1, 1, -1, -1, 1, 1, 3]], 4, 3, "E7*"),
    "stf42": ([[2, 0, 1, 1, 1, 1, 1], [0, 2, 1, 1, 1, 1, 1], [1, 1, 2, 1, 1, 1, 1],
               [1, 1, 1, 2, 1, 1, 1], [1, 1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 1, 2, 1],
               [1, 1, 1, 1, 1, 1, 2]], 13, 12, "P7*"),
    "stf63": ([[2, 0, 0, 1, 1, 1, 1], [0, 2, 1, 1, 1, 1, 1], [0, 1, 2, 1, 1, 1, 1],
               [1, 1, 1, 2, 1, 1, 1], [1, 1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 1, 2, 1],
               [1, 1, 1, 1, 1, 1, 2]], 4, 3, "E7"),
}

_EXPECTED_PER_DIM = {2: 2, 3: 3, 4: 6, 5: 7, 6: 17, 7: 7}
INCOMPLETE_DIMS = frozenset({7})


@dataclass(frozen=True)
class Catalog:
    entries: tuple[LatticeDescriptor, ...]

    def by_name(self, name: str) -> LatticeDescriptor:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no catalogue entry named {name!r}")

    def by_dim(self, dim: int) -> list[LatticeDescriptor]:
        return [e for e in self.entries if e.gram.n == dim]


@functools.cache
def _entries() -> tuple[LatticeDescriptor, ...]:
    """The embedded entries, built and validated once per process."""
    return tuple(LatticeDescriptor(gram=GramMatrix(rows, name=name), name=name,
                                   reference_dimM=dimM, reference_N=N, traditional_name=trad)
                 for name, (rows, dimM, N, trad) in _RAW.items())


def load_catalog() -> Catalog:
    """The embedded catalogue, validated.

    Every matrix is checked symmetric positive definite when the process
    first builds it (the entries are then shared by every call) and the
    per-dimension entry counts are enforced on each call; corrupted
    embedded data is a hard failure.
    """
    cat = Catalog(entries=_entries())
    for dim, expected in _EXPECTED_PER_DIM.items():
        got = len(cat.by_dim(dim))
        if got != expected:
            raise RuntimeError(f"catalogue corrupt: dimension {dim} has {got} entries, "
                               f"expected {expected}")
    return cat


# ---------------------------------------------------------------------------
# table reproduction


def reproduce_tables(
    dims: Iterable[int],
    *,
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> tuple[FullyCriticalReport, ...]:
    """Certify every catalogue entry of the given dimensions, in catalogue order.

    Each entry is certified at the self-contained Gamma_0 horizon of
    ``fully_critical``, on the sparser side of its level duality; its report
    carries the entry (with its reference N) as ``input`` next to the bound
    tested.  The entries are the process's one catalogue (``load_catalog``),
    so no form is validated again.  An exhausted budget is an inconclusive
    report, so every entry gets one.
    """
    dims = sorted(set(int(d) for d in dims))
    bad = [d for d in dims if d not in _EXPECTED_PER_DIM]
    if bad:
        raise ValueError(f"no catalogue data for dimensions {bad}")
    cat = load_catalog()
    return tuple(fully_critical(e, max_vectors=max_vectors)
                 for d in dims for e in cat.by_dim(d))
