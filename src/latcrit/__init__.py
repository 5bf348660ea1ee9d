"""Certification of spherical 2-designs on lattice shells and height numerics.

Exact rational machinery establishes whether every layer of a lattice is a
spherical 2-design (which makes the lattice a stationary point of the torus
height); floating-point machinery evaluates the Epstein zeta continuation,
the height itself, and the stationarity residual on the determinant-1
manifold.
"""

from .gram import (
    GramError,
    GramMatrix,
    LatticeDescriptor,
    ParityError,
    determinant,
    double,
    gram_from_json,
    gram_from_text,
    gram_inverse,
    is_even,
    level,
    load_gram,
)
from .shells import (
    EnumerationBudgetError,
    cardinality_vector,
    dump_spectrum,
    enumerate_layers,
    layer_moments,
    lll_reduce,
    short_vectors_float,
)
from .design import (
    DesignComputationError,
    DesignVerdict,
    two_design_verdict,
)
from .certify import (
    FullyCriticalReport,
    VERDICT_CRITICAL,
    VERDICT_FAILURE,
    VERDICT_INCONCLUSIVE,
    conjecture_probe,
    fully_critical,
    gamma0_cusps,
    gamma0_horizon,
)
from .specfun import GammaDomainError, upper_gamma
from .height import (
    HeightReport,
    TruncationError,
    ZetaPoleError,
    completed_zeta,
    epstein_zeta,
    height,
    height_constant,
)
from .catalog import Catalog, load_catalog, reproduce_tables

__version__ = "0.1.0"
