"""Exact invariants of (signed) GKM graphs of 6-manifolds.

From a GKM graph, or a symplectic x-ray it is derived from, this package
computes integer equivariant and ordinary cohomology via the
Chang-Skjelbred edge congruences, Chern / Pontrjagin / Stiefel-Whitney
classes, exact localization integrals, and the Wall-Jupp-Zubr system of
invariants with a diffeomorphism oracle and a complete labeled-graph
isomorphism search.
"""

from .charclasses import (
    CharClassReport,
    EquivariantTotalClass,
    descend,
    equivariant_char_class,
    localize_integral,
)
from .cohomology import (
    CohomologyRing,
    FixedPointClass,
    GeneratorBasis,
    GradedBasis,
    RingElement,
    is_gkm_class,
)
from .errors import GkmError
from .gkm import (
    GKMGraph,
    GraphIso,
    XRay,
    builtin,
    find_isomorphisms,
    graph_from_xray,
    load_input,
)
from .intlinalg import (
    IntMatrix,
    SNFDecomposition,
    kernel_saturated,
    primitive_part,
    smith_normal_form,
    solve_integer,
)
from .polyring import IntPolynomial, Mod2Polynomial, divide_by_linear
from .wjz import (
    Equivalence,
    InvariantSystem,
    are_equivalent,
    diffeo_verdict,
    invariant_system,
)

__version__ = "0.1.0"

__all__ = [
    "CharClassReport",
    "CohomologyRing",
    "Equivalence",
    "EquivariantTotalClass",
    "FixedPointClass",
    "GKMGraph",
    "GeneratorBasis",
    "GkmError",
    "GradedBasis",
    "GraphIso",
    "IntMatrix",
    "IntPolynomial",
    "InvariantSystem",
    "Mod2Polynomial",
    "RingElement",
    "SNFDecomposition",
    "XRay",
    "are_equivalent",
    "builtin",
    "descend",
    "diffeo_verdict",
    "divide_by_linear",
    "equivariant_char_class",
    "find_isomorphisms",
    "graph_from_xray",
    "invariant_system",
    "is_gkm_class",
    "kernel_saturated",
    "load_input",
    "localize_integral",
    "primitive_part",
    "smith_normal_form",
    "solve_integer",
]
