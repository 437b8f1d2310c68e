"""Exact invariants of (signed) GKM graphs of 6-manifolds.

From a GKM graph, or a symplectic x-ray it is derived from, this package
computes integer equivariant and ordinary cohomology via the
Chang-Skjelbred edge congruences, Chern / Pontrjagin / Stiefel-Whitney
classes, exact localization integrals, and the Wall-Jupp-Zubr system of
invariants with a diffeomorphism oracle and a complete labeled-graph
isomorphism search.
"""

from .charclasses import descend, equivariant_char_class, localize_integral
from .cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, ring_of
from .errors import GkmError
from .gkm import GKMGraph, builtin, find_isomorphisms
from .wjz import diffeo_verdict, invariant_system, phi_from_graph_iso

__version__ = "0.1.0"

# exactly the names README's Library section imports; everything else is
# imported from its submodule
__all__ = [
    "CohomologyRing",
    "FixedPointClass",
    "GKMGraph",
    "GeneratorBasis",
    "GkmError",
    "builtin",
    "descend",
    "diffeo_verdict",
    "equivariant_char_class",
    "find_isomorphisms",
    "invariant_system",
    "localize_integral",
    "phi_from_graph_iso",
    "ring_of",
]
