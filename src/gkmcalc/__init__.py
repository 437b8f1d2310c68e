"""Exact invariants of (signed) GKM graphs of 6-manifolds.

From a GKM graph, or a symplectic x-ray it is derived from, this package
computes integer equivariant and ordinary cohomology via the
Chang-Skjelbred edge congruences, Chern / Pontrjagin / Stiefel-Whitney
classes, exact localization integrals, and the Wall-Jupp-Zubr system of
invariants with a diffeomorphism oracle and a complete labeled-graph
isomorphism search.

Importing the package loads no submodule: each name in `__all__` is
imported from its submodule when first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# exactly the names README's Library section imports; everything else is
# imported from its submodule
_SOURCES = {
    "charclasses": ("descend", "equivariant_char_class", "localize_integral"),
    "cohomology": ("CohomologyRing", "FixedPointClass", "GeneratorBasis", "ring_of"),
    "errors": ("GkmError",),
    "gkm": ("GKMGraph", "builtin", "find_isomorphisms"),
    "wjz": ("diffeo_verdict", "invariant_system", "phi_from_graph_iso"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
