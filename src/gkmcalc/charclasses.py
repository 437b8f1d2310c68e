"""Equivariant characteristic classes from fixed-point weights, descent to
ordinary cohomology, and the integral <c, [M]> of a class of A, exact at
the ring's integer point.

At a fixed point with isotropy weights a_1..a_n the total equivariant
Chern class restricts to prod (1 + a_j) (signed graphs only), the
Pontrjagin class to prod (1 + a_j^2) and the Stiefel-Whitney class to the
mod-2 reduction of prod (1 + a_j), carried as its integer lift with
coefficients 0 and 1; the latter two are independent of the sign choices.
"""

from .errors import ChernRequiresSignedGraph, LocalizationRequiresSignedGraph, NotInSubalgebra, Record
from .cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, RingElement, is_gkm_class, ring_of
from .gkm import GKMGraph, all_labels_primitive
from .polyring import IntPolynomial, _mul_terms

KINDS = ("chern", "pontrjagin", "stiefel_whitney")


class EquivariantTotalClass(FixedPointClass):
    """A total class of one of KINDS: an IntPolynomial per vertex, 0/1
    lifts for stiefel_whitney."""

    __slots__ = ("kind",)

    def __init__(self, kind: str, graph: GKMGraph, components):
        super().__init__(graph, components)
        self.kind = kind


def equivariant_char_class(graph: GKMGraph, kind: str) -> EquivariantTotalClass:
    """Total equivariant class of the tangent bundle restricted to the
    fixed points, computed from the incident weights: each vertex's product
    is expanded on term dicts, so one polynomial is built per vertex."""
    if kind not in KINDS:
        raise ValueError("unknown class kind %r" % kind)
    if kind == "chern" and not graph.signed:
        raise ChernRequiresSignedGraph(
            "Chern classes need the signs an invariant almost complex structure provides"
        )
    k = graph.torus_rank
    one, units = (0,) * k, [tuple(int(i == j) for j in range(k)) for i in range(k)]
    comps = []
    for v in graph.vertices:
        total = {one: 1}
        for w in graph.weights_at(v):
            a = {u: c for u, c in zip(units, w) if c}
            total = _mul_terms(total, {one: 1, **(_mul_terms(a, a) if kind == "pontrjagin" else a)})
        comps.append(IntPolynomial._of(k, {e: c % 2 for e, c in total.items()} if kind == "stiefel_whitney" else total))
    return EquivariantTotalClass(kind, graph, tuple(comps))


class CharClassReport(Record):
    """Per-degree coordinates of one descended characteristic class, with
    an optional rendering in user generators. `degrees` is a list of dicts:
    degree, coords, poly (str or None)."""

    __slots__ = _fields = ("kind", "degrees", "generator_names")

    def entry(self, degree):
        for e in self.degrees:
            if e["degree"] == degree:
                return e
        raise KeyError(degree)

    def poly(self, degree):
        return self.entry(degree)["poly"]

    def coords(self, degree):
        return self.entry(degree)["coords"]


def stiefel_whitney_coords(ring: CohomologyRing, sw: FixedPointClass, degree: int):
    """Mod-2 quotient coordinates of w_d from `sw`, any integer lift whose
    degree-d part reduces to w_d, such as the total Stiefel-Whitney class.

    The direct mod-2 solve is sign-independent but can be ambiguous when a
    weight is imprimitive; only there (signed graphs only) the class is
    recovered as the reduction of the integral Chern coordinates, to which
    it is equal whenever both are defined; every other failure is raised.
    """
    try:
        return ring.express_mod2(sw.components, degree)
    except NotInSubalgebra:
        if not ring.graph.signed or all_labels_primitive(ring.graph):
            raise
        chern = equivariant_char_class(ring.graph, "chern")
        elem = ring.express(chern, degree)
        return tuple(c % 2 for c in elem.coords)


def descend(
    graph: GKMGraph,
    total: EquivariantTotalClass,
    gens: GeneratorBasis = None,
    ring: CohomologyRing = None,
) -> CharClassReport:
    """Ordinary characteristic classes: the image of each homogeneous part
    in (A/mA), optionally rewritten in the user generators."""
    ring = ring or ring_of(graph)
    entries = []
    for d in range(2, ring.dim + 1, 2):
        if total.kind == "stiefel_whitney":
            coords = stiefel_whitney_coords(ring, total, d)
            poly = gens.to_poly(RingElement(d, coords)).mod2().render(gens.names) if gens else None
        else:
            elem = ring.express(total, d)
            coords = elem.coords
            poly = gens.render(elem) if gens else None
        entries.append({"degree": d, "coords": tuple(coords), "poly": poly})
    return CharClassReport(total.kind, entries, gens.names if gens else [])


def localize_integral(graph: GKMGraph, c: FixedPointClass):
    """<c, [M]> for a homogeneous class c of A, in the orientation the
    signed labels induce: the localization sum sum_p c_p / e_p, e_p the
    product of the weights at p, taken exactly at the ring's integer point
    xi (`CohomologyRing._point`; see the cohomology module docstring), so
    0 below the top degree. Errors, in order: an unsigned graph, a class of
    mixed degree or above the top degree, InvalidGraph, NoConnection,
    NotInSubalgebra for a class outside A, and NonIntegralLocalizationSum
    for a sum that is not an integer.
    """
    if not graph.signed:
        raise LocalizationRequiresSignedGraph("localization needs the orientation carried by signed labels")
    d = c.degree()
    if d is None and not c.is_zero():
        raise ValueError("localization input must be homogeneous")
    if c.is_zero():
        return 0
    if d > 2 * graph.valence:
        raise ValueError("degree %d exceeds the manifold dimension %d" % (d, 2 * graph.valence))
    point = ring_of(graph)._point
    if not is_gkm_class(c):
        raise NotInSubalgebra("class of degree %d violates the edge congruences; it is not in A" % d)
    return point.integral(point.at(c))
