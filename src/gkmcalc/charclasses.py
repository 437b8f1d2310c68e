"""Equivariant characteristic classes from fixed-point weights, descent to
ordinary cohomology, and exact fixed-point localization integration.

At a fixed point with isotropy weights a_1..a_n the total equivariant
Chern class restricts to prod (1 + a_j) (signed graphs only), the
Pontrjagin class to prod (1 + a_j^2) and the Stiefel-Whitney class to the
mod-2 reduction of prod (1 + a_j), carried as its integer lift with
coefficients 0 and 1; the latter two are independent of the sign choices.
"""

from collections import Counter
from math import gcd, lcm

from .errors import ChernRequiresSignedGraph, LocalizationRequiresSignedGraph, NonIntegralLocalizationSum, NotInSubalgebra, Record
from .cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, RingElement, ring_of
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


def _sum_over_lcm(terms):
    """The sum of fractions (num, kappa, lines), each num / (kappa * prod of
    lines), added in a balanced tree: each partial sum is over the lcm of
    its two halves' denominators."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    (n1, k1, lines1), (n2, k2, lines2) = _sum_over_lcm(terms[:half]), _sum_over_lcm(terms[half:])
    lines, kappa = lines1 | lines2, lcm(k1, k2)
    return _times(n1, kappa // k1, lines - lines1) + _times(n2, kappa // k2, lines - lines2), kappa, lines


def _times(p, m, lines):
    """p times the integer m and each line."""
    if m != 1:
        p = p * m
    for line in lines.elements():
        p = p * IntPolynomial.linear_form(line)
    return p


def localize_integral(graph: GKMGraph, c: FixedPointClass):
    """Exact evaluation of the localization sum sum_p c_p / e_p, where e_p
    is the product of the weights at p.

    For a homogeneous class of degree 2n this is the pairing with the
    fundamental class in the orientation the signed labels induce; below
    the top degree the sum cancels to zero. Each e_p is kappa_p times the
    product of its primitive weight lines (first nonzero entry positive),
    and the nonzero terms are added pairwise in a balanced tree, each
    partial sum over the lcm of its two denominators, so no denominator
    carries more than the graph's distinct lines. The total num/den is
    exact, so a sum that fails to be an integer (or to cancel) is detected
    and flags invalid input data.
    """
    if not graph.signed:
        raise LocalizationRequiresSignedGraph(
            "localization needs the orientation carried by signed labels"
        )
    d = c.degree()
    if d is None and not c.is_zero():
        raise ValueError("localization input must be homogeneous")
    if c.is_zero():
        return 0
    n2 = 2 * graph.valence
    if d > n2:
        raise ValueError("degree %d exceeds the manifold dimension %d" % (d, n2))
    terms = []
    for v, cp in zip(graph.vertices, c.components):
        if cp:
            kappa, lines = 1, Counter()
            for w in graph.weights_at(v):
                g = gcd(*w) if next(filter(None, w)) > 0 else -gcd(*w)
                kappa *= g
                lines[tuple(x // g for x in w)] += 1
            terms.append((cp, kappa, lines))
    num, kappa, lines = _sum_over_lcm(terms)
    if d < n2:
        if not num.is_zero():
            raise NonIntegralLocalizationSum(
                "localization sum of a degree-%d class does not cancel; "
                "the labels are inconsistent" % d
            )
        return 0
    # degree 2n: the sum is a constant, so num = r * den
    den = _times(IntPolynomial.constant(graph.torus_rank, 1), kappa, lines)
    exps, dc = next(iter(den.terms.items()))
    g = gcd(num.coefficient(exps), dc) * (1 if dc > 0 else -1)  # r = rn / rd in lowest terms, rd > 0
    rn, rd = num.coefficient(exps) // g, dc // g
    if num * rd != den * rn:
        raise NonIntegralLocalizationSum(
            "localization sum is not constant; the labels are inconsistent"
        )
    if rd != 1:
        from fractions import Fraction  # only to print the sum

        raise NonIntegralLocalizationSum("localization sum %s is not an integer" % Fraction(rn, rd))
    return rn
