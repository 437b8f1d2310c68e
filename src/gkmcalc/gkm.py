"""GKM graph data model, validity checking, x-ray ingestion, built-in
examples, and the complete labeled-isomorphism search (graph bijection
plus torus automorphism) between graphs that satisfy the GKM conditions:
there, fixing psi and the image of one vertex forces the whole map.

A graph stores, for every edge and each of its two orientations, the
weight of the edge at the initial vertex. Signed graphs keep the given
signs and must satisfy weight_at_v == -weight_at_u; unsigned graphs store
the canonical representative (first nonzero entry positive) at both ends.
"""

import itertools
import json
import operator
from math import lcm

from .errors import DimensionMismatch, InvalidGraph, Record, SchemaError, UnknownExample, XRayError, int_digit_limit
from .intlinalg import IntMatrix, canonical_sign, det_adjugate, primitive_part

GRAPH_FORMAT = "gkmg/1"
XRAY_FORMAT = "xray/1"


class GraphEdge(Record):
    __slots__ = _fields = ("u", "v", "weight_at_u", "weight_at_v")

    def weight_at(self, vertex):
        if vertex == self.u:
            return self.weight_at_u
        if vertex == self.v:
            return self.weight_at_v
        raise KeyError(vertex)

    def other(self, vertex):
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise KeyError(vertex)


class Violation(Record):
    __slots__ = _fields = ("code", "message")

    def __str__(self):
        return "%s: %s" % (self.code, self.message)


class ValidityReport(Record):
    __slots__ = _fields = ("violations",)

    @property
    def valid(self):
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_torus_rank(k):
    if not _is_int(k) or k < 1:
        raise SchemaError("torus_rank must be a positive integer, got %r" % (k,))
    return k


def _check_name(value, what):
    if not isinstance(value, str):
        raise SchemaError("%s must be a string, got %r" % (what, value))
    return value


def _optional_name(name, what):
    return name if name is None else _check_name(name, what)


def _check_coordinates(coords, k, vertex):
    from fractions import Fraction  # x-ray coordinates alone need it

    if not isinstance(coords, (list, tuple)) or not all(
        _is_int(c) or isinstance(c, Fraction) for c in coords
    ):
        raise SchemaError(
            "coordinates %r of vertex %s must be a sequence of integers or Fractions" % (coords, vertex)
        )
    if len(coords) != k:
        raise SchemaError("vertex %s has %d coordinates, expected %d" % (vertex, len(coords), k))
    return tuple(Fraction(c) for c in coords)


def _check_weight(w, k, where):
    if not isinstance(w, (list, tuple)) or not all(_is_int(x) for x in w):
        raise SchemaError("weight %r on %s must be a sequence of integers" % (w, where))
    w = tuple(w)
    if len(w) != k:
        raise SchemaError("weight %r on %s has length %d, expected %d" % (w, where, len(w), k))
    if all(x == 0 for x in w):
        raise SchemaError("zero weight on %s" % where)
    return w


class GKMGraph:
    """Labeled GKM graph with torus rank k.

    edges entries may be (u, v, weight_at_u) or (u, v, weight_at_u,
    weight_at_v); the second endpoint's weight defaults to the negative
    (signed) or the shared canonical representative (unsigned).
    """

    def __init__(self, torus_rank, vertices, edges, signed, name=None):
        self.torus_rank = _check_torus_rank(torus_rank)
        if not isinstance(signed, bool):
            raise SchemaError("signed must be true or false, got %r" % (signed,))
        self.signed = signed
        self.name = _optional_name(name, "graph name")
        if not isinstance(vertices, (list, tuple)):
            raise SchemaError("vertices must be a list or tuple, got %r" % (vertices,))
        self.vertices = tuple(_check_name(v, "vertex name") for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise SchemaError("duplicate vertex names")
        vset = set(self.vertices)
        if not isinstance(edges, (list, tuple)):
            raise SchemaError("edges must be a list or tuple, got %r" % (edges,))
        out = []
        for entry in edges:
            if not isinstance(entry, (list, tuple)):
                raise SchemaError("edge entry %r must be a list or tuple" % (entry,))
            if len(entry) == 3:
                u, v, wu = entry
                wv = None
            elif len(entry) == 4:
                u, v, wu, wv = entry
            else:
                raise SchemaError("edge entry %r must have 3 or 4 fields" % (entry,))
            _check_name(u, "edge endpoint")
            _check_name(v, "edge endpoint")
            if u not in vset or v not in vset:
                raise SchemaError("edge %s-%s references an unknown vertex" % (u, v))
            if u == v:
                raise SchemaError("self-loop at %s" % u)
            where = "edge %s-%s" % (u, v)
            wu = _check_weight(wu, self.torus_rank, where)
            if self.signed:
                wv = _check_weight(wv, self.torus_rank, where) if wv is not None else tuple(-x for x in wu)
            else:
                wu = canonical_sign(wu)
                wv = canonical_sign(_check_weight(wv, self.torus_rank, where)) if wv is not None else wu
            out.append(GraphEdge(u, v, wu, wv))
        self.edges = tuple(out)
        self._ring = None  # filled by cohomology.ring_of
        self._incidence = {v: [] for v in self.vertices}
        for e in self.edges:
            self._incidence[e.u].append(e)
            self._incidence[e.v].append(e)
        self._validity = None

    def incident(self, vertex):
        return tuple(self._incidence[vertex])

    def weights_at(self, vertex):
        return tuple(e.weight_at(vertex) for e in self._incidence[vertex])

    @property
    def valence(self):
        degrees = {len(self._incidence[v]) for v in self.vertices}
        if len(degrees) == 1:
            return degrees.pop()
        return max(degrees) if degrees else 0

    def validate(self) -> ValidityReport:
        if self._validity is None:
            self._validity = _validate(self)
        return self._validity

    def require_valid(self):
        report = self.validate()
        if not report.valid:
            raise InvalidGraph("graph fails GKM conditions (%s)" % report, report)

    def unsigned(self):
        edges = [(e.u, e.v, e.weight_at_u) for e in self.edges]
        return GKMGraph(self.torus_rank, self.vertices, edges, False, self.name)

    def to_json(self):
        return {
            "format": GRAPH_FORMAT,
            "torus_rank": self.torus_rank,
            "signed": self.signed,
            **({"name": self.name} if self.name else {}),
            "vertices": list(self.vertices),
            "edges": [
                {"from": e.u, "to": e.v, "weight_at_from": list(e.weight_at_u)}
                for e in self.edges
            ],
        }

    def __repr__(self):
        return "GKMGraph(%s: %d vertices, %d edges, rank %d, %s)" % (
            self.name or "?",
            len(self.vertices),
            len(self.edges),
            self.torus_rank,
            "signed" if self.signed else "unsigned",
        )


def _pairwise_independent(weights):
    """The first pair of weights whose 2x2 minors all vanish, or None."""
    for a, b in itertools.combinations(weights, 2):
        if not any(a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2)):
            return (a, b)
    return None


def _validate(g: GKMGraph) -> ValidityReport:
    violations = []
    degrees = {v: len(g.incident(v)) for v in g.vertices}
    if len(set(degrees.values())) > 1:
        detail = ", ".join("%s:%d" % (v, d) for v, d in sorted(degrees.items()))
        violations.append(Violation("NotRegular", "vertex valences differ (%s)" % detail))
    for v in g.vertices:
        dep = _pairwise_independent(g.weights_at(v))
        if dep is not None:
            violations.append(
                Violation(
                    "DependentWeightsAt",
                    "%s carries linearly dependent weights %r and %r" % (v, dep[0], dep[1]),
                )
            )
    # a signed graph expects the negative of weight_at_u at v, an unsigned one the same label
    mismatch = "has weights %r / %r (not negatives)" if g.signed else "has mismatched unsigned labels %r / %r"
    for e in g.edges:
        mate = tuple(-x for x in e.weight_at_u) if g.signed else e.weight_at_u
        if e.weight_at_v != mate:
            violations.append(
                Violation(
                    "SignInconsistency",
                    "edge %s-%s " % (e.u, e.v) + mismatch % (e.weight_at_u, e.weight_at_v),
                )
            )
    if not g.vertices:
        violations.append(Violation("Empty", "the graph has no vertices"))
    else:  # connectivity
        seen = {g.vertices[0]}
        stack = [g.vertices[0]]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                w = e.other(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(g.vertices):
            missing = sorted(set(g.vertices) - seen)
            violations.append(Violation("Disconnected", "unreachable vertices %s" % ", ".join(missing)))
    return ValidityReport(tuple(violations))


# ---------------------------------------------------------------------------
# x-rays


class XRay:
    """Zero- and one-dimensional strata of a moment map image: named
    rational points and the segments connecting them."""

    def __init__(self, torus_rank, vertices, edges, name=None):
        self.torus_rank = _check_torus_rank(torus_rank)
        self.name = _optional_name(name, "x-ray name")
        if not (isinstance(vertices, dict) and isinstance(edges, (list, tuple))):
            raise SchemaError("x-ray vertices must be a dict and edges a list or tuple")
        self.vertices = {
            _check_name(v, "x-ray vertex name"): _check_coordinates(coords, self.torus_rank, v)
            for v, coords in vertices.items()
        }
        self.edges = []
        for idx, entry in enumerate(edges):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise SchemaError("x-ray edge #%d %r must be a (from, to) pair" % (idx, entry))
            u, v = entry
            _check_name(u, "x-ray edge #%d endpoint" % idx)
            _check_name(v, "x-ray edge #%d endpoint" % idx)
            if u not in self.vertices or v not in self.vertices:
                raise SchemaError("x-ray edge #%d %s-%s references an unknown vertex" % (idx, u, v))
            self.edges.append((u, v))

    def validate(self):
        problems = []
        names = sorted(self.vertices)
        for a, b in itertools.combinations(names, 2):
            if self.vertices[a] == self.vertices[b]:
                problems.append("vertices %s and %s share coordinates %r" % (a, b, self.vertices[a]))
        for u, v in self.edges:
            if self.vertices[u] == self.vertices[v]:
                problems.append("edge %s-%s has zero displacement" % (u, v))
        return problems

    def to_json(self):
        def coord(c):
            return int(c) if c.denominator == 1 else [c.numerator, c.denominator]

        return {
            "format": XRAY_FORMAT,
            "torus_rank": self.torus_rank,
            **({"name": self.name} if self.name else {}),
            "vertices": {v: [coord(c) for c in cs] for v, cs in self.vertices.items()},
            "edges": [list(e) for e in self.edges],
        }

    def __repr__(self):
        return "XRay(%s: %d vertices, %d edges)" % (self.name or "?", len(self.vertices), len(self.edges))


def graph_from_xray(xray: XRay) -> GKMGraph:
    """Signed GKM graph of an x-ray with connected isotropy groups: the
    weight at the initial vertex of an edge is the primitive vector
    pointing toward the terminal vertex."""
    problems = xray.validate()
    if problems:
        raise XRayError("; ".join(problems))
    edges = []
    for u, v in xray.edges:
        disp = [b - a for a, b in zip(xray.vertices[u], xray.vertices[v])]
        denom = lcm(*(c.denominator for c in disp))
        ints = [int(c * denom) for c in disp]
        edges.append((u, v, primitive_part(ints)))
    g = GKMGraph(xray.torus_rank, sorted(xray.vertices), edges, signed=True, name=xray.name)
    report = g.validate()
    if not report.valid:
        raise XRayError("derived graph fails GKM conditions: %s" % report)
    return g


# ---------------------------------------------------------------------------
# isomorphism search


class GraphIso(Record):
    """Vertex bijection together with the torus automorphism matrix psi;
    psi applied to the weight of e at i(e) gives the weight of the image
    edge at the image vertex (up to sign for unsigned graphs). vertex_map
    is the sorted tuple of (vertex in G1, vertex in G2)."""

    __slots__ = _fields = ("vertex_map", "psi")

    def mapping(self):
        return dict(self.vertex_map)


def _independent_base_edges(g: GKMGraph):
    """The least-named vertex that carries k independent weights, the first
    k of its edges whose weights B span Q^k, det B, which is nonzero, and
    adj B."""
    for v in sorted(g.vertices):
        for combo in itertools.combinations(g.incident(v), g.torus_rank):
            det, adj = det_adjugate([e.weight_at(v) for e in combo])
            if det:
                return v, combo, det, adj
    return None


def _solve_psi(adj, det, target_weights):
    """Integer unimodular psi with psi * base_i = target_i, or None.

    Row i of psi solves B x = (target_j[i])_j for the nonsingular matrix B
    whose rows are the base weights, so x = adj(B) * c / det(B) is the only
    solution, integral exactly when det(B) divides every entry of adj(B) * c.
    """
    x = [divmod(sum(map(operator.mul, a, c)), det) for c in zip(*target_weights) for a in adj]
    if any(r for _, r in x):
        return None
    psi = IntMatrix(len(adj), len(adj), [q for q, _ in x])
    return psi if psi.is_unimodular() else None


def _extend_iso(g1, labels, base, image, psi, lab):
    """The vertex map that sends base to image and carries each edge label
    through psi, or None when some label has no image. labels[u] maps the
    label lab(w) of each edge at u in g2 to the edge's other end.

    The map is forced: on a GKM graph the weights at a vertex are pairwise
    independent, so at most one edge at phi(v) carries the label psi*w (even
    up to sign), and phi of each neighbour of v follows from phi(v). The
    walk from base reaches every vertex, since the graph is connected.
    """
    phi = {base: image}
    stack = [base]
    while stack:
        v = stack.pop()
        at = labels[phi[v]]
        for e in g1.incident(v):
            x = at.get(lab(psi.apply(e.weight_at(v))))
            if x is None:
                return None
            w = e.other(v)
            if w not in phi:
                phi[w] = x
                stack.append(w)
            elif phi[w] != x:
                return None
    return phi


def find_isomorphisms(g1: GKMGraph, g2: GKMGraph, signed: bool, least=False):
    """All (vertex bijection, torus automorphism) pairs carrying g1's
    labels onto g2's: exactly for signed graphs, up to sign otherwise,
    sorted by (vertex_map, psi entries). With least=True, only the first
    of that list: [] or [iso].

    Both graphs must satisfy the GKM conditions (InvalidGraph otherwise).
    A base vertex with k independent incident weights pins psi for each
    choice of its image and of the image edges; each integral unimodular
    solution forces the whole vertex map. What the walk accepts is an
    isomorphism: both graphs are valid with equal valence, |V| and |E|,
    and psi is unimodular. The weights at each g2 vertex are pairwise
    independent, so their labels are distinct, the walk maps the edges at
    v one-to-one onto those at phi(v), and it gives each edge the same
    image from both ends. A locally bijective, label-preserving map
    between connected graphs with equally many vertices is a bijection on
    vertices and on edges. Distinct choices give distinct (image, psi)
    pairs, so nothing is found twice.

    The base is the least-named such vertex v. When v is g1's least name,
    (v, phi(v)) is the first pair of every vertex_map, so least=True tries
    the images of v in name order and stops at the first that has any
    isomorphism; otherwise it takes the least of the complete list.
    """
    if g1.torus_rank != g2.torus_rank:
        raise DimensionMismatch("torus ranks differ (%d vs %d)" % (g1.torus_rank, g2.torus_rank))
    if g1.valence != g2.valence:
        raise DimensionMismatch("valences differ (%d vs %d)" % (g1.valence, g2.valence))
    if signed and not (g1.signed and g2.signed):
        raise ValueError("signed comparison requires signed graphs")
    g1.require_valid()
    g2.require_valid()
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return []
    base = _independent_base_edges(g1)
    if base is None:
        raise InvalidGraph("no vertex carries %d independent weights; automorphism underdetermined" % g1.torus_rank)
    v0, base_edges, det, adj = base
    k = g1.torus_rank
    sign_choices = [(1,) * k] if signed else list(itertools.product((1, -1), repeat=k))
    lab = tuple if signed else canonical_sign
    labels = {u: {lab(f.weight_at(u)): f.other(u) for f in g2.incident(u)} for u in g2.vertices}
    stop_early = least and v0 == min(g1.vertices)
    found = []
    for u0 in sorted(g2.vertices):
        for combo in itertools.permutations(g2.incident(u0), k):
            targets = [e.weight_at(u0) for e in combo]
            for signs in sign_choices:
                psi = _solve_psi(adj, det, [tuple(s * x for x in t) for s, t in zip(signs, targets)])
                phi = None if psi is None else _extend_iso(g1, labels, v0, u0, psi, lab)
                if phi is not None:
                    found.append(GraphIso(tuple(sorted(phi.items())), psi))
        if stop_early and found:
            break
    found.sort(key=lambda iso: (iso.vertex_map, iso.psi.entries))
    return found[:1] if least else found


# ---------------------------------------------------------------------------
# built-in examples

# name -> (vertex coordinates, edges) of each built-in x-ray; Woodward's
# example has Tolman's x-ray.
_XRAYS = {
    "eschenburg": (
        {
            "p1": (-2, 1),
            "p2": (1, -1),
            "p3": (2, 0),
            "p4": (2, -3),
            "p5": (0, 0),
            "p6": (1, 1),
        },
        [
            ("p1", "p4"), ("p1", "p5"), ("p1", "p6"),
            ("p2", "p4"), ("p2", "p5"), ("p2", "p6"),
            ("p3", "p4"), ("p3", "p5"), ("p3", "p6"),
        ],
    ),
    "tolman": (
        {
            "t1": (-2, 0),
            "t2": (-1, 0),
            "t3": (-2, -3),
            "t4": (0, -2),
            "t5": (2, -3),
            "t6": (-1, -2),
        },
        [
            ("t1", "t2"), ("t1", "t3"), ("t1", "t4"),
            ("t2", "t5"), ("t2", "t6"),
            ("t3", "t5"), ("t3", "t6"),
            ("t4", "t5"), ("t4", "t6"),
        ],
    ),
}
_XRAYS["woodward"] = _XRAYS["tolman"]

# CP1 x CP2 with the rank-2 subaction (s,t).([x0:x1],[y0:y1:y2]) =
# ([s x0 : x1], [s y0 : t y1 : y2]); a* vertices have x = [1:0], b* have
# x = [0:1], the digit names the nonzero y coordinate. The subtorus is not
# generic: several vertices carry parallel weights, so this example fails
# the GKM conditions and exercises the DependentWeightsAt diagnostics.
_CP1XCP2_EDGES = [
    ("a0", "a1", (-1, 1)), ("a0", "a2", (-1, 0)), ("a1", "a2", (0, -1)),
    ("b0", "b1", (-1, 1)), ("b0", "b2", (-1, 0)), ("b1", "b2", (0, -1)),
    ("a0", "b0", (-1, 0)), ("a1", "b1", (-1, 0)), ("a2", "b2", (-1, 0)),
]

_SWAP = {"p1": "p5", "p5": "p1", "p2": "p4", "p4": "p2", "p3": "p6", "p6": "p3"}

BUILTIN_NAMES = (*_XRAYS, "eschenburg-swapped", "cp1xcp2")


def _eschenburg_swapped():
    esc = builtin("eschenburg")
    by_ends = {frozenset((e.u, e.v)): e for e in esc.edges}
    edges = []
    for e in esc.edges:
        # weight data at v comes from the swapped vertex, edge set is
        # invariant under the swap
        src = by_ends[frozenset((_SWAP[e.u], _SWAP[e.v]))]
        edges.append((e.u, e.v, src.weight_at(_SWAP[e.u]), src.weight_at(_SWAP[e.v])))
    return GKMGraph(2, esc.vertices, edges, signed=True, name="eschenburg-swapped")


def builtin(name, kind="graph"):
    """Named example ('graph' or 'xray').

    eschenburg, tolman and woodward carry both forms; eschenburg-swapped
    and cp1xcp2 exist only as graphs.
    """
    name = str(name)
    if name not in BUILTIN_NAMES:
        raise UnknownExample("unknown example %r (known: %s)" % (name, ", ".join(BUILTIN_NAMES)))
    if kind == "xray":
        if name not in _XRAYS:
            raise UnknownExample("example %r has no x-ray form" % name)
        return XRay(2, *_XRAYS[name], name=name)
    if kind != "graph":
        raise UnknownExample("unknown example kind %r" % kind)
    if name in _XRAYS:
        return graph_from_xray(builtin(name, "xray"))
    if name == "eschenburg-swapped":
        return _eschenburg_swapped()
    return GKMGraph(2, ["a0", "a1", "a2", "b0", "b1", "b2"], _CP1XCP2_EDGES, signed=True, name="cp1xcp2")


# Degree-2 generator classes of the Eschenburg family, as per-vertex
# polynomials in Y1, Y2. Valid on both fiber identifications.
ESCHENBURG_GENERATORS = {
    "X1": {
        "p1": "Y1 - Y2",
        "p2": "-Y2",
        "p3": "-Y1",
        "p4": "-Y1 + Y2",
        "p5": "-Y1",
        "p6": "-Y2",
    },
    "X2": {
        "p1": "-Y1",
        "p2": "-Y1 + Y2",
        "p3": "-Y2",
        "p4": "-Y2",
        "p5": "Y1 - Y2",
        "p6": "-Y1",
    },
}


def builtin_generators(graph: GKMGraph):
    """Generator bindings for --gens on the Eschenburg-family graphs."""
    if set(graph.vertices) == set(_XRAYS["eschenburg"][0]):
        return ESCHENBURG_GENERATORS
    return None


def all_labels_primitive(graph: GKMGraph) -> bool:
    """Whether every edge weight is a primitive lattice vector; supporting
    evidence (not a proof) for connected isotropy on the one-skeleton."""
    return all(primitive_part(e.weight_at_u) == e.weight_at_u for e in graph.edges)


# ---------------------------------------------------------------------------
# JSON I/O: the loaders translate the file formats, and the GKMGraph and
# XRay constructors alone check what they are given


def _require(d, key, context):
    if key not in d:
        raise SchemaError("missing %r in %s" % (key, context))
    return d[key]


def graph_from_json(data) -> GKMGraph:
    if not isinstance(data, dict):
        raise SchemaError("graph document must be a JSON object")
    fmt = _require(data, "format", "graph document")
    if fmt != GRAPH_FORMAT:
        raise SchemaError("unknown format version %r (expected %r)" % (fmt, GRAPH_FORMAT))
    k = _require(data, "torus_rank", "graph document")
    signed = _require(data, "signed", "graph document")
    vertices = _require(data, "vertices", "graph document")
    raw_edges = _require(data, "edges", "graph document")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    # the same geometric edge may appear once per orientation; the second
    # occurrence becomes weight_at_v of the first, so sign inconsistencies
    # surface in validate() rather than duplicating the edge
    merged = []
    open_by_pair = {}
    for idx, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError("edge #%d must be an object" % idx)
        u = _check_name(_require(e, "from", "edge #%d" % idx), "edge #%d from" % idx)
        v = _check_name(_require(e, "to", "edge #%d" % idx), "edge #%d to" % idx)
        w = _require(e, "weight_at_from", "edge %s-%s" % (u, v))
        if not (isinstance(w, list) and all(_is_int(x) for x in w)):
            raise SchemaError("weight_at_from on edge %s-%s must be a list of integers, got %r" % (u, v, w))
        mate = open_by_pair.get((v, u))
        if mate:
            mate.pop(0).append(w)
        else:
            entry = [u, v, w]
            open_by_pair.setdefault((u, v), []).append(entry)
            merged.append(entry)
    return GKMGraph(k, vertices, merged, signed, name=data.get("name"))


def xray_from_json(data) -> XRay:
    from fractions import Fraction  # x-ray coordinates alone need it

    if not isinstance(data, dict):
        raise SchemaError("x-ray document must be a JSON object")
    fmt = _require(data, "format", "x-ray document")
    if fmt != XRAY_FORMAT:
        raise SchemaError("unknown format version %r (expected %r)" % (fmt, XRAY_FORMAT))
    k = _require(data, "torus_rank", "x-ray document")
    raw_vertices = _require(data, "vertices", "x-ray document")
    if not isinstance(raw_vertices, dict):
        raise SchemaError("x-ray vertices must be an object of coordinate lists")
    edges = _require(data, "edges", "x-ray document")

    def coord(c, vertex):
        if _is_int(c):
            return Fraction(c)
        if isinstance(c, list) and len(c) == 2 and all(_is_int(x) for x in c):
            if c[1] == 0:
                raise SchemaError("zero denominator at vertex %s" % vertex)
            return Fraction(c[0], c[1])
        raise SchemaError("coordinate %r at vertex %s must be an int or [num, den]" % (c, vertex))

    vertices = {}
    for v, cs in raw_vertices.items():
        if not isinstance(cs, list):
            raise SchemaError("coordinates of vertex %s must be a list" % v)
        vertices[v] = [coord(c, v) for c in cs]
    return XRay(k, vertices, edges, name=data.get("name"))


def read_json(path):
    """The JSON document in the file at `path`; malformed or non-UTF-8 JSON,
    integer literals past the digit limit, and nesting past the recursion
    limit are a SchemaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("%s: malformed JSON at line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))
        except UnicodeDecodeError:
            raise SchemaError("%s: not UTF-8 text" % path)
        except ValueError:  # what json.load raises for an over-long int literal
            raise SchemaError("%s: an integer literal has more than %d digits" % (path, int_digit_limit()))
        except RecursionError:
            raise SchemaError("%s: JSON nested too deeply" % path)


def load_input(path):
    """Parse a gkmg or xray JSON file, dispatching on its format field; every
    SchemaError names the file."""
    data = read_json(path)
    if not isinstance(data, dict) or "format" not in data:
        raise SchemaError("%s: missing format field" % path)
    fmt = data["format"]
    if fmt not in (GRAPH_FORMAT, XRAY_FORMAT):
        raise SchemaError("%s: unknown format version %r" % (path, fmt))
    try:
        return graph_from_json(data) if fmt == GRAPH_FORMAT else xray_from_json(data)
    except SchemaError as exc:
        raise SchemaError("%s: %s" % (path, exc)) from None
