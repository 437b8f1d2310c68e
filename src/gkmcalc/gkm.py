"""GKM graph data model, validity checking, x-ray ingestion, built-in
examples, and the complete labeled-isomorphism search (graph bijection
plus torus automorphism).

A graph stores, for every edge and each of its two orientations, the
weight of the edge at the initial vertex. Signed graphs keep the given
signs and must satisfy weight_at_v == -weight_at_u; unsigned graphs store
the canonical representative (first nonzero entry positive) at both ends.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DimensionMismatch,
    InvalidGraph,
    SchemaError,
    UnknownExample,
    XRayError,
)
from .intlinalg import (
    IntMatrix,
    canonical_sign,
    primitive_part,
    rank,
    smith_normal_form,
    solve_with_snf,
)

GRAPH_FORMAT = "gkmg/1"
XRAY_FORMAT = "xray/1"


@dataclass(frozen=True)
class GraphEdge:
    u: str
    v: str
    weight_at_u: tuple
    weight_at_v: tuple

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


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return "%s: %s" % (self.code, self.message)


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple

    @property
    def valid(self):
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def _check_weight(w, k, where):
    w = tuple(int(x) for x in w)
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
        self.torus_rank = int(torus_rank)
        self.signed = bool(signed)
        self.name = name
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise SchemaError("duplicate vertex names")
        vset = set(self.vertices)
        out = []
        for entry in edges:
            if len(entry) == 3:
                u, v, wu = entry
                wv = None
            elif len(entry) == 4:
                u, v, wu, wv = entry
            else:
                raise SchemaError("edge entry %r must have 3 or 4 fields" % (entry,))
            u, v = str(u), str(v)
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

    def relabel_weights(self, flips):
        """New signed graph with the listed edge indices' weights negated
        at both ends (still a consistent signed graph)."""
        flips = set(flips)
        edges = []
        for i, e in enumerate(self.edges):
            if i in flips:
                edges.append((e.u, e.v, tuple(-x for x in e.weight_at_u), tuple(-x for x in e.weight_at_v)))
            else:
                edges.append((e.u, e.v, e.weight_at_u, e.weight_at_v))
        return GKMGraph(self.torus_rank, self.vertices, edges, self.signed, self.name)

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
    for a, b in itertools.combinations(weights, 2):
        if rank(IntMatrix.from_rows([a, b])) < 2:
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
    for e in g.edges:
        if g.signed:
            if e.weight_at_v != tuple(-x for x in e.weight_at_u):
                violations.append(
                    Violation(
                        "SignInconsistency",
                        "edge %s-%s has weights %r / %r (not negatives)"
                        % (e.u, e.v, e.weight_at_u, e.weight_at_v),
                    )
                )
        elif e.weight_at_v != e.weight_at_u:
            violations.append(
                Violation(
                    "SignInconsistency",
                    "edge %s-%s has mismatched unsigned labels %r / %r"
                    % (e.u, e.v, e.weight_at_u, e.weight_at_v),
                )
            )
    # connectivity
    if g.vertices:
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
        self.torus_rank = int(torus_rank)
        self.name = name
        self.vertices = {}
        for v, coords in vertices.items():
            coords = tuple(Fraction(c) for c in coords)
            if len(coords) != self.torus_rank:
                raise SchemaError("vertex %s has %d coordinates, expected %d" % (v, len(coords), self.torus_rank))
            self.vertices[str(v)] = coords
        self.edges = []
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in self.vertices or v not in self.vertices:
                raise SchemaError("x-ray edge %s-%s references an unknown vertex" % (u, v))
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


@dataclass(frozen=True)
class GraphIso:
    """Vertex bijection together with the torus automorphism matrix psi;
    psi applied to the weight of e at i(e) gives the weight of the image
    edge at the image vertex (up to sign for unsigned graphs)."""

    vertex_map: tuple  # sorted tuple of (vertex in G1, vertex in G2)
    psi: IntMatrix

    def mapping(self):
        return dict(self.vertex_map)

    def verify(self, g1: GKMGraph, g2: GKMGraph, signed: bool) -> bool:
        phi = self.mapping()
        if sorted(phi) != sorted(g1.vertices) or sorted(phi.values()) != sorted(g2.vertices):
            return False
        if not self.psi.is_unimodular():
            return False
        remaining = list(g2.edges)
        for e in g1.edges:
            target = self.psi.apply(e.weight_at_u)
            hit = None
            for i, f in enumerate(remaining):
                if {f.u, f.v} != {phi[e.u], phi[e.v]}:
                    continue
                w = f.weight_at(phi[e.u])
                if signed:
                    ok = w == target
                else:
                    ok = canonical_sign(w) == canonical_sign(target)
                if ok:
                    hit = i
                    break
            if hit is None:
                return False
            remaining.pop(hit)
        return not remaining


def _independent_base_edges(g: GKMGraph):
    """A vertex together with k incident edges whose weights span Q^k."""
    k = g.torus_rank
    for v in g.vertices:
        edges = g.incident(v)
        for combo in itertools.combinations(edges, k):
            w = IntMatrix.from_rows([e.weight_at(v) for e in combo])
            if rank(w) == k:
                return v, list(combo)
    return None


def _solve_psi(base_dec, target_weights):
    """Integer unimodular psi with psi * base_i = target_i, or None.

    base_dec is the Smith form of the matrix whose rows are the base
    weights; row i of psi solves that matrix times x = (target_j[i])_j.
    """
    rows = []
    for i in range(len(target_weights)):
        x = solve_with_snf(base_dec, [t[i] for t in target_weights])
        if x is None:
            return None
        rows.append(x)
    psi = IntMatrix.from_rows(rows)
    if not psi.is_unimodular():
        return None
    return psi


def _extend_iso(g1, g2, base, image, psi, signed):
    """Grow the vertex map from base -> image, matching edge labels through
    psi; branches on ambiguous matches (only possible off the GKM
    conditions) and yields completed bijections."""

    def matches(weight, candidate):
        if signed:
            return candidate == weight
        return canonical_sign(candidate) == canonical_sign(weight)

    def rec(phi, used, frontier):
        if not frontier:
            if len(phi) == len(g1.vertices):
                yield dict(phi)
            return
        v = frontier[0]
        rest = frontier[1:]
        u = phi[v]
        pending = []
        for e in g1.incident(v):
            w = e.other(v)
            target = psi.apply(e.weight_at(v))
            cands = [f for f in g2.incident(u) if matches(target, f.weight_at(u))]
            pending.append((w, [f.other(u) for f in cands]))

        def assign(i, phi, used, newly):
            if i == len(pending):
                yield from rec(phi, used, rest + newly)
                return
            w, images = pending[i]
            if w in phi:
                if phi[w] in images:
                    yield from assign(i + 1, phi, used, newly)
                return
            for img in images:
                if img in used:
                    continue
                phi2 = dict(phi)
                phi2[w] = img
                yield from assign(i + 1, phi2, used | {img}, newly + [w])

        yield from assign(0, phi, used, [])

    yield from rec({base: image}, {image}, [base])


def find_isomorphisms(g1: GKMGraph, g2: GKMGraph, signed: bool):
    """All (vertex bijection, torus automorphism) pairs carrying g1's
    labels onto g2's: exactly for signed graphs, up to sign otherwise.

    A base vertex with k independent incident weights pins psi for each
    candidate image assignment; each integral unimodular solution is then
    extended over the graph and re-verified edge by edge.
    """
    if g1.torus_rank != g2.torus_rank:
        raise DimensionMismatch("torus ranks differ (%d vs %d)" % (g1.torus_rank, g2.torus_rank))
    if g1.valence != g2.valence:
        raise DimensionMismatch("valences differ (%d vs %d)" % (g1.valence, g2.valence))
    if signed and not (g1.signed and g2.signed):
        raise ValueError("signed comparison requires signed graphs")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return []
    base = _independent_base_edges(g1)
    if base is None:
        raise InvalidGraph("no vertex carries %d independent weights; automorphism underdetermined" % g1.torus_rank)
    v0, base_edges = base
    base_dec = smith_normal_form(IntMatrix.from_rows([e.weight_at(v0) for e in base_edges]))
    k = g1.torus_rank
    found = []
    seen = set()
    for u0 in g2.vertices:
        for combo in itertools.permutations(g2.incident(u0), k):
            targets = [e.weight_at(u0) for e in combo]
            if signed:
                sign_choices = [(1,) * k]
            else:
                sign_choices = list(itertools.product((1, -1), repeat=k))
            for signs in sign_choices:
                psi = _solve_psi(base_dec, [tuple(s * x for x in t) for s, t in zip(signs, targets)])
                if psi is None:
                    continue
                for phi in _extend_iso(g1, g2, v0, u0, psi, signed):
                    iso = GraphIso(tuple(sorted(phi.items())), psi)
                    key = (iso.vertex_map, psi.entries)
                    if key in seen:
                        continue
                    seen.add(key)
                    if iso.verify(g1, g2, signed):
                        found.append(iso)
    found.sort(key=lambda iso: (iso.vertex_map, iso.psi.entries))
    return found


# ---------------------------------------------------------------------------
# built-in examples

_ESCHENBURG_COORDS = {
    "p1": (-2, 1),
    "p2": (1, -1),
    "p3": (2, 0),
    "p4": (2, -3),
    "p5": (0, 0),
    "p6": (1, 1),
}
_ESCHENBURG_EDGES = [
    ("p1", "p4"), ("p1", "p5"), ("p1", "p6"),
    ("p2", "p4"), ("p2", "p5"), ("p2", "p6"),
    ("p3", "p4"), ("p3", "p5"), ("p3", "p6"),
]

_TOLMAN_COORDS = {
    "t1": (-2, 0),
    "t2": (-1, 0),
    "t3": (-2, -3),
    "t4": (0, -2),
    "t5": (2, -3),
    "t6": (-1, -2),
}
_TOLMAN_EDGES = [
    ("t1", "t2"), ("t1", "t3"), ("t1", "t4"),
    ("t2", "t5"), ("t2", "t6"),
    ("t3", "t5"), ("t3", "t6"),
    ("t4", "t5"), ("t4", "t6"),
]

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

BUILTIN_NAMES = ("eschenburg", "tolman", "woodward", "eschenburg-swapped", "cp1xcp2")


def _eschenburg_xray():
    return XRay(2, _ESCHENBURG_COORDS, _ESCHENBURG_EDGES, name="eschenburg")


def _tolman_xray(name="tolman"):
    return XRay(2, _TOLMAN_COORDS, _TOLMAN_EDGES, name=name)


def _eschenburg_swapped():
    esc = graph_from_xray(_eschenburg_xray())
    edges = []
    for e in esc.edges:
        # weight data at v comes from the swapped vertex, edge set is
        # invariant under the swap
        src = next(
            f for f in esc.edges if {f.u, f.v} == {_SWAP[e.u], _SWAP[e.v]}
        )
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
        if name == "eschenburg":
            return _eschenburg_xray()
        if name == "tolman":
            return _tolman_xray()
        if name == "woodward":
            return _tolman_xray(name="woodward")
        raise UnknownExample("example %r has no x-ray form" % name)
    if kind != "graph":
        raise UnknownExample("unknown example kind %r" % kind)
    if name in ("eschenburg", "tolman", "woodward"):
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
    if set(graph.vertices) == set(_ESCHENBURG_COORDS):
        return ESCHENBURG_GENERATORS
    return None


def all_labels_primitive(graph: GKMGraph) -> bool:
    """Whether every edge weight is a primitive lattice vector; supporting
    evidence (not a proof) for connected isotropy on the one-skeleton."""
    return all(primitive_part(e.weight_at_u) == e.weight_at_u for e in graph.edges)


# ---------------------------------------------------------------------------
# JSON I/O


def _require(d, key, context):
    if key not in d:
        raise SchemaError("missing %r in %s" % (key, context))
    return d[key]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _require_torus_rank(d, context):
    k = _require(d, "torus_rank", context)
    if not _is_int(k) or k < 1:
        raise SchemaError("torus_rank must be a positive integer, got %r" % (k,))
    return k


def _require_name(value, what):
    if not isinstance(value, str):
        raise SchemaError("%s must be a string, got %r" % (what, value))
    return value


def graph_from_json(data) -> GKMGraph:
    if not isinstance(data, dict):
        raise SchemaError("graph document must be a JSON object")
    fmt = _require(data, "format", "graph document")
    if fmt != GRAPH_FORMAT:
        raise SchemaError("unknown format version %r (expected %r)" % (fmt, GRAPH_FORMAT))
    k = _require_torus_rank(data, "graph document")
    signed = _require(data, "signed", "graph document")
    if not isinstance(signed, bool):
        raise SchemaError("signed must be true or false, got %r" % (signed,))
    vertices = _require(data, "vertices", "graph document")
    if not isinstance(vertices, list):
        raise SchemaError("vertices must be a list of names")
    for v in vertices:
        _require_name(v, "vertex name")
    raw_edges = _require(data, "edges", "graph document")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    entries = []
    for idx, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError("edge #%d must be an object" % idx)
        u = _require_name(_require(e, "from", "edge #%d" % idx), "edge #%d from" % idx)
        v = _require_name(_require(e, "to", "edge #%d" % idx), "edge #%d to" % idx)
        w = _require(e, "weight_at_from", "edge %s-%s" % (u, v))
        if not (isinstance(w, list) and all(_is_int(x) for x in w)):
            raise SchemaError("weight_at_from on edge %s-%s must be a list of integers, got %r" % (u, v, w))
        entries.append((u, v, tuple(w)))
    # the same geometric edge may appear once per orientation; fold the
    # second occurrence into weight_at_v so sign inconsistencies surface in
    # validate() rather than duplicating the edge
    merged = []
    open_by_pair = {}
    for u, v, w in entries:
        mate = open_by_pair.get((v, u))
        if mate:
            slot = mate.pop(0)
            merged[slot] = merged[slot][:3] + (w,)
            if not mate:
                del open_by_pair[(v, u)]
            continue
        open_by_pair.setdefault((u, v), []).append(len(merged))
        merged.append((u, v, w))
    return GKMGraph(k, vertices, merged, signed, name=data.get("name"))


def xray_from_json(data) -> XRay:
    if not isinstance(data, dict):
        raise SchemaError("x-ray document must be a JSON object")
    fmt = _require(data, "format", "x-ray document")
    if fmt != XRAY_FORMAT:
        raise SchemaError("unknown format version %r (expected %r)" % (fmt, XRAY_FORMAT))
    k = _require_torus_rank(data, "x-ray document")
    raw_vertices = _require(data, "vertices", "x-ray document")
    if not isinstance(raw_vertices, dict):
        raise SchemaError("x-ray vertices must be an object of coordinate lists")
    raw_edges = _require(data, "edges", "x-ray document")
    if not isinstance(raw_edges, list):
        raise SchemaError("x-ray edges must be a list")

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
    edges = []
    for idx, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise SchemaError("x-ray edge #%d must be a [from, to] pair of names" % idx)
        edges.append((e[0], e[1]))
    return XRay(k, vertices, edges, name=data.get("name"))


def load_input(path):
    """Parse a gkmg or xray JSON file, dispatching on its format field."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("%s: malformed JSON at line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(data, dict) or "format" not in data:
        raise SchemaError("%s: missing format field" % path)
    fmt = data["format"]
    if fmt == GRAPH_FORMAT:
        return graph_from_json(data)
    if fmt == XRAY_FORMAT:
        return xray_from_json(data)
    raise SchemaError("%s: unknown format version %r" % (path, fmt))
