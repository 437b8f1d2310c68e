"""Graph families with closed-form answers, and seeded disguises of them.

Each family builder returns a signed GKM graph; `oracle` returns the answers
that topology fixes without any cohomology computation. `disguise` rewrites a
graph with a random vertex relabelling, a shuffled edge order and a
signed permutation of the torus basis. None of these changes an answer, so the oracles hold
for every disguised copy.
"""

from __future__ import annotations

import itertools
import json
from math import comb, factorial

from gkmcalc.gkm import GKMGraph, builtin

SIGNED_BUILTINS = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")

# Golden results of the built-ins. Each graph is integrated in the
# orientation its own signs induce, so ∫c3 is the number of fixed points and
# ∫c1·c2 = 24 is 24 times the Todd genus (1) of a Hamiltonian manifold.
_BUILTIN_ORACLE = {
    name: {"betti": [1, 2, 2, 1], "c1^3": 64, "c3": 6, "p1*c1": 16, "c1*c2": 24}
    for name in SIGNED_BUILTINS
}


def cp(n):
    """CP^n with the standard T^n action: vertex i has weights e_j - e_i,
    where e_0 = 0."""
    def e(i):
        return [1 if j == i - 1 else 0 for j in range(n)]

    edges = []
    for i, j in itertools.combinations(range(n + 1), 2):
        edges.append(("p%d" % i, "p%d" % j, tuple(a - b for a, b in zip(e(j), e(i)))))
    return GKMGraph(n, ["p%d" % i for i in range(n + 1)], edges, signed=True, name="cp%d" % n)


def cp1_power(n):
    """(CP^1)^n: vertices are 0/1 strings, edge i flips bit i, with weight
    +e_i at the 0 end."""
    verts = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    edges = []
    for v in verts:
        for i in range(n):
            if v[i] == "0":
                w = v[:i] + "1" + v[i + 1:]
                edges.append(("b" + v, "b" + w, tuple(1 if j == i else 0 for j in range(n))))
    return GKMGraph(n, ["b" + v for v in verts], edges, signed=True, name="cp1^%d" % n)


def surface_fan(m):
    """Rays of a smooth complete 2-d fan with m >= 4 rays, grown from
    P^1 x P^1 by blowing up cones round the fan."""
    if m < 4:
        raise ValueError("the fan needs at least 4 rays")
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    step = 0
    while len(rays) < m:
        i = (2 * step) % len(rays)
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
        step += 1
    return rays


def surface_x_cp1(m):
    """The toric surface with m rays times CP^1 (torus rank 3, 2m vertices).

    Fixed points of the surface are the 2-cones (v_i, v_{i+1}); the curve
    of ray v_{i+1} joins cones i and i+1, with weight u at cone i where
    <u, v_{i+1}> = 0 and <u, v_i> = 1.
    """
    rays = surface_fan(m)
    verts = []
    edges = []
    for i in range(m):
        (c, d), (a, b) = rays[i], rays[(i + 1) % m]
        det = c * b - d * a  # +-1 for a smooth cone
        u = (-b * det, a * det)
        for level in "NS":
            verts.append("s%d%s" % (i, level))
            edges.append(("s%d%s" % (i, level), "s%d%s" % ((i + 1) % m, level), u + (0,)))
        edges.append(("s%dN" % i, "s%dS" % i, (0, 0, 1)))
    return GKMGraph(3, verts, edges, signed=True, name="surface%dxcp1" % m)


def build(family, param):
    if family == "cp":
        return cp(param)
    if family == "cp1^":
        return cp1_power(param)
    if family == "surface":
        return surface_x_cp1(param)
    if family == "builtin":
        return builtin(param)
    raise ValueError("unknown family %r" % family)


def oracle(family, param):
    """Closed-form answers: Betti numbers by cohomological degree 0, 2, ...,
    and top-degree integrals keyed by their integrand."""
    if family == "builtin":
        return dict(_BUILTIN_ORACLE[param])
    if family == "cp":
        n = param
        out = {"betti": [1] * (n + 1), "c1^%d" % n: (n + 1) ** n, "c%d" % n: n + 1}
        if n == 3:
            out.update({"p1*c1": 16, "c1*c2": 24})
        return out
    if family == "cp1^":
        n = param
        out = {"betti": [comb(n, i) for i in range(n + 1)], "c1^%d" % n: factorial(n) * 2 ** n, "c%d" % n: 2 ** n}
        if n == 3:
            out.update({"p1*c1": 0, "c1*c2": 24})
        return out
    if family == "surface":
        m = param
        return {
            "betti": [1, m - 1, m - 1, 1],
            "c1^3": 6 * (12 - m),
            "c3": 2 * m,
            "p1*c1": 24 - 6 * m,
            "c1*c2": 24,
        }
    raise ValueError("unknown family %r" % family)


def _signed_permutation(rng, k):
    """A random signed permutation matrix, the change of torus basis used
    by `disguise`. Shears are left out on purpose: mixing the CP^1 axis
    into the surface axes of surface x CP^1 multiplies the cost of one
    localization by up to 20, which would make the figures depend on the
    seed."""
    perm = list(range(k))
    rng.shuffle(perm)
    return [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(k)] for i in range(k)]


def disguise(graph: GKMGraph, rng):
    """A `gkmg/1` document of the same signed graph under a random vertex
    relabelling, shuffled vertex and edge order, random edge orientation
    and a random change of torus basis."""
    k = graph.torus_rank
    a = _signed_permutation(rng, k)
    labels = list(range(len(graph.vertices)))
    rng.shuffle(labels)
    name = {v: "q%d" % j for v, j in zip(graph.vertices, labels)}
    verts = [name[v] for v in graph.vertices]
    rng.shuffle(verts)
    edges = []
    for e in graph.edges:
        u, v, w = e.u, e.v, e.weight_at_u
        if rng.random() < 0.5:
            u, v, w = v, u, e.weight_at_v
        w = [sum(x * y for x, y in zip(row, w)) for row in a]
        edges.append({"from": name[u], "to": name[v], "weight_at_from": w})
    rng.shuffle(edges)
    return {
        "format": "gkmg/1",
        "torus_rank": k,
        "signed": True,
        "name": graph.name,
        "vertices": verts,
        "edges": edges,
    }


def disguised_text(graph, rng):
    return json.dumps(disguise(graph, rng), sort_keys=True)
