"""Graphs, matrices and reference checks that several test modules share,
so that no test module imports another."""

import importlib.util
import itertools
import operator
from fractions import Fraction
from pathlib import Path

from gkmcalc.charclasses import KINDS
from gkmcalc.cohomology import CohomologyRing
from gkmcalc.errors import ChernRequiresSignedGraph, LocalizationRequiresSignedGraph, NonIntegralLocalizationSum
from gkmcalc.gkm import GKMGraph, builtin
from gkmcalc.intlinalg import IntMatrix, canonical_sign
from gkmcalc.polyring import IntPolynomial, divide_by_linear
from gkmcalc.wjz import InvariantSystem


def _load(relative):
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_families():
    return _load("perfbench/families.py")


def product_of_spheres(weights):
    """Three rotated 2-spheres under one 2-torus; an imprimitive rotation
    speed gives disconnected isotropy but a perfectly good GKM manifold."""
    import itertools

    verts = ["".join(s) for s in itertools.product("pm", repeat=3)]
    edges = []
    for i, w in enumerate(weights):
        for eps in itertools.product("pm", repeat=3):
            if eps[i] == "p":
                other = list(eps)
                other[i] = "m"
                edges.append(("".join(eps), "".join(other), tuple(-x for x in w)))
    return GKMGraph(2, verts, edges, signed=True, name="s2cubed")


def kernel_ring(g):
    """A ring of g on the kernel path, whatever order the flow-up search
    would find."""
    ring = CohomologyRing(g)
    ring.__dict__["_flow"] = None
    return ring


def relabelled(g):
    """The same signed graph with renamed vertices, its edge list reversed
    and every edge stored from its other end."""
    name = {v: "v%d" % i for i, v in enumerate(reversed(g.vertices))}
    edges = [(name[e.v], name[e.u], e.weight_at_v) for e in reversed(g.edges)]
    return GKMGraph(g.torus_rank, [name[v] for v in g.vertices], edges, signed=True)


def random_system(rng, r):
    """A system of rank r with a random symmetric mu, w and p."""
    mu = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a, b, c in itertools.combinations_with_replacement(range(r), 3):
        value = rng.randint(-3, 3)
        for i, j, l in itertools.permutations((a, b, c)):
            mu[i][j][l] = value
    mu = tuple(tuple(tuple(row) for row in plane) for plane in mu)
    w = tuple(rng.randint(0, 1) for _ in range(r))
    p = tuple(rng.choice((0, 2, -4, 6)) for _ in range(r))
    return InvariantSystem(r, mu, w, p)


def pulled_back(s, phi):
    """The system that phi carries to s: mu and p composed with phi, and w
    mapped by phi^-1 mod 2."""
    r = s.rank
    cols = [phi.column(a) for a in range(r)]
    inv = phi.inverse_unimodular()

    def cubic(x, y, z):
        return sum(s.mu[i][j][l] * x[i] * y[j] * z[l] for i in range(r) for j in range(r) for l in range(r))

    mu = tuple(tuple(tuple(cubic(cols[a], cols[b], cols[c]) for c in range(r)) for b in range(r)) for a in range(r))
    p = tuple(sum(s.p[i] * cols[a][i] for i in range(r)) for a in range(r))
    w = tuple(sum(map(operator.mul, inv.row(a), s.w)) % 2 for a in range(r))
    return InvariantSystem(r, mu, w, p)


def covector_by_triple_sum(mu, x, y):
    """mu(x, y, .) entry by entry as sum_(i,j) mu[i][j][l] * x_i * y_j, read
    in the index order of the definition: the reference `wjz._covector`,
    which sums by rows, is checked against."""
    r = len(x)
    return tuple(sum(mu[i][j][l] * x[i] * y[j] for i in range(r) for j in range(r)) for l in range(r))


def box_candidates(s1, s2, bound):
    """The candidate columns of the equivalence search by a scan of the
    whole box [-bound, bound]^rank in product order, each vector kept for
    every a with p2.v = p1[a] and mu2(v,v,v) = mu1[a][a][a], then a stable
    sort by max-norm and 1-norm: the reference `_candidate_columns` is
    checked against."""
    out = [[] for _ in range(s1.rank)]
    for v in itertools.product(range(-bound, bound + 1), repeat=s1.rank):
        p = sum(map(operator.mul, s2.p, v))
        hits = [a for a in range(s1.rank) if s1.p[a] == p]
        cube = sum(map(operator.mul, covector_by_triple_sum(s2.mu, v, v), v)) if hits else None
        for a in hits:
            if s1.mu[a][a][a] == cube:
                out[a].append(v)
    for column in out:
        column.sort(key=lambda v: (max(map(abs, v)), sum(map(abs, v))))
    return out


def cubic_values_mod2(s):
    """mu(x,x,x) mod 2 at every x in (Z/2)^rank, sorted: the reference the
    zero count of `_cubic_zeros_mod2` is checked against."""
    return sorted(sum(map(operator.mul, covector_by_triple_sum(s.mu, x, x), x)) % 2
                  for x in itertools.product((0, 1), repeat=s.rank))


def random_unimodular(rng, r):
    """A product of three elementary matrices: a sign change at rank 1,
    otherwise the identity plus one off-diagonal +-1."""
    phi = IntMatrix.identity(r)
    for _ in range(3):
        rows = IntMatrix.identity(r).to_rows()
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        rows[i][j] = rng.choice((-1, 1))
        phi = phi * IntMatrix.from_rows(rows)
    return phi


# A valid signed K4 graph with primitive weights on the kernel path, b = (1, 1,
# 1, 1), with no connection; its classes do not even localize to constants.
UNCERTIFIED_K4 = [("a", "b", (-1, -1)), ("a", "c", (3, -1)), ("a", "d", (-1, 0)),
                  ("b", "c", (1, -1)), ("b", "d", (1, -2)), ("c", "d", (-3, 2))]


def mutated_eschenburg():
    """Eschenburg with the label of p1-p6 changed to (3, 1)."""
    e = builtin("eschenburg")
    edges = []
    for ed in e.edges:
        if {ed.u, ed.v} == {"p1", "p6"}:
            edges.append((ed.u, ed.v, (3, 1)))
        else:
            edges.append((ed.u, ed.v, ed.weight_at_u, ed.weight_at_v))
    return GKMGraph(2, e.vertices, edges, signed=True, name="mutated")


# A valid GKM graph on K4 whose quotient A/mA has torsion in the top degree,
# so it cannot come from a space with vanishing odd cohomology.
TORSION_EDGES = [("v0", "v1", (1, 0)), ("v1", "v2", (-2, 4)), ("v2", "v3", (-1, 0)), ("v3", "v0", (-1, -1)),
                 ("v0", "v2", (0, -3)), ("v1", "v3", (3, -3))]


def torsion_graph():
    return GKMGraph(2, ["v0", "v1", "v2", "v3"], TORSION_EDGES, signed=False)


def index_betti(g):
    """Betti numbers by counting (Guillemin-Zara 2001): for a generic xi,
    b_2i is the number of vertices with exactly i weights w where
    <w, xi> < 0. No cohomology is computed."""
    xi = (1, 7, 53, 379, 2719)[: g.torus_rank]
    counts = [0] * (g.valence + 1)
    for v in g.vertices:
        pairings = [sum(map(operator.mul, w, xi)) for w in g.weights_at(v)]
        assert all(pairings), "xi is not generic for %s" % g
        counts[sum(x < 0 for x in pairings)] += 1
    return counts


def scanned_verify(iso, g1, g2, signed):
    """Whether iso is an isomorphism g1 -> g2, by a scan of the unused g2
    edges per g1 edge: each g1 edge takes the first one with its ends and
    its label."""
    phi = iso.mapping()
    if sorted(phi) != sorted(g1.vertices) or sorted(phi.values()) != sorted(g2.vertices):
        return False
    if not iso.psi.is_unimodular():
        return False
    remaining = list(g2.edges)
    for e in g1.edges:
        ends, target = {phi[e.u], phi[e.v]}, iso.psi.apply(e.weight_at_u)
        hit = next((i for i, f in enumerate(remaining) if {f.u, f.v} == ends and labels_match(
            f.weight_at(phi[e.u]), target, signed)), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


def labels_match(w, target, signed):
    return w == target if signed else canonical_sign(w) == canonical_sign(target)


def linear_substitute(p, B):
    """p with Y_j replaced by sum_i B[i][j]*Y_i (a ring homomorphism)."""
    return p.substitute([IntPolynomial.linear_form(B.column(j)) for j in range(B.cols)])


def product_denominator_integral(graph, c):
    """The localization sum sum_p c_p / e_p as one running fraction over
    the product of every e_p, with the unsigned, mixed-degree and
    above-top-degree errors of `localize_integral`: the reference its
    values on classes of A are checked against. A class outside A may sum
    to a nonconstant or fractional value, each with its own error here."""
    if not graph.signed:
        raise LocalizationRequiresSignedGraph("localization needs the orientation carried by signed labels")
    d = c.degree()
    if d is None and not c.is_zero():
        raise ValueError("localization input must be homogeneous")
    if c.is_zero():
        return 0
    n2 = 2 * graph.valence
    if d > n2:
        raise ValueError("degree %d exceeds the manifold dimension %d" % (d, n2))
    k = graph.torus_rank
    num, den = IntPolynomial.zero(k), IntPolynomial.constant(k, 1)
    for v, cp in zip(graph.vertices, c.components):
        e = IntPolynomial.constant(k, 1)
        for w in graph.weights_at(v):
            e = e * IntPolynomial.linear_form(w)
        num, den = num * e + cp * den, den * e
    if d < n2:
        if not num.is_zero():
            raise NonIntegralLocalizationSum(
                "localization sum of a degree-%d class does not cancel; the labels are inconsistent" % d)
        return 0
    exps, dc = next(iter(den.terms.items()))
    r = Fraction(num.coefficient(exps), dc)
    if num * r.denominator != den * r.numerator:
        raise NonIntegralLocalizationSum("localization sum is not constant; the labels are inconsistent")
    if r.denominator != 1:
        raise NonIntegralLocalizationSum("localization sum %s is not an integer" % r)
    return int(r)


def is_gkm_class_by_division(c):
    """Chang-Skjelbred membership by exact division: across every edge the
    difference of the endpoint polynomials divided by the edge weight. The
    reference `cohomology.is_gkm_class` is checked against."""
    for e in c.graph.edges:
        diff = c.component(e.u) - c.component(e.v)
        if diff and divide_by_linear(diff, IntPolynomial.linear_form(e.weight_at_u)) is None:
            return False
    return True


def unpaired_edge_by_permutations(g):
    """The first edge of g at which none of the (n-1)! pairings of the other
    weights at its ends has pairs that differ by integer multiples of its
    weight, or None: the reference the matching of
    `cohomology._unpaired_edge` is checked against."""
    for e in g.edges:
        alpha = IntPolynomial.linear_form(e.weight_at_u)
        at_u, at_v = ([IntPolynomial.linear_form(f.weight_at(x)) for f in g.incident(x) if f is not e]
                      for x in (e.u, e.v))
        if not any(all(divide_by_linear(a - b, alpha) is not None for a, b in zip(at_u, pairing))
                   for pairing in itertools.permutations(at_v)):
            return e
    return None


def one_label_mutation(g, rng):
    """g with the label of one edge, chosen by rng, moved by twice a signed
    unit vector: the first such copy that satisfies the GKM conditions."""
    while True:
        i, j, s = rng.randrange(len(g.edges)), rng.randrange(g.torus_rank), rng.choice((-2, 2))
        edges = [(e.u, e.v, tuple(x + s * (t == j) for t, x in enumerate(e.weight_at_u)) if n == i else e.weight_at_u)
                 for n, e in enumerate(g.edges)]
        if any(edges[i][2]):
            copy = GKMGraph(g.torus_rank, g.vertices, edges, signed=True, name="mutated-" + (g.name or ""))
            if copy.validate().valid:
                return copy


def total_class_by_products(graph, kind):
    """The components of the total class of `kind`, each the product of its
    factors 1 + a_j (1 + a_j^2 for Pontrjagin, reduced mod 2 for
    Stiefel-Whitney) as IntPolynomial products, with the errors of
    `equivariant_char_class` in their order: the reference the term-dict
    product is checked against."""
    if kind not in KINDS:
        raise ValueError("unknown class kind %r" % kind)
    if kind == "chern" and not graph.signed:
        raise ChernRequiresSignedGraph("Chern classes need the signs an invariant almost complex structure provides")
    k = graph.torus_rank
    comps = []
    for v in graph.vertices:
        total = IntPolynomial.constant(k, 1)
        for w in graph.weights_at(v):
            a = IntPolynomial.linear_form(w)
            total = total * (1 + (a * a if kind == "pontrjagin" else a))
        comps.append(total.mod2() if kind == "stiefel_whitney" else total)
    return tuple(comps)


def successive_division_peel(ring, components, degree, mod2):
    """Quotient coordinates of a degree-`degree` tuple on the flow-up path,
    over F_2 when mod2, or None: at every vertex p in order, x(p) is divided
    by each down-weight in turn and that multiple of tau_p subtracted. The
    reference `CohomologyRing._peel` is checked against."""
    fu, k, s = ring._flow, ring.k, degree // 2
    x = [{e: c % 2 if mod2 else c for e, c in p.terms.items() if sum(e) == s} for p in components]
    coords = []
    for p in fu.order:
        h = IntPolynomial(k, x[p])
        if h:
            for _, w in fu.down[p]:
                h = divide_by_linear(h, IntPolynomial.linear_form(w), mod2)
                if h is None:
                    return None
            for q, f in fu.tau[p].items():
                for e, c in (h * f).terms.items():
                    v = x[q].get(e, 0) - c
                    x[q][e] = v % 2 if mod2 else v
        if 2 * len(fu.down[p]) == degree:
            coords.append(h.coefficient((0,) * k))
    return tuple(coords)
