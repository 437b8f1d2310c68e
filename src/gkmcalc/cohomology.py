"""Degree-wise equivariant cohomology of a GKM graph.

The subalgebra A of tuples over the fixed points satisfying the edge
congruences (f_u - f_v divisible by the edge weight) is a free module over
Z[y], and the ordinary cohomology is the quotient A/mA by the ideal the
polynomial variables generate. CohomologyRing keeps one record per degree
(GradedBasis): classes that project to a basis of (A/mA)_d, and rank A_d.
It builds them on one of two paths, chosen once per ring from the graph
alone (`ring.path`); only the kernel path keeps matrices, per degree.

Flow-up path (Guillemin-Zara 2001, Goldin-Tolman 2009, Tymoczko 2005).
Order the vertices; the down-edges at p go to earlier vertices, and
lambda_p counts them. The flow-up class tau_p vanishes before p, is e_p^-
(the product of p's down-weights) at p, and at each later vertex q solves
f = tau_p(r_j) mod alpha_j over q's down-edges q-r_j by Chinese
remaindering: f starts as tau_p(r_1), and step j adds P * lift(h), with
P = alpha_1 ... alpha_(j-1) and h = tau_p(r_j) - f in Z[y]/(alpha_j) =
Z[t_1..t_(k-1)] divided exactly by the image of P. Primitive, pairwise
independent linear forms are coprime primes of Z[y], so P divides f* - f
for any integral answer f*, and h exists exactly when f* does. Every edge
is checked once, at its later end, so each tau_p is a GKM class. The
certificate that the tau_p are a Z[y]-basis of A: for x in A, let p be
its first nonzero vertex; x vanishes at p's lower neighbours, so each
down-weight divides x(p), by coprimality e_p^- divides x(p), and
x - (x(p)/e_p^-) tau_p vanishes at p too. Then A_d has the basis
y^m tau_p (2 lambda_p <= d), so rank A_d is the sum of
C(d/2 - lambda_p + k - 1, k - 1) over those p, b_d = #{p : 2 lambda_p = d},
the quotient reps are the tau_p of index d/2, and `express` peels x by the
same step, x(p) = h * e_p^-. Only vertices with 2 lambda_p < d divide, by
one down-weight at a time; at 2 lambda_p > d a nonzero x(p) proves x is
not in A, and at 2 lambda_p = d, h is the integer coordinate c, read at one
term of e_p^- and checked by comparing x(p) with c * e_p^-. Modulo 2 a
primitive weight stays nonzero, so `express_mod2` peels the same way over
F_2, reading c at an odd coefficient of e_p^-. Any order along which every
tau_p(q) is integral certifies, signed or not: `_flow_up` finds one by a
depth-first search with a node budget, whose first branch is Kahn's
topological order when a generic xi orients a signed graph acyclically.

Kernel path, for every graph the flow-up path does not cover (an
imprimitive weight, or no order within the budget): divisibility along an
edge is encoded with auxiliary quotient unknowns and the solution lattice
extracted as a saturated kernel; the ring keeps, per degree, the Smith
form of its basis matrix and the projection. The ideal generators y_i * b
are the columns of the degree d-2 basis matrix with their monomials
shifted by y_i, and torsion in the quotient is a hard error (it violates
the freeness hypothesis everything else rests on). Empty matrices have an
ordinary Smith form, so degree 0, with no ideal generators and an r x 0
quotient matrix, takes the same path as every other degree.

Point evaluation (Guillemin-Zara 1999, `CohomologyRing._point`). A
connection pairs, at each edge u-v of weight alpha, the other weights at u
with those at v so that paired weights differ by integer multiples of
alpha; then e_u = alpha*P_u and e_v = -alpha*P_v with P_u = P_v mod alpha.
At most one weight at a vertex is a multiple of alpha, so the poles of
sum_p x_p/e_p along alpha pair up across the alpha-edges as
(x_u*P_v - x_v*P_u)/(alpha*P_u*P_v), and alpha divides the numerator when
x is in A. So the sum has no poles: a class of A integrates to a rational
constant, 0 below the top degree, exact at any integer xi with every
e_p(xi) != 0 (`_xi` always finds one), and the same congruences put the
total Chern and Pontrjagin classes in A. The sum at xi, over L =
lcm_p e_p(xi), is the package's only integral. The pairings are found as
bipartite matchings; a graph with none at some edge raises NoConnection.
"""

import math
import operator
import re
from functools import cache, cached_property

from .errors import (
    DimensionMismatch,
    GeneratorsDoNotSpan,
    NoConnection,
    NonIntegralLocalizationSum,
    NotInSubalgebra,
    Record,
    SchemaError,
    TorsionInQuotient,
)
from .gkm import GKMGraph, all_labels_primitive
from .intlinalg import IntMatrix, kernel_saturated, saturated, smith_normal_form, solve_with_snf
from .polyring import (
    IntPolynomial,
    default_names,
    divide_by_linear,
    monomials,
    parse_polynomial,
)


class FixedPointClass:
    """One polynomial per fixed point; an element of the direct sum of
    H*(BT) over the vertices of a graph."""

    __slots__ = ("graph", "components")

    def __init__(self, graph: GKMGraph, components):
        components = tuple(components)
        if len(components) != len(graph.vertices):
            raise DimensionMismatch(
                "%d components for %d vertices" % (len(components), len(graph.vertices))
            )
        k = graph.torus_rank
        if any(p.k != k for p in components):
            raise DimensionMismatch("component variable count != torus rank")
        self.graph = graph
        self.components = components

    @classmethod
    def constant(cls, graph, c):
        return cls(graph, [IntPolynomial.constant(graph.torus_rank, c)] * len(graph.vertices))

    @classmethod
    def from_strings(cls, graph, by_vertex, max_degree=None):
        """One polynomial string in Y1..Yk per vertex; `max_degree` is
        passed on to parse_polynomial."""
        names = default_names(graph.torus_rank)
        comps = []
        for v in graph.vertices:
            if v not in by_vertex:
                raise DimensionMismatch("missing component for vertex %s" % v)
            comps.append(parse_polynomial(by_vertex[v], names, max_degree))
        return cls(graph, comps)

    def component(self, vertex):
        return self.components[self.graph.vertices.index(vertex)]

    def _check(self, other):
        if self.graph is not other.graph:
            raise DimensionMismatch("classes live on different graphs")

    def __add__(self, other):
        self._check(other)
        return FixedPointClass(self.graph, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        self._check(other)
        return FixedPointClass(self.graph, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return FixedPointClass(self.graph, [-a for a in self.components])

    def __mul__(self, other):
        if isinstance(other, int):
            return FixedPointClass(self.graph, [a * other for a in self.components])
        self._check(other)
        return FixedPointClass(self.graph, [a * b for a, b in zip(self.components, other.components)])

    __rmul__ = __mul__

    def __pow__(self, n):
        return FixedPointClass(self.graph, [a**n for a in self.components])

    def __eq__(self, other):
        return (
            isinstance(other, FixedPointClass)
            and self.graph is other.graph
            and self.components == other.components
        )

    def is_zero(self):
        return all(p.is_zero() for p in self.components)

    def degrees(self):
        out = set()
        for p in self.components:
            out.update(p.degrees())
        return sorted(out)

    def degree(self):
        """Common homogeneous degree, or None if mixed/zero."""
        ds = self.degrees()
        return ds[0] if len(ds) == 1 else None

    def is_homogeneous(self, degree=None):
        ds = self.degrees()
        if degree is None:
            return len(ds) <= 1
        return ds in ([], [degree])

    def homogeneous_component(self, degree):
        return FixedPointClass(self.graph, [p.homogeneous_component(degree) for p in self.components])

    def render(self, names=None):
        return {v: p.render(names) for v, p in zip(self.graph.vertices, self.components)}

    def __repr__(self):
        return "FixedPointClass(%r)" % (self.render(),)


def is_gkm_class(c: FixedPointClass) -> bool:
    """Chang-Skjelbred membership: across every edge the difference of the
    endpoint polynomials is divisible by the edge weight g * alpha' (alpha'
    primitive), that is (Gauss's lemma) g divides each coefficient and the
    difference restricts to 0 in Z[y]/(alpha'), by the ring's `_edge_tests`."""
    comps = c.components
    for u, v, g, restrict in ring_of(c.graph)._edge_tests:
        diff = comps[u] - comps[v]
        if diff and (any(x % g for x in diff.terms.values()) or diff.substitute(restrict)):
            return False
    return True


class RingElement(Record):
    """Integer coordinates in the chosen basis of (A/mA)_degree."""

    __slots__ = _fields = ("degree", "coords")


class GradedBasis(Record):
    """What callers read of one even degree d: classes projecting to a basis
    of (A/mA)_d, whose number is b_d, and rank A_d = len(gkm_basis(d)),
    never 0, since A_d holds y^m * 1 for every degree-d monomial m."""

    __slots__ = _fields = ("quotient_reps", "rank")


_XI = (1, 7, 53, 379, 2719)
_NODES_PER_VERTEX = 200  # the order search's node budget: one node per vertex tried


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def _xi(g):
    """The first xi on a fixed list that pairs to nonzero with every weight:
    the prefix of _XI of torus-rank length, the powers of 1009, then the
    powers of 2m + 1, m the largest |entry| of a weight, which pair a
    nonzero weight to its nonzero balanced base-(2m + 1) value."""
    k, m = g.torus_rank, max((abs(x) for e in g.edges for x in e.weight_at_u), default=0)
    directions = ([_XI[:k]] if k <= len(_XI) else []) + [tuple(b**i for i in range(k)) for b in (1009, 2 * m + 1)]
    return next(xi for xi in directions if all(_dot(e.weight_at_u, xi) for e in g.edges))


class _FlowUp(Record):
    """Flow-up classes along one vertex order, by vertex index: the order,
    each vertex's down-edges as (lower neighbour, weight at the vertex), so
    lambda_p = len(down[p]), and tau[p] = {q: tau_p(q)} over the support
    of tau_p."""

    __slots__ = _fields = ("order", "down", "tau")


def _completion(w):
    """Z[y]/(alpha) = Z[t_1..t_(k-1)] for a primitive alpha = <w, y>, as
    (restriction, lift) images of the variables for `substitute`: the V of
    one 1 x k Smith form has w*V = +-e_1, so y -> V*(0, t) restricts, and
    t -> rows 2..k of V^-1 * y lifts."""
    v = smith_normal_form(IntMatrix._of(1, len(w), w), with_u=False).V
    inverse = v.inverse_unimodular()
    return ([IntPolynomial.linear_form(v.row(i)[1:]) for i in range(v.rows)],
            [IntPolynomial.linear_form(inverse.row(j)) for j in range(1, v.rows)])


def _flow_up(g):
    """The flow-up classes of g along the first vertex order a depth-first
    search finds, or None (see the module docstring). A vertex waits for its
    neighbour across an edge unless <w, xi> is positive at the vertex and
    negative at the neighbour, and the search tries the vertices by how many
    unplaced neighbours they wait for, then by index."""
    k, n, xi = g.torus_rank, len(g.vertices), _xi(g)
    if not all_labels_primitive(g):
        return None
    vidx = {v: i for i, v in enumerate(g.vertices)}
    edges = [[] for _ in range(n)]  # (neighbour, weight at the vertex), in edge order
    waiting, up = [0] * n, [[] for _ in range(n)]  # unplaced neighbours each vertex waits for; those it holds back
    for e in g.edges:
        u, v = vidx[e.u], vidx[e.v]
        # a valid signed graph has weight_at_v = -weight_at_u; an unsigned one orients no edge
        s = _dot(e.weight_at_u, xi) if g.signed else 0
        for a, b, w, lower in ((u, v, e.weight_at_u, s > 0), (v, u, e.weight_at_v, s < 0)):
            edges[a].append((b, w))
            if not lower:
                waiting[a] += 1
                up[b].append(a)
    completion = cache(_completion)  # one per distinct down-weight
    zero, one = IntPolynomial.zero(k), IntPolynomial.constant(k, 1)
    order, down, tau = [], [None] * n, {}  # down[q] is None until q is placed

    def extend(q, below):
        """Extend every placed class to q by q's steps (P_j, restriction, alpha_1..alpha_(j-1)
        restricted, lift), planned once here; False, changing none, when a value is not integral."""
        steps, prod, grown = [], one, []
        for j in range(1, len(below)):
            prod = prod * IntPolynomial.linear_form(below[j - 1][1])
            restrict, lift = completion(below[j][1])
            steps.append((prod, restrict, [IntPolynomial.linear_form(a).substitute(restrict) for _, a in below[:j]], lift))
        for cls in tau.values():
            values = [cls.get(r, zero) for r, _ in below]
            if any(values):
                f = values[0]
                for value, (prod, restrict, divisors, lift) in zip(values[1:], steps):
                    if h := (value - f).substitute(restrict):
                        for a in divisors:
                            if (h := divide_by_linear(h, a)) is None:
                                return False
                        f = f + prod * h.substitute(lift)
                if f:
                    grown.append((cls, f))
        for cls, f in grown:
            cls[q] = f
        return True

    def candidates():
        yield from (q for q in range(n) if down[q] is None and not waiting[q])
        yield from sorted((q for q in range(n) if down[q] is None and waiting[q]), key=lambda q: (waiting[q], q))

    stack, nodes = [], 0  # the candidates left at each depth
    while len(order) < n:
        if len(stack) == len(order):
            stack.append(candidates())
        q = next(stack[-1], None)
        if q is None:  # no candidate extends every class: take back the last placement
            stack.pop()
            if not order:
                return None
            p = order.pop()
            del tau[p]
            for cls in tau.values():
                cls.pop(p, None)
            down[p] = None
            for r in up[p]:
                waiting[r] += 1
        elif (nodes := nodes + 1) > _NODES_PER_VERTEX * n:
            return None
        elif extend(q, below := [(r, w) for r, w in edges[q] if down[r] is not None]):
            tau[q] = {q: math.prod((IntPolynomial.linear_form(w) for _, w in below), start=one)}
            order.append(q)
            down[q] = below
            for r in up[q]:
                waiting[r] -= 1
    return _FlowUp(order, down, tau)


def _is_multiple(d, w):
    """Whether d is an integer multiple of the nonzero vector w."""
    i = next(i for i, x in enumerate(w) if x)
    return d[i] % w[i] == 0 and all(a * w[i] == d[i] * b for a, b in zip(d, w))


def _unpaired_edge(g):
    """The first edge of g with no pairing, or None when g has a connection
    (Guillemin-Zara 1999): at each edge u-v of weight alpha, a pairing of
    the other weights at u with those at v whose pairs differ by integer
    multiples of alpha. A pairing is a perfect matching of the bipartite
    graph of such pairs, grown by augmenting paths."""
    for e in g.edges:
        at_u, at_v = ([f.weight_at(x) for f in g.incident(x) if f is not e] for x in (e.u, e.v))
        fits = [[j for j, b in enumerate(at_v) if _is_multiple(tuple(map(operator.sub, a, b)), e.weight_at_u)]
                for a in at_u]
        match = {}  # index at v -> the index at u paired with it

        def augment(i, seen):
            for j in fits[i]:
                if j not in seen:
                    seen.add(j)
                    if j not in match or augment(match[j], seen):
                        match[j] = i
                        return True
            return False

        if not all(augment(i, set()) for i in range(len(at_u))):
            return e
    return None


class _PointEvaluation(Record):
    """The integral over M at one integer point xi: every edge weight pairs
    to nonzero with xi, euler = L = lcm_p e_p(xi) and weights[p] =
    L / e_p(xi), so a top-degree class x of A has
    <x, [M]> = sum_p x_p(xi) * weights[p] / L under a connection."""

    __slots__ = _fields = ("xi", "weights", "euler")

    def at(self, c: FixedPointClass):
        """The values x_p(xi), by vertex."""
        return [f.evaluate(self.xi) for f in c.components]

    def integral(self, values):
        """<x, [M]> from the values x_p(xi) of a top-degree class of A; a
        rational that is not an integer raises as `localize_integral` does."""
        total = _dot(values, self.weights)
        if total % self.euler:
            from fractions import Fraction  # only to print the sum in lowest terms

            raise NonIntegralLocalizationSum("localization sum %s is not an integer" % Fraction(total, self.euler))
        return total // self.euler


def _check_degree(d):
    if d % 2 or d < 0:
        raise ValueError("cohomological degrees are even and nonnegative")


class CohomologyRing:
    """One cached GradedBasis per degree for one valid GKM graph."""

    def __init__(self, graph: GKMGraph):
        graph.require_valid()
        self.graph = graph
        self.k = graph.torus_rank
        self.dim = 2 * graph.valence
        self._gkm = {}
        self._kernel = {}  # kernel path: (Smith form of the basis matrix, projection) per degree

    @cached_property
    def _flow(self):
        return _flow_up(self.graph)

    @cached_property
    def _point(self):
        """Point evaluation of the integral on A of a signed graph at `_xi`,
        certified by a connection (see the module docstring); NoConnection
        names the first edge with no pairing. It builds no record."""
        g, xi = self.graph, _xi(self.graph)
        e = _unpaired_edge(g)
        if e is not None:
            raise NoConnection("no connection: at edge %s-%s of weight %r the other weights have no pairing "
                               "whose pairs differ by multiples of it" % (e.u, e.v, e.weight_at_u))
        euler = [math.prod(_dot(w, xi) for w in g.weights_at(v)) for v in g.vertices]
        lcm = math.lcm(*euler)
        return _PointEvaluation(xi, tuple(lcm // e for e in euler), lcm)

    @cached_property
    def _edge_tests(self):
        """Per edge u-v of weight g * alpha' (alpha' primitive): the indices
        of u and v, g, and the restriction images of `_completion(alpha')`."""
        vidx = {v: i for i, v in enumerate(self.graph.vertices)}
        completion, out = cache(_completion), []
        for e in self.graph.edges:
            g = math.gcd(*e.weight_at_u)
            out.append((vidx[e.u], vidx[e.v], g, completion(tuple(x // g for x in e.weight_at_u))[0]))
        return out

    @property
    def path(self):
        """"flow-up" or "kernel": how this ring builds its records."""
        return "kernel" if self._flow is None else "flow-up"

    # -- raw monomial coordinates ------------------------------------------

    def _class_to_vec(self, c: FixedPointClass, d):
        monos = monomials(self.k, d)
        return [p.terms.get(m, 0) for p in c.components for m in monos]

    def _vec_to_class(self, vec, d):
        monos = monomials(self.k, d)
        m = len(monos)
        comps = []
        for i in range(len(self.graph.vertices)):
            terms = {mono: vec[i * m + j] for j, mono in enumerate(monos)}
            comps.append(IntPolynomial._of(self.k, terms))
        return FixedPointClass(self.graph, comps)

    # -- one record per degree -------------------------------------------------

    def gkm_basis(self, d):
        """Z-basis of A_d: the y^m * tau_p (2 lambda_p <= d), p in the vertex
        order and m in `monomials` order, or the kernel's basis columns.
        `express` sends class j to column j of the projection to (A/mA)_d: on
        the flow-up path, the unit vector of tau_p if y^m = 1, else 0."""
        if self._flow is None:
            matrix = self._kernel_of(d)[0].A
            return [self._vec_to_class(matrix.column(j), d) for j in range(matrix.cols)]
        _check_degree(d)
        fu, nv = self._flow, len(self.graph.vertices)
        return [FixedPointClass(self.graph, [IntPolynomial._of(self.k, {m: 1})] * nv) * self._tau(p)
                for p in fu.order for m in monomials(self.k, d - 2 * len(fu.down[p]))]

    def _tau(self, p):
        zero = IntPolynomial.zero(self.k)
        return FixedPointClass(self.graph, [self._flow.tau[p].get(q, zero) for q in range(len(self.graph.vertices))])

    def _kernel_of(self, d):
        """The kernel path's (Smith form of A_d's basis matrix, projection)."""
        self.ordinary(d)
        return self._kernel[d]

    def ordinary(self, d) -> GradedBasis:
        """The degree-d record: the quotient reps of (A/mA)_d and rank A_d.
        On the kernel path, building it builds every lower degree, and
        raises TorsionInQuotient if the quotient there has torsion."""
        _check_degree(d)
        if d not in self._gkm:
            self._gkm[d] = self._compute(d) if self._flow is None else self._flow_record(d)
        return self._gkm[d]

    def _flow_record(self, d):
        """The reps are the tau_p with 2 lambda_p = d, in the vertex
        order; rank A_d counts the y^m * tau_p in closed form."""
        fu = self._flow
        reps = [self._tau(p) for p in fu.order if 2 * len(fu.down[p]) == d]
        rank = sum(math.comb(d // 2 - len(down) + self.k - 1, self.k - 1) for down in fu.down if 2 * len(down) <= d)
        return GradedBasis(reps, rank)

    def _compute(self, d):
        g = self.graph
        monos = monomials(self.k, d)
        qmonos = monomials(self.k, d - 2)
        nm, nq = len(monos), len(qmonos)
        nv, ne = len(g.vertices), len(g.edges)
        nf = nv * nm
        ncols = nf + ne * nq
        vidx = {v: i for i, v in enumerate(g.vertices)}
        # shift[i][j]: the position of y_i * qmonos[j] among the degree-d monomials
        pos = {m: j for j, m in enumerate(monos)}
        shift = [[pos[m[:i] + (m[i] + 1,) + m[i + 1 :]] for m in qmonos] for i in range(self.k)]
        # f_u - f_v - alpha * q_e = 0, one row per edge and degree-d monomial
        entries = [0] * (ne * nm * ncols)
        for ei, e in enumerate(g.edges):
            top = ei * nm * ncols
            iu, iv = vidx[e.u], vidx[e.v]
            for j in range(nm):
                entries[top + j * ncols + iu * nm + j] += 1
                entries[top + j * ncols + iv * nm + j] -= 1
            for var, coeff in enumerate(e.weight_at_u):
                if coeff:
                    for qj, row in enumerate(shift[var]):
                        entries[top + row * ncols + nf + ei * nq + qj] -= coeff
        # the f-projection is injective (alpha * q = 0 forces q = 0), so the
        # f-parts of the kernel basis are the columns of A_d's basis matrix
        kernel = kernel_saturated(IntMatrix._of(ne * nm, ncols, entries))
        r = len(kernel)
        matrix = IntMatrix._of(nf, r, [vec[i] for i in range(nf) for vec in kernel])
        snf = smith_normal_form(matrix)
        # mA_d is spanned by y_i * b over the basis classes b of A_(d-2); the
        # order of their A_d coordinates in cols (b outer, i inner) fixes Q
        # and with it the quotient basis
        cols = []
        if d:
            prev = self._kernel_of(d - 2)[0].A
            for b in range(prev.cols):
                col = prev.column(b)
                for s in shift:
                    vec = [0] * nf
                    for v in range(nv):
                        for j, t in enumerate(s):
                            vec[v * nm + t] = col[v * nq + j]
                    x = solve_with_snf(snf, vec)
                    if x is None:
                        raise NotInSubalgebra("ideal generator not in the subalgebra lattice (internal error)")
                    cols.append(x)
        dec = smith_normal_form(IntMatrix._of(r, len(cols), [x[i] for i in range(r) for x in cols]))
        rho = dec.rank()
        for t in range(rho):
            if dec.S.at(t, t) != 1:
                raise TorsionInQuotient(
                    "A/mA has %d-torsion in degree %d; the graph cannot come "
                    "from a space with vanishing odd cohomology" % (dec.S.at(t, t), d)
                )
        uinv = dec.U.inverse_unimodular()
        projection = IntMatrix._of(r - rho, r, [x for i in range(rho, r) for x in dec.U.row(i)])
        reps = [self._vec_to_class(matrix.apply(uinv.column(j)), d) for j in range(rho, r)]
        self._kernel[d] = (snf, projection)
        return GradedBasis(reps, r)

    def betti(self, d):
        return len(self.ordinary(d).quotient_reps)

    # -- expressing classes ---------------------------------------------------

    def _peel(self, components, degree, mod2):
        """Quotient coordinates of a degree-`degree` tuple on the flow-up
        path, over F_2 when mod2: at each vertex p in order, find h with
        x(p) = h * e_p^-, subtract h * tau_p, go on. Only 2 lambda_p < degree
        divides x(p) by the down-weights one at a time. At 2 lambda_p >
        degree a nonzero x(p) has no such h. At 2 lambda_p = degree, h is the
        integer c read at one term of e_p^- (mod 2, one with an odd
        coefficient), and x(p) - c * e_p^- must vanish; these c are the
        coordinates. None when there is no h, which proves x is not in A."""
        fu, k, s = self._flow, self.k, degree // 2
        # the degree-d part, as term dicts updated in place; they keep explicit zeros
        x = [{e: c % 2 if mod2 else c for e, c in p.terms.items() if sum(e) == s} for p in components]
        coords = []
        for p in fu.order:
            xp, twice = x[p], 2 * len(fu.down[p])
            if not any(xp.values()):
                h = {}
            elif twice > degree:
                return None
            elif twice == degree:
                e0, c0 = next((e, c) for e, c in fu.tau[p][p].terms.items() if not mod2 or c % 2)
                h = {(0,) * k: xp.get(e0, 0) if mod2 else xp.get(e0, 0) // c0}
            else:
                h = IntPolynomial._of(k, xp)
                for _, w in fu.down[p]:
                    if (h := divide_by_linear(h, IntPolynomial.linear_form(w), mod2)) is None:
                        return None
                h = h.terms
            for q, f in fu.tau[p].items():
                xq = x[q]
                for e1, c1 in h.items():
                    for e2, c2 in f.terms.items():
                        e = tuple(map(operator.add, e1, e2))
                        v = xq.get(e, 0) - c1 * c2
                        xq[e] = v % 2 if mod2 else v
            if twice == degree:
                if any(xp.values()):
                    return None
                coords.append(h.get((0,) * k, 0))
        return tuple(coords)

    def express(self, c: FixedPointClass, degree=None) -> RingElement:
        """Image of a homogeneous subalgebra class in (A/mA)_degree. Given
        a degree, only the degree-d part of c is read (both paths read the
        degree-d monomials alone), so a total class may be passed whole."""
        if degree is None:
            degree = c.degree()
            if degree is None:
                raise ValueError("class is not homogeneous; pass a degree")
        _check_degree(degree)
        if self._flow is not None:
            coords = self._peel(c.components, degree, False)
        else:
            dec, projection = self._kernel_of(degree)
            x = solve_with_snf(dec, self._class_to_vec(c, degree))
            coords = None if x is None else projection.apply(x)
        if coords is None:
            raise NotInSubalgebra(
                "class of degree %d violates the edge congruences or the "
                "lattice structure" % degree
            )
        return RingElement(degree, coords)

    def express_mod2(self, components, degree):
        """Mod-2 quotient coordinates of a mod-2 tuple of the given degree.

        components: one IntPolynomial per vertex, any integer lift of the
        mod-2 tuple; only its degree-d part, reduced mod 2, is read. The
        flow-up path peels over F_2. The kernel path solves against the
        mod-2 reduction of the integral basis, read off its Smith form
        U*M*V = S (U and V stay invertible mod 2). M has full column rank,
        so S has one nonzero diagonal entry per basis class: rows of U*b at
        odd diagonal entries are solved, those at even ones must be even,
        and M*x = b mod 2 stands in for the rows past the rank. The
        V-columns at even diagonal entries span the mod-2 kernel; a kernel
        vector with a nonzero image (possible only when some weight is
        imprimitive) makes the answer ambiguous and raises.
        """
        _check_degree(degree)
        tup = FixedPointClass(self.graph, components)
        outside = NotInSubalgebra("mod-2 class outside the mod-2 subalgebra in degree %d" % degree)
        if self._flow is not None:
            coords = self._peel(tup.components, degree, True)
            if coords is None:
                raise outside
            return coords
        vec = [x % 2 for x in self._class_to_vec(tup, degree)]
        dec, proj = self._kernel_of(degree)
        y = [0] * dec.A.cols
        for i, (c, d) in enumerate(dec.ranked_rows(vec)):
            if d % 2:
                y[i] = c % 2
            elif c % 2:
                raise outside
        sol = dec.V.apply(y)
        if any((a - b) % 2 for a, b in zip(dec.A.apply(sol), vec)):
            raise outside
        for j, d in enumerate(dec.diagonal()):
            if d % 2 == 0:
                if any(x % 2 for x in proj.apply(dec.V.column(j))):
                    raise NotInSubalgebra(
                        "mod-2 descent is ambiguous in degree %d (imprimitive weights?)" % degree
                    )
        return tuple(x % 2 for x in proj.apply(sol))


def evaluate_class_polynomial(graph, generators, p: IntPolynomial) -> FixedPointClass:
    """Vertexwise substitution of fixed-point classes into a polynomial."""
    comps = []
    for i in range(len(graph.vertices)):
        images = [g.components[i] for g in generators]
        comps.append(p.substitute(images))
    return FixedPointClass(graph, comps)


def ring_of(graph) -> CohomologyRing:
    """Shared per-graph ring so every entry point reuses its caches; the
    graph holds it, so the two are collected together."""
    if graph._ring is None:
        graph._ring = CohomologyRing(graph)
    return graph._ring


class GeneratorBasis:
    """Reporting basis built from named degree-2 classes (for instance the
    X1, X2 presentation of the Eschenburg family): each graded piece of A/mA is
    spanned by monomials in the generators, and a deterministic unimodular
    subset of monomials serves as the coordinate basis."""

    def __init__(self, ring: CohomologyRing, names, classes):
        if isinstance(names, str):
            raise SchemaError("generator names must be a list of names, not the string %r" % names)
        self.ring = ring
        self.names = list(names)
        self.classes = list(classes)
        if len(self.names) != len(self.classes):
            raise DimensionMismatch("generator names and classes disagree")
        for name in self.names:  # each must read back as one parse_polynomial symbol
            if not (isinstance(name, str) and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name)):
                raise SchemaError("generator name %r is not of the form [A-Za-z_][A-Za-z_0-9]*" % (name,))
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate generator names in %s" % ", ".join(self.names))
        for name, c in zip(self.names, self.classes):
            if not isinstance(c, FixedPointClass):
                raise SchemaError("generator %s is %r, not a FixedPointClass" % (name, c))
            if not c.is_homogeneous(2):
                raise GeneratorsDoNotSpan("generator %s is not homogeneous of degree 2" % name)
            if not is_gkm_class(c):
                raise GeneratorsDoNotSpan("generator %s violates the edge congruences" % name)
        self._cache = {}

    def _data(self, d):
        """(chosen basis monomials, the inverse of the matrix of their
        coordinate columns) in degree d. The columns are saturated and
        square, so that matrix is unimodular."""
        if d in self._cache:
            return self._cache[d]
        # names that span hold a basis of H^2; the rest are integer
        # combinations of it and add nothing to the span in any degree
        if len(self.names) > self.ring.betti(2):
            raise GeneratorsDoNotSpan("%d generators for rank-%d H^2" % (len(self.names), self.ring.betti(2)))
        r = self.ring.betti(d)
        chosen = []
        chosen_cols = []
        for m in monomials(len(self.names), d):
            if len(chosen) == r:
                break
            p = IntPolynomial(len(self.names), {m: 1})
            col = self.ring.express(evaluate_class_polynomial(self.ring.graph, self.classes, p), d).coords
            if saturated(chosen_cols + [col]):
                chosen.append(m)
                chosen_cols.append(col)
        if len(chosen) < r:
            raise GeneratorsDoNotSpan(
                "generators do not span the degree-%d ordinary cohomology over Z" % d
            )
        self._cache[d] = (chosen, IntMatrix.from_columns(chosen_cols).inverse_unimodular())
        return self._cache[d]

    def basis_monomials(self, d):
        return list(self._data(d)[0])

    def to_poly(self, elem: RingElement) -> IntPolynomial:
        """Re-express quotient coordinates as a polynomial in the chosen
        generator monomials."""
        chosen, inverse = self._data(elem.degree)
        return IntPolynomial(len(self.names), dict(zip(chosen, inverse.apply(elem.coords))))

    def render(self, elem: RingElement) -> str:
        return self.to_poly(elem).render(self.names)
