"""Degree-wise equivariant cohomology of a GKM graph.

The subalgebra A of tuples over the fixed points satisfying the edge
congruences (f_u - f_v divisible by the edge weight) is computed one even
degree at a time by pure integer linear algebra: divisibility along an
edge is encoded with auxiliary quotient unknowns and the solution lattice
extracted as a saturated kernel. The ordinary cohomology is the quotient
A/mA by the ideal generated by the polynomial variables, with torsion in
the quotient treated as a hard error (it violates the freeness hypothesis
everything else rests on).

CohomologyRing keeps one record per degree, built in one step in monomial
coordinates: the Smith form of A_d's basis matrix, which is the basis, and
the quotient (A/mA)_d. The ideal generators y_i * b are the columns of the
degree d-2 basis matrix with their monomials shifted by y_i. Empty matrices
have an ordinary Smith form, so degree 0, with no ideal generators and an
r x 0 quotient matrix, takes the same path as every other degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    GeneratorsDoNotSpan,
    NotInSubalgebra,
    SchemaError,
    TorsionInQuotient,
)
from .gkm import GKMGraph
from .intlinalg import (
    IntMatrix,
    SNFDecomposition,
    kernel_saturated,
    saturated,
    smith_normal_form,
    solve_with_snf,
)
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
    endpoint polynomials is exactly divisible by the edge weight."""
    g = c.graph
    for e in g.edges:
        diff = c.component(e.u) - c.component(e.v)
        if diff.is_zero():
            continue
        ell = IntPolynomial.linear_form(e.weight_at_u)
        if divide_by_linear(diff, ell) is None:
            return False
    return True


@dataclass
class RingElement:
    """Integer coordinates in the chosen basis of (A/mA)_degree."""

    degree: int
    coords: tuple


@dataclass
class GradedBasis:
    """Everything the ring knows about one even degree d. A_d holds y^m * 1
    for every degree-d monomial m, so it is never 0. Its basis matrix
    `snf.A` has one column of monomial coefficients per class of A_d, and
    the Betti number b_d is `projection.rows`."""

    snf: SNFDecomposition  # Smith form of the A_degree basis matrix
    quotient_reps: list  # classes projecting to a basis of (A/mA)_degree
    projection: IntMatrix  # b_d x rank A_degree, applied to A-coords


class CohomologyRing:
    """One cached GradedBasis per degree for one valid GKM graph."""

    def __init__(self, graph: GKMGraph):
        graph.require_valid()
        self.graph = graph
        self.k = graph.torus_rank
        self.dim = 2 * graph.valence
        self._gkm = {}

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
            comps.append(IntPolynomial(self.k, terms))
        return FixedPointClass(self.graph, comps)

    # -- one record per degree -------------------------------------------------

    def gkm_basis(self, d):
        """Z-basis of A_d, the degree-d tuples satisfying all edge
        congruences: the columns of its basis matrix, as classes."""
        matrix = self.ordinary(d).snf.A
        return [self._vec_to_class(matrix.column(j), d) for j in range(matrix.cols)]

    def ordinary(self, d) -> GradedBasis:
        """The degree-d record: the Smith form of A_d's basis matrix and
        (A/mA)_d. Building it builds every lower degree, and raises
        TorsionInQuotient if the quotient there has torsion."""
        if d % 2 or d < 0:
            raise ValueError("cohomological degrees are even and nonnegative")
        if d not in self._gkm:
            self._gkm[d] = self._compute(d)
        return self._gkm[d]

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
            prev = self.ordinary(d - 2).snf.A
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
        return GradedBasis(snf, reps, projection)

    def betti(self, d):
        return self.ordinary(d).projection.rows

    # -- expressing classes ---------------------------------------------------

    def express(self, c: FixedPointClass, degree=None) -> RingElement:
        """Image of a homogeneous subalgebra class in (A/mA)_degree."""
        if degree is None:
            degree = c.degree()
            if degree is None:
                raise ValueError("class is not homogeneous; pass a degree")
        gb = self.ordinary(degree)
        x = solve_with_snf(gb.snf, self._class_to_vec(c, degree))
        if x is None:
            raise NotInSubalgebra(
                "class of degree %d violates the edge congruences or the "
                "lattice structure" % degree
            )
        return RingElement(degree, gb.projection.apply(x))

    def express_mod2(self, components, degree):
        """Mod-2 quotient coordinates of a mod-2 tuple of the given degree.

        components: one IntPolynomial per vertex, any integer lift of the
        mod-2 tuple; only its degree-d part, reduced mod 2, is read. Solves
        against the mod-2 reduction of the integral basis, read off its
        Smith form U*M*V = S (U and V stay invertible mod 2). M has full
        column rank, so S has one nonzero diagonal entry per basis class:
        rows of U*b at odd diagonal entries are solved, those at even ones
        must be even, and M*x = b mod 2 stands in for the rows past the
        rank. The V-columns at even diagonal entries span the mod-2 kernel;
        a kernel vector with a nonzero image (possible only when some
        weight is imprimitive) makes the answer ambiguous and raises.
        """
        vec = [x % 2 for x in self._class_to_vec(FixedPointClass(self.graph, components), degree)]
        gb = self.ordinary(degree)
        dec, proj = gb.snf, gb.projection
        diag = dec.diagonal()
        y = [0] * dec.A.cols
        for i, (c, d) in enumerate(zip(dec.ranked_rows(vec), diag)):
            if d % 2:
                y[i] = c % 2
            elif c % 2:
                raise NotInSubalgebra("mod-2 class outside the mod-2 subalgebra in degree %d" % degree)
        sol = dec.V.apply(y)
        if any((a - b) % 2 for a, b in zip(dec.A.apply(sol), vec)):
            raise NotInSubalgebra("mod-2 class outside the mod-2 subalgebra in degree %d" % degree)
        for j, d in enumerate(diag):
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
        """(chosen basis monomials, their coordinate columns, SNF of the
        basis matrix) in degree d."""
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
        dec = smith_normal_form(IntMatrix.from_columns(chosen_cols))
        self._cache[d] = (chosen, chosen_cols, dec)
        return self._cache[d]

    def basis_monomials(self, d):
        return list(self._data(d)[0])

    def to_poly(self, elem: RingElement) -> IntPolynomial:
        """Re-express quotient coordinates as a polynomial in the chosen
        generator monomials."""
        chosen, _cols, dec = self._data(elem.degree)
        x = solve_with_snf(dec, list(elem.coords))
        if x is None:
            raise GeneratorsDoNotSpan("class not an integer combination of generator monomials")
        return IntPolynomial(len(self.names), {m: c for m, c in zip(chosen, x)})

    def render(self, elem: RingElement) -> str:
        return self.to_poly(elem).render(self.names)
