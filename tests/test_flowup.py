"""The flow-up path of CohomologyRing, and the kernel path it falls back to."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

import gkmcalc.cohomology as cohomology
import gkmcalc.intlinalg as intlinalg
from gkmcalc.charclasses import KINDS, equivariant_char_class
from gkmcalc.cohomology import CohomologyRing, FixedPointClass, is_gkm_class
from gkmcalc.errors import NotInSubalgebra
from gkmcalc.gkm import GKMGraph, all_labels_primitive, builtin, graph_from_json
from gkmcalc.intlinalg import IntMatrix, primitive_part, smith_normal_form
from gkmcalc.polyring import IntPolynomial, divide_by_linear, monomials
from helpers import (
    UNCERTIFIED_K4,
    _load_families,
    index_betti,
    kernel_ring,
    mutated_eschenburg,
    product_of_spheres,
    successive_division_peel,
)

families = _load_families()
SIGNED = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")
GRAPHS = [("cp", 4), ("cp1^", 3)] + [("surface", m) for m in range(4, 9)] + [("builtin", n) for n in SIGNED]
XI = (1, 7, 53, 379, 2719)


def pairing(w, g):
    return sum(map(operator.mul, w, XI[: g.torus_rank]))


def down_weights(g, v):
    return [w for w in g.weights_at(v) if pairing(w, g) < 0]


def topological_order(g):
    """Each vertex after the lower ends of its down-edges; ties go to the
    earliest vertex in g.vertices."""
    below = {v: {e.other(v) for e in g.incident(v) if pairing(e.weight_at(v), g) < 0} for v in g.vertices}
    order = []
    while len(order) < len(g.vertices):
        order.append(next(v for v in g.vertices if v not in order and below[v] <= set(order)))
    return order


def product(weights, k):
    out = IntPolynomial.constant(k, 1)
    for w in weights:
        out = out * IntPolynomial.linear_form(w)
    return out


def flow_up_matrices(ring, d):
    """The columns y^m * tau_p (2 lambda_p <= d), p in topological order and
    m in `monomials` order, with tau_p read off the quotient reps, and the
    rows of the projection onto the tau_p with 2 lambda_p = d."""
    g, k = ring.graph, ring.k
    order = topological_order(g)
    lam = {v: len(down_weights(g, v)) for v in order}
    tau = {}
    for e in range(0, ring.dim + 1, 2):
        tau.update(zip([v for v in order if 2 * lam[v] == e], ring.ordinary(e).quotient_reps))
    cols, selected = [], []
    for v in order:
        if 2 * lam[v] <= d:
            if 2 * lam[v] == d:
                selected.append(len(cols))
            for m in monomials(k, d - 2 * lam[v]):
                y = IntPolynomial(k, {m: 1})
                cols.append(ring._class_to_vec(FixedPointClass(g, [y * f for f in tau[v].components]), d))
    return cols, [[int(j == t) for j in range(len(cols))] for t in selected]


def no_kernel(*args, **kwargs):
    raise AssertionError("the kernel path ran")


@pytest.mark.parametrize("copy", [0, 1, 2], ids=["plain", "disguise1", "disguise2"])
@pytest.mark.parametrize("family,param", GRAPHS, ids=["%s%s" % g for g in GRAPHS])
def test_flow_up_classes(family, param, copy, monkeypatch):
    monkeypatch.setattr(cohomology, "kernel_saturated", no_kernel)
    g = families.build(family, param)
    if copy:
        g = graph_from_json(families.disguise(g, random.Random("flow-up-%s%s-%d" % (family, param, copy))))
    ring = CohomologyRing(g)
    degrees = range(0, ring.dim + 1, 2)
    betti = [ring.betti(d) for d in degrees]
    assert ring.path == "flow-up"
    assert betti == families.oracle(family, param)["betti"] == index_betti(g)
    # the reps of degree d are the tau_p with 2 lambda_p = d, in topological order
    order = topological_order(g)
    for d in degrees:
        reps = ring.ordinary(d).quotient_reps
        vertices = [v for v in order if 2 * len(down_weights(g, v)) == d]
        assert len(reps) == len(vertices)
        for v, tau in zip(vertices, reps):
            assert all(tau.component(u).is_zero() for u in order[: order.index(v)])
            assert tau.component(v) == product(down_weights(g, v), g.torus_rank)
            assert is_gkm_class(tau)


def test_flow_up_needs_primitive_signed_weights():
    """Primitive labels suffice, signed or not; `kernel_ring` reaches the
    kernel path on purpose."""
    for weights, path in (([(1, 0), (0, 1), (1, 1)], "flow-up"), ([(2, 0), (0, 1), (1, 1)], "kernel")):
        g = product_of_spheres(weights)
        assert CohomologyRing(g).path == CohomologyRing(g.unsigned()).path == path
    assert kernel_ring(builtin("eschenburg").unsigned()).path == "kernel"


@pytest.mark.parametrize("name", SIGNED + ("cp3", "cp1^3"))
def test_kernel_fallback_agrees(name):
    g = builtin(name) if name in SIGNED else families.build(name[:-1], int(name[-1]))
    gu = g.unsigned()
    flow, kernel, unsigned = CohomologyRing(g), kernel_ring(gu), CohomologyRing(gu)
    assert (flow.path, kernel.path, unsigned.path) == ("flow-up", "kernel", "flow-up")
    degrees = range(0, flow.dim + 1, 2)
    assert [flow.betti(d) for d in degrees] == [kernel.betti(d) for d in degrees] == index_betti(g)
    assert [unsigned.betti(d) for d in degrees] == index_betti(g)

    def on_unsigned(c):
        return FixedPointClass(gu, c.components)

    chern = equivariant_char_class(g, "chern")
    c1, c2 = chern.homogeneous_component(2), chern.homogeneous_component(4)
    reps = flow.ordinary(2).quotient_reps
    sw = equivariant_char_class(g, "stiefel_whitney")
    # coords on the kernel path = T * coords on a flow-up path, signed or not
    for ring, lift in ((flow, lambda c: c), (unsigned, on_unsigned)):
        t = {d: IntMatrix.from_columns([kernel.express(on_unsigned(rep), d).coords
                                        for rep in ring.ordinary(d).quotient_reps]) for d in degrees}
        assert all(m.is_unimodular() for m in t.values())
        for c in [c1, c2, c1 * c1] + [a * b for a, b in itertools.combinations_with_replacement(reps, 2)]:
            d = c.degree()
            assert kernel.express(on_unsigned(c), d).coords == t[d].apply(ring.express(lift(c), d).coords)
        for d in (2, 4):
            comps = sw.homogeneous_component(d).components
            image = t[d].apply(ring.express_mod2(comps, d))
            assert kernel.express_mod2(comps, d) == tuple(x % 2 for x in image)

    # one vertex moved by Y1 breaks the congruences on every edge there
    y1 = IntPolynomial.variable(g.torus_rank, 0)
    broken = FixedPointClass(g, [c1.components[0] + y1] + list(c1.components[1:]))
    with pytest.raises(NotInSubalgebra) as on_flow:
        flow.express(broken, 2)
    with pytest.raises(NotInSubalgebra) as on_kernel:
        kernel.express(on_unsigned(broken), 2)
    assert str(on_flow.value) == str(on_kernel.value)


def test_flow_up_classes_by_exact_division(monkeypatch):
    """Fresh rings on the flow-up path build their classes with no integer
    solve, no local matrix and no monomial list, and with one completion
    (one 1 x k Smith form) per distinct down-weight."""
    completions, shapes = [], []
    completion, snf = cohomology._completion, cohomology.smith_normal_form
    monkeypatch.setattr(cohomology, "kernel_saturated", no_kernel)
    monkeypatch.setattr(cohomology, "solve_with_snf", no_kernel)
    monkeypatch.setattr(cohomology, "monomials", no_kernel)
    monkeypatch.setattr(cohomology, "_completion", lambda w: completions.append(w) or completion(w))
    monkeypatch.setattr(cohomology, "smith_normal_form", lambda a, **kw: shapes.append((a.rows, a.cols)) or snf(a, **kw))
    for family, param in GRAPHS + [("cp", 6), ("cp1^", 6)]:
        g = families.build(family, param)
        del completions[:], shapes[:]
        ring = CohomologyRing(g)
        betti = [ring.betti(d) for d in range(0, ring.dim + 1, 2)]
        assert ring.path == "flow-up"
        assert betti == families.oracle(family, param)["betti"]
        assert len(set(completions)) == len(completions) <= len({w for v in g.vertices for w in g.weights_at(v)})
        assert shapes == [(1, g.torus_rank)] * len(completions)


def test_completion_lifts_by_the_adjugate(monkeypatch):
    """The lift rows of V^-1 come from one elimination of [V | I], not from
    a second Smith form: for seeded primitive w with k = 1..6,
    `_completion(w)` equals the reference V^-1 = V' * U' from the Smith
    form U' * V * V' = I, and a fresh flow-up ring runs no Smith form but
    the 1 x k ones of its completions."""
    rng = random.Random(2023)
    for k in range(1, 7):
        for _ in range(12):
            last = rng.choice((1, -1)) * rng.randint(1, 40)  # w is never 0
            w = primitive_part([rng.randint(-40, 40) for _ in range(k - 1)] + [last])
            v = cohomology.smith_normal_form(IntMatrix(1, k, w), with_u=False).V
            dec = smith_normal_form(v)
            assert dec.S == IntMatrix.identity(k)
            vinv = dec.V * dec.U
            want = ([IntPolynomial.linear_form(v.row(i)[1:]) for i in range(k)],
                    [IntPolynomial.linear_form(vinv.row(j)) for j in range(1, k)])
            assert cohomology._completion(w) == want, w
    for g in [builtin(name) for name in SIGNED] + [families.build(*p) for p in (("cp", 5), ("cp1^", 4), ("surface", 6))]:
        def completions_only(a, **kw):
            if (a.rows, a.cols) != (1, g.torus_rank):
                pytest.fail("a %dx%d Smith form ran" % (a.rows, a.cols))
            return smith_normal_form(a, **kw)

        monkeypatch.setattr(intlinalg, "smith_normal_form", completions_only)
        monkeypatch.setattr(cohomology, "smith_normal_form", completions_only)
        ring = CohomologyRing(g)
        assert ring.path == "flow-up"
        assert [ring.betti(d) for d in range(0, ring.dim + 1, 2)] == index_betti(g)


def test_each_vertex_restricts_its_earlier_down_weights_once(monkeypatch):
    """A fresh flow-up ring restricts alpha_1..alpha_(j-1) to alpha_j = 0
    once per step j of each vertex q, sum_q lambda_q (lambda_q - 1) / 2
    restrictions in all, not once per flow-up class reaching q."""
    forms, restrictions, made = {}, [], []
    completion, linear_form, substitute = cohomology._completion, IntPolynomial.linear_form.__func__, IntPolynomial.substitute

    def keep(p):  # ids stay unique while the objects are kept
        forms[id(p)] = p
        return p

    def counted(p, images):
        if id(p) in forms and any(images is restrict for restrict, _ in made):
            restrictions.append(p)
        return substitute(p, images)

    monkeypatch.setattr(cohomology, "_completion", lambda w: made.append(completion(w)) or made[-1])
    monkeypatch.setattr(IntPolynomial, "linear_form", classmethod(lambda cls, coeffs: keep(linear_form(cls, coeffs))))
    monkeypatch.setattr(IntPolynomial, "substitute", counted)
    graphs = [builtin(name) for name in SIGNED] + [families.build(*g) for g in (("cp", 5), ("cp1^", 5), ("surface", 8))]
    for g in graphs:
        del restrictions[:]
        ring = CohomologyRing(g)
        betti = [ring.betti(d) for d in range(0, ring.dim + 1, 2)]
        assert ring.path == "flow-up" and betti == index_betti(g)
        assert len(restrictions) == sum(math.comb(len(down_weights(g, v)), 2) for v in g.vertices)
    for g in (mutated_eschenburg(), GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True)):
        del restrictions[:]
        assert CohomologyRing(g).path == "kernel"
        # each try plans its vertex once, and the search stops within its budget
        assert len(restrictions) <= cohomology._NODES_PER_VERTEX * len(g.vertices) * math.comb(g.valence, 2)


@pytest.mark.parametrize("graph", [mutated_eschenburg, lambda: GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True)],
                         ids=["mutated-eschenburg", "uncertified-k4"])
def test_no_integral_flow_up_class_takes_the_kernel_path(graph, monkeypatch):
    # primitive weights, but along every order the search tries a division fails
    g = graph()
    assert g.signed and all_labels_primitive(g)
    assert CohomologyRing(g).path == "kernel"
    monkeypatch.setattr(cohomology, "_NODES_PER_VERTEX", 10**6)
    assert cohomology._flow_up(g) is None


@pytest.mark.parametrize("name", ["eschenburg", "unsigned-cp1^3"])
def test_search_out_of_budget_takes_the_kernel_path(name, monkeypatch):
    g = builtin(name) if name in SIGNED else families.build("cp1^", 3).unsigned()
    flow = CohomologyRing(g)
    degrees = range(0, flow.dim + 1, 2)
    betti = [flow.betti(d) for d in degrees]
    assert flow.path == "flow-up"
    monkeypatch.setattr(cohomology, "_NODES_PER_VERTEX", Fraction(1, len(g.vertices)))  # a budget of one node
    ring = CohomologyRing(g)
    assert ring.path == "kernel"
    assert [ring.betti(d) for d in degrees] == betti


UNSIGNED = [("cp", 5), ("cp1^", 4), ("surface", 16)]


@pytest.mark.parametrize("copy", [0, 1, 2], ids=["plain", "disguise1", "disguise2"])
@pytest.mark.parametrize("family,param", UNSIGNED, ids=["%s%s" % g for g in UNSIGNED])
def test_unsigned_graphs_take_the_flow_up_path(family, param, copy, monkeypatch):
    """Their kernel rings take seconds, so only the path and the Betti
    numbers are checked. The disguised copies list their vertices in a
    shuffled order, which the search must not need."""
    monkeypatch.setattr(cohomology, "kernel_saturated", no_kernel)
    g = families.build(family, param)
    if copy:
        g = graph_from_json(families.disguise(g, random.Random("unsigned-%s%s-%d" % (family, param, copy))))
    ring = CohomologyRing(g.unsigned())
    assert ring.path == "flow-up"
    assert [ring.betti(d) for d in range(0, ring.dim + 1, 2)] == families.oracle(family, param)["betti"]


READS = ("projection", "gkm_basis", "betti")


@pytest.mark.parametrize("family,param", GRAPHS, ids=["%s%s" % g for g in GRAPHS])
def test_matrices_do_not_depend_on_the_order_of_reads(family, param):
    g = families.build(family, param)
    degrees = list(range(0, 2 * g.valence + 1, 2))
    expected = {d: flow_up_matrices(CohomologyRing(g), d) for d in degrees}
    rng = random.Random("reads-%s%s" % (family, param))
    for _ in range(3):
        ring = CohomologyRing(g)
        reads = [(d, what) for d in degrees for what in READS]
        rng.shuffle(reads)
        for d, what in reads:
            cols, projection = expected[d]
            if what == "projection":
                coords = [ring.express(c, d).coords for c in ring.gkm_basis(d)]
                assert [list(row) for row in zip(*coords)] == projection
            elif what == "gkm_basis":
                assert [ring._class_to_vec(c, d) for c in ring.gkm_basis(d)] == cols
            else:
                assert ring.betti(d) == len(projection)


@pytest.mark.parametrize("name", SIGNED + ("cp3", "cp1^3") + tuple("surface%d" % m for m in range(4, 9)))
def test_rank_of_a_d_in_closed_form(name):
    g = builtin(name) if name in SIGNED else families.build(name.rstrip("0123456789"), int(name[-1]))
    ring = CohomologyRing(g)
    ranks = [ring.ordinary(d).rank for d in range(0, ring.dim + 1, 2)]
    assert ranks == [len(ring.gkm_basis(d)) for d in range(0, ring.dim + 1, 2)]
    if g.valence == 3:  # the kernel path on the larger graphs takes seconds
        kernel = kernel_ring(g.unsigned())
        assert kernel.path == "kernel"
        assert [kernel.ordinary(d).rank for d in range(0, 7, 2)] == ranks
        assert [len(kernel.gkm_basis(d)) for d in range(0, 7, 2)] == ranks


@pytest.mark.parametrize("name", SIGNED + ("cp3", "cp1^3", "imprimitive"))
def test_express_sends_each_basis_class_to_its_projection_column(name):
    """express(gkm_basis(d)[j]) is column j of the projection to (A/mA)_d:
    on the flow-up path the unit vector of tau_p when the class is tau_p with
    2 lambda_p = d, and 0 otherwise; on the kernel path the stored column."""
    if name == "imprimitive":
        rings = [CohomologyRing(product_of_spheres([(2, 0), (0, 1), (1, 1)]))]
        paths = ["kernel"]
    else:
        g = builtin(name) if name in SIGNED else families.build(name[:-1], int(name[-1]))
        rings = [CohomologyRing(g), CohomologyRing(g.unsigned()), kernel_ring(g), kernel_ring(g.unsigned())]
        paths = ["flow-up", "flow-up", "kernel", "kernel"]
    assert [ring.path for ring in rings] == paths
    for ring in rings:
        for d in range(0, ring.dim + 1, 2):
            reps, basis = ring.ordinary(d).quotient_reps, ring.gkm_basis(d)
            if ring.path == "flow-up":
                want = [tuple(int(c == tau) for tau in reps) for c in basis]
                assert sum(map(sum, want)) == len(reps)
            else:
                projection = ring._kernel[d][1]
                want = [projection.column(j) for j in range(projection.cols)]
            assert len(basis) == ring.ordinary(d).rank
            assert [ring.express(c, d).coords for c in basis] == want


# -- the peel against successive division --------------------------------------


def _peel_graphs():
    signed = [(name, builtin(name)) for name in SIGNED]
    for family, param in [("cp", 3), ("cp1^", 3)] + [("surface", m) for m in range(4, 9)]:
        g = families.build(family, param)
        signed.append(("%s%s-disguised" % (family, param), graph_from_json(
            families.disguise(g, random.Random("peel-%s%s" % (family, param))))))
    return signed + [("unsigned-" + name, g.unsigned()) for name, g in signed]


PEEL_GRAPHS = _peel_graphs()


def _divides_down_weights(ring, p, h, mod2):
    """Whether e_p^- divides h, over F_2 when mod2."""
    for _, w in ring._flow.down[p]:
        if (h := divide_by_linear(h, IntPolynomial.linear_form(w), mod2)) is None:
            return False
    return True


def _non_members(ring, base, d, mod2):
    """(2 lambda_p compared with d, base plus one monomial at p) for each
    vertex p that has a degree-d monomial e_p^- does not divide, over F_2
    when mod2. base is in A, so the peel reaches p unchanged and fails
    there."""
    for p in ring._flow.order:
        m = next((y for y in (IntPolynomial(ring.k, {e: 1}) for e in monomials(ring.k, d))
                  if not _divides_down_weights(ring, p, y, mod2)), None)
        if m is not None:
            twice = 2 * len(ring._flow.down[p])
            case = "<" if twice < d else "=" if twice == d else ">"
            yield case, tuple(c + m if q == p else c for q, c in enumerate(base.components))


@pytest.mark.parametrize("name,g", PEEL_GRAPHS, ids=[name for name, _ in PEEL_GRAPHS])
def test_peel_matches_successive_division(name, g):
    """Integrally and mod 2, in every even degree 0..6, the peel gives the
    coordinates, or None, that dividing x(p) by each down-weight gives: on
    the total classes, every basis class of A_d and seeded combinations of
    them, and on non-members that fail at a vertex with 2 lambda_p above,
    at and below d."""
    ring = CohomologyRing(g)
    assert ring.path == "flow-up"
    rng = random.Random("peel-" + name)
    totals = [equivariant_char_class(g, kind).components for kind in KINDS if g.signed or kind != "chern"]
    failures = set()
    for d in range(0, 7, 2):
        basis = ring.gkm_basis(d)
        combinations = [sum((rng.randint(-3, 3) * c for c in basis), FixedPointClass.constant(g, 0)) for _ in range(4)]
        members = [c.components for c in basis + combinations]
        for mod2 in (False, True):
            for x in totals + members:
                got = ring._peel(x, d, mod2)
                assert got == successive_division_peel(ring, x, d, mod2), (d, mod2, x)
            assert all(ring._peel(x, d, mod2) is not None for x in members)
            for case, x in _non_members(ring, combinations[0], d, mod2):
                assert ring._peel(x, d, mod2) is None and successive_division_peel(ring, x, d, mod2) is None
                failures.add((case, mod2))
    assert failures == {(case, mod2) for case in "<=>" for mod2 in (False, True)}


def test_a_peel_graph_has_an_e_p_whose_first_coefficient_is_even():
    """The mod-2 peel must read c at an odd coefficient of e_p^-: on
    eschenburg some e_p^- has an even first coefficient."""
    fu = CohomologyRing(dict(PEEL_GRAPHS)["eschenburg"])._flow
    assert any(next(iter(fu.tau[p][p].terms.values())) % 2 == 0 for p in fu.order)
