"""The flow-up path of CohomologyRing, and the kernel path it falls back to."""

import itertools
import operator
import random

import pytest

import gkmcalc.cohomology as cohomology
from gkmcalc.charclasses import equivariant_char_class
from gkmcalc.cohomology import CohomologyRing, FixedPointClass, is_gkm_class
from gkmcalc.errors import NotInSubalgebra
from gkmcalc.gkm import builtin, graph_from_json
from gkmcalc.intlinalg import IntMatrix
from gkmcalc.polyring import IntPolynomial
from test_wjz import _load_families, index_betti

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
    from test_wjz import product_of_spheres

    assert CohomologyRing(product_of_spheres([(1, 0), (0, 1), (1, 1)])).path == "flow-up"
    assert CohomologyRing(product_of_spheres([(2, 0), (0, 1), (1, 1)])).path == "kernel"
    assert CohomologyRing(builtin("eschenburg").unsigned()).path == "kernel"


@pytest.mark.parametrize("name", SIGNED + ("cp3", "cp1^3"))
def test_kernel_fallback_agrees(name):
    g = builtin(name) if name in SIGNED else families.build(name[:-1], int(name[-1]))
    gu = g.unsigned()
    flow, kernel = CohomologyRing(g), CohomologyRing(gu)
    assert (flow.path, kernel.path) == ("flow-up", "kernel")
    degrees = range(0, flow.dim + 1, 2)
    assert [flow.betti(d) for d in degrees] == [kernel.betti(d) for d in degrees]

    def on_unsigned(c):
        return FixedPointClass(gu, c.components)

    # coords on the kernel path = T * coords on the flow-up path
    t = {d: IntMatrix.from_columns([kernel.express(on_unsigned(rep), d).coords
                                    for rep in flow.ordinary(d).quotient_reps]) for d in degrees}
    assert all(m.is_unimodular() for m in t.values())
    chern = equivariant_char_class(g, "chern")
    c1, c2 = chern.homogeneous_component(2), chern.homogeneous_component(4)
    reps = flow.ordinary(2).quotient_reps
    for c in [c1, c2, c1 * c1] + [a * b for a, b in itertools.combinations_with_replacement(reps, 2)]:
        d = c.degree()
        assert kernel.express(on_unsigned(c), d).coords == t[d].apply(flow.express(c, d).coords)
    sw = equivariant_char_class(g, "stiefel_whitney")
    for d in (2, 4):
        comps = sw.homogeneous_component(d).components
        image = t[d].apply(flow.express_mod2(comps, d))
        assert kernel.express_mod2(comps, d) == tuple(x % 2 for x in image)

    # one vertex moved by Y1 breaks the congruences on every edge there
    y1 = IntPolynomial.variable(g.torus_rank, 0)
    broken = FixedPointClass(g, [c1.components[0] + y1] + list(c1.components[1:]))
    with pytest.raises(NotInSubalgebra) as on_flow:
        flow.express(broken, 2)
    with pytest.raises(NotInSubalgebra) as on_kernel:
        kernel.express(on_unsigned(broken), 2)
    assert str(on_flow.value) == str(on_kernel.value)
