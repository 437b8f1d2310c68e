import functools
import itertools
import operator
import os
import random
import subprocess
import sys

import pytest

from gkmcalc.charclasses import (
    KINDS,
    descend,
    equivariant_char_class,
    localize_integral,
)
from gkmcalc.cohomology import CohomologyRing, FixedPointClass, GeneratorBasis, is_gkm_class
from gkmcalc.errors import (
    ChernRequiresSignedGraph,
    LocalizationRequiresSignedGraph,
    NoConnection,
    NonIntegralLocalizationSum,
    NotInSubalgebra,
)
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin, graph_from_json
from gkmcalc.intlinalg import canonical_sign, primitive_part
from gkmcalc.polyring import IntPolynomial, monomials, parse_polynomial

from helpers import (
    UNCERTIFIED_K4,
    _load,
    _load_families,
    is_gkm_class_by_division,
    mutated_eschenburg,
    product_denominator_integral,
    product_of_spheres,
    total_class_by_products,
)

SIGNED_BUILTINS = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")
XX = ["X1", "X2"]
YY = ["Y1", "Y2"]


def eschenburg_setup(name="eschenburg"):
    g = builtin(name)
    ring = CohomologyRing(g)
    classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in XX]
    gens = GeneratorBasis(ring, XX, classes)
    return g, ring, gens


def reduce_deg6_and_pair(poly: IntPolynomial, orientation=1):
    """Independent oracle: reduce a degree-6 polynomial in X1, X2 modulo
    r1 = -X1^2-3X1X2-X2^2 and r2 = -X1^2X2-X1X2^2 to a multiple of X1^2X2,
    then pair using <X1^2X2,[M]> = -1 (from <c3,[M]> = 6 and c3 = -6X1^2X2).

    Reduction table, derived by hand from the relations:
      X2^2 = -X1^2 - 3X1X2  =>  X1X2^2 = -X1^3 - 3X1^2X2
      r2:   X1^2X2 = -X1X2^2  =>  X1^3 = -2 X1^2X2
      X2^3 = X2 * X2^2 = -X1^2X2 - 3X1X2^2 = 2 X1^2X2
    """
    table = {(3, 0): -2, (2, 1): 1, (1, 2): -1, (0, 3): 2}
    coeff = sum(c * table[e] for e, c in poly.terms.items())
    return coeff * (-1) * orientation


def test_equivariant_chern_at_p1():
    g = builtin("eschenburg")
    total = equivariant_char_class(g, "chern")
    expected = parse_polynomial("(1 + Y1)*(1 + Y1 - Y2)*(1 + 2*Y1 - Y2)", YY)
    assert total.components[g.vertices.index("p1")] == expected


def test_equivariant_pontrjagin_at_p3():
    g = builtin("eschenburg")
    total = equivariant_char_class(g, "pontrjagin")
    expected = parse_polynomial(
        "(1 + Y2^2)*(1 + Y1^2)*(1 + (Y1 - Y2)^2)", YY
    )
    assert total.components[g.vertices.index("p3")] == expected


def test_equivariant_sw_at_p6():
    g = builtin("eschenburg")
    total = equivariant_char_class(g, "stiefel_whitney")
    expected = parse_polynomial("(1 + Y2)*(1 + Y1)*(1 + Y1 + Y2)", YY).mod2()
    assert total.components[g.vertices.index("p6")] == expected


def test_chern_requires_signed():
    with pytest.raises(ChernRequiresSignedGraph):
        equivariant_char_class(builtin("eschenburg").unsigned(), "chern")


def test_total_class_parts_are_gkm_classes():
    for name in SIGNED_BUILTINS:
        g = builtin(name)
        for kind in ("chern", "pontrjagin"):
            total = equivariant_char_class(g, kind)
            for d in range(2, 2 * g.valence + 1, 2):
                assert is_gkm_class(total.homogeneous_component(d)), (name, kind, d)


def _total_class_graphs():
    families = _load_families()
    signed = [(name, builtin(name)) for name in SIGNED_BUILTINS]
    for family, param in [("cp", 3), ("cp", 4), ("cp1^", 3)] + [("surface", m) for m in range(4, 9)]:
        g = families.build(family, param)
        signed.append(("%s%s-disguised" % (family, param), graph_from_json(
            families.disguise(g, random.Random("total-%s%s" % (family, param))))))
    unsigned = [("unsigned-" + name, g.unsigned()) for name, g in signed]
    spheres = [("s2cubed%d" % i, product_of_spheres(w)) for i, w in enumerate(_load("tools/sweep.py").SPHERE_WEIGHTS, 1)]
    return signed + unsigned + spheres + [("uncertified-k4", GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True)),
                                          ("mutated-eschenburg", mutated_eschenburg())]


TOTAL_CLASS_GRAPHS = _total_class_graphs()


@pytest.mark.parametrize("name,g", TOTAL_CLASS_GRAPHS, ids=[name for name, _ in TOTAL_CLASS_GRAPHS])
def test_total_classes_match_the_product_reference(name, g):
    """Every kind the graph allows has the components of the IntPolynomial
    product, with no zero coefficient kept; an unknown kind is refused
    before the signs are looked at, and Chern needs them."""
    for kind in KINDS:
        if kind == "chern" and not g.signed:
            for build in (equivariant_char_class, total_class_by_products):
                with pytest.raises(ChernRequiresSignedGraph, match="Chern classes need the signs"):
                    build(g, kind)
            continue
        total = equivariant_char_class(g, kind)
        assert total.kind == kind and total.graph is g
        assert total.components == total_class_by_products(g, kind), (name, kind)
        allowed = {1} if kind == "stiefel_whitney" else None
        for p in total.components:
            assert all(c and (allowed is None or c in allowed) for c in p.terms.values()), (name, kind, p)
    for kind in ("euler", "Chern", ""):
        with pytest.raises(ValueError) as info:
            equivariant_char_class(g, kind)
        assert info.type is ValueError and str(info.value) == "unknown class kind %r" % kind


def test_descend_eschenburg_golden_values():
    g, ring, gens = eschenburg_setup()
    chern = descend(g, equivariant_char_class(g, "chern"), gens, ring)
    assert chern.poly(2) == "4*X1 + 2*X2"
    assert chern.poly(4) == "6*X1^2 + 6*X1*X2"
    assert chern.poly(6) == "-6*X1^2*X2"
    pont = descend(g, equivariant_char_class(g, "pontrjagin"), gens, ring)
    assert pont.poly(4) == "-8*X1*X2"
    assert pont.poly(2) == "0" and pont.poly(6) == "0"
    sw = descend(g, equivariant_char_class(g, "stiefel_whitney"), gens, ring)
    assert sw.poly(2) == "0" and sw.poly(4) == "0" and sw.poly(6) == "0"


def test_descend_uses_the_class_it_is_given(monkeypatch):
    from gkmcalc import charclasses

    g, ring, _gens = eschenburg_setup()
    sw = equivariant_char_class(g, "stiefel_whitney")
    calls = []

    def counting(graph, kind):
        calls.append(kind)
        return equivariant_char_class(graph, kind)

    monkeypatch.setattr(charclasses, "equivariant_char_class", counting)
    report = descend(g, sw, ring=ring)
    assert calls == []
    assert [e["coords"] for e in report.degrees] == [(0, 0), (0, 0), (0,)]


def test_descend_fiber_swapped_values():
    g, ring, gens = eschenburg_setup("eschenburg-swapped")
    chern = descend(g, equivariant_char_class(g, "chern"), gens, ring)
    assert chern.poly(2) == "2*X1 + 4*X2"
    assert chern.poly(4) == "-6*X1^2 - 12*X1*X2"
    assert chern.poly(6) == "6*X1^2*X2"
    pont = descend(g, equivariant_char_class(g, "pontrjagin"), gens, ring)
    assert pont.poly(4) == "-8*X1*X2"


def test_p1_equals_c1_squared_minus_2c2():
    for name in SIGNED_BUILTINS:
        g = builtin(name)
        ring = CohomologyRing(g)
        chern = equivariant_char_class(g, "chern")
        c1 = chern.homogeneous_component(2)
        c2 = chern.homogeneous_component(4)
        p1 = equivariant_char_class(g, "pontrjagin").homogeneous_component(4)
        lhs = ring.express(p1, 4).coords
        rhs = ring.express(c1 * c1 - 2 * c2, 4).coords
        assert lhs == rhs, name


def test_mod2_chern_is_stiefel_whitney():
    for name in SIGNED_BUILTINS:
        g = builtin(name)
        chern = equivariant_char_class(g, "chern")
        sw = equivariant_char_class(g, "stiefel_whitney")
        assert tuple(p.mod2() for p in chern.components) == sw.components, name


def test_localize_constant_and_low_degree_vanish():
    for name in SIGNED_BUILTINS:
        g = builtin(name)
        ring = CohomologyRing(g)
        assert localize_integral(g, FixedPointClass.constant(g, 1)) == 0
        for c in ring.gkm_basis(2):
            assert localize_integral(g, c) == 0, name


def test_localize_top_chern_counts_fixed_points():
    for name in SIGNED_BUILTINS:
        g = builtin(name)
        c3 = equivariant_char_class(g, "chern").homogeneous_component(6)
        assert localize_integral(g, c3) == len(g.vertices), name


def test_localize_c1_cubed_is_64():
    g, ring, gens = eschenburg_setup()
    chern = equivariant_char_class(g, "chern")
    c1 = chern.homogeneous_component(2)
    value = localize_integral(g, c1 * c1 * c1)
    assert value == 64
    # second, independent oracle: reduce (4X1+2X2)^3 modulo the relations
    cubed = parse_polynomial("(4*X1 + 2*X2)^3", XX)
    assert reduce_deg6_and_pair(cubed) == 64


def test_localization_agrees_with_ring_reduction_on_monomials():
    g, ring, gens = eschenburg_setup()
    classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in XX]
    for exps in ((3, 0), (2, 1), (1, 2), (0, 3)):
        cls = classes[0] ** exps[0] * classes[1] ** exps[1]
        expected = reduce_deg6_and_pair(IntPolynomial(2, {exps: 1}))
        assert localize_integral(g, cls) == expected, exps


def test_localize_rejects_unsigned():
    g = builtin("eschenburg").unsigned()
    with pytest.raises(LocalizationRequiresSignedGraph):
        localize_integral(g, FixedPointClass.constant(g, 1))


def test_localize_rejects_above_top_degree():
    g = builtin("eschenburg")
    c = FixedPointClass.from_strings(g, {v: "Y1^4" for v in g.vertices})
    with pytest.raises(ValueError):
        localize_integral(g, c)


def test_localize_rejects_a_mixed_degree_class():
    g = builtin("eschenburg")
    c = FixedPointClass.from_strings(g, {v: "Y1 + Y1^2" for v in g.vertices})
    with pytest.raises(ValueError, match="^localization input must be homogeneous$"):
        localize_integral(g, c)


def test_localize_flags_inconsistent_class():
    # outside A, its sum does not cancel; the value at xi would mean nothing
    g = builtin("eschenburg")
    c = FixedPointClass.from_strings(
        g, {"p1": "Y1", "p2": "0", "p3": "0", "p4": "0", "p5": "0", "p6": "0"}
    )
    with pytest.raises(NonIntegralLocalizationSum, match="does not cancel"):
        product_denominator_integral(g, c)
    with pytest.raises(NotInSubalgebra, match="^class of degree 2 violates the edge congruences; it is not in A$"):
        localize_integral(g, c)


def test_localize_flags_nonconstant_top_degree_sum():
    # outside A, its top-degree sum is not constant
    g = builtin("eschenburg")
    c = FixedPointClass.from_strings(g, {v: "Y1^3" if v == "p1" else "0" for v in g.vertices})
    with pytest.raises(NonIntegralLocalizationSum, match="not constant"):
        product_denominator_integral(g, c)
    with pytest.raises(NotInSubalgebra, match="^class of degree 6 violates"):
        localize_integral(g, c)


# -- the sum at xi against the product-denominator sum ---------------------------


def _oracle_graphs():
    families = _load_families()
    out = [(name, builtin(name)) for name in SIGNED_BUILTINS]
    for family, params in [("cp", (2, 3, 4)), ("cp1^", (2, 3, 4)), ("surface", (4, 5, 6, 7, 8))]:
        for param in params:
            g = families.build(family, param)
            out.append(("%s%s-disguised" % (family, param), graph_from_json(
                families.disguise(g, random.Random("oracle-%s%s" % (family, param))))))
    for i, weights in enumerate(_load("tools/sweep.py").SPHERE_WEIGHTS, 1):
        out.append(("s2cubed%d" % i, product_of_spheres(weights)))
    out.append(("uncertified-k4", GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True)))
    out.append(("mutated-eschenburg", mutated_eschenburg()))
    return out


def _oracle_classes(g, rng):
    """Total Chern and Pontrjagin classes and the monomials in their parts
    up to degree dim + 2, seeded products of two quotient reps, and random
    tuples of every even degree up to dim + 2."""
    dim = 2 * g.valence
    classes = []
    for kind, step in (("chern", 2), ("pontrjagin", 4)):
        total = equivariant_char_class(g, kind)
        parts = [total.homogeneous_component(d) for d in range(step, dim + 1, step)]
        classes.append(total)
        for n in range(1, (dim + 2) // step + 1):
            for factors in itertools.combinations_with_replacement(parts, n):
                if sum(f.degree() for f in factors) <= dim + 2:
                    classes.append(functools.reduce(operator.mul, factors))
    ring = CohomologyRing(g)
    reps = [x for d in range(0, dim + 1, 2) for x in ring.ordinary(d).quotient_reps]
    pairs = list(itertools.combinations_with_replacement(reps, 2))
    classes += [a * b for a, b in rng.sample(pairs, min(len(pairs), 30))]
    for d in range(0, dim + 3, 2):
        mons = monomials(g.torus_rank, d)
        for _ in range(2):
            classes.append(FixedPointClass(g, [IntPolynomial(g.torus_rank, {m: rng.randint(-2, 2) for m in mons})
                                               for _ in g.vertices]))
    return classes


def _integral_or_error(integrate, g, c):
    try:
        return integrate(g, c)
    except Exception as exc:  # the error itself is the output compared
        return type(exc), str(exc)


ORACLE_GRAPHS = _oracle_graphs()
NO_CONNECTION = ("uncertified-k4", "mutated-eschenburg")


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
def test_lcm_sum_matches_the_product_denominator_sum(name, g):
    """The sum at xi, over the lcm of the e_p(xi), against the running
    fraction: the same value on every class of A (the division reference
    decides membership), NotInSubalgebra on every other homogeneous class
    up to the top degree, the same errors on the rest, and NoConnection on
    every nonzero one of those on a graph with no connection."""
    outcomes = set()
    for c in _oracle_classes(g, random.Random("oracle-" + name)):
        got, want = (_integral_or_error(integrate, g, c) for integrate in (localize_integral, product_denominator_integral))
        if isinstance(want, tuple) and want[0] is ValueError or c.is_zero():
            assert got == want, (name, c)
        elif name in NO_CONNECTION:
            assert got[0] is NoConnection, (name, c)
        elif is_gkm_class_by_division(c):
            assert got == want and not isinstance(got, tuple), (name, c)
        else:
            assert got == (NotInSubalgebra, "class of degree %d violates the edge congruences; it is not in A"
                           % c.degree()), (name, c)
        if not c.is_zero():
            outcomes.add(got[0].__name__ if isinstance(got, tuple) else "value")
    assert outcomes == ({"ValueError", "NoConnection"} if name in NO_CONNECTION
                        else {"ValueError", "NotInSubalgebra", "value"})


def test_lcm_sum_of_a_non_integral_class_matches():
    """The product of the primitive lines at one vertex is half its Euler
    class there, so the running fraction sums to -1/2; it is not in A
    (2*Y1 does not divide it), so localize_integral refuses it."""
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    lines = IntPolynomial.constant(2, 1)
    for w in g.weights_at("ppp"):
        lines = lines * IntPolynomial.linear_form(canonical_sign(primitive_part(w)))
    c = FixedPointClass(g, [lines if v == "ppp" else IntPolynomial.zero(2) for v in g.vertices])
    assert not is_gkm_class(c) and not is_gkm_class_by_division(c)
    assert _integral_or_error(product_denominator_integral, g, c) == (
        NonIntegralLocalizationSum, "localization sum -1/2 is not an integer")
    assert _integral_or_error(localize_integral, g, c) == (
        NotInSubalgebra, "class of degree 6 violates the edge congruences; it is not in A")


# The product of all 7 Euler classes of CP^6 has degree 42; this took about
# 20 s with the running fraction over that product.
CP6_INTEGRALS = """
from helpers import _load_families
from gkmcalc.charclasses import equivariant_char_class, localize_integral

g = _load_families().build("cp", 6)
chern = equivariant_char_class(g, "chern")
print(localize_integral(g, chern.homogeneous_component(2) ** 6), localize_integral(g, chern.homogeneous_component(12)))
"""


def test_cp6_integrals_finish_quickly():
    import gkmcalc

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-c", CP6_INTEGRALS], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["117649", "7"]


def flip_weights(g, flips):
    """The signed graph with the listed edge indices' weights negated at
    both ends (still a consistent signed graph)."""
    edges = [
        (e.u, e.v, tuple(-x for x in e.weight_at_u), tuple(-x for x in e.weight_at_v))
        if i in flips else (e.u, e.v, e.weight_at_u, e.weight_at_v)
        for i, e in enumerate(g.edges)
    ]
    return GKMGraph(g.torus_rank, g.vertices, edges, g.signed, g.name)


def test_pontrjagin_and_sw_sign_independent():
    rng = random.Random(2718)
    base = builtin("eschenburg")
    base_ring = CohomologyRing(base)
    base_classes = [FixedPointClass.from_strings(base, ESCHENBURG_GENERATORS[n]) for n in XX]
    base_gens = GeneratorBasis(base_ring, XX, base_classes)
    pont_ref = descend(base, equivariant_char_class(base, "pontrjagin"), base_gens, base_ring)
    sw_ref = descend(base, equivariant_char_class(base, "stiefel_whitney"), base_gens, base_ring)
    for _ in range(4):
        flips = [i for i in range(9) if rng.random() < 0.5]
        g = flip_weights(base, flips)
        assert g.validate().valid
        # the equivariant level is literally unchanged
        assert (
            equivariant_char_class(g, "pontrjagin").components
            == equivariant_char_class(base, "pontrjagin").components
        )
        assert (
            equivariant_char_class(g, "stiefel_whitney").components
            == equivariant_char_class(base, "stiefel_whitney").components
        )
        ring = CohomologyRing(g)
        classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in XX]
        gens = GeneratorBasis(ring, XX, classes)
        pont = descend(g, equivariant_char_class(g, "pontrjagin"), gens, ring)
        sw = descend(g, equivariant_char_class(g, "stiefel_whitney"), gens, ring)
        for d in (2, 4, 6):
            assert pont.poly(d) == pont_ref.poly(d)
            assert sw.poly(d) == sw_ref.poly(d)
