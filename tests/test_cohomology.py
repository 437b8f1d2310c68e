from math import comb

import pytest

from gkmcalc.cohomology import (
    CohomologyRing,
    FixedPointClass,
    GeneratorBasis,
    evaluate_class_polynomial,
    is_gkm_class,
)
from gkmcalc.errors import GeneratorsDoNotSpan, InvalidGraph, NotInSubalgebra, SchemaError, TorsionInQuotient
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin
from gkmcalc.intlinalg import IntMatrix, smith_normal_form
from gkmcalc.polyring import IntPolynomial, PolynomialSyntaxError, parse_polynomial
from helpers import product_of_spheres, torsion_graph

VALID_BUILTINS = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")
XX = ["X1", "X2"]


@pytest.fixture(scope="module")
def esc():
    return builtin("eschenburg")


@pytest.fixture(scope="module")
def ring(esc):
    return CohomologyRing(esc)


@pytest.fixture(scope="module")
def phi(esc):
    return {
        name: FixedPointClass.from_strings(esc, data)
        for name, data in ESCHENBURG_GENERATORS.items()
    }


@pytest.fixture(scope="module")
def gens(ring, phi):
    return GeneratorBasis(ring, XX, [phi["X1"], phi["X2"]])


def evaluate(ring, generators, p):
    return ring.express(evaluate_class_polynomial(ring.graph, generators, p), p.degree())


def test_generator_tuples_are_gkm_classes(phi):
    assert is_gkm_class(phi["X1"])
    assert is_gkm_class(phi["X2"])


def test_constant_tuple_is_gkm_class(esc):
    assert is_gkm_class(FixedPointClass.constant(esc, 1))


def test_lonely_component_is_not(esc):
    c = FixedPointClass.from_strings(
        esc, {"p1": "Y1", "p2": "0", "p3": "0", "p4": "0", "p5": "0", "p6": "0"}
    )
    assert not is_gkm_class(c)


def test_gkm_basis_ranks(ring):
    # cross-check: a free module over Z[Y1,Y2] with one generator per
    # ordinary basis class gives rank A_d = sum_j b_(d-2j) * (j+1)
    betti = {d: ring.betti(d) for d in (0, 2, 4, 6)}
    for d in (0, 2, 4, 6):
        expected = sum(betti.get(d - 2 * j, 0) * (j + 1) for j in range(d // 2 + 1))
        assert len(ring.gkm_basis(d)) == expected
    assert len(ring.gkm_basis(2)) == 4
    assert len(ring.gkm_basis(4)) == 9


def test_ordinary_ranks(ring):
    assert [ring.betti(d) for d in (0, 2, 4, 6)] == [1, 2, 2, 1]
    assert ring.betti(8) == 0


def test_basis_elements_pass_is_gkm_class():
    for name in VALID_BUILTINS:
        ring = CohomologyRing(builtin(name))
        for d in range(0, ring.dim + 1, 2):
            for c in ring.gkm_basis(d):
                assert is_gkm_class(c), (name, d)


def test_total_rank_is_fixed_point_count():
    for name in VALID_BUILTINS:
        g = builtin(name)
        ring = CohomologyRing(g)
        assert sum(ring.betti(d) for d in range(0, ring.dim + 1, 2)) == len(g.vertices)


def test_quotient_reps_project_to_unit_vectors(ring):
    for d in (0, 2, 4, 6):
        gb = ring.ordinary(d)
        for i, rep in enumerate(gb.quotient_reps):
            coords = ring.express(rep, d).coords
            assert coords == tuple(1 if j == i else 0 for j in range(gb.projection.rows))


@pytest.mark.parametrize("which", ["eschenburg", "imprimitive", "point"])
def test_ideal_generators_vanish_in_the_quotient(which):
    if which == "eschenburg":
        g = builtin("eschenburg")
    elif which == "imprimitive":
        g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    else:
        g = GKMGraph(2, ["a"], [], signed=True)
    ring = CohomologyRing(g)
    for d in (0, 2, 4, 6):
        A = ring.ordinary(d).basis
        basis = ring.gkm_basis(d)
        assert [A.column(j) for j in range(A.cols)] == [tuple(ring._class_to_vec(c, d)) for c in basis]
        if d < 2:
            continue
        for b in ring.gkm_basis(d - 2):
            for i in range(g.torus_rank):
                y = IntPolynomial.variable(g.torus_rank, i)
                yb = FixedPointClass(g, [y * p for p in b.components])
                assert not any(ring.express(yb, d).coords), (which, d, i)


def test_invalid_graph_rejected():
    with pytest.raises(InvalidGraph):
        CohomologyRing(builtin("cp1xcp2"))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_point_has_the_cohomology_of_a_point(k):
    # with no edges there are no congruences, so A = H(BT): one class per
    # degree-d monomial in k variables, and A/mA is Z in degree 0 only
    ring = CohomologyRing(GKMGraph(k, ["a"], [], signed=True))
    assert [len(ring.gkm_basis(d)) for d in (0, 2, 4)] == [comb(d // 2 + k - 1, k - 1) for d in (0, 2, 4)]
    assert [ring.betti(d) for d in (0, 2, 4)] == [1, 0, 0]


def test_cup_with_one_is_identity(ring, phi):
    one = FixedPointClass.constant(ring.graph, 1)
    for g in phi.values():
        assert ring.express(g * one).coords == ring.express(g, 2).coords


def test_relations_die_in_quotient(ring, phi):
    x1, x2 = phi["X1"], phi["X2"]
    r1 = ring.express(x1 * x1).coords
    r1b = ring.express(x1 * x2).coords
    r1c = ring.express(x2 * x2).coords
    combo = tuple(a + 3 * b + c for a, b, c in zip(r1, r1b, r1c))
    assert combo == (0, 0)
    deg6 = ring.express(x1 * x1 * x2 + x1 * x2 * x2, 6)
    assert deg6.coords == (0,)


def test_evaluate_ring_map_generators(ring, phi):
    p = parse_polynomial("X1", XX)
    got = evaluate(ring, [phi["X1"], phi["X2"]], p)
    assert got.coords == ring.express(phi["X1"], 2).coords


def test_evaluate_ring_map_relations(ring, phi):
    gens = [phi["X1"], phi["X2"]]
    r1 = parse_polynomial("-X1^2 - 3*X1*X2 - X2^2", XX)
    r2 = parse_polynomial("-X1^2*X2 - X1*X2^2", XX)
    assert evaluate(ring, gens, r1).coords == (0, 0)
    assert evaluate(ring, gens, r2).coords == (0,)


def test_top_monomial_generates(ring, phi):
    p = parse_polynomial("X1^2*X2", XX)
    got = evaluate(ring, [phi["X1"], phi["X2"]], p)
    assert got.coords in ((1,), (-1,))


def test_presentation_unimodular_per_degree(gens):
    # the classical Z-basis 1, X1, X2, X1^2, X1X2, X1^2X2 is found degreewise
    assert gens.basis_monomials(0) == [(0, 0)]
    assert gens.basis_monomials(2) == [(1, 0), (0, 1)]
    assert gens.basis_monomials(4) == [(2, 0), (1, 1)]
    assert gens.basis_monomials(6) == [(2, 1)]


def test_cup_commutative_associative(ring, phi):
    x1, x2 = phi["X1"], phi["X2"]
    assert ring.express(x1 * x2, 4).coords == ring.express(x2 * x1, 4).coords
    assert (
        ring.express((x1 * x2) * x1, 6).coords
        == ring.express(x1 * (x2 * x1), 6).coords
    )


def test_express_rejects_non_member(ring, esc):
    c = FixedPointClass.from_strings(
        esc, {"p1": "Y1", "p2": "0", "p3": "0", "p4": "0", "p5": "0", "p6": "0"}
    )
    with pytest.raises(NotInSubalgebra):
        ring.express(c, 2)


def test_generator_basis_roundtrip(ring, gens, phi):
    elem = ring.express(phi["X1"] * phi["X1"], 4)
    poly = gens.to_poly(elem)
    back = evaluate(ring, [phi["X1"], phi["X2"]], poly)
    assert back.coords == elem.coords


def test_generator_basis_rejects_wrong_degree(ring, esc):
    c = FixedPointClass.constant(esc, 1)
    with pytest.raises(GeneratorsDoNotSpan):
        GeneratorBasis(ring, ["bad"], [c])


@pytest.mark.parametrize(
    "call, error",
    [(lambda esc, ring, phi: parse_polynomial(5, ["Y1", "Y2"]), PolynomialSyntaxError),
     (lambda esc, ring, phi: FixedPointClass.from_strings(esc, {v: 5 for v in esc.vertices}), PolynomialSyntaxError),
     (lambda esc, ring, phi: GeneratorBasis(ring, "XY", [phi["X1"], phi["X2"]]), SchemaError),
     (lambda esc, ring, phi: GeneratorBasis(ring, XX, [1, 2]), SchemaError)],
    ids=["integer-polynomial", "integer-component", "string-names", "integer-classes"],
)
def test_entry_points_reject_wrong_types_with_a_named_error(esc, ring, phi, call, error):
    with pytest.raises(error):
        call(esc, ring, phi)


def test_torsion_in_the_quotient_is_a_named_error():
    ring = CohomologyRing(torsion_graph())
    assert ring.betti(4) == 3
    for call in (ring.betti, ring.gkm_basis):
        with pytest.raises(TorsionInQuotient, match="A/mA has 6-torsion in degree 6"):
            call(6)


def test_mod2_descent_of_even_class(ring, esc, phi):
    # 2 * anything dies mod 2
    doubled = phi["X1"] * 2
    coords = ring.express_mod2([p.mod2() for p in doubled.components], 2)
    assert coords == (0, 0)


def test_caching_is_stable(ring):
    a = ring.ordinary(4)
    b = ring.ordinary(4)
    assert a is b


def test_ring_of_is_shared_per_graph(esc):
    from gkmcalc.cohomology import ring_of

    assert ring_of(esc) is ring_of(esc)
    assert len(ring_of(esc).gkm_basis(4)) == 9
    assert ring_of(esc).ordinary(2).projection.rows == 2


def test_snf_of_generator_matrix_unimodular(ring, gens, phi):
    # composite Z[X1,X2]/(r1,r2) -> A/mA is a degreewise isomorphism
    for d in (2, 4, 6):
        monos = gens.basis_monomials(d)
        cols = []
        for m in monos:
            p = IntPolynomial(2, {m: 1})
            cols.append(evaluate(ring, [phi["X1"], phi["X2"]], p).coords)
        dec = smith_normal_form(IntMatrix.from_columns(cols))
        assert all(x == 1 for x in dec.diagonal())


def test_ring_of_does_not_keep_the_graph_alive():
    import gc
    import weakref

    from gkmcalc.cohomology import ring_of

    g = builtin("eschenburg")
    assert ring_of(g).betti(2) == 2
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_express_mod2_is_reduction_of_express(ring):
    # every A_d basis class: the mod-2 solve agrees with the integral one
    for d in range(0, ring.dim + 1, 2):
        for c in ring.gkm_basis(d):
            coords = ring.express_mod2([p.mod2() for p in c.components], d)
            assert coords == tuple(x % 2 for x in ring.express(c, d).coords)


def test_class_power_checks_its_exponent(esc):
    from gkmcalc.charclasses import equivariant_char_class

    c1 = equivariant_char_class(esc, "chern").homogeneous_component(2)
    assert c1 ** 0 == FixedPointClass.constant(esc, 1)
    assert c1 ** 3 == c1 * c1 * c1
    for bad in (-1, 2.5, True, False):
        with pytest.raises(ValueError, match="nonnegative integer"):
            c1 ** bad
