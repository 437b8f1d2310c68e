import itertools
import operator
import os
import random
import subprocess
import sys

import pytest

from gkmcalc.cohomology import (
    CohomologyRing,
    FixedPointClass,
    GeneratorBasis,
    RingElement,
    _PointEvaluation,
    _unpaired_edge,
    _xi,
    ring_of,
)
from gkmcalc.charclasses import equivariant_char_class, localize_integral, stiefel_whitney_coords
from gkmcalc.errors import (
    GeneratorsDoNotSpan,
    NoConnection,
    NonIntegralLocalizationSum,
    Not6Dimensional,
    NotInSubalgebra,
    SchemaError,
)
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin, find_isomorphisms, graph_from_json
from gkmcalc.intlinalg import IntMatrix, primitive_part
from gkmcalc.polyring import IntPolynomial
from gkmcalc.wjz import (
    MAX_BOUND,
    Equivalence,
    InvariantSystem,
    NotFoundWithinBound,
    ProvablyDistinct,
    _candidate_columns,
    _covector,
    _cubic_zeros_mod2,
    _is_equivalence,
    are_equivalent,
    diffeo_verdict,
    invariant_system,
    phi_from_graph_iso,
)
from helpers import (
    UNCERTIFIED_K4,
    _load,
    _load_families,
    box_candidates,
    covector_by_triple_sum,
    cubic_values_mod2,
    index_betti,
    linear_substitute,
    mutated_eschenburg,
    one_label_mutation,
    product_denominator_integral,
    product_of_spheres,
    pulled_back,
    random_system,
    random_unimodular,
    relabelled,
    scanned_verify,
    unpaired_edge_by_permutations,
)

XX = ["X1", "X2"]


def eschenburg_system():
    g = builtin("eschenburg")
    ring = CohomologyRing(g)
    classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in XX]
    gens = GeneratorBasis(ring, XX, classes)
    return invariant_system(g, gens=gens, ring=ring)


def test_eschenburg_system_values():
    s = eschenburg_system()
    assert s.rank == 2
    assert s.w == (0, 0)
    assert s.p == (8, -8)
    assert s.mu[0][0][0] == 2
    assert s.mu[0][0][1] == -1
    assert s.mu[0][1][1] == 1
    assert s.mu[1][1][1] == -2
    assert s.basis_label == "X1,X2"


@pytest.mark.parametrize(
    "names, message",
    [(["X1"], "generators do not span the degree-2 ordinary cohomology over Z"),
     (["X1", "X2", "X3"], "3 generators for rank-2 H^2")],
    ids=["too-few", "too-many"],
)
def test_generator_count_other_than_b2_does_not_span(names, message):
    g = builtin("eschenburg")
    ring = CohomologyRing(g)
    known = dict(ESCHENBURG_GENERATORS, X3=ESCHENBURG_GENERATORS["X1"])
    classes = [FixedPointClass.from_strings(g, known[n]) for n in names]
    with pytest.raises(GeneratorsDoNotSpan) as info:
        invariant_system(g, gens=GeneratorBasis(ring, names, classes), ring=ring)
    assert str(info.value) == message


def test_mu_fully_symmetric():
    s = eschenburg_system()
    r = s.rank
    import itertools

    for a, b, c in itertools.product(range(r), repeat=3):
        for pa, pb, pc in itertools.permutations((a, b, c)):
            assert s.mu[a][b][c] == s.mu[pa][pb][pc]


def test_mu_kills_first_relation():
    # contracting the cubic form with the degree-4 relation
    # r1 = -(X1^2 + 3 X1 X2 + X2^2) must vanish against every basis vector
    s = eschenburg_system()
    for c in range(2):
        val = s.mu[0][0][c] + 3 * s.mu[0][1][c] + s.mu[1][1][c]
        assert val == 0


def test_systems_of_all_builtins_pairwise_equivalent():
    names = ("tolman", "woodward", "eschenburg")
    systems = {n: invariant_system(builtin(n)) for n in names}
    for a in names:
        for b in names:
            out = are_equivalent(systems[a], systems[b], 10)
            assert isinstance(out, Equivalence), (a, b)
            assert _is_equivalence(out.phi, systems[a], systems[b])


def test_equivalence_identity():
    s = eschenburg_system()
    out = are_equivalent(s, s, 3)
    assert isinstance(out, Equivalence)
    assert _is_equivalence(out.phi, s, s)


def test_doubled_p_provably_distinct():
    s = eschenburg_system()
    doubled = InvariantSystem(s.rank, s.mu, s.w, tuple(2 * x for x in s.p), s.basis_label)
    out = are_equivalent(s, doubled, 4)
    assert isinstance(out, ProvablyDistinct)
    assert "p" in out.reason


def test_rank_mismatch_provably_distinct():
    s = eschenburg_system()
    other = InvariantSystem(1, ((2,),), (0,), (4,))
    out = are_equivalent(s, other, 4)
    assert isinstance(out, ProvablyDistinct)
    assert "rank" in out.reason


@pytest.mark.parametrize("bound", [MAX_BOUND + 1, -1, 2.5, True], ids=["past-ceiling", "negative", "float", "bool"])
def test_search_bound_is_an_int_up_to_the_ceiling(bound):
    # both calls would return at once without the check: the ranks differ,
    # and the verdict lacks its assumption flags
    with pytest.raises(SchemaError, match="bound must be an integer"):
        are_equivalent(eschenburg_system(), InvariantSystem(1, ((2,),), (0,), (4,)), bound)
    g = builtin("eschenburg")
    with pytest.raises(SchemaError, match="bound must be an integer"):
        diffeo_verdict(g, g, False, False, bound=bound)


def test_not_found_within_bound_is_inconclusive():
    # mu scaled by -1 swaps orientation; with w trivial and p symmetric the
    # fast invariants cannot separate, and Phi = -I realizes it, so force a
    # bound of 0 to see the honest inconclusive outcome
    s = eschenburg_system()
    out = are_equivalent(s, s.reversed_orientation(), 0)
    assert isinstance(out, NotFoundWithinBound)


def test_reversed_orientation_equivalent_via_minus_identity():
    s = eschenburg_system()
    out = are_equivalent(s, s.reversed_orientation(), 2)
    assert isinstance(out, Equivalence)
    minus = Equivalence(IntMatrix.from_rows([[-1, 0], [0, -1]]))
    assert _is_equivalence(minus.phi, s, s.reversed_orientation())


def test_verdict_tolman_eschenburg():
    v = diffeo_verdict(builtin("tolman"), builtin("eschenburg"), True, True)
    assert v.status == "diffeomorphic"
    assert v.graph_iso is not None
    assert v.phi is not None
    s1 = invariant_system(builtin("tolman"))
    s2 = invariant_system(builtin("eschenburg"))
    assert _is_equivalence(v.phi, s1, s2)


def test_verdict_pairwise_diffeomorphic():
    names = ("tolman", "woodward", "eschenburg")
    for a in names:
        for b in names:
            if a == b:
                continue
            v = diffeo_verdict(builtin(a), builtin(b), True, True)
            assert v.status == "diffeomorphic", (a, b)


def test_verdict_self():
    v = diffeo_verdict(builtin("eschenburg"), builtin("eschenburg"), True, True)
    assert v.status == "diffeomorphic"
    assert v.graph_iso is not None
    assert v.phi is not None


def test_verdict_without_flags_inconclusive():
    v = diffeo_verdict(builtin("tolman"), builtin("eschenburg"), False, True)
    assert v.status == "inconclusive"
    assert "--assume-simply-connected" in v.reason
    v2 = diffeo_verdict(builtin("tolman"), builtin("eschenburg"), False, False)
    assert v2.status == "inconclusive"


def test_verdict_swapped_orientations():
    # the fiber-swapped structure carries the opposite orientation but the
    # underlying manifold is untouched, so Phi search still succeeds
    v = diffeo_verdict(builtin("eschenburg"), builtin("eschenburg-swapped"), True, True)
    assert v.status in ("diffeomorphic", "inconclusive")
    if v.status == "diffeomorphic":
        assert v.phi is not None


def backward_transport(g1, g2, iso):
    """The inverse of Phi, built the other way round: g2's degree-2 basis
    carried back to g1 through (phi, psi^-1), in g1's coordinates."""
    ring1, ring2 = CohomologyRing(g1), CohomologyRing(g2)
    mapping = iso.mapping()
    psi_inv = iso.psi.inverse_unimodular()
    cols = []
    for cls in ring2.ordinary(2).quotient_reps:
        comps = [linear_substitute(cls.component(mapping[v]), psi_inv) for v in g1.vertices]
        cols.append(ring1.express(FixedPointClass(g1, comps), 2).coords)
    return IntMatrix.from_columns(cols)


def naturality_pairs():
    families = _load_families()
    surface = families.surface_x_cp1(4)
    return [(builtin("tolman"), builtin("eschenburg")), (builtin("eschenburg"), builtin("eschenburg")),
            (surface, graph_from_json(families.disguise(surface, random.Random(0))))]


def test_invariant_system_naturality():
    for g1, g2 in naturality_pairs():
        s1 = invariant_system(g1)
        s2 = invariant_system(g2)
        for iso in find_isomorphisms(g1, g2, signed=True):
            eq = phi_from_graph_iso(g1, g2, iso)
            assert _is_equivalence(eq.phi, s1, s2), (g1.name, g2.name)
            assert eq.phi * backward_transport(g1, g2, iso) == IntMatrix.identity(s1.rank)


def test_primitivity_warning():
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    assert g.validate().valid
    s = invariant_system(g)
    assert s.rank == 3
    assert s.warnings
    assert "not primitive" in s.warnings[0]


def test_imprimitive_mod2_descent_is_ambiguous():
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    ring = CohomologyRing(g)
    sw = equivariant_char_class(g, "stiefel_whitney")
    chern = equivariant_char_class(g, "chern")
    for d in (2, 4, 6):
        with pytest.raises(NotInSubalgebra, match="ambiguous"):
            ring.express_mod2(sw.homogeneous_component(d).components, d)
        # so the Stiefel-Whitney class falls back to Chern mod 2
        elem = ring.express(chern.homogeneous_component(d), d)
        assert stiefel_whitney_coords(ring, sw, d) == tuple(c % 2 for c in elem.coords)


def test_localize_flags_fractional_top_degree_sum():
    # half the Euler class at one vertex sums to 1/2, but it is not in A
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    c = FixedPointClass.from_strings(g, {v: "-Y1^2*Y2 - Y1*Y2^2" if v == "ppp" else "0" for v in g.vertices})
    with pytest.raises(NonIntegralLocalizationSum, match="^localization sum 1/2 is not an integer$"):
        product_denominator_integral(g, c)
    with pytest.raises(NotInSubalgebra, match="^class of degree 6 violates the edge congruences"):
        localize_integral(g, c)


def counted_localizations(monkeypatch):
    """Record every call of localize_integral, which charclasses defines;
    invariant_system does not call it."""
    import gkmcalc.charclasses as charclasses
    import gkmcalc.wjz as wjz

    assert not hasattr(wjz, "localize_integral")
    calls = []

    def counting(graph, c):
        calls.append(c)
        return localize_integral(graph, c)

    monkeypatch.setattr(charclasses, "localize_integral", counting)
    return calls


def without_connection(monkeypatch):
    """Fail every later connection test at the graph's first edge, so a
    ring built after this has no point."""
    import gkmcalc.cohomology as cohomology

    monkeypatch.setattr(cohomology, "_unpaired_edge", lambda g: g.edges[0])


@pytest.mark.parametrize(
    "graph",
    [lambda: builtin("eschenburg"), lambda: builtin("tolman"), lambda: builtin("woodward"),
     lambda: builtin("eschenburg-swapped"), lambda: product_of_spheres([(2, 0), (0, 1), (1, 1)])],
    ids=["eschenburg", "tolman", "woodward", "eschenburg-swapped", "spheres-imprimitive"],
)
def test_invariant_system_certifies_from_the_graph_alone(monkeypatch, graph):
    calls = counted_localizations(monkeypatch)
    g = graph()
    ring = CohomologyRing(g)
    first = invariant_system(g, ring=ring)
    assert ring._point is not None
    assert calls == []
    # the certificate built no record past what H^2 and w2 read
    assert max(ring._gkm) == 2
    assert invariant_system(g, ring=ring) == first
    assert calls == []


def test_ring_and_betti_numbers_localize_nothing(monkeypatch):
    calls = counted_localizations(monkeypatch)
    for g in (builtin("eschenburg"), product_of_spheres([(2, 0), (0, 1), (1, 1)])):
        ring = CohomologyRing(g)
        [ring.betti(d) for d in range(0, ring.dim + 1, 2)]
        assert "_point" not in ring.__dict__  # nor test for a connection
    assert calls == []


def no_connection_message(e):
    return "no connection: at edge %s-%s of weight %r the other weights have no pairing " \
        "whose pairs differ by multiples of it" % (e.u, e.v, e.weight_at_u)


def test_connection_check():
    families = _load_families()
    for family, params in [("cp", (3, 4, 5)), ("cp1^", (3, 4, 5)), ("surface", (4, 5, 6, 7, 8))]:
        for param in params:
            g = families.build(family, param)
            copy = graph_from_json(families.disguise(g, random.Random("connection-%s%s" % (family, param))))
            assert _unpaired_edge(g) is None and _unpaired_edge(copy) is None, (family, param)
    # valid graphs with no connection have no point
    for g, ends in ((GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True), ("a", "b")),
                    (mutated_eschenburg(), ("p1", "p4"))):
        assert g.validate().valid
        e = _unpaired_edge(g)
        assert (e.u, e.v) == ends and e is unpaired_edge_by_permutations(g)
        with pytest.raises(NoConnection) as err:
            CohomologyRing(g)._point
        assert str(err.value) == no_connection_message(e)


def test_matching_agrees_with_the_permutation_search():
    graphs = [g for _, g, *_ in _load("tools/sweep.py").cases()]
    families, rng = _load_families(), random.Random("matching")
    graphs += [one_label_mutation(families.build("cp", n), rng) for n in (3, 4, 5) for _ in range(3)]
    found = [_unpaired_edge(g) for g in graphs]
    assert found == [unpaired_edge_by_permutations(g) for g in graphs]
    assert sum(e is None for e in found) > len(graphs) // 2 and sum(e is not None for e in found) >= 10


# The permutation search tries 11! pairings at the changed edge of CP^12;
# at about 9x per valence step from 0.55 s on CP^9, that is over 6 minutes.
MUTATED_CP12 = """
import random
from helpers import _load_families, one_label_mutation
from gkmcalc.charclasses import localize_integral
from gkmcalc.cohomology import FixedPointClass
from gkmcalc.errors import NoConnection
from gkmcalc.polyring import IntPolynomial

g = one_label_mutation(_load_families().build("cp", 12), random.Random("cp12"))
c1 = FixedPointClass(g, [IntPolynomial.linear_form(map(sum, zip(*g.weights_at(v)))) for v in g.vertices])
try:
    localize_integral(g, c1)
except NoConnection:
    print("ok")
"""


def test_a_mutated_cp12_has_no_connection_quickly():
    run_script(MUTATED_CP12, 10)


def test_point_integral_that_is_not_an_integer():
    # half the Euler class at one vertex, as in the running-fraction test above
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    point = CohomologyRing(g)._point
    c = FixedPointClass.from_strings(g, {v: "-Y1^2*Y2 - Y1*Y2^2" if v == "ppp" else "0" for v in g.vertices})
    values = point.at(c)
    assert sum(map(operator.mul, values, point.weights)) * 2 == point.euler
    with pytest.raises(NonIntegralLocalizationSum, match="^localization sum 1/2 is not an integer$"):
        point.integral(values)
    # E = -8 at e_p(xi) = -2 and 4: the sum 4/-8 is reported in lowest terms
    with pytest.raises(NonIntegralLocalizationSum, match="^localization sum -1/2 is not an integer$"):
        _PointEvaluation((1, 0), (4, -2), -8).integral([1, 0])
    assert _PointEvaluation((1, 0), (4, -2), -8).integral([2, 0]) == -1


def test_a_graph_off_the_fixed_points_gets_a_point():
    """Neither (1, 7) nor the powers of 1009 pair to nonzero with every
    weight here; the powers of 2*1009 + 1 do."""
    g = product_of_spheres([(7, -1), (1009, -1), (1, 0)])
    assert g.validate().valid and _unpaired_edge(g) is None
    ring = CohomologyRing(g)
    assert _xi(g) == ring._point.xi == (1, 2019)
    s = _system_or_error(g, ring, None)
    assert s == _system_or_error(g, CohomologyRing(g), None, total_class_reference)
    assert s[0]["rank"] == 3
    chern, pont = (equivariant_char_class(g, kind) for kind in ("chern", "pontrjagin"))
    c1, c2, c3, p1 = (total.homogeneous_component(d) for total, d in ((chern, 2), (chern, 4), (chern, 6), (pont, 4)))
    for c in (c1 * c1 * c1, c1 * c2, c3, p1 * c1):
        assert localize_integral(g, c) == product_denominator_integral(g, c)
    assert localize_integral(g, c3) == 8


def _point_versus_symbolic_inputs():
    families = _load_families()
    out = [(n, builtin(n), None) for n in ("eschenburg", "tolman", "woodward", "eschenburg-swapped")]
    out.append(("eschenburg-X1X2", builtin("eschenburg"), XX))
    for family, param in [("cp", 3), ("cp1^", 3), ("surface", 4), ("surface", 5), ("surface", 6)]:
        g = families.build(family, param)
        out.append(("%s%s-disguised" % (family, param),
                    graph_from_json(families.disguise(g, random.Random("point-%s%s" % (family, param)))), None))
    for i, weights in enumerate(_load("tools/sweep.py").SPHERE_WEIGHTS, 1):
        out.append(("s2cubed%d" % i, product_of_spheres(weights), None))
    out.append(("uncertified-k4", GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True), None))
    return out


def _system_or_error(g, ring, names, system=invariant_system):
    try:
        gens = None
        if names:
            classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in names]
            gens = GeneratorBasis(ring, names, classes)
        s = system(g, gens=gens, ring=ring)
        return s.to_json(), s.warnings
    except Exception as exc:  # the error itself is the output compared
        return type(exc), str(exc)


POINT_INPUTS = _point_versus_symbolic_inputs()


@pytest.mark.parametrize("name,g,names", POINT_INPUTS, ids=[name for name, _, _ in POINT_INPUTS])
def test_point_evaluation_agrees_with_symbolic_localization(monkeypatch, name, g, names):
    """Each entry of mu and p is the running-fraction localization of its
    cup product, with p1 the class sum_j a_j^2; a ring with no point
    raises NoConnection."""
    ring = CohomologyRing(g)
    point = _system_or_error(g, ring, names)
    # and again from the cached certificate
    assert _system_or_error(g, ring, names) == point
    if name == "uncertified-k4":
        assert ring.path == "kernel" and [ring.betti(d) for d in range(0, 7, 2)] == [1, 1, 1, 1]
        assert point == (NoConnection, no_connection_message(g.edges[0]))
    else:
        s = point[0]
        basis = GeneratorBasis(ring, names, [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n])
                                             for n in names]).classes if names else ring.ordinary(2).quotient_reps
        for a, b, c in itertools.product(range(s["rank"]), repeat=3):
            assert s["mu"][a][b][c] == product_denominator_integral(g, basis[a] * basis[b] * basis[c])
        forms = [map(IntPolynomial.linear_form, g.weights_at(v)) for v in g.vertices]
        pont = FixedPointClass(g, [a * a + b * b + c * c for a, b, c in forms])
        assert s["p"] == [product_denominator_integral(g, pont * x) for x in basis]
    without_connection(monkeypatch)
    assert _system_or_error(g, CohomologyRing(g), names) == (NoConnection, no_connection_message(g.edges[0]))


# -- the system reads no total class ---------------------------------------------


def counted_total_classes(monkeypatch):
    """Record the kind of every total class built: charclasses defines
    `equivariant_char_class`, and wjz would call it by its own name."""
    import gkmcalc.charclasses as charclasses
    import gkmcalc.wjz as wjz

    calls = []
    build = charclasses.equivariant_char_class

    def counting(graph, kind):
        calls.append(kind)
        return build(graph, kind)

    monkeypatch.setattr(charclasses, "equivariant_char_class", counting)
    monkeypatch.setattr(wjz, "equivariant_char_class", counting, raising=False)
    return calls


@pytest.mark.parametrize("name,g,names", POINT_INPUTS, ids=[name for name, _, _ in POINT_INPUTS])
def test_invariant_system_builds_no_total_class(monkeypatch, name, g, names):
    calls = counted_total_classes(monkeypatch)
    _system_or_error(g, CohomologyRing(g), names)
    # only the imprimitive graph takes the Chern fallback of the mod-2 descent
    assert calls == (["chern"] if name == "s2cubed2" else [])
    calls.clear()
    without_connection(monkeypatch)
    assert _system_or_error(g, CohomologyRing(g), names)[0] is NoConnection
    assert calls == []


def total_class_reference(graph, gens=None, ring=None):
    """invariant_system on a valid signed valence-3 graph, written with the
    total classes and the running-fraction localization: w2 from the total
    Stiefel-Whitney class, p1 from the degree-4 part of the total
    Pontrjagin class, and NoConnection where the permutation search finds
    an edge with no pairing."""
    ring = ring or ring_of(graph)
    warnings = tuple(
        "weight %r on edge %s-%s is not primitive; connected isotropy is doubtful" % (e.weight_at_u, e.u, e.v)
        for e in graph.edges if primitive_part(e.weight_at_u) != e.weight_at_u)
    r = ring.betti(2)
    if gens is not None:
        basis, label = gens.classes, ",".join(gens.names)
    else:
        basis, label = ring.ordinary(2).quotient_reps, "internal"
    unpaired = unpaired_edge_by_permutations(graph)
    if unpaired is not None:
        raise NoConnection(no_connection_message(unpaired))

    def integral(c):
        return product_denominator_integral(graph, c)

    mu = [[[None] * r for _ in range(r)] for _ in range(r)]
    for a, b, c in itertools.product(range(r), repeat=3):
        if mu[a][b][c] is None:
            value = integral(basis[a] * basis[b] * basis[c])
            for i, j, l in itertools.permutations((a, b, c)):
                mu[i][j][l] = value
    w = stiefel_whitney_coords(ring, equivariant_char_class(graph, "stiefel_whitney"), 2)
    if gens is not None:
        wpoly = gens.to_poly(RingElement(2, w)).mod2()
        w = tuple(wpoly.coefficient(m) for m in gens.basis_monomials(2))
    pont = equivariant_char_class(graph, "pontrjagin").homogeneous_component(4)
    p = tuple(integral(pont * basis[a]) for a in range(r))
    mu = tuple(tuple(tuple(row) for row in plane) for plane in mu)
    return InvariantSystem(r, mu, tuple(w), p, label, warnings)


def substitution_reference_phi(g1, g2, iso):
    """phi_from_graph_iso with each class carried through psi by polynomial
    substitution."""
    ring2 = ring_of(g2)
    preimage = {w: v for v, w in iso.mapping().items()}
    cols = []
    for cls in ring_of(g1).ordinary(2).quotient_reps:
        comps = [linear_substitute(cls.component(preimage[u]), iso.psi) for u in g2.vertices]
        cols.append(ring2.express(FixedPointClass(g2, comps), 2).coords)
    return IntMatrix.from_columns(cols)


REFERENCE_INPUTS = POINT_INPUTS + [("mutated-eschenburg", mutated_eschenburg(), None)] + [
    ("naturality%d-%d" % (i, j), pair[j], None) for i, pair in enumerate(naturality_pairs()) for j in (0, 1)]


@pytest.mark.parametrize("name,g,names", REFERENCE_INPUTS, ids=[name for name, _, _ in REFERENCE_INPUTS])
def test_invariant_system_matches_the_total_class_reference(monkeypatch, name, g, names):
    expected = _system_or_error(g, CohomologyRing(g), names, total_class_reference)
    assert _system_or_error(g, CohomologyRing(g), names) == expected
    if name == "mutated-eschenburg":  # NoConnection comes before the mod-2 failure of w2
        with pytest.raises(NotInSubalgebra, match="^mod-2 class outside the mod-2 subalgebra in degree 2$"):
            stiefel_whitney_coords(CohomologyRing(g), equivariant_char_class(g, "stiefel_whitney"), 2)
    assert (expected[0] is NoConnection) == (name in ("mutated-eschenburg", "uncertified-k4"))
    # a ring with no point raises NoConnection
    without_connection(monkeypatch)
    assert _system_or_error(g, CohomologyRing(g), names) == (NoConnection, no_connection_message(g.edges[0]))


def test_phi_matches_the_substitution_reference():
    for g1, g2 in naturality_pairs():
        for iso in find_isomorphisms(g1, g2, signed=True):
            assert phi_from_graph_iso(g1, g2, iso).phi == substitution_reference_phi(g1, g2, iso)


def test_repeated_verdict_builds_no_ring(monkeypatch):
    g1, g2 = builtin("tolman"), builtin("eschenburg")
    first = diffeo_verdict(g1, g2, True, True, bound=1)
    built = []
    init = CohomologyRing.__init__

    def counting(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(CohomologyRing, "__init__", counting)
    second = diffeo_verdict(g1, g2, True, True, bound=1)
    assert built == []
    assert second.status == first.status == "diffeomorphic"
    assert second.phi.to_rows() == first.phi.to_rows()


def test_imprimitive_automorphisms_verify():
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    for signed in (True, False):
        isos = find_isomorphisms(g, g, signed)
        assert isos
        assert all(scanned_verify(iso, g, g, signed) for iso in isos)


def test_no_warning_for_primitive_weights():
    s = invariant_system(builtin("eschenburg"))
    assert s.warnings == ()


def test_not_6_dimensional():
    tri = GKMGraph(
        2,
        ["u", "v", "w"],
        [("u", "v", (1, 0)), ("v", "w", (0, 1)), ("u", "w", (1, 1))],
        signed=True,
    )
    with pytest.raises(Not6Dimensional):
        invariant_system(tri)


def test_diffeo_verdict_is_not_6_dimensional():
    square = GKMGraph(2, list("abcd"), [("a", "b", (1, 0)), ("b", "c", (0, 1)), ("c", "d", (1, 0)), ("d", "a", (0, 1))],
                      signed=True)
    with pytest.raises(Not6Dimensional, match="^valence 2 graph$"):
        diffeo_verdict(square, square, True, True)


def test_json_shape():
    s = eschenburg_system()
    doc = s.to_json()
    assert doc["rank"] == 2
    assert doc["w"] == [0, 0]
    assert doc["p"] == [8, -8]
    assert doc["basis"] == "X1,X2"
    assert doc["mu"][0][0][0] == 2


# -- the equivalence search against the brute force it replaced --------------


def brute_force_outcome(s1, s2, bound):
    """Reference outcome class: the GL(r,Z)-invariant checks, then every
    rank x rank matrix with entries in [-bound, bound] tested with
    _is_equivalence."""
    if isinstance(are_equivalent(s1, s2, 0), ProvablyDistinct):
        return ProvablyDistinct
    r = s1.rank
    for entries in itertools.product(range(-bound, bound + 1), repeat=r * r):
        if _is_equivalence(IntMatrix(r, r, entries), s1, s2):
            return Equivalence
    return NotFoundWithinBound


def assert_matches_brute_force(s1, s2, bound):
    out = are_equivalent(s1, s2, bound)
    assert type(out) is brute_force_outcome(s1, s2, bound)
    if isinstance(out, Equivalence):
        assert _is_equivalence(out.phi, s1, s2)


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_search_matches_brute_force_on_builtins(bound):
    names = ("tolman", "woodward", "eschenburg", "eschenburg-swapped")
    systems = {n: invariant_system(builtin(n)) for n in names}
    for a in names:
        for b in names:
            assert_matches_brute_force(systems[a], systems[b], bound)
            assert_matches_brute_force(systems[a], systems[b].reversed_orientation(), bound)


def test_search_matches_brute_force_on_rank_3():
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    s1, s2 = invariant_system(g), invariant_system(relabelled(g))
    assert s1.rank == 3
    assert_matches_brute_force(s1, s2, 1)
    assert_matches_brute_force(s1, s2.reversed_orientation(), 1)


def test_search_matches_brute_force_on_rank_0():
    s = InvariantSystem(0, (), (), ())
    assert_matches_brute_force(s, s, 0)
    assert are_equivalent(s, s, 0).phi == IntMatrix(0, 0, [])


# Before the column-by-column search this verdict enumerated 21^9 matrices
# for the orientation-reversed comparison and never finished.
FORMER_WALL = """
from helpers import product_of_spheres, relabelled
from gkmcalc.wjz import Equivalence, _is_equivalence, are_equivalent, diffeo_verdict, invariant_system

g = product_of_spheres([(1, 0), (0, 1), (1, 1)])
h = relabelled(g)
for a, b in ((g, h), (h, g)):
    v = diffeo_verdict(a, b, True, True)
    assert v.status == "diffeomorphic", v.status
    assert v.reversed_orientation_note.startswith("systems also equivalent"), v.reversed_orientation_note
    s1, s2 = invariant_system(a), invariant_system(b)
    for target in (s2, s2.reversed_orientation()):
        out = are_equivalent(s1, target, 10)
        assert isinstance(out, Equivalence) and _is_equivalence(out.phi, s1, target)
print("ok")
"""


def run_script(code, timeout):
    """Run `code` in a fresh interpreter that imports gkmcalc and the test
    helpers, and assert that it prints "ok" within `timeout` seconds."""
    import gkmcalc

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_former_wall_finishes_at_default_bound():
    run_script(FORMER_WALL, 10)


# Both timeouts are well under a scan of the whole box (about 11 s for each
# of these searches) and an enumeration of the 2^14 mod-2 cubic values
# (about 6 s for the verdict), on one core of a shared x86 container.
RANK_5_PULLBACKS = """
import random
from helpers import pulled_back, random_system, random_unimodular
from gkmcalc.wjz import Equivalence, _is_equivalence, are_equivalent

for seed in (1, 2, 3):
    rng = random.Random(seed)
    s1 = random_system(rng, 5)
    s2 = pulled_back(s1, random_unimodular(rng, 5))
    out = are_equivalent(s2, s1, 10)
    assert isinstance(out, Equivalence) and _is_equivalence(out.phi, s2, s1), seed
print("ok")
"""
WIDE_WITNESS = """
import random
from helpers import _load_families
from gkmcalc.gkm import graph_from_json
from gkmcalc.wjz import diffeo_verdict

families = _load_families()
g = families.build("surface", 15)
v = diffeo_verdict(g, graph_from_json(families.disguise(g, random.Random(15))), True, True, bound=0)
assert v.status == "diffeomorphic" and len(v.systems[0].p) == 14, v.status
print("ok")
"""


def test_rank_5_pullbacks_finish_at_bound_10():
    run_script(RANK_5_PULLBACKS, 15)


def test_rank_14_witness_verdict_finishes_at_bound_0():
    run_script(WIDE_WITNESS, 4)


# -- the candidate columns and the mod-2 count against their references --------


def with_p(s, p):
    return InvariantSystem(s.rank, s.mu, s.w, tuple(p))


def candidate_pairs(rng, r):
    """Pairs of systems of rank r: random, pulled back, and a second system
    with p = 0, with one nonzero entry, with every entry nonzero, and a
    first system with a p-value that no box point reaches."""
    s1, s2 = random_system(rng, r), random_system(rng, r)
    one = [0] * r
    if r:
        one[rng.randrange(r)] = rng.choice((-4, 2, 3, 6))
    yield s1, s2
    yield s1, pulled_back(s1, random_unimodular(rng, r)) if r else s1
    yield s1, with_p(s2, [0] * r)
    yield s1, with_p(s2, one)
    yield s1, with_p(s2, [rng.choice((-7, -3, 2, 5, 9, 12)) for _ in range(r)])
    yield with_p(s1, (10 ** 6,) + s1.p[1:]) if r else s1, s2


@pytest.mark.parametrize("rank", range(1, 7))
def test_covector_by_rows_is_the_triple_sum(rank):
    rng = random.Random(3000 + rank)
    for _ in range(10):
        mu = random_system(rng, rank).mu
        for _ in range(20):
            x, y = (tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in "xy")
            assert _covector(mu, x, y) == covector_by_triple_sum(mu, x, y), (mu, x, y)
            assert _covector(mu, x, y) == _covector(mu, y, x)


@pytest.mark.parametrize("rank", range(6))
def test_candidate_columns_match_the_box_scan(rank):
    rng = random.Random(2900 + rank)
    for bound in (0, 1, 2, 3, 10) if rank <= 3 else (0, 1, 2, 3):
        for s1, s2 in candidate_pairs(rng, rank):
            for a, b in ((s1, s2), (s2, s1)):
                assert _candidate_columns(a, b, bound) == box_candidates(a, b, bound), (bound, a, b)


def test_candidate_columns_reach_every_witness_column():
    rng = random.Random(29)
    for k in range(40):
        r = 1 + k % 4
        s1 = random_system(rng, r)
        phi = random_unimodular(rng, r)
        s2 = pulled_back(s1, phi)
        columns = _candidate_columns(s2, s1, 3)
        assert all(phi.column(a) in columns[a] for a in range(r))
        assert columns == box_candidates(s2, s1, 3)


@pytest.mark.parametrize("rank", range(11))
def test_cubic_zero_count_matches_the_enumeration(rank):
    rng = random.Random(2950 + rank)
    for k in range(30 if rank < 7 else 4):
        s = random_system(rng, rank)
        if k == 0:  # an even cubic: every value is 0
            s = InvariantSystem(rank, tuple(tuple(tuple(2 * x for x in row) for row in plane) for plane in s.mu),
                                s.w, s.p)
        zeros = _cubic_zeros_mod2(s)
        assert zeros == cubic_values_mod2(s).count(0)
        if rank:
            assert _cubic_zeros_mod2(pulled_back(s, random_unimodular(rng, rank))) == zeros


# -- one search per verdict ----------------------------------------------------


def cp3(weight_map=None):
    """CP^3 with its standard T^3 action, or with the subtorus action whose
    labels are the T^3 labels mapped by `weight_map`."""
    def e(i):
        return [1 if j == i - 1 else 0 for j in range(3)]

    edges = []
    for i, j in itertools.combinations(range(4), 2):
        w = tuple(a - b for a, b in zip(e(j), e(i)))
        if weight_map:
            w = tuple(sum(m * x for m, x in zip(row, w)) for row in weight_map)
        edges.append(("p%d" % i, "p%d" % j, w))
    rank = len(weight_map) if weight_map else 3
    return GKMGraph(rank, ["p%d" % i for i in range(4)], edges, signed=True)


def test_verdict_across_tori_of_different_rank():
    g3, g2 = cp3(), cp3([[1, 0, -3], [0, 1, -1]])
    assert g2.validate().valid and g2.torus_rank == 2
    for a, b in ((g3, g2), (g2, g3)):
        v = diffeo_verdict(a, b, True, True)
        assert v.status == "diffeomorphic"
        assert v.graph_iso is None
        assert v.phi.to_rows() == [[1]]


def test_verdict_searches_once(monkeypatch):
    import gkmcalc.wjz as wjz

    calls = []

    def counting(s1, s2, bound):
        calls.append(bound)
        return are_equivalent(s1, s2, bound)

    monkeypatch.setattr(wjz, "are_equivalent", counting)
    v = diffeo_verdict(builtin("eschenburg"), product_of_spheres([(1, 0), (0, 1), (1, 1)]), True, True)
    assert v.status == "provably_distinct"
    assert v.reversed_orientation_note == "orientation-reversed systems provably distinct (rank (2 vs 3))"
    assert calls == [10]


def test_witness_verdict_keeps_the_note_of_the_bounded_search():
    v = diffeo_verdict(builtin("tolman"), builtin("eschenburg"), True, True, bound=0)
    assert v.status == "diffeomorphic" and v.graph_iso is not None
    assert v.reversed_orientation_note == "orientation-reversed comparison inconclusive within bound 0"


def assert_reversal_keeps_the_outcome(s1, s2, bound):
    forward = are_equivalent(s1, s2, bound)
    reversed_ = are_equivalent(s1, s2.reversed_orientation(), bound)
    assert type(forward) is type(reversed_)
    if isinstance(forward, ProvablyDistinct):
        assert forward.reason == reversed_.reason


def test_reversed_search_has_the_forward_outcome():
    # diffeo_verdict builds its orientation note from the forward search
    names = ("tolman", "woodward", "eschenburg", "eschenburg-swapped")
    systems = [invariant_system(builtin(n)) for n in names]
    for s1, s2 in itertools.product(systems, repeat=2):
        for bound in (0, 1, 2):
            assert_reversal_keeps_the_outcome(s1, s2, bound)
    g = product_of_spheres([(1, 0), (0, 1), (1, 1)])
    s1, s2 = invariant_system(g), invariant_system(relabelled(g))
    for bound in (0, 1, 2):
        assert_reversal_keeps_the_outcome(s1, s2, bound)
    rng = random.Random(5)
    for k in range(90):
        r = 1 + k % 3
        s1 = random_system(rng, r)
        if k % 2:
            phi = random_unimodular(rng, r)
            s2 = pulled_back(s1, phi)
            assert _is_equivalence(phi, s2, s1)
        else:
            s2 = random_system(rng, r)
        assert_reversal_keeps_the_outcome(s1, s2, 1)


# -- an independent Betti oracle -------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [lambda: builtin("eschenburg"), lambda: builtin("tolman"), lambda: builtin("woodward"),
     lambda: product_of_spheres([(1, 0), (0, 1), (1, 1)]), lambda: product_of_spheres([(2, 0), (0, 1), (1, 1)]),
     cp3, lambda: cp3([[1, 0, -3], [0, 1, -1]])],
    ids=["eschenburg", "tolman", "woodward", "spheres", "spheres-imprimitive", "cp3", "cp3-subtorus"],
)
def test_betti_numbers_match_the_index_count(graph):
    g = graph()
    ring = CohomologyRing(g)
    assert [ring.betti(d) for d in range(0, ring.dim + 1, 2)] == index_betti(g)
