import pytest

from gkmcalc.cohomology import CohomologyRing, FixedPointClass, GeneratorBasis
from gkmcalc.charclasses import equivariant_char_class, stiefel_whitney_coords
from gkmcalc.errors import Not6Dimensional, NotInSubalgebra
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin, find_isomorphisms
from gkmcalc.intlinalg import IntMatrix
from gkmcalc.wjz import (
    Equivalence,
    Found,
    InvariantSystem,
    NotFoundWithinBound,
    ProvablyDistinct,
    are_equivalent,
    diffeo_verdict,
    invariant_system,
    phi_from_graph_iso,
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
            assert isinstance(out, Found), (a, b)
            assert out.equivalence.verify(systems[a], systems[b])


def test_equivalence_identity():
    s = eschenburg_system()
    out = are_equivalent(s, s, 3)
    assert isinstance(out, Found)
    assert out.equivalence.verify(s, s)


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
    assert isinstance(out, Found)
    minus = Equivalence(IntMatrix.from_rows([[-1, 0], [0, -1]]))
    assert minus.verify(s, s.reversed_orientation())


def test_verdict_tolman_eschenburg():
    v = diffeo_verdict(builtin("tolman"), builtin("eschenburg"), True, True)
    assert v.status == "diffeomorphic"
    assert v.graph_iso is not None
    assert v.phi is not None
    s1 = invariant_system(builtin("tolman"))
    s2 = invariant_system(builtin("eschenburg"))
    assert Equivalence(v.phi).verify(s1, s2)


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


def test_invariant_system_naturality():
    for a, b in (("tolman", "eschenburg"), ("eschenburg", "eschenburg")):
        g1, g2 = builtin(a), builtin(b)
        s1 = invariant_system(g1)
        s2 = invariant_system(g2)
        for iso in find_isomorphisms(g1, g2, signed=True):
            eq = phi_from_graph_iso(g1, g2, iso)
            assert eq.verify(s1, s2), (a, b)


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
            ring.express_mod2(sw.mod2_component(d), d)
        # so the Stiefel-Whitney class falls back to Chern mod 2
        elem = ring.express(chern.homogeneous_component(d), d)
        assert stiefel_whitney_coords(g, ring, d) == tuple(c % 2 for c in elem.coords)


def test_imprimitive_automorphisms_verify():
    g = product_of_spheres([(2, 0), (0, 1), (1, 1)])
    for signed in (True, False):
        isos = find_isomorphisms(g, g, signed)
        assert isos
        assert all(iso.verify(g, g, signed) for iso in isos)


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


def test_json_shape():
    s = eschenburg_system()
    doc = s.to_json()
    assert doc["rank"] == 2
    assert doc["w"] == [0, 0]
    assert doc["p"] == [8, -8]
    assert doc["basis"] == "X1,X2"
    assert doc["mu"][0][0][0] == 2
