import itertools
import json
import random

import pytest

from gkmcalc import gkm
from gkmcalc.errors import (
    DimensionMismatch,
    InvalidGraph,
    SchemaError,
    UnknownExample,
    XRayError,
)
from gkmcalc.gkm import (
    BUILTIN_NAMES,
    GKMGraph,
    XRay,
    builtin,
    find_isomorphisms,
    graph_from_json,
    graph_from_xray,
    load_input,
    read_json,
    xray_from_json,
)
from gkmcalc.intlinalg import IntMatrix, canonical_sign, det_adjugate, smith_normal_form, solve_with_snf
from gkmcalc.polyring import int_digit_limit
from helpers import UNCERTIFIED_K4, _load_families, mutated_eschenburg, random_unimodular, scanned_verify

families = _load_families()


# -- reference oracle: exhaustive search over all vertex bijections ---------


def _psi_candidates(g1, g2, phi, signed):
    v0 = g1.vertices[0]
    edges = [e for e in g1.incident(v0)]
    pairs = None
    for combo in itertools.combinations(edges, g1.torus_rank):
        W = IntMatrix.from_rows([e.weight_at(v0) for e in combo])
        if smith_normal_form(W, with_u=False).rank() == g1.torus_rank:
            pairs = combo
            break
    assert pairs is not None
    base = [e.weight_at(v0) for e in pairs]
    targets = []
    for e in pairs:
        w = e.other(v0)
        image_edges = [
            f for f in g2.incident(phi[v0]) if {f.u, f.v} == {phi[v0], phi[w]}
        ]
        if not image_edges:
            return []
        targets.append([f.weight_at(phi[v0]) for f in image_edges])
    out = []
    sign_sets = [(1,) * g1.torus_rank] if signed else list(
        itertools.product((1, -1), repeat=g1.torus_rank)
    )
    for choice in itertools.product(*targets):
        for signs in sign_sets:
            cols = [tuple(s * x for x in t) for s, t in zip(signs, choice)]
            W = IntMatrix.from_columns(base)
            B = IntMatrix.from_columns(cols)
            d = W.det()
            if d == 0:
                continue
            n = W.rows
            adj = []
            for i in range(n):
                row = []
                for j in range(n):
                    minor = [
                        [W.at(r, c) for c in range(n) if c != i]
                        for r in range(n)
                        if r != j
                    ]
                    row.append((-1) ** (i + j) * IntMatrix.from_rows(minor).det())
                adj.append(row)
            num = B * IntMatrix.from_rows(adj)
            if any(x % d for x in num.entries):
                continue
            psi = IntMatrix(n, n, [x // d for x in num.entries])
            if psi.is_unimodular():
                out.append(psi)
    return out


def brute_isos(g1, g2, signed):
    """Independent exhaustive oracle: every vertex bijection, every psi
    solvable from the base edges, full edge-by-edge verification."""
    found = set()
    for perm in itertools.permutations(g2.vertices):
        phi = dict(zip(g1.vertices, perm))
        if any(
            not any({phi[e.u], phi[e.v]} == {f.u, f.v} for f in g2.edges)
            for e in g1.edges
        ):
            continue
        for psi in _psi_candidates(g1, g2, phi, signed):
            ok = True
            remaining = list(g2.edges)
            for e in g1.edges:
                target = psi.apply(e.weight_at_u)
                hit = None
                for i, f in enumerate(remaining):
                    if {f.u, f.v} != {phi[e.u], phi[e.v]}:
                        continue
                    w = f.weight_at(phi[e.u])
                    if (w == target) if signed else (canonical_sign(w) == canonical_sign(target)):
                        hit = i
                        break
                if hit is None:
                    ok = False
                    break
                remaining.pop(hit)
            if ok and not remaining:
                found.add((tuple(sorted(phi.items())), psi.entries))
    return found


def as_set(isos):
    return {(iso.vertex_map, iso.psi.entries) for iso in isos}


# -- builtins ----------------------------------------------------------------


def test_builtin_names():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        assert len(g.vertices) == 6
        assert len(g.edges) == 9
        assert g.signed


def test_builtin_unknown():
    with pytest.raises(UnknownExample):
        builtin("nonexistent")
    with pytest.raises(UnknownExample):
        builtin("cp1xcp2", kind="xray")


def test_eschenburg_valid():
    g = builtin("eschenburg")
    report = g.validate()
    assert report.valid
    assert g.valence == 3
    assert g.torus_rank == 2


def test_eschenburg_weights_from_xray():
    g = builtin("eschenburg")
    # weights at p1 are Y1, Y1 - Y2, 2Y1 - Y2 per the fixed-point Chern factors
    assert sorted(g.weights_at("p1")) == [(1, -1), (1, 0), (2, -1)]
    assert sorted(g.weights_at("p2")) == [(-1, 1), (0, 1), (1, -2)]
    assert sorted(g.weights_at("p3")) == [(-1, 0), (-1, 1), (0, -1)]
    assert sorted(g.weights_at("p4")) == [(-1, 1), (-1, 2), (0, 1)]
    assert sorted(g.weights_at("p5")) == [(-2, 1), (1, -1), (1, 0)]
    assert sorted(g.weights_at("p6")) == [(-1, 0), (0, -1), (1, -1)]


def test_tolman_weight_toward_fourth_vertex():
    g = builtin("tolman")
    e = next(e for e in g.edges if {e.u, e.v} == {"t1", "t4"})
    assert e.weight_at("t1") == (1, -1)  # primitive part of (2, -2)


def test_woodward_is_tolman():
    w = builtin("woodward")
    t = builtin("tolman")
    assert w.name == "woodward"
    assert [(e.u, e.v, e.weight_at_u) for e in w.edges] == [
        (e.u, e.v, e.weight_at_u) for e in t.edges
    ]


def test_all_signed_builtins_except_cp1xcp2_valid():
    for name in ("eschenburg", "tolman", "woodward", "eschenburg-swapped"):
        assert builtin(name).validate().valid, name


def test_cp1xcp2_fails_gkm_conditions():
    g = builtin("cp1xcp2")
    report = g.validate()
    assert not report.valid
    assert {v.code for v in report.violations} == {"DependentWeightsAt"}


def test_eschenburg_swapped_weights():
    esc = builtin("eschenburg")
    sw = builtin("eschenburg-swapped")
    swap = {"p1": "p5", "p5": "p1", "p2": "p4", "p4": "p2", "p3": "p6", "p6": "p3"}
    for v in esc.vertices:
        assert sorted(sw.weights_at(v)) == sorted(esc.weights_at(swap[v]))
    assert sw.validate().valid


# -- validation error paths ---------------------------------------------------


def test_parallel_labels_detected():
    g = GKMGraph(
        2,
        ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (2, 0)), ("b", "c", (0, 1))],
        signed=True,
    )
    codes = {v.code for v in g.validate().violations}
    assert "DependentWeightsAt" in codes


def dependent_by_rank(weights):
    """The first dependent pair by the Smith rank of the 2 x k matrix."""
    for a, b in itertools.combinations(weights, 2):
        if smith_normal_form(IntMatrix.from_rows([a, b]), with_u=False).rank() < 2:
            return (a, b)
    return None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_minors_agree_with_rank(k):
    rng = random.Random("minors-%d" % k)
    for _ in range(300):
        a = tuple(rng.randint(-6, 6) for _ in range(k))
        s = rng.choice([-3, -2, -1, 1, 2, 3])
        b = rng.choice([
            tuple(rng.randint(-6, 6) for _ in range(k)),
            a,
            tuple(-x for x in a),
            tuple(s * x for x in a),
            tuple(rng.randint(-1, 1) for _ in range(k)),
        ])
        pair = [a, b]
        rank = smith_normal_form(IntMatrix.from_rows(pair), with_u=False).rank()
        assert (gkm._pairwise_independent(pair) is not None) == (rank < 2)
        weights = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.5:  # plant a scaled copy of one weight
            weights.insert(rng.randrange(len(weights) + 1), tuple(s * x for x in rng.choice(weights)))
        assert gkm._pairwise_independent(weights) == dependent_by_rank(weights)


def test_sign_inconsistency_detected():
    g = GKMGraph(
        2,
        ["a", "b"],
        [("a", "b", (1, 0), (1, 0))],  # should be (-1, 0) at b
        signed=True,
    )
    codes = {v.code for v in g.validate().violations}
    assert "SignInconsistency" in codes


def test_not_regular_detected():
    g = GKMGraph(
        2,
        ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (0, 1))],
        signed=True,
    )
    codes = {v.code for v in g.validate().violations}
    assert "NotRegular" in codes


def test_disconnected_detected():
    g = GKMGraph(
        2,
        ["a", "b", "c", "d"],
        [("a", "b", (1, 0)), ("c", "d", (0, 1))],
        signed=True,
    )
    codes = {v.code for v in g.validate().violations}
    assert "Disconnected" in codes


def test_empty_graph_is_invalid():
    g = GKMGraph(2, [], [], signed=True)
    assert [str(v) for v in g.validate().violations] == ["Empty: the graph has no vertices"]


# -- x-rays -------------------------------------------------------------------


def test_xray_zero_displacement_rejected():
    x = XRay(2, {"a": (0, 0), "b": (0, 0)}, [("a", "b")])
    with pytest.raises(XRayError):
        graph_from_xray(x)


def test_xray_derived_graphs_validate():
    for name in ("eschenburg", "tolman", "woodward"):
        x = builtin(name, kind="xray")
        g = graph_from_xray(x)
        assert g.validate().valid


def test_xray_rational_coordinates():
    x = xray_from_json(
        {
            "format": "xray/1",
            "torus_rank": 2,
            "vertices": {"a": [0, 0], "b": [[1, 2], 1]},
            "edges": [["a", "b"]],
        }
    )
    g = graph_from_xray(x)
    # direction (1/2, 1) -> primitive (1, 2); validity not required here
    e = g.edges[0]
    assert e.weight_at("a") == (1, 2)


# -- isomorphism search -------------------------------------------------------


def test_identity_among_self_isomorphisms():
    g = builtin("eschenburg")
    isos = find_isomorphisms(g, g, signed=True)
    ident = (tuple(sorted((v, v) for v in g.vertices)), IntMatrix.identity(2).entries)
    assert ident in as_set(isos)


def test_tolman_to_eschenburg_signed():
    t = builtin("tolman")
    e = builtin("eschenburg")
    isos = find_isomorphisms(t, e, signed=True)
    assert isos
    assert all(scanned_verify(iso, t, e, True) for iso in isos)
    # the composite of the shear with a reflection has determinant -1
    assert any(iso.psi.det() == -1 for iso in isos)


def test_search_matches_brute_force_oracle():
    t = builtin("tolman")
    e = builtin("eschenburg")
    assert as_set(find_isomorphisms(t, e, signed=True)) == brute_isos(t, e, True)
    assert as_set(find_isomorphisms(e, e, signed=True)) == brute_isos(e, e, True)
    assert as_set(find_isomorphisms(t, e, signed=False)) == brute_isos(t, e, False)
    s = builtin("eschenburg-swapped")
    assert as_set(find_isomorphisms(e, s, signed=True)) == brute_isos(e, s, True)
    u = e.unsigned()
    assert as_set(find_isomorphisms(u, u, signed=False)) == brute_isos(u, u, False)


def test_mutated_label_kills_isomorphisms():
    e, mutated = builtin("eschenburg"), mutated_eschenburg()
    isos = find_isomorphisms(e, mutated, signed=True)
    assert isos == []
    assert brute_isos(e, mutated, True) == set()


def test_isos_closed_under_target_automorphisms():
    t = builtin("tolman")
    e = builtin("eschenburg")
    isos = as_set(find_isomorphisms(t, e, signed=True))
    auts = find_isomorphisms(e, e, signed=True)
    for iso in find_isomorphisms(t, e, signed=True):
        for aut in auts:
            amap = aut.mapping()
            comp_map = tuple(sorted((v, amap[img]) for v, img in iso.vertex_map))
            comp_psi = aut.psi * iso.psi
            assert (comp_map, comp_psi.entries) in isos


def test_signed_iso_implies_unsigned():
    t = builtin("tolman")
    e = builtin("eschenburg")
    signed = as_set(find_isomorphisms(t, e, signed=True))
    unsigned = as_set(find_isomorphisms(t.unsigned(), e.unsigned(), signed=False))
    # same psi/map pairs must reappear (weights stored canonically there)
    assert signed <= unsigned


def test_rank_mismatch_raises():
    e = builtin("eschenburg")
    g = GKMGraph(1, ["a", "b"], [("a", "b", (1,))], signed=True)
    with pytest.raises(DimensionMismatch):
        find_isomorphisms(e, g, signed=True)


def test_search_refuses_graphs_off_the_gkm_conditions():
    g = builtin("cp1xcp2")
    with pytest.raises(InvalidGraph, match="GKM conditions"):
        find_isomorphisms(g, g, signed=True)
    with pytest.raises(InvalidGraph):
        find_isomorphisms(builtin("eschenburg").unsigned(), g.unsigned(), signed=False)


def test_rank1_sphere_automorphisms():
    g = GKMGraph(1, ["n", "s"], [("n", "s", (1,))], signed=True)
    isos = find_isomorphisms(g, g, signed=True)
    assert as_set(isos) == {
        ((("n", "n"), ("s", "s")), (1,)),
        ((("n", "s"), ("s", "n")), (-1,)),
    }


def test_rank3_sphere_cube_automorphism_group():
    # (S^2)^3 with the coordinate 3-torus: factor permutations times pole
    # swaps give exactly 3! * 2^3 = 48 signed automorphisms
    verts = ["".join(s) for s in itertools.product("pm", repeat=3)]
    edges = []
    for i in range(3):
        w = tuple(1 if j == i else 0 for j in range(3))
        for eps in itertools.product("pm", repeat=3):
            if eps[i] == "p":
                other = list(eps)
                other[i] = "m"
                edges.append(("".join(eps), "".join(other), tuple(-x for x in w)))
    g = GKMGraph(3, verts, edges, signed=True)
    assert g.validate().valid
    isos = find_isomorphisms(g, g, signed=True)
    assert len(isos) == 48
    ident = (tuple(sorted((v, v) for v in verts)), IntMatrix.identity(3).entries)
    assert ident in as_set(isos)
    # closed under composition
    pool = as_set(isos)
    for a in isos[:6]:
        for b in isos[:6]:
            amap, bmap = a.mapping(), b.mapping()
            comp = tuple(sorted((v, bmap[amap[v]]) for v in verts))
            assert (comp, (b.psi * a.psi).entries) in pool


# -- the least isomorphism -----------------------------------------------------


def least_is_first(g1, g2, signed):
    """Assert that least=True gives the complete list's [:1]; return the list."""
    isos = find_isomorphisms(g1, g2, signed)
    assert find_isomorphisms(g1, g2, signed, least=True) == isos[:1]
    return isos


@pytest.mark.parametrize("b", families.SIGNED_BUILTINS)
@pytest.mark.parametrize("a", families.SIGNED_BUILTINS)
def test_least_isomorphism_on_builtin_pairs(a, b):
    g1, g2 = builtin(a), builtin(b)
    assert least_is_first(g1, g2, True)
    assert least_is_first(g1, g2, False)
    assert least_is_first(g1.unsigned(), g2.unsigned(), False)


@pytest.mark.parametrize("family,param", [("cp", 3), ("cp1^", 3), ("surface", 4), ("surface", 5), ("surface", 6)])
def test_least_isomorphism_on_disguised_families(family, param):
    g = families.build(family, param)
    copy = graph_from_json(families.disguise(g, random.Random("least-%s%s" % (family, param))))
    assert least_is_first(g, copy, True)
    assert least_is_first(copy, g, True)
    assert least_is_first(copy, copy, True)


def test_least_isomorphism_of_the_mutated_pair_is_none():
    assert least_is_first(builtin("eschenburg"), mutated_eschenburg(), True) == []


def test_least_isomorphism_when_the_least_vertex_spans_too_little():
    # a's weights are pairwise independent but span a plane only, so the
    # base is b and least=True takes the least of the complete list. The
    # automorphism (a c)(b d) with psi = -1 gives two isomorphisms onto the
    # renamed copy; the least image of b lies on the other one.
    edges = [("a", "b", (1, 0, 0)), ("a", "c", (0, 1, 0)), ("a", "d", (1, 1, 0)),
             ("b", "c", (1, 1, 0)), ("b", "d", (0, 0, 1)), ("c", "d", (-1, 0, 0))]
    g = GKMGraph(3, ["a", "b", "c", "d"], edges, signed=True)
    assert g.validate().valid
    assert smith_normal_form(IntMatrix.from_rows(g.weights_at("a")), with_u=False).rank() == 2
    name = {"a": "w", "b": "z", "c": "x", "d": "y"}
    renamed = GKMGraph(3, sorted(name.values()), [(name[u], name[v], w) for u, v, w in edges], signed=True)
    isos = least_is_first(g, renamed, True)
    assert len(isos) == 2 and isos[0].mapping()["b"] == "z"
    disguised = graph_from_json(families.disguise(g, random.Random("least-spans")))
    for g1, g2 in [(g, g), (g, disguised), (disguised, g), (renamed, disguised)]:
        assert least_is_first(g1, g2, True)
        assert least_is_first(g1.unsigned(), g2.unsigned(), False)


def test_adjugate_psi_matches_the_smith_solve():
    rng = random.Random(1616)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 3)
        B = IntMatrix(k, k, [rng.randint(-4, 4) for _ in range(k * k)])
        if abs(B.det()) < 2:
            continue
        rows = [B.row(i) for i in range(k)]
        if rng.random() < 0.5:  # psi * base_j for a unimodular psi: a solution exists
            psi = random_unimodular(rng, k)
            targets = [psi.apply(r) for r in rows]
        else:
            targets = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(k)]
        dec = smith_normal_form(B)
        xs = [solve_with_snf(dec, [t[i] for t in targets]) for i in range(k)]
        want = None if None in xs else IntMatrix.from_rows(xs)
        if want is not None and not want.is_unimodular():
            want = None
        det, adj = det_adjugate(rows)
        assert gkm._solve_psi(adj, det, targets) == want
        seen.add("insoluble" if None in xs else "not unimodular" if want is None else "psi")
    assert seen == {"insoluble", "not unimodular", "psi"}


_SEGMENT = GKMGraph(1, ["a", "b"], [("a", "b", (1,))], signed=True)
_ERROR_CASES = {
    "rank": (builtin("eschenburg"), _SEGMENT, True, DimensionMismatch),
    "rank before validity": (builtin("cp1xcp2"), _SEGMENT, True, DimensionMismatch),
    "valence": (builtin("eschenburg"), GKMGraph(2, ["a", "b"], [("a", "b", (1, 0))], signed=True), True,
                DimensionMismatch),
    "unsigned input": (builtin("eschenburg").unsigned(), builtin("eschenburg"), True, ValueError),
    "unsigned before validity": (builtin("cp1xcp2").unsigned(), builtin("cp1xcp2"), True, ValueError),
    "invalid": (builtin("cp1xcp2"), builtin("cp1xcp2"), True, InvalidGraph),
    "invalid unsigned": (builtin("eschenburg").unsigned(), builtin("cp1xcp2").unsigned(), False, InvalidGraph),
    "empty": (GKMGraph(2, [], [], signed=True), GKMGraph(2, [], [], signed=True), True, InvalidGraph),
    "one vertex": (GKMGraph(2, ["a"], [], signed=True), GKMGraph(2, ["b"], [], signed=True), True, InvalidGraph),
    "one vertex rank 1": (GKMGraph(1, ["a"], [], signed=True), GKMGraph(1, ["a"], [], signed=True), False,
                          InvalidGraph),
}


@pytest.mark.parametrize("case", sorted(_ERROR_CASES))
def test_least_search_raises_what_the_complete_search_raises(case):
    g1, g2, signed, expected = _ERROR_CASES[case]
    raised = []
    for least in (False, True):
        with pytest.raises(expected) as info:
            find_isomorphisms(g1, g2, signed, least=least)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def _search_set():
    """The signed built-ins and seeded disguises of four family graphs,
    each with its unsigned copy."""
    signed = [builtin(name) for name in families.SIGNED_BUILTINS]
    for family, param in [("cp", 3), ("cp1^", 3), ("surface", 4), ("surface", 6)]:
        rng = random.Random("search-%s%d" % (family, param))
        signed.append(graph_from_json(families.disguise(families.build(family, param), rng)))
    return signed + [g.unsigned() for g in signed]


def test_every_isomorphism_found_is_one():
    graphs = _search_set()
    for g1, g2 in itertools.product(graphs, repeat=2):
        if (g1.torus_rank, g1.valence) != (g2.torus_rank, g2.valence):
            continue
        for signed in (True, False) if g1.signed and g2.signed else (False,):
            isos = find_isomorphisms(g1, g2, signed)
            assert all(scanned_verify(iso, g1, g2, signed) for iso in isos), (g1.name, g2.name, signed)
            if g1 is g2:
                assert isos, g1.name


def _k4_double_cover(voltage):
    """The double cover of the labelled K4 that crosses sheets on the edges
    where voltage is 1; connected unless the voltage is a coboundary."""
    edges = [(u + str(s), v + str(s ^ t), w) for (u, v, w), t in zip(UNCERTIFIED_K4, voltage) for s in (0, 1)]
    return GKMGraph(2, [v + s for v in "abcd" for s in "01"], edges, signed=True)


def test_the_forced_walk_closes_up_on_double_covers():
    # any two covers are locally label-isomorphic, so a walk between
    # different ones succeeds at every vertex until a cycle fails to close
    covers = [_k4_double_cover(t) for t in [(0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 1, 0), (1, 1, 0, 0, 0, 0),
                                            (1, 1, 1, 1, 1, 1)]]
    assert all(g.validate().valid for g in covers)
    counts = set()
    for g1, g2 in itertools.product(covers, repeat=2):
        for signed in (True, False):
            isos = find_isomorphisms(g1, g2, signed)
            assert all(scanned_verify(iso, g1, g2, signed) for iso in isos)
            counts.add(bool(isos))
    assert counts == {True, False}


# -- serialization ------------------------------------------------------------


def test_graph_json_roundtrip():
    for name in BUILTIN_NAMES:
        g = builtin(name)
        doc = g.to_json()
        g2 = graph_from_json(json.loads(json.dumps(doc)))
        assert g2.to_json() == doc


def test_xray_json_roundtrip():
    x = builtin("eschenburg", kind="xray")
    doc = x.to_json()
    x2 = xray_from_json(json.loads(json.dumps(doc)))
    assert x2.to_json() == doc


def test_unknown_format_version():
    with pytest.raises(SchemaError):
        graph_from_json({"format": "gkmg/9", "torus_rank": 2, "signed": True, "vertices": [], "edges": []})


def test_missing_weight_field_names_edge():
    doc = builtin("eschenburg").to_json()
    del doc["edges"][3]["weight_at_from"]
    with pytest.raises(SchemaError) as err:
        graph_from_json(doc)
    assert "p2" in str(err.value)  # names the offending edge


def test_two_orientation_merge_and_inconsistency():
    doc = {
        "format": "gkmg/1",
        "torus_rank": 2,
        "signed": True,
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "weight_at_from": [1, 0]},
            {"from": "b", "to": "a", "weight_at_from": [-1, 0]},
        ],
    }
    g = graph_from_json(doc)
    assert len(g.edges) == 1
    assert g.validate().violations == ()
    doc["edges"][1]["weight_at_from"] = [1, 0]
    g_bad = graph_from_json(doc)
    assert len(g_bad.edges) == 1
    assert "SignInconsistency" in {v.code for v in g_bad.validate().violations}


def test_load_input_dispatch(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(builtin("eschenburg").to_json()))
    assert isinstance(load_input(str(gpath)), GKMGraph)
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps(builtin("eschenburg", kind="xray").to_json()))
    assert isinstance(load_input(str(xpath)), XRay)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError) as err:
        load_input(str(bad))
    assert "line" in str(err.value)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"format": "gkmg/1", "torus_rank": ' + b"9" * (int_digit_limit() + 1) + b"}",
         "more than %d digits" % int_digit_limit()),
        (b'{"format": "gkmg/1", "name": "\xff"}', "not UTF-8"),
    ],
    ids=["long-integer", "not-utf8"],
)
def test_read_json_turns_value_errors_into_schema_errors(tmp_path, raw, message):
    path = tmp_path / "g.json"
    path.write_bytes(raw)
    with pytest.raises(SchemaError, match=message) as err:
        read_json(str(path))
    assert str(path) in str(err.value)


# -- strict loading -----------------------------------------------------------


def _edited_graph_doc(edit):
    doc = builtin("eschenburg").to_json()
    edit(doc)
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["edges"][0].update(weight_at_from=None),
        lambda d: d["edges"][0].update(weight_at_from=True),
        lambda d: d["edges"][0].update(weight_at_from=5),
        lambda d: d["edges"][0].update(weight_at_from=[1.7, -1.2]),
        lambda d: d.update(torus_rank="2"),
        lambda d: d.update(torus_rank=2.0),
        lambda d: d.update(signed="no"),
        lambda d: d.update(vertices="abc", edges=[{"from": "a", "to": "b", "weight_at_from": [1, 0]}]),
        lambda d: d.update(name=[1, 2]),
        lambda d: d.update(name=7),
        lambda d: d.update(vertices={v: [] for v in d["vertices"]}),
        lambda d: (d.update(torus_rank=0), d["edges"][0].update(to="zz")),
        lambda d: (d.update(torus_rank="2"), d["edges"].__setitem__(0, 5)),
    ],
    ids=["weight-null", "weight-true", "weight-int", "weight-floats", "rank-string",
         "rank-float", "signed-string", "vertices-string", "name-list", "name-int",
         "vertices-object", "rank-zero-unknown-vertex", "rank-string-edge-int"],
)
def test_graph_from_json_rejects_malformed(edit):
    with pytest.raises(SchemaError):
        graph_from_json(_edited_graph_doc(edit))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["edges"][0].update(to="zz"), "edge p1-zz references an unknown vertex"),
        (lambda d: d["edges"][0].update(weight_at_from=[1, 0, 0]), "has length 3, expected 2"),
        (lambda d: d["edges"][0].update(weight_at_from=[0, 0]), "zero weight on edge p1-"),
    ],
    ids=["unknown-vertex", "weight-length", "zero-weight"],
)
def test_graph_from_json_names_the_fault(edit, message):
    with pytest.raises(SchemaError, match=message):
        graph_from_json(_edited_graph_doc(edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(torus_rank="2"),
        lambda d: d.update(torus_rank=2.0),
        lambda d: d.update(vertices="abc"),
        lambda d: d["vertices"].update(p1=[True, 1]),
        lambda d: d.update(name=[1, 2]),
        lambda d: d.update(edges={"p1": "p4"}),
        lambda d: d["edges"][0].append("p2"),
        lambda d: d["edges"][0].__setitem__(0, 1),
        lambda d: d["edges"][0].__setitem__(1, ["p4"]),
        lambda d: d.update(torus_rank=0, edges=[["p1"]]),
        lambda d: d.update(torus_rank="2", edges=[["p1", "zz"]]),
    ],
    ids=["rank-string", "rank-float", "vertices-string", "coordinate-bool", "name-list", "edges-object",
         "edge-three-names", "endpoint-int", "endpoint-list", "rank-zero-short-edge", "rank-string-unknown-vertex"],
)
def test_xray_from_json_rejects_malformed(edit):
    doc = builtin("eschenburg", kind="xray").to_json()
    edit(doc)
    with pytest.raises(SchemaError):
        xray_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize(
    "edge, message",
    [(["p1", "zz"], "x-ray edge #2 p1-zz references an unknown vertex"),
     (["p1", "p4", "p2"], "x-ray edge #2 ['p1', 'p4', 'p2'] must be a (from, to) pair"),
     (["p1", 4], "x-ray edge #2 endpoint must be a string, got 4")],
    ids=["unknown-vertex", "three-names", "endpoint-int"],
)
def test_xray_edge_message_names_the_entry(edge, message):
    x = builtin("eschenburg", kind="xray")
    doc = x.to_json()
    doc["edges"][2] = edge
    for make in (lambda: XRay(2, x.vertices, x.edges[:2] + [edge]), lambda: xray_from_json(doc)):
        with pytest.raises(SchemaError) as err:
            make()
        assert str(err.value) == message


ESCHENBURG_XRAY = {
    "format": "xray/1", "torus_rank": 2, "name": "eschenburg",
    "vertices": {"p1": [-2, 1], "p2": [1, -1], "p3": [2, 0], "p4": [2, -3], "p5": [0, 0], "p6": [1, 1]},
    "edges": [["p1", "p4"], ["p1", "p5"], ["p1", "p6"], ["p2", "p4"], ["p2", "p5"], ["p2", "p6"],
              ["p3", "p4"], ["p3", "p5"], ["p3", "p6"]],
}
TOLMAN_XRAY = {
    "format": "xray/1", "torus_rank": 2, "name": "tolman",
    "vertices": {"t1": [-2, 0], "t2": [-1, 0], "t3": [-2, -3], "t4": [0, -2], "t5": [2, -3], "t6": [-1, -2]},
    "edges": [["t1", "t2"], ["t1", "t3"], ["t1", "t4"], ["t2", "t5"], ["t2", "t6"], ["t3", "t5"], ["t3", "t6"],
              ["t4", "t5"], ["t4", "t6"]],
}


@pytest.mark.parametrize(
    "name, doc",
    [("eschenburg", ESCHENBURG_XRAY), ("tolman", TOLMAN_XRAY), ("woodward", {**TOLMAN_XRAY, "name": "woodward"})],
)
def test_builtin_xray_documents(name, doc):
    got = builtin(name, kind="xray").to_json()
    assert got == doc and list(got) == list(doc) and list(got["vertices"]) == list(doc["vertices"])


@pytest.mark.parametrize("name", ["esc", None, "absent"])
def test_loaders_accept_string_null_or_absent_name(name):
    for doc, load in ((builtin("eschenburg").to_json(), graph_from_json),
                      (builtin("eschenburg", kind="xray").to_json(), xray_from_json)):
        doc.pop("name", None)
        if name != "absent":
            doc["name"] = name
        assert load(doc).name == (None if name == "absent" else name)


@pytest.mark.parametrize(
    "weight",
    [(1.7, -0.2), (True, "3"), (1, "3"), (2.0, 1.0), None],
    ids=["floats", "bool-and-string", "string", "integral-floats", "null"],
)
def test_constructor_rejects_non_integer_weights(weight):
    with pytest.raises(SchemaError):
        GKMGraph(2, ["a", "b"], [("a", "b", weight)], signed=True)


@pytest.mark.parametrize("vertices", ["ab", {"a", "b"}, {"a": 0, "b": 1}], ids=["string", "set", "dict"])
def test_constructor_rejects_non_sequence_vertices(vertices):
    with pytest.raises(SchemaError, match="vertices must be a list or tuple"):
        GKMGraph(1, vertices, [("a", "b", (1,))], signed=True)


@pytest.mark.parametrize(
    "rank", ["2", 2.0, True, 0, -1, None], ids=["string", "float", "bool", "zero", "negative", "null"]
)
def test_constructor_rejects_bad_torus_rank(rank):
    with pytest.raises(SchemaError, match="torus_rank"):
        GKMGraph(rank, ["a", "b"], [("a", "b", (1, 0))], signed=True)


@pytest.mark.parametrize(
    "coords",
    [(1.7, 0), ("1/2", 0), (True, 0), (2.0, 1.0), 5],
    ids=["float", "string", "bool", "integral-floats", "non-sequence"],
)
def test_xray_constructor_rejects_non_rational_coordinates(coords):
    with pytest.raises(SchemaError):
        XRay(2, {"a": coords, "b": [0, 0]}, [("a", "b")])


@pytest.mark.parametrize(
    "rank", ["2", 2.0, True, 0, None], ids=["string", "float", "bool", "zero", "null"]
)
def test_xray_constructor_rejects_bad_torus_rank(rank):
    with pytest.raises(SchemaError, match="torus_rank"):
        XRay(rank, {"a": [1, 2], "b": [0, 0]}, [("a", "b")])


def test_xray_constructor_keeps_ints_and_fractions():
    from fractions import Fraction

    x = XRay(2, {"a": [Fraction(1, 2), 3], "b": (0, 0)}, [("a", "b")])
    assert x.vertices["a"] == (Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize("signed", ["no", 1, None], ids=["string", "int", "null"])
def test_constructor_rejects_non_bool_signed(signed):
    with pytest.raises(SchemaError, match="signed"):
        GKMGraph(1, ["a", "b"], [("a", "b", (1,))], signed=signed)


@pytest.mark.parametrize(
    "vertices, edge, name",
    [([1, 2], (1, 2, (1,)), None), (["1", "2"], (1, "2", (1,)), None),
     (["1", "2"], ("1", 2, (1,)), None), (["1", "2"], ("1", "2", (1,)), [1, 2]),
     (["1", "2"], ("1", "2", (1,)), 7)],
    ids=["vertex-names", "edge-from", "edge-to", "graph-name-list", "graph-name-int"],
)
def test_constructor_rejects_non_string_names(vertices, edge, name):
    with pytest.raises(SchemaError, match="must be a string"):
        GKMGraph(1, vertices, [edge], signed=True, name=name)


@pytest.mark.parametrize("name", [[1, 2], 7], ids=["list", "int"])
def test_xray_constructor_rejects_non_string_name(name):
    with pytest.raises(SchemaError, match="x-ray name must be a string"):
        XRay(2, {"a": [1, 2], "b": [0, 0]}, [("a", "b")], name=name)


@pytest.mark.parametrize(
    "cls, args",
    [(XRay, (2, [("a", [0, 0])], [])),
     (XRay, (2, {"a": [0, 0], "b": [1, 0]}, [("a", "b", "c")])),
     (XRay, (2, {"a": [0, 0], "b": [1, 0]}, 7)),
     (GKMGraph, (1, ["a", "b"], 5, True)),
     (GKMGraph, (1, ["a", "b"], [7], True))],
    ids=["xray-vertex-list", "xray-edge-triple", "xray-edges-int", "graph-edges-int", "graph-edge-int"],
)
def test_constructors_reject_malformed_containers(cls, args):
    with pytest.raises(SchemaError):
        cls(*args)
