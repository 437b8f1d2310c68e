import itertools
import json

import pytest

from gkmcalc.errors import (
    DimensionMismatch,
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
    xray_from_json,
)
from gkmcalc.intlinalg import IntMatrix, canonical_sign, rank


# -- reference oracle: exhaustive search over all vertex bijections ---------


def _psi_candidates(g1, g2, phi, signed):
    v0 = g1.vertices[0]
    edges = [e for e in g1.incident(v0)]
    pairs = None
    for combo in itertools.combinations(edges, g1.torus_rank):
        W = IntMatrix.from_rows([e.weight_at(v0) for e in combo])
        if rank(W) == g1.torus_rank:
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
    assert all(iso.verify(t, e, signed=True) for iso in isos)
    # the composite of the shear with a reflection has determinant -1
    assert any(iso.psi.det() == -1 for iso in isos)


def test_search_matches_brute_force_oracle():
    t = builtin("tolman")
    e = builtin("eschenburg")
    assert as_set(find_isomorphisms(t, e, signed=True)) == brute_isos(t, e, True)
    assert as_set(find_isomorphisms(e, e, signed=True)) == brute_isos(e, e, True)
    assert as_set(find_isomorphisms(t, e, signed=False)) == brute_isos(t, e, False)


def test_mutated_label_kills_isomorphisms():
    e = builtin("eschenburg")
    edges = []
    for ed in e.edges:
        if {ed.u, ed.v} == {"p1", "p6"}:
            edges.append((ed.u, ed.v, (3, 1)))
        else:
            edges.append((ed.u, ed.v, ed.weight_at_u, ed.weight_at_v))
    mutated = GKMGraph(2, e.vertices, edges, signed=True, name="mutated")
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
    ],
    ids=["weight-null", "weight-true", "weight-int", "weight-floats", "rank-string",
         "rank-float", "signed-string", "vertices-string"],
)
def test_graph_from_json_rejects_malformed(edit):
    with pytest.raises(SchemaError):
        graph_from_json(_edited_graph_doc(edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(torus_rank="2"),
        lambda d: d.update(torus_rank=2.0),
        lambda d: d.update(vertices="abc"),
        lambda d: d["vertices"].update(p1=[True, 1]),
    ],
    ids=["rank-string", "rank-float", "vertices-string", "coordinate-bool"],
)
def test_xray_from_json_rejects_malformed(edit):
    doc = builtin("eschenburg", kind="xray").to_json()
    edit(doc)
    with pytest.raises(SchemaError):
        xray_from_json(json.loads(json.dumps(doc)))
