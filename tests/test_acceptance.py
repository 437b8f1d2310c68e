"""Acceptance suite: the headline results, each as one test with a printed
pass line. All comparisons are exact integer equality."""

import json
import random

from gkmcalc.charclasses import (
    descend,
    equivariant_char_class,
    localize_integral,
)
from gkmcalc.cli import main
from gkmcalc.cohomology import (
    CohomologyRing,
    FixedPointClass,
    GeneratorBasis,
    evaluate_class_polynomial,
    is_gkm_class,
)
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin, find_isomorphisms
from gkmcalc.intlinalg import IntMatrix, smith_normal_form
from gkmcalc.polyring import IntPolynomial, divide_by_linear, parse_polynomial
from helpers import scanned_verify

GKM_BUILTINS = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")
DIFFEO_TRIO = ("eschenburg", "tolman", "woodward")
XX = ["X1", "X2"]


def eschenburg_gens(name="eschenburg"):
    g = builtin(name)
    ring = CohomologyRing(g)
    classes = [FixedPointClass.from_strings(g, ESCHENBURG_GENERATORS[n]) for n in XX]
    return g, ring, GeneratorBasis(ring, XX, classes)


def cli_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_betti_ranks(capsys):
    for name in DIFFEO_TRIO:
        code, doc = cli_json(capsys, "cohomology", "--example", name)
        assert code == 0
        got = {row["degree"]: row["rank_ordinary"] for row in doc["degrees"]}
        assert got == {0: 1, 2: 2, 4: 2, 6: 1}, name
    print("ACCEPTANCE 1 PASS: ordinary ranks (1,2,2,1) in degrees (0,2,4,6) "
          "for eschenburg, tolman, woodward")


def test_criterion_2_relations_vanish():
    g, ring, gens = eschenburg_gens()
    r1 = parse_polynomial("-X1^2 - 3*X1*X2 - X2^2", XX)
    r2 = parse_polynomial("-X1^2*X2 - X1*X2^2", XX)
    v1 = ring.express(evaluate_class_polynomial(g, gens.classes, r1), r1.degree())
    v2 = ring.express(evaluate_class_polynomial(g, gens.classes, r2), r2.degree())
    assert v1.coords == (0, 0) and v2.coords == (0,)
    print("ACCEPTANCE 2 PASS: both defining relations map to exactly zero "
          "in the quotient basis")


def test_criterion_3_characteristic_classes(capsys):
    code, doc = cli_json(capsys, "classes", "--example", "eschenburg", "--gens", "X1,X2")
    assert code == 0
    classes = doc["classes"]
    assert classes["chern"]["c1"]["poly"] == "4*X1 + 2*X2"
    assert classes["chern"]["c2"]["poly"] == "6*X1^2 + 6*X1*X2"
    assert classes["chern"]["c3"]["poly"] == "-6*X1^2*X2"
    assert classes["pontrjagin"]["p1"]["poly"] == "-8*X1*X2"
    for key in ("w2", "w4", "w6"):
        assert classes["stiefel_whitney"][key]["poly"] == "0"
        assert all(c % 2 == 0 for c in classes["stiefel_whitney"][key]["coords"])
    print("ACCEPTANCE 3 PASS: c1=4*X1+2*X2, c2=6*X1^2+6*X1*X2, c3=-6*X1^2*X2, "
          "p1=-8*X1*X2, Stiefel-Whitney classes zero (exact)")


def test_criterion_4_fiber_swap(capsys):
    code, doc = cli_json(capsys, "classes", "--example", "eschenburg-swapped", "--gens", "X1,X2")
    assert code == 0
    classes = doc["classes"]
    assert classes["chern"]["c1"]["poly"] == "2*X1 + 4*X2"
    assert classes["chern"]["c2"]["poly"] == "-6*X1^2 - 12*X1*X2"
    assert classes["chern"]["c3"]["poly"] == "6*X1^2*X2"
    assert classes["pontrjagin"]["p1"]["poly"] == "-8*X1*X2"
    print("ACCEPTANCE 4 PASS: fiber-swapped variant gives c1=2*X1+4*X2, "
          "c2=-6*X1^2-12*X1*X2, c3=6*X1^2*X2 with p1 unchanged (exact)")


def test_criterion_5_localization():
    for name in DIFFEO_TRIO:
        g = builtin(name)
        c3 = equivariant_char_class(g, "chern").homogeneous_component(6)
        assert localize_integral(g, c3) == 6 == len(g.vertices), name
        ring = CohomologyRing(g)
        for d in (0, 2):
            for cls in ring.gkm_basis(d):
                assert localize_integral(g, cls) == 0, (name, d)
    g = builtin("eschenburg")
    c1 = equivariant_char_class(g, "chern").homogeneous_component(2)
    assert localize_integral(g, c1 ** 3) == 64
    # independent oracle: reduce (4X1+2X2)^3 modulo the ring relations to
    # a multiple of X1^2X2 and pair with <X1^2X2,[M]> = -1 (from <c3> = 6)
    reduction = {(3, 0): -2, (2, 1): 1, (1, 2): -1, (0, 3): 2}
    cubed = parse_polynomial("(4*X1 + 2*X2)^3", XX)
    oracle = -sum(c * reduction[e] for e, c in cubed.terms.items())
    assert oracle == 64
    print("ACCEPTANCE 5 PASS: <c3,[M]> = 6 = |V| on all three builtins, "
          "low-degree classes integrate to 0, <c1^3,[M]> = 64 (both oracles)")


def test_criterion_6_identities():
    for name in GKM_BUILTINS:
        g = builtin(name)
        ring = CohomologyRing(g)
        chern = equivariant_char_class(g, "chern")
        c1 = chern.homogeneous_component(2)
        c2 = chern.homogeneous_component(4)
        p1 = equivariant_char_class(g, "pontrjagin").homogeneous_component(4)
        assert ring.express(p1, 4).coords == ring.express(c1 * c1 - 2 * c2, 4).coords, name
        sw = equivariant_char_class(g, "stiefel_whitney")
        assert tuple(p.mod2() for p in chern.components) == sw.components, name
    print("ACCEPTANCE 6 PASS: p1 = c1^2 - 2 c2 in degree-4 coordinates and "
          "mod-2 total Chern = total Stiefel-Whitney on every signed builtin")


def test_criterion_7_isomorphisms(capsys):
    code, doc = cli_json(capsys, "iso", "--example", "tolman", "--example", "eschenburg", "--signed")
    assert code == 0 and doc["count"] >= 1
    t, e = builtin("tolman"), builtin("eschenburg")
    isos = find_isomorphisms(t, e, signed=True)
    assert len(isos) == doc["count"]
    assert all(scanned_verify(iso, t, e, True) for iso in isos)
    assert any(iso.psi.det() == -1 for iso in isos)
    edges = []
    for ed in e.edges:
        if {ed.u, ed.v} == {"p1", "p6"}:
            edges.append((ed.u, ed.v, (3, 1)))
        else:
            edges.append((ed.u, ed.v, ed.weight_at_u, ed.weight_at_v))
    mutated = GKMGraph(2, e.vertices, edges, signed=True, name="mutated")
    assert find_isomorphisms(e, mutated, signed=True) == []
    print("ACCEPTANCE 7 PASS: tolman ~ eschenburg as signed graphs (every "
          "pair re-verified, a det -1 automorphism matrix among them); a "
          "mutated label kills all isomorphisms")


def test_criterion_8_diffeo_oracle(capsys):
    code, doc = cli_json(
        capsys,
        "diffeo",
        "--example", "tolman",
        "--example", "eschenburg",
        "--assume-simply-connected",
        "--assume-h-odd-zero",
    )
    assert code == 0 and doc["status"] == "diffeomorphic"
    assert "phi" in doc and IntMatrix.from_rows(doc["phi"]).is_unimodular()
    names = list(DIFFEO_TRIO)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            code, doc = cli_json(
                capsys,
                "diffeo",
                "--example", names[i],
                "--example", names[j],
                "--assume-simply-connected",
                "--assume-h-odd-zero",
            )
            assert code == 0 and doc["status"] == "diffeomorphic", (names[i], names[j])
    code = main(["diffeo", "--example", "tolman", "--example", "eschenburg"])
    capsys.readouterr()
    assert code == 3
    print("ACCEPTANCE 8 PASS: all pairwise comparisons among tolman, "
          "woodward, eschenburg are diffeomorphic with verifying Phi; "
          "missing assumption flags exit 3 (inconclusive)")


def test_criterion_9_property_suites():
    rng = random.Random(1729)
    for _ in range(1000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        dec = smith_normal_form(A)
        assert dec.U * A * dec.V == dec.S
        assert dec.U.det() in (1, -1) and dec.V.det() in (1, -1)
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
    for _ in range(1000):
        k = rng.choice((2, 3))
        terms = {
            tuple(rng.randint(0, 3) for _ in range(k)): rng.randint(-9, 9)
            for _ in range(rng.randint(0, 5))
        }
        q = IntPolynomial(k, terms)
        while True:
            coeffs = [rng.randint(-4, 4) for _ in range(k)]
            if any(coeffs):
                break
        ell = IntPolynomial.linear_form(coeffs)
        assert divide_by_linear(q * ell, ell) == q
    # the fifth builtin fails the GKM conditions by design, so the
    # cohomology statements quantify over the four valid ones
    for name in GKM_BUILTINS:
        g = builtin(name)
        ring = CohomologyRing(g)
        for d in range(0, ring.dim + 1, 2):
            for cls in ring.gkm_basis(d):
                assert is_gkm_class(cls), (name, d)
        assert sum(ring.betti(d) for d in range(0, ring.dim + 1, 2)) == 6, name
    print("ACCEPTANCE 9 PASS: 1000 SNF factorizations, 1000 exact-division "
          "round trips, every basis class satisfies the edge congruences, "
          "total ordinary rank 6 on every valid builtin")
