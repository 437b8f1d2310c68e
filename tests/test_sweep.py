import copy
import importlib.util
import json
import time
from pathlib import Path

import pytest

from gkmcalc.cohomology import FixedPointClass
from gkmcalc.gkm import builtin

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
CASES = "eschenburg,cp2~1,s2cubed2"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_of_three_graphs_compares(sweep, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    start = time.perf_counter()
    assert sweep.main(["--out", str(a), "--cases", CASES]) == 0
    assert time.perf_counter() - start <= 2.0
    doc = json.loads(a.read_text())
    records = doc["records"]
    assert sorted(records) == sorted(CASES.split(","))
    assert records["eschenburg"]["independent"]["betti"] == [1, 2, 2, 1]
    assert records["eschenburg"]["independent"]["integrals"]["c1*c1*c1"] == 64
    assert records["s2cubed2"]["independent"]["diffeo@1"]["status"] == "diffeomorphic"
    assert "phi@1" in records["s2cubed2"]["dependent"]

    assert sweep.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.startswith("identical: ")

    # a changed basis-dependent record is found and named
    records["cp2~1"]["dependent"]["degrees"]["2"]["projection"][0][0] += 1
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    assert "basis-dependent record cp2~1/degrees differs" in capsys.readouterr().out

    # basis-independent records are compared first
    records["eschenburg"]["independent"]["betti"] = [1, 2, 2]
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    assert "basis-independent record eschenburg/betti differs" in capsys.readouterr().out


T = [[1, 0], [1, 1]]  # coords in the old basis = T * coords in the new one


def _in_new_basis(x):
    """T^-1 * x."""
    return [x[0], x[1] - x[0]]


def rewritten(rec, graph):
    """The basis-dependent records of a case with b_2 = 2, rewritten in the
    degree-2 quotient basis T carries to the old one."""
    dep = copy.deepcopy(rec["dependent"])
    deg = dep["degrees"]["2"]
    r0, r1 = (FixedPointClass.from_strings(graph, c) for c in deg["quotient_reps"])
    deg["quotient_reps"] = [(r0 + r1).render(), r1.render()]
    deg["projection"] = [list(col) for col in zip(*(_in_new_basis(col) for col in zip(*deg["projection"])))]
    for kind, parts in dep["coords"].items():
        parts[0] = [x % 2 for x in _in_new_basis(parts[0])] if kind == "stiefel_whitney" else _in_new_basis(parts[0])
    s, r = dep["system"], range(2)
    s["mu"] = [[[sum(T[i][a] * T[j][b] * T[l][c] * s["mu"][i][j][l] for i in r for j in r for l in r)
                 for c in r] for b in r] for a in r]
    s["p"] = [sum(T[i][a] * s["p"][i] for i in r) for a in r]
    s["w"] = [x % 2 for x in _in_new_basis(s["w"])]
    return dep


def test_sweep_relates_a_change_of_basis(sweep, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert sweep.main(["--out", str(a), "--cases", "eschenburg"]) == 0
    doc = json.loads(a.read_text())
    rec = doc["records"]["eschenburg"]
    rec["dependent"] = new = rewritten(rec, builtin("eschenburg"))
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "T eschenburg degree 2: [[1, 0], [1, 1]]" in out
    # degrees, coords and system moved; each Phi is checked on its own systems
    assert "related: 7 basis-dependent records, 3 of them changed" in out and "differs" not in out

    # the coordinates must move with the basis
    new["coords"]["chern"][0] = json.loads(a.read_text())["records"]["eschenburg"]["dependent"]["coords"]["chern"][0]
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    assert "basis-dependent record eschenburg/coords differs" in capsys.readouterr().out


def test_sweep_compare_prints_every_difference(sweep, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert sweep.main(["--out", str(a), "--cases", "eschenburg,cp2"]) == 0
    doc = json.loads(a.read_text())
    records = doc["records"]
    records["eschenburg"]["independent"]["betti"] = [1, 2, 2]
    records["cp2"]["independent"]["integrals"]["c1*c1"] += 1
    records["eschenburg"]["dependent"]["coords"]["chern"][0][0] += 1
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    for key in ("basis-independent record eschenburg/betti", "basis-independent record cp2/integrals",
                "basis-dependent record eschenburg/coords"):
        assert key + " differs" in out
    assert out.count(" differs:") == 3 and out.endswith("3 records differ\n")


def test_sweep_records_each_class_kind_on_its_own(sweep, tmp_path, capsys):
    """The ambiguous mod-2 descent of unsigned-s2cubed2 leaves its
    Pontrjagin coordinates (p1 of a product of spheres is 0) in the record."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert sweep.main(["--out", str(a), "--cases", "unsigned-s2cubed2"]) == 0
    doc = json.loads(a.read_text())
    coords = doc["records"]["unsigned-s2cubed2"]["dependent"]["coords"]
    assert coords == {"pontrjagin": [[0, 0, 0], [0, 0, 0], [0]], "stiefel_whitney": {
        "error": "NotInSubalgebra: mod-2 descent is ambiguous in degree 2 (imprimitive weights?)"}}
    assert sweep.main(["--compare", str(a), str(a)]) == 0
    capsys.readouterr()

    # a per-kind error is compared by equality
    coords["stiefel_whitney"]["error"] += " (changed)"
    b.write_text(json.dumps(doc))
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    assert "basis-dependent record unsigned-s2cubed2/coords differs" in capsys.readouterr().out


def test_sweep_rejects_unknown_case(sweep, tmp_path):
    with pytest.raises(SystemExit):
        sweep.main(["--out", str(tmp_path / "x.json"), "--cases", "no-such-graph"])


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read sweep file"), ("{", "cannot read sweep file"), ("[1]", "is not a sweep file"),
     ('{"format": "gkmcalc-sweep/1"}', "is not a sweep file"), ('{"records": []}', "is not a sweep file")],
    ids=["missing", "bad-json", "list", "no-records", "records-list"],
)
def test_sweep_compare_rejects_a_file_that_is_not_a_sweep(sweep, tmp_path, capsys, content, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"format": "gkmcalc-sweep/1", "records": {}}')
    if content is not None:
        bad.write_text(content)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--compare", *map(str, pair)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) in err


def test_compare_passes_exactly_the_declared_changes(sweep, tmp_path, capsys):
    a, b, expect = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "expect.json"
    doc = {"format": "gkmcalc-sweep/1", "records": {"g": {
        "independent": {"betti": [1, 1], "integrals": {"c1": 2}}, "dependent": {}}}}
    a.write_text(json.dumps(doc))
    doc["records"]["g"]["independent"]["integrals"] = {"error": "NoConnection: no connection"}
    b.write_text(json.dumps(doc))
    declared = {"independent": {"g/integrals": {"old": {"c1": 2}, "new": {"error": "NoConnection: no connection"}}}}
    expect.write_text(json.dumps(declared))
    assert sweep.main(["--compare", str(a), str(b), "--expect", str(expect)]) == 0
    assert "basis-independent record g/integrals differs as declared" in capsys.readouterr().out
    assert sweep.main(["--compare", str(a), str(b)]) == 1
    capsys.readouterr()

    # a declared record with another new value, or one that does not change, fails
    declared["independent"]["g/integrals"]["new"] = {"c1": 3}
    expect.write_text(json.dumps(declared))
    assert sweep.main(["--compare", str(a), str(b), "--expect", str(expect)]) == 1
    assert "basis-independent record g/integrals differs:" in capsys.readouterr().out
    assert sweep.main(["--compare", str(a), str(a), "--expect", str(expect)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "basis-independent record g/integrals does not differ as declared"

    # an undeclared difference still fails
    doc["records"]["g"]["independent"]["betti"] = [1, 2]
    b.write_text(json.dumps(doc))
    declared["independent"]["g/integrals"]["new"] = {"error": "NoConnection: no connection"}
    expect.write_text(json.dumps(declared))
    assert sweep.main(["--compare", str(a), str(b), "--expect", str(expect)]) == 1
    assert "basis-independent record g/betti differs:" in capsys.readouterr().out

    for bad in ('{"independent": {"g/betti": {"old": 1}}}', '{"other": {}}', "[1]"):
        expect.write_text(bad)
        with pytest.raises(SystemExit) as exc:
            sweep.main(["--compare", str(a), str(b), "--expect", str(expect)])
        assert exc.value.code == 2 and "does not map kinds" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        sweep.main(["--out", str(a), "--expect", str(expect)])
