import json
import os

import pytest

from gkmcalc.cli import main
from gkmcalc.errors import InvalidGraph
from gkmcalc.gkm import ESCHENBURG_GENERATORS, GKMGraph, builtin
from helpers import torsion_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_eschenburg_golden_line(capsys):
    code, out, _ = run(capsys, "classes", "--example", "eschenburg", "--gens", "X1,X2")
    assert code == 0
    assert "c1 = 4*X1 + 2*X2" in out
    assert "c2 = 6*X1^2 + 6*X1*X2" in out
    assert "c3 = -6*X1^2*X2" in out
    assert "p1 = -8*X1*X2" in out
    assert "w2 = 0" in out and "w4 = 0" in out and "w6 = 0" in out


def test_classes_swapped(capsys):
    code, out, _ = run(capsys, "classes", "--example", "eschenburg-swapped", "--gens", "X1,X2")
    assert code == 0
    assert "c1 = 2*X1 + 4*X2" in out
    assert "c2 = -6*X1^2 - 12*X1*X2" in out
    assert "c3 = 6*X1^2*X2" in out
    assert "p1 = -8*X1*X2" in out


def test_classes_unsigned_skips_chern(capsys):
    g = builtin("eschenburg").unsigned()
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "u.json")
        with open(path, "w") as fh:
            json.dump(g.to_json(), fh)
        code, out, _ = run(capsys, "classes", path, "--gens", "X1,X2")
    assert code == 0
    assert "Chern classes skipped" in out
    assert "c1" not in out.replace("Chern classes", "")
    assert "p1 = -8*X1*X2" in out


def test_diffeo_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "diffeo",
        "--example",
        "tolman",
        "--example",
        "eschenburg",
        "--assume-simply-connected",
        "--assume-h-odd-zero",
    )
    assert code == 0
    assert "diffeomorphic" in out
    assert "psi" in out and "Phi" in out
    code2, out2, _ = run(capsys, "diffeo", "--example", "tolman", "--example", "eschenburg")
    assert code2 == 3
    assert "inconclusive" in out2


def test_iso_contains_identity(capsys):
    code, out, _ = run(capsys, "iso", "--example", "eschenburg", "--example", "eschenburg")
    assert code == 0
    assert "isomorphism" in out
    code, payload, _ = run(
        capsys, "--format", "json", "iso", "--example", "eschenburg", "--example", "eschenburg"
    )
    doc = json.loads(payload)
    ident = {v: v for v in builtin("eschenburg").vertices}
    assert any(i["vertex_map"] == ident for i in doc["isomorphisms"])


def test_iso_signed_tolman_eschenburg(capsys):
    code, payload, _ = run(
        capsys,
        "--format",
        "json",
        "iso",
        "--example",
        "tolman",
        "--example",
        "eschenburg",
        "--signed",
    )
    doc = json.loads(payload)
    assert doc["count"] >= 1
    assert any(i["det"] == -1 for i in doc["isomorphisms"])


def test_json_and_text_agree(capsys):
    _, text, _ = run(capsys, "cohomology", "--example", "eschenburg")
    _, raw, _ = run(capsys, "--format", "json", "cohomology", "--example", "eschenburg")
    doc = json.loads(raw)
    ranks = [row["rank_ordinary"] for row in doc["degrees"]]
    assert ranks == [1, 2, 2, 1]
    for row in doc["degrees"]:
        assert "%6d  %15d  %8d" % (row["degree"], row["rank_equivariant"], row["rank_ordinary"]) in text
    assert doc["total_ordinary_rank"] == 6


def test_json_roundtrip_stable(capsys):
    _, raw, _ = run(capsys, "--format", "json", "invariants", "--example", "eschenburg")
    doc = json.loads(raw)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["system"]["rank"] == 2


def test_invariants_with_gens(capsys):
    _, raw, _ = run(
        capsys, "--format", "json", "invariants", "--example", "eschenburg", "--gens", "X1,X2"
    )
    doc = json.loads(raw)
    assert doc["system"]["p"] == [8, -8]
    assert doc["system"]["w"] == [0, 0]
    assert doc["system"]["mu"][0][0][0] == 2


def test_integrate(capsys):
    code, out, _ = run(capsys, "integrate", "--example", "eschenburg", "--class", "c1^3")
    assert code == 0
    assert "= 64" in out
    code, out, _ = run(capsys, "integrate", "--example", "eschenburg", "--class", "c3")
    assert "= 6" in out
    code, out, _ = run(
        capsys,
        "integrate",
        "--example",
        "eschenburg",
        "--gens",
        "X1,X2",
        "--class",
        "(4*X1 + 2*X2)^3",
    )
    assert "= 64" in out


def test_validate_builtin_and_invalid(capsys):
    code, out, _ = run(capsys, "validate", "--example", "eschenburg")
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "validate", "--example", "cp1xcp2")
    assert code == 1
    assert "DependentWeightsAt" in out


def test_validate_refuses_a_graph_without_vertices(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format": "gkmg/1", "torus_rank": 2, "signed": True, "vertices": [], "edges": []}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "Empty: the graph has no vertices" in out


def test_integrate_refuses_a_mixed_degree_class(capsys):
    code, out, err = run(capsys, "integrate", "--example", "eschenburg", "--class", "c1^3 + c1")
    assert code == 1 and out == ""
    assert "integrand is not homogeneous" in err


def test_example_and_xray_pipeline(tmp_path, capsys):
    xpath = tmp_path / "esc.xray.json"
    gpath = tmp_path / "esc.gkmg.json"
    svg = tmp_path / "esc.svg"
    code, _, _ = run(capsys, "example", "eschenburg", "--xray", "-o", str(xpath))
    assert code == 0
    code, _, _ = run(capsys, "xray", str(xpath), "-o", str(gpath), "--svg", str(svg))
    assert code == 0
    doc = json.loads(gpath.read_text())
    assert doc["format"] == "gkmg/1"
    assert len(doc["edges"]) == 9
    assert svg.read_text().startswith("<svg")
    code, out, _ = run(capsys, "validate", str(gpath))
    assert code == 0


@pytest.mark.parametrize("rank, code", [(1, 2), (2, 0), (3, 0)])
def test_xray_svg_needs_two_coordinates(tmp_path, capsys, rank, code):
    xpath, gpath, svg = tmp_path / "seg.xray.json", tmp_path / "seg.gkmg.json", tmp_path / "seg.svg"
    doc = {"format": "xray/1", "torus_rank": rank, "vertices": {"a": [0] * rank, "b": list(range(1, rank + 1))},
           "edges": [["a", "b"]]}
    xpath.write_text(json.dumps(doc))
    got, out, err = run(capsys, "xray", str(xpath), "-o", str(gpath), "--svg", str(svg))
    assert got == code
    if code:
        assert out == "" and err.startswith("usage error: --svg draws the first two coordinates")
        assert not gpath.exists() and not svg.exists()
    else:
        assert json.loads(gpath.read_text())["torus_rank"] == rank
        assert svg.read_text().startswith("<svg")


def test_example_unknown(capsys):
    code, _, err = run(capsys, "example", "no-such-example")
    assert code == 1
    assert "unknown example" in err
    for argv in (["example", "nosuch"], ["validate", "--example", "nosuch"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: unknown example 'nosuch' (known: ")


@pytest.mark.parametrize("inputs, count", [(["--example", "tolman", "--example", "eschenburg"], 2),
                                           (["FILE", "--example", "eschenburg"], 2), ([], 0)],
                         ids=["two-examples", "file-and-example", "none"])
def test_xray_takes_exactly_one_input(tmp_path, capsys, inputs, count):
    path = tmp_path / "tolman.xray.json"
    path.write_text(json.dumps(builtin("tolman", kind="xray").to_json()))
    code, out, err = run(capsys, "xray", *[str(path) if a == "FILE" else a for a in inputs])
    assert code == 2 and out == ""
    assert "expected 1 input(s) (paths or --example), got %d" % count in err


def test_unknown_format_version_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "gkmg/9"}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "unknown format version" in err


def test_missing_weight_field(tmp_path, capsys):
    doc = builtin("eschenburg").to_json()
    del doc["edges"][0]["weight_at_from"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "weight_at_from" in err and "p1" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_wrong_input_count_is_usage_error(capsys):
    code, _, err = run(capsys, "iso", "--example", "eschenburg")
    assert code == 2
    assert "expected 2" in err


def test_gens_file(tmp_path, capsys):
    from gkmcalc.gkm import ESCHENBURG_GENERATORS

    gens = {"names": ["X1", "X2"], "classes": ESCHENBURG_GENERATORS}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, out, _ = run(
        capsys, "classes", "--example", "eschenburg", "--gens-file", str(path)
    )
    assert code == 0
    assert "c1 = 4*X1 + 2*X2" in out


def test_no_validate_flag(tmp_path, capsys):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(builtin("cp1xcp2").to_json()))
    # a computation verb refuses the invalid graph; no flag skips the check
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 1
    assert "GKM conditions" in err


def test_iso_refuses_a_graph_off_the_gkm_conditions(tmp_path, capsys):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(builtin("cp1xcp2").to_json()))
    code, out, err = run(capsys, "iso", str(path), str(path))
    assert code == 1 and out == ""
    assert "GKM conditions" in err


def test_every_verb_on_every_valid_builtin(capsys):
    # termination smoke test; the full sweep takes seconds
    import time

    start = time.monotonic()
    valid = ("eschenburg", "tolman", "woodward", "eschenburg-swapped")
    for name in valid:
        for argv in (
            ["validate", "--example", name],
            ["cohomology", "--example", name],
            ["classes", "--example", name],
            ["invariants", "--example", name],
            ["integrate", "--example", name, "--class", "c3"],
            ["iso", "--example", name, "--example", name],
            [
                "diffeo",
                "--example", name,
                "--example", name,
                "--assume-simply-connected",
                "--assume-h-odd-zero",
            ],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)
    code, _, _ = run(capsys, "validate", "--example", "cp1xcp2")
    assert code == 1  # invalid by design
    assert time.monotonic() - start < 60.0


def gkm_process(*argv, timeout=10):
    """Run `gkm` as its own process, so a traceback or a hang shows."""
    import os
    import subprocess
    import sys

    import gkmcalc

    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


_VERB_ARGVS = {
    "validate": ["validate", "--example", "eschenburg"],
    "xray": ["xray", "--example", "tolman"],
    "cohomology": ["cohomology", "--example", "eschenburg"],
    "classes": ["classes", "--example", "eschenburg", "--gens", "X1,X2"],
    "integrate": ["integrate", "--example", "woodward", "--class", "p1*c1"],
    "invariants": ["invariants", "--example", "eschenburg"],
    "iso": ["iso", "--signed", "--example", "tolman", "--example", "eschenburg"],
    "diffeo": ["diffeo", "--example", "tolman", "--example", "eschenburg",
               "--assume-simply-connected", "--assume-h-odd-zero"],
    "example": ["example", "eschenburg"],
}
_MODULES_AFTER = """
import contextlib, io, json, sys
{run}
print(json.dumps(sorted(m for m in sys.modules if m in ("dataclasses", "decimal", "fractions") or m.startswith("gkmcalc."))))
"""
_MAIN = """
from gkmcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
"""


def modules_after(run, *argv):
    """The gkmcalc submodules, and dataclasses, decimal and fractions if
    loaded, in a fresh interpreter after the Python code `run` with these
    arguments."""
    import subprocess
    import sys

    import gkmcalc

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gkmcalc.__file__)))
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER.format(run=run), *argv],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_bare_package_import_loads_no_submodule():
    assert modules_after("import gkmcalc") == set()


@pytest.mark.parametrize("verb", sorted(_VERB_ARGVS))
def test_each_verb_imports_only_what_it_runs(verb):
    loaded = modules_after(_MAIN, *_VERB_ARGVS[verb])
    assert "dataclasses" not in loaded
    assert {"gkmcalc.cli", "gkmcalc.errors", "gkmcalc.gkm", "gkmcalc.intlinalg"} <= loaded
    heavy = {"gkmcalc.cohomology", "gkmcalc.charclasses", "gkmcalc.wjz", "gkmcalc.polyring"}
    if verb in ("validate", "xray", "iso", "example"):
        assert not loaded & heavy
    else:
        assert "gkmcalc.cohomology" in loaded


@pytest.mark.parametrize("verb", [
    ["validate", "e"], ["iso", "e", "t"], ["iso", "--signed", "e", "t"], ["cohomology", "e"], ["classes", "e"],
    ["invariants", "e"], ["diffeo", "t", "e", "--assume-simply-connected", "--assume-h-odd-zero"],
    ["integrate", "e", "--class", "p1*c1"],
], ids=["validate", "iso", "iso-signed", "cohomology", "classes", "invariants", "diffeo", "integrate"])
def test_graph_file_verbs_load_no_fractions(tmp_path, verb):
    """Only x-ray coordinates and the non-integral localization messages
    need `fractions`, which imports `decimal`."""
    for name, example in (("e", "eschenburg"), ("t", "tolman")):
        (tmp_path / name).write_text(json.dumps(builtin(example).to_json()))
    argv = [str(tmp_path / a) if a in ("e", "t") else a for a in verb]
    assert not modules_after(_MAIN, *argv) & {"decimal", "fractions"}


def test_xray_input_loads_fractions():
    assert {"decimal", "fractions"} <= modules_after(_MAIN, "validate", "--example", "eschenburg")


@pytest.mark.parametrize("graph, messages", [
    (builtin("cp1xcp2"), ["DependentWeightsAt: a0 carries linearly dependent weights (-1, 0) and (-1, 0)",
                          "DependentWeightsAt: a2 carries linearly dependent weights (1, 0) and (-1, 0)",
                          "DependentWeightsAt: b0 carries linearly dependent weights (-1, 0) and (1, 0)",
                          "DependentWeightsAt: b2 carries linearly dependent weights (1, 0) and (1, 0)"]),
    (GKMGraph(2, [], [], signed=True), ["Empty: the graph has no vertices"]),
], ids=["cp1xcp2", "empty"])
def test_invalid_graph_message_lists_each_violation(tmp_path, graph, messages):
    want = "graph fails GKM conditions (%s)" % "; ".join(messages)
    with pytest.raises(InvalidGraph) as info:
        graph.require_valid()
    assert str(info.value) == want
    path = tmp_path / "invalid.gkmg"
    path.write_text(json.dumps(graph.to_json()))
    proc = gkm_process("cohomology", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: %s\n" % want)


def test_a_malformed_file_is_named_in_its_error(tmp_path, capsys):
    """The loaders' and the constructors' SchemaErrors say which input is
    malformed, in either argument position and for either format."""
    doc = builtin("eschenburg").to_json()
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(doc))
    doc["edges"][0] = 5
    bad.write_text(json.dumps(doc))
    for paths in ((good, bad), (bad, good)):
        assert run(capsys, "iso", *map(str, paths)) == (1, "", "error: %s: edge #0 must be an object\n" % bad)
    doc = builtin("eschenburg").to_json()
    doc["torus_rank"] = 0
    bad.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(bad)) == (1, "", "error: %s: torus_rank must be a positive integer, got 0\n" % bad)
    xray = builtin("eschenburg", kind="xray").to_json()
    xray["edges"][0] = ["p1"]
    path = tmp_path / "bad-xray.json"
    path.write_text(json.dumps(xray))
    want = "error: %s: x-ray edge #0 ['p1'] must be a (from, to) pair\n" % path
    for argv in (["xray", str(path)], ["iso", str(good), str(path)]):
        assert run(capsys, *argv) == (1, "", want)


def test_malformed_weight_is_an_error_not_a_traceback(tmp_path):
    doc = builtin("eschenburg").to_json()
    doc["edges"][0]["weight_at_from"] = None
    path = tmp_path / "null_weight.json"
    path.write_text(json.dumps(doc))
    proc = gkm_process("validate", str(path), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "weight_at_from" in proc.stderr


def test_non_string_name_is_an_error_not_a_traceback(tmp_path):
    doc = builtin("eschenburg").to_json()
    doc["name"] = [1, 2]
    path = tmp_path / "list_name.json"
    path.write_text(json.dumps(doc))
    proc = gkm_process("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "name" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "cls",
    ["c1^3000", "(c1+c2+c3+p1)^60", "*".join(["(c1+c2+c3+p1)^2"] * 15)],
    ids=["power", "power-of-sum", "product-of-powers"],
)
def test_integrate_rejects_high_powers_before_expanding(cls):
    proc = gkm_process("integrate", "--example", "eschenburg", "--class", cls)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "degree" in proc.stderr and "exceeds" in proc.stderr


@pytest.mark.parametrize("degree", ["60", "8", "-2"])
def test_max_degree_outside_dimension_is_usage_error(degree):
    proc = gkm_process("cohomology", "--example", "eschenburg", "--max-degree", degree)
    assert proc.returncode == 2
    assert "--max-degree" in proc.stderr and "Traceback" not in proc.stderr


def test_negative_bound_is_usage_error():
    proc = gkm_process("diffeo", "--example", "tolman", "--example", "eschenburg",
                       "--assume-simply-connected", "--assume-h-odd-zero", "--bound", "-1")
    assert proc.returncode == 2
    assert "--bound" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("bound", ["1001", "100000000", "99999999999"])
def test_bound_past_the_ceiling_is_usage_error(bound):
    proc = gkm_process("diffeo", "--example", "tolman", "--example", "eschenburg",
                       "--assume-simply-connected", "--assume-h-odd-zero", "--bound", bound)
    assert proc.returncode == 2
    assert "--bound must lie in 0..1000" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", [["validate"], ["classes", "--example", "eschenburg", "--gens-file"]],
                         ids=["graph-file", "gens-file"])
def test_over_long_integer_in_a_json_file_is_an_error(tmp_path, verb):
    path = tmp_path / "long.json"
    path.write_text('{"format": "gkmg/1", "torus_rank": %s}' % ("9" * 5000))
    proc = gkm_process(*verb, str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "set_int_max_str_digits" not in proc.stderr
    assert "digits" in proc.stderr


@pytest.mark.parametrize("cls", ["2^9999999*c1^3", "(1+1)^99999999", "(10^2000)^3*c1^3"],
                         ids=["power", "power-of-sum", "power-of-power"])
def test_integrate_rejects_huge_constant_powers_before_computing(cls):
    proc = gkm_process("integrate", "--example", "eschenburg", "--class", cls)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "constant power" in proc.stderr and "digits" in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cls", ["(-10)^4299*c1^3", "10^3000*10^3000*c1^3"],
                         ids=["power-times-class", "product-of-powers"])
def test_integral_past_the_digit_limit_is_an_error(cls, fmt):
    proc = gkm_process("--format", fmt, "integrate", "--example", "eschenburg", "--class", cls)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "set_int_max_str_digits" not in proc.stderr
    assert "digits" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("cls", ["1" * 5000 + "*c1^3", "(" * 300 + "c1" + ")" * 300 + "^3",
                                 "c1^2*" + "-" * 3000 + "c1"],
                         ids=["long-literal", "deep-parentheses", "deep-minus"])
def test_oversized_or_deep_class_is_a_syntax_error(cls):
    # `--class=` keeps argparse from taking a leading "-" for an option
    proc = gkm_process("integrate", "--example", "eschenburg", "--class=" + cls)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "set_int_max_str_digits" not in proc.stderr
    assert "RecursionError" not in proc.stderr and proc.stdout == ""


def test_product_of_many_constants_is_a_syntax_error():
    # each factor passes the constant-power check; their product would not
    cls = "c1^3*" + "*".join(["7^5000"] * 1000)
    proc = gkm_process("integrate", "--example", "eschenburg", "--class", cls)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert "digits" in proc.stderr


def _gens_doc(names, component):
    return json.dumps({"names": names, "classes": {"X1": {v: component for v in builtin("eschenburg").vertices}}})


_DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "doc, message",
    [
        ("[1, 2]", "must be a JSON object"),
        ('{"names": ["X1"], "classes": {"X1": {"p1": 5}}}', "polynomial strings"),
        (_gens_doc("X1", "Y1"), "non-empty list of strings"),
        (_gens_doc(["X1"], "(Y1+Y2)^100000"), "exceeds the maximum degree 2"),
        (_DEEP_JSON, "nested too deeply"),
    ],
    ids=["list", "integer-component", "string-names", "high-power-component", "deep-nesting"],
)
def test_malformed_gens_file_is_an_error_not_a_traceback(tmp_path, doc, message):
    path = tmp_path / "gens.json"
    path.write_text(doc)
    proc = gkm_process("classes", "--example", "eschenburg", "--gens-file", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert message in proc.stderr


def _named_gens_doc(names):
    gens = ESCHENBURG_GENERATORS
    return json.dumps({"names": names, "classes": {n: gens["X2" if n == "X2" else "X1"] for n in names}})


@pytest.mark.parametrize(
    "names, message",
    [
        (["c1", "X2"], "reserved"),
        (["X 1", "X2"], "not of the form"),
        (["X1", "X1", "X2"], "duplicate"),
    ],
    ids=["class-name", "space", "duplicate"],
)
def test_bad_generator_names_are_an_error(tmp_path, names, message):
    path = tmp_path / "gens.json"
    path.write_text(_named_gens_doc(names))
    for verb in (["classes"], ["integrate", "--class", "c1^3"]):
        proc = gkm_process(*verb, "--example", "eschenburg", "--gens-file", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert message in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classes", "--example", "eschenburg", "--gens", "X1,X1"], "error: duplicate generator names in X1, X1"),
        (["invariants", "UNSIGNED"], "error: invariants need a signed graph"),
    ],
    ids=["duplicate-gens", "unsigned-invariants"],
)
def test_rejected_input_is_an_error_not_a_traceback(tmp_path, argv, message):
    path = tmp_path / "unsigned.json"
    path.write_text(json.dumps(builtin("eschenburg").unsigned().to_json()))
    proc = gkm_process(*[str(path) if a == "UNSIGNED" else a for a in argv])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == message


def test_more_generator_names_than_b2_is_an_error(tmp_path):
    # X1, X2 and clones of X1: the span is there, but the names outnumber b2
    path = tmp_path / "gens.json"
    path.write_text(_named_gens_doc(["X1", "X2"] + ["Z%d" % i for i in range(198)]))
    proc = gkm_process("classes", "--example", "eschenburg", "--gens-file", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert "rank-2 H^2" in proc.stderr


def test_torsion_graph_is_an_error_not_a_traceback(tmp_path):
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(torsion_graph().to_json()))
    proc = gkm_process("cohomology", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "A/mA has 6-torsion in degree 6" in proc.stderr


def test_deeply_nested_graph_file_is_an_error_not_a_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    proc = gkm_process("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "nested too deeply" in proc.stderr


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")
_PAIR = ["--example", "tolman", "--example", "eschenburg"]
_ASSUME = ["--assume-simply-connected", "--assume-h-odd-zero"]
_GOLDEN_CASES = [
    ["validate", "--example", "eschenburg"],
    ["xray", "--example", "eschenburg"],
    ["cohomology", "--example", "eschenburg"],
    ["classes", "--example", "eschenburg", "--gens", "X1,X2"],
    ["integrate", "--example", "eschenburg", "--class", "c1^3"],
    ["invariants", "--example", "eschenburg", "--gens", "X1,X2"],
    ["example", "eschenburg"],
    ["iso", "--signed", *_PAIR],
    ["diffeo", *_PAIR, *_ASSUME],
    ["diffeo", *_PAIR],  # inconclusive, exit 3
    ["validate", "--example", "cp1xcp2"],  # invalid, exit 1
]


def golden_argvs():
    return [["--format", fmt, *case] for case in _GOLDEN_CASES for fmt in ("text", "json")]


def test_output_matches_golden(capsys):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert [r["argv"] for r in golden] == golden_argvs()
    for record in golden:
        code, out, _ = run(capsys, *record["argv"])
        assert (code, out) == (record["exit_code"], record["stdout"]), record["argv"]


if __name__ == "__main__":
    # Re-record the golden file: PYTHONPATH=src python tests/test_cli.py
    import contextlib
    import io

    records = []
    for argv in golden_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": buf.getvalue()})
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
