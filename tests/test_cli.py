import json

import pytest

from gkmcalc.cli import main
from gkmcalc.gkm import builtin


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


def test_example_unknown(capsys):
    code, _, err = run(capsys, "example", "no-such-example")
    assert code == 1
    assert "unknown example" in err


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
    # without --no-validate a computation verb refuses the invalid graph
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 1
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


def test_malformed_weight_is_an_error_not_a_traceback(tmp_path):
    import os
    import subprocess
    import sys

    import gkmcalc

    doc = builtin("eschenburg").to_json()
    doc["edges"][0]["weight_at_from"] = None
    path = tmp_path / "null_weight.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(gkmcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "weight_at_from" in proc.stderr
