import importlib.util
import json
import time
from pathlib import Path

import pytest

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


def test_sweep_rejects_unknown_case(sweep, tmp_path):
    with pytest.raises(SystemExit):
        sweep.main(["--out", str(tmp_path / "x.json"), "--cases", "no-such-graph"])
