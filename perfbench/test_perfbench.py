"""Tests of the benchmark itself: seeded generators, closed-form oracles,
the answer checks, and the traced operation counts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import families  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gkmcalc import charclasses, cohomology, gkm, wjz  # noqa: E402

SMALLEST = [("cp", 1), ("cp", 2), ("cp", 3), ("cp1^", 1), ("cp1^", 2), ("cp1^", 3), ("surface", 4)] + [
    ("builtin", b) for b in families.SIGNED_BUILTINS
]


def _integrals(g):
    n = g.valence
    chern = charclasses.equivariant_char_class(g, "chern")
    c1 = chern.homogeneous_component(2)
    out = {"c1^%d" % n: charclasses.localize_integral(g, c1 ** n),
           "c%d" % n: charclasses.localize_integral(g, chern.homogeneous_component(2 * n))}
    if n == 3:
        p1 = charclasses.equivariant_char_class(g, "pontrjagin").homogeneous_component(4)
        out["p1*c1"] = charclasses.localize_integral(g, p1 * c1)
        out["c1*c2"] = charclasses.localize_integral(g, chern.homogeneous_component(4) * c1)
    return out


@pytest.mark.parametrize("family,param", SMALLEST)
def test_oracle_agrees_with_library(family, param):
    g = gkm.graph_from_json(families.disguise(families.build(family, param), random.Random(3)))
    ring = cohomology.CohomologyRing(g)
    got = {"betti": [ring.betti(d) for d in range(0, ring.dim + 1, 2)], **_integrals(g)}
    assert got == families.oracle(family, param)


def test_mu_of_c1_is_the_c1_cube():
    g = gkm.graph_from_json(families.disguise(families.build("surface", 4), random.Random(4)))
    ring = cohomology.CohomologyRing(g)
    report = charclasses.descend(g, charclasses.equivariant_char_class(g, "chern"), ring=ring)
    s = wjz.invariant_system(g, ring=ring)
    x, r = report.coords(2), s.rank
    cube = sum(s.mu[a][b][c] * x[a] * x[b] * x[c] for a in range(r) for b in range(r) for c in range(r))
    assert cube == families.oracle("surface", 4)["c1^3"] == 48


def test_surface_fan_is_smooth_and_complete():
    for m in range(4, 17):
        rays = families.surface_fan(m)
        assert len(rays) == m
        for (a, b), (c, d) in zip(rays, rays[1:] + rays[:1]):
            assert a * d - b * c == 1


def test_disguise_is_deterministic_per_seed():
    g = families.build("surface", 5)
    assert families.disguised_text(g, random.Random(11)) == families.disguised_text(g, random.Random(11))
    assert families.disguised_text(g, random.Random(11)) != families.disguised_text(g, random.Random(12))


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        ops = workloads.cli(random.Random(seed), False, None, tmp_path / sub)
        files = sorted(p.read_text() for p in (tmp_path / sub).iterdir())
        labels = [op.label.replace(str(tmp_path / sub), "") for op in ops]
        return labels, files

    first = inputs(5, "a")
    assert first == inputs(5, "b")
    assert first[1] != inputs(6, "c")[1]


def test_checks_reject_wrong_answers():
    [op] = [op for op in workloads.ring_cold(random.Random(1), False, None, None) if op.label == "betti cp3"]
    op.checked(op.run())
    with pytest.raises(workloads.WrongAnswer):
        op.checked([1, 1, 2, 1])

    doc = families.disguise(families.build("cp", 3), random.Random(2))
    edges = [(e["from"], e["to"], e["weight_at_from"]) for e in doc["edges"]]
    identity = {v: v for v in doc["vertices"]}
    assert workloads.is_signed_iso(edges, edges, identity, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not workloads.is_signed_iso(edges, edges, identity, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])

    s = wjz.invariant_system(gkm.builtin("eschenburg"))
    assert workloads._is_equivalence([[1, 0], [0, 1]], s, s)
    assert not workloads._is_equivalence([[1, 0], [0, 1]], s, s.reversed_orientation())


# Ops whose traced counts must repeat exactly: two fresh rings and a full
# verdict with an equivalence search.
COUNT_OPS = ("betti cp1^3", "betti surface4xcp1", "diffeo cp1^3 cp1^3 bound 1")


def traced_counts():
    ops = workloads.ring_cold(random.Random(9), False, None, None) + workloads.diffeo(
        random.Random(9), False, None, None)
    chosen = [op for op in ops if op.label in COUNT_OPS]
    assert len(chosen) == len(COUNT_OPS)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(chosen):
            tracer.op = i
            with tracer.span("op"):
                op.checked(op.run())
    finally:
        tracer.uninstall()
    return {k: v for k, v in spans.layer_metrics(tracer.spans).items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly():
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(HERE.parent / "src"))
        proc = subprocess.run([sys.executable, __file__], cwd=HERE, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0]["wjz.equiv.candidates"] > 0 and runs[0]["intlinalg.snf.calls"] > 0
    assert runs[0]["gkm.iso.found"] > 0 and runs[0]["cohomology.rings_built"] == 4


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.active = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    assert inner[spans.PARENT] == 0
    duration = outer[spans.END] - outer[spans.START]
    assert abs(outer[spans.SELF] + (inner[spans.END] - inner[spans.START]) - duration) < 1e-9


if __name__ == "__main__":
    print(json.dumps(traced_counts()))
