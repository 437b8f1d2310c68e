"""Differential sweep: every answer gkmcalc gives on a fixed set of graphs,
as canonical JSON, and a comparison of two such files.

    python3 tools/sweep.py --out sweep.json [--cases eschenburg,cp2,cli]
    python3 tools/sweep.py --compare parent.json change.json

Run from the root of a checkout; the library is imported from its `src/`
and the graph families from `perfbench/families.py`. The case set is fixed:

- the four signed built-ins;
- CP^2..CP^4, (CP^1)^2..(CP^1)^3 and surface_4..8 x CP^1, each with two
  seeded `families.disguise` copies;
- four products of three 2-spheres (`s2cubed1..4`, weights in
  `SPHERE_WEIGHTS`), one with the imprimitive weight (2,0);
- the one-vertex graph and the empty graph;
- eschenburg with the built-in generators X1, X2 (`eschenburg+gens`);
- `cli`: the gkm verbs on the built-ins, run in-process.

Each record is either basis-independent (Betti numbers, integrals of the c
and p monomials, `descend` in user generators, GL(r,Z) invariants of each
system, `diffeo` statuses, CLI output and exit codes) or basis-dependent
(degree records, internal coordinates, internal systems, Phi). An error is
recorded as its type and message. `--compare` requires both kinds to be
equal, prints the first difference and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import families  # noqa: E402
from gkmcalc import cli, wjz  # noqa: E402
from gkmcalc.charclasses import descend, equivariant_char_class, localize_integral  # noqa: E402
from gkmcalc.cohomology import FixedPointClass, GeneratorBasis, ring_of  # noqa: E402
from gkmcalc.gkm import ESCHENBURG_GENERATORS, BUILTIN_NAMES, GKMGraph, builtin, graph_from_json  # noqa: E402
from gkmcalc.intlinalg import gcd_of  # noqa: E402

KINDS = ("independent", "dependent")
DIFFEO_BOUNDS = (0, 1, 2, 10)
# Past this H^2 rank a witness search at bound > 1 takes minutes (the
# orientation note always runs it), so larger systems are checked at 0 and 1.
DIFFEO_FULL_RANK = 4
SPHERE_WEIGHTS = ([(1, 0), (0, 1), (1, 1)], [(2, 0), (0, 1), (1, 1)], [(1, 0), (0, 1), (1, -1)],
                  [(1, 0), (1, 2), (1, -1)])
FAMILIES = [("cp", n) for n in (2, 3, 4)] + [("cp1^", n) for n in (2, 3)] + [("surface", m) for m in range(4, 9)]


def product_of_spheres(weights):
    """(S^2)^3 under a 2-torus rotating the i-th sphere with weight w_i."""
    verts = ["".join(s) for s in itertools.product("pm", repeat=3)]
    edges = []
    for i, w in enumerate(weights):
        for eps in verts:
            if eps[i] == "p":
                edges.append((eps, eps[:i] + "m" + eps[i + 1:], tuple(-x for x in w)))
    return GKMGraph(2, verts, edges, signed=True, name="s2cubed")


def cases():
    """(label, graph, reference graph for diffeo, generator names or None)."""
    out = [(name, builtin(name), builtin("eschenburg"), None) for name in families.SIGNED_BUILTINS]
    for family, param in FAMILIES:
        graph = families.build(family, param)
        label = graph.name or "%s%d" % (family, param)
        out.append((label, graph, graph, None))
        rng = random.Random("sweep-" + label)
        for copy in (1, 2):
            out.append(("%s~%d" % (label, copy), graph_from_json(families.disguise(graph, rng)), graph, None))
    spheres = [product_of_spheres(w) for w in SPHERE_WEIGHTS]
    for i, g in enumerate(spheres, 1):
        out.append(("s2cubed%d" % i, g, spheres[0], None))
    out.append(("one-vertex", GKMGraph(2, ["a"], [], signed=True), None, None))
    out.append(("empty", GKMGraph(2, [], [], signed=True), None, None))
    out.append(("eschenburg+gens", builtin("eschenburg"), None, ["X1", "X2"]))
    return out


def outcome(fn):
    """fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # an error is a recorded answer too
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def _monomials(dim):
    """Monomials in c_i (degree 2i) and p_j (degree 4j) of degree dim, as
    tuples of (kind, index) pairs."""
    gens = [("c", i) for i in range(1, dim // 2 + 1)] + [("p", j) for j in range(1, dim // 4 + 1)]
    weight = {("c", i): 2 * i for i in range(1, dim // 2 + 1)} | {("p", j): 4 * j for j in range(1, dim // 4 + 1)}
    out = []
    for n in range(1, dim // 2 + 1):
        for mono in itertools.combinations_with_replacement(gens, n):
            if sum(weight[g] for g in mono) == dim:
                out.append(mono)
    return out


def integrals(graph):
    dim = 2 * graph.valence
    total = {"c": equivariant_char_class(graph, "chern"), "p": equivariant_char_class(graph, "pontrjagin")}
    out = {}
    for mono in _monomials(dim):
        cls = FixedPointClass.constant(graph, 1)
        for kind, i in mono:
            cls = cls * total[kind].homogeneous_component((2 if kind == "c" else 4) * i)
        out["*".join("%s%d" % g for g in mono)] = localize_integral(graph, cls)
    return out


def gl_invariants(s):
    """The GL(r,Z) invariants of a system that `are_equivalent` compares."""
    return {
        "rank": s.rank,
        "mu_gcd": gcd_of(wjz._flatten_mu(s)),
        "p_gcd": gcd_of(s.p),
        "w2_zero": not any(s.w),
        "cubic_mod2": sorted(wjz._cubic_values_mod2(s)),
    }


def degree_records(ring):
    out = {}
    for d in range(0, ring.dim + 1, 2):
        gb = ring.ordinary(d)
        out[str(d)] = {
            "classes": [c.render() for c in ring.gkm_basis(d)],
            "diagonal": list(gb.snf.diagonal()),
            "quotient_reps": [c.render() for c in gb.quotient_reps],
            "projection": gb.projection.to_rows(),
        }
    return out


def coordinates(graph, ring):
    out = {}
    for kind in ("chern", "pontrjagin", "stiefel_whitney"):
        if kind == "chern" and not graph.signed:
            continue
        report = descend(graph, equivariant_char_class(graph, kind), ring=ring)
        out[kind] = [list(e["coords"]) for e in report.degrees]
    return out


def diffeo_records(ref, graph, rank, rec):
    for bound in DIFFEO_BOUNDS:
        if bound > 1 and rank > DIFFEO_FULL_RANK:
            continue
        v = outcome(lambda: wjz.diffeo_verdict(ref, graph, True, True, bound))
        if isinstance(v, dict):
            rec["independent"]["diffeo@%d" % bound] = v
            continue
        rec["independent"]["diffeo@%d" % bound] = {
            "status": v.status, "reason": v.reason, "note": v.reversed_orientation_note}
        rec["dependent"]["phi@%d" % bound] = v.phi.to_rows() if v.phi is not None else None


def case_records(graph, ref, names):
    rec = {"independent": {}, "dependent": {}}
    ind, dep = rec["independent"], rec["dependent"]
    ind["valid"] = outcome(lambda: graph.validate().valid)
    ring = outcome(lambda: ring_of(graph))
    if isinstance(ring, dict):
        ind["ring"] = ring
        return rec
    ind["betti"] = outcome(lambda: [ring.betti(d) for d in range(0, ring.dim + 1, 2)])
    dep["degrees"] = outcome(lambda: degree_records(ring))
    dep["coords"] = outcome(lambda: coordinates(graph, ring))
    if graph.signed:
        ind["integrals"] = outcome(lambda: integrals(graph))
    if graph.valence != 3:
        return rec
    system = outcome(lambda: wjz.invariant_system(graph))
    dep["system"] = system if isinstance(system, dict) else system.to_json()
    ind["invariants"] = system if isinstance(system, dict) else gl_invariants(system)
    if names:
        gens = GeneratorBasis(ring, names, [FixedPointClass.from_strings(graph, ESCHENBURG_GENERATORS[n])
                                            for n in names])
        ind["system"] = outcome(lambda: wjz.invariant_system(graph, gens).to_json())
        for kind in ("chern", "pontrjagin", "stiefel_whitney"):
            ind["descend/" + kind] = outcome(lambda: [
                e["poly"] for e in descend(graph, equivariant_char_class(graph, kind), gens).degrees])
    if ref is not None and not isinstance(system, dict):
        diffeo_records(ref, graph, system.rank, rec)
    return rec


def cli_argvs():
    signed = families.SIGNED_BUILTINS
    out = []
    for fmt in ("text", "json"):
        base = ["--format", fmt]
        for name in BUILTIN_NAMES:
            out.append(base + ["validate", "--example", name])
            out.append(base + ["cohomology", "--example", name])
            out.append(base + ["example", name])
        for name in signed:
            gens = ["--gens", "X1,X2"] if name == "eschenburg" else []
            out.append(base + ["xray", "--example", name])
            out.append(base + ["classes", "--example", name] + gens)
            out.append(base + ["integrate", "--example", name, "--class", "c1^3"])
            out.append(base + ["invariants", "--example", name] + gens)
        for a, b in itertools.product(signed, repeat=2):
            out.append(base + ["iso", "--signed", "--example", a, "--example", b])
            out.append(base + ["diffeo", "--example", a, "--example", b,
                               "--assume-simply-connected", "--assume-h-odd-zero"])
        out.append(base + ["diffeo", "--example", "tolman", "--example", "eschenburg"])
    return out


def cli_records():
    out = {}
    for argv in cli_argvs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        out[" ".join(argv)] = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}
    return {"independent": out, "dependent": {}}


def sweep(selected=None):
    """Records of every case, or of the labels in `selected`."""
    records = {}
    for label, graph, ref, names in cases():
        if selected is None or label in selected:
            records[label] = case_records(graph, ref, names)
    if selected is None or "cli" in selected:
        records["cli"] = cli_records()
    return records


def flatten(records):
    """{kind: {"case/record": value}} with keys in sorted order."""
    return {kind: {"%s/%s" % (label, key): value
                   for label, rec in sorted(records.items()) for key, value in sorted(rec[kind].items())}
            for kind in KINDS}


def compare(a, b):
    """Print the first difference between two sweeps; return 1 if any."""
    fa, fb = flatten(a), flatten(b)
    for kind in KINDS:
        for key in sorted(set(fa[kind]) | set(fb[kind])):
            missing = object()
            va, vb = fa[kind].get(key, missing), fb[kind].get(key, missing)
            if va != vb:
                show = lambda v: "(missing)" if v is missing else json.dumps(v, sort_keys=True)[:2000]
                print("basis-%s record %s differs:\n  A: %s\n  B: %s" % (kind, key, show(va), show(vb)))
                return 1
    print("identical: %s" % ", ".join("%d basis-%s records" % (len(fa[k]), k) for k in KINDS))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", metavar="F.json", help="write the sweep to this file")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two sweep files")
    parser.add_argument("--cases", metavar="LABELS", help="comma-separated case labels (default: all)")
    args = parser.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as fh:
                loaded.append(json.load(fh)["records"])
        return compare(*loaded)
    selected = set(args.cases.split(",")) if args.cases else None
    unknown = (selected or set()) - {label for label, *_ in cases()} - {"cli"}
    if unknown:
        parser.error("unknown case labels: %s" % ", ".join(sorted(unknown)))
    records = sweep(selected)
    with open(args.out, "w") as fh:
        json.dump({"format": "gkmcalc-sweep/1", "records": records}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
