"""Differential sweep: every answer gkmcalc gives on a fixed set of graphs,
as canonical JSON, and a comparison of two such files.

    python3 tools/sweep.py --out sweep.json [--cases eschenburg,cp2,cli]
    python3 tools/sweep.py --compare parent.json change.json

Run from the root of a checkout; the library is imported from its `src/`,
the graph families from `perfbench/families.py` and the sphere products,
`mutated_eschenburg` and `UNCERTIFIED_K4` from `tests/helpers.py`. The
case set is fixed:

- the four signed built-ins;
- CP^2..CP^4, (CP^1)^2..(CP^1)^3 and surface_4..8 x CP^1, each with two
  seeded `families.disguise` copies;
- unsigned copies of eschenburg, tolman, CP^2, CP^3, (CP^1)^2, (CP^1)^3
  and surface_4 x CP^1 (`unsigned-<name>`), which take the flow-up path
  along the order its search finds; they have no invariant system, so
  they run no `diffeo`;
- four products of three 2-spheres (`s2cubed1..4`, weights in
  `SPHERE_WEIGHTS`), one with the imprimitive weight (2,0), and the
  unsigned copy of that one (`unsigned-s2cubed2`); both take the kernel
  path: its quotient reps through the inverse of U, and its mod-2 solves
  for Stiefel-Whitney coordinates, which are ambiguous there;
- the one-vertex graph and the empty graph;
- two valid signed graphs with no connection, so `invariant_system`
  localizes symbolically and raises: `mutated-eschenburg` (eschenburg with
  one edge label changed; NotInSubalgebra in degree 2) and
  `uncertified-k4` (a signed K4; its localization sum is not constant),
  each compared by `diffeo` with the other, which pins the order of the
  errors too;
- eschenburg with the built-in generators X1, X2 (`eschenburg+gens`);
- `cli`: the gkm verbs on the built-ins, run in-process.

Each record is either basis-independent (Betti numbers, integrals of the c
and p monomials, `descend` in user generators, GL(r,Z) invariants of each
system, `diffeo` statuses, CLI output and exit codes) or basis-dependent
(degree records, internal coordinates, internal systems, Phi). A degree
record holds A_d's basis classes (`gkm_basis`), their Smith diagonal, the
quotient reps and the projection, whose column j is `express` of basis
class j on either ring path. CLI output that prints internal coordinates
(the coords of `classes`, `invariants` without --gens, Phi and the
systems of `diffeo`) is split: those values are a basis-dependent record,
and the rest of stdout, with them masked, stays basis-independent. An
error is recorded as its type and message; the internal coordinates
record one per class kind, so an error in one kind hides no other.

`--compare A B` requires the basis-independent records to be equal. For
each case and degree it solves the degree records for the change of
quotient basis T_d, with coords in A = T_d * coords in B, from B's
quotient reps expressed in A's basis of A_d. T_d must be unimodular, both
bases must span one lattice, and the projections must agree through T_d.
Internal coordinates must transform by T_d (mod 2 for Stiefel-Whitney),
and the internal systems (mu, p, w) by T_2; each Phi must be an
equivalence of its own file's systems. It prints every record that fails,
in both kinds, and exits 1 if one does; otherwise it prints every T_d other
than the identity.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import families  # noqa: E402
from helpers import UNCERTIFIED_K4, mutated_eschenburg, product_of_spheres  # noqa: E402
from gkmcalc import cli, wjz  # noqa: E402
from gkmcalc.charclasses import descend, equivariant_char_class, localize_integral  # noqa: E402
from gkmcalc.cohomology import FixedPointClass, GeneratorBasis, ring_of  # noqa: E402
from gkmcalc.gkm import ESCHENBURG_GENERATORS, BUILTIN_NAMES, GKMGraph, builtin, graph_from_json  # noqa: E402
from gkmcalc.intlinalg import IntMatrix, gcd_of, smith_normal_form, solve_with_snf  # noqa: E402
from gkmcalc.polyring import monomials  # noqa: E402

KINDS = ("independent", "dependent")
DIFFEO_BOUNDS = (0, 1, 2, 10)
# Past this H^2 rank a witness search at bound > 1 takes minutes (the
# orientation note always runs it), so larger systems are checked at 0 and 1.
DIFFEO_FULL_RANK = 4
SPHERE_WEIGHTS = ([(1, 0), (0, 1), (1, 1)], [(2, 0), (0, 1), (1, 1)], [(1, 0), (0, 1), (1, -1)],
                  [(1, 0), (1, 2), (1, -1)])
FAMILIES = [("cp", n) for n in (2, 3, 4)] + [("cp1^", n) for n in (2, 3)] + [("surface", m) for m in range(4, 9)]
UNSIGNED = [("builtin", "eschenburg"), ("builtin", "tolman"), ("cp", 2), ("cp", 3), ("cp1^", 2), ("cp1^", 3),
            ("surface", 4)]


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
    for family, param in UNSIGNED:
        graph = families.build(family, param)
        out.append(("unsigned-" + graph.name, graph.unsigned(), None, None))
    spheres = [product_of_spheres(w) for w in SPHERE_WEIGHTS]
    for i, g in enumerate(spheres, 1):
        out.append(("s2cubed%d" % i, g, spheres[0], None))
    out.append(("unsigned-s2cubed2", spheres[1].unsigned(), None, None))
    out.append(("one-vertex", GKMGraph(2, ["a"], [], signed=True), None, None))
    out.append(("empty", GKMGraph(2, [], [], signed=True), None, None))
    out.append(("eschenburg+gens", builtin("eschenburg"), None, ["X1", "X2"]))
    mutated, k4 = mutated_eschenburg(), GKMGraph(2, list("abcd"), UNCERTIFIED_K4, signed=True)
    out.append(("mutated-eschenburg", mutated, k4, None))
    out.append(("uncertified-k4", k4, mutated, None))
    return out


def outcome(fn):
    """fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:  # an error is a recorded answer too
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def _is_error(v):
    return isinstance(v, dict) and "error" in v


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
    """Per degree: A_d's basis classes, the Smith diagonal of their matrix,
    the quotient reps, and the projection, whose column j is the quotient
    coordinates of basis class j."""
    out = {}
    for d in range(0, ring.dim + 1, 2):
        classes = ring.gkm_basis(d)
        out[str(d)] = {
            "classes": [c.render() for c in classes],
            "diagonal": list(smith_normal_form(IntMatrix.from_columns(
                [ring._class_to_vec(c, d) for c in classes]), with_u=False).diagonal()),
            "quotient_reps": [c.render() for c in ring.ordinary(d).quotient_reps],
            "projection": [list(row) for row in zip(*(ring.express(c, d).coords for c in classes))],
        }
    return out


def coordinates(graph, ring):
    """Each kind's internal coordinates, or its own error."""
    kinds = ("chern", "pontrjagin", "stiefel_whitney") if graph.signed else ("pontrjagin", "stiefel_whitney")
    return {kind: outcome(lambda: [list(e["coords"]) for e in descend(
        graph, equivariant_char_class(graph, kind), ring=ring).degrees]) for kind in kinds}


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
        rec["dependent"]["phi@%d" % bound] = None if v.phi is None else {
            "phi": v.phi.to_rows(), "systems": [s.to_json() for s in v.systems]}


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
    dep["coords"] = coordinates(graph, ring)
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
    if ref is not None:
        diffeo_records(ref, graph, 0 if isinstance(system, dict) else system.rank, rec)
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
            out.append(base + ["iso", "--example", a, "--example", b])
            out.append(base + ["diffeo", "--example", a, "--example", b,
                               "--assume-simply-connected", "--assume-h-odd-zero"])
        out.append(base + ["diffeo", "--example", "tolman", "--example", "eschenburg"])
    return out


MASK = "<basis-dependent>"
# text lines that print internal coordinates, by verb
TEXT_PATTERNS = {
    "classes": re.compile(r"(\w+) = coords (\[.*\])"),
    "invariants": re.compile(r"(mu\((\d+),(\d+),(\d+)\) = |w2 = |p1 pairing = )(.*)"),
    "diffeo": re.compile(r"(equivalence Phi: )(.*)"),
}


def _class_degree(key):
    """c_j sits in degree 2j, p_j in degree 4j, w_j in degree j."""
    return {"c": 2, "p": 4, "w": 1}[key[0]] * int(key[1:])


def split_cli(argv, stdout):
    """(stdout with its internal coordinates masked, those values or None)."""
    fmt, verb = argv[1], argv[2]
    if verb not in TEXT_PATTERNS or (verb == "invariants" and "--gens" in argv):
        return stdout, None
    dep = {"graphs": [argv[i + 1] for i, a in enumerate(argv) if a == "--example"]}
    if fmt == "json":
        doc = json.loads(stdout)
        if verb == "classes":
            dep["coords"] = {}
            for entry in doc["classes"].values():
                for key, part in entry.items():
                    dep["coords"][key] = part["coords"]
                    part["coords"] = MASK
        for field in ("system", "systems", "phi"):
            if field in doc and verb != "classes":
                dep[field], doc[field] = doc[field], MASK
        return json.dumps(doc, indent=2, sort_keys=True) + "\n", dep
    lines = []
    mu, vectors = {}, {}
    for line in stdout.splitlines():
        m = TEXT_PATTERNS[verb].fullmatch(line)
        if m and verb == "classes":
            dep.setdefault("coords", {})[m.group(1)] = json.loads(m.group(2))
            line = "%s = coords %s" % (m.group(1), MASK)
        elif m and verb == "invariants":
            if m.group(2):
                mu[tuple(int(m.group(i)) - 1 for i in (2, 3, 4))] = int(m.group(5))
            else:
                vectors[m.group(1)[0]] = json.loads("[%s]" % m.group(5).strip("()"))
            line = m.group(1) + MASK
        elif m:
            dep["phi"] = json.loads(m.group(2))
            line = m.group(1) + MASK
        lines.append(line)
    if vectors:
        r = len(vectors["p"])
        dep["system"] = {"rank": r, "w": vectors["w"], "p": vectors["p"], "mu": [
            [[mu[tuple(sorted((a, b, c)))] for c in range(r)] for b in range(r)] for a in range(r)]}
    if len(dep) == 1:
        return stdout, None
    return "\n".join(lines) + "\n", dep


def cli_records():
    rec = {"independent": {}, "dependent": {}}
    for argv in cli_argvs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        key = " ".join(argv)
        masked, dep = split_cli(argv, stdout.getvalue())
        rec["independent"][key] = {"stdout": masked, "stderr": stderr.getvalue(), "exit": code}
        if dep is not None:
            rec["dependent"][key] = dep
    return rec


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


# -- relating basis-dependent records ------------------------------------------


def _vectors(graph, rendered, d):
    """Monomial coordinates of rendered classes, vertex-major."""
    monos = monomials(graph.torus_rank, d)
    return [[p.terms.get(m, 0) for p in FixedPointClass.from_strings(graph, c).components for m in monos]
            for c in rendered]


def _matrix(rows, ncols):
    return IntMatrix(len(rows), ncols, [x for row in rows for x in row])


def degree_transform(graph, d, ra, rb):
    """T with coords in A = T * coords in B, from two degree-d records of
    one graph, or None when they are not related by a change of basis."""
    b = len(ra["quotient_reps"])
    if ra == rb:
        return IntMatrix.identity(b)
    n = len(ra["classes"])
    if (len(rb["classes"]), len(rb["quotient_reps"]), ra["diagonal"]) != (n, b, rb["diagonal"]):
        return None
    dec = smith_normal_form(IntMatrix.from_columns(_vectors(graph, ra["classes"], d)))
    pa, pb = _matrix(ra["projection"], n), _matrix(rb["projection"], n)
    in_a = [solve_with_snf(dec, v) for v in _vectors(graph, rb["classes"] + rb["quotient_reps"], d)]
    if None in in_a:
        return None
    x = IntMatrix.from_columns(in_a[:n]) if n else IntMatrix(0, 0, [])
    t = IntMatrix.from_columns([pa.apply(y) for y in in_a[n:]]) if b else IntMatrix(0, 0, [])
    if not (x.is_unimodular() and t.is_unimodular() and pa * x == t * pb):
        return None
    return t


def _system(doc):
    return wjz.InvariantSystem(doc["rank"], doc["mu"], tuple(doc["w"]), tuple(doc["p"]))


def _transforms(system_a, system_b, t):
    """Whether system B is system A written in B's basis, where coords in
    A = T * coords in B."""
    if "error" in system_a or "error" in system_b:
        return system_a == system_b
    if t is None:
        return False
    if {k: v for k, v in system_a.items() if k not in ("mu", "p", "w")} != \
            {k: v for k, v in system_b.items() if k not in ("mu", "p", "w")}:
        return False
    return wjz._is_equivalence(t, _system(system_b), _system(system_a))


def _coords_transform(ca, cb, t, mod2):
    if t is None or len(ca) != t.rows or len(cb) != t.cols:
        return False
    if mod2:
        return all(x in (0, 1) for x in ca + cb) and all((x - y) % 2 == 0 for x, y in zip(ca, t.apply(cb)))
    return list(ca) == list(t.apply(cb))


class Relation:
    """The change of basis between two sweeps, case by case and degree by
    degree, and the checks of each basis-dependent record against it."""

    def __init__(self, a, b):
        self.files = (a, b)
        self.graphs = {label: graph for label, graph, *_ in cases()}
        self.t = {}

    def transforms(self, label):
        """{degree: T} for one case, or None when its degree records are
        not related."""
        if label not in self.t:
            ra, rb = (f[label]["dependent"].get("degrees") for f in self.files)
            if "error" in ra or "error" in rb or sorted(ra) != sorted(rb):
                self.t[label] = {} if ra == rb else None  # equal errors need no T
            else:
                ts = {int(d): degree_transform(self.graphs[label], int(d), ra[d], rb[d]) for d in ra}
                self.t[label] = None if None in ts.values() else ts
        return self.t[label]

    def t_of(self, label, d):
        ts = self.transforms(label)
        return None if ts is None else ts.get(d)

    def phi_holds(self, which, phi, graphs, systems=None):
        """Whether Phi carries the second graph's system to the first's in
        file `which` (systems default to the case records)."""
        if phi is None:
            return True
        if systems is None:
            systems = [self.files[which][g]["dependent"].get("system") for g in graphs]
        if any(not isinstance(s, dict) or "error" in s for s in systems):
            return False
        return wjz._is_equivalence(IntMatrix.from_rows(phi), _system(systems[0]), _system(systems[1]))

    def related(self, key, va, vb):
        label, record = key.split("/", 1)
        if label == "cli":
            return self.cli_related(va, vb)
        if record == "degrees":
            return self.transforms(label) is not None
        if _is_error(va) or _is_error(vb):
            return va == vb
        if record == "system":
            return _transforms(va, vb, self.t_of(label, 2))
        if record == "coords":
            return sorted(va) == sorted(vb) and all(
                va[kind] == vb[kind] if _is_error(va[kind]) or _is_error(vb[kind]) else
                len(va[kind]) == len(vb[kind]) and all(
                    _coords_transform(ca, cb, self.t_of(label, 2 * (i + 1)), kind == "stiefel_whitney")
                    for i, (ca, cb) in enumerate(zip(va[kind], vb[kind])))
                for kind in va)
        if record.startswith("phi@"):
            return (va is None) == (vb is None) and all(
                v is None or self.phi_holds(i, v["phi"], None, v["systems"]) for i, v in enumerate((va, vb)))
        return False

    def cli_related(self, va, vb):
        if sorted(va) != sorted(vb) or va["graphs"] != vb["graphs"]:
            return False
        graphs = va["graphs"]
        if any(g not in f for f in self.files for g in graphs):  # a sweep of some cases only
            return va == vb
        if "coords" in va:
            if sorted(va["coords"]) != sorted(vb["coords"]):
                return False
            for key, ca in va["coords"].items():
                if not _coords_transform(ca, vb["coords"][key], self.t_of(graphs[0], _class_degree(key)),
                                         key.startswith("w")):
                    return False
        if "system" in va and not _transforms(va["system"], vb["system"], self.t_of(graphs[0], 2)):
            return False
        if "systems" in va and not all(_transforms(sa, sb, self.t_of(g, 2))
                                       for sa, sb, g in zip(va["systems"], vb["systems"], graphs)):
            return False
        return all(self.phi_holds(i, v.get("phi"), graphs, v.get("systems")) for i, v in enumerate((va, vb)))


def compare(a, b):
    """Require equal basis-independent records and related basis-dependent
    ones; print every failure, or else every T other than the identity.
    Return 1 if there is a failure."""
    fa, fb = flatten(a), flatten(b)
    missing = object()
    show = lambda v: "(missing)" if v is missing else json.dumps(v, sort_keys=True)[:2000]
    relation = Relation(a, b)
    moved = failed = 0
    for kind in KINDS:
        keys = sorted(set(fa[kind]) | set(fb[kind]), key=lambda k: (not k.endswith("/degrees"), k))
        for key in keys:
            va, vb = fa[kind].get(key, missing), fb[kind].get(key, missing)
            if va == vb and kind == "independent":
                continue
            if kind == "independent" or missing in (va, vb) or not relation.related(key, va, vb):
                print("basis-%s record %s differs:\n  A: %s\n  B: %s" % (kind, key, show(va), show(vb)))
                failed += 1
            else:
                moved += va != vb
    if failed:
        print("%d records differ" % failed)
        return 1
    for label, ts in sorted(relation.t.items()):
        for d, t in sorted(ts.items()):
            if t != IntMatrix.identity(t.rows):
                print("T %s degree %d: %s" % (label, d, t.to_rows()))
    counts = "%d basis-independent records" % len(fa["independent"])
    if not moved:
        print("identical: %s, %d basis-dependent records" % (counts, len(fa["dependent"])))
    else:
        print("identical: %s; related: %d basis-dependent records, %d of them changed by a unimodular T"
              % (counts, len(fa["dependent"]), moved))
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
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                parser.error("cannot read sweep file %s: %s" % (path, exc))
            if not (isinstance(doc, dict) and isinstance(doc.get("records"), dict)):
                parser.error("%s is not a sweep file: it has no \"records\" object" % path)
            loaded.append(doc["records"])
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
