"""The benchmark's workloads: seeded inputs, the op that runs on each, and
the oracle that checks its answer.

A workload's set-up returns a list of `Op`s, one round. The runner plays
whole rounds, each in a freshly shuffled order, so every run holds the same
mix of inputs. Each op is one library call (or one `gkm` process for `cli`)
and its check is independent of the code under test: closed-form answers
from `families`, golden values of the built-ins, and certificates the
benchmark verifies itself (isomorphisms, equivalences of invariant systems).
A check that needs a costly oracle runs once per op and then compares
against the verified answer.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import families
from gkmcalc import charclasses, cohomology, gkm, wjz

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_CHILD = HERE / "cli_child.py"

# One per-op deadline for every workload. The slowest op that is not a wall
# takes under 3 s on a 2-core x86 container.
DEADLINE_S = 10.0


class WrongAnswer(Exception):
    pass


def expect(condition, what):
    if not condition:
        raise WrongAnswer(what)


@dataclass
class Op:
    label: str
    run: object  # () -> result
    check: object  # (result) -> None; raises WrongAnswer
    verified: str = None  # repr of the answer the oracle accepted

    def checked(self, result):
        """Check `result`, by the oracle the first time and against the
        verified answer after that."""
        if self.verified is not None:
            expect(repr(result) == self.verified, "%s: answer changed between rounds" % self.label)
            return
        self.check(result)
        self.verified = repr(result)


def _span(tracer, name):
    return tracer.span(name) if tracer and tracer.active else nullcontext()


def _parse(text, tracer):
    with _span(tracer, "gkm.parse"):
        g = gkm.graph_from_json(json.loads(text))
    with _span(tracer, "gkm.validate"):
        g.require_valid()
    return g


def _seeded_graph(family, param, rng, tracer):
    return _parse(families.disguised_text(families.build(family, param), rng), tracer)


def _label(family, param):
    return {"cp": "cp%s", "cp1^": "cp1^%s", "surface": "surface%sxcp1", "builtin": "%s"}[family] % param


# ---------------------------------------------------------------------------
# ring-cold: parse, build a fresh ring, compute every Betti number

RING_COLD = [("cp", 3), ("cp1^", 3)] + [("surface", m) for m in range(4, 9)]
# Heavy rings added by `--walls 1`. CP^5 and surface_16 x CP^1 run past
# today's wall (dense SNF); CP^4 is the size the next step should reach.
RING_COLD_WALLS = [("cp", 4), ("cp", 5), ("surface", 16)]


def ring_cold(rng, walls, tracer, workdir):
    ops = []
    for family, param in RING_COLD + (RING_COLD_WALLS if walls else []):
        text = families.disguised_text(families.build(family, param), rng)
        betti = families.oracle(family, param)["betti"]

        def run(text=text):
            ring = cohomology.CohomologyRing(_parse(text, tracer))
            return [ring.betti(d) for d in range(0, ring.dim + 1, 2)]

        def check(result, betti=betti, label=_label(family, param)):
            expect(result == betti, "%s: Betti numbers %s, expected %s" % (label, result, betti))

        ops.append(Op("betti " + _label(family, param), run, check))
    return ops


# ---------------------------------------------------------------------------
# queries-warm: library queries against rings built in set-up

QUERIES_WARM = [("builtin", b) for b in families.SIGNED_BUILTINS] + [("cp", 3), ("cp1^", 3)] + [
    ("surface", m) for m in range(4, 9)
]


def _integral(graph, classes):
    product = classes[0]
    for c in classes[1:]:
        product = product * c
    return charclasses.localize_integral(graph, product)


def _combination(ring, degree, coords):
    """The class sum(coords[i] * rep_i) over the ordinary basis reps."""
    reps = ring.ordinary(degree).quotient_reps
    total = cohomology.FixedPointClass.constant(ring.graph, 0)
    for x, rep in zip(coords, reps):
        total = total + rep * x
    return total


class _Input:
    """One warm input: its graph, ring, equivariant classes and oracle."""

    def __init__(self, family, param, rng, tracer):
        self.label = _label(family, param)
        self.graph = _seeded_graph(family, param, rng, tracer)
        self.ring = cohomology.CohomologyRing(self.graph)
        for d in range(0, self.ring.dim + 1, 2):
            self.ring.betti(d)
        self.oracle = families.oracle(family, param)
        self.chern = charclasses.equivariant_char_class(self.graph, "chern")
        self.pont = charclasses.equivariant_char_class(self.graph, "pontrjagin")
        self.c1 = self.chern.homogeneous_component(2)
        self._c1_coords = None

    def c1_coords(self):
        if self._c1_coords is None:
            self._c1_coords = self.ring.express(self.c1, 2).coords
        return self._c1_coords


def _check_system(inp, s):
    o = inp.oracle
    x = inp.c1_coords()
    r = o["betti"][1]
    expect(s.rank == r, "%s: rank H^2 %d, expected %d" % (inp.label, s.rank, r))
    cube = sum(s.mu[a][b][c] * x[a] * x[b] * x[c] for a in range(r) for b in range(r) for c in range(r))
    expect(cube == o["c1^3"], "%s: mu(c1,c1,c1) = %d, expected %d" % (inp.label, cube, o["c1^3"]))
    p1c1 = sum(s.p[a] * x[a] for a in range(r))
    expect(p1c1 == o["p1*c1"], "%s: p(c1) = %d, expected %d" % (inp.label, p1c1, o["p1*c1"]))
    expect(tuple(s.w) == tuple(v % 2 for v in x), "%s: w2 is not c1 mod 2" % inp.label)


def _check_chern(inp, report):
    o, g = inp.oracle, inp.graph
    c1 = _combination(inp.ring, 2, report.coords(2))
    expect(_integral(g, [c1, c1, c1]) == o["c1^3"], "%s: descended c1 has the wrong c1^3" % inp.label)
    c2 = _combination(inp.ring, 4, report.coords(4))
    expect(_integral(g, [c2, inp.c1]) == o["c1*c2"], "%s: descended c2 has the wrong c1*c2" % inp.label)
    c3 = _combination(inp.ring, 6, report.coords(6))
    expect(charclasses.localize_integral(g, c3) == o["c3"], "%s: descended c3 has the wrong integral" % inp.label)


def _check_pontrjagin(inp, report):
    o = inp.oracle
    expect(not any(report.coords(2)) and not any(report.coords(6)), "%s: p has parts outside degree 4" % inp.label)
    p1 = _combination(inp.ring, 4, report.coords(4))
    expect(_integral(inp.graph, [p1, inp.c1]) == o["p1*c1"], "%s: descended p1 has the wrong p1*c1" % inp.label)


def _check_stiefel_whitney(inp, report):
    x = inp.c1_coords()
    expect(tuple(report.coords(2)) == tuple(v % 2 for v in x), "%s: w2 is not c1 mod 2" % inp.label)
    c2 = inp.ring.express(inp.chern.homogeneous_component(4), 4).coords
    expect(tuple(report.coords(4)) == tuple(v % 2 for v in c2), "%s: w4 is not c2 mod 2" % inp.label)
    expect(tuple(report.coords(6)) == (inp.oracle["c3"] % 2,), "%s: w6 is not the Euler number mod 2" % inp.label)


def queries_warm(rng, walls, tracer, workdir):
    ops = []
    for family, param in QUERIES_WARM:
        inp = _Input(family, param, rng, tracer)
        g, ring, o = inp.graph, inp.ring, inp.oracle
        ops.append(Op(
            "invariant_system " + inp.label,
            lambda g=g, ring=ring: wjz.invariant_system(g, ring=ring),
            lambda s, inp=inp: _check_system(inp, s),
        ))
        for kind, check in (("chern", _check_chern), ("pontrjagin", _check_pontrjagin),
                            ("stiefel_whitney", _check_stiefel_whitney)):
            ops.append(Op(
                "descend %s %s" % (kind, inp.label),
                lambda g=g, ring=ring, kind=kind: charclasses.descend(
                    g, charclasses.equivariant_char_class(g, kind), ring=ring),
                lambda report, inp=inp, check=check: check(inp, report),
            ))
        integrands = {
            "c1^3": inp.c1 * inp.c1 * inp.c1,
            "c3": inp.chern.homogeneous_component(6),
            "p1*c1": inp.pont.homogeneous_component(4) * inp.c1,
        }
        for key, cls in integrands.items():
            ops.append(Op(
                "localize %s %s" % (key, inp.label),
                lambda g=g, cls=cls: charclasses.localize_integral(g, cls),
                lambda v, want=o[key], what="%s: integral of %s" % (inp.label, key): expect(
                    v == want, "%s is %s, expected %s" % (what, v, want)),
            ))
    return ops


# ---------------------------------------------------------------------------
# diffeo: one diffeo_verdict per op


def _is_equivalence(phi, s1, s2):
    """Phi carries system s2 back to s1: p2 . Phi = p1, Phi w1 = w2 mod 2,
    mu2(Phi., Phi., Phi.) = mu1, and det Phi = +-1."""
    r = s1.rank
    if s2.rank != r or len(phi) != r or abs(_det(phi)) != 1:
        return False
    col = [[phi[i][a] for i in range(r)] for a in range(r)]
    if any(sum(s2.p[i] * col[a][i] for i in range(r)) != s1.p[a] for a in range(r)):
        return False
    if any(sum(phi[i][a] * s1.w[a] for a in range(r)) % 2 != s2.w[i] % 2 for i in range(r)):
        return False
    for a in range(r):
        for b in range(r):
            for c in range(r):
                val = sum(s2.mu[i][j][l] * col[a][i] * col[b][j] * col[c][l]
                          for i in range(r) for j in range(r) for l in range(r))
                if val != s1.mu[a][b][c]:
                    return False
    return True


def _det(m):
    """Determinant by cofactor expansion (the matrices here are at most 4x4)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def is_signed_iso(edges1, edges2, vertex_map, psi):
    """Whether the vertex bijection and torus automorphism psi carry every
    signed edge weight of graph 1 onto graph 2. Edges are (u, v, w_at_u)."""
    if abs(_det(psi)) != 1 or len(set(vertex_map.values())) != len(vertex_map):
        return False
    target = {}
    for u, v, w in edges2:
        target[(u, v)] = tuple(w)
        target[(v, u)] = tuple(-x for x in w)
    if len(target) != 2 * len(edges1):
        return False
    for u, v, w in edges1:
        image = tuple(sum(a * b for a, b in zip(row, w)) for row in psi)
        if target.get((vertex_map[u], vertex_map[v])) != image:
            return False
    return True


def _graph_edges(g):
    return [(e.u, e.v, e.weight_at_u) for e in g.edges]


def _check_verdict(v, g1, g2, want, ranks):
    expect(v.status == want, "%s vs %s: %s, expected %s" % (g1.name, g2.name, v.status, want))
    s1, s2 = v.systems
    expect((s1.rank, s2.rank) == ranks, "%s vs %s: ranks %s, expected %s" % (g1.name, g2.name, (s1.rank, s2.rank), ranks))
    if want == "diffeomorphic":
        expect(_is_equivalence(v.phi.to_rows(), s1, s2), "%s vs %s: Phi is not an equivalence" % (g1.name, g2.name))
        if v.graph_iso is not None:
            expect(is_signed_iso(_graph_edges(g1), _graph_edges(g2), v.graph_iso.mapping(), v.graph_iso.psi.to_rows()),
                   "%s vs %s: the graph isomorphism witness is wrong" % (g1.name, g2.name))


def diffeo(rng, walls, tracer, workdir):
    def graph(family, param):
        return (_seeded_graph(family, param, rng, tracer), families.oracle(family, param)["betti"][1])

    # Every graph gets its own disguise: the internal bases, and with them
    # where the equivalence search meets its witness, depend on it.
    pairs = [(graph("builtin", a), graph("builtin", b), 10, "diffeomorphic")
             for a in families.SIGNED_BUILTINS for b in families.SIGNED_BUILTINS]
    pairs += [
        (graph("cp1^", 3), graph("cp1^", 3), 1, "diffeomorphic"),
        (graph("surface", 4), graph("surface", 4), 1, "diffeomorphic"),
        (graph("cp", 3), graph("cp1^", 3), 10, "provably_distinct"),
        (graph("cp1^", 3), graph("surface", 5), 10, "provably_distinct"),
        (graph("surface", 4), graph("cp", 3), 10, "provably_distinct"),
    ]
    if walls:  # past today's wall: the brute-force equivalence search
        pairs += [
            (graph("cp1^", 3), graph("cp1^", 3), 10, "diffeomorphic"),
            (graph("surface", 5), graph("surface", 5), 1, "diffeomorphic"),
        ]
    ops = []
    for (g1, r1), (g2, r2), bound, want in pairs:
        ops.append(Op(
            "diffeo %s %s bound %d" % (g1.name, g2.name, bound),
            lambda g1=g1, g2=g2, bound=bound: wjz.diffeo_verdict(g1, g2, True, True, bound=bound),
            lambda v, g1=g1, g2=g2, want=want, ranks=(r1, r2): _check_verdict(v, g1, g2, want, ranks),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli: one `gkm` process per op


class CliRun:
    """A `gkm` verb run as its own process; traced runs go through
    `cli_child.py`, which reports the child's spans in a file."""

    def __init__(self, args, tracer, spans_path):
        self.args, self.tracer, self.spans_path = args, tracer, spans_path

    def _run(self, argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=DEADLINE_S)

    def __call__(self):
        if not (self.tracer and self.tracer.active):
            proc = self._run([sys.executable, "-m", "gkmcalc.cli", *self.args])
            return proc.returncode, proc.stdout
        index = self.tracer.begin("cli.process")
        try:
            proc = self._run([sys.executable, str(CLI_CHILD), str(self.spans_path), *self.args])
        finally:
            self.tracer.end(index)
        with open(self.spans_path) as fh:
            self.tracer.adopt(json.load(fh), index)
        return proc.returncode, proc.stdout


def _doc_edges(doc):
    return [(e["from"], e["to"], e["weight_at_from"]) for e in doc["edges"]]


def _cli_ops(files, docs):
    """(args, check) pairs; check(fmt, stdout) gets the output of one run."""
    esc_flags = ["--assume-simply-connected", "--assume-h-odd-zero"]

    def json_or_text(on_json, on_text):
        return lambda fmt, out: on_json(json.loads(out)) if fmt == "json" else on_text(out)

    def has(*needles):
        return lambda out: expect(all(n in out for n in needles), "text output lacks %r" % (needles,))

    def counts(doc, nv, ne):
        expect((len(doc["vertices"]), len(doc["edges"])) == (nv, ne), "document has the wrong size")

    def invariants_cp3(j):
        s = j["system"]
        expect(s["rank"] == 1 and abs(s["mu"][0][0][0]) == 1 and s["p"] == [4 * s["mu"][0][0][0]],
               "CP3 invariants %s" % s)

    def invariants_cp3_text(out):
        mu = int(re.search(r"mu\(1,1,1\) = (-?\d+)", out).group(1))
        p = int(re.search(r"p1 pairing = \((-?\d+)\)", out).group(1))
        expect("rank H^2 = 1" in out and abs(mu) == 1 and p == 4 * mu, "CP3 invariants text")

    def isos(j):
        expect(j["count"] == 24, "CP3 has 24 signed automorphisms, got %d" % j["count"])
        for iso in j["isomorphisms"]:
            expect(is_signed_iso(_doc_edges(docs["cp3"]), _doc_edges(docs["cp3b"]), iso["vertex_map"], iso["psi"]),
                   "a listed isomorphism is wrong")

    def betti(want):
        return lambda j: expect([r["rank_ordinary"] for r in j["degrees"]] == want, "Betti numbers %s" % j["degrees"])

    surface4 = families.oracle("surface", 4)
    return [
        (["validate", files["cp1^3"]], json_or_text(
            lambda j: expect(j["valid"] and j["vertices"] == 8, "validate"), has("valid: satisfies the GKM conditions"))),
        (["xray", "--example", "tolman"], json_or_text(
            lambda j: counts(j["graph"], 6, 9), lambda out: counts(json.loads(out), 6, 9))),
        (["cohomology", files["surface4"]], json_or_text(
            betti(surface4["betti"]), has("total ordinary rank: %d (fixed points: 8)" % sum(surface4["betti"])))),
        (["cohomology", "--example", "eschenburg"], json_or_text(
            betti([1, 2, 2, 1]), has("total ordinary rank: 6 (fixed points: 6)"))),
        (["classes", "--example", "eschenburg", "--gens", "X1,X2"], json_or_text(
            lambda j: expect(j["classes"]["chern"]["c1"]["poly"] == "4*X1 + 2*X2"
                             and j["classes"]["pontrjagin"]["p1"]["poly"] == "-8*X1*X2", "eschenburg classes"),
            has("c1 = 4*X1 + 2*X2", "p1 = -8*X1*X2"))),
        (["integrate", files["cp3"], "--class", "c1^3"], json_or_text(
            lambda j: expect(j["value"] == 64, "CP3 c1^3 = %s" % j["value"]), has("= 64"))),
        (["integrate", "--example", "woodward", "--class", "p1*c1"], json_or_text(
            lambda j: expect(j["value"] == 16, "woodward p1*c1 = %s" % j["value"]), has("= 16"))),
        (["invariants", files["cp3"]], json_or_text(invariants_cp3, invariants_cp3_text)),
        (["iso", "--signed", files["cp3"], files["cp3b"]], json_or_text(isos, has(": 24 isomorphism(s)"))),
        (["diffeo", "--example", "tolman", "--example", "eschenburg", *esc_flags], json_or_text(
            lambda j: expect(j["status"] == "diffeomorphic", "diffeo status %s" % j["status"]),
            has("tolman vs eschenburg: diffeomorphic"))),
        (["example", "eschenburg"], json_or_text(
            lambda j: counts(j["document"], 6, 9), lambda out: counts(json.loads(out), 6, 9))),
    ]


def cli(rng, walls, tracer, workdir):
    docs = {
        "cp3": families.disguise(families.build("cp", 3), rng),
        "cp3b": families.disguise(families.build("cp", 3), rng),
        "cp1^3": families.disguise(families.build("cp1^", 3), rng),
        "surface4": families.disguise(families.build("surface", 4), rng),
    }
    files = {}
    for key, doc in docs.items():
        path = workdir / (key.replace("^", "x") + ".gkmg")
        path.write_text(json.dumps(doc))
        files[key] = str(path)
    spans_path = workdir / "child-spans.json"
    ops = []
    for args, check in _cli_ops(files, docs):
        for fmt in ("text", "json"):
            argv = ["--format", fmt, *args]

            def check_run(result, check=check, fmt=fmt, argv=argv):
                code, out = result
                expect(code == 0, "gkm %s exited with %d" % (" ".join(argv), code))
                check(fmt, out)

            ops.append(Op("gkm " + " ".join(argv), CliRun(argv, tracer, spans_path), check_run))
    return ops


WORKLOADS = {
    "ring-cold": ring_cold,
    "queries-warm": queries_warm,
    "diffeo": diffeo,
    "cli": cli,
}
