"""Command-line frontend.

Each verb computes its result once, as one JSON-ready payload, and returns
it with the text lines rendered from that payload's values (plus, for verbs
on one graph, a header line of graph metadata) and its exit code. `main` is
the only place that prints: the payload with `--format json`, the lines
otherwise. Each verb imports the modules past `gkm` that it runs, so that
validate, xray, iso and example load no cohomology.

Exit codes: 0 success, 1 computation or validation error, 2 usage error,
3 inconclusive diffeomorphism verdict.
"""

import argparse
import json
import re
import sys

from . import gkm
from .errors import MAX_BOUND, GkmError, SchemaError, int_digit_limit
from .gkm import GKMGraph, XRay, builtin, find_isomorphisms, graph_from_xray, load_input


class UsageError(GkmError):
    pass


def _require_inputs(args, count):
    """Raise a UsageError unless there are `count` paths and --example
    names together."""
    got = len(args.inputs) + len(args.example or [])
    if got != count:
        raise UsageError("expected %d input(s) (paths or --example), got %d" % (count, got))


def _resolve_inputs(args, count):
    """Positional paths and --example names, in order, as graphs. The
    library checks the GKM conditions where a computation needs them."""
    _require_inputs(args, count)
    refs = [(load_input, path) for path in args.inputs] + [(builtin, name) for name in args.example or []]
    out = []
    for load, ref in refs:
        g = load(ref)
        if isinstance(g, XRay):
            g = graph_from_xray(g)
        out.append(g)
    return out


def _graph_header(g: GKMGraph):
    return "graph: %s (%d vertices, %d edges, torus rank %d, %s)" % (
        g.name or "<unnamed>",
        len(g.vertices),
        len(g.edges),
        g.torus_rank,
        "signed" if g.signed else "unsigned",
    )


def _write_or_dump(doc, path):
    """Write `doc` to `path` and say so; with no path, the JSON text itself."""
    if not path:
        return [json.dumps(doc, indent=2)]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return ["wrote %s" % path]


def _generator_basis(args, graph, ring):
    """GeneratorBasis from --gens / --gens-file, or None."""
    from .cohomology import FixedPointClass, GeneratorBasis
    if args.gens_file:
        data = gkm.read_json(args.gens_file)
        if not isinstance(data, dict):
            raise SchemaError("generator file must be a JSON object")
        names = data.get("names")
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise SchemaError("generator file needs 'names', a non-empty list of strings")
        bindings = data.get("classes", {})
        if not (isinstance(bindings, dict) and all(
            isinstance(c, dict) and all(isinstance(p, str) for p in c.values()) for c in bindings.values()
        )):
            raise SchemaError("generator file 'classes' must map each name to an object of polynomial strings")
        for n in names:
            if re.fullmatch(r"[cpw][0-9]+", n):
                raise SchemaError("generator name %r is reserved for a characteristic class" % n)
        missing = "generator file missing class for %r"
    elif args.gens:
        names = [n.strip() for n in args.gens.split(",") if n.strip()]
        bindings = gkm.builtin_generators(graph)
        if bindings is None:
            raise SchemaError(
                "no built-in generator bindings for this graph; use --gens-file"
            )
        missing = "unknown built-in generator %%r (have: %s)" % ", ".join(sorted(bindings))
    else:
        return None
    classes = []
    for n in names:
        if n not in bindings:
            raise SchemaError(missing % n)
        classes.append(FixedPointClass.from_strings(graph, bindings[n], max_degree=2))
    return GeneratorBasis(ring, names, classes)


# -- verbs: each returns (payload, text lines, exit code) ---------------------


def _cmd_validate(args):
    [g] = _resolve_inputs(args, 1)
    report = g.validate()
    payload = {
        "command": "validate",
        "graph": g.name,
        "valid": report.valid,
        "violations": [{"code": v.code, "message": v.message} for v in report.violations],
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "valence": g.valence,
        "torus_rank": g.torus_rank,
        "signed": g.signed,
        "all_labels_primitive": gkm.all_labels_primitive(g),
    }
    lines = [_graph_header(g)]
    if payload["valid"]:
        lines.append("valid: satisfies the GKM conditions")
    else:
        lines.append("INVALID:")
        lines.extend("  %(code)s: %(message)s" % v for v in payload["violations"])
    lines.append(
        "all edge labels primitive: %s (supporting evidence for connected "
        "isotropy, not a proof)" % ("yes" if payload["all_labels_primitive"] else "no")
    )
    return payload, lines, 0 if payload["valid"] else 1


def _cmd_xray(args):
    _require_inputs(args, 1)
    xray = builtin(args.example[0], kind="xray") if args.example else load_input(args.inputs[0])
    if isinstance(xray, GKMGraph):
        raise SchemaError("xray expects an x-ray file, got a graph file")
    if args.svg and xray.torus_rank < 2:
        raise UsageError("--svg draws the first two coordinates, but the torus rank is %d" % xray.torus_rank)
    g = graph_from_xray(xray)
    payload = {"command": "xray", "graph": g.to_json()}
    lines = _write_or_dump(payload["graph"], args.output)
    if args.output:
        lines.append(_graph_header(g))
    if args.svg:
        _write_svg(xray, args.svg)
        lines.append("wrote %s" % args.svg)
    return payload, lines, 0


def _write_svg(xray: XRay, path):
    xs = [float(c[0]) for c in xray.vertices.values()]
    ys = [float(c[1]) for c in xray.vertices.values()]
    pad = 1.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = 60.0

    def pt(v):
        c = xray.vertices[v]
        return (float(c[0]) - x0) * scale, (y1 - float(c[1])) * scale

    w, h = (x1 - x0) * scale, (y1 - y0) * scale
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f">' % (w, h)]
    for u, v in xray.edges:
        (ax, ay), (bx, by) = pt(u), pt(v)
        parts.append(
            '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="2"/>'
            % (ax, ay, bx, by)
        )
    for name in xray.vertices:
        cx, cy = pt(name)
        parts.append('<circle cx="%.1f" cy="%.1f" r="5" fill="black"/>' % (cx, cy))
        parts.append('<text x="%.1f" y="%.1f" font-size="14">%s</text>' % (cx + 8, cy - 8, name))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_cohomology(args):
    from .cohomology import ring_of
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    top = args.max_degree if args.max_degree is not None else ring.dim
    if not 0 <= top <= ring.dim:
        raise UsageError("--max-degree must lie in 0..%d, got %d" % (ring.dim, top))
    rows = []
    for d in range(0, top + 1, 2):
        gb = ring.ordinary(d)
        rows.append({"degree": d, "rank_equivariant": gb.rank, "rank_ordinary": len(gb.quotient_reps)})
    payload = {
        "command": "cohomology",
        "graph": g.name,
        "degrees": rows,
        "total_ordinary_rank": sum(r["rank_ordinary"] for r in rows),
        "fixed_points": len(g.vertices),
    }
    lines = [_graph_header(g), "degree  rank H^d_T-part  rank H^d"]
    for r in rows:
        lines.append("%(degree)6d  %(rank_equivariant)15d  %(rank_ordinary)8d" % r)
    lines.append("total ordinary rank: %(total_ordinary_rank)d (fixed points: %(fixed_points)d)" % payload)
    return payload, lines, 0


# c_j sits in degree 2j, p_j in degree 4j, w_j in degree j
_CLASS_KEYS = {"chern": ("c", 2), "pontrjagin": ("p", 4), "stiefel_whitney": ("w", 1)}


def _class_key(kind, degree):
    """The name (c1, p1, w2, ...) of the part of a class in `degree`, or
    None when the class has no part there."""
    label, step = _CLASS_KEYS[kind]
    return None if degree % step else "%s%d" % (label, degree // step)


def _cmd_classes(args):
    from .charclasses import KINDS, descend, equivariant_char_class
    from .cohomology import ring_of
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    gens = _generator_basis(args, g, ring)
    kinds = list(KINDS)
    notices = []
    if not g.signed:
        kinds.remove("chern")
        notices.append("unsigned graph: Chern classes skipped (Pontrjagin and Stiefel-Whitney are sign-independent)")
    payload = {"command": "classes", "graph": g.name, "notices": notices, "classes": {}}
    if gens:
        payload["generators"] = gens.names
    for kind in kinds:
        entry = payload["classes"][kind] = {}
        for e in descend(g, equivariant_char_class(g, kind), gens).degrees:
            key = _class_key(kind, e["degree"])
            if key is not None:
                entry[key] = {"degree": e["degree"], "coords": list(e["coords"])}
                if e["poly"] is not None:
                    entry[key]["poly"] = e["poly"]
    lines = [_graph_header(g)]
    lines.extend("note: %s" % n for n in notices)
    for entry in payload["classes"].values():
        for key, part in entry.items():
            lines.append("%s = %s" % (key, part.get("poly", "coords %s" % (part["coords"],))))
    return payload, lines, 0


def _cmd_integrate(args):
    from .charclasses import equivariant_char_class, localize_integral
    from .cohomology import evaluate_class_polynomial, ring_of
    from .polyring import exceeds_digit_limit, parse_polynomial
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    gens = _generator_basis(args, g, ring)
    # addressable symbols: Chern parts c1..cn (signed graphs), Pontrjagin
    # parts p1.., and the named generators when provided
    symbols = {}
    for kind in ("chern", "pontrjagin") if g.signed else ("pontrjagin",):
        total = equivariant_char_class(g, kind)
        for d in range(2, ring.dim + 1, 2):
            key = _class_key(kind, d)
            if key is not None:
                symbols[key] = total.homogeneous_component(d)
    if gens:
        for name, cls in zip(gens.names, gens.classes):
            symbols[name] = cls
    names = sorted(symbols)
    # every symbol has degree >= 2, so the parser's degree is a lower bound
    poly = parse_polynomial(args.cls, names, max_degree=ring.dim)
    value_cls = evaluate_class_polynomial(g, [symbols[n] for n in names], poly)
    if not value_cls.is_homogeneous():
        raise SchemaError("integrand is not homogeneous (degrees %s)" % value_cls.degrees())
    value = localize_integral(g, value_cls)
    # the value must print: past the int-to-str digit limit, neither the
    # text nor the JSON rendering can write it
    if exceeds_digit_limit(value):
        raise GkmError("the integral has more than %d digits, the integer printing limit" % int_digit_limit())
    payload = {
        "command": "integrate",
        "graph": g.name,
        "class": args.cls,
        "degree": value_cls.degree() or 0,
        "value": value,
    }
    lines = [_graph_header(g), "integral of %(class)s (degree %(degree)d) = %(value)d" % payload]
    return payload, lines, 0


def _cmd_invariants(args):
    from .cohomology import ring_of
    from .wjz import invariant_system
    [g] = _resolve_inputs(args, 1)
    gens = _generator_basis(args, g, ring_of(g))
    payload = {"command": "invariants", "graph": g.name, "system": invariant_system(g, gens=gens).to_json()}
    s = payload["system"]
    lines = [_graph_header(g), "basis: %s" % s["basis"], "rank H^2 = %d" % s["rank"]]
    for a in range(s["rank"]):
        for b in range(a, s["rank"]):
            for c in range(b, s["rank"]):
                lines.append("mu(%d,%d,%d) = %d" % (a + 1, b + 1, c + 1, s["mu"][a][b][c]))
    lines.append("w2 = (%s)" % ", ".join(str(x) for x in s["w"]))
    lines.append("p1 pairing = (%s)" % ", ".join(str(x) for x in s["p"]))
    lines.extend("warning: %s" % msg for msg in s.get("warnings", ()))
    return payload, lines, 0


def _cmd_iso(args):
    g1, g2 = _resolve_inputs(args, 2)
    isos = find_isomorphisms(g1, g2, signed=args.signed)
    payload = {
        "command": "iso",
        "signed": bool(args.signed),
        "graphs": [g1.name, g2.name],
        "count": len(isos),
        "isomorphisms": [
            {"vertex_map": dict(i.vertex_map), "psi": i.psi.to_rows(), "det": i.psi.det()}
            for i in isos
        ],
    }
    lines = [
        "%s -> %s (%s labels): %d isomorphism(s)"
        % (g1.name or "A", g2.name or "B", "signed" if args.signed else "unsigned", len(isos))
    ]
    for i in payload["isomorphisms"]:
        lines.append("  map %s" % (i["vertex_map"],))
        lines.append("  psi %(psi)s (det %(det)d)" % i)
    return payload, lines, 0


def _cmd_diffeo(args):
    from .wjz import diffeo_verdict
    if not 0 <= args.bound <= MAX_BOUND:
        raise UsageError("--bound must lie in 0..%d, got %d" % (MAX_BOUND, args.bound))
    g1, g2 = _resolve_inputs(args, 2)
    verdict = diffeo_verdict(g1, g2, assume_simply_connected=args.assume_simply_connected,
                             assume_h_odd_zero=args.assume_h_odd_zero, bound=args.bound)
    payload = {
        "command": "diffeo",
        "graphs": [g1.name, g2.name],
        "status": verdict.status,
        "assumptions": list(verdict.assumptions),
        "reason": verdict.reason,
        "all_labels_primitive": gkm.all_labels_primitive(g1) and gkm.all_labels_primitive(g2),
    }
    if verdict.graph_iso is not None:
        payload["graph_iso"] = {
            "vertex_map": dict(verdict.graph_iso.vertex_map),
            "psi": verdict.graph_iso.psi.to_rows(),
        }
    if verdict.phi is not None:
        payload["phi"] = verdict.phi.to_rows()
    if verdict.systems:
        payload["systems"] = [s.to_json() for s in verdict.systems]
    if verdict.reversed_orientation_note:
        payload["orientation_note"] = verdict.reversed_orientation_note
    lines = ["%s vs %s: %s" % (g1.name or "A", g2.name or "B", payload["status"])]
    lines.append("reason: %s" % payload["reason"])
    if payload["assumptions"]:
        lines.append("assumed: %s" % ", ".join(payload["assumptions"]))
    lines.append(
        "all edge labels primitive: %s (evidence toward the isotropy "
        "hypothesis, not a proof)" % ("yes" if payload["all_labels_primitive"] else "no")
    )
    if "graph_iso" in payload:
        lines.append("graph isomorphism witness: %(vertex_map)s, psi %(psi)s" % payload["graph_iso"])
    if "phi" in payload:
        lines.append("equivalence Phi: %s" % (payload["phi"],))
    if "orientation_note" in payload:
        lines.append("note: %s" % payload["orientation_note"])
    return payload, lines, 3 if payload["status"] == "inconclusive" else 0


def _cmd_example(args):
    obj = builtin(args.name, kind="xray" if args.xray else "graph")
    payload = {"command": "example", "name": args.name, "document": obj.to_json()}
    return payload, _write_or_dump(payload["document"], args.output), 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="Exact invariants of (signed) GKM graphs of 6-manifolds: "
        "integer cohomology, characteristic classes, and the "
        "Wall-Jupp-Zubr diffeomorphism oracle.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_inputs(p, gens=False):
        p.add_argument("inputs", nargs="*", metavar="FILE", help="gkmg or xray JSON file")
        p.add_argument("--example", action="append", metavar="NAME", help="built-in example (%s)" % ", ".join(gkm.BUILTIN_NAMES))
        if gens:
            p.add_argument("--gens", metavar="NAMES", help="comma-separated built-in generator names (e.g. X1,X2)")
            p.add_argument("--gens-file", metavar="FILE", help="JSON file with user degree-2 generator classes")

    p = sub.add_parser("validate", help="check the GKM conditions")
    add_inputs(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("xray", help="derive the signed GKM graph of an x-ray")
    add_inputs(p)
    p.add_argument("-o", "--output", metavar="OUT.gkmg")
    p.add_argument("--svg", metavar="OUT.svg", help="also draw the x-ray")
    p.set_defaults(func=_cmd_xray)

    p = sub.add_parser("cohomology", help="equivariant and ordinary ranks per degree")
    add_inputs(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("classes", help="Chern, Pontrjagin and Stiefel-Whitney classes")
    add_inputs(p, gens=True)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("integrate", help="exact localization integral of a class expression")
    add_inputs(p, gens=True)
    p.add_argument("--class", dest="cls", required=True, metavar="EXPR", help="e.g. 'c1^3' or '(4*X1 + 2*X2)^3' with --gens")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("invariants", help="Wall-Jupp-Zubr system of invariants")
    add_inputs(p, gens=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("iso", help="all labeled isomorphisms between two GKM graphs")
    add_inputs(p)
    p.add_argument("--signed", action="store_true", help="match signed labels exactly")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("diffeo", help="diffeomorphism oracle for two signed valence-3 graphs")
    add_inputs(p)
    p.add_argument("--assume-simply-connected", action="store_true")
    p.add_argument("--assume-h-odd-zero", action="store_true")
    p.add_argument("--bound", type=int, default=10, help="entry bound for the equivalence search, 0..%d" % MAX_BOUND)
    p.set_defaults(func=_cmd_diffeo)

    p = sub.add_parser("example", help="write a built-in example file")
    p.add_argument("name", metavar="NAME")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--xray", action="store_true", help="x-ray form instead of the graph")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.format == "json" else "\n".join(lines))
        return code
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (GkmError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
