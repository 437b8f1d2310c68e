"""Command-line frontend.

Exit codes: 0 success, 1 computation or validation error, 2 usage error,
3 inconclusive diffeomorphism verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gkm
from .charclasses import (
    KINDS,
    descend,
    equivariant_char_class,
    localize_integral,
)
from .cohomology import (
    FixedPointClass,
    GeneratorBasis,
    evaluate_class_polynomial,
    ring_of,
)
from .errors import GkmError, SchemaError
from .gkm import GKMGraph, XRay, builtin, find_isomorphisms, graph_from_xray, load_input
from .polyring import parse_polynomial
from .wjz import diffeo_verdict, invariant_system


class UsageError(GkmError):
    pass


def _resolve_inputs(args, count, validate=True):
    """Positional paths and --example names, in order, as graphs."""
    items = []
    for path in args.inputs:
        items.append(("path", path))
    for name in args.example or []:
        items.append(("example", name))
    if len(items) != count:
        raise UsageError(
            "expected %d input(s) (paths or --example), got %d" % (count, len(items))
        )
    out = []
    for kind, ref in items:
        if kind == "example":
            g = builtin(ref)
        else:
            obj = load_input(ref)
            if isinstance(obj, XRay):
                obj = graph_from_xray(obj)
            g = obj
        if validate and not args.no_validate:
            g.require_valid()
        out.append(g)
    return out


def _emit(args, text_lines, payload):
    """Text or JSON output with identical numeric content."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _graph_header(g: GKMGraph):
    return "graph: %s (%d vertices, %d edges, torus rank %d, %s)" % (
        g.name or "<unnamed>",
        len(g.vertices),
        len(g.edges),
        g.torus_rank,
        "signed" if g.signed else "unsigned",
    )


def _generator_basis(args, graph, ring):
    """GeneratorBasis from --gens / --gens-file, or None."""
    names = None
    classes = None
    if getattr(args, "gens_file", None):
        with open(args.gens_file) as fh:
            data = json.load(fh)
        names = data.get("names")
        if not names:
            raise SchemaError("generator file needs a 'names' list")
        classes = []
        for n in names:
            if n not in data.get("classes", {}):
                raise SchemaError("generator file missing class for %r" % n)
            classes.append(FixedPointClass.from_strings(graph, data["classes"][n]))
    elif getattr(args, "gens", None):
        names = [n.strip() for n in args.gens.split(",") if n.strip()]
        bindings = gkm.builtin_generators(graph)
        if bindings is None:
            raise SchemaError(
                "no built-in generator bindings for this graph; use --gens-file"
            )
        classes = []
        for n in names:
            if n not in bindings:
                raise SchemaError("unknown built-in generator %r (have: %s)" % (n, ", ".join(sorted(bindings))))
            classes.append(FixedPointClass.from_strings(graph, bindings[n]))
    if names is None:
        return None
    return GeneratorBasis(ring, names, classes)


# -- verbs -------------------------------------------------------------------


def _cmd_validate(args):
    [g] = _resolve_inputs(args, 1, validate=False)
    report = g.validate()
    primitive = gkm.all_labels_primitive(g)
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
        "all_labels_primitive": primitive,
    }
    lines = [_graph_header(g)]
    if report.valid:
        lines.append("valid: satisfies the GKM conditions")
    else:
        lines.append("INVALID:")
        lines.extend("  %s" % v for v in report.violations)
    lines.append(
        "all edge labels primitive: %s (supporting evidence for connected "
        "isotropy, not a proof)" % ("yes" if primitive else "no")
    )
    _emit(args, lines, payload)
    return 0 if report.valid else 1


def _cmd_xray(args):
    if args.example:
        xray = builtin(args.example[0], kind="xray")
    elif args.inputs:
        obj = load_input(args.inputs[0])
        if isinstance(obj, GKMGraph):
            raise SchemaError("xray expects an x-ray file, got a graph file")
        xray = obj
    else:
        raise SchemaError("xray needs an input file or --example")
    g = graph_from_xray(xray)
    doc = g.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        lines = ["wrote %s" % args.output, _graph_header(g)]
    else:
        lines = [json.dumps(doc, indent=2)]
    if args.svg:
        _write_svg(xray, args.svg)
        lines.append("wrote %s" % args.svg)
    _emit(args, lines, {"command": "xray", "graph": doc})
    return 0


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
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    top = args.max_degree if args.max_degree is not None else ring.dim
    if not 0 <= top <= ring.dim:
        raise UsageError("--max-degree must lie in 0..%d, got %d" % (ring.dim, top))
    degrees = list(range(0, top + 1, 2))
    rows = []
    for d in degrees:
        gb = ring.ordinary(d)
        rows.append({"degree": d, "rank_equivariant": len(gb.classes), "rank_ordinary": gb.quotient_rank})
    total = sum(r["rank_ordinary"] for r in rows)
    lines = [_graph_header(g), "degree  rank H^d_T-part  rank H^d"]
    for r in rows:
        lines.append("%6d  %15d  %8d" % (r["degree"], r["rank_equivariant"], r["rank_ordinary"]))
    lines.append("total ordinary rank: %d (fixed points: %d)" % (total, len(g.vertices)))
    payload = {
        "command": "cohomology",
        "graph": g.name,
        "degrees": rows,
        "total_ordinary_rank": total,
        "fixed_points": len(g.vertices),
    }
    _emit(args, lines, payload)
    return 0


_CLASS_LABELS = {"chern": "c", "pontrjagin": "p", "stiefel_whitney": "w"}


def _cmd_classes(args):
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    gens = _generator_basis(args, g, ring)
    kinds = list(KINDS)
    notices = []
    if not g.signed:
        kinds.remove("chern")
        notices.append("unsigned graph: Chern classes skipped (Pontrjagin and Stiefel-Whitney are sign-independent)")
    lines = [_graph_header(g)]
    lines.extend("note: %s" % n for n in notices)
    payload = {"command": "classes", "graph": g.name, "notices": notices, "classes": {}}
    if gens:
        payload["generators"] = gens.names
    for kind in kinds:
        total = equivariant_char_class(g, kind)
        report = descend(g, total, gens)
        label = _CLASS_LABELS[kind]
        entry = {}
        for e in report.degrees:
            d = e["degree"]
            # c_j sits in degree 2j, p_j in degree 4j, w_j in degree j
            if kind == "chern":
                key = "c%d" % (d // 2)
            elif kind == "pontrjagin":
                if d % 4:
                    continue
                key = "p%d" % (d // 4)
            else:
                key = "w%d" % d
            entry[key] = {"degree": d, "coords": list(e["coords"])}
            if e["poly"] is not None:
                entry[key]["poly"] = e["poly"]
            shown = e["poly"] if e["poly"] is not None else "coords %s" % (list(e["coords"]),)
            lines.append("%s = %s" % (key, shown))
        payload["classes"][kind] = entry
    _emit(args, lines, payload)
    return 0


def _cmd_integrate(args):
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    gens = _generator_basis(args, g, ring)
    # addressable symbols: Chern parts c1..cn (signed graphs), Pontrjagin
    # parts p1.., and the named generators when provided
    symbols = {}
    if g.signed:
        chern = equivariant_char_class(g, "chern")
        for j in range(1, g.valence + 1):
            symbols["c%d" % j] = chern.homogeneous_component(2 * j)
    pont = equivariant_char_class(g, "pontrjagin")
    for j in range(1, g.valence // 2 + 1):
        symbols["p%d" % j] = pont.homogeneous_component(4 * j)
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
    deg = value_cls.degree() or 0
    lines = [
        _graph_header(g),
        "integral of %s (degree %d) = %d" % (args.cls, deg, value),
    ]
    payload = {
        "command": "integrate",
        "graph": g.name,
        "class": args.cls,
        "degree": deg,
        "value": value,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_invariants(args):
    [g] = _resolve_inputs(args, 1)
    ring = ring_of(g)
    gens = _generator_basis(args, g, ring)
    system = invariant_system(g, gens=gens)
    payload = {"command": "invariants", "graph": g.name, "system": system.to_json()}
    lines = [_graph_header(g), "basis: %s" % system.basis_label, "rank H^2 = %d" % system.rank]
    for a in range(system.rank):
        for b in range(a, system.rank):
            for c in range(b, system.rank):
                lines.append("mu(%d,%d,%d) = %d" % (a + 1, b + 1, c + 1, system.mu[a][b][c]))
    lines.append("w2 = (%s)" % ", ".join(str(x) for x in system.w))
    lines.append("p1 pairing = (%s)" % ", ".join(str(x) for x in system.p))
    for msg in system.warnings:
        lines.append("warning: %s" % msg)
    _emit(args, lines, payload)
    return 0


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
    for i in isos:
        lines.append("  map %s" % (dict(i.vertex_map),))
        lines.append("  psi %s (det %d)" % (i.psi.to_rows(), i.psi.det()))
    _emit(args, lines, payload)
    return 0


def _cmd_diffeo(args):
    if args.bound < 0:
        raise UsageError("--bound must be nonnegative, got %d" % args.bound)
    g1, g2 = _resolve_inputs(args, 2)
    verdict = diffeo_verdict(
        g1,
        g2,
        assume_simply_connected=args.assume_simply_connected,
        assume_h_odd_zero=args.assume_h_odd_zero,
        bound=args.bound,
    )
    primitive = gkm.all_labels_primitive(g1) and gkm.all_labels_primitive(g2)
    payload = {
        "command": "diffeo",
        "graphs": [g1.name, g2.name],
        "status": verdict.status,
        "assumptions": list(verdict.assumptions),
        "reason": verdict.reason,
        "all_labels_primitive": primitive,
    }
    lines = ["%s vs %s: %s" % (g1.name or "A", g2.name or "B", verdict.status)]
    lines.append("reason: %s" % verdict.reason)
    if verdict.assumptions:
        lines.append("assumed: %s" % ", ".join(verdict.assumptions))
    lines.append(
        "all edge labels primitive: %s (evidence toward the isotropy "
        "hypothesis, not a proof)" % ("yes" if primitive else "no")
    )
    if verdict.graph_iso is not None:
        payload["graph_iso"] = {
            "vertex_map": dict(verdict.graph_iso.vertex_map),
            "psi": verdict.graph_iso.psi.to_rows(),
        }
        lines.append("graph isomorphism witness: %s, psi %s" % (dict(verdict.graph_iso.vertex_map), verdict.graph_iso.psi.to_rows()))
    if verdict.phi is not None:
        payload["phi"] = verdict.phi.to_rows()
        lines.append("equivalence Phi: %s" % (verdict.phi.to_rows(),))
    if verdict.systems:
        payload["systems"] = [s.to_json() for s in verdict.systems]
    if verdict.reversed_orientation_note:
        payload["orientation_note"] = verdict.reversed_orientation_note
        lines.append("note: %s" % verdict.reversed_orientation_note)
    _emit(args, lines, payload)
    return 0 if verdict.status != "inconclusive" else 3


def _cmd_example(args):
    kind = "xray" if args.xray else "graph"
    obj = builtin(args.name, kind=kind)
    doc = obj.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        lines = ["wrote %s" % args.output]
    else:
        lines = [json.dumps(doc, indent=2)]
    _emit(args, lines, {"command": "example", "name": args.name, "document": doc})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="Exact invariants of (signed) GKM graphs of 6-manifolds: "
        "integer cohomology, characteristic classes, and the "
        "Wall-Jupp-Zubr diffeomorphism oracle.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--no-validate", action="store_true", help="skip GKM validation of parsed inputs")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_inputs(p, n):
        p.add_argument("inputs", nargs="*", metavar="FILE", help="gkmg or xray JSON file")
        p.add_argument("--example", action="append", metavar="NAME", help="built-in example (%s)" % ", ".join(gkm.BUILTIN_NAMES))

    p = sub.add_parser("validate", help="check the GKM conditions")
    add_inputs(p, 1)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("xray", help="derive the signed GKM graph of an x-ray")
    add_inputs(p, 1)
    p.add_argument("-o", "--output", metavar="OUT.gkmg")
    p.add_argument("--svg", metavar="OUT.svg", help="also draw the x-ray")
    p.set_defaults(func=_cmd_xray)

    p = sub.add_parser("cohomology", help="equivariant and ordinary ranks per degree")
    add_inputs(p, 1)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("classes", help="Chern, Pontrjagin and Stiefel-Whitney classes")
    add_inputs(p, 1)
    p.add_argument("--gens", metavar="NAMES", help="comma-separated built-in generator names (e.g. X1,X2)")
    p.add_argument("--gens-file", metavar="FILE", help="JSON file with user degree-2 generator classes")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("integrate", help="exact localization integral of a class expression")
    add_inputs(p, 1)
    p.add_argument("--class", dest="cls", required=True, metavar="EXPR", help="e.g. 'c1^3' or '(4*X1 + 2*X2)^3' with --gens")
    p.add_argument("--gens", metavar="NAMES")
    p.add_argument("--gens-file", metavar="FILE")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("invariants", help="Wall-Jupp-Zubr system of invariants")
    add_inputs(p, 1)
    p.add_argument("--gens", metavar="NAMES")
    p.add_argument("--gens-file", metavar="FILE")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("iso", help="all labeled isomorphisms between two graphs")
    add_inputs(p, 2)
    p.add_argument("--signed", action="store_true", help="match signed labels exactly")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("diffeo", help="diffeomorphism oracle for two signed valence-3 graphs")
    add_inputs(p, 2)
    p.add_argument("--assume-simply-connected", action="store_true")
    p.add_argument("--assume-h-odd-zero", action="store_true")
    p.add_argument("--bound", type=int, default=10, help="entry bound for the equivalence search")
    p.set_defaults(func=_cmd_diffeo)

    p = sub.add_parser("example", help="write a built-in example file")
    p.add_argument("name", metavar="NAME")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--xray", action="store_true", help="x-ray form instead of the graph")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except (GkmError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
