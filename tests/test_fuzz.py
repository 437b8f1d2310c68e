"""Property tests on outside input: the graph and x-ray loaders and
constructors, the generator-file loader and the polynomial parser return a
result or raise a package error, never another exception. Derandomized, so
every run tries the same examples."""

import json
from argparse import Namespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gkmcalc.cli import _generator_basis, main
from gkmcalc.cohomology import GeneratorBasis, ring_of
from gkmcalc.errors import GkmError
from gkmcalc.gkm import (BUILTIN_NAMES, ESCHENBURG_GENERATORS, GKMGraph, XRay, builtin, graph_from_json,
                         graph_from_xray, xray_from_json)
from gkmcalc.polyring import IntPolynomial, PolynomialSyntaxError, parse_polynomial

GRAPH = builtin("eschenburg")
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
gen_names = st.sampled_from(["X1", "X2", "X3"])
components = st.sampled_from(["Y1", "-Y2", "Y1 + Y2", "0", "2*Y1", "Y1^2", "(Y1", "Z1"]) | json_values
classes = (
    st.sampled_from(list(ESCHENBURG_GENERATORS.values()))
    | st.fixed_dictionaries({v: components for v in GRAPH.vertices})
    | st.dictionaries(st.sampled_from(GRAPH.vertices), components, max_size=3)
    | json_values
)
gens_docs = st.fixed_dictionaries({
    "names": st.lists(gen_names, min_size=1, max_size=3) | json_values,
    "classes": st.dictionaries(gen_names, classes, max_size=3) | json_values,
})


@FUZZ
@given(doc=json_values | gens_docs)
def test_generator_file_yields_a_basis_or_a_package_error(tmp_path, doc):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc))
    try:
        gens = _generator_basis(Namespace(gens_file=str(path), gens=None), GRAPH, ring_of(GRAPH))
    except GkmError:
        return
    assert isinstance(gens, GeneratorBasis)


tokens = st.sampled_from(["Y1", "Y2", "Z", "0", "1", "7", "99", "+", "-", "*", "^", "(", ")", " "])


@FUZZ
@given(text=st.lists(tokens, max_size=24).map("".join) | st.text(max_size=16))
def test_parse_yields_a_bounded_polynomial_or_a_syntax_error(text):
    try:
        p = parse_polynomial(text, ["Y1", "Y2"], max_degree=6)
    except PolynomialSyntaxError:
        return
    assert isinstance(p, IntPolynomial)
    assert max(p.degrees(), default=0) <= 6


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in list(items):
        out.append((node, key))
        out.extend(_slots(value))
    return out


@st.composite
def near_miss(draw, valid):
    """A document from `valid`, unchanged or with one value in it replaced
    by arbitrary JSON or, in an object, removed."""
    doc = draw(valid)
    slots = _slots(doc)
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
    return doc


names = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5, unique=True)


@st.composite
def graph_docs(draw):
    k = draw(st.integers(1, 2))
    vertices = draw(names)
    edge = st.fixed_dictionaries({"from": st.sampled_from(vertices), "to": st.sampled_from(vertices),
                                  "weight_at_from": st.lists(st.integers(-2, 2), min_size=k, max_size=k)})
    return {"format": "gkmg/1", "torus_rank": k, "signed": draw(st.booleans()), "vertices": vertices,
            "edges": draw(st.lists(edge, max_size=8))}


@st.composite
def xray_docs(draw):
    k = draw(st.integers(1, 2))
    vertices = draw(names)
    coordinate = st.integers(-3, 3) | st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    return {"format": "xray/1", "torus_rank": k,
            "vertices": {v: draw(st.lists(coordinate, min_size=k, max_size=k)) for v in vertices},
            "edges": draw(st.lists(st.lists(st.sampled_from(vertices), min_size=2, max_size=2), max_size=8))}


@FUZZ
@given(doc=json_values | near_miss(graph_docs()))
def test_graph_loader_yields_a_graph_or_a_package_error(doc):
    try:
        g = graph_from_json(doc)
    except GkmError:
        return
    assert isinstance(g, GKMGraph)
    assert g.validate().valid in (True, False)


@FUZZ
@given(doc=json_values | near_miss(xray_docs()))
def test_xray_loader_yields_a_graph_or_a_package_error(doc):
    try:
        g = graph_from_xray(xray_from_json(doc))
    except GkmError:
        return
    assert isinstance(g, GKMGraph)


# what a caller of the Python constructors can pass: nested lists, tuples and
# dicts of ints, strings, booleans and None
py_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=4)),
    max_leaves=12,
)
vertex = st.sampled_from(["a", "b", "c"])
point = st.lists(st.integers(-2, 2), min_size=1, max_size=3)


@FUZZ
@given(
    rank=st.integers(1, 2) | py_values,
    vertices=st.lists(vertex, max_size=3) | py_values,
    edges=st.lists(st.tuples(vertex, vertex, point) | st.tuples(vertex, vertex, point, point) | py_values,
                   max_size=3) | py_values,
    signed=st.booleans() | py_values,
)
def test_graph_constructor_yields_a_graph_or_a_package_error(rank, vertices, edges, signed):
    try:
        g = GKMGraph(rank, vertices, edges, signed=signed)
    except GkmError:
        return
    assert g.validate().valid in (True, False)


@FUZZ
@given(
    rank=st.integers(1, 2) | py_values,
    vertices=st.dictionaries(vertex, point | py_values, max_size=3) | py_values,
    edges=st.lists(st.tuples(vertex, vertex) | py_values, max_size=3) | py_values,
)
def test_xray_constructor_yields_an_xray_or_a_package_error(rank, vertices, edges):
    try:
        x = XRay(rank, vertices, edges)
    except GkmError:
        return
    assert isinstance(x.validate(), list)


FILES = ["eschenburg.graph", "eschenburg.xray", "tolman.graph", "tolman.xray"]
# an input is a built-in --example name, a path to a file the test writes,
# or arbitrary text as either; one or two inputs, what the verbs take, are
# drawn as often as any other count
ref = (st.tuples(st.just("example"), st.sampled_from(BUILTIN_NAMES))
       | st.tuples(st.just("path"), st.sampled_from(FILES))
       | st.tuples(st.sampled_from(["path", "example"]), st.text(max_size=8)))
inputs = st.lists(ref, min_size=1, max_size=1) | st.lists(ref, min_size=2, max_size=2) | st.lists(ref, max_size=3)
texts = st.sampled_from(["X1,X2", "c1^3", "c1*p1", "X1^3"]) | st.text(max_size=12)
# negative, small and past any ceiling; no in-range bound above 2, which
# would make one example slow
ints = (st.integers(-3, 2) | st.integers(1001, 10**12)).map(str)


def option(*flag_and_values):
    """Nothing, or the flag followed by one drawn value (if it takes one)."""
    flag, *values = flag_and_values
    return st.just([]) | st.tuples(st.just(flag), *values).map(list)


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


VERB_OPTIONS = {
    "example": joined((st.sampled_from(BUILTIN_NAMES) | st.text(max_size=8)).map(lambda n: [n]), option("--xray")),
    "validate": st.just([]),
    "xray": st.just([]),
    "cohomology": option("--max-degree", ints),
    "classes": option("--gens", texts),
    "integrate": joined(texts.map(lambda c: ["--class", c]), option("--gens", texts)),
    "invariants": option("--gens", texts),
    "iso": option("--signed"),
    "diffeo": joined(option("--bound", ints), option("--assume-simply-connected"), option("--assume-h-odd-zero")),
}


@FUZZ
@given(
    fmt=st.sampled_from(["text", "json"]),
    verb_options=st.sampled_from(sorted(VERB_OPTIONS)).flatmap(lambda v: st.tuples(st.just(v), VERB_OPTIONS[v])),
    refs=inputs,
)
def test_cli_verbs_exit_with_a_documented_code(tmp_path, capsys, fmt, verb_options, refs):
    for key in FILES:
        name, kind = key.split(".")
        (tmp_path / key).write_text(json.dumps(builtin(name, kind=kind).to_json()))
    verb, options = verb_options
    argv = ["--format", fmt, verb, *options]
    if verb != "example":  # which takes its NAME among its options
        for mode, ref in refs:
            argv += ["--example", ref] if mode == "example" else [str(tmp_path / ref) if ref in FILES else ref]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2, 3), argv
    capsys.readouterr()
