"""The package's top-level names are exactly those README's Library section
imports, and its value records keep a dataclass's repr, == and hash."""

import ast
import importlib
import os
import re

import pytest

import gkmcalc

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_library_names():
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "gkmcalc"
        for alias in node.names
    )


def test_all_is_the_readme_library_import():
    names = readme_library_names()
    assert names and len(names) == len(set(names))
    assert sorted(gkmcalc.__all__) == names


def test_every_exported_name_imports():
    namespace = {}
    exec("from gkmcalc import *", namespace)  # raises if __all__ names a missing attribute
    assert set(gkmcalc.__all__) <= set(namespace)


def test_each_exported_name_is_its_submodules_object():
    for name in gkmcalc.__all__:
        obj = getattr(gkmcalc, name)
        assert obj.__module__.startswith("gkmcalc.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gkmcalc.no_such_name
    assert not hasattr(gkmcalc, "cli_main")


def test_dir_lists_every_exported_name():
    assert set(gkmcalc.__all__) <= set(dir(gkmcalc))


# -- value records: repr in the dataclass format, field-wise == and hash --------


def _records():
    from gkmcalc import charclasses, cohomology, gkm, intlinalg, wjz

    psi = intlinalg.IntMatrix.from_rows([[0, 1], [1, 0]])
    return [
        (gkm.GraphEdge("a", "b", (1, 0), (-1, 0)),
         "GraphEdge(u='a', v='b', weight_at_u=(1, 0), weight_at_v=(-1, 0))"),
        (gkm.Violation("Empty", "the graph has no vertices"),
         "Violation(code='Empty', message='the graph has no vertices')"),
        (gkm.ValidityReport((gkm.Violation("Empty", "the graph has no vertices"),)),
         "ValidityReport(violations=(Violation(code='Empty', message='the graph has no vertices'),))"),
        (gkm.GraphIso((("p1", "p4"), ("p4", "p1")), psi),
         "GraphIso(vertex_map=(('p1', 'p4'), ('p4', 'p1')), psi=IntMatrix([[0, 1], [1, 0]]))"),
        (intlinalg.smith_normal_form(intlinalg.IntMatrix.from_rows([[2, 4]])),
         "SNFDecomposition(U=IntMatrix([[1]]), S=IntMatrix([[2, 0]]), V=IntMatrix([[1, -2], [0, 1]]), "
         "A=IntMatrix([[2, 4]]))"),
        (cohomology.RingElement(2, (1, 0)), "RingElement(degree=2, coords=(1, 0))"),
        (cohomology.GradedBasis([], 0), "GradedBasis(quotient_reps=[], rank=0)"),
        (charclasses.CharClassReport("chern", [{"degree": 2, "coords": (2, 0), "poly": None}], []),
         "CharClassReport(kind='chern', degrees=[{'degree': 2, 'coords': (2, 0), 'poly': None}], generator_names=[])"),
        (wjz.InvariantSystem(1, (((2,),),), (0,), (4,)),
         "InvariantSystem(rank=1, mu=(((2,),),), w=(0,), p=(4,), basis_label='', warnings=())"),
        (wjz.Equivalence(psi), "Equivalence(phi=IntMatrix([[0, 1], [1, 0]]))"),
        (wjz.ProvablyDistinct("vanishing of w2"), "ProvablyDistinct(reason='vanishing of w2')"),
        (wjz.NotFoundWithinBound(3), "NotFoundWithinBound(bound=3)"),
        (wjz.DiffeoVerdict("inconclusive", (), reason="missing"),
         "DiffeoVerdict(status='inconclusive', assumptions=(), reason='missing', graph_iso=None, phi=None, "
         "reversed_orientation_note='', systems=())"),
    ]


@pytest.mark.parametrize("index", range(len(_records())))
def test_record_repr_is_its_dataclass_text(index):
    record, text = _records()[index]
    assert repr(record) == text


@pytest.mark.parametrize("index", range(len(_records())))
def test_records_compare_by_value(index):
    record, _ = _records()[index]
    twin, _ = _records()[index]
    assert twin is not record and twin == record and not twin != record
    assert record != object() and record != "%r" % (record,)


def test_frozen_records_hash_by_value():
    from gkmcalc import gkm, intlinalg

    for index in range(5):  # GraphEdge, Violation, ValidityReport, GraphIso, SNFDecomposition
        assert hash(_records()[index][0]) == hash(_records()[index][0])
    edges = {gkm.GraphEdge("a", "b", (1, 0), (-1, 0)), gkm.GraphEdge("a", "b", (1, 0), (-1, 0))}
    assert len(edges) == 1
    a, b = intlinalg.IntMatrix.from_rows([[2, 4]]), intlinalg.IntMatrix.from_rows([[4, 2]])
    assert intlinalg.smith_normal_form(a) != intlinalg.smith_normal_form(b)


def test_records_of_different_classes_with_equal_fields_differ():
    from gkmcalc import wjz

    assert wjz.ProvablyDistinct(3) != wjz.NotFoundWithinBound(3)
    assert wjz.Equivalence(1) != wjz.ProvablyDistinct(1)


def test_invariant_system_equality_ignores_basis_label_and_warnings():
    from gkmcalc.wjz import InvariantSystem

    plain = InvariantSystem(1, (((2,),),), (0,), (4,))
    labelled = InvariantSystem(1, (((2,),),), (0,), (4,), "X1", ("a warning",))
    assert plain == labelled and not plain != labelled
    assert labelled.reversed_orientation() != labelled and not labelled.reversed_orientation() == labelled
    assert labelled.reversed_orientation().reversed_orientation() == plain
