"""The package's top-level names are exactly those README's Library section
imports."""

import ast
import os
import re

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
