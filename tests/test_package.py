"""Package structure: public names resolve, and no module reaches into
another module's private names."""

import ast
import pathlib

import tdbcsim

SRC = pathlib.Path(tdbcsim.__file__).parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders
    assert all(hasattr(tdbcsim, name) for name in tdbcsim.__all__)
