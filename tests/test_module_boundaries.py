"""Modules of gpstack use each other only through public names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gpstack"


def test_no_private_names_imported_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "gpstack":
                continue
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
