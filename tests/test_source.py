"""Source hygiene: every module of the package uses what it imports,
imports nothing that costs every CLI call a cold start it does not need,
and every public function or class has a reader in the package."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import infker

MODULES = sorted(path for path in pathlib.Path(infker.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport re\n"
              "from typing import Optional, Sequence as Seq\n\nx: Seq = re.compile('')\n")
    assert unused_imports(source) == ["Optional", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules an import statement loads."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    return {name.split(".")[0] for name in names}


def test_imported_modules_are_found():
    source = ("import os.path\nfrom dataclasses import replace\nfrom . import errors\n"
              "def f():\n    import json\n")
    assert imported_modules(source) == {"os", "dataclasses", "json"}


#: Modules the CLI's import must not load: ``dataclasses`` compiles every
#: record's methods with ``exec`` and pulls in the rest to inspect them.
COLD_START_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_loads_no_introspection_modules():
    """A fresh interpreter imports ``infker.cli``; of the excluded modules,
    it may hold only those that were loaded before the import."""
    src = str(pathlib.Path(infker.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys\nbefore = set(sys.modules)\nimport infker.cli\n"
            f"print(sorted(set({COLD_START_EXCLUDED!r}) & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def constructors(source: str, name: str) -> list:
    """Line numbers where ``name`` is called, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None))]


def test_constructors_are_found():
    source = "import errors\nraise errors.Refused(1)\nx = Refused\nRefused(2)\n"
    assert constructors(source, "Refused") == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_size_refusals_are_raised_by_bounded_count(path):
    """Every size refusal goes through ``errors.bounded_count``, so no other
    module constructs CatalogTooLargeError."""
    calls = constructors(path.read_text(encoding="utf-8"), "CatalogTooLargeError")
    assert (calls != []) == (path.name == "errors.py")


def frozen_writes(source: str) -> list:
    """Line numbers that define ``__setattr__`` or ``__delattr__``, or that
    read ``object.__setattr__`` or ``object.__new__``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "object"
              and node.attr in ("__setattr__", "__new__")):
            lines.append(node.lineno)
    return sorted(lines)


def test_frozen_writes_are_found():
    source = ("class A:\n    def __delattr__(self, name):\n        pass\n"
              "put = object.__setattr__\nobject.__new__(A)\nA.__new__(A)\n"
              "def __setattr__():\n    pass\n")
    assert frozen_writes(source) == [2, 4, 5, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_frozen_values_are_written_only_by_record(path):
    """Immutability is written once, in ``errors.Record``: no other module
    refuses assignment itself or writes a slot past the refusal."""
    lines = frozen_writes(path.read_text(encoding="utf-8"))
    assert (lines != []) == (path.name == "errors.py")


#: Public names that no module reads, each kept for a stated reason.
UNREAD_ON_PURPOSE = {
    "calibrate_sigma": "recomputes SIGMA by trying both signs; the tests pin the choice",
    "centralizer_image": "the group-side check of perps that the extraspecial docstring promises",
    "x_minus_matrix": "the benchmark's tracer looks it up by name (HOME_WRAPPED) to count calls",
    "x_plus_matrix": "the benchmark's tracer looks it up by name (HOME_WRAPPED) to count calls",
}


def unread_definitions(sources: list) -> list:
    """Public top-level functions and classes of the given module sources
    that no name or attribute in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_unread_definitions_are_found():
    sources = ["def used():\n    return 1\n\nclass Orphan:\n    pass\n\n"
               "def _private():\n    pass\n",
               "from a import used\n\ndef lonely():\n    return used()\n"]
    assert unread_definitions(sources) == ["Orphan", "lonely"]


def test_public_code_has_a_reader():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_definitions(sources) == sorted(UNREAD_ON_PURPOSE)
