"""Every function, class and method in ``src/`` is reached by something the
system runs.

The system's entry points are the root trees: ``src/`` itself (the
registry's ``callable_ref`` strings, the agents' template text in
``core/llm/knowledge.py`` and ``core/codegen.py``, the serve and live
planes, the CLI), ``perfbench/``, ``benchmarks/`` and ``examples/``.
``tests/`` is not a root: a name that only tests reach is not part of the
system, and fails here.

A *defined name* is a top-level function or class in ``src/``, or a
non-dunder method of such a class.  A *reference* is an ``ast.Name``, an
``ast.Attribute``, an import alias, or an identifier token inside a string
constant other than a docstring.  A reference does not count when it sits
inside the body of the name it matches, when it is a package
``__init__`` re-export, or when it is an ``__all__`` entry.

Module-level code in ``src/`` and everything in the other root trees is
live.  A defined name is reached when a live context other than its own
body references it (a method also needs its class reached), and a reached
name's body is live in turn.  The check iterates to a fixed point, so a
name reached only from dead code is dead too.

References match by identifier, not by resolved binding: any ``.run``
reaches every method called ``run``.  So the check can miss dead code, but
it never flags code that is reached.

``ALLOWED`` names the few names that no root reaches but that stay, each
with its reason: oracles and metrics that tests hold production output
against, and fault-injection hooks.  Allowed names are roots too.  An entry
that no longer names a defined name, or whose name a root reaches without
the allowance, is stale and fails the check.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import NamedTuple

import pytest

REPO = Path(__file__).resolve().parents[1]
ROOT_TREES = ("src", "perfbench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ALLOWED = {
    "repro.live.clock:WorldTimeline.ground_truth":
        "oracle: live and forensic tests hold detector alerts and verdicts "
        "against the injected events",
    "repro.nautilus.mapping:CrossLayerMapper.accuracy_against_truth":
        "evaluation metric: the mapping tests score cable attribution "
        "against the world's true link paths",
    "repro.nautilus.mapping:CrossLayerMapper.truth_in_candidates_rate":
        "evaluation metric: the mapping tests score candidate recall "
        "against the world's true link paths",
    "repro.serve.backends:ProcessPoolBackend.kill_worker":
        "fault-injection hook: the chaos and affinity tests kill a worker "
        "mid-job",
    "repro.live.standing:StandingQueryManager.deregister":
        "writes the journal's standing_deregister record, which replay "
        "and resume read back",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstring_nodes(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _references(nodes, docstrings: set[int]) -> set[str]:
    """Every identifier the nodes (and everything under them) reference."""
    refs: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.update(node.name.split("."))
                if node.asname:
                    refs.add(node.asname)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings):
                refs.update(IDENTIFIER.findall(node.value))
    return refs


def _is_all(statement: ast.stmt) -> bool:
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target]
               if isinstance(statement, (ast.AnnAssign, ast.AugAssign)) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


class _Definition(NamedTuple):
    key: str               # "module:qualname"
    ident: str             # the identifier a reference must match
    owner: str | None      # the class key, for a method
    refs: set[str]         # identifiers its own body references


def scan(repo: Path = REPO):
    """(definitions, identifiers the always-live code references)."""
    definitions: dict[str, _Definition] = {}
    live: set[str] = set()
    for tree_name in ROOT_TREES:
        for path in sorted((repo / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstring_nodes(tree)
            if tree_name != "src":
                live |= _references([tree], docstrings)
                continue
            parts = path.relative_to(repo / "src").with_suffix("").parts
            is_init = parts[-1] == "__init__"
            module = ".".join(parts[:-1] if is_init else parts)
            for statement in tree.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module}:{statement.name}"
                    definitions[key] = _Definition(
                        key, statement.name, None,
                        _references([statement], docstrings))
                elif isinstance(statement, ast.ClassDef):
                    _add_class(statement, module, docstrings, definitions)
                elif is_init and isinstance(statement, (ast.Import, ast.ImportFrom)):
                    continue
                elif _is_all(statement):
                    continue
                else:
                    live |= _references([statement], docstrings)
    return definitions, live


def _add_class(node: ast.ClassDef, module: str, docstrings: set[int],
               definitions: dict[str, _Definition]) -> None:
    key = f"{module}:{node.name}"
    class_level = [*node.bases, *node.keywords, *node.decorator_list]
    for statement in node.body:
        if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(statement.name)):
            method_key = f"{key}.{statement.name}"
            definitions[method_key] = _Definition(
                method_key, statement.name, key,
                _references([statement], docstrings))
        else:
            class_level.append(statement)
    definitions[key] = _Definition(key, node.name, None,
                                   _references(class_level, docstrings))


def reached(definitions: dict[str, _Definition], live: set[str],
            roots=()) -> set[str]:
    """Keys of the definitions reached from ``live`` and ``roots``."""
    # identifier -> keys of the definitions whose own body references it
    referrers: dict[str, set[str]] = {}
    for definition in definitions.values():
        for ident in definition.refs:
            referrers.setdefault(ident, set()).add(definition.key)
    alive = {key for key in roots if key in definitions}
    changed = True
    while changed:
        changed = False
        for definition in definitions.values():
            if definition.key in alive:
                continue
            if definition.owner is not None and definition.owner not in alive:
                continue
            if definition.ident in live or any(
                    key in alive and key != definition.key
                    and definitions[key].owner != definition.key
                    for key in referrers.get(definition.ident, ())):
                alive.add(definition.key)
                changed = True
    return alive


@pytest.fixture(scope="module")
def scanned():
    return scan()


def test_every_defined_name_is_reached_from_a_root(scanned):
    definitions, live = scanned
    alive = reached(definitions, live, ALLOWED)
    unreached = sorted(set(definitions) - alive)
    assert not unreached, (
        "defined in src/ but reached by no entry point (delete it, or move "
        "a test oracle to tests/):\n  " + "\n  ".join(unreached))


def test_allowed_entries_are_not_stale(scanned):
    definitions, live = scanned
    stale = []
    for key in ALLOWED:
        if key not in definitions:
            stale.append(f"{key}: not a defined name")
        elif key in reached(definitions, live, set(ALLOWED) - {key}):
            stale.append(f"{key}: reached without the allowance")
    assert not stale, "stale ALLOWED entries:\n  " + "\n  ".join(stale)
