"""The program surface ``perfbench/`` patches and imports by name.

A traced perfbench run (``--trace 1``) wraps ``ArachNet.answer``,
``ToolCatalog.call``, ``PipelineResult.artifact_digest``,
``repro.serve.journal.encode_record`` and the ``LIVE_TIMERS`` methods by
attribute name, and reads tool shares for the ``TOOL_ENTRIES`` registry
entries.  A rename or deletion of any of them breaks only that run, which
takes minutes; these checks fail in a second.  They read ``perfbench/``
and never change it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.artifacts import PipelineResult
from repro.core.catalog import ToolCatalog
from repro.core.pipeline import ArachNet
from repro.core.registry import default_registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tool_entries_are_registry_entries(layers):
    registry = default_registry()
    missing = [name for name in layers.TOOL_ENTRIES if name not in registry]
    assert not missing, f"perfbench times unknown registry entries: {missing}"


def test_live_timer_classes_have_their_methods(layers):
    for stem, (path, methods) in layers.LIVE_TIMERS.items():
        module, name = path.split(":")
        cls = getattr(importlib.import_module(module), name)
        for method in methods:
            assert callable(getattr(cls, method, None)), f"{stem}: {path}.{method}"


def test_patched_entry_points_keep_their_signatures():
    answer = inspect.signature(ArachNet.answer).parameters
    for keyword in ("params", "observer", "tracer", "trace_parent"):
        assert keyword in answer, f"ArachNet.answer lost {keyword!r}"
    call = list(inspect.signature(ToolCatalog.call).parameters.values())
    assert [p.name for p in call[:2]] == ["self", "entry_name"]
    assert call[-1].kind is inspect.Parameter.VAR_KEYWORD
    assert inspect.isfunction(PipelineResult.artifact_digest)
    journal = importlib.import_module("repro.serve.journal")
    assert inspect.isfunction(journal.encode_record)


def test_perfbench_imports_resolve():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}"), (
                        f"{path.name}: from {node.module} import {alias.name}")
