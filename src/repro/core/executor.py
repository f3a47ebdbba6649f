"""Execution of generated solutions.

The generated module runs in a fresh namespace with access to nothing but
the tool catalog and its parameters — the sandbox a careful operator would
give machine-written code.  Failures are captured into the outcome rather
than raised, because a failed execution is itself a pipeline result (the
curator must see it to reject patterns from it).
"""

from __future__ import annotations

import traceback

from repro.core.artifacts import ExecutionOutcome, GeneratedSolution
from repro.core.catalog import ToolCatalog
from repro.core.codegen import compile_solution


def builtins_dict(builtins=None) -> dict:
    """Normalize ``__builtins__`` to a plain dict.

    At module scope ``__builtins__`` is the ``builtins`` module in ``__main__``
    but a plain dict in imported modules; handing either form through to
    ``exec`` unchanged makes the sandbox namespace depend on how the executor
    itself was imported.
    """
    if builtins is None:
        builtins = __builtins__
    if isinstance(builtins, dict):
        return dict(builtins)
    return dict(vars(builtins))


def execute_solution(
    solution: GeneratedSolution,
    catalog: ToolCatalog,
    params: dict | None = None,
) -> ExecutionOutcome:
    """Run a generated solution against a catalog."""
    namespace: dict = {"__name__": "arachnet_generated", "__builtins__": builtins_dict()}
    try:
        exec(compile_solution(solution.source_code), namespace)
    except Exception:
        return ExecutionOutcome(
            succeeded=False,
            error="generated module failed to load:\n" + traceback.format_exc(limit=4),
        )
    entry = namespace.get(solution.entrypoint)
    if not callable(entry):
        return ExecutionOutcome(
            succeeded=False,
            error=f"generated module has no callable {solution.entrypoint!r}",
        )
    try:
        output = entry(catalog, params or {})
    except Exception:
        return ExecutionOutcome(
            succeeded=False,
            error="generated workflow raised:\n" + traceback.format_exc(limit=6),
        )
    if not isinstance(output, dict) or "results" not in output:
        return ExecutionOutcome(
            succeeded=False,
            error=f"generated workflow returned unexpected shape: {type(output).__name__}",
        )
    return ExecutionOutcome(
        succeeded=True,
        outputs=output,
        quality_report=output.get("quality_report", {}),
    )
