"""Code generation and execution: templates, rendering, sandboxed runs."""

import ast

import pytest

from repro.core.artifacts import (
    CandidateWorkflow,
    GeneratedSolution,
    StepType,
    WorkflowDesign,
    WorkflowStep,
)
from repro.core.codegen import (
    QA_TEMPLATES,
    TRANSFORM_TEMPLATES,
    count_loc,
    generate_solution,
)
from repro.core.executor import execute_solution


def _design(steps, defaults=None):
    return WorkflowDesign(
        chosen=CandidateWorkflow(steps=steps),
        workflow_inputs={},
        param_defaults=defaults or {},
    )


def _plan(step_ids, qa=("sanity_bounds",)):
    return {"step_order": list(step_ids), "adapters": [], "qa_checks": list(qa),
            "result_keys": list(step_ids), "notes": ""}


def test_templates_are_valid_python():
    for name, code in {**TRANSFORM_TEMPLATES}.items():
        ast.parse(code), name
    for name, code in QA_TEMPLATES.items():
        ast.parse(code), name


def test_transform_templates_define_expected_function():
    for name, code in TRANSFORM_TEMPLATES.items():
        tree = ast.parse(code)
        functions = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
        assert functions == [f"t_{name}"]


def test_count_loc_skips_blanks_and_comments():
    source = "x = 1\n\n# comment\ny = 2  # trailing\n"
    assert count_loc(source) == 2


def test_generate_simple_registry_workflow(catalog, registry):
    steps = [
        WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                     target="nautilus.list_cables", inputs={}),
        WorkflowStep(id="s2", step_type=StepType.TRANSFORM, target="build_report",
                     inputs={"ranking": "step:s1", "dependencies": "step:s1",
                             "title": 'const:"test"'}),
    ]
    solution = generate_solution(_design(steps), _plan(["s1", "s2"]), "test query", registry)
    outcome = execute_solution(solution, catalog)
    assert outcome.succeeded, outcome.error
    assert outcome.outputs["final"]["title"] == "test"
    assert outcome.quality_report["sanity_bounds"]["passed"]


def test_generate_foreach_workflow(catalog, registry):
    steps = [
        WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                     target="xaminer.list_disasters",
                     inputs={"severe_only": "const:true"}),
        WorkflowStep(id="s2", step_type=StepType.TRANSFORM,
                     target="split_events_by_kind", inputs={"events": "step:s1"}),
        WorkflowStep(id="s3", step_type=StepType.REGISTRY,
                     target="xaminer.process_event",
                     inputs={"event_spec": "item",
                             "failure_probability": "const:1.0",
                             "seed": "const:0"},
                     foreach="step:s2.earthquake"),
    ]
    solution = generate_solution(_design(steps), _plan(["s1", "s2", "s3"]), "q", registry)
    outcome = execute_solution(solution, catalog)
    assert outcome.succeeded, outcome.error
    reports = outcome.outputs["results"]["s3"]
    assert isinstance(reports, list) and reports
    assert all("failed_cable_ids" in r for r in reports)


def test_generate_unknown_transform_rejected(registry):
    steps = [WorkflowStep(id="s1", step_type=StepType.TRANSFORM,
                          target="not_a_template", inputs={})]
    with pytest.raises(ValueError, match="no template"):
        generate_solution(_design(steps), _plan(["s1"]), "q", registry)


def test_param_defaults_flow_into_run(catalog, registry):
    steps = [
        WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                     target="nautilus.get_cable_info",
                     inputs={"cable_name": "workflow:cable_name"}),
    ]
    solution = generate_solution(
        _design(steps, defaults={"cable_name": "FALCON"}), _plan(["s1"], qa=()), "q", registry
    )
    outcome = execute_solution(solution, catalog)
    assert outcome.succeeded
    assert outcome.outputs["results"]["s1"]["name"] == "FALCON"
    # Explicit params override defaults.
    outcome2 = execute_solution(solution, catalog, params={"cable_name": "AAE-1"})
    assert outcome2.outputs["results"]["s1"]["name"] == "AAE-1"


def test_executor_captures_runtime_errors(catalog):
    solution = GeneratedSolution(
        source_code="def run(catalog, params=None):\n    raise RuntimeError('boom')\n",
    )
    outcome = execute_solution(solution, catalog)
    assert not outcome.succeeded
    assert "boom" in outcome.error


def test_executor_rejects_unloadable_module(catalog):
    solution = GeneratedSolution(source_code="this is not python")
    outcome = execute_solution(solution, catalog)
    assert not outcome.succeeded
    assert "failed to load" in outcome.error


def test_executor_rejects_missing_entrypoint(catalog):
    solution = GeneratedSolution(source_code="x = 1\n", entrypoint="run")
    outcome = execute_solution(solution, catalog)
    assert not outcome.succeeded
    assert "no callable" in outcome.error


def test_executor_rejects_wrong_shape(catalog):
    solution = GeneratedSolution(
        source_code="def run(catalog, params=None):\n    return 42\n"
    )
    outcome = execute_solution(solution, catalog)
    assert not outcome.succeeded
    assert "unexpected shape" in outcome.error


def test_generated_code_has_no_framework_imports(catalog, registry):
    steps = [
        WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                     target="nautilus.list_cables", inputs={}),
    ]
    solution = generate_solution(_design(steps), _plan(["s1"], qa=()), "q", registry)
    assert "import repro" not in solution.source_code
    assert "from repro" not in solution.source_code


def test_builtins_dict_normalizes_module_form():
    import builtins as builtins_module

    from repro.core.executor import builtins_dict

    as_dict = builtins_dict(builtins_module)
    assert isinstance(as_dict, dict)
    assert as_dict["len"] is len
    assert as_dict["sorted"] is sorted


def test_builtins_dict_normalizes_dict_form():
    from repro.core.executor import builtins_dict

    original = {"len": len, "min": min}
    as_dict = builtins_dict(original)
    assert as_dict == original
    # A copy, not the same mapping — sandbox writes must not leak back.
    as_dict["min"] = None
    assert original["min"] is min


@pytest.mark.parametrize("form", ["module", "dict"])
def test_generated_code_can_call_builtins_under_both_forms(catalog, form):
    """Regression: the sandbox namespace must expose builtins as a dict
    regardless of whether the executor module saw ``__builtins__`` as the
    module (script-style import) or as a dict (package-style import)."""
    import builtins as builtins_module

    from repro.core import executor

    solution = GeneratedSolution(
        source_code=(
            "def run(catalog, params=None):\n"
            "    assert isinstance(__builtins__, dict)\n"
            "    values = sorted([len('ab'), max(1, 3), abs(-7)])\n"
            "    return {'results': values}\n"
        ),
    )
    forms = {"module": builtins_module, "dict": dict(vars(builtins_module))}
    original = executor.builtins_dict

    def patched():
        return original(forms[form])

    try:
        executor.builtins_dict = patched
        outcome = executor.execute_solution(solution, catalog)
    finally:
        executor.builtins_dict = original
    assert outcome.succeeded, outcome.error
    assert outcome.outputs["results"] == [2, 3, 7]
