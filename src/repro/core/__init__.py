"""ArachNet core: the four-agent workflow-composition system.

The paper's primary contribution: a registry of measurement capabilities and
four specialized agents (QueryMind, WorkflowScout, SolutionWeaver,
RegistryCurator) that turn natural-language measurement questions into
executed, quality-checked workflows.

Quickstart::

    from repro.core import ArachNet
    from repro.synth import build_world

    world = build_world()
    system = ArachNet.for_world(world)
    result = system.answer(
        "Identify the impact at a country level due to SeaMeWe-5 cable failure"
    )
    print(result.execution.outputs["final"])
"""

from repro.core.artifacts import (
    CandidateWorkflow,
    Complexity,
    Constraint,
    CuratorCandidate,
    CuratorReport,
    ExecutionOutcome,
    GeneratedSolution,
    PipelineResult,
    ProblemAnalysis,
    ProblemKind,
    Risk,
    StageTrace,
    StepType,
    SubProblem,
    SuccessCriterion,
    WorkflowDesign,
    WorkflowStep,
)
from repro.core.catalog import (
    CatalogError,
    MeasurementContext,
    ToolCatalog,
)
from repro.core.codegen import count_loc, generate_solution
from repro.core.executor import execute_solution
from repro.core.pipeline import ArachNet, ExpertHooks, build_data_context
from repro.core.registry import Registry, RegistryEntry, RegistryError, default_registry
from repro.core.workflow import (
    WorkflowValidationError,
    functional_signature,
    stage_kinds,
    to_mermaid,
    topological_order,
    validate_workflow,
)

__all__ = [
    "CandidateWorkflow",
    "Complexity",
    "Constraint",
    "CuratorCandidate",
    "CuratorReport",
    "ExecutionOutcome",
    "GeneratedSolution",
    "PipelineResult",
    "ProblemAnalysis",
    "ProblemKind",
    "Risk",
    "StageTrace",
    "StepType",
    "SubProblem",
    "SuccessCriterion",
    "WorkflowDesign",
    "WorkflowStep",
    "CatalogError",
    "MeasurementContext",
    "ToolCatalog",
    "count_loc",
    "generate_solution",
    "execute_solution",
    "ArachNet",
    "ExpertHooks",
    "build_data_context",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "default_registry",
    "WorkflowValidationError",
    "functional_signature",
    "stage_kinds",
    "to_mermaid",
    "topological_order",
    "validate_workflow",
]
