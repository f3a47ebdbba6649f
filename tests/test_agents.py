"""Agents: artifact production, validation, expert-mode semantics."""

import pytest

from repro.core.agents import QueryMind, RegistryCurator, SolutionWeaver, WorkflowScout
from repro.core.agents.base import AgentError
from repro.core.artifacts import (
    Complexity,
    Constraint,
    ExecutionOutcome,
    ProblemKind,
)
from repro.core.llm.simulated import SimulatedLLM
from repro.core.pipeline import build_data_context
from repro.core.registry import default_registry

from scripted_llm import GarblingLLM, ScriptedLLM

CS1_QUERY = "Identify the impact at a country level due to SeaMeWe-5 cable failure"
CS2_QUERY = ("Identify the impact of severe earthquakes and hurricanes globally "
             "assuming a 10% infra failure probability")


@pytest.fixture()
def registry():
    return default_registry()


@pytest.fixture()
def llm():
    return SimulatedLLM()


# -- QueryMind ----------------------------------------------------------------------

def test_querymind_produces_analysis(world, registry, llm):
    agent = QueryMind(llm, registry)
    analysis = agent.analyze(CS1_QUERY, build_data_context(world))
    assert analysis.intent == "cable_failure_impact"
    assert analysis.entities["cable_names"] == ["SeaMeWe-5"]
    assert analysis.complexity in (Complexity.SIMPLE, Complexity.MODERATE,
                                   Complexity.COMPLEX)
    kinds = {sp.kind for sp in analysis.sub_problems}
    assert ProblemKind.MAPPING in kinds
    assert ProblemKind.SYNTHESIS in kinds
    assert analysis.success_criteria


def test_querymind_rejects_empty_query(world, registry, llm):
    agent = QueryMind(llm, registry)
    with pytest.raises(ValueError):
        agent.analyze("  ", build_data_context(world))


def test_querymind_flags_unknown_cable_blocking(world, registry, llm):
    agent = QueryMind(llm, registry)
    analysis = agent.analyze(
        "Identify the impact of the Atlantis-9 cable failure",
        build_data_context(world),
    )
    assert analysis.blocking_constraints()


def test_querymind_retry_on_malformed(world, registry):
    llm = GarblingLLM(SimulatedLLM())
    agent = QueryMind(llm, registry)
    analysis = agent.analyze(CS1_QUERY, build_data_context(world))
    assert analysis.intent == "cable_failure_impact"


def test_querymind_fails_after_exhausted_retries(world, registry):
    agent = QueryMind(ScriptedLLM(["junk", "junk", "junk"]), registry)
    with pytest.raises(AgentError):
        agent.analyze(CS1_QUERY, build_data_context(world))


# -- WorkflowScout ------------------------------------------------------------------

def test_scout_designs_valid_workflow(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS1_QUERY, build_data_context(world))
    design = WorkflowScout(llm, registry).design(analysis)
    assert design.chosen.steps
    assert design.exploration_mode in ("direct", "comparative")
    step_ids = [s.id for s in design.chosen.steps]
    assert len(step_ids) == len(set(step_ids))


def test_scout_refuses_blocking_constraints(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS1_QUERY, build_data_context(world))
    analysis.constraints.append(
        Constraint(kind="data", description="no data", blocking=True)
    )
    with pytest.raises(AgentError, match="blocking"):
        WorkflowScout(llm, registry).design(analysis)


def test_scout_restricted_registry_falls_back(world, llm):
    restricted = default_registry().subset(frameworks=["nautilus"])
    analysis = QueryMind(llm, restricted).analyze(CS1_QUERY, build_data_context(world))
    design = WorkflowScout(llm, restricted).design(analysis)
    targets = {s.target for s in design.chosen.steps}
    assert "aggregate_impact_by_country" in targets  # derived pipeline
    assert design.chosen.frameworks_used() == ["nautilus"]


def test_scout_full_registry_uses_xaminer_directly(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS1_QUERY, build_data_context(world))
    design = WorkflowScout(llm, registry).design(analysis)
    targets = {s.target for s in design.chosen.steps}
    assert "xaminer.country_impact" in targets
    assert "aggregate_impact_by_country" not in targets


def test_scout_records_alternatives_for_complex(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS2_QUERY, build_data_context(world))
    design = WorkflowScout(llm, registry).design(analysis)
    assert design.exploration_mode == "comparative"
    assert design.alternatives


# -- SolutionWeaver ------------------------------------------------------------------

def test_weaver_generates_compilable_code(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS1_QUERY, build_data_context(world))
    design = WorkflowScout(llm, registry).design(analysis)
    solution = SolutionWeaver(llm, registry).implement(design, analysis)
    compile(solution.source_code, "<test>", "exec")
    assert solution.loc > 30
    assert solution.qa_checks
    assert solution.entrypoint == "run"


def test_weaver_embeds_qa_by_intent(world, registry, llm):
    analysis = QueryMind(llm, registry).analyze(CS2_QUERY, build_data_context(world))
    design = WorkflowScout(llm, registry).design(analysis)
    solution = SolutionWeaver(llm, registry).implement(design, analysis)
    assert "sanity_bounds" in solution.qa_checks
    assert "qa_sanity_bounds" in solution.source_code


# -- RegistryCurator ------------------------------------------------------------------

def _cs1_design(world, llm):
    restricted = default_registry().subset(frameworks=["nautilus"])
    analysis = QueryMind(llm, restricted).analyze(CS1_QUERY, build_data_context(world))
    return WorkflowScout(llm, restricted).design(analysis), restricted


def test_curator_promotes_validated_pattern(world, llm):
    design, registry = _cs1_design(world, llm)
    curator = RegistryCurator(llm, registry)
    report = curator.curate(design, ExecutionOutcome(succeeded=True), registry)
    assert "composite.cable_country_impact" in report.added_entries
    entry = registry.get("composite.cable_country_impact")
    assert entry.provenance == "curator"


def test_curator_rejects_failed_execution(world, llm):
    design, registry = _cs1_design(world, llm)
    curator = RegistryCurator(llm, registry)
    report = curator.curate(design, ExecutionOutcome(succeeded=False, error="boom"),
                            registry)
    assert report.added_entries == []


def test_curator_no_duplicate_promotion(world, llm):
    design, registry = _cs1_design(world, llm)
    curator = RegistryCurator(llm, registry)
    first = curator.curate(design, ExecutionOutcome(succeeded=True), registry)
    assert first.added_entries
    second = curator.curate(design, ExecutionOutcome(succeeded=True), registry)
    assert second.added_entries == []
    rejected = [c for c in second.candidates if not c.validated]
    assert rejected and all(c.rejection_reason for c in rejected)
