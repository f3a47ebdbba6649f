"""Artifacts: serialisation round-trips and accessor behaviour."""

import json

import pytest

from repro.core.artifacts import (
    CandidateWorkflow,
    Complexity,
    Constraint,
    ProblemAnalysis,
    ProblemKind,
    Risk,
    StepType,
    SubProblem,
    SuccessCriterion,
    WorkflowDesign,
    WorkflowStep,
)


def _analysis():
    return ProblemAnalysis(
        query="q",
        intent="cable_failure_impact",
        entities={"cable_names": ["SeaMeWe-5"]},
        complexity=Complexity.MODERATE,
        classification={"spatial": "country"},
        sub_problems=[
            SubProblem(id="sp1", title="t", description="d",
                       kind=ProblemKind.MAPPING,
                       required_capabilities=["cable_dependencies"]),
            SubProblem(id="sp2", title="t2", description="d2",
                       kind=ProblemKind.SYNTHESIS, depends_on=["sp1"]),
        ],
        constraints=[Constraint(kind="data", description="c", blocking=True)],
        risks=[Risk(description="r", likelihood="low", mitigation="m")],
        success_criteria=[SuccessCriterion(description="s", metric="m")],
    )


def test_analysis_roundtrip():
    analysis = _analysis()
    clone = ProblemAnalysis.from_dict(json.loads(json.dumps(analysis.to_dict())))
    assert clone.to_dict() == analysis.to_dict()
    assert clone.complexity is Complexity.MODERATE
    assert clone.sub_problems[0].kind is ProblemKind.MAPPING


def test_analysis_accessors():
    analysis = _analysis()
    assert [c.description for c in analysis.blocking_constraints()] == ["c"]


def test_step_binding_ids_include_foreach():
    step = WorkflowStep(
        id="s3", step_type=StepType.REGISTRY, target="xaminer.process_event",
        inputs={"event_spec": "item", "seed": "workflow:seed"},
        foreach="step:s2.earthquake",
    )
    assert step.binding_step_ids() == ["s2"]


def test_workflow_design_roundtrip():
    design = WorkflowDesign(
        chosen=CandidateWorkflow(
            steps=[
                WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                             target="nautilus.list_cables", inputs={}),
                WorkflowStep(id="s2", step_type=StepType.TRANSFORM,
                             target="build_report",
                             inputs={"ranking": "step:s1",
                                     "dependencies": "step:s1",
                                     "title": 'const:"x"'}),
            ],
            rationale="why",
            tradeoffs={"reliability": "high"},
        ),
        exploration_mode="comparative",
        alternatives=[CandidateWorkflow(rationale="alt")],
        workflow_inputs={"seed": "rng seed"},
        param_defaults={"seed": 0},
    )
    clone = WorkflowDesign.from_dict(json.loads(json.dumps(design.to_dict())))
    assert clone.to_dict() == design.to_dict()
    assert clone.chosen.step("s2").target == "build_report"
    with pytest.raises(KeyError):
        clone.chosen.step("missing")


def test_frameworks_used_ignores_transforms():
    workflow = CandidateWorkflow(
        steps=[
            WorkflowStep(id="s1", step_type=StepType.REGISTRY,
                         target="nautilus.list_cables", inputs={}),
            WorkflowStep(id="s2", step_type=StepType.REGISTRY,
                         target="bgp.fetch_updates", inputs={}),
            WorkflowStep(id="s3", step_type=StepType.TRANSFORM,
                         target="build_report", inputs={}),
        ]
    )
    assert workflow.frameworks_used() == ["bgp", "nautilus"]
