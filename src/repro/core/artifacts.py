"""Inter-agent artifacts: the typed hand-offs between pipeline stages.

Each agent consumes the previous stage's artifact and produces the next
(Figure 1 of the paper): ``ProblemAnalysis`` → ``WorkflowDesign`` →
``GeneratedSolution`` → ``ExecutionOutcome`` → ``CuratorReport``.  All
artifacts serialise to JSON — in expert mode they are what the human
reviews and may edit between stages.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum


def canonical_json(value) -> str:
    """The text every digest is taken over: sorted keys, no whitespace,
    non-JSON values rendered with ``str``.  Artifacts are trees, so the
    encoder's cycle check is skipped (6–9% of a case-4 step digest);
    a cyclic value still fails, with ``RecursionError``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str,
                      check_circular=False)


class ProblemKind(str, Enum):
    """The reasoning category of a sub-problem (drives capability matching)."""

    MAPPING = "mapping"  # cross-layer / infrastructure resolution
    IMPACT = "impact"  # failure impact computation
    AGGREGATION = "aggregation"  # spatial / administrative rollups
    CATALOG = "catalog"  # enumerate events / inventory
    DEPENDENCY = "dependency"  # dependency graph construction
    CASCADE = "cascade"  # failure propagation modeling
    TEMPORAL = "temporal"  # time-windowed measurement collection
    STATISTICAL = "statistical"  # anomaly detection / significance
    SCORING = "scoring"  # suspect ranking
    VALIDATION = "validation"  # independent cross-checks
    SYNTHESIS = "synthesis"  # combining results into the answer


class Complexity(str, Enum):
    SIMPLE = "simple"
    MODERATE = "moderate"
    COMPLEX = "complex"


@dataclass
class SubProblem:
    """One decomposed piece of the user's query."""

    id: str
    title: str
    description: str
    kind: ProblemKind
    required_capabilities: list[str] = field(default_factory=list)
    depends_on: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "description": self.description,
            "kind": self.kind.value,
            "required_capabilities": list(self.required_capabilities),
            "depends_on": list(self.depends_on),
        }

    @classmethod
    def from_dict(cls, row: dict) -> "SubProblem":
        return cls(
            id=row["id"],
            title=row["title"],
            description=row.get("description", ""),
            kind=ProblemKind(row["kind"]),
            required_capabilities=list(row.get("required_capabilities", [])),
            depends_on=list(row.get("depends_on", [])),
        )


@dataclass
class Constraint:
    """A feasibility constraint QueryMind surfaces early."""

    kind: str  # "data" | "technical" | "methodological"
    description: str
    blocking: bool = False

    def to_dict(self) -> dict:
        return {"kind": self.kind, "description": self.description, "blocking": self.blocking}

    @classmethod
    def from_dict(cls, row: dict) -> "Constraint":
        return cls(
            kind=row["kind"],
            description=row["description"],
            blocking=bool(row.get("blocking", False)),
        )


@dataclass
class Risk:
    """A failure mode that could compromise results."""

    description: str
    likelihood: str = "medium"  # "low" | "medium" | "high"
    mitigation: str = ""

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "likelihood": self.likelihood,
            "mitigation": self.mitigation,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "Risk":
        return cls(
            description=row["description"],
            likelihood=row.get("likelihood", "medium"),
            mitigation=row.get("mitigation", ""),
        )


@dataclass
class SuccessCriterion:
    """When is the query sufficiently answered."""

    description: str
    metric: str = ""

    def to_dict(self) -> dict:
        return {"description": self.description, "metric": self.metric}

    @classmethod
    def from_dict(cls, row: dict) -> "SuccessCriterion":
        return cls(description=row["description"], metric=row.get("metric", ""))


@dataclass
class ProblemAnalysis:
    """QueryMind's output: the structured understanding of the query."""

    query: str
    intent: str
    entities: dict = field(default_factory=dict)
    complexity: Complexity = Complexity.MODERATE
    classification: dict = field(default_factory=dict)
    sub_problems: list[SubProblem] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    risks: list[Risk] = field(default_factory=list)
    success_criteria: list[SuccessCriterion] = field(default_factory=list)

    def blocking_constraints(self) -> list[Constraint]:
        return [c for c in self.constraints if c.blocking]

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "intent": self.intent,
            "entities": dict(self.entities),
            "complexity": self.complexity.value,
            "classification": dict(self.classification),
            "sub_problems": [sp.to_dict() for sp in self.sub_problems],
            "constraints": [c.to_dict() for c in self.constraints],
            "risks": [r.to_dict() for r in self.risks],
            "success_criteria": [s.to_dict() for s in self.success_criteria],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "ProblemAnalysis":
        return cls(
            query=row["query"],
            intent=row["intent"],
            entities=dict(row.get("entities", {})),
            complexity=Complexity(row.get("complexity", "moderate")),
            classification=dict(row.get("classification", {})),
            sub_problems=[SubProblem.from_dict(r) for r in row.get("sub_problems", [])],
            constraints=[Constraint.from_dict(r) for r in row.get("constraints", [])],
            risks=[Risk.from_dict(r) for r in row.get("risks", [])],
            success_criteria=[
                SuccessCriterion.from_dict(r) for r in row.get("success_criteria", [])
            ],
        )


class StepType(str, Enum):
    REGISTRY = "registry"  # invoke a registry function
    TRANSFORM = "transform"  # inline data transformation generated as code


@dataclass
class WorkflowStep:
    """One node of the workflow DAG.

    ``inputs`` maps parameter names to bindings: ``"workflow:<name>"`` (an
    external workflow input), ``"step:<id>"`` (the full output of a prior
    step) or ``"const:<json>"`` (an inline literal).
    """

    id: str
    step_type: StepType
    target: str  # registry entry name, or transform name
    inputs: dict[str, str] = field(default_factory=dict)
    sub_problem_id: str = ""
    note: str = ""
    foreach: str = ""  # optional "step:<id>" binding; call once per item

    def binding_step_ids(self) -> list[str]:
        out = []
        bindings = list(self.inputs.values())
        if self.foreach:
            bindings.append(self.foreach)
        for binding in bindings:
            if binding.startswith("step:"):
                out.append(binding.split(":", 1)[1].split(".", 1)[0])
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "step_type": self.step_type.value,
            "target": self.target,
            "inputs": dict(self.inputs),
            "sub_problem_id": self.sub_problem_id,
            "note": self.note,
            "foreach": self.foreach,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "WorkflowStep":
        return cls(
            id=row["id"],
            step_type=StepType(row["step_type"]),
            target=row["target"],
            inputs=dict(row.get("inputs", {})),
            sub_problem_id=row.get("sub_problem_id", ""),
            note=row.get("note", ""),
            foreach=row.get("foreach", ""),
        )


@dataclass
class CandidateWorkflow:
    """One explored solution: steps plus the trade-off assessment."""

    steps: list[WorkflowStep] = field(default_factory=list)
    rationale: str = ""
    tradeoffs: dict = field(default_factory=dict)
    score: float = 0.0

    def step(self, step_id: str) -> WorkflowStep:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(f"unknown step {step_id!r}")

    def frameworks_used(self) -> list[str]:
        """Distinct frameworks the registry steps touch (e.g. 'nautilus')."""
        frameworks = {
            step.target.split(".", 1)[0]
            for step in self.steps
            if step.step_type is StepType.REGISTRY and "." in step.target
        }
        return sorted(frameworks)

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "rationale": self.rationale,
            "tradeoffs": dict(self.tradeoffs),
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "CandidateWorkflow":
        return cls(
            steps=[WorkflowStep.from_dict(r) for r in row.get("steps", [])],
            rationale=row.get("rationale", ""),
            tradeoffs=dict(row.get("tradeoffs", {})),
            score=float(row.get("score", 0.0)),
        )


@dataclass
class WorkflowDesign:
    """WorkflowScout's output: the chosen workflow plus exploration record."""

    chosen: CandidateWorkflow
    exploration_mode: str = "direct"  # "direct" | "comparative"
    alternatives: list[CandidateWorkflow] = field(default_factory=list)
    workflow_inputs: dict[str, str] = field(default_factory=dict)  # name -> description
    param_defaults: dict = field(default_factory=dict)  # name -> default value

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen.to_dict(),
            "exploration_mode": self.exploration_mode,
            "alternatives": [c.to_dict() for c in self.alternatives],
            "workflow_inputs": dict(self.workflow_inputs),
            "param_defaults": dict(self.param_defaults),
        }

    @classmethod
    def from_dict(cls, row: dict) -> "WorkflowDesign":
        return cls(
            chosen=CandidateWorkflow.from_dict(row["chosen"]),
            exploration_mode=row.get("exploration_mode", "direct"),
            alternatives=[CandidateWorkflow.from_dict(r) for r in row.get("alternatives", [])],
            workflow_inputs=dict(row.get("workflow_inputs", {})),
            param_defaults=dict(row.get("param_defaults", {})),
        )


@dataclass
class GeneratedSolution:
    """SolutionWeaver's output: executable code plus quality metadata."""

    source_code: str
    entrypoint: str = "run"
    qa_checks: list[str] = field(default_factory=list)
    adapters: list[str] = field(default_factory=list)
    loc: int = 0
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "source_code": self.source_code,
            "entrypoint": self.entrypoint,
            "qa_checks": list(self.qa_checks),
            "adapters": list(self.adapters),
            "loc": self.loc,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "GeneratedSolution":
        return cls(
            source_code=row["source_code"],
            entrypoint=row.get("entrypoint", "run"),
            qa_checks=list(row.get("qa_checks", [])),
            adapters=list(row.get("adapters", [])),
            loc=int(row.get("loc", 0)),
            notes=row.get("notes", ""),
        )


@dataclass(frozen=True)
class StepRef:
    """A step output left behind in the process that computed it: the
    sha256 of its canonical JSON and that text's size in bytes.

    Served process-backend results carry each step at or above
    :data:`repro.serve.backends.STEP_REF_MIN_BYTES` this way; the answer
    (``outputs["final"]``) and every smaller step stay whole values.
    """

    digest: str
    nbytes: int

    @classmethod
    def of(cls, value) -> "StepRef":
        if isinstance(value, StepRef):
            return value
        text = canonical_json(value).encode("utf-8")
        return cls(hashlib.sha256(text).hexdigest(), len(text))


@dataclass
class ExecutionOutcome:
    """Result of actually running the generated solution."""

    succeeded: bool
    outputs: dict = field(default_factory=dict)
    quality_report: dict = field(default_factory=dict)
    error: str = ""
    #: Memo of :meth:`step_refs`; travels with the outcome, never rendered.
    _step_refs: dict | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def step_refs(self) -> dict[str, StepRef] | None:
        """``{step id: StepRef}`` over ``outputs["results"]``, each step
        encoded at most once per outcome; ``None`` when the results are
        not a step map (a failed run has none)."""
        results = self.outputs.get("results")
        if not isinstance(results, dict):
            return None
        if self._step_refs is None:
            self._step_refs = {sid: StepRef.of(value) for sid, value in results.items()}
        return self._step_refs

    def to_dict(self) -> dict:
        return {
            "succeeded": self.succeeded,
            "outputs": self.outputs,
            "quality_report": dict(self.quality_report),
            "error": self.error,
        }


@dataclass
class CuratorCandidate:
    """A reusable pattern the curator extracted from a workflow."""

    name: str
    summary: str
    capabilities: list[str] = field(default_factory=list)
    composed_of: list[str] = field(default_factory=list)  # step targets, in order
    validated: bool = False
    rejection_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": list(self.capabilities),
            "composed_of": list(self.composed_of),
            "validated": self.validated,
            "rejection_reason": self.rejection_reason,
        }


@dataclass
class CuratorReport:
    """RegistryCurator's output: what was learned and what was added."""

    candidates: list[CuratorCandidate] = field(default_factory=list)
    added_entries: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "candidates": [c.to_dict() for c in self.candidates],
            "added_entries": list(self.added_entries),
        }


@dataclass
class StageTrace:
    """One pipeline stage as recorded for the Figure-1 trace."""

    agent: str
    artifact_kind: str
    expert_reviewed: bool = False
    cache_hit: bool = False
    duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "artifact_kind": self.artifact_kind,
            "expert_reviewed": self.expert_reviewed,
            "cache_hit": self.cache_hit,
            "duration_s": self.duration_s,
        }


@dataclass
class PipelineResult:
    """Everything one ArachNet run produced."""

    query: str
    analysis: ProblemAnalysis
    design: WorkflowDesign
    solution: GeneratedSolution
    execution: ExecutionOutcome
    curator: CuratorReport | None = None
    stage_trace: list[StageTrace] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "analysis": self.analysis.to_dict(),
            "design": self.design.to_dict(),
            "solution": self.solution.to_dict(),
            "execution": self.execution.to_dict(),
            "curator": self.curator.to_dict() if self.curator else None,
            "stage_trace": [s.to_dict() for s in self.stage_trace],
        }

    def answer_digest(self) -> str:
        """Content hash of what the run says: the query, problem analysis,
        workflow design, execution outcome (``final``, ``quality_report``
        and one digest per step) and curator report — everything the root
        covers except the generated source.  Step outputs enter as their
        :meth:`ExecutionOutcome.step_refs` digests, so a step held as a
        :class:`StepRef` hashes like its value and a drift can be traced
        to the step."""
        material = {
            "query": self.query,
            "analysis": self.analysis.to_dict(),
            "design": self.design.to_dict(),
            "execution": self.execution.to_dict(),
            "curator": self.curator.to_dict() if self.curator else None,
        }
        refs = self.execution.step_refs()
        if refs is not None:
            material["execution"]["outputs"] = {
                **self.execution.outputs,
                "results": {sid: ref.digest for sid, ref in refs.items()},
            }
        return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()

    def code_digest(self) -> str:
        """Content hash of the generated solution: its source and the
        fields derived from it.  A template rewrite moves this digest and
        leaves :meth:`answer_digest` alone."""
        return hashlib.sha256(
            canonical_json(self.solution.to_dict()).encode("utf-8")
        ).hexdigest()

    def artifact_digest(self) -> str:
        """Root content hash over the artifacts alone: the sha256 of
        :meth:`answer_digest` and :meth:`code_digest`.  The stage trace is
        left out, since its durations and cache-hit flags vary by run and
        by execution backend.  Two runs of the same job through any
        backend must produce the same digest."""
        pair = self.answer_digest() + self.code_digest()
        return hashlib.sha256(pair.encode("ascii")).hexdigest()
