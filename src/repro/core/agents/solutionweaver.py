"""SolutionWeaver: implementation planning and code generation."""

from __future__ import annotations

from repro.core.agents.base import Agent
from repro.core.artifacts import GeneratedSolution, ProblemAnalysis, WorkflowDesign
from repro.core.codegen import generate_solution
from repro.core.llm.prompts import SOLUTIONWEAVER_SYSTEM, solutionweaver_prompt


def _validate_payload(payload) -> None:
    if not isinstance(payload, dict):
        raise ValueError("SolutionWeaver output must be a JSON object")
    if "step_order" not in payload or not payload["step_order"]:
        raise ValueError("implementation plan has no step order")
    if "qa_checks" not in payload:
        raise ValueError("implementation plan missing qa_checks")


class SolutionWeaver(Agent):
    """Turns a :class:`WorkflowDesign` into executable Python source."""

    name = "solutionweaver"
    system_prompt = SOLUTIONWEAVER_SYSTEM

    def implement(
        self, design: WorkflowDesign, analysis: ProblemAnalysis
    ) -> GeneratedSolution:
        """Plan the implementation with the LLM, then render code.

        The design payload is augmented with the analysis intent so the
        backend can pick intent-appropriate QA checks — the weaver prompt in
        the paper likewise carries the problem framing forward.
        """
        design_payload = design.to_dict()
        design_payload["intent"] = analysis.intent
        prompt = solutionweaver_prompt(design_payload, self._registry.to_prompt_text())
        plan = self._ask(prompt, validator=_validate_payload)
        known_ids = {step.id for step in design.chosen.steps}
        plan["step_order"] = [sid for sid in plan["step_order"] if sid in known_ids]
        return generate_solution(design, plan, analysis.query, self._registry)
