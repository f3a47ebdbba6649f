"""The deterministic expert-system LLM backend.

``SimulatedLLM`` honours the exact same interface a hosted model would: it
receives a prompt *string*, locates the delimited sections the agent
embedded (query, registry rendering, context payloads), applies the
measurement-expertise rules in :mod:`repro.core.llm.knowledge`, and returns
its answer as a fenced JSON completion.  Nothing outside the prompt text
reaches the backend — the substitution for Claude Sonnet 4 is contained
entirely behind the ``LLMClient`` seam.
"""

from __future__ import annotations

import json
import time

from repro.core.llm import knowledge
from repro.core.llm.client import LLMRequest, LLMResponse
from repro.core.llm.prompts import section, section_json


class SimulatedLLM:
    """Deterministic offline backend for the four ArachNet agents."""

    model_name = "simulated-expert-v1"

    def complete(self, request: LLMRequest) -> LLMResponse:
        handler = {
            "querymind": self._querymind,
            "workflowscout": self._workflowscout,
            "solutionweaver": self._solutionweaver,
            "registrycurator": self._registrycurator,
        }.get(request.agent)
        if handler is None:
            raise ValueError(f"unknown agent {request.agent!r}")
        payload = handler(request.user)
        text = "```json\n" + json.dumps(payload, indent=1) + "\n```"
        return LLMResponse(text=text, model=self.model_name)

    # -- per-agent reasoning ---------------------------------------------------

    def _registry_index(self, prompt: str) -> dict:
        rows = section_json(prompt, "REGISTRY")
        return {row["name"]: row for row in rows}

    def _querymind(self, prompt: str) -> dict:
        query = section(prompt, "QUERY").strip()
        registry_index = self._registry_index(prompt)
        data_context = section_json(prompt, "DATA CONTEXT")
        intent = knowledge.detect_intent(query)
        entities = knowledge.extract_entities(query, data_context)
        return knowledge.decompose(intent, query, entities, registry_index)

    def _workflowscout(self, prompt: str) -> dict:
        analysis = section_json(prompt, "PROBLEM ANALYSIS")
        registry_index = self._registry_index(prompt)
        return knowledge.design(analysis, registry_index)

    def _solutionweaver(self, prompt: str) -> dict:
        design_payload = section_json(prompt, "WORKFLOW DESIGN")
        intent = design_payload.get("intent", "")
        if not intent:
            # The design payload carries the analysis intent through a
            # top-level hint the agent includes; fall back to inspecting
            # step targets when absent.
            steps = (
                design_payload.get("workflow", {}).get("steps")
                or design_payload.get("chosen", {}).get("steps")
                or []
            )
            targets = {s["target"] for s in steps}
            if "synthesize_forensic_evidence" in targets:
                intent = "latency_forensics"
            elif "build_cascade_timeline" in targets:
                intent = "cascading_failure"
            elif "split_events_by_kind" in targets:
                intent = "multi_disaster_impact"
            elif "aggregate_impact_by_country" in targets or any(
                t.startswith("xaminer.country_impact") for t in targets
            ):
                intent = "cable_failure_impact"
            else:
                intent = "generic_impact"
        return knowledge.plan_implementation(design_payload, intent)

    def _registrycurator(self, prompt: str) -> dict:
        design_payload = section_json(prompt, "EXECUTED WORKFLOW")
        execution_payload = section_json(prompt, "EXECUTION OUTCOME")
        return knowledge.curator_candidates(design_payload, execution_payload)


class SimulatedHostedLLM(SimulatedLLM):
    """The simulated expert behind a modeled network round trip.

    A hosted model's completion latency — not local compute — dominates
    pipeline wall time in the real deployment, and it is what a thread-based
    worker pool overlaps.  This backend sleeps ``latency_s`` per completion
    so serve-layer throughput experiments exercise the same bottleneck
    profile without network access.
    """

    model_name = "simulated-expert-v1-hosted"

    def __init__(self, latency_s: float = 0.05):
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        self.latency_s = latency_s

    def complete(self, request: LLMRequest) -> LLMResponse:
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().complete(request)
