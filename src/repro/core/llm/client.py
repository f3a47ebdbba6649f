"""The LLM client protocol: string prompts in, string completions out.

Agents never see backend internals; they format a prompt, call
:func:`complete_json`, and get parsed JSON with bounded retries on malformed
output — the same control flow a production deployment would run against a
hosted model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Protocol


@dataclass(frozen=True)
class LLMRequest:
    """One completion request."""

    agent: str  # "querymind" | "workflowscout" | "solutionweaver" | "registrycurator"
    system: str
    user: str
    attempt: int = 1
    metadata: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class LLMResponse:
    """One completion."""

    text: str
    model: str = "simulated-expert-v1"


class LLMError(RuntimeError):
    """The backend failed to produce any completion."""


class LLMParseError(LLMError):
    """The completion did not contain valid JSON after all retries."""


class LLMClient(Protocol):
    """Anything that can complete a prompt."""

    def complete(self, request: LLMRequest) -> LLMResponse:  # pragma: no cover - protocol
        ...


_JSON_FENCE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def extract_json(text: str) -> dict | list:
    """Pull the first JSON object out of a completion.

    Accepts fenced blocks (```json ... ```), bare JSON, or JSON embedded in
    prose (first ``{``/``[`` to the matching close) — the defensive parsing
    any LLM integration needs.
    """
    fenced = _JSON_FENCE.search(text)
    candidates: list[str] = []
    if fenced:
        candidates.append(fenced.group(1))
    stripped = text.strip()
    candidates.append(stripped)
    for opener, closer in (("{", "}"), ("[", "]")):
        start = stripped.find(opener)
        end = stripped.rfind(closer)
        if start != -1 and end > start:
            candidates.append(stripped[start : end + 1])
    for candidate in candidates:
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            continue
    raise LLMParseError(f"no JSON found in completion: {text[:200]!r}")


def complete_json(
    client: LLMClient,
    request: LLMRequest,
    validator=None,
    max_attempts: int = 3,
) -> dict | list:
    """Complete with JSON parsing and bounded retries.

    On a parse or validation failure the request is retried with the error
    appended to the prompt (so a real model can self-correct); after
    ``max_attempts`` the last error propagates.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    last_error: Exception | None = None
    user = request.user
    for attempt in range(1, max_attempts + 1):
        attempt_request = LLMRequest(
            agent=request.agent,
            system=request.system,
            user=user,
            attempt=attempt,
            metadata=request.metadata,
        )
        response = client.complete(attempt_request)
        try:
            payload = extract_json(response.text)
            if validator is not None:
                validator(payload)
            return payload
        except (LLMParseError, ValueError, KeyError, TypeError) as exc:
            last_error = exc
            user = (
                request.user
                + f"\n\n## PREVIOUS ATTEMPT FAILED\nYour attempt {attempt} failed with: {exc}."
                + " Return only valid JSON matching the schema."
            )
    raise LLMParseError(f"agent {request.agent!r} failed after {max_attempts} attempts: {last_error}")
