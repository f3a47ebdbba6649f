"""LLM test doubles: canned completions, and a wrapper that garbles a
real backend's first replies.

Feed ``ScriptedLLM`` a list of reply strings; each ``complete`` call pops
the next one.  Useful for exercising parse-retry behaviour (malformed
replies), agent validation failures (well-formed but wrong JSON), and
recording/replay scenarios.  ``GarblingLLM`` drives the same retry loop in
front of a backend that would otherwise always answer well.
"""

from __future__ import annotations

from repro.core.llm.client import LLMError, LLMRequest, LLMResponse


class ScriptedLLM:
    """Replays a fixed sequence of completions."""

    def __init__(self, replies: list[str]):
        self._replies = list(replies)
        self._log: list[LLMRequest] = []

    @property
    def requests(self) -> list[LLMRequest]:
        """Every request received, for assertions on prompt construction."""
        return list(self._log)

    @property
    def remaining(self) -> int:
        return len(self._replies)

    def complete(self, request: LLMRequest) -> LLMResponse:
        self._log.append(request)
        if not self._replies:
            raise LLMError("scripted backend exhausted its replies")
        return LLMResponse(text=self._replies.pop(0), model="scripted")


class GarblingLLM:
    """Answers the first ``garbled`` requests with prose no parser accepts,
    then passes every request through to ``backend``."""

    def __init__(self, backend, garbled: int = 1):
        self._backend = backend
        self._garbled = garbled

    def complete(self, request: LLMRequest) -> LLMResponse:
        if self._garbled > 0:
            self._garbled -= 1
            return LLMResponse(text="I think the answer might involve cables…",
                               model="garbled")
        return self._backend.complete(request)
