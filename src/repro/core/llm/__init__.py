"""LLM substrate: the client protocol and its offline backends.

The paper's prototype runs Claude Sonnet 4 behind four agent prompts.  This
package keeps the same seam — agents build prompt strings, send them through
an :class:`~repro.core.llm.client.LLMClient`, and parse structured JSON out
of the reply — while shipping one offline backend,
:class:`~repro.core.llm.simulated.SimulatedLLM`: a deterministic
expert-system backend that encodes the same measurement reasoning the
paper's prompt engineering distilled from human experts.

A real API client can be dropped in by implementing ``complete``.
"""

from repro.core.llm.client import (
    LLMClient,
    LLMError,
    LLMParseError,
    LLMRequest,
    LLMResponse,
    complete_json,
    extract_json,
)
from repro.core.llm.simulated import SimulatedLLM

__all__ = [
    "LLMClient",
    "LLMError",
    "LLMParseError",
    "LLMRequest",
    "LLMResponse",
    "complete_json",
    "extract_json",
    "SimulatedLLM",
]
