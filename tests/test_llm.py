"""LLM layer: client plumbing, prompt sections, simulated backend, knowledge."""

import json

import pytest

from repro.core.llm.client import (
    LLMParseError,
    LLMRequest,
    complete_json,
    extract_json,
)
from repro.core.llm.knowledge import detect_intent, extract_entities, find_entry
from repro.core.llm.prompts import querymind_prompt, section, section_json
from repro.core.llm.simulated import SimulatedLLM
from repro.core.pipeline import build_data_context
from repro.core.registry import default_registry

from scripted_llm import GarblingLLM, ScriptedLLM


# -- JSON extraction ------------------------------------------------------------

def test_extract_json_fenced():
    assert extract_json('```json\n{"a": 1}\n```') == {"a": 1}


def test_extract_json_bare():
    assert extract_json('{"a": 1}') == {"a": 1}


def test_extract_json_embedded_in_prose():
    assert extract_json('Sure! Here is the plan: {"a": [1, 2]} Hope it helps.') == {"a": [1, 2]}


def test_extract_json_failure():
    with pytest.raises(LLMParseError):
        extract_json("no json anywhere")


# -- retry loop ------------------------------------------------------------------

def test_complete_json_retries_on_garbage():
    llm = ScriptedLLM(["garbage", "more garbage", '{"ok": true}'])
    request = LLMRequest(agent="querymind", system="s", user="u")
    assert complete_json(llm, request, max_attempts=3) == {"ok": True}
    assert llm.remaining == 0
    # Retry prompts must carry the failure feedback.
    assert "PREVIOUS ATTEMPT FAILED" in llm.requests[-1].user


def test_complete_json_exhausts_attempts():
    llm = ScriptedLLM(["x", "y", "z"])
    request = LLMRequest(agent="querymind", system="s", user="u")
    with pytest.raises(LLMParseError):
        complete_json(llm, request, max_attempts=3)


def test_complete_json_validator_failures_retry():
    llm = ScriptedLLM(['{"bad": 1}', '{"good": 1}'])

    def validator(payload):
        if "good" not in payload:
            raise ValueError("missing good")

    request = LLMRequest(agent="querymind", system="s", user="u")
    assert complete_json(llm, request, validator=validator, max_attempts=2) == {"good": 1}


def test_scripted_llm_exhaustion():
    from repro.core.llm.client import LLMError

    llm = ScriptedLLM([])
    with pytest.raises(LLMError):
        llm.complete(LLMRequest(agent="a", system="s", user="u"))


# -- prompt sections ----------------------------------------------------------------

def test_section_extraction(world):
    prompt = querymind_prompt("What about cables?", default_registry().to_prompt_text(),
                              build_data_context(world))
    assert section(prompt, "QUERY").strip() == "What about cables?"
    rows = section_json(prompt, "REGISTRY")
    assert any(r["name"] == "xaminer.process_event" for r in rows)
    context = section_json(prompt, "DATA CONTEXT")
    assert "SeaMeWe-5" in context["cable_names"]


def test_section_missing_raises():
    with pytest.raises(KeyError):
        section("## A\nbody", "B")


# -- intent detection -----------------------------------------------------------------

@pytest.mark.parametrize(
    "query,expected",
    [
        ("Identify the impact at a country level due to SeaMeWe-5 cable failure",
         "cable_failure_impact"),
        ("Identify the impact of severe earthquakes and hurricanes globally "
         "assuming a 10% infra failure probability", "multi_disaster_impact"),
        ("Analyze the cascading effects of submarine cable failures between "
         "Europe and Asia", "cascading_failure"),
        ("A sudden increase in latency was observed from European probes to "
         "Asian destinations starting three days ago. Determine if a submarine "
         "cable failure caused this, and if so, identify the specific cable.",
         "latency_forensics"),
        ("How exposed is Singapore to single cable failures?", "risk_assessment"),
        ("Tell me something about the network", "generic_impact"),
    ],
)
def test_intent_detection(query, expected):
    assert detect_intent(query) == expected


# -- entity extraction ------------------------------------------------------------------

def test_entity_extraction_grounded(world):
    context = build_data_context(world)
    entities = extract_entities(
        "Identify the impact at a country level due to SeaMeWe-5 cable failure",
        context,
    )
    assert entities["cable_names"] == ["SeaMeWe-5"]
    assert entities["aggregation_level"] == "country"


def test_entity_extraction_probability_and_days(world):
    context = build_data_context(world)
    entities = extract_entities(
        "assume a 10% failure probability starting three days ago in Europe",
        context,
    )
    assert entities["failure_probability"] == pytest.approx(0.1)
    assert entities["days_since_onset"] == 3
    assert entities["regions"] == ["europe"]


def test_entity_extraction_ignores_unknown_cables(world):
    context = build_data_context(world)
    entities = extract_entities("impact of the Atlantis-9 cable failure", context)
    assert "cable_names" not in entities


# -- knowledge helpers ---------------------------------------------------------------------

def test_find_entry_prefers_named():
    index = {
        "a.x": {"capabilities": ["impact_analysis"]},
        "b.y": {"capabilities": ["impact_analysis", "country_aggregation"]},
    }
    assert find_entry(index, ["impact_analysis"], prefer="a.x") == "a.x"
    assert find_entry(index, ["impact_analysis", "country_aggregation"]) == "b.y"
    assert find_entry({}, ["anything"]) is None


# -- simulated backend ------------------------------------------------------------------------

def test_simulated_llm_returns_fenced_json(world):
    llm = SimulatedLLM()
    prompt = querymind_prompt(
        "Identify the impact at a country level due to SeaMeWe-5 cable failure",
        default_registry().to_prompt_text(),
        build_data_context(world),
    )
    response = llm.complete(LLMRequest(agent="querymind", system="s", user=prompt))
    payload = extract_json(response.text)
    assert payload["intent"] == "cable_failure_impact"
    assert payload["sub_problems"]


def test_simulated_llm_unknown_agent():
    llm = SimulatedLLM()
    with pytest.raises(ValueError):
        llm.complete(LLMRequest(agent="mystery", system="s", user="u"))


def test_simulated_llm_fail_first_attempts(world):
    llm = GarblingLLM(SimulatedLLM())
    prompt = querymind_prompt(
        "cable failure impact of FALCON",
        default_registry().to_prompt_text(),
        build_data_context(world),
    )
    request = LLMRequest(agent="querymind", system="s", user=prompt)
    payload = complete_json(llm, request, max_attempts=3)
    assert payload["intent"] == "cable_failure_impact"
    with pytest.raises(LLMParseError):  # the garbled first attempt alone fails
        complete_json(GarblingLLM(SimulatedLLM()), request, max_attempts=1)
