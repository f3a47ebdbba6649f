"""The generated QA checks read only declared fields, and agree exactly with
the recursive oracles that read everything.

``qa_sanity_bounds`` and ``qa_significance_assessment`` follow the
``BOUNDED_FIELDS`` table a generated module carries: each step's
bounded-field paths, as its registry entry or transform declares them.
The oracles in ``measurement_oracles`` recurse into every value of every
step instead.  Two things are held here:

* the reports are equal, on real workflows, on one direct call of every
  registry tool and on random data built from each declared shape, so
  reading less never changes what a check says;
* every value an oracle reads lies on a declared path
  (``qa_bounded_paths``), so no tool emits a bounded field it does not
  declare.  A new tool whose output has a ``score``, ``rtt_ms`` or
  ``p_value`` the declarations miss fails here as a hole.

Tuples (a measurement table's columns) are read like lists, so each
oracle sees the tree with its tuples as lists, as ``canonical_json``
writes them.
"""

import math
import random

import pytest

import measurement_oracles as oracle
from repro.core.artifacts import PipelineResult, StepType, WorkflowStep
from repro.core.codegen import (
    QA_TEMPLATES,
    TRANSFORM_BOUNDED_FIELDS,
    bounded_field_shapes,
)
from repro.core.pipeline import ArachNet
from repro.core.registry import RegistryEntry, default_registry, parse_field_path
from repro.evalharness.casestudies import CASE_QUERIES
from repro.live import LiveConfig, overlapping_catalog_timeline, run_live_replay
from repro.serve.campaign import CampaignSpec
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world


def _checks(bounded_fields):
    """The two generated checks, reading ``bounded_fields`` as a generated
    module's ``BOUNDED_FIELDS``."""
    namespace = {"BOUNDED_FIELDS": bounded_fields}
    exec(QA_TEMPLATES["sanity_bounds"] + QA_TEMPLATES["significance_assessment"], namespace)
    return namespace["qa_sanity_bounds"], namespace["qa_significance_assessment"]


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


def _holes(results, bounded_fields):
    """The oracle-read paths that no declared path of their step covers."""
    holes = []
    for step_id, segments in sorted(oracle.qa_bounded_paths(_as_lists(results)), key=repr):
        node = bounded_fields.get(step_id, {})
        for segment in segments:
            node = node.get("*" if "*" in node and segment != "[]" else segment)
            if node is None:
                break
        if node != {}:
            holes.append((step_id, segments))
    return holes


def _assert_checks_equal_oracle(results, bounded_fields):
    sanity, significance = _checks(bounded_fields)
    as_lists = _as_lists(results)
    assert sanity(results) == oracle.qa_sanity_bounds(as_lists)
    assert significance(results) == oracle.qa_significance_assessment(as_lists)


def _assert_declarations_hold(result):
    """A pipeline run's generated checks read what the oracles read, and its
    quality report holds their reports."""
    assert result.execution.succeeded, result.execution.error
    results = result.execution.outputs["results"]
    namespace = {}
    exec(result.solution.source_code, namespace)
    bounded_fields = namespace["BOUNDED_FIELDS"]
    assert _holes(results, bounded_fields) == []
    _assert_checks_equal_oracle(results, bounded_fields)
    sanity, significance = _checks(bounded_fields)
    report = result.execution.quality_report
    if "sanity_bounds" in report:
        assert report["sanity_bounds"] == sanity(results)
    if "significance_assessment" in report:
        assert report["significance_assessment"] == significance(results)


def _case_results(world):
    out = {}
    for case in sorted(CASE_QUERIES):
        incidents = [make_latency_incident(world, "SeaMeWe-5")] if case == 4 else []
        system = ArachNet.for_world(world, incidents=incidents, curate=False)
        out[case] = system.answer(CASE_QUERIES[case])
    return out


@pytest.fixture(scope="module")
def case_runs(world):
    return _case_results(world)


@pytest.fixture(scope="module")
def case_results(case_runs):
    return {case: run.execution.outputs["results"] for case, run in case_runs.items()}


@pytest.fixture(scope="module")
def case4_fields(case_runs):
    namespace = {}
    exec(case_runs[4].solution.source_code, namespace)
    return namespace["BOUNDED_FIELDS"]


@pytest.mark.parametrize("case", sorted(CASE_QUERIES))
def test_qa_walks_equal_oracle_on_case_results(case_runs, case):
    _assert_declarations_hold(case_runs[case])


@pytest.mark.parametrize("seed", (11, 3))
def test_declarations_cover_case_results_on_other_worlds(seed):
    for result in _case_results(build_world(WorldConfig(seed=seed))).values():
        _assert_declarations_hold(result)


def test_declarations_cover_the_campaign_matrix_and_a_nautilus_only_registry(world):
    system = ArachNet.for_world(world, curate=False)
    jobs = CampaignSpec.for_world(world, cascades=True).expand()
    assert len(jobs) == 26
    for job in jobs:
        _assert_declarations_hold(system.answer(job.query))
    # Case study 1 withholds Xaminer: the generated aggregation transforms
    # carry the scores and lost capacity instead.
    nautilus_only = default_registry().subset(frameworks=["nautilus"])
    result = ArachNet.for_world(world, registry=nautilus_only, curate=False).answer(
        CASE_QUERIES[1])
    assert {"aggregate_impact_by_country", "rank_countries_by_impact"} <= {
        step.target for step in result.design.chosen.steps}
    _assert_declarations_hold(result)


def test_declarations_cover_a_cold_live_replay(monkeypatch):
    # Every forensic answer a replay digests, on a world no test has warmed.
    answered = []
    root_of = PipelineResult.artifact_digest

    def recorded(result):
        answered.append(result)
        return root_of(result)

    monkeypatch.setattr(PipelineResult, "artifact_digest", recorded)
    world = build_world(WorldConfig(seed=7))
    report = run_live_replay(world=world, timeline_events=overlapping_catalog_timeline(world, count=3),
                             config=LiveConfig(forensics=True))
    assert report.completed_cases == 3 and answered
    for result in answered:
        _assert_declarations_hold(result)


def _direct_calls(catalog, incident):
    """One call of every registry tool: keyword arguments by entry name."""
    start, end = incident.window_start, incident.window_end
    deps = catalog.call("nautilus.get_cable_dependencies", cable_name="SeaMeWe-5")
    events = catalog.call("xaminer.list_disasters", severe_only=True)
    event = {"event_spec": events[0], "failure_probability": 1.0, "seed": 0}
    report = catalog.call("xaminer.process_event", **event)
    window = {"src_region": "europe", "dst_region": "asia",
              "window_start": start, "window_end": end, "interval_s": 3600.0}
    table = catalog.call("traceroute.run_campaign", **window)
    series = catalog.call("traceroute.latency_series", measurement_rows=table,
                          group_by="pair", bin_seconds=3600.0)
    updates = catalog.call("bgp.fetch_updates", window_start=start, window_end=end)
    return {
        "nautilus.list_cables": {},
        "nautilus.get_cable_info": {"cable_name": "SeaMeWe-5"},
        "nautilus.map_ip_links_to_cables": {},
        "nautilus.get_cable_dependencies": {"cable_name": "SeaMeWe-5"},
        "nautilus.geolocate_ips": {"ips": deps["ips"][:50]},
        "nautilus.sol_validate_link": {"link_id": deps["link_ids"][0], "observed_rtt_ms": 50.0},
        "xaminer.process_event": event,
        "xaminer.country_impact": {"failed_link_ids": deps["link_ids"]},
        "xaminer.as_impact": {"failed_link_ids": deps["link_ids"]},
        "xaminer.risk_profile": {"country_code": None},
        "xaminer.list_disasters": {"severe_only": False},
        "xaminer.combine_impact_reports": {"reports": [report, report]},
        "bgp.fetch_updates": {"window_start": start, "window_end": end},
        "bgp.detect_routing_anomalies": {"update_rows": updates, "window_start": start,
                                         "window_end": end},
        "bgp.summarize_path_changes": {"update_rows": updates},
        "bgp.correlate_updates_with_window": {"update_rows": updates,
                                              "anomaly_start": incident.onset,
                                              "anomaly_end": incident.onset + 7200.0},
        "traceroute.run_campaign": window,
        "traceroute.latency_series": {"measurement_rows": table, "group_by": "pair",
                                      "bin_seconds": 3600.0},
        "traceroute.detect_latency_anomalies": {"series_rows": series},
        "traceroute.paths_crossing_links": {"measurement_rows": table,
                                            "link_ids": deps["link_ids"]},
        "topology.as_dependency_scores": {},
        "topology.propagate_cascade": {"initial_failed_link_ids": deps["link_ids"],
                                       "initial_cable_ids": [deps["cable_id"]]},
    }


def test_declarations_cover_every_registry_tool_called_directly(registry, incident_catalog,
                                                                incident):
    # Some tools (as_impact, paths_crossing_links, combine_impact_reports)
    # run in no workflow above; each tool runs here once.  A new entry
    # needs a call in _direct_calls.
    calls = _direct_calls(incident_catalog, incident)
    assert sorted(calls) == registry.names()
    outputs = {name: incident_catalog.call(name, **kwargs) for name, kwargs in calls.items()}
    assert outputs["traceroute.detect_latency_anomalies"]  # rows with p-values
    for name, output in outputs.items():
        step = WorkflowStep(id="s1", step_type=StepType.REGISTRY, target=name)
        bounded_fields = bounded_field_shapes([step], registry)
        assert _holes({"s1": output}, bounded_fields) == [], name
        _assert_checks_equal_oracle({"s1": output}, bounded_fields)


def test_negative_rtt_in_a_table_column_is_reported(case_results, case4_fields):
    sanity, _ = _checks(case4_fields)
    results = dict(case_results[4])
    table = dict(results["s1"])
    assert len(table["rtt_ms"]) > 200
    table["rtt_ms"] = table["rtt_ms"][:3] + (-1.0,) + table["rtt_ms"][4:]
    results["s1"] = table
    report = sanity(results)
    assert "s1.rtt_ms[3]=-1.0 negative" in report["violations"]
    _assert_checks_equal_oracle(results, case4_fields)


def test_negative_median_in_a_series_column_is_reported(case_results, case4_fields):
    # Case 4's s2 holds one tuple per bin column; the checks read its medians
    # and find the p-values that only s3 carries.
    sanity, significance = _checks(case4_fields)
    results = dict(case_results[4])
    assert all(type(column) is tuple for columns in results["s2"].values()
               for column in columns.values())
    assert significance(results)["p_value_count"] == len(results["s3"][:300])
    series = dict(results["s2"])
    key = next(iter(series))
    columns = dict(series[key])
    medians = columns["median_rtt_ms"]
    assert 5 < len(medians) <= 200 and medians[5] is not None
    columns["median_rtt_ms"] = medians[:5] + (-2.5,) + medians[6:]
    series[key] = columns
    results["s2"] = series
    report = sanity(results)
    assert f"s2.{key}.median_rtt_ms[5]=-2.5 negative" in report["violations"]
    assert report["violation_count"] == sanity(case_results[4])["violation_count"] + 1
    _assert_checks_equal_oracle(results, case4_fields)


# -- random data from each declared shape -----------------------------------------

# Numbers in and out of range, and what the checks must pass over: bools,
# None, NaN, infinities and strings.
INJECTED = (0, 1, -3, 0.5, 1.5, -0.25, -1e-10, 1.0 + 2e-9, -0.0, 2.5, True, False,
            math.nan, -math.inf, math.inf, None, "-1", "x")
# Keys of data-keyed maps, some of them what the oracle would parse as a
# bounded name if a value sat right under them.
MAP_KEYS = ("DE->SG", "link-7", "10.0.0.1", "a.score", "x[1]", "", 1, 2.5, True)
# Undeclared fields; none names a bounded value.
EXTRA_KEYS = ("count", "name", "link_fraction", "min_p_value", "rtt", "scores")
LENGTHS = (0, 1, 3, 8, 199, 200, 201, 250, 299, 300, 301, 350)


def _column(rng, length):
    values = [round(rng.uniform(0.0, 1.0), 4) for _ in range(length)]
    for _ in range(rng.choice((0, 0, 1, 3))):
        if values:
            values[rng.randrange(length)] = rng.choice(INJECTED)
    return values


def _from_shape(rng, shape, budget):
    """A value of ``shape`` (a step's declared tree) with about ``budget``
    leaves at most: lists may run past the 200- and 300-item samples, and
    any field may be missing, None, or beside undeclared fields."""
    if not shape:
        return rng.choice(INJECTED) if rng.random() < 0.3 else round(rng.uniform(0.0, 1.0), 4)
    if "[]" in shape:
        child = shape["[]"]
        fits = [n for n in LENGTHS if n <= budget] or [0]
        length = rng.choice(fits)
        items = (_column(rng, length) if not child
                 else [_from_shape(rng, child, budget // max(length, 1)) for _ in range(length)])
        return tuple(items) if rng.random() < 0.5 else items
    if "*" in shape:
        keys = rng.sample(MAP_KEYS, rng.randint(0, 4))
        return {key: _from_shape(rng, shape["*"], budget // max(len(keys), 1)) for key in keys}
    row = {}
    for key, child in shape.items():
        roll = rng.random()
        if roll < 0.1:
            continue
        row[key] = None if roll < 0.15 else _from_shape(rng, child, budget)
    for key in rng.sample(EXTRA_KEYS, rng.randint(0, 2)):
        row[key] = rng.choice(INJECTED)
    ordered = list(row.items())
    rng.shuffle(ordered)
    return dict(ordered)


def _declared_steps(registry):
    steps = [WorkflowStep(id="", step_type=StepType.TRANSFORM, target=name)
             for name, paths in TRANSFORM_BOUNDED_FIELDS.items() if paths]
    for entry in registry.entries.values():
        if entry.bounded_fields:
            steps.append(WorkflowStep(id="", step_type=StepType.REGISTRY, target=entry.name))
            steps.append(WorkflowStep(id="", step_type=StepType.REGISTRY, target=entry.name,
                                      foreach="step:s0"))
    return steps


def test_qa_walks_equal_oracle_on_random_declared_shapes(registry):
    rng = random.Random(29)
    declared = _declared_steps(registry)
    undeclared = WorkflowStep(id="", step_type=StepType.REGISTRY, target="nautilus.list_cables")
    reported = significant = 0
    for _ in range(400):
        chosen = rng.sample(declared, rng.randint(1, 3)) + [undeclared]
        steps = [WorkflowStep(id=f"s{i + 1}", step_type=step.step_type, target=step.target,
                              foreach=step.foreach) for i, step in enumerate(chosen)]
        bounded_fields = bounded_field_shapes(steps, registry)
        results = {sid: _from_shape(rng, shape, 2000) for sid, shape in bounded_fields.items()}
        results[steps[-1].id] = [{"name": "x", "length_km": -5.0}]
        assert _holes(results, bounded_fields) == []
        _assert_checks_equal_oracle(results, bounded_fields)
        sanity, significance = _checks(bounded_fields)
        reported += sanity(results)["violation_count"] > 0
        significant += significance(results)["p_value_count"] > 0
    assert 0 < reported < 400 and significant > 0


@pytest.mark.parametrize("leaf", oracle.UNIT_LEAVES + oracle.POSITIVE_LEAVES)
def test_column_pass_agrees_with_the_oracle_for_every_bounded_name(leaf):
    # Today's declared columns are all RTTs; the one-pass check must hold
    # for a column of any bounded name, NaN and strings included.
    rng = random.Random(leaf)
    bounded_fields = {"s1": {leaf: {"[]": {}}}}
    for _ in range(200):
        column = _column(rng, rng.choice(LENGTHS))
        _assert_checks_equal_oracle({"s1": {leaf: tuple(column)}}, bounded_fields)


def test_qa_walks_read_only_their_sample_of_a_long_list():
    # Items past the 200th (sanity) and 300th (significance) go unread.
    bounded_fields = {"s1": {"rtt_ms": {"[]": {}}}, "s2": {"[]": {"p_value": {}}}}
    sanity, significance = _checks(bounded_fields)
    results = {"s1": {"rtt_ms": [1.0] * 200 + [-1.0]},
               "s2": ({"p_value": 0.5},) * 300 + ({"p_value": 0.001},)}
    assert sanity(results)["violation_count"] == 0
    assert significance(results) == {"passed": False, "p_value_count": 300,
                                     "significant_at_1pct": 0}
    _assert_checks_equal_oracle(results, bounded_fields)


def test_undeclared_fields_go_unread():
    # What a tool does not declare is outside the checks, however it is
    # named: the hole finder is what keeps the declarations complete.
    sanity, significance = _checks({"s1": {"ranking": {"[]": {"score": {}}}}})
    results = {"s1": {"ranking": [{"score": 2.0}], "confidence": 7.0, "p_value": 0.001},
               "s2": {"rtt_ms": [-1.0]}}
    assert sanity(results)["violations"] == ["s1.ranking[0].score=2.0 outside [0,1]"]
    assert significance(results)["p_value_count"] == 0
    assert _holes(results, {"s1": {"ranking": {"[]": {"score": {}}}}}) == [
        ("s1", ("confidence",)), ("s1", ("p_value",)), ("s2", ("rtt_ms", "[]"))]


def test_field_paths_parse_and_bad_ones_are_rejected():
    assert parse_field_path("*.candidates[].score") == ("*", "candidates", "[]", "score")
    assert parse_field_path("[].p_value") == ("[]", "p_value")
    assert parse_field_path("rtt_ms[]") == ("rtt_ms", "[]")
    for bad in ("", "*", "[]", "x.*", "*[]", "a..b", ".a", "a[", "a[]b", "a-b"):
        with pytest.raises(ValueError):
            parse_field_path(bad)
    with pytest.raises(ValueError):
        RegistryEntry(name="x.y", framework="x", summary="", capabilities=("t",),
                      inputs=(), outputs=(), bounded_fields=("x.*",))


def test_shapes_prefix_foreach_steps(registry):
    step = WorkflowStep(id="s3", step_type=StepType.REGISTRY, target="xaminer.process_event",
                        foreach="step:s2.earthquake")
    assert bounded_field_shapes([step], registry) == {"s3": {"[]": {
        "country_ranking": {"[]": {"score": {}}}, "as_ranking": {"[]": {"fraction": {}}}}}}


def test_coverage_check_counts_a_table_without_rows_as_empty(world):
    from repro.traceroute.api import run_campaign

    namespace = {}
    exec(QA_TEMPLATES["coverage_check"], namespace)
    full = run_campaign(world, "europe", "asia", 0.0, 7200.0)
    empty = {name: column[:0] for name, column in full.items()}
    report = namespace["qa_coverage_check"]({"s1": full, "s2": empty, "s3": [], "s4": {"a": ()}})
    assert report["empty_steps"] == ["s2", "s3"]
