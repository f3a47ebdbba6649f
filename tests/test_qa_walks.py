"""The generated workflows' QA walks agree exactly with their recursive oracles.

``qa_sanity_bounds`` and ``qa_significance_assessment`` check scalars in
their container's loop and name a value by the dict key above it, where the
oracles in ``measurement_oracles`` recurse into every value and parse the
name back out of its path.  The one difference is deliberate: tuples (a
measurement table's columns) are walked like lists, so each oracle sees
the tree with its tuples as lists, as ``canonical_json`` writes them.
"""

import math
import random

import pytest

import measurement_oracles as oracle
from repro.core.codegen import QA_TEMPLATES
from repro.core.pipeline import ArachNet
from repro.evalharness.casestudies import CASE_QUERIES
from repro.synth.scenarios import make_latency_incident


def _template(name):
    namespace = {}
    exec(QA_TEMPLATES[name], namespace)
    return namespace[f"qa_{name}"]


SANITY = _template("sanity_bounds")
SIGNIFICANCE = _template("significance_assessment")


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


def _assert_walks_equal_oracle(results):
    as_lists = _as_lists(results)
    assert SANITY(results) == oracle.qa_sanity_bounds(as_lists)
    assert SIGNIFICANCE(results) == oracle.qa_significance_assessment(as_lists)


@pytest.fixture(scope="module")
def case_results(world):
    results = {}
    for case in sorted(CASE_QUERIES):
        incidents = [make_latency_incident(world, "SeaMeWe-5")] if case == 4 else []
        system = ArachNet.for_world(world, incidents=incidents, curate=False)
        results[case] = system.answer(CASE_QUERIES[case]).execution.outputs["results"]
    return results


@pytest.mark.parametrize("case", sorted(CASE_QUERIES))
def test_qa_walks_equal_oracle_on_case_results(case_results, case):
    _assert_walks_equal_oracle(case_results[case])


def test_negative_rtt_in_a_table_column_is_reported(case_results):
    results = dict(case_results[4])
    table = dict(results["s1"])
    assert len(table["rtt_ms"]) > 200
    table["rtt_ms"] = table["rtt_ms"][:3] + (-1.0,) + table["rtt_ms"][4:]
    results["s1"] = table
    report = SANITY(results)
    assert "s1.rtt_ms[3]=-1.0 negative" in report["violations"]
    _assert_walks_equal_oracle(results)


def test_negative_median_in_a_series_column_is_reported(case_results):
    # Case 4's s2 holds one tuple per bin column; the walks read its medians
    # and find the p-values that only s3 carries.
    results = dict(case_results[4])
    assert all(type(column) is tuple for columns in results["s2"].values()
               for column in columns.values())
    assert SIGNIFICANCE(results)["p_value_count"] == len(results["s3"][:300])
    series = dict(results["s2"])
    key = next(iter(series))
    columns = dict(series[key])
    medians = columns["median_rtt_ms"]
    assert 5 < len(medians) <= 200 and medians[5] is not None
    columns["median_rtt_ms"] = medians[:5] + (-2.5,) + medians[6:]
    series[key] = columns
    results["s2"] = series
    report = SANITY(results)
    assert f"s2.{key}.median_rtt_ms[5]=-2.5 negative" in report["violations"]
    assert report["violation_count"] == SANITY(case_results[4])["violation_count"] + 1
    _assert_walks_equal_oracle(results)


# Keys whose text the walks must read the way the oracles parse paths: dots
# and brackets inside keys, and 1 / 1.0 / True, which are one dict key but
# three spellings.
KEYS = ("score", "confidence", "p_value", "fraction", "rtt_ms", "median_rtt_ms",
        "capacity_lost_gbps", "x", "a.score", "score.x", "rtt_ms[2", "p_value[x].y",
        "a[0].rtt_ms", "[", ".", "", 1, 1.0, True, 0, False, None, 2.5, ("t", "rtt_ms"))
SCALARS = (0, 1, -3, 0.5, 1.5, -0.25, -1e-10, 1.0 + 2e-9, True, False, math.nan,
           -math.inf, math.inf, None, "rtt_ms", "-1")


def _tree(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(SCALARS)
    if roll < 0.65:
        return {rng.choice(KEYS): _tree(rng, depth - 1) for _ in range(rng.randint(0, 6))}
    length = rng.choice((0, 1, 3, 8, 199, 200, 201, 250, 299, 300, 301, 350))
    # Long lists hold scalars and flat dicts, which keeps a tree small.
    items = [_tree(rng, depth - 1) if length < 10
             else {rng.choice(KEYS): rng.choice(SCALARS)} if rng.random() < 0.2
             else rng.choice(SCALARS)
             for _ in range(length)]
    return tuple(items) if roll < 0.8 else items


def test_qa_walks_equal_oracle_on_random_trees():
    rng = random.Random(24)
    reported = 0
    for _ in range(300):
        results = {rng.choice(("s1", "s2", "rtt_ms", "a.score", "p_value", "s[3]")):
                   _tree(rng, 5) for _ in range(rng.randint(1, 4))}
        _assert_walks_equal_oracle(results)
        reported += SANITY(results)["violation_count"] > 0
    assert 0 < reported < 300


def test_qa_walks_read_only_their_sample_of_a_long_list():
    # Items past the 200th (sanity) and 300th (significance) go unread.
    results = {"s1": {"rtt_ms": [1.0] * 200 + [-1.0]},
               "s2": ({"p_value": 0.5},) * 300 + ({"p_value": 0.001},)}
    assert SANITY(results)["violation_count"] == 0
    assert SIGNIFICANCE(results) == {"passed": False, "p_value_count": 300,
                                     "significant_at_1pct": 0}
    _assert_walks_equal_oracle(results)


def test_coverage_check_counts_a_table_without_rows_as_empty(world):
    from repro.traceroute.api import run_campaign

    coverage = _template("coverage_check")
    full = run_campaign(world, "europe", "asia", 0.0, 7200.0)
    empty = {name: column[:0] for name, column in full.items()}
    report = coverage({"s1": full, "s2": empty, "s3": [], "s4": {"a": ()}})
    assert report["empty_steps"] == ["s2", "s3"]
