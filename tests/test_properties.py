"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.changepoint import cusum_change_point
from repro.bgp.collector import BGPCollectorSim
from repro.synth.world import WorldConfig, build_world
from repro.analysis.evidence import EvidenceItem, synthesize_evidence
from repro.analysis.scoring import rank_suspects
from repro.analysis.stats import mad, median
from repro.bgp.anomaly import _robust_zscores as robust_zscores
from repro.bgp.messages import path_edit_distance
from repro.core.artifacts import CandidateWorkflow, StepType, WorkflowStep
from repro.core.workflow import WorkflowValidationError, topological_order
from repro.nautilus.sol import min_rtt_ms
from repro.synth.geography import haversine_km, interpolate

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coords = st.tuples(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)


# -- geography ---------------------------------------------------------------------

@given(coords, coords)
def test_haversine_symmetric_nonnegative(a, b):
    d_ab = haversine_km(a, b)
    d_ba = haversine_km(b, a)
    assert d_ab >= 0
    assert math.isclose(d_ab, d_ba, rel_tol=1e-9, abs_tol=1e-9)


@given(coords, coords, coords)
def test_haversine_triangle_inequality(a, b, c):
    assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


@given(coords, coords, st.floats(min_value=0.0, max_value=1.0))
def test_interpolate_stays_in_bounding_box(a, b, fraction):
    lat, lon = interpolate(a, b, fraction)
    assert min(a[0], b[0]) - 1e-9 <= lat <= max(a[0], b[0]) + 1e-9
    assert min(a[1], b[1]) - 1e-9 <= lon <= max(a[1], b[1]) + 1e-9


# -- speed of light -----------------------------------------------------------------

@given(st.floats(min_value=0.0, max_value=1e5),
       st.floats(min_value=0.0, max_value=1e5))
def test_min_rtt_monotone(d1, d2):
    if d1 <= d2:
        assert min_rtt_ms(d1) <= min_rtt_ms(d2)


# -- statistics ------------------------------------------------------------------------

@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_median_between_min_and_max(values):
    m = median(values)
    assert min(values) <= m <= max(values)


@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_mad_nonnegative(values):
    assert mad(values) >= 0


@given(st.lists(finite_floats, min_size=1, max_size=50), finite_floats)
def test_median_shift_equivariance(values, shift):
    shifted = [v + shift for v in values]
    assert math.isclose(median(shifted), median(values) + shift,
                        rel_tol=1e-6, abs_tol=1e-6)


@given(st.lists(finite_floats, min_size=3, max_size=60))
def test_robust_zscores_length_and_median_zero(values):
    scores = robust_zscores(values)
    assert len(scores) == len(values)
    assert abs(median(scores)) < 1e-9


# -- change points -----------------------------------------------------------------------

@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=5.0, max_value=100.0),
    st.integers(min_value=8, max_value=30),
    st.integers(min_value=8, max_value=30),
)
def test_cusum_locates_clean_shift(base, delta, n_before, n_after):
    values = [base] * n_before + [base + delta] * n_after
    idx = cusum_change_point(values)
    assert idx is not None
    assert abs(idx - n_before) <= 2


@given(st.lists(finite_floats, min_size=0, max_size=7))
def test_cusum_short_series_none(values):
    assert cusum_change_point(values) is None


# -- path edit distance ---------------------------------------------------------------------

as_paths = st.lists(st.integers(min_value=1, max_value=99), min_size=0, max_size=8).map(tuple)


@given(as_paths, as_paths)
def test_edit_distance_metric_properties(a, b):
    d = path_edit_distance(a, b)
    assert d == path_edit_distance(b, a)
    assert d >= abs(len(a) - len(b))
    assert d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


@given(as_paths, as_paths, as_paths)
@settings(max_examples=50)
def test_edit_distance_triangle(a, b, c):
    assert path_edit_distance(a, c) <= (
        path_edit_distance(a, b) + path_edit_distance(b, c)
    )


# -- suspect scoring ----------------------------------------------------------------------------

@given(
    st.lists(
        st.fixed_dictionaries(
            {"id": st.text(min_size=1, max_size=5),
             "votes": st.floats(min_value=0, max_value=100)}
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda r: r["id"],
    )
)
def test_rank_suspects_scores_bounded_and_sorted(rows):
    ranked = rank_suspects(rows, weights={"votes": 1.0})
    scores = [r["score"] for r in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(-1e-9 <= s <= 1.0 + 1e-9 for s in scores)
    assert len(ranked) == len(rows)


# -- evidence synthesis ----------------------------------------------------------------------------

evidence_items = st.lists(
    st.builds(
        EvidenceItem,
        kind=st.sampled_from(["statistical", "infrastructure", "routing"]),
        description=st.just("d"),
        strength=st.floats(min_value=0.0, max_value=1.0),
        supports=st.booleans(),
    ),
    min_size=0,
    max_size=8,
)


@given(evidence_items)
def test_synthesis_confidence_bounded(items):
    out = synthesize_evidence(items)
    assert 0.0 <= out["confidence"] <= 1.0
    assert out["supporting"] + out["contradicting"] == len(items)


@given(evidence_items)
def test_synthesis_all_contradicting_means_low_confidence(items):
    contradicting = [
        EvidenceItem(i.kind, i.description, i.strength, False) for i in items
    ]
    out = synthesize_evidence(contradicting)
    assert out["confidence"] == 0.0 or not contradicting


# -- workflow DAG --------------------------------------------------------------------------------

@st.composite
def linear_workflows(draw):
    """Random chains with arbitrary extra back-references (always acyclic)."""
    length = draw(st.integers(min_value=1, max_value=8))
    steps = []
    for i in range(length):
        inputs = {}
        if i > 0:
            back = draw(st.integers(min_value=0, max_value=i - 1))
            inputs["data"] = f"step:s{back}"
        steps.append(
            WorkflowStep(id=f"s{i}", step_type=StepType.TRANSFORM,
                         target="build_report", inputs=inputs)
        )
    return CandidateWorkflow(steps=steps)


@given(linear_workflows())
def test_topological_order_is_consistent(workflow):
    order = topological_order(workflow)
    assert len(order) == len(workflow.steps)
    positions = {step.id: i for i, step in enumerate(order)}
    for step in workflow.steps:
        for dep in step.binding_step_ids():
            assert positions[dep] < positions[step.id]


@given(st.integers(min_value=2, max_value=6))
def test_cycle_always_detected(n):
    steps = [
        WorkflowStep(id=f"s{i}", step_type=StepType.TRANSFORM,
                     target="build_report",
                     inputs={"data": f"step:s{(i + 1) % n}"})
        for i in range(n)
    ]
    workflow = CandidateWorkflow(steps=steps)
    try:
        topological_order(workflow)
        raise AssertionError("cycle not detected")
    except WorkflowValidationError:
        pass


# -- incremental route convergence --------------------------------------------------

# Module-level substrate shared by every example: building the world once is
# what keeps ~dozens of hypothesis examples cheap.  The collector is shared
# too, deliberately — the incremental path must equal the full recompute
# regardless of which failure states happened to be cached by prior examples.
_ROUTING_WORLD = build_world(WorldConfig(seed=3, tier1_count=6,
                                         tier2_per_region=2, edge_density=0.5))
_ROUTING_SIM = BGPCollectorSim(_ROUTING_WORLD)
_CABLE_LINK_IDS = sorted(l.id for l in _ROUTING_WORLD.ip_links if l.cable_id)

failure_sets = st.lists(
    st.sampled_from(_CABLE_LINK_IDS), max_size=6, unique=True
).map(frozenset)


@settings(max_examples=25, deadline=None)
@given(failure_sets)
def test_incremental_routes_equal_full_for_random_failures(failed):
    """The affected-frontier incremental table must be indistinguishable
    from a from-scratch SPF for every failure set, whatever the cache
    history looks like when the set is first encountered."""
    assert _ROUTING_SIM.routes_under(failed) == _ROUTING_SIM.routes_under_full(failed)


@settings(max_examples=25, deadline=None)
@given(failure_sets)
def test_frontier_recompute_never_exceeds_full(failed):
    """On a cache miss, every peer is either recomputed or structurally
    shared — and the recomputed frontier can never exceed the full
    recompute's per-peer work."""
    before = dict(_ROUTING_SIM.cache_info())
    _ROUTING_SIM.routes_under(failed)
    after = _ROUTING_SIM.cache_info()
    peers = len(_ROUTING_SIM.peers)
    recomputed = after["peers_recomputed"] - before["peers_recomputed"]
    shared = after["peers_shared"] - before["peers_shared"]
    assert 0 <= recomputed <= peers
    if after["misses"] > before["misses"] and after["incremental_recomputes"] > before["incremental_recomputes"]:
        # A fresh incremental entry accounts for every peer exactly once.
        assert recomputed + shared == peers
    if after["misses"] == before["misses"]:
        # A pure cache hit does zero convergence work.
        assert recomputed == 0 and shared == 0


@settings(max_examples=15, deadline=None)
@given(failure_sets)
def test_route_cache_hit_returns_identical_table(failed):
    first = _ROUTING_SIM.routes_under(failed)
    before = _ROUTING_SIM.cache_info()["hits"]
    second = _ROUTING_SIM.routes_under(failed)
    assert _ROUTING_SIM.cache_info()["hits"] == before + 1
    assert second is first  # memoized, not recomputed


@settings(max_examples=15, deadline=None)
@given(failure_sets)
def test_failures_never_create_routes(failed):
    """Severing links can only withdraw or reroute — a (peer, prefix) pair
    unroutable at baseline cannot become routable under failures."""
    baseline = _ROUTING_SIM.routes_under(frozenset())
    degraded = _ROUTING_SIM.routes_under(failed)
    assert set(degraded) <= set(baseline)


@settings(max_examples=10, deadline=None)
@given(st.lists(failure_sets, min_size=1, max_size=4))
def test_baseline_survives_arbitrary_failure_history(history):
    """The pinned baseline entry must stay byte-equal to a fresh full SPF
    no matter what failure states were computed (and evicted) in between."""
    for failed in history:
        _ROUTING_SIM.routes_under(failed)
    assert (_ROUTING_SIM.routes_under(frozenset())
            == _ROUTING_SIM.routes_under_full(frozenset()))


# -- raw routing core, per-origin repair, delta streams -----------------------------


@settings(max_examples=10, deadline=None)
@given(failure_sets)
def test_engine_paths_equal_legacy_router(failed):
    """The int-indexed batched SPF must be byte-identical to the legacy
    per-AS dict walk — same paths, same tie-breaks — for any failure set."""
    from repro.topology.relations import AdjacencyIndex, ASGraph
    from repro.topology.routing import LegacyValleyFreeRouter, shared_index

    graph = ASGraph.shared(_ROUTING_WORLD)
    index = shared_index(graph)
    dead = AdjacencyIndex.shared(_ROUTING_WORLD).dead_pairs(failed)
    legacy = LegacyValleyFreeRouter(graph.without_pairs(dead) if dead else graph)
    rows = index.filtered_rows(index.intern_pairs(dead))
    for peer in _ROUTING_SIM.peers:
        assert index.paths_over(peer, rows) == legacy.paths_from(peer)


@settings(max_examples=10, deadline=None)
@given(st.lists(failure_sets, min_size=2, max_size=6))
def test_repair_equals_full_under_any_query_order(history):
    """Per-origin frontier repair must equal a from-scratch SPF no matter
    which ancestor chain the query order happens to build in the cache."""
    sim = BGPCollectorSim(_ROUTING_WORLD)
    for failed in history:
        assert sim.routes_under(failed) == _ROUTING_SIM.routes_under_full(failed)


@settings(max_examples=12, deadline=None)
@given(failure_sets)
def test_delta_replay_reconstructs_table_byte_identically(failed):
    """A route delta applied to the baseline must rebuild the degraded
    table exactly — same rows, same paths, same iteration order."""
    baseline = _ROUTING_SIM.routes_under(frozenset())
    delta = _ROUTING_SIM.deltas_since(frozenset(), failed)
    rebuilt = delta.apply(baseline)
    assert list(rebuilt.items()) == list(
        _ROUTING_SIM.routes_under_full(failed).items()
    )


@settings(max_examples=8, deadline=None)
@given(st.lists(failure_sets, min_size=1, max_size=5))
def test_delta_stream_chain_reconstructs_every_epoch(history):
    """Replaying a delta stream's cuts *and heals* onto a running table
    keeps it equal to the full recompute at every epoch."""
    sim = BGPCollectorSim(_ROUTING_WORLD)
    table = dict(sim.routes_under(frozenset()))
    with sim.delta_stream() as stream:
        for failed in history:
            table = stream.advance(failed).apply(table)
            assert table == _ROUTING_SIM.routes_under_full(failed)
