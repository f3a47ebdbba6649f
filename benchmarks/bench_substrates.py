"""Substrate performance: the measurement engines under the agents.

Not a paper table — operational benchmarks that keep the substrates honest
(world generation, cross-layer mapping, collector simulation, campaigns).
"""

from repro.bgp.collector import BGPCollectorSim, CableIncident
from repro.nautilus.mapping import CrossLayerMapper
from repro.topology.cascade import propagate_cascade
from repro.traceroute.api import run_campaign
from repro.synth.world import WorldConfig, build_world

DAY = 86_400.0


def test_world_generation(benchmark):
    world = benchmark(lambda: build_world(WorldConfig(seed=99)))
    assert len(world.ip_links) > 100


def test_cross_layer_mapping(world, benchmark):
    mapper = CrossLayerMapper(world)
    mappings = benchmark(mapper.map_all)
    assert len(mappings) == len(world.submarine_links())


def test_bgp_collector_week_with_incident(world, benchmark):
    sim = BGPCollectorSim(world)

    def generate():
        return sim.generate_updates(
            0.0, 7 * DAY, incidents=[CableIncident("SeaMeWe-5", onset=4 * DAY)]
        )

    updates = benchmark.pedantic(generate, rounds=2, iterations=1)
    assert len(updates) > 1000


def test_traceroute_campaign_week(world, benchmark):
    def campaign():
        return run_campaign(world, "europe", "asia", 0.0, 7 * DAY,
                            interval_s=21_600.0)

    table = benchmark.pedantic(campaign, rounds=2, iterations=1)
    assert len(table["ts"]) > 1000


def test_cascade_propagation(world, benchmark):
    initial = [l.id for l in world.links_on_cable("cable-seamewe-5")]
    initial += [l.id for l in world.links_on_cable("cable-aae-1")]

    def cascade():
        return propagate_cascade(world, initial,
                                 initial_cable_ids=["cable-seamewe-5",
                                                    "cable-aae-1"])

    result = benchmark.pedantic(cascade, rounds=2, iterations=1)
    assert result.final_failed_link_ids
