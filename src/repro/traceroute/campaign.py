"""Measurement campaigns: periodic traceroutes from probes to targets.

A campaign runs probes in one region against targets in another at a fixed
interval over a time window.  Active incidents gate which links exist at
each measurement's timestamp, so the produced series carries the incident's
latency signature with the correct onset.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, repeat

from repro.traceroute.probes import build_probe_fleet, probes_in_region, targets_in_region
from repro.traceroute.rtt import PathResolver, noise_grid
from repro.synth.geography import Region
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import SyntheticWorld


@dataclass(frozen=True)
class CampaignSpec:
    """What to measure, from where, how often."""

    src_region: Region
    dst_region: Region
    window_start: float
    window_end: float
    interval_s: float = 3600.0
    probe_density: float = 1.0
    targets_per_country: int = 1

    def __post_init__(self) -> None:
        if self.window_end <= self.window_start:
            raise ValueError("window_end must be after window_start")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


def _failed_links_at(
    world: SyntheticWorld, incidents: list[LatencyIncident], ts: float
) -> frozenset[str]:
    """Links dead at time ``ts`` given the active incidents."""
    dead: set[str] = set()
    for incident in incidents:
        if ts >= incident.onset:
            cable = world.cable_named(incident.cable_name)
            dead.update(link.id for link in world.links_on_cable(cable.id))
    return frozenset(dead)


#: The per-traceroute columns of a :func:`campaign_table`, in the order the
#: fields of a measurement row take; the table adds ``link_pool``, the paths
#: that ``link_index`` names.
MEASUREMENT_COLUMNS = ("ts", "probe_id", "src_country", "src_asn", "dst_asn",
                       "dst_country", "rtt_ms", "hop_count", "link_index")

#: Campaign shapes (one per ``CampaignSpec``) whose pairs, timestamps and
#: noise grid a world keeps, least recently used first out.  Europe→Asia
#: over 7 days hourly is 272 pairs × 168 stamps: a 366 KB grid.
CAMPAIGN_MEMO_SHAPES = 8
#: Failed-link sets whose hop list one shape keeps (LRU).  A hop list is one
#: small tuple per pair; the routers that resolved it are dropped.
CAMPAIGN_MEMO_FAILURE_SETS = 16


class _CampaignShape:
    """What every campaign of one spec on one world has in common.

    ``pairs`` holds ``(probe_id, src_country, src_asn, dst_asn,
    dst_country)`` per (probe, target) and ``columns`` the same five fields
    as one tuple each; ``stamps`` the sampling times;
    ``factors`` the :func:`noise_grid` of every (stamp, pair), stamp-major;
    ``hops`` one hop list per failed-link set: ``(base_rtt_ms, hop_count,
    link_ids)`` per pair, ``(None, 0, ())`` when unreachable.
    """

    __slots__ = ("pairs", "columns", "stamps", "factors", "hops")

    def __init__(self, world: SyntheticWorld, spec: CampaignSpec):
        probes = probes_in_region(world, build_probe_fleet(world, spec.probe_density),
                                  spec.src_region)
        targets = targets_in_region(world, spec.dst_region, spec.targets_per_country)
        self.pairs = tuple(
            (probe.id, probe.country_code, probe.asn, dst_asn, world.ases[dst_asn].country_code)
            for probe in probes
            for dst_asn in targets
            if dst_asn != probe.asn
        )
        self.columns = tuple(zip(*self.pairs)) or ((),) * 5
        stamps = []
        ts = spec.window_start
        while ts < spec.window_end:
            stamps.append(ts)
            ts += spec.interval_s
        self.stamps = tuple(stamps)
        self.factors = noise_grid(
            [(src_asn, dst_asn) for _, _, src_asn, dst_asn, _ in self.pairs], self.stamps)
        self.hops: OrderedDict[frozenset[str], tuple[tuple, ...]] = OrderedDict()


class CampaignMemo:
    """Per-world memo of campaign shapes, shared by every thread and shard.

    Keyed on the spec plus how its start and interval print: equal specs
    such as ``window_start=0`` and ``0.0`` stamp ``0`` and ``0.0``, which
    rows carry and the noise hashes.  Bounded LRU on both levels.  Each
    entry is built under the memo's one lock, so concurrent campaigns of
    one shape build it once (the work is GIL-bound, so waiting costs
    nothing a second build would not).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shapes: OrderedDict[tuple, _CampaignShape] = OrderedDict()

    def __len__(self) -> int:
        return len(self._shapes)

    def shape(self, world: SyntheticWorld, spec: CampaignSpec) -> _CampaignShape:
        key = (spec, repr(spec.window_start), repr(spec.interval_s))
        with self._lock:
            shape = self._shapes.get(key)
            if shape is None:
                shape = self._shapes[key] = _CampaignShape(world, spec)
                if len(self._shapes) > CAMPAIGN_MEMO_SHAPES:
                    self._shapes.popitem(last=False)
            else:
                self._shapes.move_to_end(key)
            return shape

    def hops(self, world: SyntheticWorld, shape: _CampaignShape,
             failed: frozenset[str]) -> tuple[tuple, ...]:
        with self._lock:
            hops = shape.hops.get(failed)
            if hops is None:
                resolver = PathResolver(world)
                paths = (resolver.resolve(src_asn, dst_asn, failed)
                         for _, _, src_asn, dst_asn, _ in shape.pairs)
                hops = shape.hops[failed] = tuple(
                    (None, 0, ()) if path is None
                    else (path.base_rtt_ms, path.hop_count, path.link_ids)
                    for path in paths
                )
                if len(shape.hops) > CAMPAIGN_MEMO_FAILURE_SETS:
                    shape.hops.popitem(last=False)
            else:
                shape.hops.move_to_end(failed)
            return hops


def campaign_memo(world: SyntheticWorld) -> CampaignMemo:
    """The world's campaign memo (cold for every freshly built world)."""
    return world.memo("campaign_memo", CampaignMemo)


def campaign_table(
    world: SyntheticWorld,
    spec: CampaignSpec,
    incidents: list[LatencyIncident] | None = None,
) -> dict[str, tuple]:
    """Execute a campaign and return its measurements as a column table.

    One tuple per field of :data:`MEASUREMENT_COLUMNS`, all of one length,
    with one entry per traceroute in time order (stamp-major, then pair):
    ``ts``, ``probe_id``, ``src_country``, ``src_asn``, ``dst_asn``,
    ``dst_country``, ``rtt_ms`` (``round(base_rtt_ms * (1 +
    sample_noise(src_asn, dst_asn, ts)), 3)``; ``None`` when the target was
    unreachable), ``hop_count`` and ``link_index``.  The path a traceroute
    took is ``link_pool[link_index]``: ``link_pool`` holds each distinct
    link-id tuple once (``()`` when unreachable), in order of first use.

    Work that does not depend on the incidents is shared through the
    world's :func:`campaign_memo`, keyed on ``spec``: the (probe, target)
    pairs, the timestamps and the noise factor of every sample.  The
    failed-link set only changes at incident onsets, so the memo also
    keeps one resolved hop list per failed-link set; every shard of a live
    replay rides the base world and so shares it.  The table holds only
    tuples (of scalars, and of link ids in the pool), so callers cannot
    mutate what the next call returns and the cyclic GC finds nothing in
    it to walk.
    """
    incidents = list(incidents or [])
    memo = campaign_memo(world)
    shape = memo.shape(world, spec)
    factors, stamps, width = shape.factors, shape.stamps, len(shape.pairs)

    pool: dict[tuple[str, ...], int] = {}
    # Per set of active incidents: each pair's base RTT, hop count and path.
    layouts: dict[tuple[bool, ...], tuple[tuple, tuple, tuple]] = {}
    rtt_ms: list[float | None] = []
    hop_count: list[int] = []
    link_index: list[int] = []
    for step, ts in enumerate(stamps):
        active = tuple(ts >= incident.onset for incident in incidents)
        layout = layouts.get(active)
        if layout is None:
            hops = memo.hops(world, shape, _failed_links_at(world, incidents, ts))
            layout = layouts[active] = (
                tuple(base_rtt for base_rtt, _, _ in hops),
                tuple(count for _, count, _ in hops),
                tuple(pool.setdefault(link_ids, len(pool)) for _, _, link_ids in hops),
            )
        base_rtts, counts, paths = layout
        offset = step * width
        rtt_ms.extend(None if base_rtt is None else round(base_rtt * factor, 3)
                      for base_rtt, factor in zip(base_rtts, factors[offset:offset + width]))
        hop_count.extend(counts)
        link_index.extend(paths)

    n = len(stamps)
    probe_id, src_country, src_asn, dst_asn, dst_country = shape.columns
    return {
        "ts": tuple(chain.from_iterable(repeat(ts, width) for ts in stamps)),
        "probe_id": probe_id * n,
        "src_country": src_country * n,
        "src_asn": src_asn * n,
        "dst_asn": dst_asn * n,
        "dst_country": dst_country * n,
        "rtt_ms": tuple(rtt_ms),
        "hop_count": tuple(hop_count),
        "link_index": tuple(link_index),
        "link_pool": tuple(pool),
    }
