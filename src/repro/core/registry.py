"""The Registry: ArachNet's curated catalog of measurement capabilities.

The paper's key design insight (§3): agents reason over *capability
descriptions*, not codebases.  Each entry records what a tool can do, its
inputs/outputs and constraints — "a measurement API for intelligent
composition" that scales linearly with available tools.  Entries bind to
real callables through a dotted ``callable_ref`` resolved by the tool
catalog at execution time.

An entry also declares the paths of its *bounded fields*: the values the
generated workflows' ``sanity_bounds`` check holds to a range (``score``,
``confidence``, ``p_value`` and ``fraction`` in [0, 1]; ``rtt_ms``,
``median_rtt_ms`` and ``capacity_lost_gbps`` non-negative) and the
``p_value`` fields ``significance_assessment`` counts.  The checks read
those paths and nothing else of a step's output.  A path is dot-separated
from the output's root: a name is that key of a dict, ``*`` every value of
a data-keyed map, and ``[]`` after a segment (or alone) every item of a
list or tuple.  ``*.candidates[].score`` is the ``score`` of every
candidate of every value of a map.  A path ends in a name, optionally
followed by ``[]``s: the field is named by its last key.  An entry that
emits a bounded field it does not declare goes unchecked, which
``tests/test_qa_walks.py`` reports as a hole.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RegistryEntry:
    """One measurement capability."""

    name: str  # "framework.function", e.g. "nautilus.get_cable_dependencies"
    framework: str
    summary: str
    capabilities: tuple[str, ...]  # semantic tags for matching
    inputs: tuple[tuple[str, str], ...]  # (param, type/shape description)
    outputs: tuple[tuple[str, str], ...]
    constraints: tuple[str, ...] = ()
    cost_hint: str = "cheap"  # "cheap" | "moderate" | "expensive"
    callable_ref: str = ""  # dotted path, e.g. "repro.nautilus.api:get_cable_info"
    provenance: str = "curated"  # "curated" | "curator"
    bounded_fields: tuple[str, ...] = ()  # paths the QA checks read, see module doc

    def __post_init__(self) -> None:
        if "." not in self.name:
            raise ValueError(f"entry name must be framework.function, got {self.name!r}")
        if self.name.split(".", 1)[0] != self.framework:
            raise ValueError(f"name {self.name!r} does not match framework {self.framework!r}")
        if not self.capabilities:
            raise ValueError(f"entry {self.name!r} declares no capabilities")
        for path in self.bounded_fields:
            parse_field_path(path)

    def matches(self, wanted_capabilities: list[str]) -> int:
        """How many wanted capability tags this entry provides."""
        have = set(self.capabilities)
        return sum(1 for tag in wanted_capabilities if tag in have)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "framework": self.framework,
            "summary": self.summary,
            "capabilities": list(self.capabilities),
            "inputs": [{"param": p, "type": t} for p, t in self.inputs],
            "outputs": [{"name": n, "type": t} for n, t in self.outputs],
            "constraints": list(self.constraints),
            "cost_hint": self.cost_hint,
            "provenance": self.provenance,
            "bounded_fields": list(self.bounded_fields),
        }


def parse_field_path(path: str) -> tuple[str, ...]:
    """The segments of a bounded-field path: dict keys, ``*`` and ``[]``.

    ``"*.median_rtt_ms[]"`` is ``("*", "median_rtt_ms", "[]")``.  Raises
    ``ValueError`` unless every key is an identifier and the path ends in
    a key, optionally followed by ``[]``s.
    """
    segments: list[str] = []
    for part in path.split("."):
        key = part.rstrip("[]")
        items = part[len(key):]
        if items != "[]" * (len(items) // 2) or not (key or items) or (
                key and key != "*" and not key.isidentifier()):
            raise ValueError(f"bad bounded-field path {path!r}")
        if key:
            segments.append(key)
        segments.extend(("[]",) * (len(items) // 2))
    named = [segment for segment in segments if segment != "[]"]
    if not named or named[-1] == "*":
        raise ValueError(f"bounded-field path {path!r} does not end in a key")
    return tuple(segments)


class RegistryError(KeyError):
    """Raised on lookups of unknown entries (with suggestions)."""


@dataclass
class Registry:
    """A mutable collection of entries with lookup and rendering helpers.

    Mutation goes through :meth:`add` — it is what keeps the memoized
    fingerprint honest.
    """

    entries: dict[str, RegistryEntry] = field(default_factory=dict)
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def add(self, entry: RegistryEntry) -> None:
        if entry.name in self.entries:
            raise ValueError(f"duplicate registry entry {entry.name!r}")
        self.entries[entry.name] = entry
        self._fingerprint = None

    def get(self, name: str) -> RegistryEntry:
        try:
            return self.entries[name]
        except KeyError:
            known = sorted(self.entries)
            raise RegistryError(f"unknown registry entry {name!r}; known: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def frameworks(self) -> list[str]:
        return sorted({e.framework for e in self.entries.values()})

    def find_by_capability(self, tags: list[str]) -> list[RegistryEntry]:
        """Entries providing at least one wanted tag, best matches first."""
        scored = [
            (entry.matches(tags), entry.name, entry)
            for entry in self.entries.values()
            if entry.matches(tags) > 0
        ]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [entry for _, _, entry in scored]

    def subset(self, names: list[str] | None = None, frameworks: list[str] | None = None) -> "Registry":
        """A restricted view — how case study 1 withholds Xaminer's tools."""
        out = Registry()
        for entry in self.entries.values():
            if names is not None and entry.name not in names:
                continue
            if frameworks is not None and entry.framework not in frameworks:
                continue
            out.add(entry)
        return out

    def to_prompt_text(self) -> str:
        """Compact JSON rendering injected into agent prompts.

        The size of this string is the agent's "context cost" for the
        registry — the registry-scaling benchmark measures how it grows with
        the number of tools.
        """
        rows = [self.entries[name].to_dict() for name in self.names()]
        return json.dumps(rows, indent=None, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Content hash of every entry — the cache-key component that makes
        memoized stage artifacts invalid the moment the registry evolves
        (e.g. the curator promotes a new composite entry).  Memoized until
        the next :meth:`add`, since stage caching consults it per call.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                self.to_prompt_text().encode("utf-8")
            ).hexdigest()[:16]
        return self._fingerprint

    def clone(self) -> "Registry":
        out = Registry()
        for entry in self.entries.values():
            out.add(entry)
        return out


def _entry(
    name: str,
    summary: str,
    capabilities: list[str],
    inputs: list[tuple[str, str]],
    outputs: list[tuple[str, str]],
    callable_ref: str,
    constraints: list[str] | None = None,
    cost_hint: str = "cheap",
    bounded_fields: tuple[str, ...] = (),
) -> RegistryEntry:
    return RegistryEntry(
        name=name,
        framework=name.split(".", 1)[0],
        summary=summary,
        capabilities=tuple(capabilities),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        constraints=tuple(constraints or ()),
        cost_hint=cost_hint,
        callable_ref=callable_ref,
        bounded_fields=bounded_fields,
    )


def default_registry() -> Registry:
    """The curated registry over every measurement substrate in this repo."""
    registry = Registry()

    # --- Nautilus: cross-layer cartography ---------------------------------
    registry.add(_entry(
        "nautilus.list_cables",
        "List all known submarine cables with coarse metadata.",
        ["cable_inventory", "infrastructure_catalog"],
        [],
        [("cables", "list of {cable_id,name,length_km,capacity_tbps,landing_countries}")],
        "repro.nautilus.api:list_cables",
    ))
    registry.add(_entry(
        "nautilus.get_cable_info",
        "Detailed record for one cable: landing points, segments, owners.",
        ["cable_metadata", "landing_points", "infrastructure_catalog"],
        [("cable_name", "str — human cable name")],
        [("info", "dict with landing_points and segments")],
        "repro.nautilus.api:get_cable_info",
    ))
    registry.add(_entry(
        "nautilus.map_ip_links_to_cables",
        "Map every submarine IP link to its most plausible cable with confidence.",
        ["cross_layer_mapping", "ip_to_cable", "link_mapping"],
        [],
        [("mappings", "dict link_id -> {cable_id,confidence,candidates}")],
        "repro.nautilus.api:map_ip_links_to_cables",
        constraints=["confidence is probabilistic; parallel systems may be ambiguous"],
        cost_hint="moderate",
        bounded_fields=("*.confidence", "*.candidates[].score"),
    ))
    registry.add(_entry(
        "nautilus.get_cable_dependencies",
        "Everything that depends on one cable: IP links, IPs, ASes, countries.",
        ["cable_dependencies", "dependency_extraction", "ip_extraction"],
        [("cable_name", "str — human cable name")],
        [("dependencies", "dict {link_ids,ips,asns,as_adjacencies,country_codes,total_capacity_gbps}")],
        "repro.nautilus.api:get_cable_dependencies",
        cost_hint="moderate",
    ))
    registry.add(_entry(
        "nautilus.geolocate_ips",
        "Geolocate a batch of IPs to coordinates and countries.",
        ["geolocation", "geographic_mapping", "ip_to_country"],
        [("ips", "list[str] of IP addresses")],
        [("locations", "dict ip -> {lat,lon,country,uncertainty_km}")],
        "repro.nautilus.api:geolocate_ips",
    ))
    registry.add(_entry(
        "nautilus.sol_validate_link",
        "Check an observed link RTT against the speed-of-light bound.",
        ["sol_validation", "feasibility_check"],
        [("link_id", "str"), ("observed_rtt_ms", "float")],
        [("verdict", "dict {feasible,min_rtt_ms,distance_km}")],
        "repro.nautilus.api:sol_validate_link",
    ))

    # --- Xaminer: resilience analysis --------------------------------------
    registry.add(_entry(
        "xaminer.process_event",
        "Process one event (cable cut, earthquake or hurricane) end to end: "
        "footprint, probabilistic failures, country and AS impact rankings.",
        ["event_processing", "failure_simulation", "impact_analysis",
         "country_aggregation", "as_aggregation"],
        [("event_spec", "dict {kind,center,radius_km,magnitude,cable_names}"),
         ("failure_probability", "float in [0,1]"), ("seed", "int")],
        [("report", "dict {failed_cable_ids,failed_link_ids,country_ranking,as_ranking,...}")],
        "repro.xaminer.api:process_event",
        constraints=["one event per call; combine reports for multi-event analyses"],
        cost_hint="moderate",
        bounded_fields=("country_ranking[].score", "as_ranking[].fraction"),
    ))
    registry.add(_entry(
        "xaminer.country_impact",
        "Country-level impact ranking for an explicit failed-link set.",
        ["impact_analysis", "country_aggregation"],
        [("failed_link_ids", "list[str]")],
        [("ranking", "list of {country,score,...} rows")],
        "repro.xaminer.api:country_impact",
        bounded_fields=("[].score",),
    ))
    registry.add(_entry(
        "xaminer.as_impact",
        "AS-level impact ranking for an explicit failed-link set.",
        ["impact_analysis", "as_aggregation"],
        [("failed_link_ids", "list[str]")],
        [("ranking", "list of {asn,fraction,isolated,...} rows")],
        "repro.xaminer.api:as_impact",
        bounded_fields=("[].fraction",),
    ))
    registry.add(_entry(
        "xaminer.risk_profile",
        "Structural cable-dependency risk profile for a country (or the most exposed countries).",
        ["risk_assessment", "exposure_analysis"],
        [("country_code", "str ISO-2 or null")],
        [("profile", "dict or list[dict]")],
        "repro.xaminer.api:risk_profile",
    ))
    registry.add(_entry(
        "xaminer.list_disasters",
        "Catalog of disaster scenarios (earthquakes, hurricanes) with severity.",
        ["disaster_catalog", "event_inventory"],
        [("severe_only", "bool")],
        [("events", "list of {id,kind,name,center,radius_km,magnitude,severe}")],
        "repro.xaminer.api:list_disasters",
    ))
    registry.add(_entry(
        "xaminer.combine_impact_reports",
        "Merge per-event impact reports into one global summary.",
        ["report_combination", "aggregation"],
        [("reports", "list of process_event outputs")],
        [("combined", "dict {country_ranking,failed_cable_ids,...}")],
        "repro.xaminer.api:combine_impact_reports",
        bounded_fields=("country_ranking[].score",),
    ))

    # --- BGP -----------------------------------------------------------------
    registry.add(_entry(
        "bgp.fetch_updates",
        "BGP updates recorded by the collector over a time window.",
        ["bgp_updates", "routing_data", "temporal_data"],
        [("window_start", "float unix-ish seconds"), ("window_end", "float")],
        [("updates", "list of {ts,peer_asn,kind,prefix,as_path} rows; "
                     "as_path is an immutable tuple")],
        "repro.bgp.api:fetch_updates",
        constraints=["volume grows with window length"],
        cost_hint="moderate",
    ))
    registry.add(_entry(
        "bgp.detect_routing_anomalies",
        "Anomalous update-volume windows (robust z-score over binned counts).",
        ["routing_anomaly_detection", "anomaly_detection"],
        [("update_rows", "list from bgp.fetch_updates"),
         ("window_start", "float"), ("window_end", "float")],
        [("anomalies", "list of {window_start,update_count,zscore,withdrawal_fraction}")],
        "repro.bgp.api:detect_routing_anomalies",
    ))
    registry.add(_entry(
        "bgp.summarize_path_changes",
        "Path dynamics in an update stream: changed paths, lost prefixes, inflation.",
        ["path_analysis", "route_change_detection"],
        [("update_rows", "list from bgp.fetch_updates")],
        [("summary", "dict {changed_count,lost_count,mean_length_delta,changes}")],
        "repro.bgp.api:summarize_path_changes",
    ))
    registry.add(_entry(
        "bgp.correlate_updates_with_window",
        "How strongly routing activity concentrates around a suspect time window.",
        ["temporal_correlation", "routing_validation"],
        [("update_rows", "list"), ("anomaly_start", "float"), ("anomaly_end", "float")],
        [("correlation", "dict {rate_ratio,correlated}")],
        "repro.bgp.api:correlate_updates_with_window",
    ))

    # --- Traceroute ----------------------------------------------------------
    registry.add(_entry(
        "traceroute.run_campaign",
        "Periodic traceroutes from probes in one region to targets in another.",
        ["latency_measurement", "traceroute", "temporal_data"],
        [("src_region", "str region name"), ("dst_region", "str"),
         ("window_start", "float"), ("window_end", "float"), ("interval_s", "float")],
        [("measurements", "table: one tuple per column {ts,probe_id,src_country,src_asn,"
                          "dst_asn,dst_country,rtt_ms,hop_count,link_index}, a row per "
                          "traceroute; link_pool[link_index] is the row's link-id path")],
        "repro.traceroute.api:run_campaign",
        constraints=["cost scales with window/interval and probe counts"],
        cost_hint="expensive",
        bounded_fields=("rtt_ms[]",),
    ))
    registry.add(_entry(
        "traceroute.latency_series",
        "Bin raw measurements into latency time series per country pair.",
        ["series_aggregation", "latency_series"],
        [("measurement_rows", "table from traceroute.run_campaign"), ("group_by", "str"),
         ("bin_seconds", "float")],
        [("series", "dict key -> bin columns {bin_start,median_rtt_ms,sample_count,"
                    "loss_count,loss_rate}, one tuple each, index i = bin i")],
        "repro.traceroute.api:latency_series",
        bounded_fields=("*.median_rtt_ms[]",),
    ))
    registry.add(_entry(
        "traceroute.detect_latency_anomalies",
        "Significant latency level shifts (CUSUM onset + Mann-Whitney test).",
        ["latency_anomaly_detection", "anomaly_detection", "statistical_testing"],
        [("series_rows", "dict key -> bin columns from traceroute.latency_series")],
        [("anomalies", "list of {series_key,onset_ts,increase_pct,p_value,significant}")],
        "repro.traceroute.api:detect_latency_anomalies",
        bounded_fields=("[].p_value",),
    ))
    registry.add(_entry(
        "traceroute.paths_crossing_links",
        "Measurements whose forwarding path crossed any of the given IP links.",
        ["path_filtering", "infrastructure_correlation"],
        [("measurement_rows", "table from traceroute.run_campaign"), ("link_ids", "list[str]")],
        [("rows", "the crossing rows, as a table of the same columns and link_pool")],
        "repro.traceroute.api:paths_crossing_links",
        bounded_fields=("rtt_ms[]",),
    ))

    # --- Topology -------------------------------------------------------------
    registry.add(_entry(
        "topology.as_dependency_scores",
        "Hegemony-like transit dependency score per AS.",
        ["as_dependency", "dependency_graph"],
        [],
        [("scores", "dict asn -> fraction of paths transiting it")],
        "repro.topology.dependency:as_dependency_scores",
        cost_hint="expensive",
    ))
    registry.add(_entry(
        "topology.propagate_cascade",
        "Propagate link failures through load redistribution across rounds.",
        ["cascade_modeling", "failure_propagation"],
        [("initial_failed_link_ids", "list[str]"), ("initial_cable_ids", "list[str]")],
        [("cascade", "dict {rounds,timeline,final_failed_link_ids,final_isolated_asns}")],
        "repro.core.catalog:cascade_adapter",
        constraints=["rounds bounded; load model is an approximation"],
        cost_hint="expensive",
    ))

    return registry
