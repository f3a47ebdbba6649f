"""Registry-facing Nautilus functions.

These are the "core Nautilus system functions" that case study 1 exposes to
the agents (§4.1 withholds Xaminer's higher-level abstractions and provides
only these).  Every function takes the world as its first argument and
returns JSON-able dictionaries — the heterogeneous "tool output formats" that
SolutionWeaver's translation layer adapts between frameworks.
"""

from __future__ import annotations

from repro.nautilus.dependencies import extract_cable_dependencies
from repro.nautilus.geolocation import Geolocator
from repro.nautilus.mapping import world_cable_mappings
from repro.nautilus.sol import min_rtt_ms
from repro.synth.geography import haversine_km
from repro.synth.world import SyntheticWorld


def list_cables(world: SyntheticWorld) -> list[dict]:
    """Catalog of known submarine cables with coarse metadata."""
    out = []
    for cable in sorted(world.cables.values(), key=lambda c: c.name):
        out.append(
            {
                "cable_id": cable.id,
                "name": cable.name,
                "length_km": round(cable.length_km, 1),
                "capacity_tbps": cable.capacity_tbps,
                "rfs_year": cable.rfs_year,
                "landing_countries": cable.country_codes(world.landing_points),
            }
        )
    return out


def get_cable_info(world: SyntheticWorld, cable_name: str) -> dict:
    """Detailed record for one cable, looked up by human name."""
    cable = world.cable_named(cable_name)
    return {
        "cable_id": cable.id,
        "name": cable.name,
        "length_km": round(cable.length_km, 1),
        "capacity_tbps": cable.capacity_tbps,
        "rfs_year": cable.rfs_year,
        "owners": list(cable.owners),
        "landing_points": [
            {
                "id": lp_id,
                "city": world.landing_points[lp_id].city,
                "country": world.landing_points[lp_id].country_code,
                "lat": world.landing_points[lp_id].lat,
                "lon": world.landing_points[lp_id].lon,
            }
            for lp_id in cable.landing_point_ids
        ],
        "segments": [
            {
                "index": seg.index,
                "src": seg.src_landing,
                "dst": seg.dst_landing,
                "length_km": round(seg.length_km, 1),
            }
            for seg in cable.segments
        ],
    }


def map_ip_links_to_cables(world: SyntheticWorld) -> dict[str, dict]:
    """The cross-layer mapping of every submarine link, as JSON-able rows.

    Returns ``{link_id: {cable_id, confidence, candidates, ...}}`` — the
    primary Nautilus output that downstream impact analysis consumes.  The
    mapping itself is computed once per world (:func:`world_cable_mappings`);
    each call builds fresh rows from it, so a caller may mutate its copy.
    """
    out: dict[str, dict] = {}
    for link_id, mapping in world_cable_mappings(world).items():
        link = world.link_by_id[link_id]
        cable_name = (
            world.cables[mapping.cable_id].name if mapping.cable_id else None
        )
        out[link_id] = {
            "link_id": link_id,
            "cable_id": mapping.cable_id,
            "cable_name": cable_name,
            "confidence": round(mapping.confidence, 4),
            "candidates": [
                {"cable_id": cid, "score": round(score, 4)}
                for cid, score in mapping.candidates
            ],
            "asn_a": link.asn_a,
            "asn_b": link.asn_b,
            "country_a": link.country_a,
            "country_b": link.country_b,
            "capacity_gbps": link.capacity_gbps,
        }
    return out


def get_cable_dependencies(world: SyntheticWorld, cable_name: str) -> dict:
    """Dependency set of a cable: links, IPs, ASes, adjacencies, countries.

    Uses the *inferred* cross-layer mapping, as a real deployment would —
    ground truth is not observable from measurement data.  That mapping is
    computed once per world (:func:`world_cable_mappings`); each call only
    extracts this cable's dependencies from it.
    """
    cable = world.cable_named(cable_name)
    mappings = world_cable_mappings(world)
    return extract_cable_dependencies(world, cable.id, mappings).to_dict()


def geolocate_ips(world: SyntheticWorld, ips: list[str]) -> dict[str, dict]:
    """Geolocate a batch of IPs to coordinates and countries."""
    geo = Geolocator(world)
    out: dict[str, dict] = {}
    for ip in ips:
        result = geo.locate(ip)
        out[ip] = {
            "ip": ip,
            "lat": round(result.lat, 4),
            "lon": round(result.lon, 4),
            "country": result.country_code,
            "uncertainty_km": result.uncertainty_km,
            "source": result.source,
        }
    return out


def sol_validate_link(world: SyntheticWorld, link_id: str, observed_rtt_ms: float) -> dict:
    """Check an observed link RTT against the speed-of-light bound."""
    link = world.link_by_id[link_id]
    distance = haversine_km(link.coord_a, link.coord_b)
    bound = min_rtt_ms(distance)
    return {
        "link_id": link_id,
        "distance_km": round(distance, 1),
        "min_rtt_ms": round(bound, 3),
        "observed_rtt_ms": observed_rtt_ms,
        "feasible": observed_rtt_ms + 2.0 >= bound,
    }
