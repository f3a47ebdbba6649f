"""Nautilus substrate: cross-layer cartography of submarine cables and IP links.

A reimplementation of the public surface of the Nautilus framework
(Ramanathan & Abdu Jyothi, SIGMETRICS 2023) that the ArachNet paper uses as
its mapping substrate.  Nautilus answers one question: *which submarine cable
does an IP link ride?* — by combining geolocation of link endpoints,
speed-of-light feasibility, and landing-point geometry.

The registry-facing functions live in :mod:`repro.nautilus.api`; the classes
underneath are usable directly for finer control.
"""

from repro.nautilus.geolocation import GeoResult, Geolocator
from repro.nautilus.sol import FIBER_SPEED_KM_PER_MS, min_rtt_ms
from repro.nautilus.mapping import CableMapping, CrossLayerMapper, world_cable_mappings
from repro.nautilus.dependencies import CableDependencies, extract_cable_dependencies
from repro.nautilus.api import (
    geolocate_ips,
    get_cable_dependencies,
    get_cable_info,
    list_cables,
    map_ip_links_to_cables,
    sol_validate_link,
)

__all__ = [
    "GeoResult",
    "Geolocator",
    "FIBER_SPEED_KM_PER_MS",
    "min_rtt_ms",
    "CableMapping",
    "CrossLayerMapper",
    "world_cable_mappings",
    "CableDependencies",
    "extract_cable_dependencies",
    "geolocate_ips",
    "get_cable_dependencies",
    "get_cable_info",
    "list_cables",
    "map_ip_links_to_cables",
    "sol_validate_link",
]
