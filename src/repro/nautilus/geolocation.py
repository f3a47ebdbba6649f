"""IP geolocation over the synthetic world.

Real Nautilus combines several commercial geolocation feeds and validates
them against speed-of-light constraints.  Here the world itself knows where
each router sits; the geolocator reproduces the *imperfection* of real feeds
by adding a deterministic, per-IP offset bounded by ``uncertainty_km``.
Determinism matters: two agents geolocating the same IP must agree, or
downstream consistency checks would flag phantom conflicts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.synth.geography import haversine_km
from repro.synth.world import SyntheticWorld


@dataclass(frozen=True)
class GeoResult:
    """A geolocation answer for one IP."""

    ip: str
    lat: float
    lon: float
    country_code: str
    uncertainty_km: float
    source: str  # "router" when from link endpoints, "prefix" when from origin

    @property
    def coord(self) -> tuple[float, float]:
        return (self.lat, self.lon)


def _stable_unit_pair(key: str) -> tuple[float, float]:
    """Two deterministic floats in [-1, 1) derived from a string key."""
    digest = hashlib.sha256(key.encode()).digest()
    a = int.from_bytes(digest[:8], "big") / 2**64
    b = int.from_bytes(digest[8:16], "big") / 2**64
    return (a * 2.0 - 1.0, b * 2.0 - 1.0)


class Geolocator:
    """Geolocates IPs seen in the world's link endpoints and prefixes."""

    def __init__(self, world: SyntheticWorld, uncertainty_km: float = 40.0):
        self._world = world
        self._uncertainty_km = uncertainty_km
        # Router endpoints: exact coordinates are known to the world.
        self._router_coords: dict[str, tuple[tuple[float, float], str]] = {}
        for link in world.ip_links:
            self._router_coords[link.ip_a] = (link.coord_a, link.country_a)
            self._router_coords[link.ip_b] = (link.coord_b, link.country_b)

    def locate(self, ip: str) -> GeoResult:
        """Geolocate one IP; falls back to prefix-origin country centroid."""
        if ip in self._router_coords:
            (lat, lon), country = self._router_coords[ip]
            source = "router"
        else:
            prefix = self._prefix_for(ip)
            if prefix is None:
                raise KeyError(f"IP {ip} is not announced in this world")
            country_obj = self._world.country(prefix.country_code)
            lat, lon = country_obj.lat, country_obj.lon
            country = prefix.country_code
            source = "prefix"
        # Deterministic per-IP noise bounded by the configured uncertainty.
        dx, dy = _stable_unit_pair(ip)
        km_per_deg_lat = 111.0
        km_per_deg_lon = max(1.0, 111.0 * abs(math.cos(math.radians(lat))))
        noisy_lat = lat + dx * self._uncertainty_km / km_per_deg_lat
        noisy_lon = lon + dy * self._uncertainty_km / km_per_deg_lon
        return GeoResult(
            ip=ip,
            lat=noisy_lat,
            lon=noisy_lon,
            country_code=country,
            uncertainty_km=self._uncertainty_km,
            source=source,
        )

    def distance_km(self, ip_a: str, ip_b: str) -> float:
        """Great-circle distance between two geolocated IPs."""
        a = self.locate(ip_a)
        b = self.locate(ip_b)
        return haversine_km(a.coord, b.coord)

    def _prefix_for(self, ip: str):
        import ipaddress

        addr = ipaddress.ip_address(ip)
        for prefix in self._world.all_prefixes():
            if addr in prefix.network:
                return prefix
        return None
