"""Geographic substrate: regions, countries, coastal cities, distances.

The catalog below is a deliberately compact model of world geography.  It
keeps real country codes, plausible centroids, and the coastal cities that
anchor submarine-cable landing points, so that downstream geolocation and
speed-of-light validation behave like they would on real data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Region(str, Enum):
    """Continental regions used for spatial scoping of queries."""

    EUROPE = "europe"
    ASIA = "asia"
    MIDDLE_EAST = "middle_east"
    AFRICA = "africa"
    NORTH_AMERICA = "north_america"
    SOUTH_AMERICA = "south_america"
    OCEANIA = "oceania"


@dataclass(frozen=True)
class Country:
    """A country with a centroid and a routing-weight proxy for its size."""

    code: str
    name: str
    region: Region
    lat: float
    lon: float
    weight: float  # relative Internet footprint; drives AS/prefix counts


@dataclass(frozen=True)
class CoastalCity:
    """A coastal city eligible to host submarine-cable landing points."""

    name: str
    country_code: str
    lat: float
    lon: float


def _c(code: str, name: str, region: Region, lat: float, lon: float, weight: float) -> Country:
    return Country(code=code, name=name, region=region, lat=lat, lon=lon, weight=weight)


#: Country catalog.  Weights are relative Internet footprints (AS counts,
#: prefix counts and probe density all scale with them).
COUNTRIES: tuple[Country, ...] = (
    # Europe
    _c("FR", "France", Region.EUROPE, 46.2, 2.2, 3.0),
    _c("DE", "Germany", Region.EUROPE, 51.2, 10.4, 3.2),
    _c("GB", "United Kingdom", Region.EUROPE, 54.0, -2.0, 3.1),
    _c("IT", "Italy", Region.EUROPE, 42.8, 12.8, 2.4),
    _c("ES", "Spain", Region.EUROPE, 40.2, -3.5, 2.0),
    _c("NL", "Netherlands", Region.EUROPE, 52.2, 5.3, 2.2),
    _c("GR", "Greece", Region.EUROPE, 39.0, 22.0, 1.2),
    _c("PT", "Portugal", Region.EUROPE, 39.5, -8.0, 1.0),
    # Middle East
    _c("EG", "Egypt", Region.MIDDLE_EAST, 26.8, 30.8, 1.6),
    _c("SA", "Saudi Arabia", Region.MIDDLE_EAST, 23.9, 45.1, 1.5),
    _c("AE", "United Arab Emirates", Region.MIDDLE_EAST, 23.4, 53.8, 1.4),
    _c("OM", "Oman", Region.MIDDLE_EAST, 21.5, 55.9, 0.8),
    _c("YE", "Yemen", Region.MIDDLE_EAST, 15.6, 48.0, 0.5),
    _c("TR", "Turkey", Region.MIDDLE_EAST, 39.0, 35.0, 1.6),
    _c("DJ", "Djibouti", Region.MIDDLE_EAST, 11.8, 42.6, 0.4),
    # Asia
    _c("IN", "India", Region.ASIA, 21.0, 78.0, 3.0),
    _c("LK", "Sri Lanka", Region.ASIA, 7.9, 80.8, 0.7),
    _c("BD", "Bangladesh", Region.ASIA, 23.7, 90.4, 0.8),
    _c("MM", "Myanmar", Region.ASIA, 19.8, 96.1, 0.5),
    _c("TH", "Thailand", Region.ASIA, 15.1, 101.0, 1.2),
    _c("MY", "Malaysia", Region.ASIA, 3.9, 102.0, 1.2),
    _c("SG", "Singapore", Region.ASIA, 1.35, 103.8, 1.8),
    _c("ID", "Indonesia", Region.ASIA, -2.5, 118.0, 1.4),
    _c("HK", "Hong Kong", Region.ASIA, 22.3, 114.2, 1.6),
    _c("CN", "China", Region.ASIA, 35.0, 103.0, 3.2),
    _c("JP", "Japan", Region.ASIA, 36.2, 138.3, 2.8),
    _c("KR", "South Korea", Region.ASIA, 36.5, 127.8, 2.2),
    _c("TW", "Taiwan", Region.ASIA, 23.7, 121.0, 1.5),
    _c("PH", "Philippines", Region.ASIA, 12.9, 121.8, 0.9),
    _c("VN", "Vietnam", Region.ASIA, 16.0, 107.8, 0.9),
    _c("PK", "Pakistan", Region.ASIA, 30.4, 69.4, 1.0),
    # Africa
    _c("KE", "Kenya", Region.AFRICA, 0.2, 37.9, 0.7),
    _c("ZA", "South Africa", Region.AFRICA, -29.0, 24.0, 1.1),
    _c("NG", "Nigeria", Region.AFRICA, 9.1, 8.7, 0.9),
    # Americas
    _c("US", "United States", Region.NORTH_AMERICA, 39.8, -98.6, 4.0),
    _c("CA", "Canada", Region.NORTH_AMERICA, 56.1, -106.3, 1.8),
    _c("MX", "Mexico", Region.NORTH_AMERICA, 23.6, -102.5, 1.2),
    _c("BR", "Brazil", Region.SOUTH_AMERICA, -10.3, -53.2, 1.8),
    _c("AR", "Argentina", Region.SOUTH_AMERICA, -34.0, -64.0, 1.0),
    # Oceania
    _c("AU", "Australia", Region.OCEANIA, -25.3, 133.8, 1.6),
    _c("NZ", "New Zealand", Region.OCEANIA, -41.0, 174.0, 0.7),
)

_BY_CODE: dict[str, Country] = {c.code: c for c in COUNTRIES}


#: Coastal cities hosting cable landing points.  Coordinates are real-world
#: approximations so that segment lengths and latency figures are plausible.
COASTAL_CITIES: tuple[CoastalCity, ...] = (
    CoastalCity("Marseille", "FR", 43.30, 5.37),
    CoastalCity("Toulon", "FR", 43.12, 5.93),
    CoastalCity("Bude", "GB", 50.83, -4.55),
    CoastalCity("Porthcurno", "GB", 50.04, -5.65),
    CoastalCity("Palermo", "IT", 38.12, 13.36),
    CoastalCity("Catania", "IT", 37.50, 15.09),
    CoastalCity("Bilbao", "ES", 43.26, -2.93),
    CoastalCity("Lisbon", "PT", 38.72, -9.14),
    CoastalCity("Amsterdam", "NL", 52.37, 4.90),
    CoastalCity("Chania", "GR", 35.51, 24.02),
    CoastalCity("Istanbul", "TR", 41.01, 28.98),
    CoastalCity("Alexandria", "EG", 31.20, 29.92),
    CoastalCity("Suez", "EG", 29.97, 32.55),
    CoastalCity("Zafarana", "EG", 29.11, 32.65),
    CoastalCity("Jeddah", "SA", 21.49, 39.19),
    CoastalCity("Yanbu", "SA", 24.09, 38.06),
    CoastalCity("Fujairah", "AE", 25.13, 56.34),
    CoastalCity("Dubai", "AE", 25.20, 55.27),
    CoastalCity("Muscat", "OM", 23.59, 58.41),
    CoastalCity("Aden", "YE", 12.79, 45.03),
    CoastalCity("Djibouti City", "DJ", 11.59, 43.15),
    CoastalCity("Mumbai", "IN", 19.08, 72.88),
    CoastalCity("Chennai", "IN", 13.08, 80.27),
    CoastalCity("Colombo", "LK", 6.93, 79.85),
    CoastalCity("Matara", "LK", 5.95, 80.54),
    CoastalCity("Cox's Bazar", "BD", 21.43, 91.97),
    CoastalCity("Ngwe Saung", "MM", 16.86, 94.40),
    CoastalCity("Satun", "TH", 6.62, 100.07),
    CoastalCity("Songkhla", "TH", 7.20, 100.60),
    CoastalCity("Melaka", "MY", 2.19, 102.25),
    CoastalCity("Penang", "MY", 5.41, 100.33),
    CoastalCity("Tuas", "SG", 1.32, 103.65),
    CoastalCity("Changi", "SG", 1.39, 103.99),
    CoastalCity("Jakarta", "ID", -6.21, 106.85),
    CoastalCity("Tseung Kwan O", "HK", 22.31, 114.26),
    CoastalCity("Chung Hom Kok", "HK", 22.22, 114.20),
    CoastalCity("Shanghai", "CN", 31.23, 121.47),
    CoastalCity("Shantou", "CN", 23.35, 116.68),
    CoastalCity("Chikura", "JP", 34.95, 139.95),
    CoastalCity("Shima", "JP", 34.30, 136.80),
    CoastalCity("Busan", "KR", 35.18, 129.08),
    CoastalCity("Toucheng", "TW", 24.85, 121.82),
    CoastalCity("Batangas", "PH", 13.76, 121.06),
    CoastalCity("Da Nang", "VN", 16.05, 108.21),
    CoastalCity("Karachi", "PK", 24.86, 67.00),
    CoastalCity("Mombasa", "KE", -4.04, 39.66),
    CoastalCity("Mtunzini", "ZA", -28.95, 31.75),
    CoastalCity("Lagos", "NG", 6.45, 3.39),
    CoastalCity("New York", "US", 40.71, -74.01),
    CoastalCity("Virginia Beach", "US", 36.85, -75.98),
    CoastalCity("Los Angeles", "US", 34.05, -118.24),
    CoastalCity("Hillsboro", "US", 45.52, -122.99),
    CoastalCity("Halifax", "CA", 44.65, -63.57),
    CoastalCity("Cancun", "MX", 21.16, -86.85),
    CoastalCity("Fortaleza", "BR", -3.73, -38.52),
    CoastalCity("Santos", "BR", -23.96, -46.33),
    CoastalCity("Las Toninas", "AR", -36.49, -56.70),
    CoastalCity("Sydney", "AU", -33.87, 151.21),
    CoastalCity("Perth", "AU", -31.95, 115.86),
    CoastalCity("Auckland", "NZ", -36.85, 174.76),
)

_CITY_BY_NAME: dict[str, CoastalCity] = {c.name: c for c in COASTAL_CITIES}


def country_by_code(code: str) -> Country:
    """Return the country for an ISO-2 code, raising ``KeyError`` if unknown."""
    return _BY_CODE[code]


def city_by_name(name: str) -> CoastalCity:
    """Return the coastal city with the given name (``KeyError`` if unknown)."""
    return _CITY_BY_NAME[name]


EARTH_RADIUS_KM = 6371.0


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in kilometres between two ``(lat, lon)`` points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def point_within_radius(
    point: tuple[float, float], center: tuple[float, float], radius_km: float
) -> bool:
    """True when ``point`` lies within ``radius_km`` of ``center``."""
    return haversine_km(point, center) <= radius_km


def interpolate(
    a: tuple[float, float], b: tuple[float, float], fraction: float
) -> tuple[float, float]:
    """Linear interpolation between two coordinates.

    Linear in lat/lon space is adequate for the segment sampling used by
    disaster footprints; we do not need true great-circle interpolation.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    return (a[0] + (b[0] - a[0]) * fraction, a[1] + (b[1] - a[1]) * fraction)
