"""Geography substrate: catalog integrity and distance math."""

import math

import pytest

from repro.synth.geography import (
    COASTAL_CITIES,
    COUNTRIES,
    Region,
    city_by_name,
    country_by_code,
    haversine_km,
    interpolate,
    point_within_radius,
)


def test_country_codes_unique():
    codes = [c.code for c in COUNTRIES]
    assert len(codes) == len(set(codes))


def test_country_lookup_roundtrip():
    for country in COUNTRIES:
        assert country_by_code(country.code) is country


def test_country_lookup_unknown_raises():
    with pytest.raises(KeyError):
        country_by_code("XX")


def test_every_region_has_countries():
    for region in Region:
        assert any(c.region == region for c in COUNTRIES), f"region {region} is empty"


def test_coastal_cities_reference_known_countries():
    codes = {c.code for c in COUNTRIES}
    for city in COASTAL_CITIES:
        assert city.country_code in codes


def test_coastal_city_names_unique():
    names = [c.name for c in COASTAL_CITIES]
    assert len(names) == len(set(names))


def test_city_lookup_unknown_raises():
    with pytest.raises(KeyError):
        city_by_name("Atlantis")


def test_haversine_zero_for_same_point():
    assert haversine_km((10.0, 20.0), (10.0, 20.0)) == 0.0


def test_haversine_known_distance_paris_london():
    paris = (48.8566, 2.3522)
    london = (51.5074, -0.1278)
    distance = haversine_km(paris, london)
    assert 330 < distance < 360  # ~344 km


def test_haversine_symmetry():
    a, b = (43.3, 5.37), (1.35, 103.8)
    assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))


def test_haversine_antipodal_bounded_by_half_circumference():
    distance = haversine_km((0.0, 0.0), (0.0, 180.0))
    assert distance == pytest.approx(math.pi * 6371.0, rel=1e-3)


def test_point_within_radius():
    assert point_within_radius((43.3, 5.4), (43.3, 5.4), 1.0)
    assert not point_within_radius((43.3, 5.4), (1.35, 103.8), 500.0)


def test_interpolate_endpoints_and_midpoint():
    a, b = (0.0, 0.0), (10.0, 20.0)
    assert interpolate(a, b, 0.0) == a
    assert interpolate(a, b, 1.0) == b
    assert interpolate(a, b, 0.5) == (5.0, 10.0)


def test_interpolate_rejects_out_of_range():
    with pytest.raises(ValueError):
        interpolate((0, 0), (1, 1), 1.5)
