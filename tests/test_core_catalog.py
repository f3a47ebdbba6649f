"""Tool catalog: callable resolution, context injection, error surface."""

import pytest

from repro.core.catalog import (
    CatalogError,
    MeasurementContext,
    ToolCatalog,
    composite_placeholder,
    resolve_callable,
)
from repro.core.registry import default_registry


def test_resolve_callable_happy_path():
    func = resolve_callable("repro.nautilus.api:list_cables")
    assert callable(func)


def test_resolve_callable_bad_format():
    with pytest.raises(CatalogError):
        resolve_callable("no-colon-here")


def test_resolve_callable_missing_module():
    with pytest.raises(CatalogError):
        resolve_callable("repro.not_a_module:fn")


def test_resolve_callable_missing_attr():
    with pytest.raises(CatalogError):
        resolve_callable("repro.nautilus.api:not_a_function")


def test_catalog_call_injects_world(catalog, world):
    rows = catalog.call("nautilus.list_cables")
    assert len(rows) == len(world.cables)


def test_catalog_call_kwargs(catalog):
    info = catalog.call("nautilus.get_cable_info", cable_name="FALCON")
    assert info["name"] == "FALCON"


def test_catalog_call_bad_kwargs(catalog):
    with pytest.raises(CatalogError):
        catalog.call("nautilus.get_cable_info", wrong_param=1)


def test_catalog_injects_incidents(world, registry, incident):
    quiet = ToolCatalog(registry, MeasurementContext(world=world))
    noisy = ToolCatalog(registry, MeasurementContext(world=world, incidents=[incident]))
    rows_quiet = quiet.call("bgp.fetch_updates", window_start=0.0,
                            window_end=604_800.0)
    rows_noisy = noisy.call("bgp.fetch_updates", window_start=0.0,
                            window_end=604_800.0)
    assert len(rows_noisy) > len(rows_quiet)


def test_caller_can_override_incidents(world, registry, incident):
    noisy = ToolCatalog(registry, MeasurementContext(world=world, incidents=[incident]))
    rows = noisy.call("bgp.fetch_updates", window_start=0.0,
                      window_end=604_800.0, incidents=[])
    baseline = ToolCatalog(registry, MeasurementContext(world=world)).call(
        "bgp.fetch_updates", window_start=0.0, window_end=604_800.0
    )
    assert len(rows) == len(baseline)


def test_composite_placeholder_raises(world):
    with pytest.raises(CatalogError):
        composite_placeholder(world)


def test_context_defaults():
    context = MeasurementContext(world=None)
    assert context.incidents == []
