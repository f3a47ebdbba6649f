"""Registry: entry validation, lookup, subsetting, prompt rendering."""

import json

import pytest

from repro.core.registry import Registry, RegistryEntry, RegistryError, default_registry


def _entry(name="test.fn", capabilities=("thing",)):
    return RegistryEntry(
        name=name,
        framework=name.split(".", 1)[0],
        summary="a test entry",
        capabilities=tuple(capabilities),
        inputs=(("x", "int"),),
        outputs=(("y", "int"),),
        callable_ref="repro.nautilus.api:list_cables",
    )


def test_entry_name_must_match_framework():
    with pytest.raises(ValueError):
        RegistryEntry(name="a.b", framework="c", summary="s",
                      capabilities=("x",), inputs=(), outputs=())


def test_entry_requires_dotted_name():
    with pytest.raises(ValueError):
        RegistryEntry(name="plain", framework="plain", summary="s",
                      capabilities=("x",), inputs=(), outputs=())


def test_entry_requires_capabilities():
    with pytest.raises(ValueError):
        RegistryEntry(name="a.b", framework="a", summary="s",
                      capabilities=(), inputs=(), outputs=())


def test_add_and_get():
    registry = Registry()
    entry = _entry()
    registry.add(entry)
    assert registry.get("test.fn") is entry
    assert "test.fn" in registry
    assert len(registry) == 1


def test_duplicate_add_rejected():
    registry = Registry()
    registry.add(_entry())
    with pytest.raises(ValueError):
        registry.add(_entry())


def test_unknown_lookup_lists_known():
    registry = Registry()
    registry.add(_entry())
    with pytest.raises(RegistryError) as excinfo:
        registry.get("missing.fn")
    assert "test.fn" in str(excinfo.value)


def test_find_by_capability_ranked():
    registry = Registry()
    registry.add(_entry("a.one", ("mapping",)))
    registry.add(_entry("a.two", ("mapping", "impact")))
    found = registry.find_by_capability(["mapping", "impact"])
    assert [e.name for e in found] == ["a.two", "a.one"]
    assert registry.find_by_capability(["nonexistent"]) == []


def test_subset_by_framework():
    full = default_registry()
    nautilus_only = full.subset(frameworks=["nautilus"])
    assert nautilus_only.frameworks() == ["nautilus"]
    assert len(nautilus_only) < len(full)


def test_subset_by_names():
    full = default_registry()
    two = full.subset(names=["xaminer.process_event", "nautilus.list_cables"])
    assert sorted(two.names()) == ["nautilus.list_cables", "xaminer.process_event"]


def test_prompt_text_is_json():
    rows = json.loads(default_registry().to_prompt_text())
    assert isinstance(rows, list)
    names = {r["name"] for r in rows}
    assert "xaminer.process_event" in names


def test_prompt_text_grows_linearly():
    full = default_registry()
    sizes = []
    for count in (5, 10, 15):
        subset = full.subset(names=full.names()[:count])
        sizes.append(len(subset.to_prompt_text()))
    per_entry_1 = (sizes[1] - sizes[0]) / 5
    per_entry_2 = (sizes[2] - sizes[1]) / 5
    assert 0.4 < per_entry_1 / per_entry_2 < 2.5  # roughly linear growth


def test_default_registry_resolvable():
    from repro.core.catalog import resolve_callable

    registry = default_registry()
    for name in registry.names():
        assert callable(resolve_callable(registry.get(name).callable_ref)), name


def test_clone_independent():
    registry = default_registry()
    clone = registry.clone()
    clone.add(_entry())
    assert "test.fn" in clone
    assert "test.fn" not in registry
