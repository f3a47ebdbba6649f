"""Tool catalog: binds registry entries to executable callables.

The registry describes *what* tools do; the catalog is the runtime that
resolves each entry's ``callable_ref`` and injects the measurement context
(the world plus any ambient incidents).  Generated code never imports
measurement frameworks directly — it calls ``catalog.call(entry_name, ...)``,
which is also the seam where argument validation happens.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field

from repro.core.registry import Registry, RegistryEntry
from repro.synth.scenarios import LatencyIncident
from repro.synth.world import SyntheticWorld


@dataclass
class MeasurementContext:
    """The ambient world a deployment measures.

    ``incidents`` is ground truth that only manifests through observables
    (latency shifts, BGP bursts); tools receive it, agents do not.
    """

    world: SyntheticWorld
    incidents: list[LatencyIncident] = field(default_factory=list)


class CatalogError(RuntimeError):
    """Raised when an entry cannot be resolved or called."""


def resolve_callable(ref: str):
    """Resolve ``"module.path:function"`` to the callable it names."""
    if ":" not in ref:
        raise CatalogError(f"callable_ref must look like 'module:function', got {ref!r}")
    module_name, func_name = ref.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise CatalogError(f"cannot import {module_name!r} for {ref!r}: {exc}") from exc
    try:
        return getattr(module, func_name)
    except AttributeError as exc:
        raise CatalogError(f"{module_name!r} has no attribute {func_name!r}") from exc


class ToolCatalog:
    """Executable view of a registry over one measurement context."""

    def __init__(self, registry: Registry, context: MeasurementContext):
        self._registry = registry
        self._context = context
        self._resolved: dict[str, object] = {}

    @property
    def registry(self) -> Registry:
        return self._registry

    @property
    def context(self) -> MeasurementContext:
        return self._context

    def call(self, entry_name: str, **kwargs):
        """Invoke a registry entry with context injection.

        The world is always passed as the first positional argument; an
        ``incidents`` keyword is injected when the target function accepts
        one and the caller did not supply it.
        """
        entry: RegistryEntry = self._registry.get(entry_name)
        func = self._resolved.get(entry_name)
        if func is None:
            func = resolve_callable(entry.callable_ref)
            self._resolved[entry_name] = func
        signature = inspect.signature(func)
        params = signature.parameters
        if "incidents" in params and "incidents" not in kwargs:
            kwargs["incidents"] = list(self._context.incidents)
        try:
            if "world" in params:
                return func(self._context.world, **kwargs)
            return func(**kwargs)
        except TypeError as exc:
            raise CatalogError(
                f"bad arguments for {entry_name!r} ({entry.callable_ref}): {exc}"
            ) from exc


def cascade_adapter(
    world: SyntheticWorld,
    initial_failed_link_ids: list[str],
    initial_cable_ids: list[str] | None = None,
) -> dict:
    """Registry-facing wrapper for cascade propagation (returns JSON).

    Lives here rather than in :mod:`repro.topology.cascade` because the
    topology layer returns rich dataclasses while registry functions speak
    dicts.
    """
    from repro.topology.cascade import propagate_cascade

    result = propagate_cascade(
        world,
        initial_failed_link_ids=initial_failed_link_ids,
        initial_cable_ids=initial_cable_ids,
    )
    return result.to_dict()


def composite_placeholder(world, **params):
    """Runner stub for curator-promoted composite entries.

    Composite entries are *design-time* capabilities: WorkflowScout expands
    them into their underlying step chains when designing future workflows.
    Calling one directly is a wiring error, reported as such.
    """
    raise CatalogError(
        "composite registry entries are expanded at design time and cannot "
        "be invoked directly"
    )
