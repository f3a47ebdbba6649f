"""Topology substrate: AS graphs, policy routing, dependencies, cascades.

Shared graph machinery for the measurement substrates: the AS relationship
graph with valley-free path computation (used by both the BGP collector
simulation and the traceroute path model), AS/cable dependencies, and
cross-layer cascading-failure propagation.
"""

from repro.topology.relations import ASGraph, failed_as_pairs
from repro.topology.routing import ValleyFreeRouter
from repro.topology.dependency import as_dependency_scores
from repro.topology.cascade import CascadeResult, CascadeRound, propagate_cascade

__all__ = [
    "ASGraph",
    "failed_as_pairs",
    "ValleyFreeRouter",
    "as_dependency_scores",
    "CascadeResult",
    "CascadeRound",
    "propagate_cascade",
]
