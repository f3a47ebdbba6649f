"""BGP substrate: update streams, collectors, anomaly detection.

Replaces RouteViews/RIS feeds with a collector simulation driven by the
world's policy routing.  Steady state produces low-rate background churn;
injected incidents (cable failures) trigger the withdrawal bursts, path
exploration and re-convergence that the forensic case study correlates with
latency anomalies.
"""

from repro.bgp.messages import BGPUpdate, UpdateKind
from repro.bgp.collector import BGPCollectorSim, CollectorConfig, shared_collector
from repro.bgp.anomaly import RoutingAnomaly
from repro.bgp.api import (
    correlate_updates_with_window,
    detect_routing_anomalies,
    fetch_updates,
    summarize_path_changes,
)

__all__ = [
    "BGPUpdate",
    "UpdateKind",
    "BGPCollectorSim",
    "CollectorConfig",
    "RoutingAnomaly",
    "correlate_updates_with_window",
    "detect_routing_anomalies",
    "fetch_updates",
    "shared_collector",
    "summarize_path_changes",
]
