"""Traceroute substrate: probe fleet, RTT model, campaigns, anomalies.

Replaces RIPE Atlas.  Probes live in edge networks; a measurement resolves
the policy-compliant IP path to its target and accumulates per-link RTTs
derived from physical path lengths.  Active incidents (cable failures)
remove links from the path pool, forcing reroutes whose longer geometry is
what raises end-to-end latency — the observable the forensic case study
starts from.
"""

from repro.traceroute.probes import Probe, build_probe_fleet
from repro.traceroute.rtt import PathResolver
from repro.traceroute.campaign import CampaignSpec, campaign_table
from repro.traceroute.anomaly import LatencyAnomaly, detect_series_anomalies
from repro.traceroute.api import (
    detect_latency_anomalies,
    latency_series,
    run_campaign,
)

__all__ = [
    "Probe",
    "build_probe_fleet",
    "PathResolver",
    "CampaignSpec",
    "campaign_table",
    "LatencyAnomaly",
    "detect_series_anomalies",
    "detect_latency_anomalies",
    "latency_series",
    "run_campaign",
]
