"""Xaminer substrate: Internet cross-layer resilience analysis.

A reimplementation of the analysis surface of Xaminer (Ramanathan, Sankaran
& Abdu Jyothi, SIGMETRICS 2024), the framework the ArachNet case studies use
as expert benchmark.  Xaminer consumes Nautilus-style cross-layer maps and
answers *what breaks when infrastructure fails*: it turns events (cable
cuts, earthquakes, hurricanes) into probabilistic failure sets and aggregates
the damage into country- and AS-level impact metrics.

The versatile :func:`repro.xaminer.api.process_event` is the single entry
point case study 2 leans on; the submodules expose each stage separately.
"""

from repro.xaminer.events import EventFootprint, event_footprint
from repro.xaminer.failures import FailureSample, simulate_failures
from repro.xaminer.impact import CountryImpact, ImpactReport, compute_impact
from repro.xaminer.aggregate import (
    as_impact_embeddings,
    country_impact_embeddings,
    rank_countries,
)
from repro.xaminer.risk import country_risk_profile
from repro.xaminer.api import (
    as_impact,
    combine_impact_reports,
    country_impact,
    list_disasters,
    process_event,
    risk_profile,
)

__all__ = [
    "EventFootprint",
    "event_footprint",
    "FailureSample",
    "simulate_failures",
    "CountryImpact",
    "ImpactReport",
    "compute_impact",
    "as_impact_embeddings",
    "country_impact_embeddings",
    "rank_countries",
    "country_risk_profile",
    "as_impact",
    "combine_impact_reports",
    "country_impact",
    "list_disasters",
    "process_event",
    "risk_profile",
]
