"""L2 — Forensic loop: alert→verdict latency and triggered-query economics.

Replays a multi-event timeline (three overlapping catalog disasters with
disjoint cable footprints) through the full closed loop — telemetry →
detectors → :class:`ForensicTrigger` → high-priority broker queries →
verdicts scored against ground truth — then replays it against the warm
broker to show the triggered-query cache collapses the loop to lookups.

What it demonstrates:

* every ground-truth incident yields exactly one deduped
  :class:`ForensicCase`, and every case's triggered query completes;
* verdict quality: the identified cable matches the incident's ground
  truth (corridor escalation pays for itself);
* alert→verdict wall-clock latency, cold vs warm;
* trigger economics: queries submitted vs cache hits, corridor
  escalations, alerts merged per case, epoch-shard pool reuse, and the
  priority path (forensic submissions jump the standing-query band);
* GC load: the objects the cyclic GC still tracks after the cold replay
  that the broker keeps alive (``bench_runner.py`` gates it), and the
  seconds spent in full collections during it (printed only).

Standalone (what CI smokes)::

    PYTHONPATH=src python benchmarks/bench_forensic_loop.py --smoke

or as pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_forensic_loop.py -s

Results are written to ``BENCH_forensic_loop.json`` so CI can archive the
perf trajectory per PR; ``bench_runner.py`` gates them against the
committed floor in ``bench_baseline.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from repro.live import (
    FORENSIC_PRIORITY,
    LiveConfig,
    overlapping_catalog_timeline,
    run_live_replay,
)
from repro.serve import QueryBroker, ServeConfig
from repro.synth.world import WorldConfig, build_world

#: Acceptance thresholds this benchmark demonstrates.
MIN_INCIDENT_CASE_RATE = 1.0   # one deduped case per ground-truth incident
MIN_COMPLETED_RATE = 1.0       # every triggered query completes
MIN_CONFIRMED_RATE = 0.66      # verdicts naming a ground-truth cable
MAX_MEAN_ALERT_LATENCY_EPOCHS = 2.0
MIN_WARM_TRIGGER_HIT_RATE = 1.0  # warm replay submits nothing


def replay(world, timeline, config, broker):
    return run_live_replay(
        world=world, timeline_events=timeline, config=config, broker=broker
    )


def tracked_objects() -> int:
    """Objects the cyclic GC tracks once a full collection has run."""
    gc.collect()
    return len(gc.get_objects())


class Gen2Timer:
    """Wall seconds spent in full (generation-2) collections while active."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "Gen2Timer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--events", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset (the default shape is already small)")
    parser.add_argument("--no-assert", action="store_true",
                        help="report only; skip threshold assertions")
    parser.add_argument("--out", default="BENCH_forensic_loop.json",
                        help="write the result summary here ('' disables)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.epochs, args.events = 20, 3

    world = build_world(WorldConfig(seed=7))
    timeline = overlapping_catalog_timeline(world, count=args.events)
    config = LiveConfig(epochs=args.epochs, workers=args.workers, forensics=True)

    print(f"\n=== forensic loop — {args.events} overlapping disasters over "
          f"{args.epochs} epochs, {args.workers} workers ===")
    broker = QueryBroker(world, config=ServeConfig(workers=args.workers)).start()
    try:
        before = tracked_objects()
        with Gen2Timer() as cold_gc:
            cold = replay(world, timeline, config, broker)
        # The broker still holds the replay's jobs and their results.
        retained = tracked_objects() - before
        warm = replay(world, timeline, config, broker)
    finally:
        broker.shutdown()

    incidents = len(cold.incident_epochs)
    cold_stats = cold.forensic_stats
    warm_stats = warm.forensic_stats
    cold_lat = cold_stats["mean_verdict_latency_s"] or 0.0
    warm_lat = warm_stats["mean_verdict_latency_s"] or 0.0
    for tag, rep, stats in (("cold", cold, cold_stats), ("warm", warm, warm_stats)):
        lat = stats["mean_verdict_latency_s"]
        print(f"  {tag:<5} {len(rep.forensic_cases)} cases for {incidents} "
              f"incidents  {rep.completed_cases} completed, "
              f"{rep.confirmed_cases} confirmed; "
              f"{stats['queries_submitted']} queries submitted / "
              f"{stats['query_cache_hits']} cache hits / "
              f"{stats['escalations']} escalations; "
              f"alert->verdict {lat if lat is None else round(lat, 4)}s")
    per_priority = cold.broker_stats.get("submitted_by_priority", {})
    print(f"  priority  forensic band {FORENSIC_PRIORITY}: "
          f"{per_priority.get(FORENSIC_PRIORITY, 0)} submissions; "
          f"scheduler preemptions "
          f"{cold.broker_stats['scheduler']['preemptions']}")

    print(f"  gc    {retained:,} tracked objects retained by the cold replay; "
          f"{cold_gc.collections} gen-2 collections took "
          f"{cold_gc.seconds:.2f}s (not gated)")

    warm_submitted = warm_stats["queries_submitted"]
    warm_lookups = warm_stats["query_cache_hits"]
    summary = {
        "benchmark": "forensic_loop",
        "epochs": args.epochs,
        "events": args.events,
        "workers": args.workers,
        "incidents": incidents,
        "cases": len(cold.forensic_cases),
        "completed_cases": cold.completed_cases,
        "confirmed_cases": cold.confirmed_cases,
        "incident_case_rate": (
            len(cold.forensic_cases) / incidents if incidents else 0.0
        ),
        "completed_rate": (
            cold.completed_cases / len(cold.forensic_cases)
            if cold.forensic_cases else 0.0
        ),
        "confirmed_rate": (
            cold.confirmed_cases / len(cold.forensic_cases)
            if cold.forensic_cases else 0.0
        ),
        "mean_alert_latency_epochs": cold_stats["mean_alert_latency_epochs"],
        "cold_mean_verdict_latency_s": round(cold_lat, 6),
        "warm_mean_verdict_latency_s": round(warm_lat, 6),
        "verdict_latency_speedup": round(cold_lat / warm_lat, 1) if warm_lat else None,
        "cold_queries_submitted": cold_stats["queries_submitted"],
        "cold_escalations": cold_stats["escalations"],
        "warm_queries_submitted": warm_submitted,
        "warm_query_cache_hits": warm_lookups,
        "warm_trigger_hit_rate": (
            warm_lookups / (warm_lookups + warm_submitted)
            if (warm_lookups + warm_submitted) else 0.0
        ),
        "alerts_seen": cold_stats["alerts_seen"],
        "alerts_merged": cold_stats["alerts_merged"],
        "suppressed_threshold": cold_stats["suppressed_threshold"],
        "mean_queries_per_case": cold_stats["mean_queries_per_case"],
        "pool": cold_stats["pool"],
        "forensic_submissions": per_priority.get(FORENSIC_PRIORITY, 0),
        "scheduler_preemptions": cold.broker_stats["scheduler"]["preemptions"],
        "retained_tracked_objects": retained,
        "cold_gen2_gc_s": round(cold_gc.seconds, 3),
        "cold_gen2_collections": cold_gc.collections,
        "case_records": [
            {k: c[k] for k in ("case_id", "event_id", "alert_kind",
                               "alert_epoch", "verdict", "identified_cable",
                               "queries_run", "corridors_tried",
                               "alerts_merged", "verdict_latency_s")}
            for c in cold.forensic_cases
        ],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, default=str)
        print(f"  wrote {args.out}")

    if not args.no_assert:
        assert summary["incident_case_rate"] >= MIN_INCIDENT_CASE_RATE, (
            f"{summary['cases']} cases for {incidents} incidents; every "
            "ground-truth incident must yield exactly one deduped case"
        )
        assert len(cold.forensic_cases) == incidents, (
            f"{len(cold.forensic_cases)} cases != {incidents} incidents "
            "(dedup failed or an incident went untriggered)"
        )
        assert summary["completed_rate"] >= MIN_COMPLETED_RATE, (
            f"only {cold.completed_cases}/{len(cold.forensic_cases)} "
            "triggered queries completed"
        )
        assert summary["confirmed_rate"] >= MIN_CONFIRMED_RATE, (
            f"confirmed rate {summary['confirmed_rate']:.0%} below "
            f"{MIN_CONFIRMED_RATE:.0%}"
        )
        assert summary["mean_alert_latency_epochs"] <= MAX_MEAN_ALERT_LATENCY_EPOCHS, (
            f"mean alert latency {summary['mean_alert_latency_epochs']} epochs "
            f"exceeds {MAX_MEAN_ALERT_LATENCY_EPOCHS}"
        )
        assert summary["warm_trigger_hit_rate"] >= MIN_WARM_TRIGGER_HIT_RATE, (
            f"warm replay submitted {warm_submitted} triggered queries; an "
            "unchanged timeline must resolve every case from cache"
        )
        print("  thresholds met: one confirmed case per incident, warm "
              "replay submits nothing")
    return 0


def test_forensic_loop_smoke(tmp_path):
    """Pytest entry point: the CI smoke preset must meet every threshold."""
    out = tmp_path / "BENCH_forensic_loop.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["completed_cases"] == summary["incidents"]


if __name__ == "__main__":
    raise SystemExit(main())
