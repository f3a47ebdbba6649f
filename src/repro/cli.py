"""Command-line interface: ask ArachNet a question from the shell.

Usage::

    python -m repro "Identify the impact at a country level due to \\
        SeaMeWe-5 cable failure"
    python -m repro --list-cables
    python -m repro --frameworks nautilus "…"        # restrict the registry
    python -m repro --incident SeaMeWe-5 "…latency…" # inject ground truth
    python -m repro --json "…"                        # machine-readable output

Serve modes (the :mod:`repro.serve` subsystem)::

    python -m repro --batch --workers 8               # scenario-matrix campaign
    python -m repro --batch --limit 10 --json
    echo "query-per-line" | python -m repro --serve   # concurrent stdin serving
    python -m repro --serve --cache-dir .cache < qs   # warm cache across restarts

Live mode (the :mod:`repro.live` subsystem)::

    python -m repro --live --epochs 24                # replay a cable-cut timeline
    python -m repro --live --incident AAE-1 --cache-dir .cache
    python -m repro --live --pace-ms 250 --epochs 12  # paced, 4 epochs/sec
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.pipeline import ArachNet
from repro.core.registry import default_registry
from repro.synth.scenarios import make_latency_incident
from repro.synth.world import WorldConfig, build_world


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ArachNet: agentic Internet measurement workflows",
    )
    parser.add_argument("query", nargs="?", help="natural-language measurement question")
    parser.add_argument("--seed", type=int, default=7, help="world seed (default 7)")
    parser.add_argument(
        "--frameworks",
        help="comma-separated registry restriction (e.g. 'nautilus')",
    )
    parser.add_argument(
        "--incident",
        metavar="CABLE",
        help="inject a hidden cable failure three days before 'now'",
    )
    parser.add_argument("--json", action="store_true", help="emit the full result as JSON")
    parser.add_argument("--show-code", action="store_true",
                        help="print the generated Python solution")
    parser.add_argument("--list-cables", action="store_true",
                        help="list known cables and exit")
    parser.add_argument("--no-curate", action="store_true",
                        help="skip the RegistryCurator stage")
    serve = parser.add_argument_group("serve modes")
    serve.add_argument("--serve", action="store_true",
                       help="serve queries read from stdin (one per line) concurrently")
    serve.add_argument("--batch", action="store_true",
                       help="run a batch campaign over the scenario matrix")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker threads for --serve/--batch (default 4)")
    serve.add_argument("--backend", choices=("thread", "process"), default="thread",
                       help="execution backend: 'thread' overlaps LLM latency "
                            "in-process, 'process' runs CPU-bound pipelines on "
                            "a preforked process pool (default thread)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the artifact cache in serve modes")
    serve.add_argument("--limit", type=int, metavar="N",
                       help="cap the number of cables in the --batch matrix")
    serve.add_argument("--cascades", action="store_true",
                       help="include cascade scenarios in the --batch matrix")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persist the artifact cache in DIR so warm hit "
                            "rates survive broker restarts")
    durability = parser.add_argument_group("durability")
    durability.add_argument("--journal-dir", metavar="DIR",
                            help="write-ahead journal directory: every "
                                 "submission/completion is fsync'd there "
                                 "before it happens, so a killed broker "
                                 "restarted with the same DIR resumes the "
                                 "campaign exactly once (finished jobs replay "
                                 "from the journal, unfinished ones rerun)")
    durability.add_argument("--job-timeout", type=float, metavar="S",
                            help="per-job wall-clock deadline for --backend "
                                 "process: overdue jobs fail with "
                                 "JobDeadlineExceeded and their worker is "
                                 "killed (default: no deadline)")
    durability.add_argument("--drain-deadletter", action="store_true",
                            help="with --journal-dir: list the quarantined "
                                 "poison jobs, journal a drain record so "
                                 "they become submittable again, and exit")
    live = parser.add_argument_group("live mode")
    live.add_argument("--live", action="store_true",
                      help="replay a scenario timeline: epoch-stepped world "
                           "evolution, telemetry streams, online detectors "
                           "and standing queries")
    live.add_argument("--epochs", type=int, default=24, metavar="N",
                      help="epochs to replay in --live (default 24)")
    live.add_argument("--pace-ms", type=float, default=0.0, metavar="MS",
                      help="real milliseconds per epoch (default 0 = as fast "
                           "as possible)")
    live.add_argument("--max-epoch-shards", type=int, default=8, metavar="N",
                      help="evolved-world shards retained for standing "
                           "queries before LRU eviction (default 8)")
    live.add_argument("--forensics", action="store_true",
                      help="close the loop: detector alerts spawn "
                           "high-priority forensic queries whose verdicts "
                           "are scored against the timeline's ground truth")
    live.add_argument("--concurrent-events", type=int, default=0, metavar="N",
                      help="replay N overlapping catalog disasters with "
                           "disjoint cable footprints instead of the single "
                           "canonical cable cut (default 0 = single cut)")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--trace-out", metavar="PATH",
                     help="enable tracing and write a Chrome trace-event "
                          "JSON file (load at ui.perfetto.dev): spans from "
                          "broker submit through worker pipeline stages, "
                          "epoch ticks, alerts and forensic cases")
    obs.add_argument("--metrics-dump", nargs="?", const="-", metavar="PATH",
                     help="after the run, dump the unified metrics registry "
                          "(queue depth, cache hit rates, respawns, bus "
                          "drops, ...) in Prometheus text format to PATH "
                          "('-' or no value = stdout)")
    obs.add_argument("--obs-port", type=int, metavar="PORT",
                     help="serve live introspection on 127.0.0.1:PORT while "
                          "the run is in flight: /metrics (Prometheus), "
                          "/healthz (SLO verdict, non-200 on breach), "
                          "/debug/flight (postmortem dump), /debug/broker "
                          "(scheduler/backend stats); 0 picks a free port. "
                          "Also arms the SLO engine and flight recorder")
    obs.add_argument("--slo-config", metavar="PATH",
                     help="JSON file of SLO specs replacing the built-in "
                          "defaults (see README 'Health & postmortems')")
    obs.add_argument("--flight-dir", metavar="DIR",
                     help="run the crash flight recorder and write its "
                          "postmortem dumps into DIR (default: next to the "
                          "artifact cache, or the current directory)")
    obs.add_argument("--profile", action="store_true",
                     help="cProfile the --serve/--batch/--live run and dump "
                          "pstats next to the artifact cache (or the current "
                          "directory without --cache-dir); inspect with "
                          "'python -m pstats <dump>'")
    return parser


def _serve_config(args) -> "ServeConfig":
    from repro.serve import ServeConfig

    return ServeConfig(workers=args.workers, backend=args.backend,
                       cache_enabled=not args.no_cache,
                       tracing=bool(args.trace_out),
                       flight=bool(args.flight_dir) or args.obs_port is not None,
                       flight_dir=args.flight_dir,
                       journal_dir=args.journal_dir,
                       job_timeout_s=args.job_timeout)


def _dump_obs(args, broker) -> None:
    """Write the --trace-out / --metrics-dump artifacts from a broker."""
    if args.trace_out:
        from repro.obs import TraceSink

        records = broker.tracer.records()
        path = TraceSink(args.trace_out).write(records)
        print(f"trace:    {len(records)} spans -> {path}", file=sys.stderr)
    if args.metrics_dump:
        text = broker.metrics.prometheus_text()
        if args.metrics_dump == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics_dump, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"metrics:  -> {args.metrics_dump}", file=sys.stderr)


def _obs_server(args, broker):
    """Start the --obs-port introspection server over a serve-mode broker
    (SLO engine included); returns it, or ``None`` when the flag is absent.
    The caller stops it in a ``finally``."""
    if args.obs_port is None:
        return None
    from repro.obs import ObsServer, SloEngine, load_slo_specs

    specs = load_slo_specs(args.slo_config) if args.slo_config else None
    engine = SloEngine(broker.metrics, specs=specs, flight=broker.flight)
    server = ObsServer(port=args.obs_port, registry=broker.metrics,
                       health=engine, flight=broker.flight,
                       broker=broker).start()
    print(f"obs:      serving http://127.0.0.1:{server.port} "
          "(/metrics /healthz /debug/flight /debug/broker /debug/deadletter)",
          file=sys.stderr)
    return server


def _effective_cache_dir(args) -> str | None:
    """``--cache-dir``, or ``None`` (with a warning) when it cannot apply.

    Only the thread backend runs jobs against the broker-wide artifact
    cache; worker processes keep their own per-process caches, so spilling
    the broker cache under --backend process would persist nothing.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    if args.backend == "process":
        print("warning: --cache-dir persists the broker artifact cache, which "
              "only the thread backend uses; ignoring it for --backend process",
              file=sys.stderr)
        return None
    return cache_dir


def _cache_file(args) -> str | None:
    """The on-disk artifact-cache path for --cache-dir (created on demand)."""
    cache_dir = _effective_cache_dir(args)
    if not cache_dir:
        return None
    from repro.serve.cache import cache_file_path

    return cache_file_path(cache_dir)


def _load_cache(broker, cache_file: str | None) -> None:
    import os

    if cache_file and broker.cache is not None and os.path.exists(cache_file):
        loaded = broker.cache.load(cache_file)
        print(f"cache:    loaded {loaded} entries from {cache_file}", file=sys.stderr)


def _spill_cache(broker, cache_file: str | None) -> None:
    if cache_file and broker.cache is not None:
        broker.cache.spill(cache_file)


def run_batch(args, world, registry, incidents) -> int:
    """--batch: fan the scenario matrix through the broker and aggregate."""
    from repro.serve import CampaignSpec, QueryBroker, run_campaign

    spec = CampaignSpec.for_world(world, limit=args.limit, cascades=args.cascades)
    cache_file = _cache_file(args)
    with QueryBroker(world, registry=registry, incidents=incidents,
                     config=_serve_config(args)) as broker:
        server = _obs_server(args, broker)
        try:
            _load_cache(broker, cache_file)
            report = run_campaign(broker, spec)
            ledger_summary = broker.ledger.summary()
            _spill_cache(broker, cache_file)
            _dump_obs(args, broker)
        finally:
            if server is not None:
                server.stop()

    if args.json:
        payload = report.to_dict()
        payload["ledger"] = ledger_summary
        print(json.dumps(payload, indent=1, default=str))
    else:
        print(f"campaign: {report.succeeded}/{report.total} jobs ok "
              f"in {report.duration_s:.2f}s "
              f"({report.jobs_per_sec:.1f} jobs/s, {args.workers} workers)")
        if report.cache:
            print(f"cache:    {report.cache['hits']} hits / "
                  f"{report.cache['misses']} misses "
                  f"({report.cache['hit_rate']:.0%} hit rate)")
        print("top exposed countries across scenarios:")
        for row in report.top_countries[:8]:
            print(f"  {row['country']:<4} mean score {row['mean_score']:.3f} "
                  f"({row['appearances']} scenarios)")
        failures = [o for o in report.outcomes if o["state"] != "done"]
        for failure in failures[:5]:
            print(f"FAILED {failure['tag']}: {failure['error'][:120]}",
                  file=sys.stderr)
    return 0 if report.all_succeeded else 1


def run_serve(args, world, registry, incidents, stream=None) -> int:
    """--serve: submit every stdin line as a query to the concurrent broker.

    Results print in submission order, each line as soon as its own job
    (and those before it) finished; with ``--json`` the full per-job
    payloads are emitted as one document at the end instead.
    """
    from repro.serve import JobState, QueryBroker

    queries = [line.strip() for line in (stream or sys.stdin) if line.strip()]
    if not queries:
        print("error: --serve expects one query per line on stdin", file=sys.stderr)
        return 2

    failed = 0
    rows = []
    cache_file = _cache_file(args)
    with QueryBroker(world, registry=registry, incidents=incidents,
                     config=_serve_config(args)) as broker:
        server = _obs_server(args, broker)
        try:
            _load_cache(broker, cache_file)
            tickets = [broker.submit(query) for query in queries]
            for query, ticket in zip(queries, tickets):
                job = broker.wait(ticket)
                if job.state is JobState.DONE:
                    final = job.result.execution.outputs.get("final", {})
                    title = final.get("title", "ok") if isinstance(final, dict) else "ok"
                    if args.json:
                        rows.append({"ticket": job.ticket, "query": query,
                                     "state": job.state.value, "final": final,
                                     "trace_id": job.trace_id})
                    else:
                        print(f"{job.ticket} done   {title} :: {query[:60]}")
                else:
                    failed += 1
                    if args.json:
                        rows.append({"ticket": job.ticket, "query": query,
                                     "state": job.state.value, "error": job.error,
                                     "trace_id": job.trace_id})
                    else:
                        print(f"{job.ticket} FAILED {job.error[:80]} :: {query[:60]}")
            stats = broker.stats()
            _spill_cache(broker, cache_file)
            _dump_obs(args, broker)
        finally:
            if server is not None:
                server.stop()
    cache = stats.get("cache")
    if args.json:
        print(json.dumps({"jobs": rows, "cache": cache,
                          "ledger": broker.ledger.summary()},
                         indent=1, default=str))
    elif cache:
        print(f"served {len(queries)} queries, cache hit rate {cache['hit_rate']:.0%}")
    return 0 if failed == 0 else 1


def run_live(args, world, registry) -> int:
    """--live: replay a scenario timeline with streams, detectors and
    standing queries; ``--incident CABLE`` picks the cable the timeline
    cuts, ``--concurrent-events N`` superimposes N catalog disasters, and
    ``--forensics`` arms the alert-triggered forensic loop."""
    from repro.live import (
        LiveConfig,
        default_cable_cut_timeline,
        default_cut_epoch,
        overlapping_catalog_timeline,
        run_live_replay,
    )

    config = LiveConfig(
        epochs=args.epochs,
        pace_s=args.pace_ms / 1000.0,
        workers=args.workers,
        backend=args.backend,
        cache_enabled=not args.no_cache,
        cache_dir=_effective_cache_dir(args),
        max_epoch_shards=args.max_epoch_shards,
        forensics=args.forensics,
        tracing=bool(args.trace_out),
        obs_port=args.obs_port,
        slo_config=args.slo_config,
        flight=bool(args.flight_dir),
        flight_dir=args.flight_dir,
        journal_dir=args.journal_dir,
    )
    if args.concurrent_events:
        try:
            timeline = overlapping_catalog_timeline(
                world, count=args.concurrent_events
            )
        except ValueError as exc:
            # Catalog too small for N disjoint events, or windows that
            # cannot overlap — surface the builder's own diagnostic.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # A replay that ends before the last fire can never detect it —
        # fail loudly up front rather than exiting 1 with no diagnostic.
        last_fire = max(item.start_epoch for item in timeline)
        if args.epochs <= last_fire:
            print(f"error: --concurrent-events {args.concurrent_events} "
                  f"schedules the last disaster at epoch {last_fire}; "
                  f"--epochs must be at least {last_fire + 1} "
                  f"(got {args.epochs})", file=sys.stderr)
            return 2
    else:
        timeline = default_cable_cut_timeline(
            world,
            cable_name=args.incident,
            cut_epoch=default_cut_epoch(args.epochs),
        )
    # With obs flags the CLI owns the broker: the driver would otherwise
    # shut its internal one down before we could export its tracer/registry.
    broker = None
    if args.trace_out or args.metrics_dump:
        from repro.serve import QueryBroker

        broker = QueryBroker(world, registry=registry,
                             config=_serve_config(args)).start()
    try:
        report = run_live_replay(world=world, timeline_events=timeline,
                                 config=config, registry=registry,
                                 broker=broker)
        if broker is not None:
            _dump_obs(args, broker)
    finally:
        if broker is not None:
            broker.shutdown()

    if args.json:
        print(json.dumps(report.to_dict(), indent=1, default=str))
    else:
        print(f"live:      {report.epochs} epochs in {report.duration_s:.2f}s "
              f"({report.epochs_per_sec:.1f} epochs/s)")
        for event_id, row in report.detection.items():
            lag = row["latency_epochs"]
            print(f"incident:  {event_id} fired at epoch {row['incident_epoch']}; "
                  + (f"first alert at epoch {row['first_alert_epoch']} "
                     f"({row['first_alert_kind']}, +{lag} epochs)"
                     if lag is not None else "NOT detected"))
        for alert in report.alerts[:10]:
            print(f"alert:     epoch {alert['epoch']:>3} {alert['kind']:<10} "
                  f"{alert['series_key']}")
        stats = report.standing_stats
        print(f"standing:  {stats['evaluations']} evaluations, "
              f"{stats['submitted']} computed, {stats['cache_hits']} cache hits "
              f"({stats['hit_rate']:.0%} hit rate); "
              f"{stats['epoch_shards']} epoch shards retained, "
              f"{stats['shards_evicted']} evicted")
        rstats = report.routing_stats
        if rstats:
            print(f"routing:   {rstats['hits']} route-table hits / "
                  f"{rstats['misses']} misses; incremental re-convergence "
                  f"shared {rstats['peers_shared']} peer tables, "
                  f"recomputed {rstats['peers_recomputed']}")
        for case in report.forensic_cases:
            lat = case["verdict_latency_s"]
            print(f"forensic:  {case['case_id']} {case['event_id'] or '?'} "
                  f"alert {case['alert_kind']}@{case['alert_epoch']} -> "
                  f"{case['verdict']} ({case['identified_cable'] or 'no cable'}) "
                  f"in {case['queries_run']} quer"
                  f"{'y' if case['queries_run'] == 1 else 'ies'}"
                  + (f", {lat:.2f}s" if lat is not None else ""))
        fstats = report.forensic_stats
        if fstats:
            print(f"trigger:   {fstats['alerts_seen']} alerts -> "
                  f"{fstats['cases_opened']} cases "
                  f"({fstats['alerts_merged']} merged, "
                  f"{fstats['suppressed_threshold']} below threshold); "
                  f"{fstats['queries_submitted']} queries submitted, "
                  f"{fstats['query_cache_hits']} cache hits, "
                  f"{fstats['escalations']} corridor escalations")
        if report.health:
            breached = [s["name"] for s in report.health["slos"]
                        if not s["healthy"]]
            print(f"health:    {'OK' if report.health['healthy'] else 'BREACHED'} "
                  f"({report.health['evaluations']} evaluations"
                  + (f"; breached: {', '.join(breached)}" if breached else "")
                  + ")")
        for dump in report.flight_dumps:
            print(f"flight:    postmortem {dump}")
        if report.cache_file:
            print(f"cache:     spilled to {report.cache_file}")
    ok = report.detected_incidents == len(report.incident_epochs)
    if args.forensics:
        # The closed loop succeeded only if every incident produced its
        # one deduped case and every triggered query completed — zero
        # cases is a silent failure, not a vacuous success.
        ok = (ok
              and len(report.forensic_cases) == len(report.incident_epochs)
              and report.completed_cases == len(report.forensic_cases))
    return 0 if ok else 1


def _profiled(args, run) -> int:
    """--profile: cProfile one serve-mode run end to end.

    The pstats dump lands next to the artifact cache (``--cache-dir``) so a
    perf investigation's profile travels with the run's other artifacts;
    without a cache dir it lands in the current directory.
    """
    import cProfile
    import os
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = run()
    finally:
        profiler.disable()
        out_dir = getattr(args, "cache_dir", None) or "."
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "profile.pstats")
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler)
        print(f"profile:  {stats.total_calls} calls, {stats.total_tt:.2f}s "
              f"-> {path}", file=sys.stderr)
    return code


def drain_deadletter(args) -> int:
    """--drain-deadletter: inspect and release the poison-job quarantine.

    Opens the journal directly (no broker, no workers): prints every
    quarantined (world, query) signature with its crash history, appends a
    ``deadletter_drain`` record so the next broker over this journal will
    accept those submissions again, and exits.
    """
    from repro.serve.journal import DeadLetterQueue, WriteAheadJournal

    if not args.journal_dir:
        print("error: --drain-deadletter requires --journal-dir", file=sys.stderr)
        return 2
    with WriteAheadJournal(args.journal_dir) as journal:
        queue = DeadLetterQueue(journal=journal)
        entries = queue.drain()
        for entry in entries:
            print(f"drained:  {entry.get('world_key', '?')} :: "
                  f"{entry.get('query', '')[:80]} "
                  f"({entry.get('crashes', '?')} crashes on workers "
                  f"{entry.get('worker_slots', [])})")
    if not entries:
        print("deadletter queue is empty; nothing drained")
    else:
        print(f"drained {len(entries)} quarantined signature"
              f"{'s' if len(entries) != 1 else ''}; resubmissions will "
              "run fresh")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.drain_deadletter:
        return drain_deadletter(args)

    world = build_world(WorldConfig(seed=args.seed))

    if args.list_cables:
        for name in world.cable_names():
            cable = world.cable_named(name)
            countries = "-".join(cable.country_codes(world.landing_points))
            print(f"{name:<18} {cable.capacity_tbps:>6.1f} Tbps  {countries}")
        return 0

    registry = default_registry()
    if args.frameworks:
        registry = registry.subset(frameworks=args.frameworks.split(","))

    incidents = []
    if args.incident:
        incidents.append(make_latency_incident(world, args.incident))

    if args.batch or args.serve or args.live:
        if args.workers < 1:
            print("error: --workers must be >= 1", file=sys.stderr)
            return 2
        if args.limit is not None and args.limit < 0:
            print("error: --limit must be >= 0", file=sys.stderr)
            return 2
        if args.live:
            if args.epochs < 1 or args.pace_ms < 0:
                print("error: --epochs must be >= 1 and --pace-ms >= 0",
                      file=sys.stderr)
                return 2
            if args.concurrent_events < 0:
                print("error: --concurrent-events must be >= 0", file=sys.stderr)
                return 2

        def dispatch() -> int:
            if args.live:
                return run_live(args, world, registry)
            if args.batch:
                return run_batch(args, world, registry, incidents)
            return run_serve(args, world, registry, incidents)

        if args.profile:
            return _profiled(args, dispatch)
        return dispatch()

    if args.profile:
        print("warning: --profile wraps the --serve/--batch/--live drivers; "
              "ignoring it for a single-shot query", file=sys.stderr)
    if not args.query:
        print("error: a query is required (or use --list-cables/--batch/--serve)",
              file=sys.stderr)
        return 2

    system = ArachNet.for_world(
        world, registry=registry, incidents=incidents, curate=not args.no_curate
    )
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer

        tracer = Tracer(label="main")
    if args.metrics_dump:
        print("warning: --metrics-dump needs a broker registry; it applies "
              "to --serve/--batch/--live only", file=sys.stderr)
    result = system.answer(args.query, tracer=tracer)
    trace_id = None
    if tracer is not None:
        from repro.obs import TraceSink

        records = tracer.records()
        # Single-shot runs produce exactly one trace; printing its id lets
        # the output line be joined against the --trace-out export the same
        # way serve-mode ledger rows join via their trace_id.
        ids = tracer.trace_ids()
        trace_id = ids[0] if ids else None
        path = TraceSink(args.trace_out).write(records)
        print(f"trace:    {len(records)} spans -> {path}", file=sys.stderr)

    if args.json:
        payload = result.to_dict()
        if trace_id is not None:
            payload["trace_id"] = trace_id
        if not args.show_code:
            payload["solution"]["source_code"] = (
                f"<{result.solution.loc} lines; rerun with --show-code>"
            )
        print(json.dumps(payload, indent=1, default=str))
        return 0 if result.execution.succeeded else 1

    print(f"intent:     {result.analysis.intent}")
    if trace_id is not None:
        print(f"trace_id:   {trace_id}")
    print(f"workflow:   {[s.target for s in result.design.chosen.steps]}")
    print(f"generated:  {result.solution.loc} lines "
          f"(QA: {', '.join(result.solution.qa_checks)})")
    if args.show_code:
        print("\n" + result.solution.source_code)
    if not result.execution.succeeded:
        print(f"\nexecution FAILED:\n{result.execution.error}", file=sys.stderr)
        return 1
    print("\nanswer:")
    print(json.dumps(result.execution.outputs["final"], indent=1, default=str)[:4000])
    if result.curator and result.curator.added_entries:
        print(f"\ncurator promoted: {result.curator.added_entries}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
