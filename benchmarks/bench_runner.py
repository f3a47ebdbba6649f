"""Benchmark runner + regression gate for the serve/routing/forensic hot paths.

Runs the serve-throughput, incremental-routing, forensic-loop and
observability benchmarks (each writes its ``BENCH_*.json``), then gates
the combined results against the committed floor in
``benchmarks/bench_baseline.json`` — warm-cache hit rate, worker/backends
speedups, convergence speedups, the closed-loop forensic guarantees (one
completed case per incident, warm replays submitting nothing), the
tracing-plane guarantees (near-zero overhead when disabled, complete
broker-to-worker span chains when enabled) and the durability
guarantees (journal tax within a few percent, exactly-once resume with
byte-identical artifacts) must not regress below it.
Every emitted ``BENCH_*.json`` is stamped with run metadata (git sha,
cpu count, python version, per-benchmark wall time) so archived artifacts
are comparable across machines and commits.  CI runs this as a smoke
step; a failing gate fails the build.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py          # full
    PYTHONPATH=src python benchmarks/bench_runner.py --smoke  # CI preset
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

import bench_forensic_loop
import bench_incremental_routing
import bench_obs
import bench_serve_throughput

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "bench_baseline.json")
SERVE_OUT = "BENCH_serve.json"
ROUTING_OUT = "BENCH_routing.json"
FORENSIC_OUT = "BENCH_forensic_loop.json"
OBS_OUT = "BENCH_obs.json"


def _gate(checks: list[tuple[str, bool, str]]) -> bool:
    ok = True
    for name, passed, detail in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {name}: {detail}")
        ok = ok and passed
    return ok


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except Exception:  # not a checkout, git missing, ... — metadata only
        return "unknown"


def _peak_rss_kb() -> int | None:
    """High-water RSS in KiB across this process and its reaped children
    (worker pools fork, so children often dominate).  ``ru_maxrss`` is a
    running maximum — a benchmark's stamp is the peak *as of* its
    completion, not an isolated per-benchmark figure."""
    if resource is None:
        return None
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb)


def _stamp_meta(path: str, wall_s: float, sha: str,
                peak_rss_kb: int | None = None) -> None:
    """Inject run metadata into an emitted BENCH_*.json (in place)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["meta"] = {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "bench_wall_s": round(wall_s, 2),
        "peak_rss_kb": peak_rss_kb,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI preset: smaller campaigns, fewer repeats")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="committed regression floor to gate against")
    parser.add_argument("--no-gate", action="store_true",
                        help="run the benchmarks but skip the regression gate")
    args = parser.parse_args(argv)

    serve_args = ["--no-assert", "--out", SERVE_OUT]
    routing_args = ["--no-assert", "--out", ROUTING_OUT]
    forensic_args = ["--no-assert", "--out", FORENSIC_OUT]
    obs_args = ["--no-assert", "--out", OBS_OUT]
    if args.smoke:
        serve_args.append("--smoke")
        routing_args.extend(["--repeats", "2"])
        forensic_args.append("--smoke")
        obs_args.append("--smoke")

    benches = [
        ("serve", bench_serve_throughput, serve_args, SERVE_OUT),
        ("routing", bench_incremental_routing, routing_args, ROUTING_OUT),
        ("forensic", bench_forensic_loop, forensic_args, FORENSIC_OUT),
        ("obs", bench_obs, obs_args, OBS_OUT),
    ]
    sha = _git_sha()
    wall: dict[str, float] = {}
    rss: dict[str, int | None] = {}
    for name, module, bench_argv, out in benches:
        started = time.perf_counter()
        module.main(bench_argv)
        wall[name] = time.perf_counter() - started
        rss[name] = _peak_rss_kb()
        _stamp_meta(out, wall[name], sha, peak_rss_kb=rss[name])
    print("\n=== wall time / peak RSS per benchmark ===")
    for name in wall:
        rss_mb = f"{rss[name] / 1024:7.0f} MiB" if rss[name] else "    n/a"
        print(f"  {name:<10s} {wall[name]:7.1f}s {rss_mb}")

    with open(SERVE_OUT, encoding="utf-8") as handle:
        serve = json.load(handle)
    with open(ROUTING_OUT, encoding="utf-8") as handle:
        routing = json.load(handle)
    with open(FORENSIC_OUT, encoding="utf-8") as handle:
        forensic = json.load(handle)
    with open(OBS_OUT, encoding="utf-8") as handle:
        obs = json.load(handle)

    if args.no_gate:
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        base = json.load(handle)
    sbase, rbase = base["serve"], base["routing"]
    fbase, obase = base["forensic"], base["obs"]
    dbase = base["durability"]
    cores = serve.get("cores", bench_serve_throughput.available_cores())
    # Tiny smoke campaigns jitter more than the full-run overhead bar; the
    # baseline carries a dedicated (looser) smoke ceiling for them.
    max_overhead = (obase["smoke_max_overhead_pct"] if args.smoke
                    else obase["max_overhead_pct"])
    max_journal_tax = (dbase["smoke_max_journal_overhead_pct"] if args.smoke
                       else dbase["max_journal_overhead_pct"])
    durability = serve["durability"]

    print(f"\n=== regression gate vs {os.path.relpath(args.baseline)} ===")
    checks = [
        ("serve worker speedup",
         serve["speedup"] >= sbase["min_worker_speedup"],
         f"{serve['speedup']:.2f}x (floor {sbase['min_worker_speedup']}x)"),
        ("serve warm hit rate",
         serve["warm_hit_rate"] >= sbase["min_warm_hit_rate"],
         f"{serve['warm_hit_rate']:.0%} (floor {sbase['min_warm_hit_rate']:.0%})"),
        ("backend artifact identity",
         bool(serve.get("artifacts_identical", False)),
         str(serve.get("artifacts_identical"))),
        ("routing timeline speedup",
         routing["timeline_speedup"] >= rbase["min_timeline_speedup"],
         f"{routing['timeline_speedup']:.1f}x (floor {rbase['min_timeline_speedup']}x)"),
        ("routing cold speedup",
         routing["cold_speedup"] >= rbase["min_cold_speedup"],
         f"{routing['cold_speedup']:.2f}x (floor {rbase['min_cold_speedup']}x)"),
        ("routing serve-burst speedup",
         routing["serve_speedup"] >= rbase["min_serve_speedup"],
         f"{routing['serve_speedup']:.2f}x (floor {rbase['min_serve_speedup']}x)"),
        ("routing engine speedup",
         routing["engine_speedup"] >= rbase["min_engine_speedup"],
         f"{routing['engine_speedup']:.2f}x int-indexed SPF vs legacy "
         f"(floor {rbase['min_engine_speedup']}x)"),
        ("routing full convergence",
         routing["full_convergence_ms"] <= rbase["max_full_convergence_ms"],
         f"{routing['full_convergence_ms']:.2f} ms per cold table "
         f"(ceiling {rbase['max_full_convergence_ms']} ms)"),
        ("routing epochs/sec",
         routing["epochs_per_sec"] >= rbase["min_epochs_per_sec"],
         f"{routing['epochs_per_sec']:,.0f} on the overlapping-disaster "
         f"timeline (floor {rbase['min_epochs_per_sec']:,})"),
        ("routing repair fraction",
         routing["repair_fraction"] <= rbase["max_repair_fraction"],
         f"{routing['repair_fraction']:.1%} of touched route pairs repaired "
         f"rather than shared (ceiling {rbase['max_repair_fraction']:.0%})"),
        ("forensic case per incident",
         forensic["incident_case_rate"] >= fbase["min_incident_case_rate"]
         and forensic["cases"] == forensic["incidents"],
         f"{forensic['cases']} deduped cases / {forensic['incidents']} "
         "incidents (must be exactly one each)"),
        ("forensic completion",
         forensic["completed_rate"] >= fbase["min_completed_rate"],
         f"{forensic['completed_rate']:.0%} triggered queries completed "
         f"(floor {fbase['min_completed_rate']:.0%})"),
        ("forensic verdict accuracy",
         forensic["confirmed_rate"] >= fbase["min_confirmed_rate"],
         f"{forensic['confirmed_rate']:.0%} verdicts name a ground-truth "
         f"cable (floor {fbase['min_confirmed_rate']:.0%})"),
        ("forensic alert latency",
         forensic["mean_alert_latency_epochs"] is not None
         and forensic["mean_alert_latency_epochs"] <= fbase["max_alert_latency_epochs"],
         f"{forensic['mean_alert_latency_epochs']} epochs mean alert lag "
         f"(ceiling {fbase['max_alert_latency_epochs']}; None = no cases opened)"),
        ("forensic warm economics",
         forensic["warm_trigger_hit_rate"] >= fbase["min_warm_trigger_hit_rate"],
         f"{forensic['warm_trigger_hit_rate']:.0%} warm triggered-query "
         f"cache hits (floor {fbase['min_warm_trigger_hit_rate']:.0%}; "
         f"{forensic['warm_queries_submitted']} warm submissions)"),
        ("tracing overhead",
         obs["overhead_pct"] <= max_overhead,
         f"{obs['overhead_pct']:.1f}% traced vs null throughput "
         f"(ceiling {max_overhead}%)"),
        ("journal overhead",
         durability["journal_overhead_pct"] <= max_journal_tax,
         f"{durability['journal_overhead_pct']:+.1f}% journaled vs "
         f"unjournaled throughput, best of {durability['repeats']} "
         f"(ceiling {max_journal_tax}%)"),
        ("exactly-once resume",
         durability["resume_replayed"] == durability["jobs"]
         and durability["resume_reexecuted"] == 0,
         f"{durability['resume_replayed']}/{durability['jobs']} completions "
         f"re-joined from the journal, "
         f"{durability['resume_reexecuted']} re-executed (must be 0)"),
        ("resume artifact identity",
         bool(durability["resume_identical"]),
         str(durability["resume_identical"])),
        ("span completeness",
         obs["span_completeness"] >= obase["min_span_completeness"],
         f"{obs['span_completeness']:.0%} of process-backend jobs show the "
         f"full broker-to-worker span chain "
         f"(floor {obase['min_span_completeness']:.0%})"),
    ]
    if cores >= 2:
        checks.append((
            "process backend speedup",
            serve.get("process_speedup", 0.0) >= sbase["min_process_speedup"],
            f"{serve.get('process_speedup', 0.0):.2f}x "
            f"(floor {sbase['min_process_speedup']}x on {cores} cores)",
        ))
    else:
        print(f"  SKIP  process backend speedup: {cores} core available "
              "(no hardware parallelism to measure)")

    if not _gate(checks):
        print("regression gate FAILED", file=sys.stderr)
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
