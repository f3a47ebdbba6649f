"""Thread-CPU split of one cold live-forensics replay.

Runs one cold ``run_live_replay`` of ``overlapping_catalog_timeline(world,
count=3)`` on a fresh world 7 with ``LiveConfig(forensics=True)``, against
a thread-backend broker with one worker, and charges each layer the CPU of
the thread that ran it (``time.thread_time``):

* ``artifacts.digest`` — every ``PipelineResult.artifact_digest`` call;
* ``tool.<entry>`` — every ``ToolCatalog.call``;
* ``executor.glue`` — generated code outside tool calls (transforms and QA
  checks): each ``execute_solution`` minus the tool calls inside it;
* ``pipeline.answer`` — each job's whole answer, which holds the last two.

It also prints ``step_bytes``: the canonical-JSON bytes of each step id
(``StepRef.nbytes`` from ``execution.step_refs()``), summed over the
forensic results the replay digested, so a change to a step's size reads
as an exact count rather than a timing.

Wall-clock spans and profilers in the worker threads also count the time a
layer waits for the GIL while another thread runs; thread CPU does not, so
these shares can be compared between layers.  With one broker worker the
jobs run one at a time; the replay's own thread still runs beside them.

Prints one JSON object (seconds and calls per layer, step bytes, replay
wall and process CPU).  Not gated::

    PYTHONPATH=src python benchmarks/bench_replay_cpu.py
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core import pipeline
from repro.core.artifacts import PipelineResult
from repro.core.catalog import ToolCatalog
from repro.live import LiveConfig, overlapping_catalog_timeline, run_live_replay
from repro.serve import QueryBroker, ServeConfig
from repro.synth.world import WorldConfig, build_world


class CpuSplit:
    """Thread-CPU seconds and calls per layer, from any thread."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._frame = threading.local()  # tool CPU inside the running executor
        self.digested: dict[int, PipelineResult] = {}  # every result digested, by id

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1

    @contextmanager
    def installed(self):
        """Wrap the timed entry points; restore them on exit."""
        frame = self._frame
        call, digest = ToolCatalog.call, PipelineResult.artifact_digest
        execute, answer = pipeline.execute_solution, pipeline.ArachNet.answer

        def timed_call(catalog, entry_name, **kwargs):
            started = time.thread_time()
            try:
                return call(catalog, entry_name, **kwargs)
            finally:
                spent = time.thread_time() - started
                self.add("tool." + entry_name, spent)
                if getattr(frame, "tools", None) is not None:
                    frame.tools += spent

        def timed_execute(*args, **kwargs):
            frame.tools = 0.0
            started = time.thread_time()
            try:
                return execute(*args, **kwargs)
            finally:
                self.add("executor.glue", time.thread_time() - started - frame.tools)
                frame.tools = None

        def timed(name, method):
            def wrapper(*args, **kwargs):
                started = time.thread_time()
                try:
                    return method(*args, **kwargs)
                finally:
                    self.add(name, time.thread_time() - started)
            return wrapper

        timed_digest = timed("artifacts.digest", digest)

        def recorded_digest(result):
            self.digested.setdefault(id(result), result)
            return timed_digest(result)

        ToolCatalog.call = timed_call
        PipelineResult.artifact_digest = recorded_digest
        pipeline.execute_solution = timed_execute
        pipeline.ArachNet.answer = timed("pipeline.answer", answer)
        try:
            yield self
        finally:
            ToolCatalog.call, PipelineResult.artifact_digest = call, digest
            pipeline.execute_solution, pipeline.ArachNet.answer = execute, answer

    def summary(self) -> dict:
        return {name: {"thread_cpu_s": round(self.seconds[name], 3), "calls": self.calls[name]}
                for name in sorted(self.seconds)}

    def step_bytes(self) -> dict[str, int]:
        """Canonical-JSON bytes per step id over the digested results."""
        total: dict[str, int] = defaultdict(int)
        for result in self.digested.values():
            for step_id, ref in (result.execution.step_refs() or {}).items():
                total[step_id] += ref.nbytes
        return {step_id: total[step_id]
                for step_id in sorted(total, key=lambda sid: (len(sid), sid))}


def measure(world_seed: int = 7, incidents: int = 3) -> dict:
    """One cold replay on a fresh world and broker, split by thread CPU."""
    world = build_world(WorldConfig(seed=world_seed))
    timeline = overlapping_catalog_timeline(world, count=incidents)
    split = CpuSplit()
    broker = QueryBroker(world, config=ServeConfig(workers=1, backend="thread")).start()
    try:
        with split.installed():
            wall, cpu = time.perf_counter(), time.process_time()
            report = run_live_replay(world=world, timeline_events=timeline,
                                     config=LiveConfig(forensics=True),
                                     broker=broker)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        broker.shutdown()
    return {
        "benchmark": "replay_cpu",
        "world_seed": world_seed,
        "incidents": incidents,
        "broker_workers": 1,
        "replay_wall_s": round(wall, 3),
        "replay_process_cpu_s": round(cpu, 3),
        "verdicts": sorted((c["event_id"], c["verdict"]) for c in report.forensic_cases),
        "layers": split.summary(),
        "digested_results": len(split.digested),
        "step_bytes": split.step_bytes(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--world-seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.world_seed), indent=1))
    return 0


def test_replay_cpu_split():
    """Pytest entry point: the split covers every layer it names."""
    summary = measure()
    layers = summary["layers"]
    for name in ("artifacts.digest", "executor.glue", "pipeline.answer",
                 "tool.traceroute.run_campaign", "tool.traceroute.latency_series"):
        assert layers[name]["calls"] > 0, name
    inside = layers["executor.glue"]["thread_cpu_s"] + sum(
        layer["thread_cpu_s"] for name, layer in layers.items() if name.startswith("tool."))
    assert inside <= layers["pipeline.answer"]["thread_cpu_s"] + 0.05
    assert summary["verdicts"]
    assert summary["digested_results"] > 0
    for step_id in ("s1", "s2"):
        assert summary["step_bytes"].get(step_id, 0) > 0, step_id


if __name__ == "__main__":
    raise SystemExit(main())
