"""Shared plumbing: statistics, memory, set-up probes and the result line."""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (journals); removed by each workload.
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up phases every workload times, in order.  Their sum is one set-up.
SETUP_PHASES = ("import_s", "world_s", "broker_start_s", "warmup_s")
#: Fresh-interpreter set-ups run before the measured one; the reported
#: ``setup_s`` is the median over these plus the run's own set-up.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150
#: How long leftover children get to exit on their own before being killed.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


class CheckFailed(AssertionError):
    """A correctness check failed: the run reports no numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class RunOptions:
    workload: str
    seed: int
    world_seed: int
    seconds: float
    trace: bool


@dataclass
class Measurement:
    """What one timed loop produced: operation counts, the two gated
    figures (each workload defines them; see README.md), and the tables."""

    attempted: int = 0
    failed: int = 0
    latency_p50_s: float = 0.0
    throughput_per_s: float = 0.0
    #: Workload-native figures printed beside the gated metrics.
    native: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: Requests the per-layer figures are divided by, and their summed wall
    #: time (the base of the per-layer shares).
    requests: int = 0
    wall_s: float = 0.0
    #: Traced runs only: the span records, and per-layer figures the
    #: workload computes itself.
    rows: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Max resident set over this process and every reaped child (workers,
    set-up probes); ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Stopwatch:
    """Accumulates named phase durations."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self._last = time.perf_counter()

    def restart(self) -> None:
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = self.phases.get(name, 0.0) + (now - self._last)
        self._last = now


def run_setup_probes(opts: RunOptions, count: int = SETUP_PROBES) -> list[dict]:
    """Set the workload up ``count`` times, each in a fresh interpreter, and
    return each probe's phase timings.  Runs before the measured set-up so
    no probe overlaps a timed request."""
    samples = []
    for _ in range(count):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
               "--workload", opts.workload, "--seed", str(opts.seed),
               "--world-seed", str(opts.world_seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_summary(samples: list[dict]) -> dict[str, float]:
    """Median of each phase and of the per-sample totals."""
    out = {phase: median(s[phase] for s in samples) for phase in SETUP_PHASES}
    out["total_s"] = median(sum(s[p] for p in SETUP_PHASES) for s in samples)
    return out


def become_subreaper() -> None:
    """Make orphaned descendants reparent to this process instead of init.

    A forked worker that creates a shared-memory segment starts its own
    ``multiprocessing`` resource tracker; the tracker outlives the worker by
    a moment and is then nobody's child.  As a subreaper this process
    inherits it (and anything a killed set-up probe leaves), so
    :func:`reap_children` can wait for it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to inherit
        pass


def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop this process's resource tracker, then wait for every child,
    inherited ones included; whatever is still alive after
    ``REAP_GRACE_S`` is killed and waited for too."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"  {title}")
    for row in rows:
        name, value, unit, *rest = row
        note = f"  {rest[0]}" if rest else ""
        print(f"    {name:<44} {value:>14.6g} {unit:<8}{note}")
