"""The crash flight recorder: a black box for the serve/live planes.

A chaos SIGKILL leaves almost nothing behind — the worker's last spans
were in its dying process, the broker's stats move on, and by the time a
human looks the interesting state is gone.  The
:class:`FlightRecorder` keeps a bounded ring of the most recent
observability traffic — tracer span records (teed in via
``Tracer.add_listener``), bus events (drained from bounded
``EventBus`` subscriptions), worker heartbeats, and free-form records
from the broker/backend — and on a trigger (worker crash, retry,
SIGKILL respawn, SLO page breach, or a manual ``/debug/flight`` poke)
atomically dumps a self-contained JSON postmortem: the ring, a full
registry snapshot, stats from every registered source, the git sha and
the serve config.  Dumps land next to the artifact cache so forensic
tooling finds them where the artifacts already live, and the dump path
is threaded into the serve plane's ``Job`` and the live plane's
``ForensicCase`` (their ``flight_dump`` field).

Stdlib-only and dependency-free like the rest of :mod:`repro.obs`; the
bus and stat sources are duck-typed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import threading
import time
from collections import deque

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-") or "dump"


def _detect_git_sha() -> str:
    """Best-effort short sha of the source tree this process imported."""
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        out = subprocess.run(
            ["git", "-C", here, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


class FlightRecorder:
    """Bounded ring of recent observability traffic + atomic postmortems.

    Thread-safe: spans arrive from the broker's collector thread, bus
    drains from the live driver, heartbeats from worker-pool claimers,
    and dumps from whichever plane saw the failure first.
    """

    def __init__(self, dump_dir: str = ".", capacity: int = 4096,
                 registry=None, config: dict | None = None,
                 git_sha: str | None = None, max_dumps: int = 16,
                 clock=time.time):
        self.dump_dir = dump_dir
        self.registry = registry
        self.config = dict(config) if config else {}
        self.git_sha = git_sha if git_sha is not None else _detect_git_sha()
        self.max_dumps = max_dumps
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._heartbeats: dict[str, dict] = {}
        self._sources: dict[str, object] = {}
        self._subscriptions: list[tuple[str, object]] = []
        self._dump_paths: deque[str] = deque()
        self._seq = 0
        self._records_total = 0
        self._lock = threading.Lock()
        self.last_dump_path: str | None = None

    # -- feeding the ring --------------------------------------------------

    def record(self, kind: str, data: dict | None = None) -> None:
        """Append one free-form entry (epoch ticks, crash notes, ...)."""
        entry = {"ts": self._clock(), "kind": kind, "data": data or {}}
        with self._lock:
            self._ring.append(entry)
            self._records_total += 1

    def ingest_spans(self, rows: list[dict]) -> None:
        """``Tracer.add_listener`` target: tee span records into the ring."""
        ts = self._clock()
        with self._lock:
            for row in rows:
                self._ring.append({"ts": ts, "kind": "span", "data": row})
                self._records_total += 1

    def heartbeat(self, name: str, **info) -> None:
        """Record that worker ``name`` was alive just now (claimer loop
        iterations broker-side, reply metadata for process workers)."""
        with self._lock:
            beat = self._heartbeats.get(name)
            if beat is None:
                beat = {"beats": 0}
                self._heartbeats[name] = beat
            beat["last_ts"] = self._clock()
            beat["beats"] += 1
            beat.update(info)

    def attach_bus(self, bus, topics) -> None:
        """Subscribe to ``topics`` on an EventBus; the bounded subscription
        rings buffer events until :meth:`poll` drains them into the ring."""
        for topic in topics:
            sub = bus.subscribe(topic, f"flight:{topic}", maxlen=512)
            with self._lock:
                self._subscriptions.append((topic, sub))

    def poll(self) -> int:
        """Drain attached bus subscriptions into the ring; returns the
        number of events absorbed.  Called per epoch and before dumps."""
        with self._lock:
            subscriptions = list(self._subscriptions)
        absorbed = 0
        for topic, sub in subscriptions:
            try:
                events = sub.drain()
            except Exception:
                continue
            ts = self._clock()
            with self._lock:
                for event in events:
                    self._ring.append(
                        {"ts": ts, "kind": f"bus:{topic}", "data": event}
                    )
                    self._records_total += 1
                    absorbed += 1
        return absorbed

    def add_source(self, name: str, fn) -> None:
        """Register a zero-arg stats callable snapshotted into every dump
        (``broker.stats``, ``scheduler.stats``, ...)."""
        with self._lock:
            self._sources[name] = fn

    def snapshot_sources(self) -> dict:
        with self._lock:
            sources = dict(self._sources)
        out = {}
        for name, fn in sources.items():
            try:
                out[name] = fn()
            except Exception as exc:  # a dying source must not kill the dump
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out

    # -- dumping -----------------------------------------------------------

    def dump(self, reason: str, extra: dict | None = None) -> str:
        """Write one self-contained postmortem JSON; returns its path.

        The write is atomic (tmp file + ``os.replace``) so a reader
        watching the directory never sees a torn document; old dumps are
        pruned beyond ``max_dumps``.
        """
        self.poll()
        with self._lock:
            self._seq += 1
            seq = self._seq
            records = list(self._ring)
            heartbeats = {k: dict(v) for k, v in self._heartbeats.items()}
        doc = {
            "reason": reason,
            "ts": self._clock(),
            "git_sha": self.git_sha,
            "pid": os.getpid(),
            "config": self.config,
            "records": records,
            "heartbeats": heartbeats,
            "sources": self.snapshot_sources(),
            "metrics": (self.registry.snapshot(refresh=True)
                        if self.registry is not None else None),
            "extra": extra or {},
        }
        os.makedirs(self.dump_dir, exist_ok=True)
        name = f"flight-{int(self._clock() * 1000)}-{seq:04d}-{_slug(reason)}.json"
        path = os.path.join(self.dump_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, default=str)
        os.replace(tmp, path)
        stale = []
        with self._lock:
            self._dump_paths.append(path)
            while len(self._dump_paths) > self.max_dumps:
                stale.append(self._dump_paths.popleft())
            self.last_dump_path = path
        for old in stale:
            try:
                os.remove(old)
            except OSError:
                pass
        return path

    def dump_paths(self) -> list[str]:
        with self._lock:
            return list(self._dump_paths)

    def stats(self) -> dict:
        with self._lock:
            return {
                "ring_size": len(self._ring),
                "ring_capacity": self._ring.maxlen,
                "records_total": self._records_total,
                "heartbeats": len(self._heartbeats),
                "sources": sorted(self._sources),
                "bus_topics": [t for t, _ in self._subscriptions],
                "dumps": len(self._dump_paths),
                "last_dump_path": self.last_dump_path,
                "dump_dir": self.dump_dir,
            }
