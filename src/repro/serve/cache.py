"""Content-addressed artifact cache for deterministic pipeline stages.

Repeated or similar queries share work: two researchers asking about the
same cable produce byte-identical ``ProblemAnalysis`` → ``WorkflowDesign``
→ ``GeneratedSolution`` chains, so only the first submission pays for the
agent calls.  Keys are content hashes over everything a stage's output is
a function of — the stage name, its input artifacts, the world's data
context and the registry fingerprint — which makes invalidation automatic:
evolve the registry (or point at a different world) and the key changes.

The cache stores artifacts as canonical JSON text, not live objects, so a
hit reconstructs a fresh artifact and mutation by one job can never leak
into another.

Lookups count into a :class:`~repro.obs.MetricsRegistry` under a
``scope`` label: ``broker`` for the broker-wide cache, ``workers`` for
worker processes' caches, whose counts arrive as drained deltas.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict

from repro.obs import MetricsRegistry


#: File name used inside a ``--cache-dir`` directory by every serve/live mode.
CACHE_FILE_NAME = "artifact_cache.json"


def cache_file_path(cache_dir: str) -> str:
    """The spill file for a cache directory (created on demand)."""
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, CACHE_FILE_NAME)


def content_key(stage: str, material: dict) -> str:
    """Hash (stage, canonical-JSON material) to a stable hex key."""
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(f"{stage}\x00{canonical}".encode("utf-8")).hexdigest()
    return f"{stage}:{digest[:32]}"


def cache_counts(metrics: MetricsRegistry, scope: str) -> dict:
    """One cache scope's lookup totals, overall and per stage, read from
    the registry's ``cache_lookups_total`` / ``cache_evictions_total``."""
    per_stage: dict[str, dict[str, int]] = {}
    for pairs, value in metrics.values("cache_lookups_total").items():
        labels = dict(pairs)
        if labels["scope"] == scope:
            stage = per_stage.setdefault(labels["stage"], {"hits": 0, "misses": 0})
            stage["hits" if labels["result"] == "hit" else "misses"] += int(value)
    hits = sum(s["hits"] for s in per_stage.values())
    misses = sum(s["misses"] for s in per_stage.values())
    return {"hits": hits, "misses": misses,
            "evictions": int(metrics.total("cache_evictions_total", {"scope": scope})),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "per_stage": per_stage}


def export_hit_rate(metrics: MetricsRegistry, scope: str) -> None:
    """``cache_hit_rate{scope}``, derived from the scope's lookups on read."""
    metrics.gauge("cache_hit_rate", {"scope": scope}).set_function(
        lambda: cache_counts(metrics, scope)["hit_rate"])


class ArtifactCache:
    """Thread-safe LRU store of serialized stage artifacts.

    Implements the two-method protocol :class:`repro.core.pipeline.ArachNet`
    expects of its ``cache`` field: ``fetch`` returns the deserialized
    payload dict (or ``None``) and ``store`` records one.  Lookups and
    evictions count into ``metrics`` (a private registry when none is
    given) under ``scope``.
    """

    def __init__(self, max_entries: int = 4096,
                 metrics: MetricsRegistry | None = None,
                 scope: str = "broker"):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scope = scope
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        labels = {"scope": scope}
        self._evictions = self.metrics.counter("cache_evictions_total", labels)
        self.metrics.gauge("cache_entries", labels).set_function(self.__len__)
        export_hit_rate(self.metrics, scope)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fetch(self, stage: str, material: dict) -> dict | None:
        key = content_key(stage, material)
        with self._lock:
            text = self._entries.get(key)
            if text is not None:
                self._entries.move_to_end(key)
        result = "miss" if text is None else "hit"
        self.metrics.counter("cache_lookups_total", {
            "scope": self.scope, "stage": stage, "result": result}).inc()
        return None if text is None else json.loads(text)

    def store(self, stage: str, material: dict, payload: dict) -> str:
        key = content_key(stage, material)
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._entries[key] = text
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
        return key

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- persistence -------------------------------------------------------

    def spill(self, path: str) -> int:
        """Write the store to ``path`` as canonical JSON; returns entry count.

        The file preserves LRU order (least recently used first) so a later
        :meth:`load` reconstructs the same eviction order.  The write is
        crash-atomic: the document is fsync'd to a sidecar before the
        ``os.replace``, so even a power cut mid-spill leaves either the old
        complete file or the new complete file — never a half-written cache
        for the next broker to trip over.
        """
        with self._lock:
            snapshot = {key: json.loads(text) for key, text in self._entries.items()}
        document = {"version": 1, "entries": snapshot}
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=False, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        try:
            dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        except OSError:
            return len(snapshot)
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
        return len(snapshot)

    def load(self, path: str) -> int:
        """Merge entries from a spilled file; returns how many were loaded.

        Loaded entries slot in as *older* than anything already cached (they
        re-enter in file order, then existing entries keep their recency), and
        the LRU bound still applies — loading a file bigger than
        ``max_entries`` keeps only the most recently used tail.
        """
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        version = document.get("version")
        if version != 1:
            raise ValueError(f"unsupported cache file version {version!r}")
        entries = document["entries"]
        with self._lock:
            live = self._entries
            self._entries = OrderedDict()
            for key, payload in entries.items():
                self._entries[key] = json.dumps(payload, sort_keys=True)
            for key, text in live.items():
                self._entries[key] = text
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
        return len(entries)

    def stats(self) -> dict:
        """Size plus this scope's cumulative lookup counts."""
        return {"entries": len(self), "max_entries": self.max_entries,
                **cache_counts(self.metrics, self.scope)}
