"""Zero-copy artifact transport between worker processes and the broker.

A finished :class:`~repro.core.artifacts.PipelineResult` can be far larger
than an OS pipe buffer, and ``multiprocessing`` queues move it as an
in-band pickle: chunked pipe writes, reader wakeups and a full copy on
each side.  This module moves large payloads out of band instead:

* the producer pickles with **protocol 5**, capturing any
  :class:`pickle.PickleBuffer` blocks (bytes/bytearray-backed artifact
  data) separately from the object graph;
* when the total size reaches :data:`DEFAULT_SHM_MIN_BYTES` the body and
  buffers are written once into a
  :class:`multiprocessing.shared_memory.SharedMemory` segment and only the
  segment *name* travels through the queue;
* the consumer maps the segment and unpickles straight out of the mapping
  (``pickle.loads`` over memoryviews — the out-of-band buffers are never
  re-copied through a pipe), then closes and unlinks it.

Ownership is a strict hand-off: the producer unregisters the segment from
its own resource tracker (it will never unlink it), so exactly one side —
the consumer, or :func:`release` during shutdown drains — is responsible
for the unlink.  Tests assert ``/dev/shm`` holds no ``an-*`` segments
after a campaign and after backend shutdown.
"""

from __future__ import annotations

import itertools
import os
import pickle

try:  # pragma: no cover - absent only on exotic builds
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: Prefix for every segment this module creates; tests glob /dev/shm for it.
SEGMENT_PREFIX = "an"

#: Below this many bytes the pickle travels in-band through the queue —
#: a pipe write is cheaper than a segment create/map/unlink round trip.
#: Above it, shared memory keeps peak RSS down (see README, "Process
#: backend").  Read at every :func:`encode` call, so tests patch it
#: (before workers fork) to force either path.
DEFAULT_SHM_MIN_BYTES = 64 * 1024

_SEQ = itertools.count(1)


def shm_available() -> bool:
    return shared_memory is not None


def _unregister_from_tracker(shm) -> None:
    """The producer never unlinks; stop its resource tracker from warning
    about (or worse, reaping) a segment the consumer still owns."""
    try:  # pragma: no cover - tracker internals vary across minor versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def encode(obj) -> tuple:
    """Pickle ``obj`` (protocol 5, out-of-band buffers) into a queue-safe
    message: ``("inline", body, buffers)`` or ``("shm", name, body_len,
    buffer_lens)``."""
    raw_buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(obj, protocol=5, buffer_callback=raw_buffers.append)
    buffers = []
    for buf in raw_buffers:
        try:
            buffers.append(buf.raw())
        except BufferError:  # non-contiguous: fall back to a flat copy
            buffers.append(memoryview(bytes(buf)))
    total = len(body) + sum(len(b) * b.itemsize for b in buffers)
    if shared_memory is None or total < DEFAULT_SHM_MIN_BYTES:
        return ("inline", body, [bytes(b) for b in buffers])
    segment = shared_memory.SharedMemory(
        create=True, size=max(total, 1), name=f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEQ)}"
    )
    offset = 0
    view = segment.buf
    view[offset:offset + len(body)] = body
    offset += len(body)
    buffer_lens = []
    for buf in buffers:
        flat = buf.cast("B") if buf.format != "B" else buf
        n = len(flat)
        view[offset:offset + n] = flat
        offset += n
        buffer_lens.append(n)
    del view
    name = segment.name
    _unregister_from_tracker(segment)
    segment.close()
    return ("shm", name, len(body), buffer_lens)


def decode(message: tuple):
    """Rebuild the object from :func:`encode`'s message; shared-memory
    segments are unlinked here — decoding consumes the payload."""
    kind = message[0]
    if kind == "inline":
        _, body, buffers = message
        return pickle.loads(body, buffers=buffers)
    if kind != "shm":
        raise ValueError(f"unknown transport message kind {kind!r}")
    _, name, body_len, buffer_lens = message
    segment = shared_memory.SharedMemory(name=name)
    try:
        view = segment.buf
        offset = body_len
        buffers = []
        for n in buffer_lens:
            buffers.append(view[offset:offset + n])
            offset += n
        obj = pickle.loads(view[:body_len], buffers=buffers)
        # Plain-python artifacts copy out of the buffers during loads;
        # drop every exported view before closing or mmap raises BufferError.
        del buffers, view
        return obj
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass


def release(message: tuple) -> None:
    """Unlink a still-undecoded message's segment (shutdown drains)."""
    if message and message[0] == "shm" and shared_memory is not None:
        try:
            segment = shared_memory.SharedMemory(name=message[1])
        except FileNotFoundError:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
