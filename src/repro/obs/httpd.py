"""Live introspection endpoint: the service's own front door.

SONoMA's argument (PAPERS.md) is that a measurement service should
expose its health and state as a network interface, not a log file.
:class:`ObsServer` is a background ``http.server`` thread (opt-in via
``--obs-port``) that serves, while a replay or campaign is running:

==================  ====================================================
``/metrics``        Prometheus text exposition of the whole registry
``/healthz``        aggregate SLO verdict (JSON); **non-200 on breach**
``/debug/flight``   trigger a flight-recorder dump and return it inline
``/debug/broker``   ``broker.stats()`` — scheduler depths, backend
                    respawns and dispatch counts, per-band counters — as
                    JSON
``/debug/deadletter``  the poison-job dead-letter queue: every
                    quarantined (world, query) signature with its crash
                    history, as JSON
==================  ====================================================

``/healthz`` evaluates the SLO engine on demand, so a breach is visible
within one scrape even between the driver's per-epoch evaluations, and
a plain ``curl`` doubles as the liveness probe.  Components are all
optional and duck-typed; whatever is absent answers 404/503 rather than
failing to start.  Port 0 binds an ephemeral port (tests); the bound
port is published as ``server.port`` after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObsServer:
    """Background introspection HTTP server over obs components."""

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 registry=None, health=None, flight=None, broker=None):
        self.host = host
        self.port = port
        self.registry = registry
        self.health = health
        self.flight = flight
        self.broker = broker
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ObsServer":
        if self._server is not None:
            return self
        handler = _build_handler(self)
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="obs-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- endpoint bodies (return (status, content_type, payload bytes)) ----

    def _metrics(self) -> tuple[int, str, bytes]:
        if self.registry is None:
            return 404, "application/json", _json_bytes(
                {"error": "no metrics registry attached"})
        text = self.registry.prometheus_text(refresh=True)
        return 200, _PROM_CONTENT_TYPE, text.encode("utf-8")

    def _healthz(self) -> tuple[int, str, bytes]:
        if self.health is None:
            return 200, "application/json", _json_bytes(
                {"healthy": True, "engine": False, "slos": []})
        self.health.evaluate()
        verdict = self.health.verdict()
        verdict["engine"] = True
        status = 200 if verdict["healthy"] else 503
        return status, "application/json", _json_bytes(verdict)

    def _debug_flight(self) -> tuple[int, str, bytes]:
        if self.flight is None:
            return 503, "application/json", _json_bytes(
                {"error": "no flight recorder attached"})
        path = self.flight.dump("debug_http")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        return 200, "application/json", _json_bytes(
            {"path": path, "dump": doc})

    def _debug_broker(self) -> tuple[int, str, bytes]:
        if self.broker is None:
            return 503, "application/json", _json_bytes(
                {"error": "no broker attached"})
        return 200, "application/json", _json_bytes(self.broker.stats())

    def _debug_deadletter(self) -> tuple[int, str, bytes]:
        deadletter = getattr(self.broker, "deadletter", None)
        if deadletter is None:
            return 503, "application/json", _json_bytes(
                {"error": "no broker with a dead-letter queue attached"})
        return 200, "application/json", _json_bytes({
            "depth": deadletter.depth,
            "entries": deadletter.entries(),
        })

    def _route(self, path: str) -> tuple[int, str, bytes]:
        self.requests_served += 1
        handlers = {
            "/metrics": self._metrics,
            "/healthz": self._healthz,
            "/debug/flight": self._debug_flight,
            "/debug/broker": self._debug_broker,
            "/debug/deadletter": self._debug_deadletter,
        }
        handler = handlers.get(path.rstrip("/") or "/")
        if handler is None:
            return 404, "application/json", _json_bytes(
                {"error": f"unknown path {path!r}",
                 "endpoints": sorted(handlers)})
        try:
            return handler()
        except Exception as exc:  # introspection must never kill the run
            return 500, "application/json", _json_bytes(
                {"error": f"{type(exc).__name__}: {exc}"})


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8")


def _build_handler(server: ObsServer):
    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            status, content_type, body = server._route(self.path.split("?")[0])
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # keep stderr clean
            pass

    return _Handler
