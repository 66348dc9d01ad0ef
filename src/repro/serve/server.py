"""JSON-over-HTTP skin of the compile service (``repro serve``).

Endpoints (all JSON in, JSON out):

* ``POST /compile`` — body ``{"circuit": <text>, "format":
  "qasm"|"qc"|"real", "device": <name>, "name": <label>, "options":
  {...compile options...}}``; append ``?profile=1`` to record per-stage
  tracer spans into the response.  Answers the full
  :class:`~repro.compiler.CompilationResult` payload (the v5 batch
  serialization) plus ``from_cache``/``seconds``.
* ``GET /healthz`` — cheap liveness probe (no disk I/O).
* ``GET /metrics`` — merged metrics registry + shared-cache counters,
  each as lifetime totals *and* an honest per-scrape delta.

Status codes: 400 malformed request, 404 unknown path, 405 wrong
method, 413 oversized body, 422 not synthesizable for the target, 429
admission queue full (bounded — overload is rejected, not buffered),
500 internal pipeline failure.

Lifecycle: ``SIGTERM`` and ``Ctrl-C`` stop the accept loop, *drain*
every queued and in-flight request to completion, then exit — 0 for
SIGTERM, 130 for SIGINT (the CLI's interrupted-exit convention).
"""

from __future__ import annotations

import json
import signal
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.exceptions import NotSynthesizableError, ReproError
from .service import CompileService, QueueFullError, RequestError, ServeConfig

__all__ = ["CompileServer", "MAX_BODY_BYTES", "run_server"]

#: Largest accepted ``POST /compile`` body (circuit text is small; this
#: bound keeps a hostile client from ballooning the process).
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; the owning server carries the service."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    #: Socket timeout while waiting for the next request line on a
    #: keep-alive connection — bounds how long an *idle* connection can
    #: delay a drain (active compiles are unaffected; the handler is
    #: blocked on the service, not the socket).
    timeout = 10.0
    #: Set TCP_NODELAY: a response leaves as a headers write and a body
    #: write, and with Nagle's algorithm the body of every response on a
    #: kept-alive connection waits for the client's delayed ACK.
    disable_nagle_algorithm = True
    server: "CompileServer"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self, status: int, document: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(document).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, error_type: str, message: str,
        headers: Optional[Dict[str, str]] = None,
        **extra: Any,
    ) -> None:
        self._send_json(
            status,
            {
                "ok": False,
                "error": {"type": error_type, "message": message, **extra},
            },
            headers,
        )

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:
        path = urlsplit(self.path).path
        service = self.server.service
        if path == "/healthz":
            self._send_json(200, service.healthz())
        elif path == "/metrics":
            self._send_json(200, service.metrics_scrape())
        elif path == "/compile":
            self._error(405, "MethodNotAllowed", "POST /compile")
        else:
            self._error(404, "NotFound", f"no route {path!r}")

    def do_POST(self) -> None:
        parts = urlsplit(self.path)
        if parts.path != "/compile":
            self._error(404, "NotFound", f"no route {parts.path!r}")
            return
        query = parse_qs(parts.query)
        profile = query.get("profile", ["0"])[-1] in ("1", "true", "yes")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, "BadRequest", "missing/invalid Content-Length")
            return
        if length > MAX_BODY_BYTES:
            self._error(
                413, "PayloadTooLarge",
                f"body exceeds {MAX_BODY_BYTES} bytes",
            )
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, UnicodeDecodeError):
            self._error(400, "BadRequest", "body is not valid JSON")
            return

        service = self.server.service
        try:
            response = service.compile_request(payload, profile=profile)
        except QueueFullError as error:
            self._error(
                429, "QueueFull", str(error), headers={"Retry-After": "1"}
            )
        except RequestError as error:
            self._error(400, "BadRequest", str(error))
        except NotSynthesizableError as error:
            self._error(
                422, "NotSynthesizable", str(error), not_synthesizable=True
            )
        except ReproError as error:
            self._error(500, type(error).__name__, str(error))
        except Exception as error:  # pipeline bug: report, keep serving
            self._error(500, type(error).__name__, str(error))
        else:
            self._send_json(200, response)


class CompileServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`CompileService`.

    Handler threads are non-daemon and joined on :meth:`server_close`,
    so a drain provably finishes writing every in-flight response
    before the process exits.
    """

    daemon_threads = False
    block_on_close = True
    #: Accept backlog; beyond this the kernel refuses, which is the
    #: outermost overload bound in front of the admission queue.
    request_queue_size = 64

    def __init__(
        self,
        address: Tuple[str, int],
        service: CompileService,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])


def run_server(
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 8400,
    verbose: bool = True,
    announce: bool = True,
    ready: Optional[threading.Event] = None,
) -> int:
    """Run the daemon until ``SIGTERM``/``SIGINT``; returns the exit
    code (0 after a SIGTERM drain, 130 after Ctrl-C — both drain).

    ``port=0`` binds an ephemeral port; the announce line (printed to
    stdout and flushed) carries the bound address so wrappers and the
    CI smoke can discover it.
    """
    service = CompileService(config)
    server = CompileServer((host, port), service, verbose=verbose)
    stop = threading.Event()
    received: Dict[str, int] = {}

    def _on_signal(signum: int, frame: Optional[types.FrameType]) -> None:
        received.setdefault("signum", signum)
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    loop = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-serve-accept",
    )
    try:
        if announce:
            print(
                f"repro serve: listening on http://{host}:{server.port} "
                f"(workers={service.workers}, "
                f"queue_depth={service.config.queue_depth}, "
                f"cache_dir={service.config.cache_dir or 'memory-only'})",
                flush=True,
            )
        loop.start()
        if ready is not None:
            ready.set()
        stop.wait()
        server.shutdown()          # stop accepting new connections
        service.drain()            # finish queued + in-flight compiles
        loop.join()
        server.server_close()      # join handler threads, close socket
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    signum = received.get("signum")
    if announce:
        stats = service.server_stats()
        print(
            "repro serve: drained "
            f"({stats['requests_total']} requests, "
            f"{stats['compiled_total']} compiled, "
            f"{stats['cache_hits_total']} cache hits, "
            f"{stats['rejected_total']} rejected)",
            flush=True,
        )
    return 130 if signum == signal.SIGINT else 0
