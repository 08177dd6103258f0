"""Stdlib JSON endpoint in front of a :class:`ModelServer`.

No web framework — ``http.server.ThreadingHTTPServer`` is enough: each
connection gets a handler thread that blocks on the batcher future,
which is exactly the concurrency shape dynamic batching wants (many
waiting clients, one worker coalescing them).

Routes
------
- ``POST /predict`` — body ``{"input": [[..C,H,W..]]}`` (one image) or
  ``{"inputs": [image, ...]}`` (each image submitted separately, so a
  multi-image request coalesces with everyone else's traffic), plus an
  optional ``"model"`` name when more than one model is served.
- ``POST /models`` — hot model lifecycle: add (or, with
  ``"reload": true``, atomically replace) a model from the registry or
  a bundle; compiles and warms off the serving path.
- ``DELETE /models/<name>`` — unregister a model, draining accepted
  requests before teardown.
- ``GET /stats`` — per-model :meth:`ServerStats.snapshot` JSON.
- ``GET /metrics`` — the same counters in Prometheus text format
  (scraper-ready: shed counters, queue depth, latency buckets).
- ``GET /incidents`` — the bounded incident log of residency
  transitions (demotions, promotions, evictions, over-budget).
- ``GET /models`` — the served-model registry, one row per tenant with
  its residency state (``resident``/``demoted``/``evicted``), charged
  bytes, fair-share weight and demotion/promotion/eviction counters.
- ``GET /healthz`` — liveness probe: ``{"status": "ok", "models":
  [...]}``.

Error contract
--------------
Every non-200 body is ``{"error": {"kind": ..., "message": ...}}`` so
clients can branch on a stable machine-readable ``kind`` instead of
parsing prose:

- ``400 bad_request`` — malformed body or wrong image shape.
- ``404 not_found`` — unknown route or model.
- ``409 conflict`` — ``POST /models`` on an existing name without
  ``"reload": true``.
- ``429 queue_full`` — admission control shed the request; the
  ``Retry-After`` header (seconds) is derived from the queue's current
  drain rate.
- ``429 quota_exceeded`` — the tenant is over its per-model rate quota;
  ``Retry-After`` is when the token bucket earns the next token back.
- ``503 slo_expired | batcher_closed`` — the request was accepted but
  could not be served within its SLO / the endpoint is shutting down.
- ``504 timeout`` — the server-side ``request_timeout`` expired first.
- ``500 internal`` — anything else (a bug, by definition).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import numpy as np

from .errors import classify_error
from .metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .metrics import render_metrics
from .server import ModelServer

__all__ = ["ServingHTTPServer", "serve_http"]

#: Reject absurd request bodies before json.loads allocates for them.
MAX_BODY_BYTES = 256 * 2**20


class _Handler(BaseHTTPRequestHandler):
    server: "ServingHTTPServer"

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, payload: dict, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        kind: str,
        message: str,
        headers: Optional[dict] = None,
    ) -> None:
        """Structured error body: clients branch on ``error.kind``."""
        self._reply(
            status, {"error": {"kind": kind, "message": message}}, headers
        )

    def _serving_error(self, error: BaseException) -> None:
        """Render a submit/result exception per the shared error contract.

        The status/kind/Retry-After mapping lives in
        :func:`~repro.serving.errors.classify_error` so the streaming
        transport's ERROR frames agree with these responses by
        construction.
        """
        info = classify_error(error, request_timeout=self.server.request_timeout)
        headers = None
        if info.retry_after is not None:
            headers = {"Retry-After": str(info.retry_after)}
        self._error(info.status, info.kind, info.message, headers=headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        model_server = self.server.model_server
        if self.path == "/stats":
            self._reply(200, model_server.stats())
        elif self.path == "/metrics":
            self._reply_text(
                200, render_metrics(model_server), METRICS_CONTENT_TYPE
            )
        elif self.path == "/incidents":
            self._reply(200, model_server.incidents.snapshot())
        elif self.path == "/models":
            self._reply(200, model_server.describe_models())
        elif self.path == "/healthz":
            self._reply(
                200, {"status": "ok", "models": sorted(model_server.models)}
            )
        else:
            self._error(404, "not_found", f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/predict":
            self._post_predict()
        elif self.path == "/models":
            self._post_models()
        else:
            self._error(404, "not_found", f"unknown path {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        if not self.path.startswith("/models/"):
            self._error(404, "not_found", f"unknown path {self.path!r}")
            return
        name = self.path[len("/models/"):]
        model_server = self.server.model_server
        try:
            model_server.remove_model(name)
        except KeyError as error:
            self._error(404, "not_found", str(error))
            return
        self._reply(200, {"removed": name, "models": sorted(model_server.models)})

    # -- route bodies --------------------------------------------------
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0 or length > MAX_BODY_BYTES:
            raise ValueError(f"bad Content-Length {length}")
        request = json.loads(self.rfile.read(length))
        if not isinstance(request, dict):
            raise ValueError("request body must be a JSON object")
        return request

    def _post_predict(self) -> None:
        try:
            request = self._read_json()
            if "input" in request:
                images = [request["input"]]
            elif "inputs" in request:
                images = list(request["inputs"])
                if not images:
                    raise ValueError("'inputs' must hold at least one image")
            else:
                raise ValueError("request needs an 'input' or 'inputs' field")
            name = request.get("model")
        except (ValueError, TypeError, json.JSONDecodeError) as error:
            self._error(400, "bad_request", str(error))
            return
        model_server = self.server.model_server
        try:
            resolved = model_server.get(name)
        except KeyError as error:
            self._error(404, "not_found", str(error))
            return
        try:
            # Validate every image before submitting any, so a bad one
            # rejects the whole request without burning model forwards
            # on its valid siblings.
            arrays = [resolved.validate(np.asarray(img)) for img in images]
        except (ValueError, TypeError) as error:
            self._error(400, "bad_request", str(error))
            return
        try:
            # Submit everything first so a multi-image request coalesces
            # into shared flushes, then wait.
            futures = [resolved.batcher.submit(array) for array in arrays]
            outputs = [f.result(timeout=self.server.request_timeout) for f in futures]
        except Exception as error:  # noqa: BLE001 - mapped to the contract
            self._serving_error(error)
            return
        self._reply(
            200,
            {
                "model": resolved.name,
                "outputs": np.stack(outputs).tolist(),
            },
        )

    def _post_models(self) -> None:
        """Hot add/reload: compile+warm off-path, then atomic swap.

        Body: ``{"model": <registry name>}`` plus optional ``"name"``
        (serving alias), ``"n"``/``"patterns"`` (PCNN pruning setting),
        ``"seed"``, ``"bundle"`` (serve a DeploymentBundle ``.npz``
        instead of registry weights), ``"weight"``/``"rate"`` (the
        tenant's fair-share weight and rate quota in req/s) and
        ``"reload": true`` to replace an existing registration (without
        it, a collision is a 409).
        """
        try:
            request = self._read_json()
            model_name = request.get("model")
            if not isinstance(model_name, str) or not model_name:
                raise ValueError("request needs a 'model' registry name")
            reload_flag = bool(request.get("reload", False))
            rate = request.get("rate")
            tenant_kwargs = {
                "weight": float(request.get("weight", 1.0)),
                "rate": None if rate is None else float(rate),
            }
        except (ValueError, TypeError, json.JSONDecodeError) as error:
            self._error(400, "bad_request", str(error))
            return
        model_server = self.server.model_server
        try:
            if request.get("bundle"):
                served = model_server.load_bundle(
                    str(request["bundle"]),
                    model_name,
                    name=request.get("name"),
                    seed=int(request.get("seed", 0)),
                    replace=reload_flag,
                    warm=True,
                    **tenant_kwargs,
                )
            else:
                n = request.get("n")
                patterns = request.get("patterns")
                served = model_server.load_registry(
                    model_name,
                    name=request.get("name"),
                    n=None if n is None else int(n),
                    patterns=None if patterns is None else int(patterns),
                    seed=int(request.get("seed", 0)),
                    replace=reload_flag,
                    warm=True,
                    **tenant_kwargs,
                )
        except KeyError as error:
            # add_model raises KeyError both for "already registered"
            # (conflict) and unknown registry names (not found).
            message = str(error)
            if "already registered" in message:
                self._error(409, "conflict", message)
            else:
                self._error(404, "not_found", message)
            return
        except (ValueError, TypeError, FileNotFoundError) as error:
            self._error(400, "bad_request", str(error))
            return
        except Exception as error:  # noqa: BLE001 - surfaced as 500
            self._error(500, "internal", f"{type(error).__name__}: {error}")
            return
        self._reply(
            200,
            {
                **served.describe(),
                "name": served.name,
                "reloaded": reload_flag,
            },
        )


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP front-end bound to a :class:`ModelServer`.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as ``server_address`` afterwards.
    """

    daemon_threads = True
    #: Deep accept backlog: an overload burst must reach admission
    #: control (429 + Retry-After) rather than die as kernel-level
    #: connection resets on the default 5-entry listen queue.
    request_queue_size = 128

    def __init__(
        self,
        model_server: ModelServer,
        host: str = "127.0.0.1",
        port: int = 8100,
        *,
        request_timeout: Optional[float] = 60.0,
        verbose: bool = False,
    ) -> None:
        self.model_server = model_server
        self.request_timeout = request_timeout
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        """``http://host:port`` of the bound socket (ephemeral-safe)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (in-process serving)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        thread.start()
        return thread


def serve_http(
    model_server: ModelServer,
    host: str = "127.0.0.1",
    port: int = 8100,
    **kwargs,
) -> ServingHTTPServer:
    """Start batchers + HTTP server; returns the (running) HTTP server."""
    model_server.start()
    httpd = ServingHTTPServer(model_server, host, port, **kwargs)
    httpd.serve_in_background()
    return httpd
