"""repro.serving — dynamic-batching model serving on the compiled pipeline.

The layer that turns ``runtime.predict`` into a service:

- :class:`Batcher` — queues single-image requests and coalesces them
  into micro-batches under a ``max_batch`` / ``max_latency_ms`` policy
  (power-of-two flush buckets keep the compiled pipeline's plan/arena
  geometry set small and warmable). Bounded queues shed overload with
  :class:`QueueFull` (HTTP 429 + ``Retry-After``), SLO deadlines shed
  stale requests with :class:`SLOExpired` (HTTP 503), and a stopped
  batcher rejects submits with :class:`BatcherClosed`.
- :class:`ModelServer` — multi-model registry: load by model-registry
  name (optionally PCNN-pruned) or from a ``DeploymentBundle`` ``.npz``
  (restore attaches SPM encodings, so pruned convs serve through the
  pattern path), compile once, warm every bucket at startup. Entries
  hot-swap (``add_model(replace=True)`` / ``remove_model``) without
  dropping accepted requests.
- :class:`IncidentLog` — the bounded log behind ``GET /incidents``,
  where residency transitions land.
- :class:`FlushScheduler` — central deficit-weighted round-robin
  dispatcher over every tenant's batcher (per-model ``weight=``), SLO
  deadlines first; under saturation throughput tracks the weights.
- :class:`ResidencyManager` — LRU demotion/eviction of cold tenants'
  reclaimable working sets under ``ModelServer(memory_budget_mb=)``,
  with a byte ledger on ``/stats``/``/models``/``/metrics``; requests
  landing on a cold tenant re-promote it warm (never a recompile).
  Per-tenant ``rate=`` quotas shed over-contract traffic with
  :class:`QuotaExceeded` (HTTP 429 kind ``quota_exceeded``).
- :class:`ServerStats` — p50/p95/p99 latency, queue depth, coalesced
  batch-size histogram and throughput, exposed at ``/stats``;
  :func:`render_metrics` renders the same counters (plus residency,
  scheduler and stream state) in Prometheus text format for
  ``GET /metrics``.
- :class:`ServingHTTPServer` / :func:`serve_http` — stdlib JSON
  endpoint; ``pcnn-repro serve`` is the CLI wrapper.
- :class:`StreamServer` / :class:`StreamClient` — persistent-connection
  binary protocol (:mod:`repro.serving.wire`): length-prefixed tensor
  frames with CRC32, out-of-order completion by request id, typed ERROR
  frames on the same :func:`classify_error` contract as HTTP, and a
  per-stream delta cache answering near-duplicate frames without
  touching the batcher; ``pcnn-repro serve --stream-port`` exposes it.
"""

from .batcher import (
    Batcher,
    BatcherClosed,
    QueueFull,
    QuotaExceeded,
    SLOExpired,
    bucket_sizes,
)
from .errors import ServingError, classify_error, retry_after_seconds
from .http import ServingHTTPServer, serve_http
from .incidents import Incident, IncidentLog
from .metrics import render_metrics
from .residency import DEMOTED, EVICTED, RESIDENT, ResidencyManager
from .scheduler import FlushScheduler
from .server import ModelServer, ServedModel
from .stats import LATENCY_BUCKETS, ServerStats
from .stream import (
    DEFAULT_DELTA_THRESHOLD,
    StreamClient,
    StreamResult,
    StreamServer,
)
from .wire import Frame, FrameError, FrameReader, WireError

__all__ = [
    "Batcher",
    "BatcherClosed",
    "QueueFull",
    "QuotaExceeded",
    "SLOExpired",
    "bucket_sizes",
    "ModelServer",
    "ServedModel",
    "ServerStats",
    "LATENCY_BUCKETS",
    "FlushScheduler",
    "ResidencyManager",
    "RESIDENT",
    "DEMOTED",
    "EVICTED",
    "Incident",
    "IncidentLog",
    "render_metrics",
    "ServingHTTPServer",
    "serve_http",
    "ServingError",
    "classify_error",
    "retry_after_seconds",
    "StreamServer",
    "StreamClient",
    "StreamResult",
    "DEFAULT_DELTA_THRESHOLD",
    "Frame",
    "FrameError",
    "FrameReader",
    "WireError",
]
