"""Prometheus text-format exposition for ``GET /metrics``.

``/stats`` is for humans (nested JSON, rounded numbers, windows);
``/metrics`` is for machines. This module renders the serving counters
in the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` sample per
line — using only the standard library, so any Prometheus-compatible
scraper can alert on shed rate, queue depth, residency churn and
latency buckets without an adapter.

Conventions honoured:

- Counters end in ``_total`` and never decrease (the latency histogram
  uses the never-windowed cumulative counts from
  :meth:`~repro.serving.stats.ServerStats.latency_histogram`, not the
  percentile reservoir).
- Histogram buckets are cumulative with ``le`` upper bounds and an
  explicit ``+Inf`` bucket equal to ``_count``.
- Every sample carries a ``model`` label so a multi-model server
  exports one coherent family per metric.
"""

from __future__ import annotations

import math
from typing import List

__all__ = ["render_metrics", "CONTENT_TYPE"]

#: Content-Type of the exposition (text format, version 0.0.4).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting (``+Inf``, trimmed floats)."""
    if value == math.inf:
        return "+Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Writer:
    """Accumulates one metric family at a time (HELP/TYPE then samples)."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict, value: float) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(str(val))}"' for key, val in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_fmt(value)}")
        else:
            self._lines.append(f"{name} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_metrics(model_server) -> str:
    """Render a :class:`~repro.serving.ModelServer` as Prometheus text.

    One pass over the served models (request/batch/shed/latency
    counters, queue depth) plus the fleet's residency, scheduler and
    stream state.
    """
    models = dict(model_server.models)

    w = _Writer()

    w.family("repro_requests_total", "counter", "Requests served to completion.")
    for name, served in models.items():
        w.sample("repro_requests_total", {"model": name}, served.stats.requests)

    w.family("repro_errors_total", "counter", "Requests failed by the runner.")
    for name, served in models.items():
        w.sample("repro_errors_total", {"model": name}, served.stats.errors)

    w.family("repro_batches_total", "counter", "Coalesced flushes executed.")
    for name, served in models.items():
        w.sample("repro_batches_total", {"model": name}, served.stats.batches)

    w.family(
        "repro_shed_total", "counter",
        "Requests shed by admission control, by reason "
        "(queue_full=429, quota=429 quota_exceeded, slo=503).",
    )
    for name, served in models.items():
        shed = dict(served.stats.shed)
        for reason in ("queue_full", "quota", "slo"):
            shed.setdefault(reason, 0)
        for reason, count in sorted(shed.items()):
            w.sample(
                "repro_shed_total", {"model": name, "reason": reason}, count
            )

    w.family(
        "repro_queue_depth", "gauge", "Requests waiting in the batcher queue."
    )
    for name, served in models.items():
        w.sample("repro_queue_depth", {"model": name}, served.batcher.queue_depth)

    w.family(
        "repro_requests_per_second", "gauge",
        "Throughput over the recent completion window.",
    )
    for name, served in models.items():
        w.sample(
            "repro_requests_per_second", {"model": name},
            served.stats.requests_per_second,
        )

    w.family(
        "repro_request_latency_seconds", "histogram",
        "End-to-end request latency (queueing included).",
    )
    for name, served in models.items():
        hist = served.stats.latency_histogram()
        for bound, cumulative in hist["buckets"]:
            w.sample(
                "repro_request_latency_seconds_bucket",
                {"model": name, "le": _fmt(bound)},
                cumulative,
            )
        w.sample("repro_request_latency_seconds_sum", {"model": name}, hist["sum"])
        w.sample(
            "repro_request_latency_seconds_count", {"model": name}, hist["count"]
        )

    # -- fleet families: residency + weighted-fair scheduling ----------
    residency = getattr(model_server, "residency", None)
    if residency is not None:
        fleet = residency.snapshot()
        w.family(
            "repro_fleet_budget_bytes", "gauge",
            "Configured reclaimable-byte budget (0 when unenforced).",
        )
        w.sample("repro_fleet_budget_bytes", {}, fleet["budget_bytes"] or 0)
        w.family(
            "repro_fleet_charged_bytes", "gauge",
            "Ledger total: reclaimable bytes charged across all tenants.",
        )
        w.sample("repro_fleet_charged_bytes", {}, fleet["charged_bytes"])
        w.family(
            "repro_tenant_state", "gauge",
            "Tenant residency (1 for the current state, 0 otherwise).",
        )
        for name, row in fleet["tenants"].items():
            for state in ("resident", "demoted", "evicted"):
                w.sample(
                    "repro_tenant_state", {"model": name, "state": state},
                    int(row["state"] == state),
                )
        w.family(
            "repro_tenant_resident_bytes", "gauge",
            "Reclaimable bytes currently charged to the tenant.",
        )
        for name, row in fleet["tenants"].items():
            w.sample("repro_tenant_resident_bytes", {"model": name}, row["bytes"])
        w.family(
            "repro_tenant_demotions_total", "counter",
            "Times the tenant's workspaces were reclaimed under budget pressure.",
        )
        w.family(
            "repro_tenant_evictions_total", "counter",
            "Times the tenant's derived op state was reclaimed too.",
        )
        w.family(
            "repro_tenant_promotions_total", "counter",
            "Times a request re-promoted a demoted/evicted tenant (warm, no recompile).",
        )
        for name, row in fleet["tenants"].items():
            w.sample("repro_tenant_demotions_total", {"model": name}, row["demotions"])
            w.sample("repro_tenant_evictions_total", {"model": name}, row["evictions"])
            w.sample("repro_tenant_promotions_total", {"model": name}, row["promotions"])

    scheduler = getattr(model_server, "scheduler", None)
    if scheduler is not None:
        sched = scheduler.snapshot()
        w.family(
            "repro_tenant_weight", "gauge",
            "Configured fair-share weight under the flush scheduler.",
        )
        w.family(
            "repro_tenant_weight_share", "gauge",
            "Weight as a fraction of the fleet's total weight.",
        )
        w.family(
            "repro_tenant_observed_share", "gauge",
            "Fraction of scheduled requests this tenant actually received.",
        )
        w.family(
            "repro_tenant_scheduled_requests_total", "counter",
            "Requests dispatched to the tenant by the flush scheduler.",
        )
        for name, row in sched["tenants"].items():
            w.sample("repro_tenant_weight", {"model": name}, row["weight"])
            w.sample("repro_tenant_weight_share", {"model": name}, row["weight_share"])
            w.sample(
                "repro_tenant_observed_share", {"model": name}, row["observed_share"]
            )
            w.sample(
                "repro_tenant_scheduled_requests_total", {"model": name},
                row["requests"],
            )

    w.family(
        "repro_plan_cache_bytes", "gauge",
        "Bytes held by the tenant's execution-plan cache.",
    )
    for name, served in models.items():
        if served.compiled is not None:
            w.sample("repro_plan_cache_bytes", {"model": name}, served.compiled.plans.object_nbytes)

    # -- streaming front-end families ----------------------------------
    stream_server = getattr(model_server, "stream_server", None)
    if stream_server is not None:
        streams = stream_server.snapshot()
        w.family(
            "repro_stream_connections", "gauge",
            "Open streaming-protocol TCP connections.",
        )
        w.sample("repro_stream_connections", {}, stream_server.connection_count())
        w.family(
            "repro_stream_open_streams", "gauge",
            "Logical streams with a live delta-cache reference frame.",
        )
        w.family(
            "repro_stream_frames_total", "counter",
            "Tensor frames accepted over the streaming protocol.",
        )
        w.family(
            "repro_stream_cache_hits_total", "counter",
            "Frames answered from the per-stream delta cache.",
        )
        w.family(
            "repro_stream_cache_misses_total", "counter",
            "Frames that missed the delta cache and hit the batcher.",
        )
        w.family(
            "repro_stream_errors_total", "counter",
            "Frames answered with a typed ERROR frame.",
        )
        w.family(
            "repro_stream_frames_per_second", "gauge",
            "Frame throughput over the recent completion window.",
        )
        for name, row in streams.items():
            w.sample("repro_stream_open_streams", {"model": name}, row["open_streams"])
            w.sample("repro_stream_frames_total", {"model": name}, row["frames"])
            w.sample(
                "repro_stream_cache_hits_total", {"model": name}, row["cache_hits"]
            )
            w.sample(
                "repro_stream_cache_misses_total", {"model": name},
                row["cache_misses"],
            )
            w.sample("repro_stream_errors_total", {"model": name}, row["errors"])
            w.sample(
                "repro_stream_frames_per_second", {"model": name},
                row["frames_per_second"],
            )

    return w.render()
