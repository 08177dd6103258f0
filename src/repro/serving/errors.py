"""One serving-error contract shared by every transport.

PR 7 introduced structured errors (``{"error": {"kind", "message"}}``
bodies, ``Retry-After`` on the 429s); the streaming wire protocol
carries the same contract in typed ERROR frames. Before this module the
HTTP handler derived the status/kind/Retry-After mapping inline per
exception type — duplicating the two 429 paths and leaving nothing for
a second transport to reuse, so the stream protocol's backpressure
frames could silently drift from HTTP semantics. :func:`classify_error`
is now the single source of truth: HTTP renders its result as a status
plus headers, the stream server renders it as an ERROR frame, and both
agree on kind names and Retry-After values by construction.

Shed *accounting* stays where the shed happens — the
:class:`~repro.serving.batcher.Batcher` records ``queue_full``/
``quota``/``slo`` at the raise site — so transports only translate
errors, never double-count them.
"""

from __future__ import annotations

import math
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from typing import Optional

from .batcher import BatcherClosed, QueueFull, QuotaExceeded, SLOExpired

__all__ = ["ServingError", "classify_error", "retry_after_seconds"]

#: Retry-After clamp: whole seconds, at least 1 (the HTTP header is an
#: integer and "retry immediately" defeats the point of shedding).
_MIN_RETRY_AFTER = 1


def retry_after_seconds(estimate: float) -> int:
    """Clamp a drain-rate/token-bucket estimate to a Retry-After value.

    Both 429 kinds (``queue_full`` and ``quota_exceeded``) and both
    transports (HTTP header, ERROR-frame ``retry_after`` field) go
    through this one rounding, so a client always sees the same hint
    regardless of how it connected.
    """
    return max(_MIN_RETRY_AFTER, math.ceil(estimate))


@dataclass(frozen=True)
class ServingError:
    """Transport-neutral description of a failed request.

    ``status`` is the HTTP status code; ``kind`` is the stable
    machine-readable kind both the JSON error body and the wire ERROR
    frame carry; ``retry_after`` is set (whole seconds) exactly when the
    kind is a backpressure shed a client should retry later.
    """

    status: int
    kind: str
    message: str
    retry_after: Optional[int] = None


def classify_error(
    error: BaseException, *, request_timeout: Optional[float] = None
) -> ServingError:
    """Map a submit/result exception onto the serving error contract.

    ``request_timeout`` (seconds) only shapes the ``timeout`` kind's
    message — pass the transport's configured timeout when it has one.
    """
    if isinstance(error, QuotaExceeded):
        return ServingError(
            429, "quota_exceeded", str(error),
            retry_after=retry_after_seconds(error.retry_after),
        )
    if isinstance(error, QueueFull):
        return ServingError(
            429, "queue_full", str(error),
            retry_after=retry_after_seconds(error.retry_after),
        )
    if isinstance(error, SLOExpired):
        return ServingError(503, "slo_expired", str(error))
    if isinstance(error, BatcherClosed):
        return ServingError(503, "batcher_closed", str(error))
    if isinstance(error, FutureTimeout):
        if request_timeout is not None:
            message = (
                f"request did not complete within the server's "
                f"{request_timeout}s request_timeout"
            )
        else:
            message = "request did not complete within the server's timeout"
        return ServingError(504, "timeout", message)
    return ServingError(500, "internal", f"{type(error).__name__}: {error}")
