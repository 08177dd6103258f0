"""The bounded incident log behind ``GET /incidents``.

The :class:`~repro.serving.residency.ResidencyManager` reports every
tenant demotion, promotion, eviction and over-budget event here, so an
operator can read the fleet's memory-pressure history from one place.
The log keeps the newest :data:`MAX_INCIDENTS` entries.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

__all__ = ["Incident", "IncidentLog"]

#: Bounded incident-log length: enough to audit a bad night, small
#: enough that /incidents never becomes the overload.
MAX_INCIDENTS = 256


@dataclass
class Incident:
    """One logged event, JSON-ready via :meth:`describe`."""

    stamp: float  # wall-clock (time.time) for operator correlation
    kind: str  # tenant_demoted | tenant_promoted | tenant_evicted | ...
    model: str
    detail: dict = field(default_factory=dict)

    def describe(self) -> dict:
        """JSON-ready row for ``GET /incidents`` (omits empty fields)."""
        row = {"time": self.stamp, "kind": self.kind, "model": self.model}
        if self.detail:
            row["detail"] = self.detail
        return row


class IncidentLog:
    """Thread-safe, bounded, oldest-first log of serving incidents."""

    def __init__(self) -> None:
        self._incidents: Deque[Incident] = deque(maxlen=MAX_INCIDENTS)
        self._lock = threading.Lock()

    def record(self, kind: str, model: str, **detail) -> None:
        """Append one incident, stamped now."""
        incident = Incident(stamp=time.time(), kind=kind, model=model, detail=detail)
        with self._lock:
            self._incidents.append(incident)

    def incidents(self) -> List[dict]:
        """The bounded incident log, oldest first."""
        with self._lock:
            return [incident.describe() for incident in self._incidents]

    def snapshot(self) -> dict:
        """JSON payload of ``GET /incidents``."""
        return {"incidents": self.incidents()}
