"""Shared plumbing for the repo benchmark: definition, statistics, spans.

Everything here is pure bookkeeping — no workload runs in this module —
so the unit tests in ``test_perfbench.py`` cover it without building a
model or starting a server.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
DEFINITION_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Metric and workload names: what BENCHMARK.json may use.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def ensure_program_importable() -> None:
    """Put ``src/`` (the program) and the repo root on ``sys.path``.

    Raises ``SystemExit(2)`` when the program sources are missing, so a
    checkout holding only the benchmark fails fast without a result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: program sources not found under {os.path.relpath(SRC)}/; "
            "run the benchmark from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_definition(path: str = DEFINITION_PATH) -> dict:
    """Read BENCHMARK.json (workloads and metric names/units)."""
    with open(path) as fh:
        return json.load(fh)


def metric_units(definition: dict, trace: bool) -> Dict[str, str]:
    """``name -> unit`` for the metrics one run must report."""
    key = "per_layer" if trace else "end_to_end"
    return {row["name"]: row["unit"] for row in definition[key]}


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------
def samples_needed(q: float) -> int:
    """Smallest sample count that supports percentile ``q``."""
    return int(np.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9))


def percentile(values: Iterable[float], q: float) -> float:
    """``q``-th percentile (linear interpolation) of a non-empty sample."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(data, q))


def windowed_percentile(values: Sequence[float], q: float, window: int) -> float:
    """Median over consecutive ``window``-sized slices of each slice's ``q``-th percentile.

    The last slice absorbs the remainder, so every slice holds at least
    ``window`` samples; fewer than ``window`` samples form one slice. A
    single stall then moves one slice's percentile, not the reported
    value.
    """
    data = np.asarray(values, dtype=np.float64)
    slices = max(1, len(data) // window)
    bounds = [i * window for i in range(slices)] + [len(data)]
    return float(np.median([
        np.percentile(data[lo:hi], q) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]))


@dataclass
class Failures:
    """Request accounting behind ``failed`` and ``failed_frac``.

    Every request the benchmark sends is ``attempted``; it fails when it
    was shed by admission control, answered with an error, never
    answered, or answered wrongly.
    """

    attempted: int = 0
    shed: int = 0
    errors: int = 0
    unanswered: int = 0
    mismatched: int = 0

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.unanswered + self.mismatched

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Failures") -> None:
        self.attempted += other.attempted
        self.shed += other.shed
        self.errors += other.errors
        self.unanswered += other.unanswered
        self.mismatched += other.mismatched


def stats_delta(before: dict, after: dict, wall_s: float) -> dict:
    """Counter arithmetic between two ``/stats`` rows of one model.

    Percentiles in ``/stats`` cover a rolling window, so only counters
    are differenced here: requests, batches, errors, shed (all kinds)
    and model seconds, giving the step's mean coalesced batch and the
    share of the step's wall time the model was busy.
    """
    requests = after["requests"] - before["requests"]
    batches = after["batches"] - before["batches"]
    model_s = after["model_seconds"] - before["model_seconds"]
    shed = sum(after.get("shed", {}).values()) - sum(before.get("shed", {}).values())
    return {
        "requests": requests,
        "batches": batches,
        "errors": after["errors"] - before["errors"],
        "shed": shed,
        "model_seconds": model_s,
        "mean_batch": requests / batches if batches else 0.0,
        "model_busy_frac": model_s / wall_s if wall_s > 0 else 0.0,
    }


# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request_id: Optional[int] = None
    #: True when start/end are laid out from a duration the program
    #: reported (e.g. ``PassRecord.seconds``) rather than timed here.
    derived: bool = False


@dataclass
class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    A disabled tracer records nothing, so untraced runs pay one branch
    per call site.
    """

    enabled: bool = True
    spans: List[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
        derived: bool = False,
    ) -> Optional[int]:
        if not self.enabled:
            return None
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, request_id, derived)
            self.spans.append(span)
        return span.id

    def timed(self, name: str, fn, *args, parent: Optional[int] = None, **kwargs):
        """Call ``fn`` and record a span around it; returns (result, span id, seconds)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, self.add(name, start, end, parent=parent), end - start

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ())
            )
            own = max(0.0, (span.end - span.start) - covered)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def to_json(self) -> List[dict]:
        return [span.__dict__ for span in self.spans]


def _union_length(intervals: Iterable[tuple]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def nonzero_macs_per_image(model, input_shape, n: int, kernel_size: int = 3) -> int:
    """Computed (not measured) multiply-accumulates one image costs.

    Pruned ``kernel_size`` convs keep ``n`` of ``kernel_size**2``
    weights per kernel (the SPM pattern density); other convs and every
    linear layer count dense. Geometry comes from
    :func:`repro.models.profile_model`.
    """
    from repro import nn
    from repro.models import profile_model

    total = 0
    for conv in profile_model(model, tuple(input_shape)).convs:
        if conv.kernel_size == kernel_size:
            total += conv.macs * n // (kernel_size * kernel_size)
        else:
            total += conv.macs
    for module in model.modules():
        if isinstance(module, nn.Linear):
            total += module.in_features * module.out_features
    return total


# ---------------------------------------------------------------------
# Process facts and run metadata
# ---------------------------------------------------------------------
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set (``VmHWM``) of ``pid`` (default: self), MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def blas_threads() -> str:
    """Thread count of the OpenBLAS numpy links against, if it says."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def source_digest() -> str:
    """sha256 over the program's sources (the checkout may lack .git)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip()


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


@dataclass
class Result:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    failures: Failures
    correct: bool
    notes: List[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
