"""Open-loop serving workloads against a ``repro.cli serve`` process.

``serve_stream`` and ``serve_http`` spawn the server as its own process
(PatternNet at n=2, |P|=4, batches of at most 16, 5 ms coalescing
window, 512-deep admission queue, stream transport on) and offer it
Poisson arrivals from this one process: the stream workload over one
``StreamClient`` connection (main thread sends, the client's reader
thread receives), the HTTP workload over two connections, one driven
by the main thread and one by a worker thread. Latency runs from each
request's *due* time, so generator stalls count against the system.

A run offers the nominal rate (the end-to-end metrics). A traced run
then walks a fixed ladder of rates ``nominal * RUNG_RATIO**k`` down from
the top rung until one holds the latency limit: ``serving.max_rate_rps``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from harness import (
    RESULTS_DIR,
    SRC,
    Failures,
    Result,
    Tracer,
    nonzero_macs_per_image,
    peak_rss_mb,
    percentile,
    stats_delta,
    windowed_percentile,
)

MODEL = "patternnet"
INPUT_SHAPE = (3, 16, 16)
N_NONZERO = 2
PATTERNS = 4
MAX_BATCH = 16
MAX_QUEUE = 512
SERVE_ARGS = [
    "--model", MODEL, "--n", str(N_NONZERO), "--patterns", str(PATTERNS),
    "--max-batch", str(MAX_BATCH), "--max-latency-ms", "5",
    "--max-queue", str(MAX_QUEUE),
]
#: p99 limit a ladder rung must hold (both transports, so their
#: ``serving.max_rate_rps`` compare directly).
LATENCY_LIMIT_MS = 50.0
TAIL_PERCENTILE = 99.0
#: Ratio between neighbouring ladder rungs.
RUNG_RATIO = 1.1
#: Every step offers at least this many requests, so p99 has >= 10
#: samples beyond it.
MIN_REQUESTS = 1000
#: The nominal step's tail is the median p99 of this many windows of
#: ``MIN_REQUESTS`` requests at least.
NOMINAL_WINDOWS = 3
#: Share of ``--seconds`` the nominal step and each ladder rung last
#: (a step is extended to ``MIN_REQUESTS`` when its rate is low).
NOMINAL_SHARE = 0.5
RUNG_SHARE = 0.2
#: A run whose generator ran later than this (p99) is invalid.
GEN_LAG_LIMIT_MS = 20.0
SETUPS = 5
STREAMS = 8
#: L-infinity amplitude of near-duplicate frames: below the server's
#: default 1e-3 delta threshold, so they hit the stream delta cache.
JITTER = 2e-4
STREAM_TOLERANCE = 1e-5
HTTP_TOLERANCE = 1e-4
DRAIN_TIMEOUT_S = 30.0
SHED_KINDS = ("queue_full", "quota_exceeded", "slo_expired")


@dataclass(frozen=True)
class ServeWorkload:
    transport: str
    #: Nominal offered rate (req/s), about half the seed's sustained rate.
    nominal_rps: float
    #: Highest and lowest ladder exponents ``k`` of ``nominal * RUNG_RATIO**k``.
    top_rung: int
    bottom_rung: int
    #: Share of frames that re-send their stream's last keyframe jittered.
    jitter_frac: float
    #: Seconds of nominal-rate load offered before the nominal step, so
    #: the server's cold start stays out of the metrics. Only affordable
    #: where the nominal step alone refills the ``/stats`` percentile
    #: window.
    warmup_s: float
    #: Whether the nominal step must push the warm-up out of that window.
    fill_window: bool


WORKLOADS: Dict[str, ServeWorkload] = {
    "serve_stream": ServeWorkload("stream", 1100.0, 11, -7, 0.25, 1.0, True),
    "serve_http": ServeWorkload("http", 95.0, 10, -7, 0.0, 0.0, False),
}


def rung_rate(workload: ServeWorkload, k: int) -> float:
    return workload.nominal_rps * RUNG_RATIO ** k


def ladder_order(workload: ServeWorkload) -> List[int]:
    """Rungs in the order they are tried: nominal, then top downward."""
    above = list(range(workload.top_rung, 0, -1))
    below = list(range(-1, workload.bottom_rung - 1, -1))
    return [0] + above + below


def step_requests(rate: float, seconds: float, share: float) -> int:
    return max(MIN_REQUESTS, int(np.ceil(rate * seconds * share)))


def nominal_requests(workload: ServeWorkload, seconds: float) -> int:
    """Size of the nominal step.

    ``/stats`` percentiles cover the last ``DEFAULT_WINDOW`` requests
    that reached the batcher (delta-cache hits never do). A workload
    with a warm-up offers enough requests at nominal that the window
    holds the nominal step alone when it is read.
    """
    from repro.serving.stats import DEFAULT_WINDOW

    count = max(
        step_requests(workload.nominal_rps, seconds, NOMINAL_SHARE),
        NOMINAL_WINDOWS * MIN_REQUESTS,
    )
    if workload.fill_window:
        batcher_share = 1.0 - workload.jitter_frac
        count = max(count, int(np.ceil(1.05 * DEFAULT_WINDOW / batcher_share)))
    return count


def schedule(rate: float, count: int, seed: int, step: int) -> np.ndarray:
    """The first ``count`` Poisson arrival offsets (s) of one step."""
    from benchmarks.loadgen import arrival_times, validate_trace

    step_seed = int(np.random.SeedSequence([seed, step]).generate_state(1)[0])
    duration = 1.5 * count / rate + 1.0
    while True:
        trace = validate_trace(
            {
                "name": f"step{step}",
                "duration_s": duration,
                "segments": [{"start_s": 0.0, "rate": rate}],
            }
        )
        times = arrival_times(trace, step_seed)
        if len(times) >= count:
            return times[:count]
        duration *= 2


class FrameSource:
    """Seeded frames, round-robin over ``STREAMS`` logical streams.

    A fresh frame becomes its stream's keyframe; a near-duplicate is
    that keyframe plus jitter below the delta threshold, and its answer
    must equal the keyframe's. Keyframes get global ids so a
    near-duplicate can refer to a keyframe sent in an earlier step.
    A step that stops early commits (:meth:`commit`) only what it sent,
    since the server's delta cache only saw that.
    """

    def __init__(self, seed: int, jitter_frac: float) -> None:
        from repro.data.synthetic import SyntheticImages, SyntheticSpec

        self.images = SyntheticImages(SyntheticSpec(image_size=INPUT_SHAPE[1]), seed=seed)
        self.seed = seed
        self.jitter_frac = jitter_frac
        self.rng = np.random.default_rng([seed, 1])
        self.sent = 0
        self.next_key = 0
        self.stream_key: Dict[int, tuple] = {}  # stream -> (key id, frame)
        self._planned: List[tuple] = []

    def step(self, count: int, step: int):
        """Frames, stream ids, near-duplicate flags and expected keyframe ids."""
        fresh = self.images.sample(count, seed=self.seed * 1000 + step)[0].astype(np.float32)
        frames = np.empty_like(fresh)
        streams = np.empty(count, dtype=np.int64)
        jittered = np.zeros(count, dtype=bool)
        key_ids = np.empty(count, dtype=np.int64)
        keys = dict(self.stream_key)
        self._planned = []
        for i in range(count):
            sid = (self.sent + i) % STREAMS
            streams[i] = sid
            previous = keys.get(sid)
            if previous is not None and self.rng.random() < self.jitter_frac:
                key_id, key = previous
                noise = self.rng.uniform(-JITTER, JITTER, size=key.shape)
                frames[i] = key + noise.astype(np.float32)
                jittered[i] = True
                key_ids[i] = key_id
            else:
                frames[i] = fresh[i]
                key_ids[i] = self.next_key
                keys[sid] = (self.next_key, frames[i])
                self._planned.append((i, sid, keys[sid]))
                self.next_key += 1
        return frames, streams, jittered, key_ids

    def commit(self, sent: int) -> None:
        """Advance stream state by the first ``sent`` frames of the last step."""
        for i, sid, key in self._planned:
            if i < sent:
                self.stream_key[sid] = key
        self.sent += sent


# ---------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``python -m repro.cli serve`` child with both transports."""

    def __init__(self, log_path: str) -> None:
        self.http_port = _free_port()
        self.stream_port = _free_port()
        self.log = open(log_path, "ab")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS,
             "--port", str(self.http_port), "--stream-port", str(self.stream_port)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )

    def get(self, path: str, timeout: float = 10.0) -> dict:
        url = f"http://127.0.0.1:{self.http_port}{path}"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                self.get("/healthz", timeout=1.0)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise TimeoutError("server did not answer /healthz") from None
                time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.log.close()


def start_server(log_path: str):
    """Spawn a server and connect a stream client (HELLO): one set-up."""
    from repro.serving import StreamClient

    start = time.perf_counter()
    server = ServerProcess(log_path)
    try:
        server.wait_ready()
        client = StreamClient("127.0.0.1", server.stream_port, model=MODEL, timeout=60.0)
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - start


# ---------------------------------------------------------------------
# One step of offered load
# ---------------------------------------------------------------------
@dataclass
class StepOutcome:
    rung: int
    rate: float
    planned: int
    aborted: bool = False
    wall_s: float = 0.0
    latency_s: np.ndarray = None
    was_sent: np.ndarray = None
    answered: np.ndarray = None
    cache_hit: np.ndarray = None
    error_kind: List[Optional[str]] = field(default_factory=list)
    outputs: List[Optional[np.ndarray]] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    send_s: List[float] = field(default_factory=list)
    depth_mid: int = 0
    depth_end: int = 0
    stats_before: dict = None
    stats_after: dict = None
    failures: Failures = field(default_factory=Failures)
    #: ``(request index, what was wrong)`` for each wrong answer.
    mismatches: List[tuple] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return int(self.was_sent.sum())

    def latencies(self, mask=None) -> np.ndarray:
        ok = self.answered if mask is None else self.answered & mask
        return self.latency_s[ok]

    def grew(self) -> bool:
        return self.depth_end > self.depth_mid and self.depth_end > MAX_BATCH

    def holds_limit(self) -> bool:
        lat = self.latencies()
        return (
            not self.aborted
            and self.was_sent.all()
            and self.failures.failed == 0
            and len(lat) > 0
            and percentile(lat, TAIL_PERCENTILE) * 1e3 <= LATENCY_LIMIT_MS
            and not self.grew()
        )


class _Step:
    """Shared state of one step between the sending and answering threads."""

    def __init__(self, outcome: StepOutcome, abortable: bool, tracer: Tracer, span: Optional[int]):
        n = outcome.planned
        self.outcome = outcome
        outcome.latency_s = np.full(n, np.nan)
        outcome.was_sent = np.zeros(n, dtype=bool)
        outcome.answered = np.zeros(n, dtype=bool)
        outcome.cache_hit = np.zeros(n, dtype=bool)
        outcome.error_kind = [None] * n
        outcome.outputs = [None] * n
        self.abortable = abortable
        self.tracer = tracer
        self.span = span
        self.lock = threading.Lock()
        self.late = 0
        self.bad = 0
        self.outstanding = 0
        self.sending_done = False
        self.drained = threading.Event()
        self.late_limit = n // 100  # more late answers than this fail p99

    def should_abort(self) -> bool:
        if not self.abortable:
            return self.outstanding > MAX_QUEUE // 2
        return (
            self.late > self.late_limit
            or self.bad > 0
            or self.outstanding > MAX_QUEUE // 2
        )

    def sent_one(self) -> None:
        with self.lock:
            self.outstanding += 1

    def landed(self, i: int, due: float, sent_at: float, output=None, hit=False, kind=None) -> None:
        now = time.perf_counter()
        out = self.outcome
        if kind is None:
            out.latency_s[i] = now - due
            out.answered[i] = True
            out.cache_hit[i] = hit
            out.outputs[i] = output
        else:
            out.error_kind[i] = kind
        if i % 2 == 0:  # traced runs span every other request
            self.tracer.add("serving.request", sent_at, now, parent=self.span, request_id=i)
        with self.lock:
            if kind is not None:
                self.bad += 1
            elif now - due > LATENCY_LIMIT_MS / 1e3:
                self.late += 1
            self.outstanding -= 1
            if self.sending_done and self.outstanding == 0:
                self.drained.set()

    def finish_sending(self) -> None:
        with self.lock:
            self.sending_done = True
            if self.outstanding == 0:
                self.drained.set()


def _probe_depth(server: ServerProcess) -> int:
    return int(server.get("/stats")[MODEL].get("queue_depth", 0))


def run_stream_step(server, client, st: _Step, sched, frames, streams) -> None:
    from repro.serving import WireError

    out = st.outcome
    n = out.planned
    probes = {n // 2: "depth_mid", n - 1: "depth_end"}
    t0 = time.perf_counter() + 0.005
    for i in range(n):
        due = t0 + sched[i]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if st.should_abort():
            out.aborted = True
            break
        start = time.perf_counter()
        out.lag_s.append(start - due)

        def landed(future, i=i, due=due, sent_at=start):
            try:
                result = future.result()
            except WireError as error:
                st.landed(i, due, sent_at, kind=error.kind)
            except Exception as error:  # noqa: BLE001 - counted as an error
                st.landed(i, due, sent_at, kind=type(error).__name__)
            else:
                st.landed(i, due, sent_at, output=result.output, hit=result.cache_hit)

        st.sent_one()
        future = client.submit(frames[i], stream_id=int(streams[i]), meta=True)
        out.send_s.append(time.perf_counter() - start)
        out.was_sent[i] = True
        future.add_done_callback(landed)
        if i in probes:
            setattr(out, probes[i], _probe_depth(server))


def run_http_step(server, st: _Step, sched, bodies) -> None:
    out = st.outcome
    n = out.planned
    probes = {n // 2: "depth_mid", n - 1: "depth_end"}
    claim_lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.005
    headers = {"Content-Type": "application/json"}

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.http_port, timeout=DRAIN_TIMEOUT_S)
        free_at = 0.0
        try:
            while True:
                with claim_lock:
                    i = cursor[0]
                    if i >= n or out.aborted:
                        return
                    cursor[0] += 1
                due = t0 + sched[i]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if st.should_abort():
                    out.aborted = True
                    return
                start = time.perf_counter()
                # The generator's own lateness: a request waiting for a
                # busy connection is the system's backlog, not lag.
                out.lag_s.append(start - max(due, free_at))
                st.sent_one()
                out.was_sent[i] = True
                try:
                    conn.request("POST", "/predict", bodies[i], headers)
                    out.send_s.append(time.perf_counter() - start)
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                except (OSError, http.client.HTTPException, ValueError) as error:
                    conn.close()
                    st.landed(i, due, start, kind=type(error).__name__)
                else:
                    if response.status == 200:
                        st.landed(i, due, start, output=np.asarray(payload["outputs"][0]))
                    else:
                        kind = payload.get("error", {}).get("kind", f"http_{response.status}")
                        st.landed(i, due, start, kind=kind)
                free_at = time.perf_counter()
                if i in probes:
                    setattr(out, probes[i], _probe_depth(server))
        finally:
            conn.close()

    worker = threading.Thread(target=sender, name="perfbench-http", daemon=True)
    worker.start()
    sender()
    worker.join(timeout=DRAIN_TIMEOUT_S + 10)


def check_step(out: StepOutcome, jittered, key_ids, frames, references, ref_model, tolerance) -> None:
    """Fill ``out.failures``: every answer against ``runtime.predict``."""
    from repro import runtime

    f = out.failures
    f.attempted = out.sent
    for i in np.nonzero(out.was_sent)[0]:
        kind = out.error_kind[i]
        if kind is not None:
            if kind in SHED_KINDS:
                f.shed += 1
            else:
                f.errors += 1
            continue
        if not out.answered[i]:
            f.unanswered += 1
            continue
        if out.cache_hit[i] and not jittered[i]:
            f.mismatched += 1  # a fresh frame cannot be a near-duplicate
            out.mismatches.append((i, "cache hit on a fresh frame"))
            continue
        if jittered[i] and not out.cache_hit[i]:
            expected = runtime.predict(ref_model, frames[i : i + 1])[0]
        else:
            expected = references[int(key_ids[i])]
        diff = float(np.abs(out.outputs[i] - expected).max())
        if diff > tolerance:
            f.mismatched += 1
            out.mismatches.append(
                (i, f"max abs diff {diff:.3g} (hit={bool(out.cache_hit[i])}, "
                    f"near-duplicate={bool(jittered[i])}, |ref|max="
                    f"{float(np.abs(expected).max()):.3g})")
            )


def walk_ladder(workload: ServeWorkload, nominal: StepOutcome, offer, seconds, steps) -> float:
    """Highest ladder rate that holds the latency limit, walking down.

    Rungs above nominal are tried from the top; the first that holds is
    the answer. If none does, the nominal rate counts when it held,
    else the walk continues below nominal, and a ladder with no holding
    rung reports the rate below its bottom rung.
    """
    for step_index, k in enumerate(ladder_order(workload)[1:], start=2):
        if k < 0 and nominal.holds_limit():
            return nominal.rate
        rate = rung_rate(workload, k)
        out = offer(k, rate, step_requests(rate, seconds, RUNG_SHARE), step_index, True)
        steps.append(out)
        if out.holds_limit():
            return rate
    return rung_rate(workload, workload.bottom_rung - 1)


# ---------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------
def build_reference(tracer: Tracer) -> dict:
    """The served model, rebuilt here: seed 0 registry weights, pruned
    and encoded exactly as ``ModelServer.load_registry`` does, compiled
    with the server's defaults — the reference every answer must match."""
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import create_model, profile_model

    model = create_model(MODEL, rng=np.random.default_rng(0))
    layers = len(profile_model(model, INPUT_SHAPE, model_name=MODEL).prunable())
    pruner = PCNNPruner(model, PCNNConfig.uniform(N_NONZERO, layers, num_patterns=PATTERNS))
    _, _, prune_s = tracer.timed("core.prune", pruner.apply)
    _, _, encode_s = tracer.timed("core.encode", pruner.attach_encodings)
    compiled, _, compile_s = tracer.timed(
        "runtime.compile", runtime.compile_model, model, input_shape=INPUT_SHAPE
    )
    probe = np.zeros((MAX_BATCH,) + INPUT_SHAPE, dtype=np.float32)
    _, _, first_call_s = tracer.timed("runtime.forward.first_call", runtime.predict, compiled, probe)
    return {
        "model": model,
        "compiled": compiled,
        "prune_s": prune_s,
        "encode_s": encode_s,
        "compile_s": compile_s,
        "first_call_s": first_call_s,
        "passes": {record.name: record.seconds for record in compiled.passes},
        "macs": nonzero_macs_per_image(model, INPUT_SHAPE, N_NONZERO),
    }


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float):
    """One run; returns ``(Result, Tracer)``."""
    from repro import runtime

    workload = WORKLOADS[name]
    tracer = Tracer(enabled=trace)
    reference = build_reference(tracer)
    ref_compiled = reference["compiled"]
    tolerance = STREAM_TOLERANCE if workload.transport == "stream" else HTTP_TOLERANCE
    frames_source = FrameSource(seed, workload.jitter_frac)
    log_path = os.path.join(RESULTS_DIR, f"server-{name}-seed{seed}.log")

    setup_s = []
    server = client = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                client.close()
                server.stop()
                server = client = None
            server, client, elapsed = start_server(log_path)
            setup_s.append(elapsed)
        if workload.transport == "http":
            client.close()
            client = None

        snapshots = []
        references: Dict[int, np.ndarray] = {}

        def offer(k: int, rate: float, count: int, step_index: int, abortable: bool):
            """Offer one step of Poisson load, drain it, check every answer."""
            sched = schedule(rate, count, seed, step_index)
            frames, streams, jittered, key_ids = frames_source.step(count, step_index)
            bodies = (
                [json.dumps({"input": frame.tolist()}).encode() for frame in frames]
                if workload.transport == "http" else None
            )
            out = StepOutcome(rung=k, rate=rate, planned=count)
            span = tracer.add(f"bench.step.{step_index}", 0.0, 0.0)
            st = _Step(out, abortable=abortable, tracer=tracer, span=span)
            out.stats_before = server.get("/stats")[MODEL]
            # The generator's own garbage collections would stall it
            # mid-step; collect between steps instead.
            gc.collect()
            gc.disable()
            try:
                step_start = time.perf_counter()
                if workload.transport == "stream":
                    run_stream_step(server, client, st, sched, frames, streams)
                else:
                    run_http_step(server, st, sched, bodies)
                st.finish_sending()
                frames_source.commit(out.sent)
                st.drained.wait(DRAIN_TIMEOUT_S)
                step_end = time.perf_counter()
            finally:
                gc.enable()
            out.wall_s = step_end - step_start
            if span is not None:
                tracer.spans[span].start, tracer.spans[span].end = step_start, step_end
            out.stats_after = server.get("/stats")[MODEL]
            if trace:
                snapshots.append(
                    {"step": step_index, "rung": k, "rate": rate,
                     "stats": server.get("/stats"), "models": server.get("/models")}
                )
            fresh = ~jittered
            answers = runtime.predict(ref_compiled, frames[fresh], micro_batch=256)
            references.update(zip(key_ids[fresh].tolist(), answers))
            check_step(out, jittered, key_ids, frames, references, ref_compiled, tolerance)
            return out

        # Warm-up at the nominal rate: a fresh server's first second of
        # traffic runs several times slower at p99 than the rest. Its
        # answers are checked; its latencies are not metrics.
        nominal_rate = rung_rate(workload, 0)
        warmup = None
        if workload.warmup_s > 0:
            count = int(np.ceil(nominal_rate * workload.warmup_s))
            warmup = offer(0, nominal_rate, count, 0, False)
        nominal = offer(0, nominal_rate, nominal_requests(workload, seconds), 1, False)
        steps: List[StepOutcome] = [nominal]
        max_rate = None
        if trace:
            max_rate = walk_ladder(workload, nominal, offer, seconds, steps)

        models_row = server.get("/models")[MODEL]
        final_stats = server.get("/stats")[MODEL]
        server_peak_mb = peak_rss_mb(server.proc.pid)
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()

    return _summarise(
        trace, import_s, tracer, reference, setup_s, warmup, steps,
        max_rate, models_row, final_stats, server_peak_mb, snapshots,
    )


def _summarise(trace, import_s, tracer, reference, setup_s, warmup, steps,
               max_rate, models_row, final_stats, server_peak_mb, snapshots):
    failures = Failures()
    offered = ([warmup] if warmup is not None else []) + steps
    for out in offered:
        failures.merge(out.failures)
    mismatch_notes = [f"wrong answer at {out.rate:.0f} rps: request {i}: {why}"
                      for out in offered for i, why in out.mismatches[:5]]
    nominal = steps[0]
    lat = nominal.latencies()
    lags = [lag for out in steps for lag in out.lag_s]
    lag_p99_ms = percentile(lags, 99) * 1e3
    notes = [
        "steps: " + ", ".join(
            f"{out.rate:.0f} rps x{out.sent}"
            + (" held" if out.holds_limit() else " failed")
            for out in steps
        ),
        f"nominal step: {len(lat)} answered; latency_tail_ms is the median "
        f"p{TAIL_PERCENTILE:g} of {max(1, len(lat) // MIN_REQUESTS)} windows "
        f"of >= {MIN_REQUESTS} requests",
        f"generator lag p99 {lag_p99_ms:.2f} ms (limit {GEN_LAG_LIMIT_MS:g} ms)",
    ]
    notes.extend(mismatch_notes)
    valid = lag_p99_ms <= GEN_LAG_LIMIT_MS and len(lat) >= MIN_REQUESTS
    if not valid:
        notes.append("invalid run: generator lag or nominal sample count out of bounds")

    if not trace:
        correct_answers = nominal.sent - nominal.failures.failed
        metrics = {
            "setup_s": statistics.median(setup_s),
            "throughput_ips": correct_answers / nominal.wall_s,
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_tail_ms": windowed_percentile(lat, TAIL_PERCENTILE, MIN_REQUESTS) * 1e3,
            "peak_rss_mb": server_peak_mb,
        }
    else:
        delta = stats_delta(nominal.stats_before, nominal.stats_after, nominal.wall_s)
        after = nominal.stats_after
        served = ~nominal.cache_hit
        client_p50 = percentile(nominal.latencies(served), 50) * 1e3
        streams = final_stats.get("streams", {})
        memory = models_row.get("memory", {})
        even = np.zeros(nominal.planned, dtype=bool)
        even[::2] = True
        traced_p50 = percentile(nominal.latencies(even), 50)
        plain_p50 = percentile(nominal.latencies(~even), 50)
        metrics = {
            "core.prune_s": reference["prune_s"],
            "core.encode_s": reference["encode_s"],
            "runtime.compile.total_s": reference["compile_s"],
            "runtime.compile.winograd_layers": sum(
                1 for row in models_row.get("schedules", []) if row["kind"].startswith("winograd")
            ),
            "runtime.compile.quantized_layers": models_row.get("quantized_layers", 0),
            "runtime.compile.fallback_layers": models_row.get("fallback_layers", 0),
            "runtime.forward.first_call_s": reference["first_call_s"],
            "runtime.forward.busy_s": delta["model_seconds"],
            "runtime.forward.calls": delta["batches"],
            "runtime.forward.busy_frac": delta["model_busy_frac"],
            "runtime.forward.gflop_per_s": (
                2.0 * reference["macs"] * delta["requests"] / delta["model_seconds"] / 1e9
            ),
            "serving.batcher.queue_wait_p50_ms": after["queue_p50_ms"],
            "serving.batcher.queue_wait_p95_ms": after["queue_p95_ms"],
            "serving.batcher.mean_batch": delta["mean_batch"],
            "serving.batcher.model_busy_frac": delta["model_busy_frac"],
            "serving.batcher.shed": failures.shed,
            "serving.max_rate_rps": max_rate,
            "serving.server.latency_p50_ms": after["p50_ms"],
            "serving.stream.cache_hit_ratio": (
                streams["cache_hits"] / streams["frames"] if streams.get("frames") else 0.0
            ),
            "serving.stream.frame_errors": streams.get("errors", 0),
            "serving.transport.overhead_p50_ms": client_p50 - after["p50_ms"],
            "bench.client.send_us": statistics.median(
                s for out in steps for s in out.send_s
            ) * 1e6,
            "bench.gen.lag_p99_ms": lag_p99_ms,
            "bench.trace.overhead_frac": traced_p50 / plain_p50 - 1.0,
        }
        for pass_name, pass_s in reference["passes"].items():
            metrics[f"runtime.compile.pass.{pass_name}_s"] = pass_s
        for key in ("parameters", "derived", "plans", "arenas"):
            if key in memory:
                metrics[f"runtime.memory.{key}_mb"] = memory[key] / 2**20
    mismatched = failures.mismatched
    return Result(
        metrics=metrics,
        failures=failures,
        correct=valid and mismatched == 0,
        notes=notes,
        details={
            "setup_s": setup_s,
            "import_s": import_s,
            "steps": [
                {"rung": o.rung, "rate": o.rate, "planned": o.planned, "sent": o.sent,
                 "aborted": o.aborted, "held": o.holds_limit(),
                 "p99_ms": percentile(o.latencies(), 99) * 1e3 if o.latencies().size else None,
                 "depth_mid": o.depth_mid, "depth_end": o.depth_end,
                 "failed": o.failures.failed, "mismatches": o.mismatches[:10]}
                for o in steps
            ],
            "snapshots": snapshots,
        },
    ), tracer
