"""Multi-model serving registry on top of the compiled pipeline.

:class:`ModelServer` owns everything between "a model artifact exists"
and "requests get answers": it loads models by registry name (optionally
PCNN-pruning them first) or from a :class:`~repro.core.deploy.DeploymentBundle`
``.npz`` (whose :meth:`restore_into` installs weights, masks *and* SPM
encodings, so pruned convs serve through the pattern path), compiles each
model once (:func:`~repro.runtime.compile_model`, optionally to the int8
execution path via ``quantize=``), warms plans and arena buffers for
every batch bucket before traffic arrives, and runs one dynamic
:class:`~repro.serving.batcher.Batcher` per model that flushes into
``runtime.predict(compiled, workers=N)``. Everything runs in this
process: flushes use BLAS and the compiled pipeline's thread lanes.

Each batcher gets the server-wide admission policy (``max_queue`` →
429, ``slo_ms`` → 503), and the model registry is *hot*:
:meth:`add_model` with ``replace=True`` (and :meth:`remove_model`)
compile/warm off the serving path, atomically swap the registry entry,
and drain the old batcher without dropping a single accepted request.

Multi-tenant fleets add two more coordinators, both owned here:

- A :class:`~repro.serving.scheduler.FlushScheduler` dispatches every
  tenant's flushes centrally (deficit-weighted round-robin over
  per-model ``weight=``, SLO deadlines first), so under saturation
  throughput tracks the configured weights instead of thread-scheduler
  luck. Per-model ``max_queue``/``slo_ms``/``rate`` overrides give each
  tenant its own admission contract (``rate`` sheds over-quota traffic
  with HTTP 429 kind ``quota_exceeded``).
- A :class:`~repro.serving.residency.ResidencyManager` keeps the
  fleet's reclaimable working set (plans, arenas, derived GEMM
  operands) under ``memory_budget_mb``: cold tenants are demoted, then
  evicted, LRU-first; a request landing on a demoted/evicted tenant
  re-promotes it inside the flush guard (warm re-prepare — never a
  recompile) so admitted traffic never fails on residency. Transitions
  land in the server's :class:`~repro.serving.incidents.IncidentLog`
  (``GET /incidents``) and on ``/models``, ``/stats`` and ``/metrics``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import runtime
from ..core.deploy import DeploymentBundle
from ..models import create_model, model_input_shape
from .batcher import Batcher, bucket_sizes
from .incidents import IncidentLog
from .residency import ResidencyManager
from .scheduler import FlushScheduler
from .stats import ServerStats

__all__ = ["ServedModel", "ModelServer"]

#: Sentinel distinguishing "not passed" from an explicit ``None`` (which
#: means *unbounded*/*disabled*) in per-model admission overrides.
_DEFAULT = object()


@dataclass
class ServedModel:
    """One endpoint: eager source model, compiled pipeline, batcher."""

    name: str
    model: object  # the eager nn.Module (encodings attached when pruned)
    compiled: Optional[runtime.CompiledModel]
    input_shape: Tuple[int, int, int]  # (C, H, W)
    batcher: Batcher
    stats: ServerStats
    source: str = "registry"
    meta: dict = field(default_factory=dict)

    @property
    def target(self) -> object:
        """What predict() serves: the compiled pipeline when available."""
        return self.compiled if self.compiled is not None else self.model

    def validate(self, x: np.ndarray) -> np.ndarray:
        """Coerce one image to float64 and check it matches input_shape."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.input_shape:
            raise ValueError(
                f"model {self.name!r} expects one {self.input_shape} image, "
                f"got shape {x.shape}"
            )
        return x

    def describe(self) -> dict:
        """JSON-ready row for the /models endpoint."""
        row = {
            "input_shape": list(self.input_shape),
            "compiled": self.compiled is not None,
            "source": self.source,
            "weight": self.batcher.weight,
            **self.meta,
        }
        if self.compiled is not None:
            # Computed per request, not at load time: winograd-auto tiles
            # resolve on the first real flush — so /models answers "which
            # fast paths is this tenant actually on" with current state.
            row["schedules"] = self.compiled.schedule_summary()
        return row


class ModelServer:
    """Registry of served models with per-model dynamic batching.

    Parameters
    ----------
    workers:
        Thread-pool width each flush fans out over
        (``runtime.predict(compiled, workers=N)``); ``None``/1 keeps
        flushes single-threaded.
    max_batch / max_latency_ms:
        Default coalescing policy for every model's batcher.
    compile:
        Lower each model with :func:`runtime.compile_model` at load time
        (``False`` serves the eager module graph — mainly for tests and
        bit-exact float64 comparisons).
    quantize:
        Compile every loaded model to the int8 execution path
        (:mod:`repro.runtime.quant`): ``"int8"``, a bit width, or a
        :class:`~repro.runtime.QuantizationConfig`. Activation scales
        calibrate on a deterministic synthetic batch unless the loader
        is given a real ``calibration=`` batch. Requires ``compile``.
    max_queue:
        Admission-control high-water mark for every model's batcher:
        past this many queued requests, :meth:`submit` raises
        :class:`~repro.serving.batcher.QueueFull` (HTTP 429 with a
        ``Retry-After`` derived from the drain rate). ``None`` keeps
        queues unbounded.
    slo_ms:
        Per-request latency SLO for every model's batcher: flushes fire
        early to make the oldest request's deadline, and requests that
        blew the SLO while queued are shed with
        :class:`~repro.serving.batcher.SLOExpired` (HTTP 503).
    memory_budget_mb:
        Fleet-wide budget (MiB) for reclaimable resident bytes — plan
        caches, arena scratch and derived GEMM operands across every
        tenant. Over budget, the
        :class:`~repro.serving.residency.ResidencyManager` demotes the
        least-recently-used tenants (drop workspaces), then evicts them
        (drop derived op state too); weights and the lowered IR always
        stay, so the next request re-promotes with a warm ``prepare`` —
        never a recompile. ``None`` (default) disables enforcement but
        keeps the byte accounting on /stats and /models live.
    scheduler_threads:
        Dispatch threads of the central
        :class:`~repro.serving.scheduler.FlushScheduler`. One (default)
        strictly serialises flushes in weighted-fair order; more let
        flushes of different tenants overlap.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        max_batch: int = 32,
        max_latency_ms: float = 2.0,
        compile: bool = True,
        quantize=None,
        max_queue: Optional[int] = None,
        slo_ms: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
        scheduler_threads: int = 1,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        if slo_ms is not None and slo_ms <= 0:
            raise ValueError("slo_ms must be > 0 (or None to disable)")
        if quantize is not None and not compile:
            raise ValueError("quantize= requires the compiled pipeline (compile=True)")
        self.workers = workers
        self.max_batch = max_batch
        self.max_latency_ms = max_latency_ms
        self.compile = compile
        self.quantize = quantize
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be > 0 (or None to disable)")
        self.max_queue = max_queue
        self.slo_ms = slo_ms
        self.incidents = IncidentLog()
        self.memory_budget_mb = memory_budget_mb
        self.residency = ResidencyManager(
            None if memory_budget_mb is None else int(memory_budget_mb * 2**20),
            on_event=self.incidents.record,
        )
        self.scheduler = FlushScheduler(threads=scheduler_threads)
        #: The binary streaming front end, when one is attached
        #: (:class:`~repro.serving.stream.StreamServer` registers itself
        #: here so ``/stats`` and ``/metrics`` can report stream state).
        self.stream_server = None
        self.models: Dict[str, ServedModel] = {}
        self._lock = threading.Lock()
        self._started = False

    # -- loading -------------------------------------------------------
    def _calibration_batch(self, input_shape: Tuple[int, int, int]) -> np.ndarray:
        """Deterministic synthetic batch for int8 activation calibration.

        Serving real traffic, pass a real ``calibration=`` batch to the
        loader instead — synthetic normal images bound activation ranges
        well enough for randomly-initialised reproduction models, but
        say nothing about a trained model's real input distribution.
        """
        rng = np.random.default_rng(0)
        return rng.normal(size=(8,) + tuple(input_shape))

    def _guarded(self, name: str, runner):
        """Wrap a runner in the tenant's residency guard.

        The guard holds the tenant's lock for the flush (demotion can
        never race a running GEMM), promotes a demoted/evicted tenant
        first (admitted traffic never fails on residency) and settles
        the byte ledger afterwards. Before the tenant is admitted
        (warmup runs pre-install) the guard is a pass-through.
        """
        def run(x):
            with self.residency.guard(name):
                return runner(x)
        return run

    def _build_served(
        self,
        name: str,
        model,
        input_shape: Tuple[int, int, int],
        *,
        source: str,
        meta: Optional[dict],
        calibration: Optional[np.ndarray],
        weight: float = 1.0,
        rate: Optional[float] = None,
        max_queue=_DEFAULT,
        slo_ms=_DEFAULT,
    ) -> ServedModel:
        """Compile/quantize and assemble a :class:`ServedModel`.

        Deliberately runs *outside* the registry lock so a hot reload's
        compile+warm never stalls traffic on already-served models; the
        atomic swap happens later in :meth:`_install`.
        """
        if max_queue is _DEFAULT:
            max_queue = self.max_queue
        if slo_ms is _DEFAULT:
            slo_ms = self.slo_ms
        compiled = None
        if self.compile:
            if self.quantize is not None and calibration is None:
                calibration = self._calibration_batch(input_shape)
            compiled = runtime.compile_model(
                model,
                quantize=self.quantize,
                calibration=calibration,
                input_shape=input_shape,
            )
        stats = ServerStats()
        target = compiled if compiled is not None else model
        # Flushes run inside the residency guard: promotion-if-needed
        # before, ledger settle after.
        runner = self._guarded(
            name, lambda x: runtime.predict(target, x, workers=self.workers)
        )
        served_meta = dict(meta or {})
        if compiled is not None:
            # Cache observability: plan-reuse regressions (a cold
            # plan cache on every flush) show up on GET /stats instead
            # of only in profiles.
            plans = compiled.plans
            stats.attach_cache(
                "plans",
                lambda: {
                    "hits": plans.stats.hits,
                    "misses": plans.stats.misses,
                    "evictions": plans.stats.evictions,
                    "hit_rate": round(plans.stats.hit_rate, 3),
                    "size": len(plans),
                    "bytes": plans.object_nbytes,
                },
            )
        if compiled is not None and compiled.quantization is not None:
            report = compiled.quantization
            served_meta.update(
                quantized=f"int{report.bits}",
                quantized_layers=report.quantized_layers,
                fallback_layers=report.fallback_layers,
            )
        return ServedModel(
            name=name,
            model=model,
            compiled=compiled,
            input_shape=tuple(input_shape),
            batcher=Batcher(
                runner,
                max_batch=self.max_batch,
                max_latency_ms=self.max_latency_ms,
                stats=stats,
                max_queue=max_queue,
                slo_ms=slo_ms,
                weight=weight,
                rate=rate,
            ),
            stats=stats,
            source=source,
            meta=served_meta,
        )

    def _install(self, served: ServedModel, replace: bool) -> Optional[ServedModel]:
        """Atomically swap ``served`` into the registry; return the old entry.

        New requests route to the new entry the moment the dict slot
        changes; requests already queued on a replaced entry's batcher
        are drained by :meth:`_retire_served` afterwards, so a reload
        never drops an accepted request.
        """
        with self._lock:
            old = self.models.get(served.name)
            if old is not None and not replace:
                raise KeyError(f"model {served.name!r} is already registered")
            self.models[served.name] = served
            started = self._started
        # Fleet bookkeeping: charge the tenant to the byte ledger and
        # hand its flushes to the central scheduler.
        self.residency.admit(served.name, served.compiled)
        self.scheduler.register(served.name, served.batcher)
        if started:
            served.batcher.start()
        return old

    def _retire_served(self, served: ServedModel, *, forget: bool = True) -> None:
        """Drain and tear down a registry entry that was swapped out.

        ``forget=False`` is the hot-reload path: the replacement already
        took over the tenant's ledger slot, so only the outgoing entry's
        queue is drained here.
        """
        # No-op for a replaced entry (register() already detached it);
        # otherwise waits out the in-flight flush before deregistering.
        self.scheduler.unregister(served.batcher)
        served.batcher.stop(drain=True)
        if forget:
            # Discharge the ledger the moment the tenant is gone — the
            # freed budget is available to the survivors immediately.
            self.residency.forget(served.name)

    def add_model(
        self,
        name: str,
        model,
        input_shape: Tuple[int, int, int],
        *,
        source: str = "custom",
        meta: Optional[dict] = None,
        calibration: Optional[np.ndarray] = None,
        replace: bool = False,
        warm: bool = False,
        weight: float = 1.0,
        rate: Optional[float] = None,
        max_queue=_DEFAULT,
        slo_ms=_DEFAULT,
    ) -> ServedModel:
        """Register an already-built model under ``name``.

        ``calibration`` (only meaningful with the server's ``quantize=``)
        overrides the synthetic activation-calibration batch.

        ``weight``/``rate``/``max_queue``/``slo_ms`` set this tenant's
        fair-share weight, rate quota (req/s, HTTP 429 kind
        ``quota_exceeded`` past it) and admission/SLO contract; the
        latter two default to the server-wide policy (pass ``None``
        explicitly for unbounded/disabled).

        With ``replace=True`` an existing registration is hot-swapped:
        the new model compiles (and, with ``warm=True``, warms every
        flush geometry) off the serving path, then atomically takes over
        the registry slot while the old entry's batcher drains — accepted
        requests on either entry all complete. Without ``replace``, a name
        collision raises ``KeyError`` before any compile work happens.
        """
        with self._lock:
            if name in self.models and not replace:
                raise KeyError(f"model {name!r} is already registered")
        served = self._build_served(
            name, model, input_shape,
            source=source, meta=meta, calibration=calibration,
            weight=weight, rate=rate, max_queue=max_queue, slo_ms=slo_ms,
        )
        if warm:
            self._warm_served(served)
        old = self._install(served, replace=replace)
        if old is not None:
            # forget=False: the new entry already took over the ledger
            # slot; forgetting would discharge the *live* tenant.
            self._retire_served(old, forget=False)
        return served

    def remove_model(self, name: str) -> None:
        """Unregister ``name`` and tear it down, draining accepted work.

        The registry slot disappears first (new requests get 404), then
        the batcher drains whatever was already accepted, the tenant's
        ledger charge is discharged (the freed budget is immediately
        available — no leak).
        """
        with self._lock:
            served = self.models.pop(name, None)
        if served is None:
            raise KeyError(f"unknown model {name!r}; serving {sorted(self.models)}")
        self._retire_served(served)

    def load_registry(
        self,
        model_name: str,
        *,
        name: Optional[str] = None,
        n: Optional[int] = None,
        patterns: Optional[int] = None,
        seed: int = 0,
        calibration: Optional[np.ndarray] = None,
        replace: bool = False,
        warm: bool = False,
        weight: float = 1.0,
        rate: Optional[float] = None,
        max_queue=_DEFAULT,
        slo_ms=_DEFAULT,
    ) -> ServedModel:
        """Load a registered model, optionally PCNN-pruned before serving.

        With ``n`` given, the model is pruned (``PCNNPruner``) and the
        SPM encodings are attached, so its convs serve from pattern
        storage exactly as a bundle-restored model would.
        ``calibration`` feeds int8 activation calibration when the
        server was built with ``quantize=``. ``replace``/``warm`` hot
        swap an existing registration (see :meth:`add_model`).
        """
        from ..core import PCNNConfig, PCNNPruner
        from ..models import profile_model

        model = create_model(model_name, rng=np.random.default_rng(seed))
        meta = {"model": model_name, "setting": "dense"}
        if n is not None:
            profile = profile_model(
                model, model_input_shape(model_name), model_name=model_name
            )
            config = PCNNConfig.uniform(
                n, len(profile.prunable()), num_patterns=patterns
            )
            pruner = PCNNPruner(model, config)
            pruner.apply()
            pruner.attach_encodings()
            meta["setting"] = config.describe()
        return self.add_model(
            name or model_name,
            model,
            model_input_shape(model_name),
            source="registry",
            meta=meta,
            calibration=calibration,
            replace=replace,
            warm=warm,
            weight=weight,
            rate=rate,
            max_queue=max_queue,
            slo_ms=slo_ms,
        )

    def load_bundle(
        self,
        bundle_path: str,
        model_name: str,
        *,
        name: Optional[str] = None,
        seed: int = 0,
        calibration: Optional[np.ndarray] = None,
        replace: bool = False,
        warm: bool = False,
        weight: float = 1.0,
        rate: Optional[float] = None,
        max_queue=_DEFAULT,
        slo_ms=_DEFAULT,
    ) -> ServedModel:
        """Serve a :class:`DeploymentBundle` ``.npz`` on a registry model.

        The bundle's :meth:`~DeploymentBundle.restore_into` installs the
        pruned weights, masks and SPM encodings into a freshly built
        model, so the compiled pipeline lowers the pruned convs from
        their encodings (pattern serving) rather than dense weights.
        With the server's ``quantize=`` set, an 8-bit bundle serves int8
        end to end: the quantization pass re-quantizes the encoding's
        non-zero sequences directly (``(kernels, n)`` values, per output
        filter), so the dense float weight tensor is never materialised
        between bundle storage and the int8 GEMM operand.
        """
        model = create_model(model_name, rng=np.random.default_rng(seed))
        bundle = DeploymentBundle.load(bundle_path)
        bundle.restore_into(model)
        return self.add_model(
            name or model_name,
            model,
            model_input_shape(model_name),
            source="bundle",
            meta={
                "model": model_name,
                "bundle": bundle_path,
                "layers": len(bundle.layers),
                "storage_bits": bundle.storage_bits(),
                "bundle_weight_bits": sorted(
                    {layer.weight_bits for layer in bundle.layers.values()}
                ),
            },
            calibration=calibration,
            replace=replace,
            warm=warm,
            weight=weight,
            rate=rate,
            max_queue=max_queue,
            slo_ms=slo_ms,
        )

    # -- lifecycle -----------------------------------------------------
    def get(self, name: Optional[str] = None) -> ServedModel:
        """Look up a served model; ``None`` resolves a sole registration."""
        if name is None:
            if len(self.models) == 1:
                return next(iter(self.models.values()))
            raise KeyError(
                f"model name required; serving {sorted(self.models) or 'nothing'}"
            )
        served = self.models.get(name)
        if served is None:
            raise KeyError(f"unknown model {name!r}; serving {sorted(self.models)}")
        return served

    def _warm_served(self, served: ServedModel) -> None:
        """Prebuild plans and arena buffers for one model's buckets."""
        for size in bucket_sizes(self.max_batch):
            x = np.zeros((size,) + served.input_shape)
            served.batcher.runner(x)

    def warmup(self) -> None:
        """Prebuild plans and arena buffers for every batch bucket.

        Runs one zero batch per bucket geometry through each model's
        runner, so the first real request never pays plan construction
        or a large allocation.
        """
        for served in list(self.models.values()):
            self._warm_served(served)

    def start(self) -> "ModelServer":
        """Start the flush scheduler and every batcher."""
        self.scheduler.start()
        with self._lock:
            self._started = True
            models = list(self.models.values())
        for served in models:
            served.batcher.start()
        return self

    def stop(self) -> None:
        """Stop every batcher (draining), then the scheduler.

        Each batcher drains its queue inline (quiescing its in-flight
        scheduled flush) before the scheduler's dispatch threads stop.
        """
        with self._lock:
            self._started = False
            models = list(self.models.values())
        for served in models:
            served.batcher.stop()
        self.scheduler.stop()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- serving -------------------------------------------------------
    def submit(self, x: np.ndarray, model: Optional[str] = None):
        """Enqueue one ``(C, H, W)`` image; returns its Future."""
        served = self.get(model)
        return served.batcher.submit(served.validate(x))

    def predict(
        self, x: np.ndarray, model: Optional[str] = None, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Synchronous single-image prediction through the batcher."""
        return self.submit(x, model).result(timeout=timeout)

    # -- observability -------------------------------------------------
    def describe_model(self, name: str) -> dict:
        """One /models row: endpoint metadata + residency + fair share."""
        served = self.get(name)
        row = served.describe()
        residency = self.residency.describe_tenant(name)
        if residency is not None:
            row.update(residency)
        return row

    def describe_models(self) -> dict:
        """The /models payload: every tenant's row, residency included."""
        return {name: self.describe_model(name) for name in list(self.models)}

    def stats(self) -> dict:
        """Per-model stats snapshots plus the ``_fleet`` block.

        ``_fleet`` (the underscore keeps it clear of model names) holds
        the residency ledger (budget/charged/headroom, per-tenant state)
        and the scheduler's fairness accounting (weights, observed
        shares, deficits).
        """
        report = {
            name: served.stats.snapshot(queue_depth=served.batcher.queue_depth)
            for name, served in self.models.items()
        }
        report["_fleet"] = {
            "residency": self.residency.snapshot(),
            "scheduler": self.scheduler.snapshot(),
        }
        return report

    def render_stats(self) -> str:
        """Shutdown summary, one block per served model."""
        return "\n".join(
            served.stats.render(title=name) for name, served in self.models.items()
        )

    def __repr__(self) -> str:
        return (
            f"ModelServer(models={sorted(self.models)}, "
            f"max_batch={self.max_batch}, max_latency_ms={self.max_latency_ms}, "
            f"workers={self.workers})"
        )
