"""Shared fixtures/constants for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md). Benchmarks print the paper's rows —
run with ``pytest benchmarks/ --benchmark-only -s`` to see them — and
assert the paper-shape claims (who wins, by roughly what factor).

``python benchmarks/common.py --smoke`` runs a seconds-scale smoke of the
perf-critical paths (eager conv paths, plan cache, batched
predict, compiled pipeline, analytic speedup) for CI, so a regression in
the hot paths fails fast without the full benchmark suite. It also
measures eager vs compiled serving throughput on the VGG-16 CIFAR shape
and writes the numbers to
``BENCH_runtime.json`` (tracked from PR 2 on,
guarded against regression by ``scripts/bench_guard.py`` in CI),
plus a dynamic-batching serving record — in-process Batcher under
concurrent clients, dense + PCNN configs — to ``BENCH_serving.json``
(tracked from PR 3 on), plus an int8-vs-float32 compiled serving record
on the flagship PCNN config to ``BENCH_quant.json`` (tracked from
PR 4 on).
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import lru_cache

import numpy as np

from repro.models import (
    ModelProfile,
    profile_model,
    resnet18_cifar,
    vgg16_cifar,
    vgg16_imagenet,
)

SEED = 0


@lru_cache(maxsize=None)
def vgg16_cifar_profile() -> ModelProfile:
    model = vgg16_cifar(rng=np.random.default_rng(SEED))
    return profile_model(model, (3, 32, 32), model_name="VGG-16")


@lru_cache(maxsize=None)
def resnet18_cifar_profile() -> ModelProfile:
    model = resnet18_cifar(rng=np.random.default_rng(SEED))
    return profile_model(model, (3, 32, 32), model_name="ResNet-18")


@lru_cache(maxsize=None)
def vgg16_imagenet_profile() -> ModelProfile:
    model = vgg16_imagenet(rng=np.random.default_rng(SEED))
    return profile_model(model, (3, 224, 224), model_name="VGG-16/ImageNet")


# ---------------------------------------------------------------------
# Paper-reported values (ground truth for shape assertions)
# ---------------------------------------------------------------------
PAPER_TABLE1 = {  # n -> (flops_pruned %, compression weight, weight+idx)
    4: (56.5, 2.3, 2.2),
    3: (66.7, 3.0, 2.9),
    2: (77.8, 4.5, 4.1),
    1: (88.9, 9.0, 8.4),
}

PAPER_TABLE2 = {  # ResNet-18
    4: (54.5, 2.2, 2.1),
    3: (65.5, 3.0, 2.8),
    2: (76.7, 4.3, 4.0),
    1: (88.0, 7.9, 7.3),
}

PAPER_TABLE4 = {  # (n, |P|) -> compression weight+idx
    (4, 126): 2.14,
    (4, 32): 2.18,
    (4, 16): 2.20,
    (4, 8): 2.21,
    (4, 4): 2.23,
    (2, 36): 4.08,
    (2, 32): 4.13,
    (2, 16): 4.19,
    (2, 8): 4.26,
    (2, 4): 4.32,
}

PAPER_SPEEDUPS = {4: 2.3, 3: 3.1, 2: 4.5, 1: 9.0}
PAPER_TOPS_PER_WATT = {"dense": 3.15, "n1": 28.39}

# Literature rows quoted by the paper's comparison tables.
PAPER_TABLE5_LITERATURE = [
    ("Filter pruning [18]", "+0.15%", "33.3%", 2.8),
    ("Network slimming [19]", "+0.14%", "51.0%", 8.7),
    ("try-and-learn b=1 [20]", "-1.10%", "82.7%", 2.2),
    ("IKR [21]", "-0.90%", "84.7%", 4.3),
]

PAPER_TABLE6_LITERATURE = [
    ("Band-limited [22]", "-1.67%", "-", 2.0),
    ("try-and-learn b=4 [20]", "-2.90%", "76.0%", 4.6),
]

PAPER_TABLE8_LITERATURE = [
    ("Structured ADMM [23]", "-0.60%", 50.0),
    ("SNIP [24]", "-0.45%", 20.0),
    ("Synaptic Strength [25]", "+0.43%", 25.0),
]


# ---------------------------------------------------------------------
# Serving throughput record (BENCH_runtime.json)
# ---------------------------------------------------------------------
def _interleaved_ips(fns: dict, batch: int, trials: int = 7) -> dict:
    """Median images/sec per candidate over *interleaved* trials.

    Every trial times each candidate back to back, so a slow host window
    (shared-core throttling, noisy neighbours) hits all candidates alike
    instead of whichever happened to be measured in it; speedups are the
    median of per-trial ratios for the same reason.
    """
    for fn in fns.values():  # warm-up: plans, arenas, BLAS thread state
        fn()
    samples = {name: [] for name in fns}
    for _ in range(trials):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            samples[name].append(batch / (time.perf_counter() - start))
    return samples


def _bench_one_config(model, x, batch: int, workers: int) -> dict:
    """Eager vs compiled vs compiled+workers for one model."""
    from repro import runtime

    compiled = runtime.compile_model(model)
    compiled_out = compiled(x)
    eager_out = runtime.predict(model, x)
    max_abs_diff = float(np.abs(compiled_out - eager_out).max())

    winograd_layers = _winograd_layer_count(compiled)

    fns = {
        "eager": lambda: runtime.predict(model, x),
        "compiled": lambda: runtime.predict(compiled, x),
        "workers": lambda: runtime.predict(compiled, x, workers=workers),
    }
    samples = _interleaved_ips(fns, batch)
    eager = np.array(samples["eager"])
    compiled_s = np.array(samples["compiled"])
    workers_s = np.array(samples["workers"])
    row = {
        "eager_images_per_sec": round(float(np.median(eager)), 2),
        "compiled_images_per_sec": round(float(np.median(compiled_s)), 2),
        "compiled_workers_images_per_sec": round(float(np.median(workers_s)), 2),
        "speedup_compiled_vs_eager": round(float(np.median(compiled_s / eager)), 2),
        "speedup_workers_vs_eager": round(float(np.median(workers_s / eager)), 2),
        "max_abs_diff_compiled_vs_eager": max_abs_diff,
        "winograd_layers": winograd_layers,
    }
    return row


def _winograd_layer_count(compiled) -> int:
    """Conv layers the pipeline actually runs on a Winograd schedule.

    ``winograd-auto`` markers resolve to a concrete tile (or back to
    im2col) on the first execution plan, so call this only after the
    compiled model has run once.
    """
    return sum(
        1
        for row in compiled.schedule_summary()
        if row["kind"].startswith("winograd") and row["kind"] != "winograd-auto"
    )


def _bench_winograd(model, x, batch: int) -> dict:
    """Winograd schedules vs the im2col reference on the same model.

    The row ``scripts/bench_guard.py --runtime-only`` hard-gates:
    ``max_abs_diff_winograd_vs_im2col`` must stay under the repo-wide
    1e-4 equivalence budget, and the speedup is the direct evidence the
    F(m,3) pass earns its keep.
    """
    from repro import runtime

    wino = runtime.compile_model(model)
    gemm = runtime.compile_model(model, winograd=False)
    max_abs_diff = float(np.abs(wino(x) - gemm(x)).max())
    samples = _interleaved_ips(
        {
            "winograd": lambda: runtime.predict(wino, x),
            "im2col": lambda: runtime.predict(gemm, x),
        },
        batch,
    )
    wino_s = np.array(samples["winograd"])
    gemm_s = np.array(samples["im2col"])
    return {
        "im2col_images_per_sec": round(float(np.median(gemm_s)), 2),
        "winograd_images_per_sec": round(float(np.median(wino_s)), 2),
        "speedup_winograd_vs_im2col": round(float(np.median(wino_s / gemm_s)), 3),
        "winograd_layers": _winograd_layer_count(wino),
        "max_abs_diff_winograd_vs_im2col": max_abs_diff,
    }


def _bench_int8_kernel(model, x, batch: int) -> dict:
    """True-integer int8 GEMM datapath vs the float-carried code GEMM.

    Both timed pipelines quantize identically (same scales, same codes)
    and run the same column-GEMM schedule (the integer leg compiles with
    ``winograd=False``, since the float-carried kernel never runs int8
    Winograd); the only axis is the GEMM kernel: ``kernel="blocked"``
    runs the exact integer kernel, ``kernel="float"`` carries the codes
    in the float dtype. ``kernel_bit_exact_vs_reference`` additionally
    probes the blocked kernel against the reference integer GEMM on
    random codes with a ragged K tail — bit-identity here is the
    exactness certificate the guard hard-gates. The default integer
    compile runs its eligible layers on the exact int8 F(2x2,3x3)
    schedule (``int8_winograd_layers``); ``int8_winograd_bit_exact``
    records that its logits equal the ``winograd=False`` compile's byte
    for byte, which the guard hard-gates too.
    """
    from repro import runtime
    from repro.runtime.quant import (
        QuantizationConfig,
        int8_gemm_int32,
        int8_gemm_int32_blocked,
    )

    calib = x[:8]
    integer = runtime.compile_model(
        model, quantize=QuantizationConfig(kernel="blocked"), calibration=calib
    )
    floatk = runtime.compile_model(
        model, quantize=QuantizationConfig(kernel="float"), calibration=calib
    )
    column = runtime.compile_model(
        model, quantize=QuantizationConfig(kernel="blocked"), calibration=calib,
        winograd=False,
    )
    int_out = column(x)
    float_out = floatk(x)
    winograd_bit_exact = bool(np.array_equal(integer(x), int_out))
    rel_diff = float(
        np.linalg.norm(int_out - float_out) / np.linalg.norm(float_out)
    )

    rng = np.random.default_rng(SEED + 7)
    a = rng.integers(-127, 128, size=(57, 2 * 1024 + 1)).astype(np.int8)
    b = rng.integers(-127, 128, size=(2 * 1024 + 1, 33)).astype(np.int8)
    bit_exact = bool(
        np.array_equal(int8_gemm_int32_blocked(a, b), int8_gemm_int32(a, b))
    )

    samples = _interleaved_ips(
        {
            "integer": lambda: runtime.predict(column, x),
            "float": lambda: runtime.predict(floatk, x),
        },
        batch,
    )
    int_s = np.array(samples["integer"])
    float_s = np.array(samples["float"])
    return {
        "int8_kernel": column.quantization.int8_kernel,
        "float_gemm_images_per_sec": round(float(np.median(float_s)), 2),
        "int_gemm_images_per_sec": round(float(np.median(int_s)), 2),
        "speedup_int_vs_float_gemm": round(float(np.median(int_s / float_s)), 3),
        "rel_diff_int_vs_float_gemm": round(rel_diff, 6),
        "kernel_bit_exact_vs_reference": bit_exact,
        "int8_winograd_layers": _winograd_layer_count(integer),
        "int8_winograd_bit_exact": winograd_bit_exact,
    }


def _bench_batch1(reps: int = 50) -> dict:
    """Batch-1 compiled forwards of the served PatternNet (n=2, |P|=4).

    Batch 1 on a small network is where the executor's fixed per-op cost
    is the largest fraction of a forward, and every conv of this model
    runs the gather schedule. Each trial runs ``reps`` forwards so a
    single forward's microsecond-scale jitter cannot decide the row.
    ``max_abs_diff_vs_eager`` is the within-run correctness gate.
    """
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import patternnet

    model = patternnet(rng=np.random.default_rng(SEED))
    pruner = PCNNPruner(model, PCNNConfig.uniform(2, 3, num_patterns=4))
    pruner.apply()
    pruner.attach_encodings()
    x = np.random.default_rng(SEED + 5).normal(size=(1, 3, 16, 16))
    compiled = runtime.compile_model(model)
    max_abs_diff = float(np.abs(compiled(x) - runtime.predict(model, x)).max())

    def forwards() -> None:
        for _ in range(reps):
            compiled(x)

    samples = np.array(_interleaved_ips({"compiled": forwards}, reps)["compiled"])
    return {
        "model": "patternnet_n2_p4",
        "batch": 1,
        "forwards_per_trial": reps,
        "images_per_sec": round(float(np.median(samples)), 2),
        "max_abs_diff_vs_eager": max_abs_diff,
    }


def bench_runtime(path: str = "BENCH_runtime.json", batch: int = 32) -> dict:
    """Measure eager vs compiled serving on the VGG-16 CIFAR shape.

    Two configurations, both against PR 1's eager ``predict``:

    - ``pcnn_n2_p8`` — the paper's flagship Table-I setting
      (``PCNNConfig.uniform(2, 13)``: n=2 with 32-pattern codebooks —
      the key keeps its historical ``p8`` name so baselines stay
      comparable — SPM encodings attached): eager serves through the float64 SPM
      path of the eager conv, the compiled pipeline through its lowered ops. This is
      the serving scenario the repo exists for and the headline
      ``speedup_compiled_vs_eager``.
    - ``dense`` — the unpruned model, isolating the compile-pipeline win
      (BN folding + fused epilogues + NHWC + float32 + arenas) without
      any sparsity in play.

    Plus three kernel-level rows, each isolating one schedule axis on
    otherwise-identical pipelines: ``winograd`` (F(m,3) fast-convolution
    schedules vs the im2col reference, with the max-abs divergence the
    guard gates at 1e-4), ``int8_int32`` (the true-integer int8 GEMM vs
    the float-carried code GEMM, with a bit-exactness probe of the
    blocked kernel), and ``batch1`` (batch-1 compiled forwards of the
    served PatternNet, where the executor's fixed cost is the largest
    fraction of a forward, checked against eager).

    Medians over interleaved trials keep one noisy scheduler tick from
    deciding the outcome.
    """
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import vgg16_cifar

    x = np.random.default_rng(SEED + 1).normal(size=(batch, 3, 32, 32))
    workers = min(4, os.cpu_count() or 1)

    dense_model = vgg16_cifar(rng=np.random.default_rng(SEED))
    dense = _bench_one_config(dense_model, x, batch, workers)

    pruned_model = vgg16_cifar(rng=np.random.default_rng(SEED))
    pruner = PCNNPruner(pruned_model, PCNNConfig.uniform(2, 13))
    pruner.apply()
    pruner.attach_encodings()
    pcnn = _bench_one_config(pruned_model, x, batch, workers)

    # Kernel-level rows: Winograd vs im2col on the flagship model and the
    # integer int8 GEMM vs the float-carried one — each isolating exactly
    # one schedule axis — plus batch-1 forwards of the serving model.
    winograd = _bench_winograd(pruned_model, x, batch)
    int8_int32 = _bench_int8_kernel(pruned_model, x, batch)
    batch1 = _bench_batch1()

    record = {
        "benchmark": "runtime_serving",
        "model": "vgg16_cifar",
        "input_shape": [batch, 3, 32, 32],
        "dtype_eager": "float64",
        "dtype_compiled": "float32",
        "flagship_config": "pcnn_n2_p8",
        "eager_images_per_sec": pcnn["eager_images_per_sec"],
        "compiled_images_per_sec": pcnn["compiled_images_per_sec"],
        "compiled_workers": workers,
        "speedup_compiled_vs_eager": pcnn["speedup_compiled_vs_eager"],
        "speedup_workers_vs_eager": pcnn["speedup_workers_vs_eager"],
        "max_abs_diff_compiled_vs_eager": pcnn["max_abs_diff_compiled_vs_eager"],
        "winograd_layers": pcnn["winograd_layers"],
        "configs": {
            "pcnn_n2_p8": pcnn,
            "dense": dense,
            "winograd": winograd,
            "int8_int32": int8_int32,
            "batch1": batch1,
        },
        "cpu_count": os.cpu_count(),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


# ---------------------------------------------------------------------
# Quantized serving record (BENCH_quant.json)
# ---------------------------------------------------------------------
def bench_quant(path: str = "BENCH_quant.json", batch: int = 32) -> dict:
    """Int8 vs float32 compiled serving on the flagship configuration.

    The paper's Table-I flagship (VGG-16 CIFAR,
    ``PCNNConfig.uniform(2, 13)``: n=2, |P|=32, SPM encodings attached)
    compiled twice — plain float32 and ``quantize="int8"`` — and
    compared on (a) accuracy: relative output error and top-1 agreement
    on a synthetic eval batch, and (b) throughput: interleaved median
    images/sec and the median per-trial int8/float32 ratio. Both
    pipelines run the same GEMM schedule: both compile with
    ``winograd=False`` (``float32_winograd``/``int8_winograd: false``),
    because the float leg would run F(4x4) where the int8 leg can only
    run F(2x2), folding a schedule difference into what this record
    isolates, the quantization axis. The exact int8 Winograd schedule
    is measured by the ``int8_int32`` row of ``BENCH_runtime.json``.
    On matched im2col schedules the int8 path wins outright:
    int8-source im2col reads, single-span f32 accumulation under the
    value-aware exactness certificate, folded integer bias, and the
    fused band-wise requantize epilogue (``int8_kernel`` records which
    GEMM kernel served the run) — while the weight artifact drops to
    8-bit storage (``weight_compression_vs_f32``).
    """
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import vgg16_cifar
    from repro.runtime.quant import QuantConvOp

    x = np.random.default_rng(SEED + 3).normal(size=(batch, 3, 32, 32))
    model = vgg16_cifar(rng=np.random.default_rng(SEED))
    pruner = PCNNPruner(model, PCNNConfig.uniform(2, 13))
    pruner.apply()
    pruner.attach_encodings()

    compiled_f32 = runtime.compile_model(model, winograd=False)
    compiled_int8 = runtime.compile_model(
        model, quantize="int8", calibration=x[:8], winograd=False
    )
    report = compiled_int8.quantization

    # Accuracy on a held-out synthetic eval batch.
    eval_x = np.random.default_rng(SEED + 4).normal(size=(4 * batch, 3, 32, 32))
    reference = runtime.predict(compiled_f32, eval_x, micro_batch=batch)
    quantized = runtime.predict(compiled_int8, eval_x, micro_batch=batch)
    rel_error = float(
        np.linalg.norm(quantized - reference) / np.linalg.norm(reference)
    )
    agreement = float(
        (quantized.argmax(axis=1) == reference.argmax(axis=1)).mean()
    )

    # Weight storage: int8 codes (SPM non-zero sequences only) vs dense
    # float32 tensors for the same convs.
    int8_bits = 0
    dense_f32_bits = 0
    for op in compiled_int8.ops:
        if isinstance(op, QuantConvOp):
            if op.encoded is not None:
                int8_bits += op.encoded.values.size * report.bits
            else:
                int8_bits += op.codes_int8.size * report.bits
            int8_bits += op.c_out * 32  # per-kernel scales
            dense_f32_bits += op.c_out * op.c_in * op.kernel[0] * op.kernel[1] * 32

    samples = _interleaved_ips(
        {
            "float32": lambda: runtime.predict(compiled_f32, x),
            "int8": lambda: runtime.predict(compiled_int8, x),
        },
        batch,
    )
    f32 = np.array(samples["float32"])
    int8 = np.array(samples["int8"])
    record = {
        "benchmark": "quantized_serving",
        "model": "vgg16_cifar",
        "config": "pcnn_n2_p8",
        "input_shape": [batch, 3, 32, 32],
        "bits": report.bits,
        "granularity": report.granularity,
        "mode": report.mode,
        "quantized_layers": report.quantized_layers,
        "fallback_layers": report.fallback_layers,
        "int8_kernel": report.int8_kernel,
        "float32_winograd": False,
        "int8_winograd": False,
        "max_layer_weight_error": round(
            max(row["error"] for row in report.layers), 5
        ),
        "eval_images": int(eval_x.shape[0]),
        "rel_output_error": round(rel_error, 5),
        "top1_agreement": agreement,
        "float32_images_per_sec": round(float(np.median(f32)), 2),
        "int8_images_per_sec": round(float(np.median(int8)), 2),
        "speedup_int8_vs_float32": round(float(np.median(int8 / f32)), 3),
        "weight_storage_int8_bits": int(int8_bits),
        "weight_storage_dense_f32_bits": int(dense_f32_bits),
        "weight_compression_vs_f32": round(dense_f32_bits / int8_bits, 2),
        "cpu_count": os.cpu_count(),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


# ---------------------------------------------------------------------
# Serving-layer throughput record (BENCH_serving.json)
# ---------------------------------------------------------------------
def _serve_one_config(model, requests: int, clients: int, input_shape) -> dict:
    """Fire concurrent single-image traffic at an in-process server."""
    from concurrent.futures import ThreadPoolExecutor

    from repro import runtime
    from repro.serving import ModelServer

    server = ModelServer(max_batch=16, max_latency_ms=10.0)
    served = server.add_model("m", model, input_shape)
    server.warmup()
    rng = np.random.default_rng(SEED + 2)
    images = rng.normal(size=(requests,) + tuple(input_shape))
    reference = runtime.predict(served.model, images)

    with server:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = list(pool.map(lambda i: server.submit(images[i]), range(requests)))
        outputs = np.stack([f.result(timeout=120) for f in futures])
        elapsed = time.perf_counter() - start

    max_abs_diff = float(np.abs(outputs - reference).max())
    snap = served.stats.snapshot()
    return {
        "requests": requests,
        "requests_per_sec": round(requests / elapsed, 2),
        "mean_batch": snap["mean_batch"],
        "batches": snap["batches"],
        "batch_histogram": snap["batch_histogram"],
        "p50_ms": snap["p50_ms"],
        "p95_ms": snap["p95_ms"],
        "p99_ms": snap["p99_ms"],
        "queue_p50_ms": snap["queue_p50_ms"],
        "max_abs_diff_vs_predict": max_abs_diff,
    }


def _serve_fleet_config(duration_s: float = 2.0) -> dict:
    """Three-tenant fleet under a budget that forces demotion.

    Tenants ``a:b:c`` run at 2:1:1 fair-share weights under saturation
    (every tenant keeps a standing backlog), with ``memory_budget_mb``
    deliberately below the 3-model working set so the residency manager
    must demote at least one cold tenant mid-run. The row's contract
    (``scripts/bench_guard.py check_fleet``, within-run): zero failed
    admitted requests, at least one demotion, a non-negative ledger,
    and no tenant starved below half its weight share.
    """
    import threading

    from repro.serving import ModelServer

    shape = (3, 16, 16)
    weights = {"a": 2.0, "b": 1.0, "c": 1.0}
    budget_mb = 0.6
    server = ModelServer(
        max_batch=8, max_latency_ms=2.0, memory_budget_mb=budget_mb
    )
    for seed, (name, weight) in enumerate(weights.items()):
        server.load_registry("patternnet", name=name, seed=seed, weight=weight)
    server.warmup()
    rng = np.random.default_rng(SEED + 4)
    image = rng.normal(size=shape)
    errors = []
    stop = threading.Event()

    def feed(name):
        pending = []
        while not stop.is_set():
            pending = [f for f in pending if not f.done()]
            while len(pending) < 16:
                pending.append(server.submit(image, name))
            time.sleep(0.0005)
        for future in pending:
            try:
                future.result(timeout=120)
            except Exception as error:  # noqa: BLE001 - counted by the guard
                errors.append(repr(error))

    with server:
        feeders = [
            threading.Thread(target=feed, args=(name,), daemon=True)
            for name in weights
        ]
        for thread in feeders:
            thread.start()
        time.sleep(duration_s)
        stop.set()
        for thread in feeders:
            thread.join()
        sched = server.scheduler.snapshot()["tenants"]
        residency = server.residency.snapshot()
        stats = server.stats()
    tenants = {}
    for name, weight in weights.items():
        row = residency["tenants"][name]
        tenants[name] = {
            "weight": weight,
            "weight_share": sched[name]["weight_share"],
            "requests": sched[name]["requests"],
            "observed_share": sched[name]["observed_share"],
            "errors": stats[name]["errors"],
            "state_end": row["state"],
            "demotions": row["demotions"],
            "promotions": row["promotions"],
            "evictions": row["evictions"],
            "bytes_end": row["bytes"],
        }
    return {
        "duration_s": duration_s,
        "memory_budget_mb": budget_mb,
        "budget_bytes": residency["budget_bytes"],
        "charged_bytes_end": residency["charged_bytes"],
        "demotions_total": sum(t["demotions"] for t in tenants.values()),
        "failed_requests": sum(t["errors"] for t in tenants.values()),
        "late_failures": errors,
        "tenants": tenants,
    }


def bench_serving(path: str = "BENCH_serving.json", requests: int = 64) -> dict:
    """Serving smoke: in-process Batcher under concurrent clients.

    Two PatternNet configs mirror BENCH_runtime.json's pair — ``dense``
    and the PCNN flagship density (n=2, |P|=4, SPM encodings attached so
    the compiled pipeline serves the pattern gather path). The record
    tracks coalescing (mean batch), latency percentiles and end-to-end
    correctness of the batched path vs plain ``predict``.

    A third row, ``fleet_3models_budget``, saturates three tenants at
    2:1:1 weights under a memory budget below their combined working
    set, recording per-tenant observed shares, demotion/promotion
    counts and the end-of-run byte ledger; ``bench_guard.py``
    hard-fails if any admitted request failed, the budget never forced
    a demotion, the ledger went negative, or a tenant starved below
    half its weight share.

    Finally, the trace-driven scenario rows (``scenario_*``, from
    ``benchmarks/loadgen.py``): committed arrival traces replayed
    open-loop over both the HTTP and binary-stream transports —
    steady-state, burst, and the near-duplicate camera workload that
    exercises the stream transport's per-stream delta cache.
    ``bench_guard.py`` hard-fails on dropped admitted frames, stream
    divergence from ``predict`` past 1e-5, or a near-duplicate run with
    zero delta-cache hits.
    """
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import patternnet

    shape = (3, 16, 16)
    clients = min(16, 4 * (os.cpu_count() or 1))

    dense_model = patternnet(rng=np.random.default_rng(SEED))
    dense = _serve_one_config(dense_model, requests, clients, shape)

    pruned_model = patternnet(rng=np.random.default_rng(SEED))
    pruner = PCNNPruner(pruned_model, PCNNConfig.uniform(2, 3, num_patterns=4))
    pruner.apply()
    pruner.attach_encodings()
    pcnn = _serve_one_config(pruned_model, requests, clients, shape)
    fleet = _serve_fleet_config()

    # Trace-driven open-loop scenarios over both transports (the
    # steady/burst/near-duplicate set the bench guard requires).
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import loadgen

    scenario_rows = loadgen.run_scenarios(
        ["steady", "burst", "near_duplicate"], ["http", "stream"]
    )

    from repro.runtime import effective_cpu_count

    record = {
        "benchmark": "dynamic_batching_serving",
        "model": "patternnet",
        "input_shape": list(shape),
        "concurrent_clients": clients,
        "max_batch": 16,
        "max_latency_ms": 10.0,
        "configs": {
            "pcnn_n2_p4": pcnn,
            "dense": dense,
            "fleet_3models_budget": fleet,
            **scenario_rows,
        },
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective_cpu_count(),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


# ---------------------------------------------------------------------
# CI smoke target
# ---------------------------------------------------------------------
def smoke() -> int:
    """Fast perf-path smoke: eager conv paths, plan cache, predict, sim."""
    from repro import runtime
    from repro.core import (
        PCNNConfig,
        PCNNPruner,
        SPMCodebook,
        encode_layer,
        enumerate_patterns,
        project_to_patterns,
    )
    from repro.models import patternnet
    from repro.nn import Tensor
    from repro.nn.functional import conv2d

    rng = np.random.default_rng(SEED)

    # 1. The eager conv's dense and SPM paths match the conv2d reference.
    patterns = enumerate_patterns(2)[:8]
    weight = project_to_patterns(rng.normal(size=(16, 8, 3, 3)), patterns)
    encoded = encode_layer(weight, SPMCodebook(patterns))
    x = rng.normal(size=(2, 8, 10, 10))
    reference = conv2d(Tensor(x), Tensor(weight), padding=1).data
    for path, kwargs in (("dense", {"weight": weight}), ("spm", {"encoded": encoded})):
        out = runtime.dispatch(x, padding=1, **kwargs)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-10, err_msg=path)
    print("smoke: eager dense and SPM paths match conv2d")

    # 2. Plan cache hits on repeated forwards.
    cache = runtime.PlanCache()
    for _ in range(3):
        runtime.dispatch(x, encoded=encoded, padding=1, cache=cache)
    assert cache.stats.hits == 2 and cache.stats.misses == 1, cache.stats
    print(f"smoke: plan cache {cache.stats.hits} hits / {cache.stats.misses} misses")

    # 3. Batched predict over a pruned model, micro-batch equivalence.
    model = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(SEED))
    PCNNPruner(model, PCNNConfig.uniform(2, 2)).apply()
    images = rng.normal(size=(4, 3, 12, 12))
    full = runtime.predict(model, images)
    split = runtime.predict(model, images, micro_batch=2)
    np.testing.assert_allclose(split, full, rtol=1e-9, atol=1e-10)
    print(f"smoke: predict ok, output {full.shape}")

    # 4. Compiled pipeline (BN folding + fused epilogues + arenas)
    #    matches eager eval output, dense and SPM-encoded.
    compiled = runtime.compile_model(model)
    np.testing.assert_allclose(compiled(images), full, rtol=1e-4, atol=1e-5)
    pruner = PCNNPruner(model, PCNNConfig.uniform(2, 2))
    pruner.apply()
    pruner.attach_encodings()
    encoded_full = runtime.predict(model, images)
    np.testing.assert_allclose(
        runtime.compile_model(model)(images), encoded_full, rtol=1e-4, atol=1e-5
    )
    np.testing.assert_allclose(
        runtime.predict(model, images, compile=True, micro_batch=2, workers=2),
        encoded_full, rtol=1e-4, atol=1e-5,
    )
    print("smoke: compiled pipeline matches eager (dense + SPM, workers)")

    # 5. Analytic architecture speedup still tracks 9/n on VGG-16.
    from repro.arch import simulate_network_analytic

    result = simulate_network_analytic(vgg16_cifar_profile(), PCNNConfig.uniform(2, 13))
    assert abs(result.speedup - 4.5) < 0.1, result.speedup
    print(f"smoke: analytic VGG-16 speedup n=2 -> {result.speedup:.2f}x")

    # 6. Serving throughput record: eager vs compiled, 1 vs N workers,
    #    dense and PCNN-pruned (flagship) configs.
    record = bench_runtime()
    for name, row in record["configs"].items():
        if "eager_images_per_sec" not in row:
            continue  # kernel-level rows report their own fields
        print(
            f"smoke: BENCH_runtime.json [{name}] -> "
            f"eager {row['eager_images_per_sec']} ips, "
            f"compiled {row['compiled_images_per_sec']} ips "
            f"({row['speedup_compiled_vs_eager']}x), "
            f"{record['compiled_workers']} workers "
            f"{row['compiled_workers_images_per_sec']} ips"
        )
        assert row["max_abs_diff_compiled_vs_eager"] < 1e-4, (name, row)
        assert row["speedup_compiled_vs_eager"] >= 2.0, (
            f"compiled serving should be well ahead of eager predict; "
            f"got {row['speedup_compiled_vs_eager']}x on {name}"
        )
    wino = record["configs"]["winograd"]
    print(
        f"smoke: BENCH_runtime.json [winograd] -> im2col "
        f"{wino['im2col_images_per_sec']} ips vs winograd "
        f"{wino['winograd_images_per_sec']} ips "
        f"({wino['speedup_winograd_vs_im2col']}x, "
        f"{wino['winograd_layers']} layers, "
        f"diff {wino['max_abs_diff_winograd_vs_im2col']:.1e})"
    )
    # Correctness is the hard gate; the speedup floor is parity minus
    # noise (the measured margin on the 1-core container is ~1.5x+).
    assert wino["max_abs_diff_winograd_vs_im2col"] < 1e-4, wino
    assert wino["winograd_layers"] >= 8, wino
    assert wino["speedup_winograd_vs_im2col"] >= 1.0, wino
    int8_row = record["configs"]["int8_int32"]
    print(
        f"smoke: BENCH_runtime.json [int8_int32] -> float-GEMM "
        f"{int8_row['float_gemm_images_per_sec']} ips vs "
        f"{int8_row['int8_kernel']}-GEMM "
        f"{int8_row['int_gemm_images_per_sec']} ips "
        f"({int8_row['speedup_int_vs_float_gemm']}x, "
        f"rel diff {int8_row['rel_diff_int_vs_float_gemm']:.1e}, "
        f"bit-exact {int8_row['kernel_bit_exact_vs_reference']}, "
        f"{int8_row['int8_winograd_layers']} int8 Winograd layers, "
        f"identical to winograd=False {int8_row['int8_winograd_bit_exact']})"
    )
    assert int8_row["kernel_bit_exact_vs_reference"], int8_row
    assert int8_row["int8_winograd_bit_exact"], int8_row
    assert int8_row["int8_winograd_layers"] >= 1, int8_row
    # The two pipelines share scales and codes; they only differ in the
    # requantize epilogue's rounding precision, so the outputs stay
    # within a sliver of the quantization error itself.
    assert int8_row["rel_diff_int_vs_float_gemm"] < 0.02, int8_row
    batch1_row = record["configs"]["batch1"]
    print(
        f"smoke: BENCH_runtime.json [batch1] -> "
        f"{batch1_row['images_per_sec']} ips at batch 1 "
        f"(diff vs eager {batch1_row['max_abs_diff_vs_eager']:.1e})"
    )
    assert batch1_row["max_abs_diff_vs_eager"] <= 1e-4, batch1_row

    # 7. Dynamic-batching serving record: in-process Batcher under
    #    concurrent clients, dense + PCNN flagship density.
    serving = bench_serving()
    for name, row in serving["configs"].items():
        if "requests_per_sec" not in row:
            continue  # fleet/scenario rows carry their own shapes, below
        print(
            f"smoke: BENCH_serving.json [{name}] -> "
            f"{row['requests_per_sec']} req/s, mean batch {row['mean_batch']}, "
            f"p50 {row['p50_ms']:.1f} ms / p99 {row['p99_ms']:.1f} ms"
        )
        assert row["max_abs_diff_vs_predict"] < 1e-4, (name, row)
        assert row["mean_batch"] > 1.0, (
            f"dynamic batching should coalesce concurrent requests; "
            f"histogram {row['batch_histogram']} on {name}"
        )
    fleet = serving["configs"]["fleet_3models_budget"]
    shares = {
        name: f"{t['observed_share']:.2f}/{t['weight_share']:.2f}"
        for name, t in fleet["tenants"].items()
    }
    print(
        f"smoke: BENCH_serving.json [fleet_3models_budget] -> "
        f"{fleet['demotions_total']} demotions under "
        f"{fleet['memory_budget_mb']} MiB, {fleet['failed_requests']} "
        f"failed, shares obs/weight {shares}"
    )
    assert fleet["failed_requests"] == 0, fleet
    assert fleet["demotions_total"] >= 1, fleet
    for key, row in serving["configs"].items():
        if not key.startswith("scenario_"):
            continue
        print(
            f"smoke: BENCH_serving.json [{key}] -> offered {row['offered']} "
            f"(peak {row['offered_rps_peak']:g} rps), completed "
            f"{row['completed']}, shed {row['shed_total']}, "
            f"p99 {row['p99_ms']} ms, diff {row['max_abs_diff_vs_predict']:.1e}"
            + (
                f", cache hit rate {row['cache_hit_rate']:.0%}"
                if "cache_hit_rate" in row else ""
            )
        )
        # Zero-drop invariant: every admitted frame answers.
        assert row["dropped"] == 0, (key, row)
        tolerance = 1e-5 if row["transport"] == "stream" else 1e-4
        assert row["max_abs_diff_vs_predict"] <= tolerance, (key, row)
    near_dup = serving["configs"]["scenario_near_duplicate_stream"]
    assert near_dup["cache_hits"] > 0, near_dup

    # 8. Quantized serving record: int8 vs float32 compiled on the
    #    flagship config (matched im2col schedules) — accuracy within
    #    the quantization budget, full top-1 agreement, int8 ahead on
    #    throughput.
    quant = bench_quant()
    print(
        f"smoke: BENCH_quant.json [{quant['config']}] -> "
        f"f32 {quant['float32_images_per_sec']} ips, "
        f"int8 {quant['int8_images_per_sec']} ips "
        f"({quant['speedup_int8_vs_float32']}x), "
        f"rel err {quant['rel_output_error']}, "
        f"top-1 agreement {quant['top1_agreement']:.3f}, "
        f"{quant['weight_compression_vs_f32']}x weight storage"
    )
    assert quant["top1_agreement"] >= 0.99, quant
    assert quant["rel_output_error"] < 0.05, quant
    assert quant["fallback_layers"] == 0, quant
    # On matched im2col schedules the int8 path is genuinely faster
    # (int8-source im2col reads, single-span f32 accumulation, fused
    # band-wise requantize); the recorded speedup is the tracked signal
    # and the committed-number gate lives in scripts/bench_guard.py.
    # The asserted floor here is a loose regression backstop (it catches
    # structural slowdowns like accidental per-call quantization) sized
    # so shared-CI-runner noise alone cannot trip it.
    assert quant["speedup_int8_vs_float32"] >= 0.75, quant
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        sys.exit(smoke())
    print("usage: python benchmarks/common.py --smoke", file=sys.stderr)
    sys.exit(2)
