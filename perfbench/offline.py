"""Offline workloads: closed-loop ``runtime.predict`` on VGG-16 CIFAR.

``vgg16_f32`` and ``vgg16_int8`` serve the Table I flagship
(``vgg16_cifar`` pruned with ``PCNNConfig.uniform(2, 13)``: n=2,
|P|=8, SPM encodings attached) to one caller that sends the next batch
of 32 images as soon as the previous one is answered.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

from harness import (
    Failures,
    Result,
    Tracer,
    nonzero_macs_per_image,
    peak_rss_mb,
    percentile,
    samples_needed,
)

BATCH = 32
#: Distinct input batches cycled through the timed loop (repeats are
#: what the int8 bit-identity check compares).
INPUT_BATCHES = 2
N_NONZERO = 2
MODEL_SEED = 0
#: The int8 calibration batch is fixed, not drawn from ``--seed``, so
#: every run serves the same quantized pipeline.
CALIBRATION_SEED = 1234
CALIBRATION_IMAGES = 8
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
TAIL_PERCENTILE = 90.0
F32_TOLERANCE = 1e-5


def _images(seed: int, count: int, sample_seed: int) -> np.ndarray:
    from repro.data.synthetic import SyntheticImages, SyntheticSpec

    generator = SyntheticImages(SyntheticSpec(image_size=32), seed=seed)
    return generator.sample(count, seed=sample_seed)[0]


def make_inputs(seed: int) -> List[np.ndarray]:
    """The run's input batches: CIFAR-shaped synthetic images from ``seed``."""
    return [_images(seed, BATCH, seed * INPUT_BATCHES + i) for i in range(INPUT_BATCHES)]


def setup(quantize: bool, first_batch, calibration, tracer: Tracer) -> dict:
    """Build, prune, encode, compile, first forward — timed per layer."""
    from repro import runtime
    from repro.core import PCNNConfig, PCNNPruner
    from repro.models import vgg16_cifar

    root = tracer.add("bench.setup", 0.0, 0.0)
    start = time.perf_counter()
    model, _, build_s = tracer.timed(
        "bench.build", vgg16_cifar, rng=np.random.default_rng(MODEL_SEED), parent=root
    )
    pruner = PCNNPruner(model, PCNNConfig.uniform(N_NONZERO, 13))
    _, _, prune_s = tracer.timed("core.prune", pruner.apply, parent=root)
    _, _, encode_s = tracer.timed("core.encode", pruner.attach_encodings, parent=root)
    kwargs = {"quantize": "int8", "calibration": calibration} if quantize else {}
    compiled, compile_span, compile_s = tracer.timed(
        "runtime.compile", runtime.compile_model, model, parent=root, **kwargs
    )
    # Pass spans are laid end to end inside the compile span from the
    # durations the program recorded (PassRecord.seconds).
    cursor = tracer.spans[compile_span].start if tracer.enabled else 0.0
    for record in compiled.passes:
        tracer.add(
            f"runtime.compile.pass.{record.name}", cursor, cursor + record.seconds,
            parent=compile_span, derived=True,
        )
        cursor += record.seconds
    _, _, first_call_s = tracer.timed(
        "runtime.forward.first_call", runtime.predict, compiled, first_batch, parent=root
    )
    end = time.perf_counter()
    if tracer.enabled:
        tracer.spans[root].start, tracer.spans[root].end = start, end
    return {
        "model": model,
        "compiled": compiled,
        "total_s": end - start,
        "build_s": build_s,
        "prune_s": prune_s,
        "encode_s": encode_s,
        "compile_s": compile_s,
        "first_call_s": first_call_s,
        "passes": {record.name: record.seconds for record in compiled.passes},
    }


def _check(quantize, bound, model, batches, outputs, batch_index, failures: Failures) -> float:
    """Compare every answer with the eager float64 model; return the worst error.

    float32: each image within ``F32_TOLERANCE`` (absolute) of eager.
    int8: each batch's first answer within the QuantizationReport bound
    (relative L2 error <= ``bound``) of eager, and every repeat of a
    batch bit-identical to its first answer.
    """
    from repro import runtime

    worst = 0.0
    for index, batch in enumerate(batches):
        answers = [out for out, b in zip(outputs, batch_index) if b == index]
        if not answers:
            continue
        reference = runtime.predict(model, batch)
        if quantize:
            first = answers[0]
            rel = float(np.linalg.norm(first - reference) / np.linalg.norm(reference))
            worst = max(worst, rel)
            for answer in answers:
                if rel > bound:
                    failures.mismatched += len(answer)
                else:
                    failures.mismatched += int((~np.all(answer == first, axis=1)).sum())
        else:
            for answer in answers:
                diff = np.abs(answer - reference).max(axis=1)
                worst = max(worst, float(diff.max()))
                failures.mismatched += int((diff > F32_TOLERANCE).sum())
    return worst


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float):
    """One run; returns ``(Result, Tracer)``."""
    from repro import runtime

    quantize = workload == "vgg16_int8"
    tracer = Tracer(enabled=trace)
    batches = make_inputs(seed)
    calibration = _images(CALIBRATION_SEED, CALIBRATION_IMAGES, CALIBRATION_SEED)

    setups = []
    for _ in range(SETUPS):
        built = None  # free the previous set-up before building the next
        gc.collect()
        built = setup(quantize, batches[0], calibration, tracer)
        setups.append({k: v for k, v in built.items() if k not in ("model", "compiled")})
    model, compiled = built["model"], built["compiled"]
    bound = compiled.quantization.error_threshold if quantize else F32_TOLERANCE

    # Timed closed loop: one caller, next batch as soon as the last is
    # answered. It runs for ``seconds`` and, if needed, on until the
    # tail percentile has enough samples beyond it.
    min_calls = samples_needed(TAIL_PERCENTILE)
    outputs, batch_index, call_s, gaps = [], [], [], []
    traced_s, plain_s, forward_s = [], [], []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    hard_stop = loop_start + 3 * seconds
    previous_end = None
    calls = 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and calls >= min_calls) or now >= hard_stop:
            break
        index = calls % INPUT_BATCHES
        x = batches[index]
        # Traced runs trace every other call; the untraced calls in
        # between give the tracing overhead under identical conditions.
        traced = trace and calls % 2 == 0
        stats = runtime.PredictStats() if traced else None
        start = time.perf_counter()
        if previous_end is not None:
            gaps.append(start - previous_end)
        out = runtime.predict(compiled, x, stats=stats)
        end = time.perf_counter()
        previous_end = end
        if traced:
            span = tracer.add("runtime.predict", start, end, request_id=calls)
            tracer.add(
                "runtime.forward", start, start + sum(stats.chunk_seconds),
                parent=span, request_id=calls, derived=True,
            )
            traced_s.append(end - start)
            forward_s.append(sum(stats.chunk_seconds))
        elif trace:
            plain_s.append(end - start)
        outputs.append(out)
        batch_index.append(index)
        call_s.append(end - start)
        calls += 1
    loop_wall = time.perf_counter() - loop_start
    peak_mb = peak_rss_mb()  # read before the eager reference runs
    memory = compiled.memory_report()

    failures = Failures(attempted=calls * BATCH)
    worst = _check(quantize, bound, model, batches, outputs, batch_index, failures)
    notes = [
        f"{calls} predict calls of {BATCH} images in {loop_wall:.2f} s; "
        f"worst {'relative L2' if quantize else 'absolute'} error vs eager "
        f"{worst:.3g} (bound {bound:g})"
    ]

    med = {key: statistics.median(s[key] for s in setups) for key in setups[0] if key != "passes"}
    if trace:
        metrics = _per_layer(compiled, model, setups, med, memory, traced_s, plain_s, forward_s, gaps)
    else:
        metrics = {
            "setup_s": import_s + med["total_s"],
            "throughput_ips": (calls * BATCH - failures.mismatched) / loop_wall,
            "latency_p50_ms": percentile(call_s, 50) * 1e3,
            "latency_tail_ms": percentile(call_s, TAIL_PERCENTILE) * 1e3,
            "peak_rss_mb": peak_mb,
        }
        notes.append(
            f"latency_tail_ms is p{TAIL_PERCENTILE:g} over {calls} calls "
            f"({calls - int(np.ceil(calls * TAIL_PERCENTILE / 100))} beyond it)"
        )
    if calls < min_calls:
        notes.append(f"invalid run: {calls} calls, p{TAIL_PERCENTILE:g} needs {min_calls}")
    return Result(
        metrics=metrics,
        failures=failures,
        correct=failures.mismatched == 0 and calls >= min_calls,
        notes=notes,
        details={"setups": setups, "import_s": import_s, "calls": calls, "worst_error": worst},
    ), tracer


def _per_layer(compiled, model, setups, med, memory, traced_s, plain_s, forward_s, gaps):
    report = compiled.quantization
    macs = nonzero_macs_per_image(model, (3, 32, 32), N_NONZERO)
    busy = sum(forward_s)
    metrics = {
        "core.prune_s": med["prune_s"],
        "core.encode_s": med["encode_s"],
        "runtime.compile.total_s": med["compile_s"],
        "runtime.compile.winograd_layers": sum(
            1 for row in compiled.schedule_summary() if row["kind"].startswith("winograd")
        ),
        "runtime.compile.quantized_layers": report.quantized_layers if report else 0,
        "runtime.compile.fallback_layers": report.fallback_layers if report else 0,
        "runtime.forward.first_call_s": med["first_call_s"],
        "runtime.forward.busy_s": busy,
        "runtime.forward.calls": len(forward_s),
        "runtime.forward.busy_frac": busy / sum(traced_s),
        "runtime.forward.gflop_per_s": 2.0 * macs * BATCH * len(forward_s) / busy / 1e9,
        "bench.client.send_us": statistics.median(gaps) * 1e6,
        "bench.gen.lag_p99_ms": percentile(gaps, 99) * 1e3,
        "bench.trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
    }
    for name in setups[-1]["passes"]:
        metrics[f"runtime.compile.pass.{name}_s"] = statistics.median(
            s["passes"][name] for s in setups
        )
    for key in ("parameters", "derived", "plans", "arenas"):
        metrics[f"runtime.memory.{key}_mb"] = memory[key] / 2**20
    return metrics
