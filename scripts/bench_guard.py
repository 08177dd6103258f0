"""Benchmark-regression guard for CI.

Compares freshly generated benchmark records (``benchmarks/common.py
--smoke`` writes ``BENCH_runtime.json`` / ``BENCH_serving.json`` /
``BENCH_quant.json`` into the working tree) against the baselines
committed in git, and fails when a tracked throughput figure drops more
than the allowed fraction.

Policy:

- ``BENCH_runtime.json`` — **hard fail** when any config's compiled
  images/sec drops > 25% below baseline.
  This is the repo's headline serving number; CI-runner noise is
  absorbed by the slack, a structural regression is not. Absolute
  images/sec only transfer between like machines, so when the records'
  ``cpu_count`` fields differ the absolute metrics downgrade to
  warnings and the machine-invariant *ratio* metrics (compiled/eager
  and kernel speedups — same-run, same-host by construction) carry
  the hard-fail alone.
- ``BENCH_serving.json`` / ``BENCH_quant.json`` — **warn only**: the
  dynamic-batching and int8 records depend on thread scheduling and are
  noisier; a drop prints a loud warning without failing the build.
- ``BENCH_serving.json`` fleet check — **hard fail**, within-run: the
  ``fleet_3models_budget`` row saturates three tenants at 2:1:1
  weights under a memory budget below their combined working set; no
  admitted request may fail, at least one demotion must occur, the
  byte ledger must end non-negative, and no tenant may be starved
  below half its weight share.
- ``BENCH_runtime.json`` kernel check (``--runtime-only`` runs just
  this) — **hard fail**, within-run: the ``winograd`` row's schedules
  must agree with the im2col reference within 1e-4 and cover at least
  8 flagship layers; the ``int8_int32`` row's blocked integer kernel
  must be bit-identical to the reference integer GEMM, its logits
  byte-identical to a ``winograd=False`` compile (the exact int8
  Winograd layers), and its pipeline within 2% of the float-carried
  one; the ``batch1`` row's batch-1
  compiled PatternNet must match eager within 1e-4.
- ``BENCH_serving.json`` load-scenario check — **hard fail**, within-run:
  the trace-driven ``scenario_*`` rows (``benchmarks/loadgen.py``) must
  show zero dropped admitted frames, transport answers matching
  ``predict`` (stream within 1e-5 — raw float64 tensor bytes leave no
  excuse; HTTP within 1e-4), and a nonzero delta-cache hit rate in the
  near-duplicate stream scenario. The steady/burst/near-duplicate rows
  are required; other scenario rows are checked when present.

Usage::

    cp BENCH_*.json /tmp/bench-baseline/      # before regenerating
    python benchmarks/common.py --smoke       # writes fresh records
    python scripts/bench_guard.py --baseline-dir /tmp/bench-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

#: Allowed fractional drop before a tracked metric counts as regressed.
DEFAULT_TOLERANCE = 0.25

#: Per-file policy: metric paths to compare and whether a drop fails CI.
#: Paths are dotted, with ``*`` matching every key at that level.
#: ``same_machine_only`` metrics are absolute throughputs — they hard-
#: fail only when baseline and fresh record agree on ``cpu_count``
#: (otherwise they downgrade to warnings); ``metrics`` entries are
#: within-run ratios and compare across machines.
TRACKED = {
    "BENCH_runtime.json": {
        "hard_fail": True,
        "metrics": [
            "configs.*.speedup_compiled_vs_eager",
            "configs.*.speedup_winograd_vs_im2col",
            "configs.*.speedup_int_vs_float_gemm",
        ],
        "same_machine_only": [
            "configs.*.compiled_images_per_sec",
            "configs.*.winograd_images_per_sec",
            "configs.*.int_gemm_images_per_sec",
            "configs.batch1.images_per_sec",
        ],
    },
    "BENCH_serving.json": {
        "hard_fail": False,
        "metrics": ["configs.*.requests_per_sec"],
    },
    "BENCH_quant.json": {
        "hard_fail": False,
        "metrics": [
            "float32_images_per_sec",
            "int8_images_per_sec",
            "speedup_int8_vs_float32",
        ],
    },
}


def _resolve(record: dict, path: str) -> Iterator[Tuple[str, float]]:
    """Yield ``(concrete_path, value)`` for a dotted path with ``*``."""
    parts = path.split(".")

    def walk(node, parts: List[str], trail: List[str]):
        if not parts:
            if isinstance(node, (int, float)):
                yield ".".join(trail), float(node)
            return
        head, rest = parts[0], parts[1:]
        if head == "*":
            if isinstance(node, dict):
                for key, child in node.items():
                    yield from walk(child, rest, trail + [key])
        elif isinstance(node, dict) and head in node:
            yield from walk(node[head], rest, trail + [head])

    yield from walk(record, parts, [])


def compare(
    baseline: dict, fresh: dict, metrics: List[str], tolerance: float
) -> Tuple[List[str], List[str]]:
    """Return (regressions, notes) comparing tracked metrics."""
    regressions, notes = [], []
    fresh_values: Dict[str, float] = {}
    for metric in metrics:
        fresh_values.update(dict(_resolve(fresh, metric)))
    for metric in metrics:
        for path, base_value in _resolve(baseline, metric):
            new_value = fresh_values.get(path)
            if new_value is None:
                notes.append(f"{path}: present in baseline, missing fresh")
                continue
            if base_value <= 0:
                continue
            ratio = new_value / base_value
            line = f"{path}: {base_value:.2f} -> {new_value:.2f} ({ratio:.2f}x)"
            if ratio < 1.0 - tolerance:
                regressions.append(line)
            else:
                notes.append(line)
    return regressions, notes


def check_fleet(fresh: dict) -> Tuple[List[str], List[str]]:
    """Within-run multi-tenant fleet invariants on BENCH_serving.json.

    The ``fleet_3models_budget`` row saturates three tenants at 2:1:1
    weights under a memory budget below their combined working set.
    Hard-fails (no baseline needed):

    - any admitted request failed (residency must be invisible to
      admitted traffic);
    - the budget never bit (``demotions_total`` 0 — the row would not be
      testing anything);
    - the ledger went negative (double discharge — a leak in reverse);
    - a tenant starved: observed share below **0.5x** its weight share
      (weighted fairness collapsed, not just jittered).
    """
    failures: List[str] = []
    notes: List[str] = []
    row = fresh.get("configs", {}).get("fleet_3models_budget")
    if row is None:
        failures.append("fleet_3models_budget: row missing from fresh record")
        return failures, notes

    failed_requests = row.get("failed_requests", 0)
    late = row.get("late_failures") or []
    if failed_requests or late:
        failures.append(
            f"fleet_3models_budget: {failed_requests} admitted requests "
            f"failed under budget pressure ({len(late)} at drain) — "
            f"demotion/eviction must never fail admitted traffic"
        )
    demotions = row.get("demotions_total", 0)
    if demotions < 1:
        failures.append(
            "fleet_3models_budget: budget never forced a demotion — the "
            "row is not exercising residency"
        )
    charged = row.get("charged_bytes_end")
    if charged is None or charged < 0:
        failures.append(
            f"fleet_3models_budget: ledger ended negative "
            f"(charged_bytes_end={charged}) — double discharge"
        )
    starved = []
    for name, tenant in (row.get("tenants") or {}).items():
        weight_share = tenant.get("weight_share") or 0.0
        observed = tenant.get("observed_share") or 0.0
        if observed < 0.5 * weight_share:
            starved.append(
                f"{name} (observed {observed:.3f} < 0.5 x weight share "
                f"{weight_share:.3f}, {tenant.get('requests')} reqs)"
            )
    if starved:
        failures.append(
            "fleet_3models_budget: tenant starved under weighted-fair "
            "scheduling: " + "; ".join(starved)
        )
    if not failures:
        shares = ", ".join(
            f"{name}={tenant['observed_share']:.3f}/{tenant['weight_share']:.3f}"
            for name, tenant in sorted((row.get("tenants") or {}).items())
        )
        notes.append(
            f"fleet_3models_budget: 0 failed requests, {demotions} "
            f"demotion(s), ledger {charged} B >= 0, shares obs/weight "
            f"[{shares}]"
        )
    return failures, notes


#: Scenario rows every fresh BENCH_serving.json must carry (the CI
#: load-scenarios job may add more; extras are checked when present).
REQUIRED_SCENARIOS = (
    "scenario_steady_http",
    "scenario_steady_stream",
    "scenario_burst_http",
    "scenario_burst_stream",
    "scenario_near_duplicate_stream",
)

#: Transport-vs-predict divergence ceilings. The stream transport moves
#: raw float64 tensor bytes, so it is held to the tighter bound; HTTP
#: round-trips through JSON number formatting.
SCENARIO_DIFF_CEILING = {"stream": 1e-5, "http": 1e-4}


def check_load_scenarios(fresh: dict) -> Tuple[List[str], List[str]]:
    """Within-run trace-replay invariants on a fresh BENCH_serving.json.

    Every ``scenario_*`` row is open-loop traffic from a committed
    arrival trace, so the checks are machine-invariant: counts and
    divergences from one run on one host. Hard-fails:

    - a required scenario row is missing (the harness stopped covering a
      claimed workload);
    - admitted frames dropped (``completed != admitted``) — shedding is
      reported, silent loss is not tolerated on either transport;
    - answers diverged from ``predict`` past the transport's ceiling;
    - the near-duplicate stream scenario produced zero delta-cache hits
      (the cache stopped doing its one job).
    """
    failures: List[str] = []
    notes: List[str] = []
    configs = fresh.get("configs", {})
    rows = {
        key: row for key, row in configs.items()
        if key.startswith("scenario_")
    }
    for key in REQUIRED_SCENARIOS:
        if key not in rows:
            failures.append(f"{key}: required scenario row missing from fresh record")
    for key, row in sorted(rows.items()):
        admitted = row.get("admitted")
        completed = row.get("completed")
        dropped = row.get("dropped")
        if dropped != 0 or completed != admitted:
            failures.append(
                f"{key}: {dropped} of {admitted} admitted frames dropped "
                f"({completed} completed) — admitted traffic must always "
                f"be answered"
            )
        ceiling = SCENARIO_DIFF_CEILING.get(row.get("transport"), 1e-5)
        diff = row.get("max_abs_diff_vs_predict")
        if diff is None or diff > ceiling:
            failures.append(
                f"{key}: answers diverged from predict "
                f"(max_abs_diff={diff}, ceiling {ceiling:g})"
            )
        if row.get("scenario") == "near_duplicate":
            hits = row.get("cache_hits", 0)
            if not hits:
                failures.append(
                    f"{key}: zero delta-cache hits on the near-duplicate "
                    f"workload — the per-stream cache is not engaging"
                )
            else:
                notes.append(
                    f"{key}: {hits} delta-cache hits "
                    f"({row.get('cache_hit_rate', 0):.0%} of completed)"
                )
    if rows and not failures:
        summary = ", ".join(
            f"{key.removeprefix('scenario_')} p99 {row.get('p99_ms')} ms"
            f"/shed {row.get('shed_total')}"
            for key, row in sorted(rows.items())
        )
        notes.append(f"scenario rows: 0 dropped, within tolerance [{summary}]")
    return failures, notes


#: Ceiling on the relative output difference between the integer int8
#: GEMM pipeline and the float-carried one. The GEMM accumulations are
#: both exact; only the requantize epilogue's rounding precision
#: differs, so the outputs must stay within a sliver of the
#: quantization error itself.
INT8_KERNEL_REL_DIFF_CEILING = 0.02


def check_runtime_kernels(fresh: dict) -> Tuple[List[str], List[str]]:
    """Within-run kernel invariants on a fresh BENCH_runtime.json.

    Machine-invariant (every number comes from one run on one host), so
    these hard-fail without any baseline:

    - ``winograd`` row: the fast-convolution schedules must agree with
      the im2col reference within the repo-wide 1e-4 budget, and the
      flagship model must actually run enough layers on them
      (``winograd_layers >= 8``) for the row to mean anything;
    - ``int8_int32`` row: the blocked integer kernel must be
      bit-identical to the reference integer GEMM
      (``kernel_bit_exact_vs_reference``), and the integer pipeline's
      outputs must stay within ``INT8_KERNEL_REL_DIFF_CEILING`` of the
      float-carried pipeline (same scales, same codes — only the
      epilogue's rounding precision differs), and its logits must equal
      a ``winograd=False`` compile's byte for byte
      (``int8_winograd_bit_exact``: the exact int8 F(2x2) schedule);
    - ``batch1`` row: the batch-1 compiled PatternNet must match eager
      within the same 1e-4 budget.
    """
    failures: List[str] = []
    notes: List[str] = []
    configs = fresh.get("configs", {})

    wino = configs.get("winograd")
    if wino is None:
        failures.append("winograd: row missing from fresh record")
    else:
        diff = wino.get("max_abs_diff_winograd_vs_im2col")
        if diff is None or diff > 1e-4:
            failures.append(
                f"winograd: schedules diverged from the im2col reference "
                f"(max_abs_diff={diff}, ceiling 1e-4)"
            )
        layers = wino.get("winograd_layers", 0)
        if layers < 8:
            failures.append(
                f"winograd: only {layers} layers on a Winograd schedule "
                f"(floor 8) — the pass stopped covering the flagship model"
            )
        if not failures:
            notes.append(
                f"winograd: {layers} layers, "
                f"{wino.get('speedup_winograd_vs_im2col')}x vs im2col, "
                f"diff {diff:.1e}"
            )

    int8_row = configs.get("int8_int32")
    if int8_row is None:
        failures.append("int8_int32: row missing from fresh record")
    else:
        if not int8_row.get("kernel_bit_exact_vs_reference"):
            failures.append(
                "int8_int32: blocked integer kernel is not bit-identical "
                "to the reference integer GEMM — the exactness "
                "certificate is broken"
            )
        if int8_row.get("int8_winograd_bit_exact") is not True:
            failures.append(
                f"int8_int32: int8 logits with "
                f"{int8_row.get('int8_winograd_layers')} Winograd layer(s) "
                f"are not byte-identical to the winograd=False compile "
                f"(int8_winograd_bit_exact="
                f"{int8_row.get('int8_winograd_bit_exact')})"
            )
        rel = int8_row.get("rel_diff_int_vs_float_gemm")
        if rel is None or rel > INT8_KERNEL_REL_DIFF_CEILING:
            failures.append(
                f"int8_int32: integer pipeline diverged from the "
                f"float-carried reference (rel_diff={rel}, ceiling "
                f"{INT8_KERNEL_REL_DIFF_CEILING})"
            )
        if (
            int8_row.get("kernel_bit_exact_vs_reference")
            and int8_row.get("int8_winograd_bit_exact") is True
            and rel is not None
        ):
            notes.append(
                f"int8_int32: kernel '{int8_row.get('int8_kernel')}' "
                f"bit-exact, {int8_row.get('int8_winograd_layers')} "
                f"Winograd layer(s) byte-identical to im2col, "
                f"pipeline rel diff {rel:.1e}, "
                f"{int8_row.get('speedup_int_vs_float_gemm')}x vs "
                f"float-carried GEMM"
            )

    batch1 = configs.get("batch1")
    if batch1 is None:
        failures.append("batch1: row missing from fresh record")
    else:
        diff = batch1.get("max_abs_diff_vs_eager")
        if diff is None or diff > 1e-4:
            failures.append(
                f"batch1: compiled forward diverged from eager "
                f"(max_abs_diff={diff}, ceiling 1e-4)"
            )
        else:
            notes.append(
                f"batch1: {batch1.get('images_per_sec')} images/s, "
                f"diff vs eager {diff:.1e}"
            )
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir", help="directory holding the committed records"
    )
    parser.add_argument(
        "--fresh-dir", default=".", help="directory holding the regenerated records"
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop (default 0.25)",
    )
    parser.add_argument(
        "--serving-only", action="store_true",
        help="skip baseline comparisons; run only the within-run "
        "BENCH_serving.json invariant checks (machine-independent)",
    )
    parser.add_argument(
        "--runtime-only", action="store_true",
        help="skip baseline comparisons; run only the within-run "
        "BENCH_runtime.json kernel invariant checks — winograd-vs-im2col "
        "divergence, int8 kernel exactness, batch-1 equivalence "
        "(machine-independent)",
    )
    args = parser.parse_args(argv)
    skip_baselines = args.serving_only or args.runtime_only
    if args.baseline_dir is None and not skip_baselines:
        parser.error(
            "--baseline-dir is required unless --serving-only/--runtime-only"
        )

    failed = False
    for name, policy in () if skip_baselines else TRACKED.items():
        base_path = os.path.join(args.baseline_dir, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            print(f"[bench-guard] {name}: no baseline, skipping")
            continue
        if not os.path.exists(fresh_path):
            print(f"[bench-guard] {name}: no fresh record, skipping")
            continue
        with open(base_path) as fh:
            baseline = json.load(fh)
        with open(fresh_path) as fh:
            fresh = json.load(fh)
        same_machine = baseline.get("cpu_count") == fresh.get("cpu_count")
        metrics = list(policy["metrics"])
        absolute = list(policy.get("same_machine_only", ()))
        if same_machine:
            metrics += absolute
            absolute = []
        regressions, notes = compare(baseline, fresh, metrics, args.tolerance)
        if absolute:
            # Different hardware: absolute throughput does not transfer,
            # so these drops warn instead of failing.
            abs_regressions, abs_notes = compare(
                baseline, fresh, absolute, args.tolerance
            )
            notes += abs_notes
            for line in abs_regressions:
                print(
                    f"[bench-guard] {name}: WARN regression (cpu_count "
                    f"differs, absolute ips not comparable) {line}"
                )
        for line in notes:
            print(f"[bench-guard] {name}: {line}")
        severity = "FAIL" if policy["hard_fail"] else "WARN"
        for line in regressions:
            print(f"[bench-guard] {name}: {severity} regression {line}")
        if regressions and policy["hard_fail"]:
            failed = True
    # Within-run serving invariants need only the fresh record.
    if not args.runtime_only:
        serving_fresh = os.path.join(args.fresh_dir, "BENCH_serving.json")
        if os.path.exists(serving_fresh):
            with open(serving_fresh) as fh:
                fresh = json.load(fh)
            for check in (check_fleet, check_load_scenarios):
                check_failures, check_notes = check(fresh)
                for line in check_notes:
                    print(f"[bench-guard] BENCH_serving.json: {line}")
                for line in check_failures:
                    print(f"[bench-guard] BENCH_serving.json: FAIL {line}")
                    failed = True
        else:
            print(
                "[bench-guard] BENCH_serving.json: no fresh record, "
                "serving checks skipped"
            )
    # Within-run kernel invariants on the fresh runtime record.
    if not args.serving_only:
        runtime_fresh = os.path.join(args.fresh_dir, "BENCH_runtime.json")
        if os.path.exists(runtime_fresh):
            with open(runtime_fresh) as fh:
                fresh = json.load(fh)
            check_failures, check_notes = check_runtime_kernels(fresh)
            for line in check_notes:
                print(f"[bench-guard] BENCH_runtime.json: {line}")
            for line in check_failures:
                print(f"[bench-guard] BENCH_runtime.json: FAIL {line}")
                failed = True
        else:
            print(
                "[bench-guard] BENCH_runtime.json: no fresh record, "
                "kernel check skipped"
            )
    if failed:
        print(
            f"[bench-guard] hard-fail: compiled throughput dropped more "
            f"than {args.tolerance:.0%} below the committed baseline, or "
            f"a within-run invariant (fleet, load scenarios, kernel "
            f"equivalence) broke"
        )
        return 1
    print("[bench-guard] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
