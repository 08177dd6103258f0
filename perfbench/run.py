"""Run one workload of the repo benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vgg16_f32 --seed 1 --seconds 10 --trace 0

Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones and writes the
run's spans to ``perfbench/results/``. The exit code is 1 when any
answer was wrong (or the run was invalid), 2 on a usage or set-up error.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

OFFLINE = ("vgg16_f32", "vgg16_int8")
ONLINE = ("serve_stream", "serve_http")


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=OFFLINE + ONLINE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    trace = bool(args.trace)

    try:
        definition = harness.load_definition()
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    harness.ensure_program_importable()
    import repro.runtime  # noqa: F401 - the program's import cost is set-up
    import repro.serving  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_START
    os.makedirs(harness.RESULTS_DIR, exist_ok=True)
    meta = harness.run_metadata(args.workload, args.seed, args.seconds, trace)

    if args.workload in OFFLINE:
        import offline as module
    else:
        import online as module
    result, tracer = module.run(args.workload, args.seed, args.seconds, trace, import_s)

    units = harness.metric_units(definition, trace)
    missing = [name for name in units if name not in result.metrics]
    if missing and not trace:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 2
    # Per-layer metrics of a layer this workload does not run (the
    # serving layers offline, the quantize pass in float) read 0.
    not_applicable = set(missing)
    metrics = {
        name: float(result.metrics.get(name, 0.0)) for name in units
    }

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for note in result.notes:
        print(f"# {note}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        suffix = "  (not applicable)" if name in not_applicable else ""
        print(f"{name:<{width}}  {_format(metrics[name])} {unit}{suffix}")
    failures = result.failures
    print(
        f"{'failed_frac':<{width}}  {_format(failures.failed_frac)} ratio  "
        f"(shed {failures.shed}, errors {failures.errors}, unanswered "
        f"{failures.unanswered}, wrong {failures.mismatched} of {failures.attempted})"
    )

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": meta,
        "correct": result.correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.__dict__,
        "metrics": metrics,
        "notes": result.notes,
        "details": {k: v for k, v in result.details.items() if k != "snapshots"},
    }
    if trace:
        self_times = tracer.self_times()
        for name, seconds in sorted(self_times.items()):
            print(f"# self time {name}: {seconds:.6f} s")
        span_path = os.path.join(harness.RESULTS_DIR, f"spans-{stem}.json")
        with open(span_path, "w") as fh:
            json.dump(
                {"meta": meta, "self_times_s": self_times, "spans": tracer.to_json(),
                 "snapshots": result.details.get("snapshots", [])},
                fh,
            )
        print(f"# spans written to {os.path.relpath(span_path, harness.ROOT)}")
    with open(os.path.join(harness.RESULTS_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": failures.attempted,
                "failed": failures.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
