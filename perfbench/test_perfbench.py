"""Tests for the benchmark's own bookkeeping (no model runs, no server)."""

from __future__ import annotations

import json

import numpy as np
import pytest

import harness

harness.ensure_program_importable()

import offline  # noqa: E402
import online  # noqa: E402
import run  # noqa: E402


# -- seeded inputs ------------------------------------------------------
def test_same_seed_same_schedule_and_frames():
    a = online.schedule(500.0, 1000, seed=7, step=1)
    b = online.schedule(500.0, 1000, seed=7, step=1)
    np.testing.assert_array_equal(a, b)
    frames_a = online.FrameSource(7, 0.25).step(64, 1)
    frames_b = online.FrameSource(7, 0.25).step(64, 1)
    for x, y in zip(frames_a, frames_b):
        np.testing.assert_array_equal(x, y)
    for x, y in zip(offline.make_inputs(7), offline.make_inputs(7)):
        np.testing.assert_array_equal(x, y)


def test_different_seed_different_schedule_and_frames():
    assert not np.array_equal(
        online.schedule(500.0, 1000, seed=7, step=1),
        online.schedule(500.0, 1000, seed=8, step=1),
    )
    assert not np.array_equal(
        online.FrameSource(7, 0.25).step(64, 1)[0],
        online.FrameSource(8, 0.25).step(64, 1)[0],
    )
    assert not np.array_equal(offline.make_inputs(7)[0], offline.make_inputs(8)[0])


def test_schedule_is_sorted_poisson_of_requested_length():
    times = online.schedule(1000.0, 5000, seed=3, step=0)
    assert len(times) == 5000
    assert np.all(np.diff(times) > 0)
    assert times[-1] == pytest.approx(5.0, rel=0.1)


def test_near_duplicates_follow_their_stream_keyframe():
    source = online.FrameSource(5, 0.5)
    frames, streams, jittered, key_ids = source.step(200, 0)
    source.commit(200)
    assert jittered.any() and (~jittered).any()
    keyframe_of = {int(key_ids[i]): frames[i] for i in np.nonzero(~jittered)[0]}
    for i in np.nonzero(jittered)[0]:
        delta = np.abs(frames[i] - keyframe_of[int(key_ids[i])]).max()
        assert delta <= online.JITTER * 1.01
    assert set(streams.tolist()) == set(range(online.STREAMS))


def test_commit_keeps_only_sent_keyframes():
    source = online.FrameSource(5, 1.0)
    frames, streams, _, key_ids = source.step(online.STREAMS * 2, 0)
    source.commit(online.STREAMS)  # the step stopped halfway
    _, _, jittered, next_ids = source.step(online.STREAMS, 1)
    assert jittered.all()
    np.testing.assert_array_equal(next_ids, key_ids[: online.STREAMS])


# -- percentiles ---------------------------------------------------------
def test_chosen_percentiles_have_ten_samples_beyond():
    for q in (offline.TAIL_PERCENTILE, online.TAIL_PERCENTILE):
        n = harness.samples_needed(q)
        assert n * (1 - q / 100) >= harness.MIN_BEYOND - 1e-9
        assert (n - 1) * (1 - q / 100) < harness.MIN_BEYOND
    assert harness.samples_needed(offline.TAIL_PERCENTILE) == 100
    # Every serving step, and every window the tail is taken over,
    # holds at least MIN_REQUESTS samples.
    assert online.MIN_REQUESTS >= harness.samples_needed(online.TAIL_PERCENTILE)
    assert online.step_requests(1.0, 1.0, online.RUNG_SHARE) == online.MIN_REQUESTS
    for workload in online.WORKLOADS.values():
        assert online.nominal_requests(workload, 0.001) >= online.MIN_REQUESTS


def test_windowed_percentile_is_median_of_window_percentiles():
    values = np.concatenate([np.arange(100.0), np.arange(100.0) + 1000, np.arange(150.0)])
    # Windows [0..99], [1000..1099], [0..149]: p50s 49.5, 1049.5, 74.5.
    assert harness.windowed_percentile(values, 50, 100) == pytest.approx(74.5)
    # Fewer samples than one window: the plain percentile.
    assert harness.windowed_percentile(np.arange(10.0), 50, 100) == pytest.approx(4.5)


# -- failure accounting --------------------------------------------------
def _outcome(n):
    out = online.StepOutcome(rung=0, rate=1.0, planned=n)
    online._Step(out, abortable=False, tracer=harness.Tracer(False), span=None)
    out.was_sent[:] = True
    return out


def test_failed_frac_counts_shed_error_unanswered_and_mismatch():
    n = 6
    out = _outcome(n)
    references = {i: np.full(10, float(i)) for i in range(n)}
    frames = np.zeros((n,) + online.INPUT_SHAPE, dtype=np.float32)
    jittered = np.zeros(n, dtype=bool)
    key_ids = np.arange(n)
    out.error_kind[0] = "queue_full"  # shed
    out.error_kind[1] = "internal"  # error
    # 2: never answered
    for i in (3, 4, 5):
        out.answered[i] = True
        out.outputs[i] = references[i].copy()
    out.outputs[4] = references[4] + 1e-3  # wrong
    online.check_step(out, jittered, key_ids, frames, references, None, 1e-5)
    f = out.failures
    assert (f.attempted, f.shed, f.errors, f.unanswered, f.mismatched) == (6, 1, 1, 1, 1)
    assert f.failed == 4
    assert f.failed_frac == pytest.approx(4 / 6)


def test_unsent_requests_are_not_attempted():
    out = _outcome(3)
    out.was_sent[1] = False  # a stopped step never sent it
    for i in (0, 2):
        out.answered[i] = True
        out.outputs[i] = np.zeros(10)
    references = {i: np.zeros(10) for i in range(3)}
    frames = np.zeros((3,) + online.INPUT_SHAPE, dtype=np.float32)
    online.check_step(out, np.zeros(3, bool), np.arange(3), frames, references, None, 1e-5)
    assert (out.failures.attempted, out.failures.failed) == (2, 0)
    assert not out.holds_limit()


def test_cache_hit_on_fresh_frame_is_wrong_and_hit_matches_keyframe():
    out = _outcome(2)
    references = {0: np.ones(10)}
    out.answered[:] = True
    out.cache_hit[:] = True
    out.outputs = [np.ones(10), np.ones(10)]
    jittered = np.array([False, True])
    key_ids = np.array([0, 0])
    frames = np.zeros((2,) + online.INPUT_SHAPE, dtype=np.float32)
    online.check_step(out, jittered, key_ids, frames, references, None, 1e-5)
    assert out.failures.mismatched == 1
    assert out.mismatches[0][0] == 0


def test_failures_merge():
    total = harness.Failures()
    total.merge(harness.Failures(attempted=3, shed=1))
    total.merge(harness.Failures(attempted=2, mismatched=1, unanswered=1))
    assert (total.attempted, total.failed) == (5, 3)
    assert harness.Failures().failed_frac == 0.0


# -- /stats deltas -------------------------------------------------------
def test_stats_delta_arithmetic():
    before = {"requests": 100, "batches": 20, "errors": 1, "model_seconds": 1.5,
              "shed": {"queue_full": 2}}
    after = {"requests": 400, "batches": 70, "errors": 1, "model_seconds": 2.5,
             "shed": {"queue_full": 5, "slo": 1}}
    delta = harness.stats_delta(before, after, wall_s=4.0)
    assert delta["requests"] == 300
    assert delta["batches"] == 50
    assert delta["errors"] == 0
    assert delta["shed"] == 4
    assert delta["mean_batch"] == pytest.approx(6.0)
    assert delta["model_seconds"] == pytest.approx(1.0)
    assert delta["model_busy_frac"] == pytest.approx(0.25)


def test_stats_delta_of_an_idle_step():
    row = {"requests": 5, "batches": 2, "errors": 0, "model_seconds": 0.1}
    delta = harness.stats_delta(row, row, wall_s=0.0)
    assert delta["mean_batch"] == 0.0 and delta["model_busy_frac"] == 0.0


# -- spans ---------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    tracer = harness.Tracer()
    parent = tracer.add("layer", 0.0, 10.0)
    tracer.add("child", 1.0, 3.0, parent=parent)
    tracer.add("child", 2.0, 5.0, parent=parent)  # overlaps the first
    tracer.add("child", 8.0, 12.0, parent=parent)  # runs past the parent
    times = tracer.self_times()
    assert times["layer"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert times["child"] == pytest.approx(2.0 + 3.0 + 4.0)


def test_disabled_tracer_records_nothing():
    tracer = harness.Tracer(enabled=False)
    assert tracer.add("x", 0.0, 1.0) is None
    assert tracer.spans == [] and tracer.self_times() == {}


# -- the definition ------------------------------------------------------
def test_benchmark_definition_names_and_shape():
    definition = harness.load_definition()
    names = [row["name"] for row in definition["end_to_end"] + definition["per_layer"]]
    names += [row["name"] for row in definition["workloads"]]
    for name in names:
        assert harness.NAME_RE.match(name), name
    assert len(names) == len(set(names))
    assert {w["name"] for w in definition["workloads"]} == set(run.OFFLINE + run.ONLINE)
    bounds = {row["name"]: row["bound"] for row in definition["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
    json.dumps(definition)  # round-trips


def test_ladder_starts_at_nominal_then_walks_down():
    for workload in online.WORKLOADS.values():
        order = online.ladder_order(workload)
        assert order[0] == 0
        assert order[1:] == sorted(order[1:], reverse=True)
        assert min(order) == workload.bottom_rung and max(order) == workload.top_rung
