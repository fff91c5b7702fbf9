"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps them out of the repository's default test run; the
end-to-end passes at the bottom train a checkpoint per workload and take
a couple of minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
from stats import beyond, nearest_rank, tail  # noqa: E402
from workloads import WORKLOADS, online_schedule, synth_pool  # noqa: E402


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_kb():
    from repro.datasets import load_dataset

    return load_dataset("MDX", scale=0.02, use_cache=False).kb


def _texts(kb, seed):
    workload = replace(WORKLOADS["offline_hits"], scale=0.02, pool_size=40)
    return [s.to_dict() for s in synth_pool(kb, workload, seed, keep=lambda s: True)]


def test_same_seed_gives_identical_pools_and_another_seed_does_not(small_kb):
    assert _texts(small_kb, 5) == _texts(small_kb, 5)
    assert _texts(small_kb, 5) != _texts(small_kb, 6)


def test_same_seed_gives_identical_schedules_and_another_seed_does_not():
    workload = WORKLOADS["online_zipf"]
    first, again, other = (online_schedule(workload, s, 10.0) for s in (5, 5, 6))
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_schedule_offers_the_workload_rate_with_skewed_picks():
    workload = WORKLOADS["online_zipf"]
    warmup, picks, offsets = online_schedule(workload, 1, 10.0)
    assert len(warmup) == workload.warmup_requests
    assert len(picks) == len(offsets) == 200
    assert np.all(np.diff(offsets) >= 0) and 0 <= offsets[0] and offsets[-1] < 10.0
    # Zipf(1.1): the most popular item is drawn far more often than uniform.
    assert np.bincount(picks).max() > 10 * len(picks) / workload.pool_size


# ---------------------------------------------------------------------------
# Tail percentile rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (99, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = np.random.default_rng(n).permutation(np.arange(1, n + 1, dtype=float))
    value, chosen = tail(values)
    assert chosen == percentile
    assert value == nearest_rank(values, percentile)
    assert np.sum(values > value) >= 10


def test_tail_refuses_samples_too_few_for_ten_beyond():
    with pytest.raises(ValueError):
        tail(np.arange(19.0))


@pytest.mark.parametrize("n, percentile, expected", [(40, 75.0, 10), (130, 75.0, 32), (300, 90.0, 30)])
def test_beyond_counts_the_samples_ranked_past_a_fixed_percentile(n, percentile, expected):
    values = np.arange(1, n + 1, dtype=float)
    assert beyond(values, percentile) == expected
    assert np.sum(values > nearest_rank(values, percentile)) == expected


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def _span(i, name, start, end, parent=-1, request=-1, count=0):
    return (i, name, float(start), float(end), parent, request, count)


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        _span(0, "root", 0, 10),
        _span(1, "a", 1, 3, parent=0),
        _span(2, "b", 2, 5, parent=0),  # overlaps a: [1, 5] is covered once
        _span(3, "c", 8, 12, parent=0),  # only [8, 10] lies inside root
        _span(4, "grandchild", 1.5, 2.5, parent=1),
    ]
    own = spans.self_times(synthetic)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[1] == pytest.approx(2 - 1)
    assert own[2] == pytest.approx(3)
    assert own[4] == pytest.approx(1)


def test_layer_metrics_from_synthetic_spans():
    # 20 one-request batches; request r waits r + 1 ms, then its batch
    # spends 2 ms in the query graph, 1 in candidates, 4 in the encoder
    # and 1 in pair scoring, out of 10 ms in link_batch.
    synthetic, ids = [], iter(range(1000))
    for r in range(20):
        t = r * 0.1
        synthetic.append(_span(next(ids), "serving.scheduler.submit", t, t + 0.0001, request=r))
        start = t + (r + 1) / 1000.0
        batch = next(ids)
        synthetic.append(_span(batch, "serving.service.link_batch", start, start + 0.010, count=1))
        for name, lo, hi, count in (
            ("core.query_graph", 0.000, 0.002, 0),
            ("core.candidates", 0.002, 0.003, 4),
            ("core.model.encoder", 0.003, 0.007, 1),
            ("core.model.score_pairs", 0.007, 0.008, 4),
        ):
            request = r if name == "core.query_graph" else -1
            synthetic.append(
                _span(next(ids), name, start + lo, start + hi, batch, request, count)
            )
    metrics = spans.layer_metrics(synthetic, mentions=20, requests=20)
    assert metrics["serving.scheduler.queue_wait_p50_ms"] == pytest.approx(10.5)
    assert metrics["serving.scheduler.queue_wait_tail_ms"] == pytest.approx(10.0)
    assert metrics["core.query_graph_ms"] == pytest.approx(2.0)
    assert metrics["core.model.encoder_ms"] == pytest.approx(4.0)
    assert metrics["core.model.encoder_calls"] == 1
    assert metrics["core.model.pairs"] == 4
    assert metrics["core.candidates.set_size_mean"] == 4
    assert metrics["serving.service.self_ms"] == pytest.approx(2.0)
    assert metrics["serving.service.uncovered_share"] == pytest.approx(0.2)
    assert metrics["serving.scheduler.batch_size_mean"] == 1.0


def test_wrappers_record_parents_requests_and_restore_the_original():
    tracer = spans.Tracer()

    def inner(x):
        return [x]

    def outer(x):
        return inner(x) * 2

    wrapped_inner = tracer.wrap("inner", inner, spans.Hooks(count=lambda a, k, r: len(r)))
    wrapped_outer = tracer.wrap("outer", lambda x: wrapped_inner(x) * 2, spans.Hooks())
    request = tracer.new_request()
    assert wrapped_outer(3) == outer(3)
    by_name = {s[spans.NAME]: s for s in tracer.spans}
    assert by_name["inner"][spans.PARENT] == by_name["outer"][0]
    assert by_name["inner"][spans.REQUEST] == by_name["outer"][spans.REQUEST] == request
    assert by_name["inner"][spans.COUNT] == 1

    from repro.core.pipeline import EDPipeline

    original = EDPipeline.__dict__["candidate_ids"]
    uninstall = spans.install(tracer, spans.REQUEST_TARGETS)
    assert EDPipeline.__dict__["candidate_ids"] is not original
    uninstall()
    assert EDPipeline.__dict__["candidate_ids"] is original


# ---------------------------------------------------------------------------
# End to end: a short pass of every workload answers everything correctly
# ---------------------------------------------------------------------------
# Short, but long enough for several latency samples on every workload.
@pytest.mark.parametrize("workload, seconds", [
    ("offline_hits", 4), ("offline_misses", 10), ("online_zipf", 1),
])
def test_short_pass_answers_every_request_correctly(workload, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert summary["error_share"] == 0.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, seconds", [
    ("offline_hits", 2), ("offline_misses", 2), ("online_zipf", 4),
])
def test_traced_pass_reports_every_layer_metric(workload, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    assert layers["core.query_graph_ms"] > 0 and layers["core.model.encoder_ms"] > 0
    assert layers["setup.load_s"] > 0 and layers["setup.ref_embed_s"] > 0
    assert 0 <= layers["serving.service.uncovered_share"] < 1
    online = workload == "online_zipf"
    assert (layers["serving.scheduler.queue_wait_p50_ms"] > 0) == online
    assert (layers["text.ner_ms"] > 0) == online


def test_refuses_to_run_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's files.
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "offline_hits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
