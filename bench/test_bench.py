"""Tests of the benchmark itself: span arithmetic, metric names, and a
seconds-long smoke run of every workload at a tiny size.

    python3 -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
import spans
from gradpipe.transport import TrafficStats

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "mlp-compute": dict(synth_dim=16, synth_classes=4, synth_samples=128, hidden=(8, 8), batch_size=8),
    "wide-quant8-tcp": dict(synth_dim=64, synth_classes=4, synth_samples=64, batch_size=4),
    "overlap-injected": dict(synth_dim=32, synth_classes=4, synth_samples=256, batch_size=16),
}


def span(name, start, end, parent=None, thread="worker-0"):
    return spans.Span(name, thread, parent, start, end)


def test_self_time_subtracts_direct_children_only():
    a = span("collective.allreduce", 0, 100)
    b = span("compression.encode", 10, 30, a)
    c = span("transport.recv", 40, 90, a)
    d = span("compression.decode", 50, 60, c)
    assert spans.self_time_ns([a, b, c, d]) == [30, 20, 40, 10]


def test_overlap_of_interval_lists():
    comm = [(0, 10), (20, 30)]
    busy = [(5, 25), (28, 40)]
    assert spans.overlap_ns(comm, busy) == 5 + 5 + 2
    assert spans.overlap_ns(comm, []) == 0


def _fake_result(rank, train_seconds, messages=0, frame_bytes=0):
    return SimpleNamespace(
        rank=rank,
        train_seconds=train_seconds,
        stats=TrafficStats(messages, 0, frame_bytes),
    )


def test_layer_metrics_on_hand_built_spans():
    # Two ranks, two iterations: each rank runs forward (4 ns) and an
    # allreduce of 10 ns holding a 6 ns receive.
    recorded = []
    for rank in (0, 1):
        thread = f"worker-{rank}"
        for it in range(2):
            t = 100 * it
            recorded.append(span("models.forward", t, t + 4, thread=thread))
            ar = span("collective.allreduce", t + 10, t + 20, thread=thread)
            recorded += [ar, span("transport.recv", t + 12, t + 18, ar, thread)]
    results = [_fake_result(r, 200e-9, messages=4, frame_bytes=400) for r in (0, 1)]
    m = spans.layer_metrics([spans.TracedRun(recorded, results, 2, 2)])
    assert m["models.forward_ms"] == pytest.approx(4e-6)
    assert m["collective.allreduce_ms"] == pytest.approx(10e-6)
    assert m["collective.allreduce_self_ms"] == pytest.approx(4e-6)
    assert m["collective.allreduce_wait_ms"] == pytest.approx(6e-6)
    assert m["transport.msgs_per_iter"] == 2
    assert m["transport.bytes_per_iter"] == 200
    # (200 ns wall - 28 ns in top-level spans) per iteration.
    assert m["engine.overhead_ms"] == pytest.approx(86e-6)
    # A layer whose wrapper never fired is missing, not zero.
    assert m["models.backward_ms"] is None
    assert m["engine.hidden_frac"] is None


def test_names_match_benchmark_json():
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert list(e2e) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert e2e[name]["unit"] == unit
    layer = {m["name"]: m for m in BENCHMARK["per_layer"]}
    emitted = {
        f"{mode}.{name}": (unit, better)
        for mode, metrics in spans.LAYER_METRICS.items()
        for name, unit, better in metrics
    }
    assert set(layer) == set(emitted)
    for name, (unit, better) in emitted.items():
        assert (layer[name]["unit"], layer[name]["better"]) == (unit, better)
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in run.WORKLOADS.values()
    ]
    for metric in [*BENCHMARK["end_to_end"], *BENCHMARK["per_layer"]]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric


def _tiny(name):
    work = run.WORKLOADS[name]
    return replace(work, iterations=4, config={**work.config, **TINY[name]})


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_end_to_end(name):
    session = run.Session(_tiny(name), seed=0)
    session.rounds(0.0)
    values, counts = session.end_to_end()
    assert session.failed == 0, session.problems
    assert list(values) == [n for n, _ in run.END_TO_END]
    assert all(v is not None and v > 0 for v in values.values()), values
    assert counts["d_sync.iter_ms_p90"] == 4


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_traced(name):
    session = run.Session(_tiny(name), seed=0)
    recorder = spans.Recorder()
    with recorder.installed():
        session.rounds(0.0, recorder)
    values = session.per_layer()
    assert session.failed == 0, session.problems
    assert {n for n, v in values.items() if v is None} == set()
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mlp-compute", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
