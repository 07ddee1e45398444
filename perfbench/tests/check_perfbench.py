"""The benchmark's own tests: metrics, the correctness gate, the stream.

They run the real workloads (about 90 s), so the file name matches no
pytest collection pattern and a repository-wide test run leaves them
out.  Run them from the repository root by naming the file::

    python3 -m pytest perfbench/tests/check_perfbench.py -q

Workloads run in-process at a tiny size (one set-up repeat, a short
measuring time, few drain groups); the metric names and units checked
are the ones ``BENCHMARK.json`` declares.
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ingest  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import stream  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    CONTRACT = json.load(_stream)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every repeat count so a run takes seconds."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(ingest, "SETUP_REPEATS", 1)
    monkeypatch.setattr(ingest, "WARMUP_GROUPS", 1)
    monkeypatch.setattr(layers, "TRACED_GROUPS", 2)
    monkeypatch.setattr(layers, "SERVICE_WARMUP_GROUPS", 1)
    monkeypatch.setattr(layers, "REPEATS", 1)


def invoke(workload, trace=0, seed=3):
    """Run the benchmark in-process; returns (exit code, result, stdout)."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def assert_metrics(result, declared):
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(tiny, workload):
    code, result, text = invoke(workload)
    assert code == 0, text
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_metrics(result, CONTRACT["end_to_end"])
    for metric in CONTRACT["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric
    assert "failed_share" in text


def test_traced_run_emits_every_layer_metric(tiny):
    code, result, text = invoke(specs.PROFILE_TWOSPEED, trace=1)
    assert code == 0, text
    assert_metrics(result, CONTRACT["per_layer"])


def test_flipped_pinned_count_is_a_failure(tiny, tmp_path, monkeypatch):
    with open(run.PINS) as source:
        pins = json.load(source)
    sessions = pins["sessions"][specs.PROFILE_DETAILED]
    sessions["ooo-sparse"]["cycles"] += 1
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(path))
    code, result, text = invoke(specs.PROFILE_DETAILED)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "ooo-sparse.cycles" in text


def test_generator_follows_the_long_real_stream():
    curve = stream.RealCurve.load()
    # The committed capture is longer than a run pushes (about 200k
    # records in a 20 s run on the 2-core tuning host), so the
    # generator interpolates it rather than extrapolating.
    assert curve.length >= 400_000
    programs = specs.build_programs(specs.SERVICE_INGEST)
    corpus, _ = stream.capture(programs, seed=11)
    generator = stream.StreamGenerator(corpus, seed=5, curve=curve)
    generated = generator.records(20_000)
    keys = [stream.wire_key(r) for r in generated]
    # The generator's own accounting is the wire-level truth.
    assert stream.repeat_share(keys) == pytest.approx(
        generator.repeat_share())
    for length in (len(corpus), 20_000):
        assert abs(stream.repeat_share(keys[:length])
                   - curve.repeat_share(length)) <= 0.01, length
    for length in (100_000, 200_000, 400_000):
        generator.records(length - generator.count)
        assert abs(generator.repeat_share()
                   - curve.repeat_share(length)) <= 0.01, length


def test_real_curve_matches_a_live_capture():
    # The committed long capture starts like a fresh scale-1 capture of
    # the same programs: real ProfileMe streams are mostly distinct.
    curve = stream.RealCurve.load()
    programs = specs.build_programs(specs.SERVICE_INGEST)
    live, _ = stream.capture(programs, seed=12)
    real = stream.repeat_share(stream.wire_key(r) for r in live)
    assert real < 0.15
    assert abs(real - curve.repeat_share(len(live))) <= 0.03
