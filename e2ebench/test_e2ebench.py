"""Self-tests for the end-to-end benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest e2ebench -q

They pin the benchmark's own contract: every named metric is emitted
for every workload, span self times add up, a failed output check is
counted rather than raised, and the benchmark refuses to report when
the program is missing.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import workloads  # noqa: E402
from tracing import Patched, SpanRecorder, Target, layer_totals  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd, env=env)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["e2ebench"]
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert setup[0]["bound"] == max(bounds)
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted(workload, trace, tmp_path):
    done = run_cli("--workload", workload, "--seed", "3", "--seconds",
                   "0.2", "--trace", trace, "--tiny", "--out",
                   str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        with gzip.open(tmp_path / f"{workload}-spans.jsonl.gz", "rt") as f:
            header, first = json.loads(f.readline()), json.loads(f.readline())
        assert len(first) == len(header["fields"])
        assert result["metrics"]["bench.trace_overhead"]["value"] > 0


def test_self_time_adds_up_with_fake_clock():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + self.inner()

    targets = [Target(Layer, "outer", "a.outer", "a"),
               Target(Layer, "inner", "b.inner", "b")]
    with Patched(recorder, targets):
        assert Layer().outer() == 2
    # outer: 0..50, inner: 10..20 and 30..40 -> self 30 and 10 + 10.
    rows = recorder.by_name()
    assert rows["a.outer"]["self_ns"] == 30
    assert rows["b.inner"]["self_ns"] == 20
    assert sum(recorder.self_ns()) == recorder.root_ns() == 50
    # Originals are restored on exit.
    assert Layer.outer.__name__ == "outer" and Layer().outer() == 2
    assert len(recorder.spans) == 3


def test_self_time_adds_up_on_a_traced_block():
    workload = workloads.make("recovery", 5, tiny=True)
    recorder = SpanRecorder()
    with Patched(recorder, workload.targets()):
        block = workload.run_block(recorder)
    assert block.failed == 0
    own = recorder.self_ns()
    assert all(value >= 0 for value in own)
    assert sum(own) == recorder.root_ns()
    layers = layer_totals(recorder.by_name())
    assert {"bench", "mirto", "kb", "kube", "net"} <= set(layers)
    assert sum(v["self_ns"] for v in layers.values()) == recorder.root_ns()


def test_module_function_aliases_are_patched_and_restored():
    from repro.dpe import hls, modeling
    original = hls.synthesize
    recorder = SpanRecorder()
    with Patched(recorder, [Target(hls, "synthesize", "dpe.hls", "dpe")]):
        assert modeling.synthesize is hls.synthesize is not original
    assert modeling.synthesize is hls.synthesize is original


def test_failed_output_check_is_counted_not_raised(monkeypatch):
    workload = workloads.make("dpe-deploy", 0, tiny=True)
    monkeypatch.setattr(workload, "check",
                        lambda spec, archive, phases: ["planted"])
    block = workload.run_block()
    assert block.failed == block.attempted == 2
    assert len(block.op_ms) == 2
    assert "planted" in block.problems[0]


def test_failed_op_is_counted_not_raised(monkeypatch):
    workload = workloads.make("recovery", 0, tiny=True)
    scorecard = workloads._scorecard_module()

    def broken(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(scorecard, "score_run", broken)
    block = workload.run_block()
    assert block.failed == 2 and not block.op_ms
    assert "planted fault" in block.problems[0]
    assert report.outcomes([block])["failed_ops_frac"] == 1.0


def test_timings_are_rescaled_to_the_reference_speed():
    block = workloads.Block(traced=False, setup_s=0.5)
    # Ops ran on a host at half the reference speed.
    ref = 2 * report.REFERENCE_MS
    block.op_ms, block.ref_ms = [10.0, 20.0, 30.0], [ref] * 3
    e2e = report.end_to_end([block], [0.4, 0.8], 1.0)
    assert e2e["op_ms.p50"] == 20.0 and e2e["op_ms.norm_p50"] == 10.0
    assert e2e["setup_s"] == 0.6 + 0.5  # set-up is not rescaled
    assert e2e["bench.reference_ms"] == ref


def test_digest_mismatch_fails_the_block():
    workload = workloads.make("scale-100k", 0, tiny=True)
    blocks = [workload.run_block(), workload.run_block()]
    workload.verify(blocks)
    assert [b.failed for b in blocks] == [0, 0]
    workload.pinned = {"trace": "0" * 64, "metrics": "0" * 64,
                       "events": 1, "epochs": workload.epochs}
    workload.verify(blocks)
    assert [b.failed for b in blocks] == [workload.epochs] * 2


def test_worker_backend_reproduces_in_process_digests():
    sequential = workloads.make("scale-100k", 7, tiny=True).run_block()
    parallel = workloads.make("scale-100k-x2", 7, tiny=True).run_block()
    assert sequential.failed == parallel.failed == 0
    assert sequential.fingerprints == parallel.fingerprints


def test_pinned_digest_of_the_default_seed():
    pinned = json.loads((BENCH / "digests.json").read_text())
    entry = pinned["metro_100k"][str(workloads.DEFAULT_SEED)]
    assert entry["trace"].startswith("d27ea0be7b058c3a")
    assert entry["events"] == 126850


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli("--workload", "recovery", "--seconds", "1",
                   cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
