"""``BENCH_perf.json`` records the host its timings were taken on, and
the baseline comparison reads only the scenarios."""

import os
import platform

from benchmarks.perf.harness import (
    BenchResult,
    compare,
    load_results,
    write_results,
)


def test_results_carry_host_block(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    result = BenchResult(name="bus.publish", ns_per_op=120.0,
                         ops_per_s=8.3e6, n_ops=1000, repeats=5)
    write_results({"bus.publish": result}, path, quick=True)
    written = load_results(path)
    host = written["host"]
    assert set(host) == {"cpus", "python", "numpy", "platform"}
    assert host["cpus"] == os.cpu_count()
    assert host["python"] == platform.python_version()
    assert written["mode"] == "quick"
    # A baseline with a different host block compares like one without.
    rows, regressions = compare({"bus.publish": result}, written)
    assert rows == [("bus.publish", 120.0, 120.0, 1.0)]
    assert regressions == []
