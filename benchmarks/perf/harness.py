"""Timing machinery: deterministic workloads, median-of-k measurement.

A scenario is a named factory: ``make(quick)`` builds fresh state and
returns ``(n_ops, run)`` where ``run()`` executes the whole batch once.
Each repeat rebuilds the state so no repeat warms the next one's caches
beyond what a real workload would (caches *within* a batch are part of
the measured behavior — repeated topics and revisited swarm candidates
are exactly what production traffic looks like).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCHEMA_VERSION = 1

#: Registered scenarios, in definition order: name -> factory.
_SCENARIOS: dict[str, Callable[[bool], tuple[int, Callable[[], None]]]] = {}


def scenario(name: str):
    """Decorator registering a scenario factory under *name*."""
    def register(factory):
        if name in _SCENARIOS:
            raise ValueError(f"duplicate scenario {name!r}")
        _SCENARIOS[name] = factory
        return factory
    return register


@dataclass
class BenchResult:
    """Median-of-k measurement for one scenario."""

    name: str
    ns_per_op: float
    ops_per_s: float
    n_ops: int
    repeats: int

    def to_dict(self) -> dict:
        return {
            "ns_per_op": round(self.ns_per_op, 1),
            "ops_per_s": round(self.ops_per_s, 1),
            "n_ops": self.n_ops,
            "repeats": self.repeats,
        }


def run_scenario(name: str, quick: bool = False,
                 repeats: int | None = None) -> BenchResult:
    """Measure one scenario: median wall time over *repeats* fresh runs."""
    factory = _SCENARIOS[name]
    # Quick mode trades op count, not repeats, for time: batches are
    # ~10x smaller so the per-run noise is larger, and the same-run
    # ratio gates (span overhead) need a stable median.
    repeats = repeats if repeats is not None else 5
    timings_ns = []
    for _ in range(repeats):
        n_ops, run = factory(quick)
        # Collector isolation, the ``timeit`` convention: collect the
        # previous repeat's garbage outside the timed region and keep
        # the collector off inside it, so a gen-2 pass landing mid-run
        # doesn't charge one scenario for another's allocations.
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            run()
            timings_ns.append(time.perf_counter_ns() - start)
        finally:
            if was_enabled:
                gc.enable()
    median_ns = statistics.median(timings_ns)
    ns_per_op = median_ns / max(1, n_ops)
    return BenchResult(
        name=name,
        ns_per_op=ns_per_op,
        ops_per_s=1e9 / ns_per_op if ns_per_op > 0 else float("inf"),
        n_ops=n_ops,
        repeats=repeats,
    )


def measure_pair_ratio(name_a: str, name_b: str, quick: bool = False,
                       repeats: int | None = None,
                       target: float | None = None,
                       max_repeats: int = 21
                       ) -> tuple[float, float, float]:
    """Paired A/B measurement: ``min(a_i) / min(b_i)`` over interleaved
    rounds.

    The same-run ratio gates compare two scenarios; measuring each in
    its own window lets machine-wide interference (another tenant, a
    frequency step) land on one side only and fake a regression. Two
    defenses compose here: rounds interleave A and B so both sides
    sample the same time period, and each side's estimate is the
    minimum across rounds — contention only ever *adds* time, so the
    minimum is the uncontended cost, and one clean round per side is
    enough. When a *target* ratio is given and the estimate still
    exceeds it after *repeats* rounds, measurement keeps extending (up
    to *max_repeats*) rather than concluding: an over-target minimum is
    indistinguishable from a contention storm covering every round so
    far, and more rounds either find a clean window or make the verdict
    trustworthy. Returns ``(ratio, a_ns_per_op, b_ns_per_op)``.
    """
    repeats = repeats if repeats is not None else 7
    a_ns, b_ns = [], []
    while True:
        n_a, run_a = _SCENARIOS[name_a](quick)
        n_b, run_b = _SCENARIOS[name_b](quick)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            run_a()
            mid = time.perf_counter_ns()
            run_b()
            end = time.perf_counter_ns()
        finally:
            if was_enabled:
                gc.enable()
        a_ns.append((mid - start) / max(1, n_a))
        b_ns.append((end - mid) / max(1, n_b))
        if len(a_ns) < repeats:
            continue
        a_min, b_min = min(a_ns), min(b_ns)
        ratio = a_min / b_min if b_min > 0 else float("inf")
        if target is not None and ratio > target \
                and len(a_ns) < max_repeats:
            continue
        return ratio, a_min, b_min


def run_all(quick: bool = False, only: list[str] | None = None,
            verbose: bool = True) -> dict[str, BenchResult]:
    """Run every registered scenario (importing the scenario module)."""
    import benchmarks.perf.scenarios  # noqa: F401  (registers scenarios)

    results: dict[str, BenchResult] = {}
    for name in _SCENARIOS:
        if only and name not in only:
            continue
        result = run_scenario(name, quick=quick)
        results[name] = result
        if verbose:
            print(f"  {name:<28} {result.ns_per_op:>14,.0f} ns/op "
                  f"{result.ops_per_s:>14,.0f} ops/s")
    return results


def host_block() -> dict:
    """The environment the timings were taken on."""
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def write_results(results: dict[str, BenchResult],
                  path: str | Path, quick: bool) -> None:
    """Write ``BENCH_perf.json`` (stable key order, stable schema) with
    the host it was measured on; :func:`compare` reads only the
    scenarios."""
    payload = {
        "schema": SCHEMA_VERSION,
        "host": host_block(),
        "mode": "quick" if quick else "full",
        "unit": "ns/op (median of repeats)",
        "scenarios": {name: results[name].to_dict()
                      for name in sorted(results)},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def load_results(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def compare(results: dict[str, BenchResult], baseline: dict,
            max_regression: float = 3.0
            ) -> tuple[list[tuple[str, float, float, float]], list[str]]:
    """Compare against a baseline JSON document.

    Returns ``(rows, regressions)`` where each row is
    ``(name, baseline_ns, current_ns, speedup)`` and *regressions* lists
    scenario names slower than ``max_regression``x the baseline.
    """
    rows = []
    regressions = []
    base_scenarios = baseline.get("scenarios", {})
    for name in sorted(results):
        if name not in base_scenarios:
            continue
        base_ns = base_scenarios[name]["ns_per_op"]
        cur_ns = results[name].ns_per_op
        speedup = base_ns / cur_ns if cur_ns > 0 else float("inf")
        rows.append((name, base_ns, cur_ns, speedup))
        if cur_ns > base_ns * max_regression:
            regressions.append(name)
    return rows, regressions


def format_table(rows: list[tuple[str, float, float, float]]) -> str:
    """Render the speedup table the PR body quotes."""
    lines = [
        f"{'scenario':<28} {'baseline ns/op':>16} {'now ns/op':>14} "
        f"{'speedup':>9}",
        "-" * 70,
    ]
    for name, base_ns, cur_ns, speedup in rows:
        lines.append(f"{name:<28} {base_ns:>16,.0f} {cur_ns:>14,.0f} "
                     f"{speedup:>8.2f}x")
    return "\n".join(lines)
