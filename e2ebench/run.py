"""End-to-end benchmark of the MYRTUS continuum reproduction.

Four closed-loop workloads, one per paper pipeline (see README.md):

    python3 e2ebench/run.py --workload scale-100k --seed 0 --seconds 25
    python3 e2ebench/run.py --workload recovery --trace 1
    python3 e2ebench/run.py --workload all          # every workload

``--trace 0`` (default) reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced blocks
and reports the per-layer metrics, the layer table and the tracing
overhead, and writes the recorded spans as JSONL under ``--out``. The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 when the run completed (check
``correct`` for the output checks), 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import report
from tracing import Patched, SpanRecorder, layer_totals
from workloads import DEFAULT_SEED, MODULES, WORKLOADS, make

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Untraced ops a run needs before it may stop — p90 then has at least
#: ten samples beyond it.
MIN_OPS = 110
#: Fresh interpreters that time the imports, one after each block so
#: they spread over the run's changes of host speed instead of all
#: landing in its first seconds; with the in-process import the set-up
#: median is over this many plus one samples.
IMPORT_SAMPLES = 8
#: Stop starting blocks after this long, whatever the minimums say, so
#: a run on a slow host still ends well inside three minutes.
HARD_STOP_S = 120.0

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t)\n")


def fresh_import_times(workload: str, count: int) -> list[float]:
    """Import the workload's modules in *count* fresh interpreters —
    the repeatable part of set-up (an in-process import runs once)."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC),
             *MODULES[workload]],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seconds: float, recorder: SpanRecorder | None,
            min_ops: int, imports: list[float], want_imports: int
            ) -> tuple[list, int]:
    """Run blocks until *seconds* elapsed and the minimums are met.
    With a recorder, blocks alternate untraced / traced. Between blocks,
    add fresh-interpreter samples to *imports* until it holds
    *want_imports*. Returns the blocks and the largest worker's peak
    resident set in KiB."""
    targets = workload.targets() if recorder is not None else []
    start = time.perf_counter()
    blocks: list = []
    while True:
        # Free the previous block's context (its reference cycles wait
        # for a full collection) so every block starts from the same
        # heap and the peak RSS is one block's, not two overlapping.
        gc.collect()
        if recorder is not None and len(blocks) % 2 == 1:
            with Patched(recorder, targets):
                blocks.append(workload.run_block(recorder))
        else:
            blocks.append(workload.run_block())
        if len(blocks) == 1:
            # Read before the first import probe: a child started from
            # this process begins with its resident set, so the probes
            # would report the coordinator's size, not a worker's.
            worker_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        if len(imports) < want_imports:
            imports += fresh_import_times(workload.name, 1)
        elapsed = time.perf_counter() - start
        untraced_ops = sum(b.attempted for b in blocks if not b.traced)
        enough = untraced_ops >= min_ops and len(blocks) >= 2
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and enough):
            imports += fresh_import_times(workload.name,
                                          want_imports - len(imports))
            return blocks, worker_kb


def run_one(args: argparse.Namespace) -> int:
    # On SIGTERM unwind normally, so the worker processes of an open
    # block are closed and waited for, not left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        for module in MODULES[args.workload]:
            importlib.import_module(module)
        workload = make(args.workload, args.seed, tiny=args.tiny)
        program = sys.modules["repro"].__file__ or ""
        if not Path(program).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"repro resolved to {program}, not {SRC}")
    except ImportError as exc:
        print(f"e2ebench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import_samples = [time.perf_counter() - t0]
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = report.host_block(ROOT)

    t0 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t0
    recorder = SpanRecorder() if args.trace else None
    blocks, worker_kb = measure(workload, args.seconds, recorder,
                                1 if args.tiny else MIN_OPS, import_samples,
                                1 if args.tiny else 1 + IMPORT_SAMPLES)
    # Peak resident set of this process, plus the largest worker's when
    # the workload ran worker processes.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if getattr(workload, "workers", 0):
        rss_kb += worker_kb
    rss = rss_kb / 1024
    workload.verify(blocks)

    e2e = report.end_to_end(blocks, import_samples, rss)
    outcome = report.outcomes(blocks)
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "import_s": import_samples, "warmup_s": warmup_s,
              "end_to_end": e2e, "outcomes": outcome,
              "problems": [p for b in blocks for p in b.problems],
              "blocks": [{"traced": b.traced, "setup_s": b.setup_s,
                          "wall_s": b.wall_s, "failed": b.failed,
                          "op_ms": b.op_ms, "ref_ms": b.ref_ms}
                         for b in blocks]}

    lines = [f"e2ebench {args.workload} seed={args.seed} "
             f"trace={args.trace} blocks={len(blocks)} "
             f"attempted={attempted} failed={failed}",
             "host: " + " ".join(f"{k}={v}" for k, v in host.items())]
    units = {m["name"]: m["unit"] for m in bench_spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in bench_spec["per_layer"]})
    for name in ("setup_s", "wall_s", "op_ms.norm_p50",
                 "op_ms.norm_p90", "op_ms.p50", "op_ms.p75", "op_ms.p90",
                 "bench.reference_ms", "peak_rss_mb"):
        lines.append(f"  {name:<18} {e2e[name]:>14.6g} {units[name]}")
    lines.append(f"  (untraced: {e2e['blocks']} blocks, {e2e['samples']} "
                 f"op samples; warm-up {warmup_s:.3f} s)")
    for name, value in outcome.items():
        lines.append(f"  {name:<18} {value:>14.6g} {units[name]}")
    for problem in result["problems"][:10]:
        lines.append(f"  CHECK FAILED: {problem}")

    if recorder is not None:
        traced = [b for b in blocks if b.traced]
        untraced = [b for b in blocks if not b.traced]
        facts = report.sum_facts(traced)
        rows = recorder.by_name()
        layers = layer_totals(rows)
        # Normalised, so the host's speed changes between blocks cancel.
        overhead = (report.median(report.normalised_ms(traced))
                    / e2e["op_ms.norm_p50"]) if e2e["op_ms.norm_p50"] else 0.0
        values = report.per_layer(rows, layers, facts, recorder.counters,
                                  len(traced), overhead, outcome, e2e)
        workers = None
        per_worker = [b.facts["workers"] for b in traced
                      if "workers" in b.facts]
        if per_worker:
            workers = [{key: sum(w[i][key] for w in per_worker)
                        for key in ("advance_ns", "wait_ns", "relay")}
                       for i in range(len(per_worker[0]))]
        lines.append(f"layers ({len(traced)} traced / {len(untraced)} "
                     f"untraced blocks, trace overhead {overhead:.3f}x):")
        lines += ["  " + line for line in
                  report.layer_table(layers, facts, len(traced), workers)]
        args.out.mkdir(parents=True, exist_ok=True)
        spans_path = args.out / f"{args.workload}-spans.jsonl.gz"
        written = recorder.write_jsonl(spans_path)
        lines.append(f"  {written} spans written to {spans_path}")
        result["per_layer"] = values
        result["layers"] = {name: {k: v for k, v in row.items()
                                   if k != "durations"}
                            for name, row in rows.items()}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench_spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench_spec["end_to_end"]}

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1, default=str) + "\n")
    print("\n".join(lines))
    correct = failed == 0 and attempted > 0 and e2e["wall_s"] > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own interpreter and summarise."""
    summary = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--out", str(args.out)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=180)
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if done.returncode != 0 or not out:
            print(done.stderr, file=sys.stderr)
            status = done.returncode or 1
            continue
        summary[name] = json.loads(out[-1])
    correct = bool(summary) and len(summary) == len(WORKLOADS) and all(
        r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{name}/{metric}": value
                    for name, r in summary.items()
                    for metric, value in r["metrics"].items()}}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for result JSON and spans")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
