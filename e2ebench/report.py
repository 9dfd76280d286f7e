"""Metric derivation and rendering: end-to-end, per-layer, host block.

End-to-end metrics come only from untraced blocks. Per-layer metrics
come from traced blocks: span self times from the benchmark's own
recorder, plus counters the program already exports (read after each
block). Per-layer counts and times are per block — the workload's fixed
unit of work — so they do not depend on how many blocks fit in a run.
A per-layer name ending in ``_s`` is the *self* time of its spans,
except ``mirto.placement.solve_s`` and ``dpe.flow_s``, which are
inclusive.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path

#: About ``reference_ms()`` on this 2-CPU host. The gated op timings are
#: rescaled to it: the host's speed moves by up to ~1.6x between runs of
#: the same code, the op / reference ratio by a few percent (README,
#: "Host speed").
REFERENCE_MS = 3.0

#: Layers in table order (``bench`` = the benchmark's own op span).
LAYERS = ("bench", "runtime", "continuum", "obs", "mirto", "kb", "kube",
          "net", "chaos", "dpe", "tosca", "security")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The *q*-th percentile (inclusive method); the median when there
    are too few samples to cut."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalised_ms(blocks: list) -> list[float]:
    """The blocks' op times rescaled to the reference speed: each op's
    time × ``REFERENCE_MS`` / the reference timed just before it."""
    return [ms * REFERENCE_MS / ref for b in blocks
            for ms, ref in zip(b.op_ms, b.ref_ms)]


def end_to_end(blocks: list, import_samples: list[float],
               peak_rss_mb: float) -> dict:
    """Raw and host-normalised timings of the untraced blocks. Set-up
    stays raw: imports read files and start interpreters, and rescaling
    them by the CPU-bound reference made their spread wider, not
    narrower."""
    untraced = [b for b in blocks if not b.traced]
    ops = [ms for b in untraced for ms in b.op_ms]
    norm = normalised_ms(untraced)
    refs = [ref for b in untraced for ref in b.ref_ms]
    walls = [b.wall_s for b in untraced
             if b.wall_s is not None and not b.failed]
    return {
        "setup_s": median(import_samples)
        + median(b.setup_s for b in blocks),
        "wall_s": median(walls),
        "op_ms.norm_p50": median(norm),
        "op_ms.norm_p90": percentile(norm, 90),
        "op_ms.p50": median(ops),
        "op_ms.p75": percentile(ops, 75),
        "op_ms.p90": percentile(ops, 90),
        "bench.reference_ms": median(refs),
        "peak_rss_mb": peak_rss_mb,
        "samples": len(ops),
        "blocks": len(untraced),
    }


def outcomes(blocks: list) -> dict:
    """Sim/modelled outcomes plus the failure fraction over all blocks."""
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    values = {"failed_ops_frac": failed / attempted if attempted else 1.0,
              "mttr_sim_s": 0.0, "availability": 0.0, "tasks_lost": 0.0,
              "slo_violations": 0.0, "dse_best_edp": 0.0}
    for block in blocks:
        if block.outcomes:
            values.update(block.outcomes)
            break
    return values


def sum_facts(blocks: list) -> dict:
    total: dict = {}
    for block in blocks:
        for key, value in block.facts.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def per_layer(rows: dict, layers: dict, facts: dict, counters: dict,
              n_blocks: int, overhead: float, outcome: dict,
              e2e: dict) -> dict:
    """Every per-layer metric, per traced block (0 where a workload
    does not exercise the layer), plus the outcomes and the ungated
    end-to-end timings (``wall_s``, pooled ``op_ms.p50``/``p75``/``p90``)
    of the same run."""
    n = max(n_blocks, 1)

    def calls(name):
        return rows.get(name, {}).get("count", 0) / n

    def self_s(name):
        return rows.get(name, {}).get("self_ns", 0) / 1e9 / n

    def total_s(name):
        return rows.get(name, {}).get("total_ns", 0) / 1e9 / n

    def pct_ms(name, q):
        return percentile([d / 1e6 for d in
                           rows.get(name, {}).get("durations", [])], q)

    def fact(key):
        return facts.get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    advance, wait = facts.get("advance_ns", 0), facts.get("wait_ns", 0)
    solves = rows.get("mirto.placement.solve", {}).get("count", 0)
    puts = rows.get("kb.put", {}).get("count", 0)
    sim_self_ns = rows.get("continuum.sim.run", {}).get("self_ns", 0)
    values = {
        "runtime.epochs": fact("epochs"),
        "runtime.shard.advance_s": advance / 1e9 / n,
        "runtime.shard.wait_s": wait / 1e9 / n,
        "runtime.shard.busy_frac": ratio(advance, advance + wait),
        "runtime.relay.messages": fact("relay_messages"),
        "runtime.relay.flush_s": self_s("runtime.relay.flush"),
        "runtime.relay.routed": fact("relay_routed"),
        "runtime.trace.batches": fact("trace_batches"),
        "runtime.bus.publishes": fact("bus_publishes"),
        "runtime.trace.digest_s": self_s("runtime.trace.digest"),
        "continuum.sim.events": fact("events"),
        "continuum.sim.ns_per_event": ratio(sim_self_ns,
                                            facts.get("events", 0))
        if sim_self_ns else 0.0,
        "continuum.fleet.steps": fact("fleet_steps"),
        "continuum.fleet.step_s": self_s("continuum.fleet.step"),
        "continuum.gateway.deliveries": fact("gateway_deliveries"),
        "continuum.gateway.dropped": fact("gateway_dropped"),
        "obs.relay_deliver.calls": calls("obs.relay_deliver"),
        "obs.relay_deliver_s": self_s("obs.relay_deliver"),
        "obs.spans": fact("obs_spans"),
        "bench.trace_overhead": overhead,
        "mirto.mape.iterations": fact("mape_iterations"),
        "mirto.mape.iterate_ms.p50": pct_ms("mirto.mape.iterate", 50),
        "mirto.mape.iterate_ms.p90": pct_ms("mirto.mape.iterate", 90),
        "mirto.mape.sense_s": self_s("mirto.mape.sense"),
        "mirto.mape.plan_s": self_s("mirto.mape.plan"),
        "mirto.mape.execute_s": self_s("mirto.mape.execute"),
        "mirto.deploys": calls("mirto.deploy"),
        "mirto.deploy_s": self_s("mirto.deploy"),
        "mirto.placement.solves": calls("mirto.placement.solve"),
        "mirto.placement.solve_s": total_s("mirto.placement.solve"),
        "mirto.placement.nodes": counters.get("placement_nodes", 0) / n,
        "mirto.placement.optimal_frac":
            ratio(counters.get("placement_optimal", 0), solves),
        "mirto.placement.warm_start_frac":
            ratio(counters.get("placement_warm", 0), solves),
        "mirto.placement.cache_hit_frac":
            ratio(facts.get("cache_hits", 0),
                  facts.get("cache_hits", 0) + facts.get("cache_misses", 0)),
        "kb.puts": calls("kb.put"),
        "kb.put_s": self_s("kb.put"),
        "kb.raft.messages": fact("raft_messages"),
        "kb.raft.msgs_per_put": ratio(facts.get("raft_messages", 0), puts),
        "kb.raft.dropped": fact("raft_dropped"),
        "kube.reconciles": fact("kube_reconciles"),
        "kube.reconcile_s": self_s("kube.reconcile"),
        "kube.binds": fact("kube_binds"),
        "kube.evictions": fact("kube_evictions"),
        "kube.deploy_service_s": self_s("kube.deploy_service"),
        "net.paths": calls("net.path"),
        "net.path_s": self_s("net.path"),
        "chaos.mutations": fact("mutations"),
        "dpe.flow_s": total_s("dpe.flow"),
        "dpe.dse.explore_s": self_s("dpe.dse.explore"),
        "dpe.dse.evaluations": counters.get("dse_evaluations", 0) / n,
        "dpe.dse.pareto_s": self_s("dpe.dse.pareto"),
        "dpe.hls_s": self_s("dpe.hls"),
        "dpe.quantize_s": self_s("dpe.quantize"),
        "dpe.kpi_s": self_s("dpe.kpi"),
        "dpe.adt_s": self_s("dpe.adt"),
        "tosca.csar_write_s": self_s("tosca.csar_write"),
        "tosca.csar_read_s": self_s("tosca.csar_read"),
        "tosca.validate_s": self_s("tosca.validate"),
        "tosca.csar_kb": ratio(facts.get("csar_bytes", 0),
                               facts.get("flows", 0)) / 1024,
        "security.sha256_calls": calls("security.sha256"),
        "security.sha256_s": self_s("security.sha256"),
        "security.hmac_calls": calls("security.hmac"),
        "security.hmac_s": self_s("security.hmac"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = \
            layers.get(layer, {}).get("self_ns", 0) / 1e9 / n
    values.update(outcome)
    values["wall_s"] = e2e["wall_s"]
    values["op_ms.p50"] = e2e["op_ms.p50"]
    values["op_ms.p75"] = e2e["op_ms.p75"]
    values["op_ms.p90"] = e2e["op_ms.p90"]
    values["bench.reference_ms"] = e2e["bench.reference_ms"]
    return values


def layer_table(layers: dict, facts: dict, n_blocks: int,
                workers: list | None) -> list[str]:
    """Per-layer count / self time / wait / failures / useful ratio."""
    n = max(n_blocks, 1)

    def frac(num, den):
        return f"{num / den:.3f}" if den else "-"

    advance, wait = facts.get("advance_ns", 0), facts.get("wait_ns", 0)
    hits = facts.get("cache_hits", 0)
    ratios = {
        "runtime": ("busy", frac(advance, advance + wait)),
        "continuum": ("delivered", frac(
            facts.get("gateway_deliveries", 0),
            facts.get("gateway_deliveries", 0)
            + facts.get("gateway_dropped", 0))),
        "mirto": ("cache hit", frac(hits, hits
                                    + facts.get("cache_misses", 0))),
        "kb": ("raft ok", frac(
            facts.get("raft_messages", 0) - facts.get("raft_dropped", 0),
            facts.get("raft_messages", 0))),
        "kube": ("bound", frac(
            facts.get("kube_binds", 0),
            facts.get("kube_binds", 0) + facts.get("kube_evictions", 0))),
    }
    lines = [f"{'layer':<10} {'spans/blk':>10} {'self_s/blk':>11} "
             f"{'wait_s/blk':>11} {'failed':>7}  ratio"]
    for layer in LAYERS:
        row = layers.get(layer, {"count": 0, "self_ns": 0, "failed": 0})
        count, self_ns, failed = row["count"], row["self_ns"], row["failed"]
        wait_s = f"{wait / 1e9 / n:.4f}" if layer == "runtime" and wait \
            else "-"
        label, value = ratios.get(layer, ("", "-"))
        if not count and value == "-":
            continue
        lines.append(f"{layer:<10} {count / n:>10.0f} "
                     f"{self_ns / 1e9 / n:>11.4f} {wait_s:>11} {failed:>7}  "
                     f"{value}{' ' + label if value != '-' else ''}")
    for index, worker in enumerate(workers or []):
        lines.append(f"  shard/worker {index}: advance "
                     f"{worker['advance_ns'] / 1e9 / n:.4f} s/blk, wait "
                     f"{worker['wait_ns'] / 1e9 / n:.4f} s/blk, relay "
                     f"{worker['relay'] / n:.0f}/blk")
    return lines


def _git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git (the
    benchmark may run from an export that is not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_block(root: Path) -> dict:
    """The environment every result is recorded with."""
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": _git_commit(root)}
