"""Opt-in DES profiler: wall time and sim time per event owner.

The simulator's ``step()`` is the one place every executed event passes
through, so that is where profiling hooks live — but the hooks are dark
by default (a single attribute check per event) and the wall-clock read
happens *here*, in ``obs``, never inside simulation code. Wall times
are inherently nondeterministic; the profiler is therefore opt-in and
its output is excluded from determinism comparisons (sim-time and event
counts in the same rows *are* deterministic).

Attribution is by event owner, duck-typed so this module never imports
the simulator (runtime → obs → continuum would be a cycle):

- a callback bound to an object with a ``generator`` attribute is a
  simulation :class:`Process` → ``process:<name>``;
- an event with a ``delay`` attribute is a bare :class:`Timeout` →
  ``kernel:timeout``;
- anything else is attributed to its type → ``kernel:<type>``.

``repro-obs profile`` renders the aggregation as a table plus a
two-level flamegraph-style view (kind → name, bar width ∝ wall time).
"""

from __future__ import annotations

import time
from typing import Any

#: Topic under which a profile snapshot is recorded in the trace.
PROFILE_TOPIC = "obs.profile"

#: Topic under which a sharded-run profile snapshot is recorded.
SHARD_PROFILE_TOPIC = "obs.shard_profile"


def _owner_of(event: Any, callbacks: list) -> str:
    """Attribute an executed event to its owning process or kernel type."""
    if hasattr(event, "generator"):
        # The process-completion event itself (Process is an Event).
        name = getattr(event, "name", None) or "anonymous"
        return "process:" + name
    for callback in callbacks:
        target = getattr(callback, "__self__", None)
        if target is not None and hasattr(target, "generator"):
            name = getattr(target, "name", None) or "anonymous"
            return "process:" + name
    if hasattr(event, "delay"):
        return "kernel:timeout"
    return "kernel:" + type(event).__name__.lower()


class DesProfiler:
    """Aggregates executed-event cost per owner; install on a Simulator.

    Rows map owner → [events, wall_ns, sim_s]. ``sim_s`` is the sim
    time that elapsed while the event was at the head of the queue (the
    inter-event gap it closed), ``wall_ns`` is the host time spent
    running its callbacks.
    """

    #: Wall-clock source, read only from this module. Kept as a class
    #: attribute so tests can substitute a fake clock.
    clock = staticmethod(time.perf_counter_ns)

    def __init__(self) -> None:
        self.rows: dict[str, list] = {}
        self.events_profiled = 0

    def install(self, sim: Any) -> "DesProfiler":
        """Attach to a simulator; its ``step()`` starts accounting."""
        sim._profiler = self
        return self

    def uninstall(self, sim: Any) -> None:
        if getattr(sim, "_profiler", None) is self:
            sim._profiler = None

    def account(self, event: Any, callbacks: list,
                sim_dt: float, wall_ns: int) -> None:
        """Called by the simulator's ``step()`` for each executed event."""
        owner = _owner_of(event, callbacks)
        row = self.rows.get(owner)
        if row is None:
            self.rows[owner] = [1, wall_ns, sim_dt]
        else:
            row[0] += 1
            row[1] += wall_ns
            row[2] += sim_dt
        self.events_profiled += 1

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready snapshot; rows sorted by owner for stable layout.

        (The wall_ns values themselves are nondeterministic — do not
        include this payload in byte-identical replay comparisons.)
        """
        return {
            "events_profiled": self.events_profiled,
            "rows": {owner: {"events": row[0], "wall_ns": row[1],
                             "sim_s": row[2]}
                     for owner, row in sorted(self.rows.items())},
        }


class ShardProfiler:
    """Barrier/straggler accounting for the sharded backends (opt-in).

    One row per epoch: per-shard advance wall time (how long each heap
    took to reach the barrier), per-shard barrier wait (the idle gap to
    the slowest shard — on the sequential backend shards advance one
    after another, so "wait" reads as *the time the barrier would have
    idled* had they run concurrently), per-shard relay injections, and
    the critical-path shard (max advance, lowest index on ties).

    Like :class:`DesProfiler`, wall times are nondeterministic: the
    payload is recorded under :data:`SHARD_PROFILE_TOPIC` only by
    ``snapshot_observability`` exports, never in the merged trace the
    digest fingerprints — and enabling profiling must not (and does
    not) perturb any zone's record stream.
    """

    #: Wall-clock source, read only from obs code (continuum-lint keeps
    #: simulation packages wall-clock-free); class attribute so tests
    #: can substitute a fake clock.
    clock = staticmethod(time.perf_counter_ns)

    def __init__(self, n_shards: int, backend: str = "sequential"):
        self.n_shards = int(n_shards)
        self.backend = backend
        self.epochs: list[dict[str, Any]] = []
        self.advance_ns = [0] * self.n_shards
        self.wait_ns = [0] * self.n_shards
        self.relay = [0] * self.n_shards
        self.critical_epochs = [0] * self.n_shards

    def record_epoch(self, epoch: int, t_barrier_s: float,
                     advance_ns: list[int], relay: list[int]) -> int:
        """Account one epoch; returns the critical-path shard index."""
        slowest = max(advance_ns)
        critical = advance_ns.index(slowest)
        wait = [slowest - ns for ns in advance_ns]
        self.epochs.append({
            "epoch": epoch, "t_s": t_barrier_s,
            "advance_ns": list(advance_ns), "wait_ns": wait,
            "relay": list(relay), "critical": critical})
        for shard in range(self.n_shards):
            self.advance_ns[shard] += advance_ns[shard]
            self.wait_ns[shard] += wait[shard]
            self.relay[shard] += relay[shard]
        self.critical_epochs[critical] += 1
        return critical

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready snapshot (epoch rows + per-shard totals).

        Relay counts and epoch/shard structure are deterministic; the
        wall_ns values are not — same exclusion rule as
        :class:`DesProfiler`.
        """
        return {
            "backend": self.backend,
            "n_shards": self.n_shards,
            "epochs": list(self.epochs),
            "shards": [{"advance_ns": self.advance_ns[s],
                        "wait_ns": self.wait_ns[s],
                        "relay": self.relay[s],
                        "critical_epochs": self.critical_epochs[s]}
                       for s in range(self.n_shards)],
        }
