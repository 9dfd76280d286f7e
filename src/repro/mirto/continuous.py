"""Execution-time orchestration: periodic services with live re-placement.

Paper Sec. IV: "MIRTO cognitive engine is responsible for high-level
continuum orchestration both at deployment time (when a computation
request is issued) and at execution time (while tasks are already
running)", and CH2 demands applications be "dynamically updated for
continuous optimization". This module adds the execution-time half: a
:class:`ContinuousDeployment` runs an application periodically; after
each period the engine compares the measured KPIs against the current
placement's promise and against a re-optimized candidate, migrating when
the predicted improvement exceeds a hysteresis threshold (migration has
a cost, so flapping must not pay).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.continuum.infrastructure import Infrastructure
from repro.continuum.workload import Application
from repro.mirto.placement import (
    ExecutionReport,
    GreedyPlacement,
    Placement,
    PlacementConstraints,
    PlacementRequest,
    estimate_placement_kpis,
    execute_placement,
)


@dataclass
class PeriodRecord:
    """KPIs of one execution period."""

    period: int
    makespan_s: float
    energy_j: float
    migrated: bool
    placement: dict[str, str]


@dataclass
class MigrationPolicy:
    """When is moving worth it?

    ``improvement_threshold`` is the fractional predicted latency gain
    required before migrating; ``migration_cost_s`` models state
    transfer / container restart, charged to the period that migrates.
    """

    improvement_threshold: float = 0.15
    migration_cost_s: float = 0.020


class ContinuousDeployment:
    """One long-running service under execution-time orchestration,
    placed and re-placed by the greedy list scheduler."""

    def __init__(self, application: Application,
                 infrastructure: Infrastructure,
                 constraints: PlacementConstraints | None = None,
                 policy: MigrationPolicy | None = None):
        self.application = application
        self.infrastructure = infrastructure
        self.ctx = infrastructure.ctx
        self.constraints = constraints or PlacementConstraints()
        self.policy = policy or MigrationPolicy()
        self.history: list[PeriodRecord] = []
        self.placement = self._candidate()
        self.migrations = 0

    def _candidate(self) -> Placement:
        """Re-optimize against the current infrastructure state."""
        request = PlacementRequest(
            application=self.application,
            infrastructure=self.infrastructure,
            constraints=self.constraints)
        return GreedyPlacement().solve(request).placement

    def run_period(self) -> PeriodRecord:
        """Execute one period, then consider migrating for the next."""
        report = execute_placement(
            self.application, self.placement, self.infrastructure,
            source_device=self.constraints.source_device)
        migrated = self._maybe_migrate(report)
        record = PeriodRecord(
            period=len(self.history),
            makespan_s=report.makespan_s,
            energy_j=report.energy_j,
            migrated=migrated,
            placement=dict(self.placement.assignment),
        )
        self.history.append(record)
        return record

    def _maybe_migrate(self, report: ExecutionReport) -> bool:
        candidate = self._candidate()
        if candidate.assignment == self.placement.assignment:
            return False
        current_est, _ = estimate_placement_kpis(
            self.application, self.placement, self.infrastructure,
            self.constraints.source_device)
        candidate_est, _ = estimate_placement_kpis(
            self.application, candidate, self.infrastructure,
            self.constraints.source_device)
        gain = (current_est - candidate_est) / max(current_est, 1e-12)
        if gain < self.policy.improvement_threshold:
            return False
        # Pay the migration cost in simulated time.
        sim = self.infrastructure.sim
        sim.run(until=sim.now + self.policy.migration_cost_s)
        for task_name, new_device in candidate.assignment.items():
            old_device = self.placement.assignment[task_name]
            if old_device != new_device:
                self.infrastructure.record_offload(old_device, new_device)
        self.placement = Placement(candidate.assignment,
                                   f"{candidate.strategy}+migrated")
        self.migrations += 1
        self.ctx.publish("mirto.continuous.migrated", {
            "application": self.application.name,
            "period": len(self.history),
            "assignment": dict(sorted(candidate.assignment.items())),
            "predicted_gain": gain,
        })
        return True

    def mean_makespan(self, last: int | None = None) -> float:
        """Mean makespan over the last *last* periods (or all)."""
        window = self.history[-last:] if last else self.history
        if not window:
            return 0.0
        return sum(r.makespan_s for r in window) / len(window)


def run_with_interference(deployment: ContinuousDeployment,
                          periods: int,
                          interfere_at: int | None = None,
                          interference_device: str | None = None,
                          interference_megaops: float = 5000.0,
                          interference_tasks: int = 12
                          ) -> list[PeriodRecord]:
    """Drive *periods* periods, optionally injecting interference.

    From period *interfere_at* onwards, *interference_tasks* background
    feeder processes keep *interference_device* saturated (each feeder
    immediately re-submits work when its task finishes) — the sustained
    co-tenant load the execution-time orchestration should route around.
    The feeders stop once the last period completes.
    """
    from repro.continuum.workload import Task
    records = []
    state = {"on": False, "counter": 0}

    def feeder(device, tag):
        while state["on"]:
            state["counter"] += 1
            yield deployment.infrastructure.sim.process(device.execute(
                Task(f"interference-{tag}-{state['counter']}",
                     megaops=interference_megaops)))

    for period in range(periods):
        if interfere_at is not None and period == interfere_at \
                and interference_device is not None:
            state["on"] = True
            device = deployment.infrastructure.device(
                interference_device)
            sim = deployment.infrastructure.sim
            for i in range(interference_tasks):
                sim.process(feeder(device, i))
        records.append(deployment.run_period())
    state["on"] = False
    return records
