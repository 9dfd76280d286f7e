"""The MAPE-K control loop of the MIRTO Cognitive Engine.

Paper Sec. IV: "dynamic orchestration entails four steps executed in
loops [17], [18]: 1) sensing of internal and external triggers; 2)
evaluation of aggregated local and global information; 3) decision for
resource allocation/configuration to improve KPIs; and 4)
reconfiguration/reallocation." The Knowledge (K) part is the shared KB.
Each :meth:`MapeLoop.iterate` runs one full cycle and records per-stage
accounting for the Fig. 3 benchmark.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field

from repro.core.errors import OrchestrationError
from repro.continuum.infrastructure import Infrastructure
from repro.kb.registry import ResourceRegistry
from repro.mirto.manager import TRUST_THRESHOLD, MirtoManager
from repro.mirto.placement import (
    PlacementRequest,
    SolveBudget,
    make_strategy,
    solve_traced,
)
from repro.monitoring.monitors import InfrastructureMonitor

#: Utilization above which Analyze raises an ``overload`` trigger.
OVERLOAD_UTILIZATION = 0.85
#: Utilization below which an idle device raises ``underload``.
UNDERLOAD_UTILIZATION = 0.15
#: Anytime solver the Plan stage races for replanning advice after
#: faults.
PLAN_STRATEGY = "portfolio"
#: Budget per replanning solve — tight by design: Plan shares the
#: control loop's cadence, so advice must come from an anytime
#: incumbent, not an exhaustive search.
PLAN_BUDGET = SolveBudget(deadline_s=0.010)


@dataclass
class Trigger:
    """Something the Analyze stage decided needs a reaction."""

    # "overload" | "underload" | "trust-drop" | "fault" |
    # "degrade" | "restore"
    kind: str
    component: str
    detail: str


@dataclass
class PlannedAction:
    """A decision the Plan stage produced."""

    # "set-operating-point" | "flag-reallocation" | "suggest-placement"
    kind: str
    component: str
    parameter: str


@dataclass
class LoopRecord:
    """Accounting for one MAPE iteration."""

    iteration: int
    sensed_components: int
    triggers: list[Trigger]
    actions: list[PlannedAction]
    executed: int
    #: Causal span context of this cycle (None when tracing disabled).
    #: A remediation scenario resumes it (``tracer.resume``) so the
    #: repair/redeploy work lands in the same trace as the fault.
    span_context: object | None = None


class MapeLoop:
    """Monitor-Analyze-Plan-Execute over the shared knowledge base.

    The loop is wired to the infrastructure's
    :class:`~repro.runtime.RuntimeContext`: every phase transition is
    published on the shared bus (``mirto.mape.<phase>``), the internal
    monitor reads the canonical clock, and ``continuum.fault.*`` events
    arriving between iterations become external triggers for the next
    Analyze stage — the sensing of "internal and external triggers" the
    paper asks for.
    """

    def __init__(self, infrastructure: Infrastructure,
                 registry: ResourceRegistry,
                 manager: MirtoManager):
        self.infrastructure = infrastructure
        self.registry = registry
        self.manager = manager
        self.ctx = infrastructure.ctx
        self.planner = make_strategy(
            PLAN_STRATEGY, self.ctx.rng.python("mirto.mape.plan"))
        self.monitor = InfrastructureMonitor("mape", ctx=self.ctx)
        self.records: list[LoopRecord] = []
        #: (time_s, device, "fail"|"repair") for every fault seen on
        #: the shared bus, stamped with the canonical clock.
        self.fault_observations: list[tuple[float, str, str]] = []
        self._pending_faults: list[Trigger] = []
        # Span context of the fault that armed the pending triggers:
        # captured at delivery time (while the inject span is still
        # ambient), consumed as the parent of the next MAPE cycle so
        # the asynchronous reaction stays in the fault's trace.
        self._pending_fault_parent = None
        #: Chaos campaigns currently in progress (``chaos.campaign.*``
        #: bus accounting). While non-zero, Analyze steps graceful
        #: degradation in instead of chasing utilization triggers.
        self.chaos_campaigns_active = 0
        self._degraded: set[str] = set()
        self._degradation_started: float | None = None
        #: Total simulated time spent degraded (closed intervals only;
        #: see :attr:`degradation_time_s` for the live value).
        self._degradation_accum = 0.0
        metrics = self.ctx.metrics
        self._iterations = metrics.counter(
            "mirto.mape.iterations", "MAPE cycles run")
        self._tick_latency = metrics.histogram(
            "mirto.mape.tick_latency_s",
            "sim-time duration of one MAPE cycle")
        self.ctx.subscribe("continuum.fault.*", self._on_fault)
        self.ctx.subscribe("chaos.campaign.*", self._on_campaign)

    def _on_fault(self, topic: str, payload) -> None:
        device = (payload or {}).get("device", "?")
        kind = topic.rsplit(".", 1)[-1]
        self.fault_observations.append((self.ctx.now, device, kind))
        if kind == "fail":
            self._pending_faults.append(Trigger(
                "fault", device,
                f"device failed at t={self.ctx.now:.6f}"))
            parent = self.ctx.tracer.capture()
            if parent is not None:
                self._pending_fault_parent = parent

    def _on_campaign(self, topic: str, payload) -> None:
        kind = topic.rsplit(".", 1)[-1]
        if kind == "begin":
            self.chaos_campaigns_active += 1
        elif kind == "end":
            self.chaos_campaigns_active = max(
                0, self.chaos_campaigns_active - 1)

    @property
    def degradation_time_s(self) -> float:
        """Total simulated time applications spent stepped down."""
        total = self._degradation_accum
        if self._degradation_started is not None:
            total += self.ctx.now - self._degradation_started
        return total

    # -- the four stages -----------------------------------------------------

    def sense(self) -> dict[str, dict]:
        """Stage 1: pull telemetry from every device into the KB.

        Every device is sampled first; the cycle's statuses then reach
        the KB as one batched write (one consensus round per cycle).
        """
        samples = {}
        statuses = {}
        for device in self.infrastructure.devices.values():
            sample = self.monitor.sample_device(device=device)
            statuses[device.name] = {
                "utilization": sample["utilization"],
                "queue_length": sample["queue_length"],
                "operating_point": device.operating_point.name,
            }
            samples[device.name] = sample
        self.registry.update_statuses(statuses)
        return samples

    def analyze(self, samples: dict[str, dict]) -> list[Trigger]:
        """Stage 2: evaluate aggregated local and global information.

        Consumes the external fault triggers delivered on the shared
        bus since the previous cycle, then derives internal triggers
        from the sensed telemetry.
        """
        triggers, self._pending_faults = self._pending_faults, []
        if self.chaos_campaigns_active > 0:
            # Graceful degradation: while a chaos campaign is running,
            # utilization triggers would chase the injected turbulence;
            # instead step every capable application device down to its
            # low-power operating point and ride the storm out.
            for name, device in self.infrastructure.devices.items():
                if device.failed or name in self._degraded:
                    continue
                if "low-power" in device.operating_points:
                    triggers.append(Trigger(
                        "degrade", name, "chaos campaign in progress"))
                    self._degraded.add(name)
            if self._degraded and self._degradation_started is None:
                self._degradation_started = self.ctx.now
        elif self._degraded:
            # Campaign over: restore every device we stepped down.
            # Skip the utilization pass this cycle — the devices are
            # still at low-power, so an "underload" trigger would undo
            # the restore before it takes effect.
            for name in sorted(self._degraded):
                triggers.append(Trigger(
                    "restore", name, "chaos campaign ended"))
            self._degraded.clear()
            if self._degradation_started is not None:
                self._degradation_accum += \
                    self.ctx.now - self._degradation_started
                self._degradation_started = None
        else:
            for name, sample in samples.items():
                utilization = sample["utilization"]
                if utilization > OVERLOAD_UTILIZATION:
                    triggers.append(Trigger(
                        "overload", name,
                        f"utilization {utilization:.2f} > "
                        f"{OVERLOAD_UTILIZATION}"))
                elif utilization < UNDERLOAD_UTILIZATION and \
                        sample["queue_length"] == 0:
                    triggers.append(Trigger(
                        "underload", name,
                        f"utilization {utilization:.2f} < "
                        f"{UNDERLOAD_UTILIZATION}"))
        for name in self.infrastructure.devices:
            trust = self.manager.security.trust.trust(name)
            if trust < TRUST_THRESHOLD:
                triggers.append(Trigger(
                    "trust-drop", name, f"trust {trust:.2f}"))
        return triggers

    def plan(self, triggers: list[Trigger]) -> list[PlannedAction]:
        """Stage 3: decide configuration changes per trigger."""
        actions = []
        for trigger in triggers:
            device = self.infrastructure.devices.get(trigger.component)
            if trigger.kind == "overload" and device is not None:
                if "performance" in device.operating_points:
                    actions.append(PlannedAction(
                        "set-operating-point", trigger.component,
                        "performance"))
                actions.append(PlannedAction(
                    "flag-reallocation", trigger.component, "offload"))
            elif trigger.kind == "underload" and device is not None:
                if "low-power" in device.operating_points:
                    actions.append(PlannedAction(
                        "set-operating-point", trigger.component,
                        "low-power"))
            elif trigger.kind == "degrade" and device is not None:
                actions.append(PlannedAction(
                    "set-operating-point", trigger.component,
                    "low-power"))
            elif trigger.kind == "restore" and device is not None:
                if "balanced" in device.operating_points:
                    actions.append(PlannedAction(
                        "set-operating-point", trigger.component,
                        "balanced"))
            elif trigger.kind in ("trust-drop", "fault"):
                actions.append(PlannedAction(
                    "flag-reallocation", trigger.component, "avoid"))
        if any(t.kind == "fault" for t in triggers):
            actions.extend(self._replan())
        return actions

    def _replan(self) -> list[PlannedAction]:
        """Race the anytime solver for fresh placement advice.

        A fault invalidated assumptions behind the current placements,
        so Plan re-solves every deployed service under a tight budget
        and suggests the incumbent; Execute writes it into the KB,
        where the next deploy of that service picks it up as a
        warm start. Each solve is recorded by :func:`solve_traced`.
        """
        workload = self.manager.workload
        actions = []
        for service_name in sorted(workload.services):
            app, constraints = workload.placement_problem(
                workload.services[service_name])
            outcome = next(
                (d for d in reversed(workload.deployments)
                 if d.service_name == service_name), None)
            request = PlacementRequest(
                application=app, infrastructure=self.infrastructure,
                constraints=constraints, budget=PLAN_BUDGET,
                warm_start=outcome.placement if outcome else None)
            try:
                result = solve_traced(self.planner, request, service_name)
            except OrchestrationError:
                # The fault may have left a task with no eligible
                # device; nothing to suggest until repair.
                continue
            actions.append(PlannedAction(
                "suggest-placement", service_name,
                json.dumps(dict(sorted(
                    result.placement.assignment.items())),
                    sort_keys=True, separators=(",", ":"))))
        return actions

    def execute(self, actions: list[PlannedAction]) -> int:
        """Stage 4: apply reconfigurations; returns how many applied."""
        executed = 0
        # Clear reallocation flags that this cycle no longer justifies,
        # so devices rejoin the placement pool once they recover.
        flagged_now = {a.component for a in actions
                       if a.kind == "flag-reallocation"}
        for key in list(self.registry.kb.range("status/reallocation/")):
            component = key[len("status/reallocation/"):]
            if component not in flagged_now:
                self.registry.kb.delete(key)
        for action in actions:
            if action.kind == "set-operating-point":
                device = self.infrastructure.device(action.component)
                if device.operating_point.name != action.parameter:
                    self.manager.node_manager.apply_operating_point(
                        action.component, action.parameter)
                    executed += 1
            elif action.kind == "flag-reallocation":
                self.registry.update_status(
                    f"reallocation/{action.component}",
                    {"advice": action.parameter})
                executed += 1
            elif action.kind == "suggest-placement":
                self.registry.update_status(
                    f"placement-advice/{action.component}",
                    {"assignment": json.loads(action.parameter)})
                executed += 1
        return executed

    def iterate(self) -> LoopRecord:
        """One full MAPE cycle; phase transitions land on the bus.

        The cycle runs inside a ``mirto.mape.cycle`` span with the four
        phases as child spans. When a fault armed pending triggers since
        the previous cycle, the cycle adopts the fault's captured span
        context as parent — linking the asynchronous reaction back into
        the fault's trace.
        """
        iteration = len(self.records)
        parent, self._pending_fault_parent = \
            self._pending_fault_parent, None
        tracer = self.ctx.tracer
        start_s = self.ctx.now
        with tracer.start_span("mirto.mape.cycle", layer="mirto",
                               parent=parent,
                               iteration=iteration) as cycle:
            with tracer.start_span("mirto.mape.sense", layer="mirto"):
                samples = self.sense()
                self.ctx.publish("mirto.mape.sense", {
                    "iteration": iteration, "components": len(samples)})
            with tracer.start_span("mirto.mape.analyze", layer="mirto"):
                triggers = self.analyze(samples)
                self.ctx.publish("mirto.mape.analyze", {
                    "iteration": iteration,
                    "triggers": [f"{t.kind}:{t.component}"
                                 for t in triggers]})
            with tracer.start_span("mirto.mape.plan", layer="mirto"):
                actions = self.plan(triggers)
                self.ctx.publish("mirto.mape.plan", {
                    "iteration": iteration,
                    "actions": [f"{a.kind}:{a.component}"
                                for a in actions]})
            with tracer.start_span("mirto.mape.execute", layer="mirto"):
                executed = self.execute(actions)
                self.ctx.publish("mirto.mape.execute", {
                    "iteration": iteration, "executed": executed})
        self._iterations.inc()
        self._tick_latency.observe(self.ctx.now - start_s)
        record = LoopRecord(
            iteration=iteration,
            sensed_components=len(samples),
            triggers=triggers,
            actions=actions,
            executed=executed,
            span_context=cycle.context,
        )
        self.records.append(record)
        return record
