"""Fault injection: device failures and repairs over simulated time.

Table I commits the orchestration to "improved reliability"; proving
that requires a substrate where components actually fail. A
:class:`FaultInjector` drives exponential failure/repair processes per
device; a failed device admits no new work, while the tasks already
holding its cores run to completion (:meth:`Device.execute` checks
``failed`` only at admission). The placement layer filters failed
devices automatically, and :class:`ReliabilityTracker` accounts
availability, MTTF/MTTR and the tasks running when a device failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.errors import CapacityError, ConfigurationError
from repro.continuum.devices import Device
from repro.continuum.infrastructure import Infrastructure
from repro.continuum.simulator import Simulator


@dataclass
class FaultEvent:
    """One failure or repair."""

    device: str
    kind: str  # "fail" | "repair"
    time_s: float


@dataclass
class ReliabilityTracker:
    """Per-device availability accounting."""

    events: list[FaultEvent] = field(default_factory=list)
    #: Tasks holding a core when their device failed. They run to
    #: completion, so none of them is lost.
    tasks_running_at_failure: int = 0

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def availability(self, device: str, horizon_s: float) -> float:
        """Fraction of [0, horizon] the device was up."""
        if horizon_s <= 0:
            return 1.0
        down_time = 0.0
        down_since: float | None = None
        for event in self.events:
            if event.device != device:
                continue
            if event.kind == "fail" and down_since is None:
                down_since = event.time_s
            elif event.kind == "repair" and down_since is not None:
                down_time += event.time_s - down_since
                down_since = None
        if down_since is not None:
            down_time += horizon_s - down_since
        return max(0.0, 1.0 - down_time / horizon_s)

    def failures_of(self, device: str) -> int:
        return sum(1 for e in self.events
                   if e.device == device and e.kind == "fail")


class FaultInjector:
    """Exponential fail/repair process for a set of devices.

    ``mtbf_s`` is the mean time between failures while up; ``mttr_s``
    the mean time to repair while down. Starting the injector arms one
    DES process per device. Every failure and repair is published on
    the shared runtime bus (``continuum.fault.fail`` / ``.repair``) so
    the kube control plane, the MAPE loop and the monitors all see it
    on the same timeline.
    """

    def __init__(self, infrastructure: Infrastructure,
                 rng: random.Random | None = None,
                 mtbf_s: float = 3600.0, mttr_s: float = 60.0,
                 devices: list[str] | None = None):
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ConfigurationError("MTBF and MTTR must be positive")
        self.infrastructure = infrastructure
        self.ctx = infrastructure.ctx
        self.rng = rng or self.ctx.rng.python("continuum.faults")
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s
        self.device_names = devices or list(infrastructure.devices)
        self.tracker = ReliabilityTracker()
        self._running = True
        self._failures = self.ctx.metrics.counter(
            "continuum.faults.failures", "device failures injected")
        self._repairs = self.ctx.metrics.counter(
            "continuum.faults.repairs", "device repairs applied")

    def start(self) -> None:
        """Arm the fail/repair process for every covered device."""
        for name in self.device_names:
            self.infrastructure.sim.process(
                self._drive(name), name=f"faults-{name}")

    def stop(self) -> None:
        self._running = False

    def _drive(self, name: str):
        sim = self.infrastructure.sim
        device = self.infrastructure.device(name)
        while self._running:
            yield sim.timeout(self.rng.expovariate(1.0 / self.mtbf_s))
            if not self._running:
                return
            self._fail(device)
            yield sim.timeout(self.rng.expovariate(1.0 / self.mttr_s))
            self._repair(device)

    def inject_now(self, device_name: str) -> None:
        """Fail *device_name* at the current simulated instant.

        Deterministic counterpart of the stochastic process — used by
        cross-layer scenarios that need a fault at an exact time.
        """
        self._fail(self.infrastructure.device(device_name))

    def repair_now(self, device_name: str) -> None:
        """Repair *device_name* at the current simulated instant."""
        self._repair(self.infrastructure.device(device_name))

    def _fail(self, device: Device) -> None:
        now = self.ctx.now
        # The inject span is the causal root of everything the fault
        # touches: bus delivery is synchronous, so kube evictions,
        # monitor samples and MAPE trigger capture all happen inside it
        # and share its trace id.
        with self.ctx.tracer.start_span(
                "continuum.fault.inject", layer="continuum", root=True,
                device=device.name):
            device.failed = True
            self.tracker.record(FaultEvent(device.name, "fail", now))
            # Count the tasks holding a core at the failure instant.
            # Nothing interrupts them: they run to completion, and only
            # new work is refused. The payload keeps its historical
            # ``interrupted`` key, which every recorded fault carries.
            running = len(device.cores.users)
            self.tracker.tasks_running_at_failure += running
            self._failures.inc()
            self.ctx.publish("continuum.fault.fail", {
                "device": device.name, "time_s": now,
                "interrupted": running})

    def _repair(self, device: Device) -> None:
        now = self.ctx.now
        with self.ctx.tracer.start_span(
                "continuum.fault.repair", layer="continuum", root=True,
                device=device.name):
            device.failed = False
            self.tracker.record(FaultEvent(device.name, "repair", now))
            self._repairs.inc()
            self.ctx.publish("continuum.fault.repair", {
                "device": device.name, "time_s": now})
