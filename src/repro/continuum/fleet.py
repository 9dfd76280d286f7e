"""Vectorized device fleets: array-of-struct batch stepping at 10k+ scale.

The per-object :class:`~repro.continuum.devices.Device` model costs
microseconds of Python per device per event — fine for tens of devices,
prohibitive for a city. A :class:`DeviceFleet` holds one *zone's* device
population as numpy arrays (up/down state, per-device energy, downtime)
and advances the whole population in one DES event per telemetry period:
a single vectorized churn draw, elementwise state transitions, one
aggregate telemetry publish. Per-device cost amortizes to nanoseconds.

RNG contract: a step draws two batches from the fleet's named stream —
``random(n)`` for churn, then ``random(n)`` for load — and numpy
generators fill a batch in index order, so device *i* consumes exactly
the draw a scalar per-device loop would give it. ``tests/test_fleet.py``
keeps that scalar loop as a reference and pins vectorized == reference,
state for state and joule for joule, bit for bit.

Fleets are zone-determinism-safe by construction: every draw comes from
the owning context's seed subtree and every publish goes to the owning
context's bus, so a fleet behaves identically whether its zone shares a
simulator with seven others or runs alone (see
:mod:`repro.runtime.shard`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.continuum.devices import SPEC_CATALOGUE, DeviceKind
from repro.runtime import RuntimeContext

#: Per-zone aggregate telemetry, one publish per fleet step.
FLEET_TELEMETRY_TOPIC = "shard.fleet.telemetry"

_DEFAULT_KINDS = (DeviceKind.EDGE_MULTICORE, DeviceKind.HMPSOC_FPGA,
                  DeviceKind.RISCV_CGRA)


class DeviceFleet:
    """One zone's device population, stepped as arrays.

    Devices cycle over *kinds* (calibrated specs from
    ``SPEC_CATALOGUE``); each step applies exponential churn — up
    devices fail with rate *fail_rate_per_s*, down devices repair with
    rate *repair_per_s* — draws a utilization sample per live device and
    integrates energy from the spec's idle/busy power envelope.
    """

    def __init__(self, zone: str, size: int, *,
                 ctx: RuntimeContext | None = None,
                 kinds: Sequence[DeviceKind] = _DEFAULT_KINDS,
                 fail_rate_per_s: float = 2e-4,
                 repair_rate_per_s: float = 5e-2):
        if size < 1:
            raise ConfigurationError("fleet size must be >= 1")
        if fail_rate_per_s < 0 or repair_rate_per_s < 0:
            raise ConfigurationError("churn rates must be >= 0")
        self.ctx = RuntimeContext.adopt(ctx)
        self.zone = zone
        self.size = size
        self.fail_rate_per_s = fail_rate_per_s
        self.repair_rate_per_s = repair_rate_per_s
        specs = [SPEC_CATALOGUE[k] for k in kinds]
        self._idle_w = np.array(
            [specs[i % len(specs)].idle_power_w for i in range(size)])
        self._busy_w = np.array(
            [specs[i % len(specs)].busy_power_w for i in range(size)])
        #: Busy - idle power, the span a utilization sample scales.
        self._span_w = self._busy_w - self._idle_w
        self._rng = self.ctx.rng.numpy(f"fleet.{zone}")
        # Fleet health counters, labelled by zone so the sharded
        # backends' aggregated registry keeps per-zone breakdowns. The
        # values are RNG-driven and therefore deterministic — safe for
        # the byte-identical cross-backend metrics comparison.
        metrics = self.ctx.metrics
        self._c_steps = metrics.counter(
            "continuum.fleet.steps", "fleet batch steps", label_key="zone")
        self._c_failures = metrics.counter(
            "continuum.fleet.failures", "device churn failures",
            label_key="zone")
        self._c_repairs = metrics.counter(
            "continuum.fleet.repairs", "device churn repairs",
            label_key="zone")
        self._c_forced = metrics.counter(
            "continuum.fleet.forced_failures",
            "devices forced down by zone outages", label_key="zone")
        self.up = np.ones(size, dtype=bool)
        self.energy_j = np.zeros(size)
        self.downtime_s = np.zeros(size)
        self.utilization = np.zeros(size)
        self.failures = 0
        self.repairs = 0
        self.forced_failures = 0
        self.steps = 0
        self.elapsed_s = 0.0
        self.forced_outage = False

    def _bump(self, counter, n: int) -> None:
        """Add *n* to a zone-labelled counter (zero deltas stay silent
        so idle zones don't fabricate label entries)."""
        if n:
            counter.value += n
            labels = counter.labels
            labels[self.zone] = labels.get(self.zone, 0) + n

    # -- stepping ----------------------------------------------------------

    def step(self, dt_s: float, *, publish: bool = True) -> None:
        """Advance every device by *dt_s* with one vectorized draw pair."""
        u_churn = self._rng.random(self.size)
        u_load = self._rng.random(self.size)
        self._apply(dt_s, u_churn, u_load, publish)

    def _apply(self, dt_s: float, u_churn: np.ndarray,
               u_load: np.ndarray, publish: bool = True) -> None:
        p_fail = -math.expm1(-self.fail_rate_per_s * dt_s)
        p_repair = -math.expm1(-self.repair_rate_per_s * dt_s)
        was_up = self.up
        if self.forced_outage:
            # The whole zone is dark: draws are still consumed (the
            # stream position is part of the replay contract) but no
            # device runs or repairs until the outage lifts.
            forced = int(np.count_nonzero(was_up))
            self.forced_failures += forced
            self._bump(self._c_forced, forced)
            up = np.zeros(self.size, dtype=bool)
        else:
            fails = was_up & (u_churn < p_fail)
            repairs = ~was_up & (u_churn < p_repair)
            n_fail = int(np.count_nonzero(fails))
            n_repair = int(np.count_nonzero(repairs))
            self.failures += n_fail
            self.repairs += n_repair
            self._bump(self._c_failures, n_fail)
            self._bump(self._c_repairs, n_repair)
            up = (was_up & ~fails) | repairs
        self._bump(self._c_steps, 1)
        self.up = up
        # Same bits as selecting with np.where into fresh arrays: only
        # the down devices' entries change (zeroed, or dt_s added where
        # dt_s * ~up added 0.0 to the others), and sums and products
        # commute. u_load is this step's own draw, so it becomes the
        # utilization array.
        down = np.flatnonzero(~up)
        u_load[down] = 0.0
        self.utilization = u_load
        power = u_load * self._span_w
        power += self._idle_w
        power[down] = 0.0
        power *= dt_s
        self.energy_j += power
        self.downtime_s[down] += dt_s
        self.steps += 1
        self.elapsed_s += dt_s
        if not publish:
            # Batched telemetry: churn accounting and the RNG stream
            # advanced as usual, only the publish is skipped.
            return
        self.ctx.publish(f"shard.fleet.telemetry.{self.zone}", {
            "zone": self.zone,
            "time_s": self.ctx.now,
            "up": self.size - len(down),
            # sum / n is what mean() computes, minus its wrapper.
            "utilization": float(u_load.sum()) / self.size,
            "energy_j": float(self.energy_j.sum()),
            "failures": self.failures,
            "repairs": self.repairs,
        })

    def start(self, period_s: float, *, every: int = 1) -> None:
        """Drive :meth:`step` every *period_s* on the zone's simulator.

        *every* batches telemetry: devices still step (and consume
        draws) each period, but only every Nth step publishes — the
        trace shrinks by ~N while the churn replay stays identical.
        """
        if period_s <= 0:
            raise ConfigurationError("fleet period must be > 0")
        if every < 1:
            raise ConfigurationError("telemetry batching must be >= 1")
        self.ctx.sim.process(self._drive(period_s, every),
                             name=f"fleet-{self.zone}")

    def _drive(self, period_s: float, every: int):
        timeout = self.ctx.sim.timeout
        while True:
            yield timeout(period_s)
            self.step(period_s, publish=(self.steps + 1) % every == 0)

    # -- chaos -------------------------------------------------------------

    def schedule_outage(self, at_s: float, duration_s: float) -> None:
        """Force the whole zone dark for a window (correlated outage).

        Devices stay down for the window and then recover through the
        normal repair process — availability dips, then heals at the
        repair rate, exactly the scorecard shape chaos campaigns probe.
        """
        if duration_s <= 0:
            raise ConfigurationError("outage duration must be > 0")
        self.ctx.sim.process(self._outage(at_s, duration_s),
                             name=f"fleet-outage-{self.zone}")

    def _outage(self, at_s: float, duration_s: float):
        ctx = self.ctx
        yield ctx.sim.timeout(at_s - ctx.now)
        self.forced_outage = True
        # The fault is the causal root: the publish below rides inside a
        # root span, relay taps ship its context to subscriber zones,
        # and everything the continuum does about this outage — local
        # handlers, cross-zone reactions, the eventual repair — hangs
        # off one trace id (``repro-obs tree`` shows a single tree).
        with ctx.tracer.start_span(
                "continuum.fault.inject", layer="chaos", root=True,
                zone=self.zone, kind="zone_outage") as fault:
            fault_context = getattr(fault, "context", None)
            ctx.publish("chaos.zone.fail", {
                "zone": self.zone, "devices": int(self.up.sum()),
                "time_s": ctx.now})
        yield ctx.sim.timeout(duration_s)
        self.forced_outage = False
        # The repair happens long after the fault span closed; resuming
        # its context keeps the remediation on the same causal tree.
        with ctx.tracer.resume(fault_context):
            with ctx.tracer.start_span(
                    "continuum.fault.repair", layer="chaos",
                    zone=self.zone, kind="zone_outage"):
                ctx.publish("chaos.zone.repair", {
                    "zone": self.zone, "devices": 0, "time_s": ctx.now})

    # -- accounting --------------------------------------------------------

    def availability(self) -> float:
        """Fleet-mean fraction of elapsed time spent up."""
        if self.elapsed_s <= 0:
            return 1.0
        return 1.0 - float(self.downtime_s.sum()) \
            / (self.size * self.elapsed_s)

    def scorecard(self) -> dict:
        """Deterministic per-zone resilience summary (JSON-primitive)."""
        return {
            "zone": self.zone,
            "devices": self.size,
            "steps": self.steps,
            "up": int(self.up.sum()),
            "failures": self.failures,
            "repairs": self.repairs,
            "forced_failures": self.forced_failures,
            "availability": self.availability(),
            "energy_j": float(self.energy_j.sum()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeviceFleet(zone={self.zone!r}, size={self.size}, "
                f"up={int(self.up.sum())}, steps={self.steps})")
