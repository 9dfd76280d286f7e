"""Tests for vectorized device fleets (:mod:`repro.continuum.fleet`).

The load-bearing property is the RNG contract: :meth:`DeviceFleet.step`
(one ``random(n)`` batch pair) must be state-for-state, joule-for-joule
identical to :func:`step_reference` (scalar per-device draws in index
order, then the plain ``np.where`` arithmetic) — that equivalence is
what lets the 10k-device scenario replace per-object device churn
without changing any replayed trace. It is checked bit for bit: the
step's in-place products must round exactly like the reference.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import DeviceFleet
from repro.core.errors import ConfigurationError
from repro.runtime import RuntimeContext


def _fleet(seed: int, size: int = 16, **kwargs) -> DeviceFleet:
    return DeviceFleet("zone-x", size, ctx=RuntimeContext(seed=seed),
                       **kwargs)


def step_reference(fleet: DeviceFleet, dt_s: float, *,
                   publish: bool = True) -> None:
    """Scalar twin of :meth:`DeviceFleet.step`: one draw per device in
    index order from the fleet's stream, then the state update written
    the straightforward way (``np.where`` selections into fresh arrays,
    ``.sum()`` counts, ``dt_s * ~up`` downtime)."""
    rng = fleet._rng
    u_churn = np.array([rng.random() for _ in range(fleet.size)])
    u_load = np.array([rng.random() for _ in range(fleet.size)])
    p_fail = -math.expm1(-fleet.fail_rate_per_s * dt_s)
    p_repair = -math.expm1(-fleet.repair_rate_per_s * dt_s)
    was_up = fleet.up
    if fleet.forced_outage:
        forced = int(was_up.sum())
        fleet.forced_failures += forced
        fleet._bump(fleet._c_forced, forced)
        up = np.zeros(fleet.size, dtype=bool)
    else:
        fails = was_up & (u_churn < p_fail)
        repairs = ~was_up & (u_churn < p_repair)
        n_fail = int(fails.sum())
        n_repair = int(repairs.sum())
        fleet.failures += n_fail
        fleet.repairs += n_repair
        fleet._bump(fleet._c_failures, n_fail)
        fleet._bump(fleet._c_repairs, n_repair)
        up = (was_up & ~fails) | repairs
    fleet._bump(fleet._c_steps, 1)
    fleet.up = up
    fleet.utilization = np.where(up, u_load, 0.0)
    fleet.energy_j += dt_s * np.where(
        up, fleet._idle_w + fleet.utilization
        * (fleet._busy_w - fleet._idle_w), 0.0)
    fleet.downtime_s += dt_s * ~up
    fleet.steps += 1
    fleet.elapsed_s += dt_s
    if not publish:
        return
    fleet.ctx.publish(f"shard.fleet.telemetry.{fleet.zone}", {
        "zone": fleet.zone,
        "time_s": fleet.ctx.now,
        "up": int(up.sum()),
        "utilization": float(fleet.utilization.mean()),
        "energy_j": float(fleet.energy_j.sum()),
        "failures": fleet.failures,
        "repairs": fleet.repairs,
    })


def _assert_bit_equal(fast: DeviceFleet, slow: DeviceFleet) -> None:
    """State arrays byte for byte (so +0.0 vs -0.0 or a last-bit
    rounding difference fails), counters, metrics and the trace —
    which holds every telemetry payload — equal."""
    for name in ("up", "energy_j", "downtime_s", "utilization"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("failures", "repairs", "forced_failures", "steps",
                 "elapsed_s"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert fast.ctx.metrics.to_payload() == slow.ctx.metrics.to_payload()
    assert fast.ctx.trace.to_jsonl() == slow.ctx.trace.to_jsonl()
    assert fast.scorecard() == slow.scorecard()


class TestVectorizedEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           size=st.integers(min_value=1, max_value=40),
           plan=st.lists(st.tuples(st.sampled_from([0.5, 2.0, 5.0]),
                                   st.booleans(), st.booleans()),
                         min_size=1, max_size=8))
    def test_step_equals_step_reference(self, seed, size, plan):
        """Same seed, same stream: the vectorized batch path and the
        scalar per-device loop produce bit-identical state, counters
        and telemetry — through forced-outage steps and steps that
        skip the publish."""
        fast = _fleet(seed, size, fail_rate_per_s=2e-2,
                      repair_rate_per_s=2e-1)
        slow = _fleet(seed, size, fail_rate_per_s=2e-2,
                      repair_rate_per_s=2e-1)
        for dt_s, forced, publish in plan:
            fast.forced_outage = slow.forced_outage = forced
            fast.step(dt_s, publish=publish)
            step_reference(slow, dt_s, publish=publish)
            _assert_bit_equal(fast, slow)

    def test_telemetry_streams_identical(self):
        fast = _fleet(9, size=6250, fail_rate_per_s=1e-2)
        slow = _fleet(9, size=6250, fail_rate_per_s=1e-2)
        for step in range(6):
            forced = step == 2
            fast.forced_outage = slow.forced_outage = forced
            fast.step(10.0, publish=step != 3)
            step_reference(slow, 10.0, publish=step != 3)
        fast_tele = [rec.payload for rec in fast.ctx.trace
                     if rec.topic.startswith("shard.fleet.telemetry.")]
        slow_tele = [rec.payload for rec in slow.ctx.trace
                     if rec.topic.startswith("shard.fleet.telemetry.")]
        assert len(fast_tele) == 5
        assert fast_tele == slow_tele
        _assert_bit_equal(fast, slow)


class TestChurnAccounting:
    def test_energy_integrates_only_while_up(self):
        fleet = _fleet(1, size=4, fail_rate_per_s=0.0,
                       repair_rate_per_s=0.0)
        fleet.step(10.0)
        assert bool(fleet.up.all())
        assert (fleet.energy_j > 0).all()
        assert fleet.downtime_s.sum() == 0.0
        assert fleet.availability() == 1.0

    def test_forced_outage_darkens_and_recovers(self):
        fleet = _fleet(2, size=32, fail_rate_per_s=0.0,
                       repair_rate_per_s=0.5)
        fleet.start(5.0)
        fleet.schedule_outage(10.0, 15.0)
        fleet.ctx.sim.run(until=100.0)
        # The outage dipped availability; the repair process healed it.
        assert fleet.forced_failures > 0
        assert fleet.repairs > 0
        assert 0.0 < fleet.availability() < 1.0
        topics = [rec.topic for rec in fleet.ctx.trace]
        assert "chaos.zone.fail" in topics
        assert "chaos.zone.repair" in topics
        assert int(fleet.up.sum()) > 0  # recovered by the horizon

    def test_outage_consumes_draws_for_replay(self):
        """A dark zone still consumes its draw pair per step: the stream
        position is part of the replay contract, so post-outage state
        matches a run that was never forced dark only in stream position,
        not in state."""
        forced = _fleet(3, size=8, fail_rate_per_s=0.0,
                        repair_rate_per_s=50.0)
        free = _fleet(3, size=8, fail_rate_per_s=0.0,
                      repair_rate_per_s=50.0)
        forced.forced_outage = True
        forced.step(1.0)
        forced.forced_outage = False
        free.step(1.0)
        forced.step(1.0)
        free.step(1.0)
        # Second step saw the same draws in both fleets: identical
        # utilization samples even though the first steps diverged.
        assert np.array_equal(forced.utilization, free.utilization)

    def test_start_drives_periodic_steps(self):
        fleet = _fleet(4, size=2)
        fleet.start(10.0)
        fleet.ctx.sim.run(until=100.0)
        assert fleet.steps == 10
        assert fleet.elapsed_s == 100.0

    def test_scorecard_is_json_primitive(self):
        fleet = _fleet(5, size=3)
        fleet.step(1.0)
        card = fleet.scorecard()
        assert json.loads(json.dumps(card)) == card


class TestFleetValidation:
    def test_bad_configuration_raises(self):
        with pytest.raises(ConfigurationError):
            _fleet(0, size=0)
        with pytest.raises(ConfigurationError):
            _fleet(0, fail_rate_per_s=-1.0)
        fleet = _fleet(0)
        with pytest.raises(ConfigurationError):
            fleet.start(0.0)
        with pytest.raises(ConfigurationError):
            fleet.schedule_outage(1.0, 0.0)
