"""Ablation: the cost of the security-level tiering (Table II rationale).

Table II exists because one-size-fits-all security is wrong for a
heterogeneous continuum: PQC everywhere would crush constrained edge
devices, lightweight-everywhere would under-protect the cloud. This
ablation measures the end-to-end messaging overhead of each level for a
telemetry workload, the crossover against message size, and what the
tiering saves versus forcing HIGH on every link.
"""

import time

import pytest

from repro.security import Identity, SecureChannel, SecurityLevel

from _report import emit, emit_timing, table


@pytest.fixture(scope="module")
def channels():
    alice = Identity("edge-node", seed=41)
    bob = Identity("gateway", seed=41)
    return {
        level: SecureChannel.establish(alice, bob, level)
        for level in SecurityLevel
    }


def measure_messaging(channels, message_bytes: int, messages: int = 20):
    """Per-level seal+open wall time and wire overhead."""
    payload = b"\xab" * message_bytes
    results = {}
    for level, (tx, rx) in channels.items():
        start = time.perf_counter()
        wire_total = 0
        for _ in range(messages):
            wire = tx.seal(payload)
            wire_total += len(wire)
            assert rx.open(wire) == payload
        elapsed = time.perf_counter() - start
        results[level.value] = {
            "ms_per_msg": elapsed / messages * 1e3,
            "overhead_bytes": wire_total // messages - message_bytes,
        }
    return results


def test_record_protection_overhead_by_level(channels, benchmark):
    results = benchmark.pedantic(measure_messaging,
                                 args=(channels, 256), rounds=1,
                                 iterations=1)
    title = ["ABLATION: AEAD record protection per level",
             "(256-byte telemetry messages, 20 messages)"]
    note = emit_timing("ablation_security_records", title + [""] + table(
        ["level", "ms/message"],
        [[level, f"{r['ms_per_msg']:.2f}"]
         for level, r in results.items()]))
    emit("ablation_security_records", title + [note, ""] + table(
        ["level", "overhead B"],
        [[level, str(r["overhead_bytes"])]
         for level, r in results.items()]))
    # All levels carry the same small record overhead (counter + tag);
    # the differentiation is in handshakes and compute.
    for r in results.values():
        assert r["overhead_bytes"] <= 32


def test_handshake_amortization_crossover(benchmark):
    """The HIGH handshake is expensive; its relative cost vanishes as
    sessions grow longer. Expected: overhead ratio HIGH/LOW falls
    monotonically with messages-per-session."""

    def measure():
        alice = Identity("a", seed=42)
        bob = Identity("b", seed=42)
        ratios = {}
        for session_messages in (1, 10, 100):
            bytes_per_level = {}
            for level in (SecurityLevel.LOW, SecurityLevel.HIGH):
                tx, _ = SecureChannel.establish(alice, bob, level)
                wire = tx.transcript.total_bytes
                for _ in range(session_messages):
                    wire += len(tx.seal(b"\x01" * 128))
                bytes_per_level[level] = wire
            ratios[session_messages] = (
                bytes_per_level[SecurityLevel.HIGH]
                / bytes_per_level[SecurityLevel.LOW])
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["ABLATION: total wire bytes HIGH/LOW vs session length",
             "(handshake + records, 128-byte messages)", ""]
    lines += table(["messages/session", "HIGH / LOW wire ratio"],
                   [[str(n), f"{ratio:.2f}"]
                    for n, ratio in ratios.items()])
    emit("ablation_security_amortization", lines)
    assert ratios[1] > ratios[10] > ratios[100]
    assert ratios[100] < 1.5  # amortized, PQC is affordable


def test_tiering_saves_versus_high_everywhere(channels, benchmark):
    """The point of Table II: devices talk at the weakest level their
    requirement allows. A mixed fleet (public telemetry on LOW,
    management on MEDIUM, patient data on HIGH) must cost less than
    forcing HIGH on all traffic."""

    def measure():
        traffic = [
            ("telemetry", SecurityLevel.LOW, 200, 50),
            ("management", SecurityLevel.MEDIUM, 512, 10),
            ("patient-data", SecurityLevel.HIGH, 2048, 5),
        ]
        def run(level_override=None):
            start = time.perf_counter()
            for _, level, size, count in traffic:
                use = level_override or level
                tx, rx = channels[use]
                for _ in range(count):
                    rx.open(tx.seal(b"\x00" * size))
            return time.perf_counter() - start
        tiered = run()
        all_high = run(SecurityLevel.HIGH)
        return tiered, all_high

    tiered, all_high = benchmark.pedantic(measure, rounds=1,
                                          iterations=1)
    title = ["ABLATION: tiered levels vs HIGH-everywhere",
             "(mixed traffic: 50 LOW + 10 MEDIUM + 5 HIGH messages)"]
    note = emit_timing("ablation_security_tiering", title + [
        "",
        f"tiered:          {tiered * 1e3:.1f} ms",
        f"HIGH everywhere: {all_high * 1e3:.1f} ms",
        f"tiering saves:   {(1 - tiered / all_high):.0%}"])
    emit("ablation_security_tiering", title + [note])
    assert tiered < all_high
