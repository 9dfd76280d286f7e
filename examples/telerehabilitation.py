#!/usr/bin/env python3
"""Virtual Telerehabilitation use case (paper Sec. I, UNICA + REPLY).

Demonstrates the privacy/security story: raw patient video is pinned to
the edge by privacy policy, the whole pipeline runs at the HIGH (PQC)
security level of Table II, secure channels protect the assessment
links, and federated learning lets edge agents share operating-point
models without sharing patient data.

Run:  python examples/telerehabilitation.py
"""

import numpy as np

from repro.mirto import (
    CognitiveEngine,
    FederatedClient,
    FederatedTrainer,
    LinearModel,
    make_operating_point_dataset,
)
from repro.security import Identity, SecureChannel, SecurityLevel
from repro.usecases import telerehab


def main() -> None:
    engine = CognitiveEngine(seed=11)
    scenario = telerehab.build_scenario(session_minutes=20)

    # -- privacy-constrained placement --------------------------------------
    print("== Privacy-constrained deployment ==")
    outcome = engine.manager.deploy(scenario.to_service_template(),
                                    strategy="greedy")
    for task, device_name in sorted(outcome.placement.assignment.items()):
        device = engine.infrastructure.device(device_name)
        print(f"  {task:<22} -> {device_name:<10} "
              f"({device.spec.layer.value}, "
              f"security {device.spec.max_security_level})")
    print(f"makespan {outcome.report.makespan_s * 1e3:.0f} ms, "
          f"deadline met: {outcome.deadline_met}, "
          f"level: {outcome.security_level}")

    # -- secure channel at the negotiated level ---------------------------------
    print("\n== Secure channel (Table II, HIGH level) ==")
    pose_node = Identity("pose-estimation@edge", seed=1)
    assess_node = Identity("assessment@fog", seed=1)
    channel, peer = SecureChannel.establish(pose_node, assess_node,
                                            SecurityLevel.HIGH)
    keypoints = b'{"joints": [[0.5, 0.3], [0.52, 0.41]]}'
    wire = channel.seal(keypoints)
    assert peer.open(wire) == keypoints
    print(f"  handshake: {channel.transcript.total_bytes} bytes "
          f"(Kyber-style KEM + Dilithium-style signature)")
    print(f"  per-record overhead: "
          f"{len(wire) - len(keypoints)} bytes (AES-256 AEAD)")

    # -- federated operating-point learning ----------------------------------
    print("\n== Federated learning across edge agents ==")
    rng = np.random.default_rng(5)
    clients = []
    for i, (lo, hi) in enumerate([(10, 400), (400, 800), (800, 1200)]):
        features, targets = make_operating_point_dataset(
            rng, 60, megaops_range=(float(lo), float(hi)))
        clients.append(FederatedClient(
            name=f"clinic-{i}", model=LinearModel(3),
            features=features, targets=targets))
    trainer = FederatedTrainer(clients, algorithm="fedavg")
    losses = trainer.train(rounds=15, local_epochs=8, lr=0.1)
    print(f"  3 clinics, disjoint workload regions")
    print(f"  round 1 loss {losses[0]:.4f} -> "
          f"round 15 loss {losses[-1]:.4f}")
    engine.manager.node_manager.attach_model(
        "fpga-00-0", trainer.global_model(3))
    print("  global model attached to fpga-00-0's Node Manager")

    # -- MAPE adapts the now-idle infrastructure --------------------------------
    record = engine.mape_iterate(1)[0]
    low_power = [d.name for d in engine.infrastructure.devices.values()
                 if d.operating_point.name == "low-power"]
    print(f"\n== MAPE-K ==\n  {record.executed} actions; "
          f"{len(low_power)} idle devices switched to low-power")


if __name__ == "__main__":
    main()
