"""Regenerate ``digests.json``: the 100k-continuum digests per seed.

Runs ``run_scale_scenario(ScaleConfig.metro_100k(seed=N), workers=0)`` —
the program's own one-call entry point, independent of the benchmark's
epoch-by-epoch loop — for each seed and records the merged-trace
digest, the aggregated-metrics digest and the DES event count. About
6 s per seed on a 2-CPU host::

    python3 e2ebench/pin_digests.py 0 32

Only regenerate when a change is *meant* to alter the simulated
behaviour; a speed-only change must leave every digest as it is.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def pin(seed: int) -> dict:
    from repro.continuum.scale import ScaleConfig, run_scale_scenario
    result = run_scale_scenario(ScaleConfig.metro_100k(seed=seed),
                                workers=0)
    metrics = json.dumps(result.sharded.snapshot_observability()["metrics"],
                         sort_keys=True, separators=(",", ":"))
    return {"trace": result.digest(),
            "metrics": hashlib.sha256(metrics.encode()).hexdigest(),
            "events": result.sharded.events_executed}


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 32)
    path = HERE / "digests.json"
    data = json.loads(path.read_text())
    for seed in range(first, last):
        data["metro_100k"][str(seed)] = pin(seed)
        print(seed, data["metro_100k"][str(seed)], flush=True)
    data["metro_100k"] = dict(sorted(data["metro_100k"].items(),
                                     key=lambda item: int(item[0])))
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
