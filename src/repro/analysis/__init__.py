"""Static analysis for the reproduction (`repro.analysis`).

Four engines share one finding/baseline core, one in-memory parse
cache (:mod:`repro.analysis.cache`) and one CLI
(``python -m repro.analysis`` / ``repro-analysis``):

- **continuum-lint** (:mod:`repro.analysis.lint`) — an AST rule engine
  enforcing the determinism invariants: no global ``random`` use
  outside ``core/rng.py``, no wall-clock reads in simulation code, no
  seed derivation from RNG floats or ``hash()``, plus general hygiene
  (mutable defaults, overbroad excepts).
- **MLIR dataflow analyses** (:mod:`repro.analysis.mlir`) — def-use
  chains, dead values and CFG liveness for ``repro.dpe.mlir`` modules,
  reported with the problems of the IR's one verifier
  (``repro.dpe.mlir.ir.verify_function``), which the rewrite passes
  run themselves.
- **static TOSCA/CSAR checking** (:mod:`repro.analysis.tosca_check`)
  — validates templates and archives without deploying them.
- **topic-flow & DES contracts** (:mod:`repro.analysis.flow`) — a
  whole-program symbol table and call graph that checks every
  publish/subscribe site against the topic schema registry and flags
  DES generator misuse.
"""

from repro.analysis.findings import (
    Baseline,
    BaselineDiff,
    Finding,
    Severity,
    assign_occurrences,
)
from repro.analysis.config import AnalysisConfig, load_config

__all__ = [
    "AnalysisConfig",
    "Baseline",
    "BaselineDiff",
    "Finding",
    "Severity",
    "assign_occurrences",
    "load_config",
]
