"""Configuration for the analysis subsystem.

Settings live in ``pyproject.toml`` under ``[tool.repro-analysis]`` so
the repo carries one source of truth for rule toggles, per-path
excludes, the simulation-package list (where wall-clock reads are
forbidden) and the baseline location. Everything has defaults, so the
analyzers also run on a bare checkout with no config at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    tomllib = None


@dataclass
class AnalysisConfig:
    """Resolved configuration for one analysis run."""

    root: Path = field(default_factory=Path.cwd)
    paths: list[str] = field(default_factory=lambda: ["src/repro"])
    exclude: list[str] = field(default_factory=list)
    disable: list[str] = field(default_factory=list)
    # Packages treated as deterministic simulation code: wall-clock
    # reads are forbidden inside them (DESIGN.md invariants).
    simulation_packages: list[str] = field(
        default_factory=lambda: ["continuum", "kube", "kb", "mirto",
                                 "chaos"])
    # Files allowed to touch the global `random` / `np.random` modules.
    rng_allowlist: list[str] = field(
        default_factory=lambda: ["core/rng.py"])
    # Paths allowed to construct Simulator()/EventBus() directly; all
    # other code must be injected with a RuntimeContext.
    runtime_allowlist: list[str] = field(
        default_factory=lambda: ["runtime/", "tests/"])
    # Files allowed to print() (rendering CLIs). Telemetry everywhere
    # else must flow through repro.obs (spans/metrics/trace).
    print_allowlist: list[str] = field(
        default_factory=lambda: ["analysis/cli.py", "obs/cli.py",
                                 "chaos/cli.py"])
    # Roots the whole-program flow analyses (topic contracts, DES
    # generator rules) build their symbol table from. Product code
    # only: benchmarks/examples publish nothing on the spine.
    flow_paths: list[str] = field(
        default_factory=lambda: ["src/repro"])
    baseline: str = "analysis-baseline.json"

    def is_excluded(self, rel_path: str) -> bool:
        rel = rel_path.replace("\\", "/")
        return any(rel.startswith(prefix.rstrip("/"))
                   for prefix in self.exclude)

    def is_simulation_path(self, rel_path: str) -> bool:
        rel = rel_path.replace("\\", "/")
        return any(f"/{pkg}/" in f"/{rel}" for pkg
                   in self.simulation_packages)

    def is_rng_allowed(self, rel_path: str) -> bool:
        rel = rel_path.replace("\\", "/")
        return any(rel.endswith(suffix) for suffix in self.rng_allowlist)

    def is_runtime_allowed(self, rel_path: str) -> bool:
        """May this file construct Simulator/EventBus directly?"""
        rel = rel_path.replace("\\", "/")
        return any(f"/{entry.strip('/')}/" in f"/{rel}"
                   for entry in self.runtime_allowlist)

    def is_print_allowed(self, rel_path: str) -> bool:
        """May this file emit telemetry via print()?

        Entries ending in ``/`` match directories; anything else
        matches as a path suffix (same semantics as the rng allowlist).
        """
        rel = rel_path.replace("\\", "/")
        for entry in self.print_allowlist:
            if entry.endswith("/"):
                if f"/{entry.strip('/')}/" in f"/{rel}":
                    return True
            elif rel.endswith(entry):
                return True
        return False

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline


def load_config(root: str | Path | None = None) -> AnalysisConfig:
    """Read ``[tool.repro-analysis]`` from *root*/pyproject.toml.

    Missing file, missing table, or a Python without tomllib all yield
    the defaults — the analyzers must never fail to start because of
    configuration.
    """
    root = Path(root) if root is not None else Path.cwd()
    config = AnalysisConfig(root=root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.exists():
        return config
    try:
        data = tomllib.loads(pyproject.read_text())
    except (OSError, tomllib.TOMLDecodeError):
        return config
    table = data.get("tool", {}).get("repro-analysis", {})
    for key, attr in (("paths", "paths"), ("exclude", "exclude"),
                      ("disable", "disable"),
                      ("simulation-packages", "simulation_packages"),
                      ("rng-allowlist", "rng_allowlist"),
                      ("runtime-allowlist", "runtime_allowlist"),
                      ("print-allowlist", "print_allowlist"),
                      ("flow-paths", "flow_paths")):
        value = table.get(key)
        if isinstance(value, list):
            setattr(config, attr, [str(v) for v in value])
    if isinstance(table.get("baseline"), str):
        config.baseline = table["baseline"]
    return config
