"""Static TOSCA/CSAR checking — validate templates without deploying.

The runtime validator (:mod:`repro.tosca.validator`) raises on schema
violations at deployment time; this checker runs the same template
*statically* (pre-deployment, in CI) and reports findings instead of
raising, adding the checks the validator leaves to the orchestrator:

- dependency cycles across *all* requirement kinds, not just HostedOn;
- operating-point metadata shape (the Pareto points the DPE embeds and
  the MIRTO Node Manager consumes at runtime);
- security-level metadata (policy ``min_level`` and node
  ``max_security_level`` against the Table II ladder);
- CSAR artifact cross-references (templates naming artifacts that are
  not in the archive, and orphaned artifacts nothing references).
"""

from __future__ import annotations

import json

from repro.core.graph import simple_cycles
from repro.core.levels import SECURITY_LEVELS
from repro.tosca.csar import CsarArchive
from repro.tosca.model import ServiceTemplate
from repro.tosca.validator import ToscaValidator

from repro.analysis.findings import Finding, Severity, assign_occurrences

#: keys every exported operating point must carry (dse.export_operating_points)
_OPERATING_POINT_REQUIRED = ("name", "latency_s", "energy_j")


def _finding(rule: str, path: str, message: str,
             severity: Severity = Severity.ERROR) -> Finding:
    return Finding(tool="tosca", rule=rule, path=path, line=0,
                   message=message, severity=severity, context=message)


class _SchemaValidator(ToscaValidator):
    """The runtime validator without the two checks this module makes
    under a sharper rule, so each problem is reported once: HostedOn
    cycles (``dependency-cycle`` covers every requirement kind) and
    Security ``min_level`` values (``security-level`` names the value)."""

    def _check_hosting_cycles(self, service):
        return []

    @staticmethod
    def _check_security_level(policy):
        return []


def check_service(service: ServiceTemplate,
                  path: str | None = None) -> list[Finding]:
    """Statically check one service template; returns findings."""
    path = path or f"tosca:{service.name}"
    findings: list[Finding] = []
    # Reuse the runtime validator's schema checks as findings.
    for problem in _SchemaValidator().check(service):
        findings.append(_finding("schema", path, problem))
    findings += _check_dependency_cycles(service, path)
    findings += _check_operating_points(service, path)
    findings += _check_security_levels(service, path)
    return assign_occurrences(findings)


def _check_dependency_cycles(service: ServiceTemplate,
                             path: str) -> list[Finding]:
    """Cycles over every requirement kind (host, connection, streams).

    The runtime validator only rejects HostedOn cycles; a ConnectsTo
    cycle with no initial tokens deadlocks startup ordering the same
    way, so the static checker covers the full requirement graph. Each
    elementary cycle is one finding, in template order and starting
    where the runtime validator starts it, whatever the hash seed.
    """
    graph: dict[str, dict[str, None]] = {
        name: {} for name in service.node_templates}
    for template in service.node_templates.values():
        for req in template.requirements:
            if req.target in graph and req.target != template.name:
                graph[template.name][req.target] = None
    findings = []
    for cycle in simple_cycles(graph):
        chain = " -> ".join(cycle + [cycle[0]])
        findings.append(_finding(
            "dependency-cycle", path,
            f"requirement cycle: {chain}",
            # host cycles are fatal; mixed cycles are suspicious
            Severity.ERROR))
    return findings


def _check_operating_points(service: ServiceTemplate,
                            path: str) -> list[Finding]:
    findings = []
    for template in service.node_templates.values():
        points = template.properties.get("operating_points")
        if points is None:
            continue
        if not isinstance(points, list):
            findings.append(_finding(
                "operating-points", path,
                f"node {template.name}: operating_points must be a "
                "list of point mappings"))
            continue
        names: set[str] = set()
        for index, point in enumerate(points):
            where = f"node {template.name}: operating point #{index}"
            if not isinstance(point, dict):
                findings.append(_finding(
                    "operating-points", path,
                    f"{where} is not a mapping"))
                continue
            for key in _OPERATING_POINT_REQUIRED:
                if key not in point:
                    findings.append(_finding(
                        "operating-points", path,
                        f"{where} lacks required key {key!r}"))
            for key in ("latency_s", "energy_j"):
                value = point.get(key)
                if value is not None and (
                        not isinstance(value, (int, float))
                        or isinstance(value, bool) or value < 0):
                    findings.append(_finding(
                        "operating-points", path,
                        f"{where}: {key} must be a non-negative number"))
            name = point.get("name")
            if isinstance(name, str):
                if name in names:
                    findings.append(_finding(
                        "operating-points", path,
                        f"{where}: duplicate point name {name!r}"))
                names.add(name)
    return findings


def _check_security_levels(service: ServiceTemplate,
                           path: str) -> list[Finding]:
    findings = []
    for template in service.node_templates.values():
        level = template.properties.get("max_security_level")
        if level is not None and level not in SECURITY_LEVELS:
            findings.append(_finding(
                "security-level", path,
                f"node {template.name}: max_security_level {level!r} "
                f"is not one of {SECURITY_LEVELS}"))
    for policy in service.policies:
        if policy.type != "myrtus.policies.Security":
            continue
        level = policy.properties.get("min_level")
        if level is not None and level not in SECURITY_LEVELS:
            findings.append(_finding(
                "security-level", path,
                f"policy {policy.name}: min_level {level!r} is not one "
                f"of {SECURITY_LEVELS}"))
    meta_level = service.metadata.get("security_level")
    if meta_level is not None and meta_level not in SECURITY_LEVELS:
        findings.append(_finding(
            "security-level", path,
            f"metadata security_level {meta_level!r} is not one of "
            f"{SECURITY_LEVELS}"))
    return findings


def check_csar(archive: CsarArchive,
               path: str | None = None) -> list[Finding]:
    """Check a CSAR: the embedded template plus artifact cross-refs."""
    path = path or f"csar:{archive.service.name}"
    findings = list(check_service(archive.service, path))
    referenced: set[str] = set()
    for template in archive.service.node_templates.values():
        bitstream = template.properties.get("bitstream")
        if isinstance(bitstream, str) and bitstream:
            referenced.add(bitstream)
            if bitstream not in archive.artifacts:
                findings.append(_finding(
                    "artifact-ref", path,
                    f"node {template.name}: bitstream {bitstream!r} is "
                    "not packaged in the archive"))
    # Operating-point JSON artifacts must parse and be well-formed.
    for artifact_path, content in sorted(archive.artifacts.items()):
        if artifact_path.endswith("operating_points.json"):
            referenced.add(artifact_path)
            try:
                points = json.loads(content.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                findings.append(_finding(
                    "artifact-ref", path,
                    f"artifact {artifact_path}: not valid JSON"))
                continue
            if not isinstance(points, list) or any(
                    not isinstance(p, dict)
                    or any(k not in p for k in _OPERATING_POINT_REQUIRED)
                    for p in points):
                findings.append(_finding(
                    "operating-points", path,
                    f"artifact {artifact_path}: malformed operating "
                    "points"))
    for artifact_path in sorted(archive.artifacts):
        if artifact_path not in referenced:
            findings.append(_finding(
                "artifact-ref", path,
                f"artifact {artifact_path} is referenced by no "
                "template", Severity.WARNING))
    return assign_occurrences(findings)


def check_csar_bytes(data: bytes, path: str = "csar") -> list[Finding]:
    """Check raw CSAR bytes (the CLI entry point for .csar files)."""
    from repro.core.errors import ValidationError

    try:
        archive = CsarArchive.from_bytes(data)
    except ValidationError as exc:
        return [_finding("archive", path, str(exc))]
    return check_csar(archive, path)
