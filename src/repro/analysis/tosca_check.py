"""Static TOSCA/CSAR checking — validate templates without deploying.

The runtime validator (:mod:`repro.tosca.validator`) owns every template
rule and raises on any problem at deployment time; this checker runs the
same rules *statically* (pre-deployment, in CI) and renders each
``(rule, message)`` problem as a finding instead of raising. For a CSAR
it adds the artifact cross-references against the layout the DPE writes
(:mod:`repro.tosca.csar`): a ``bitstream`` that is not packaged under
``bitstreams/``, operating points at ``meta/operating-points.json`` that
do not parse or break the shape rule, and artifacts outside the layout.
"""

from __future__ import annotations

import json

from repro.core.errors import ValidationError
from repro.tosca.csar import (
    OPERATING_POINTS_PATH,
    CsarArchive,
    bitstream_paths,
    layout_paths,
)
from repro.tosca.model import ServiceTemplate
from repro.tosca.validator import ToscaValidator, operating_point_problems

from repro.analysis.findings import Finding, Severity, assign_occurrences


def _finding(rule: str, path: str, message: str,
             severity: Severity = Severity.ERROR) -> Finding:
    return Finding(tool="tosca", rule=rule, path=path, line=0,
                   message=message, severity=severity, context=message)


def check_service(service: ServiceTemplate,
                  path: str | None = None) -> list[Finding]:
    """Statically check one service template: each validator problem
    becomes a finding under its rule id."""
    path = path or f"tosca:{service.name}"
    return assign_occurrences([
        _finding(rule, path, message)
        for rule, message in ToscaValidator().problems(service)])


def check_csar(archive: CsarArchive,
               path: str | None = None) -> list[Finding]:
    """Check a CSAR: the embedded template plus artifact cross-refs."""
    path = path or f"csar:{archive.service.name}"
    findings = check_service(archive.service, path)
    for name, bitstream in bitstream_paths(archive.service).items():
        if bitstream not in archive.artifacts:
            findings.append(_finding(
                "artifact-ref", path,
                f"node {name}: bitstream {bitstream} is not packaged in "
                "the archive"))
    points = archive.artifacts.get(OPERATING_POINTS_PATH)
    if points is not None:
        where = f"artifact {OPERATING_POINTS_PATH}"
        try:
            parsed = json.loads(points.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            findings.append(_finding("artifact-ref", path,
                                     f"{where}: not valid JSON"))
        else:
            findings += [_finding("operating-points", path, problem)
                         for problem in operating_point_problems(
                             parsed, where)]
    for artifact_path in sorted(
            set(archive.artifacts) - layout_paths(archive.service)):
        findings.append(_finding(
            "artifact-ref", path,
            f"artifact {artifact_path} is referenced by no template and "
            "lies outside the CSAR layout", Severity.WARNING))
    return assign_occurrences(findings)


def check_csar_bytes(data: bytes, path: str = "csar") -> list[Finding]:
    """Check raw CSAR bytes (the CLI entry point for .csar files)."""
    try:
        archive = CsarArchive.from_bytes(data)
    except ValidationError as exc:
        return [_finding("archive", path, str(exc))]
    return check_csar(archive, path)
