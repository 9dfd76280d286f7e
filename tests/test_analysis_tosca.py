"""Tests for the static TOSCA/CSAR checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.findings import Severity
from repro.analysis.tosca_check import (
    check_csar,
    check_csar_bytes,
    check_service,
)
from repro.core.errors import ValidationError
from repro.dpe import DesignFlow
from repro.tosca.csar import CsarArchive
from repro.tosca.model import (
    NodeTemplate,
    Policy,
    Requirement,
    ServiceTemplate,
)
from repro.tosca.validator import ToscaValidator
from repro.usecases import mobility, telerehab


def container(name, **overrides):
    properties = {"image": f"registry/{name}:1", "cpu_millicores": 250,
                  "memory_bytes": 64 << 20}
    properties.update(overrides)
    return NodeTemplate(name=name, type="myrtus.nodes.Container",
                        properties=properties)


def valid_service():
    service = ServiceTemplate(name="svc")
    host = NodeTemplate(name="edge1", type="myrtus.nodes.EdgeDevice",
                        properties={"device_kind": "gateway"})
    app = container("app")
    app.requirements.append(Requirement(
        "host", "edge1", "tosca.relationships.HostedOn"))
    service.add_node(host)
    service.add_node(app)
    return service


def rules_of(findings):
    return sorted(f.rule for f in findings)


def pairs_of(findings):
    return sorted((f.rule, f.message) for f in findings)


def ring(service, kind, names):
    """Add containers requiring each other around a *kind* ring."""
    for name, target in zip(names, names[1:] + names[:1]):
        service.add_node(container(name))
        service.node_templates[name].requirements.append(
            Requirement(kind, target))


_LADDER = "('low', 'medium', 'high')"

#: One planted defect per template rule: (id, plant, rule, message).
DEFECTS = [
    ("unknown-type",
     lambda s: s.add_node(NodeTemplate("ghost", "nope.Type")),
     "schema", "node ghost: unknown type nope.Type"),
    ("bad-property",
     lambda s: s.node_templates["app"].properties.update(color="red"),
     "schema", "node app: unknown property color"),
    ("dangling-target",
     lambda s: s.node_templates["app"].requirements.append(Requirement(
         "connection", "missing-db", "tosca.relationships.ConnectsTo")),
     "schema",
     "node app: requirement connection targets unknown template "
     "missing-db"),
    ("self-target",
     lambda s: s.node_templates["app"].requirements.append(Requirement(
         "connection", "app", "tosca.relationships.ConnectsTo")),
     "schema", "node app: requirement connection targets itself"),
    ("hosted-on-cycle", lambda s: ring(s, "host", ["h1", "h2"]),
     "dependency-cycle", "requirement cycle: h1 -> h2 -> h1"),
    ("connects-to-cycle", lambda s: ring(s, "connection", ["c1", "c2"]),
     "dependency-cycle", "requirement cycle: c1 -> c2 -> c1"),
    ("unknown-policy",
     lambda s: s.add_policy(Policy("mystery", "nope.Policy", ["app"])),
     "schema", "policy mystery: unknown type nope.Policy"),
    ("bad-min-level",
     lambda s: s.add_policy(Policy("sec", "myrtus.policies.Security",
                                   ["app"], {"min_level": "ultra"})),
     "security-level",
     f"policy sec: min_level 'ultra' is not one of {_LADDER}"),
    ("bad-node-level",
     lambda s: s.node_templates["edge1"].properties.update(
         max_security_level="ultra"),
     "security-level",
     f"node edge1: max_security_level 'ultra' is not one of {_LADDER}"),
    ("bad-metadata-level",
     lambda s: s.metadata.update(security_level="max"),
     "security-level",
     f"metadata security_level 'max' is not one of {_LADDER}"),
    ("malformed-operating-points",
     lambda s: s.node_templates["app"].properties.update(operating_points=[
         {"name": "op-0", "latency_s": -1.0, "energy_j": 1.0}]),
     "operating-points",
     "node app: operating point #0: latency_s must be a non-negative "
     "number"),
]


#: Prints the dependency-cycle findings of a ConnectsTo ring and of two
#: disjoint HostedOn pairs as JSON ``[message, fingerprint]`` pairs.
_CYCLE_PROBE = """
import json
from repro.analysis.tosca_check import check_service
from repro.tosca.model import NodeTemplate, Requirement, ServiceTemplate

def service(name, edges):
    svc = ServiceTemplate(name=name)
    for source, kind, target in edges:
        node = NodeTemplate(source, "myrtus.nodes.Container", {
            "image": source + ":1", "cpu_millicores": 250,
            "memory_bytes": 64 << 20})
        node.requirements.append(Requirement(kind, target))
        svc.add_node(node)
    return svc

ring = service("ring", [("gateway", "connection", "broker"),
                        ("broker", "connection", "analytics"),
                        ("analytics", "connection", "gateway")])
pairs = service("pairs", [("a", "host", "b"), ("b", "host", "a"),
                          ("c", "host", "d"), ("d", "host", "c")])
print(json.dumps([[f.message, f.fingerprint]
                  for svc in (ring, pairs) for f in check_service(svc)
                  if f.rule == "dependency-cycle"]))
"""


class TestServiceChecks:
    def test_valid_service_is_clean(self):
        assert check_service(valid_service()) == []

    def test_dangling_requirement_target(self):
        service = valid_service()
        service.node_templates["app"].requirements.append(
            Requirement("connection", "missing-db",
                        "tosca.relationships.ConnectsTo"))
        findings = check_service(service)
        assert any(f.rule == "schema"
                   and "unknown template missing-db" in f.message
                   for f in findings)

    def test_connects_to_cycle_detected(self):
        service = ServiceTemplate(name="cyclic")
        a, b = container("a"), container("b")
        a.requirements.append(Requirement(
            "connection", "b", "tosca.relationships.ConnectsTo"))
        b.requirements.append(Requirement(
            "connection", "a", "tosca.relationships.ConnectsTo"))
        service.add_node(a)
        service.add_node(b)
        findings = check_service(service)
        assert any(f.rule == "dependency-cycle" for f in findings)
        assert rules_of(findings) == ["dependency-cycle"]

    def test_each_problem_reported_once(self):
        """A HostedOn cycle and a bad Security ``min_level`` are one
        finding each, under their own rule, and the level is named."""
        service = ServiceTemplate(name="twice")
        a, b = container("a"), container("b")
        a.requirements.append(Requirement(
            "host", "b", "tosca.relationships.HostedOn"))
        b.requirements.append(Requirement(
            "host", "a", "tosca.relationships.HostedOn"))
        service.add_node(a)
        service.add_node(b)
        service.add_policy(Policy(
            name="sec", type="myrtus.policies.Security",
            targets=["a"], properties={"min_level": "ultra"}))
        findings = check_service(service)
        assert rules_of(findings) == ["dependency-cycle", "security-level"]
        assert [f.message for f in findings
                if f.rule == "security-level"] == [
            "policy sec: min_level 'ultra' is not one of "
            "('low', 'medium', 'high')"]

    def test_cycle_findings_independent_of_hash_seed(self):
        """Each cycle starts where a depth-first walk over the templates
        in order first meets it, and cycles come in that order, so
        messages and fingerprints (hence baseline entries) agree
        between processes with different hash seeds."""
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for seed in ("0", "1", "6"):
            done = subprocess.run(
                [sys.executable, "-c", _CYCLE_PROBE],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONHASHSEED": seed})
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        assert [message for message, _ in outputs[0]] == [
            "requirement cycle: gateway -> broker -> analytics -> gateway",
            "requirement cycle: a -> b -> a",
            "requirement cycle: c -> d -> c"]

    def test_acyclic_connections_ok(self):
        service = ServiceTemplate(name="chain")
        a, b = container("a"), container("b")
        a.requirements.append(Requirement(
            "connection", "b", "tosca.relationships.ConnectsTo"))
        service.add_node(a)
        service.add_node(b)
        assert check_service(service) == []


class TestOperatingPoints:
    def test_well_formed_points_ok(self):
        service = ServiceTemplate(name="svc")
        service.add_node(container("app", operating_points=[
            {"name": "op-0", "latency_s": 0.1, "energy_j": 2.0},
            {"name": "op-1", "latency_s": 0.4, "energy_j": 0.5},
        ]))
        assert check_service(service) == []

    def test_missing_required_keys(self):
        service = ServiceTemplate(name="svc")
        service.add_node(container("app", operating_points=[
            {"name": "op-0", "latency_s": 0.1},  # no energy_j
        ]))
        findings = check_service(service)
        assert any(f.rule == "operating-points"
                   and "energy_j" in f.message for f in findings)

    def test_negative_latency(self):
        service = ServiceTemplate(name="svc")
        service.add_node(container("app", operating_points=[
            {"name": "op-0", "latency_s": -1.0, "energy_j": 1.0},
        ]))
        findings = check_service(service)
        assert any("non-negative" in f.message for f in findings)

    def test_duplicate_point_names(self):
        service = ServiceTemplate(name="svc")
        service.add_node(container("app", operating_points=[
            {"name": "op-0", "latency_s": 0.1, "energy_j": 1.0},
            {"name": "op-0", "latency_s": 0.2, "energy_j": 2.0},
        ]))
        findings = check_service(service)
        assert any("duplicate point name" in f.message for f in findings)

    def test_non_mapping_point(self):
        service = ServiceTemplate(name="svc")
        service.add_node(container("app",
                                   operating_points=["fast", "slow"]))
        findings = check_service(service)
        assert any("not a mapping" in f.message for f in findings)


class TestSecurityLevels:
    def test_unknown_node_level(self):
        service = valid_service()
        service.node_templates["edge1"].properties[
            "max_security_level"] = "ultra"
        findings = check_service(service)
        assert any(f.rule == "security-level" for f in findings)

    def test_unknown_policy_level(self):
        service = valid_service()
        service.add_policy(Policy(
            name="sec", type="myrtus.policies.Security",
            targets=["app"], properties={"min_level": "paranoid"}))
        findings = check_service(service)
        assert any(f.rule == "security-level" for f in findings)

    def test_unknown_metadata_level(self):
        service = valid_service()
        service.metadata["security_level"] = "max"
        findings = check_service(service)
        assert any(f.rule == "security-level" for f in findings)

    def test_valid_levels_ok(self):
        service = valid_service()
        service.node_templates["edge1"].properties[
            "max_security_level"] = "high"
        service.add_policy(Policy(
            name="sec", type="myrtus.policies.Security",
            targets=["app"], properties={"min_level": "medium"}))
        service.metadata["security_level"] = "low"
        assert check_service(service) == []


class TestCsarChecks:
    def test_missing_bitstream_artifact(self):
        service = ServiceTemplate(name="svc")
        kernel = NodeTemplate(
            name="kern", type="myrtus.nodes.AcceleratedKernel",
            properties={"image": "registry/kern:1",
                        "cpu_millicores": 500,
                        "memory_bytes": 128 << 20,
                        "bitstream": "kern.bit"})
        service.add_node(kernel)
        archive = CsarArchive(service=service)
        findings = check_csar(archive)
        assert any(f.rule == "artifact-ref"
                   and "not packaged" in f.message for f in findings)

    def test_packaged_bitstream_ok(self):
        service = ServiceTemplate(name="svc")
        kernel = NodeTemplate(
            name="kern", type="myrtus.nodes.AcceleratedKernel",
            properties={"image": "registry/kern:1",
                        "cpu_millicores": 500,
                        "memory_bytes": 128 << 20,
                        "bitstream": "kern.bit"})
        service.add_node(kernel)
        archive = CsarArchive(service=service)
        archive.add_artifact("bitstreams/kern.bit", b"\x00" * 16)
        assert check_csar(archive) == []

    def test_orphan_artifact_warns(self):
        archive = CsarArchive(service=valid_service())
        archive.add_artifact("leftover.bin", b"junk")
        findings = check_csar(archive)
        orphans = [f for f in findings if "referenced by no" in f.message]
        assert orphans and all(f.severity == Severity.WARNING
                               for f in orphans)

    def test_malformed_operating_points_artifact(self):
        archive = CsarArchive(service=valid_service())
        archive.add_artifact("meta/operating-points.json", b"not-json")
        findings = check_csar(archive)
        assert [(f.rule, f.message) for f in findings] == [(
            "artifact-ref",
            "artifact meta/operating-points.json: not valid JSON")]

    def test_well_formed_operating_points_artifact(self):
        archive = CsarArchive(service=valid_service())
        archive.add_artifact("meta/operating-points.json", json.dumps([
            {"name": "op-0", "latency_s": 0.1, "energy_j": 1.0},
        ]).encode())
        assert check_csar(archive) == []

    def test_bad_zip_reported_not_raised(self):
        findings = check_csar_bytes(b"definitely not a zip")
        assert rules_of(findings) == ["archive"]

    def test_undecodable_template_reported_not_raised(self):
        import io
        import zipfile
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("TOSCA-Metadata/TOSCA.meta",
                             "Entry-Definitions: t.yaml\n")
            archive.writestr("t.yaml", b"\xff\xfe")
        findings = check_csar_bytes(buffer.getvalue())
        assert rules_of(findings) == ["archive"]
        assert "t.yaml is not UTF-8" in findings[0].message

    def test_roundtripped_archive_checks_clean(self):
        archive = CsarArchive(service=valid_service())
        rebuilt = CsarArchive.from_bytes(archive.to_bytes())
        assert [f for f in check_csar(rebuilt)
                if f.severity == Severity.ERROR] == []


class TestOneRuleTable:
    """The validator owns every rule; the checker only renders it."""

    @pytest.mark.parametrize("plant, rule, message",
                             [d[1:] for d in DEFECTS],
                             ids=[d[0] for d in DEFECTS])
    def test_planted_defect_is_one_problem(self, plant, rule, message):
        service = valid_service()
        plant(service)
        assert ToscaValidator().problems(service) == [(rule, message)]
        assert ToscaValidator().check(service) == [message]
        assert pairs_of(check_service(service)) == [(rule, message)]

    def test_all_planted_defects_each_once(self):
        service = valid_service()
        for _name, plant, _rule, _message in DEFECTS:
            plant(service)
        expected = sorted((rule, message)
                          for _name, _plant, rule, message in DEFECTS)
        assert sorted(ToscaValidator().problems(service)) == expected
        assert pairs_of(check_service(service)) == expected

    def test_validate_rejects_a_connects_to_cycle(self):
        service = valid_service()
        ring(service, "connection", ["a", "b", "c"])
        with pytest.raises(ValidationError) as excinfo:
            ToscaValidator().validate(service)
        assert excinfo.value.problems == [
            "requirement cycle: a -> b -> c -> a"]

    def test_self_hosting_node_is_one_problem(self):
        service = valid_service()
        service.node_templates["app"].requirements.append(
            Requirement("host", "app", "tosca.relationships.HostedOn"))
        assert ToscaValidator().check(service) == [
            "node app: requirement host targets itself"]


@pytest.fixture(scope="module")
def dpe_csars():
    """Both use cases' CSARs as ``DesignFlow.run`` writes them."""
    return {case.__name__.rsplit(".", 1)[-1]: DesignFlow(seed=0).run(
        case.build_scenario(), case.build_adt(),
        defence_budget=8.0).csar_bytes for case in (mobility, telerehab)}


def _drop_bitstream(archive):
    del archive.artifacts["bitstreams/perception.bit"]


def _set_points(content):
    def plant(archive):
        archive.artifacts["meta/operating-points.json"] = content
    return plant


#: One damage to the DPE's mobility CSAR per artifact check:
#: (id, damage, rule, severity, message).
CSAR_DEFECTS = [
    ("missing-bitstream", _drop_bitstream, "artifact-ref", Severity.ERROR,
     "node perception: bitstream bitstreams/perception.bit is not "
     "packaged in the archive"),
    ("unnamed-bitstream",
     lambda a: a.add_artifact("bitstreams/ghost.bit", b"XLNX"),
     "artifact-ref", Severity.WARNING,
     "artifact bitstreams/ghost.bit is referenced by no template and "
     "lies outside the CSAR layout"),
    ("points-not-json", _set_points(b"[{"), "artifact-ref", Severity.ERROR,
     "artifact meta/operating-points.json: not valid JSON"),
    ("bad-point",
     _set_points(json.dumps([{"name": "op-0", "latency_s": 0.1}]).encode()),
     "operating-points", Severity.ERROR,
     "artifact meta/operating-points.json: operating point #0 lacks "
     "required key 'energy_j'"),
    ("outside-layout",
     lambda a: a.add_artifact("notes/readme.txt", b"hello"),
     "artifact-ref", Severity.WARNING,
     "artifact notes/readme.txt is referenced by no template and lies "
     "outside the CSAR layout"),
]


class TestDpeCsars:
    """The checker resolves artifacts against the layout the DPE writes."""

    def test_design_flow_csars_check_clean(self, dpe_csars):
        for name, data in dpe_csars.items():
            assert check_csar_bytes(data, name) == []

    def test_cli_passes_design_flow_csars(self, dpe_csars, tmp_path,
                                          capsys):
        paths = []
        for name, data in dpe_csars.items():
            paths.append(tmp_path / f"{name}.csar")
            paths[-1].write_bytes(data)
        assert analysis_main(["tosca", *map(str, paths)]) == 0
        assert capsys.readouterr().out == "0 finding(s)\n"

    @pytest.mark.parametrize("damage, rule, severity, message",
                             [d[1:] for d in CSAR_DEFECTS],
                             ids=[d[0] for d in CSAR_DEFECTS])
    def test_damage_is_one_finding(self, dpe_csars, damage, rule,
                                   severity, message):
        archive = CsarArchive.from_bytes(dpe_csars["mobility"])
        damage(archive)
        findings = check_csar(archive)
        assert [(f.rule, f.severity, f.message) for f in findings] == [
            (rule, severity, message)]
