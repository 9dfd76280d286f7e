"""Tests for the TOSCA model, parser, validator and CSAR packaging."""

import io
import struct
import zipfile

import pytest
import yaml

from repro.core.errors import ValidationError
from repro.tosca import (
    CsarArchive,
    NodeTemplate,
    Policy,
    Requirement,
    ServiceTemplate,
    ToscaValidator,
    dump_service_template,
    effective_properties,
    parse_service_template,
    resolve_type,
)
from repro.tosca import parser

VALID_DOC = """
tosca_definitions_version: myrtus_tosca_1_0
metadata: {template_name: demo}
topology_template:
  inputs: {rate: 10}
  node_templates:
    feed:
      type: myrtus.nodes.Container
      properties:
        image: "feed:1"
        cpu_millicores: 200
        memory_bytes: 104857600
    detector:
      type: myrtus.nodes.AcceleratedKernel
      properties:
        image: "det:1"
        cpu_millicores: 1000
        memory_bytes: 536870912
        bitstream: "cnn.bit"
      requirements:
        - connection:
            node: feed
            relationship: tosca.relationships.ConnectsTo
  policies:
    - secure-all:
        type: myrtus.policies.Security
        targets: ["*"]
        properties: {min_level: medium}
    - fast:
        type: myrtus.policies.Latency
        targets: [detector]
        properties: {end_to_end_budget_s: 0.1}
"""


def valid_service():
    return parse_service_template(VALID_DOC)


_FEED_PROPERTIES = """      properties:
        image: "feed:1"
        cpu_millicores: 200
        memory_bytes: 104857600"""
_DETECTOR_REQUIREMENTS = """      requirements:
        - connection:
            node: feed
            relationship: tosca.relationships.ConnectsTo"""

#: (id, document, message) for documents the parser must reject with a
#: ValidationError that names the offending section.
MALFORMED_DOCS = [
    ("metadata-null", VALID_DOC.replace("metadata: {template_name: demo}",
                                        "metadata:"), "metadata"),
    ("metadata-string", VALID_DOC.replace(
        "metadata: {template_name: demo}", "metadata: demo"), "metadata"),
    ("inputs-list", VALID_DOC.replace("inputs: {rate: 10}",
                                      "inputs: [1, 2]"), "inputs"),
    ("node-properties-string", VALID_DOC.replace(
        _FEED_PROPERTIES, "      properties: abc"),
     "'feed' properties"),
    ("node-properties-list", VALID_DOC.replace(
        _FEED_PROPERTIES, "      properties: [1, 2]"),
     "'feed' properties"),
    ("policy-properties-string", VALID_DOC.replace(
        "properties: {min_level: medium}", "properties: abc"),
     "'secure-all' properties"),
    ("requirements-scalar", VALID_DOC.replace(
        _DETECTOR_REQUIREMENTS, "      requirements: 5"),
     "'detector' requirements"),
    ("policies-scalar", VALID_DOC.split("  policies:")[0]
     + "  policies: 5\n", "policies"),
    ("lone-surrogate", VALID_DOC.replace("demo", "de\ud800mo"),
     "invalid YAML"),
    ("unclosed-flow", VALID_DOC.replace("{rate: 10}", "{rate: 10"),
     "invalid YAML"),
]

# The pure-Python classes always run; the libyaml leg only where PyYAML
# was built with libyaml (CI checks that it is).
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML built without libyaml")
YAML_LOADERS = [
    pytest.param(yaml.SafeLoader, id="pure-python"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                 marks=needs_libyaml),
]


class TestTypeSystem:
    def test_resolve_known_type(self):
        assert resolve_type("myrtus.nodes.Container").name \
            == "myrtus.nodes.Container"

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValidationError):
            resolve_type("nope.Type")

    def test_effective_properties_inherit(self):
        props = effective_properties("myrtus.nodes.EdgeDevice")
        assert "device_kind" in props  # own
        assert "num_cpus" in props  # inherited from Compute

    def test_property_type_checks(self):
        props = effective_properties("myrtus.nodes.Container")
        assert props["cpu_millicores"].check(100)
        assert not props["cpu_millicores"].check("many")
        assert not props["cpu_millicores"].check(True)  # bool is not int
        assert props["image"].check("x:1")


class TestParser:
    def test_parse_valid_document(self):
        svc = valid_service()
        assert svc.name == "demo"
        assert set(svc.node_templates) == {"feed", "detector"}
        assert svc.inputs == {"rate": 10}
        assert len(svc.policies) == 2

    def test_requirement_parsed(self):
        svc = valid_service()
        req = svc.node_templates["detector"].requirement("connection")
        assert req.target == "feed"
        assert req.relationship == "tosca.relationships.ConnectsTo"

    def test_short_form_requirement(self):
        doc = VALID_DOC.replace(
            """        - connection:
            node: feed
            relationship: tosca.relationships.ConnectsTo""",
            "        - host: feed")
        svc = parse_service_template(doc)
        assert svc.node_templates["detector"].requirement("host").target \
            == "feed"

    def test_bad_yaml_rejected(self):
        with pytest.raises(ValidationError):
            parse_service_template(": : :")

    def test_missing_version_rejected(self):
        with pytest.raises(ValidationError, match="tosca_definitions"):
            parse_service_template("topology_template: {}")

    def test_missing_topology_rejected(self):
        with pytest.raises(ValidationError):
            parse_service_template(
                "tosca_definitions_version: myrtus_tosca_1_0")

    def test_empty_node_templates_rejected(self):
        with pytest.raises(ValidationError):
            parse_service_template(
                "tosca_definitions_version: myrtus_tosca_1_0\n"
                "topology_template:\n  node_templates: {}\n")

    @pytest.mark.parametrize("loader", YAML_LOADERS)
    @pytest.mark.parametrize(
        "doc,match", [pytest.param(doc, match, id=case)
                      for case, doc, match in MALFORMED_DOCS])
    def test_malformed_section_rejected(self, doc, match, loader,
                                        monkeypatch):
        assert doc != VALID_DOC
        monkeypatch.setattr(parser, "_LOADER", loader)
        with pytest.raises(ValidationError, match=match):
            parse_service_template(doc)

    def test_yaml_roundtrip(self):
        svc = valid_service()
        again = parse_service_template(dump_service_template(svc))
        assert set(again.node_templates) == set(svc.node_templates)
        assert [p.name for p in again.policies] \
            == [p.name for p in svc.policies]
        assert again.node_templates["detector"].properties["bitstream"] \
            == "cnn.bit"


def _repo_templates():
    """Every service template the repo builds, by name."""
    from repro.chaos.scorecard import _scenario as recovery_scenario
    from repro.dpe import DesignFlow
    from repro.usecases import mobility, telerehab

    templates = {"valid-doc": valid_service(),
                 "recovery": recovery_scenario().to_service_template()}
    for case in (mobility, telerehab):
        spec = DesignFlow(seed=0).run(case.build_scenario(),
                                      case.build_adt(), defence_budget=8.0)
        templates[case.__name__.rsplit(".", 1)[-1]] = spec.service
    return templates


@needs_libyaml
class TestYamlParity:
    """libyaml and the pure-Python classes agree on every repo template."""

    @pytest.mark.parametrize("name", ["valid-doc", "recovery", "mobility",
                                      "telerehab"])
    def test_same_text_and_documents(self, name, monkeypatch):
        service = _repo_templates()[name]
        texts = []
        for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
            monkeypatch.setattr(parser, "_DUMPER", dumper)
            texts.append(dump_service_template(service))
        assert texts[0] == texts[1]
        sources = [texts[0]] + ([VALID_DOC] if name == "valid-doc" else [])
        for text in sources:
            documents = [repr(yaml.load(text, Loader=loader))
                         for loader in (yaml.SafeLoader, yaml.CSafeLoader)]
            assert documents[0] == documents[1]
        reparsed = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(parser, "_LOADER", loader)
            reparsed.append(dump_service_template(
                parse_service_template(texts[0])))
        assert reparsed == texts

    def test_repo_uses_libyaml(self):
        assert parser._LOADER is yaml.CSafeLoader
        assert parser._DUMPER is yaml.CSafeDumper


class TestValidator:
    def test_valid_template_passes(self):
        assert ToscaValidator().check(valid_service()) == []

    def test_unknown_type_reported(self):
        svc = valid_service()
        svc.add_node(NodeTemplate("bad", type="nope.Type"))
        problems = ToscaValidator().check(svc)
        assert any("unknown type" in p for p in problems)

    def test_missing_required_property(self):
        svc = valid_service()
        svc.add_node(NodeTemplate("c2", type="myrtus.nodes.Container",
                                  properties={"image": "x"}))
        problems = ToscaValidator().check(svc)
        assert any("missing required property cpu_millicores" in p
                   for p in problems)

    def test_wrong_property_type(self):
        svc = valid_service()
        svc.node_templates["feed"].properties["cpu_millicores"] = "lots"
        problems = ToscaValidator().check(svc)
        assert any("not a integer" in p for p in problems)

    def test_unknown_property(self):
        svc = valid_service()
        svc.node_templates["feed"].properties["color"] = "red"
        problems = ToscaValidator().check(svc)
        assert any("unknown property color" in p for p in problems)

    def test_dangling_requirement(self):
        svc = valid_service()
        svc.node_templates["feed"].requirements.append(
            Requirement("host", "ghost"))
        problems = ToscaValidator().check(svc)
        assert any("unknown template ghost" in p for p in problems)

    def test_self_requirement(self):
        svc = valid_service()
        svc.node_templates["feed"].requirements.append(
            Requirement("host", "feed"))
        problems = ToscaValidator().check(svc)
        assert any("targets itself" in p for p in problems)

    def test_hosting_cycle_detected(self):
        svc = valid_service()
        svc.node_templates["feed"].requirements.append(
            Requirement("host", "detector",
                        "tosca.relationships.HostedOn"))
        svc.node_templates["detector"].requirements.append(
            Requirement("host", "feed", "tosca.relationships.HostedOn"))
        problems = ToscaValidator().check(svc)
        assert "requirement cycle: feed -> detector -> feed" in problems

    def test_every_hosting_cycle_named(self):
        """Two disjoint HostedOn cycles are two problems, in template
        order, each closed on its first member."""
        svc = ServiceTemplate(name="hosts")
        for name, host in (("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")):
            template = NodeTemplate(name, "myrtus.nodes.Container",
                                    {"image": f"{name}:1"})
            template.requirements.append(Requirement("host", host))
            svc.add_node(template)
        assert [p for p in ToscaValidator().check(svc)
                if "cycle" in p] == ["requirement cycle: a -> b -> a",
                                     "requirement cycle: c -> d -> c"]

    def test_unknown_policy_type(self):
        svc = valid_service()
        svc.add_policy(Policy("p", "nope.Policy", ["feed"]))
        problems = ToscaValidator().check(svc)
        assert any("unknown type nope.Policy" in p for p in problems)

    def test_policy_unknown_target(self):
        svc = valid_service()
        svc.add_policy(Policy("p", "myrtus.policies.Latency", ["ghost"],
                              {"end_to_end_budget_s": 1.0}))
        problems = ToscaValidator().check(svc)
        assert any("unknown target ghost" in p for p in problems)

    def test_bad_security_level_value(self):
        svc = valid_service()
        svc.add_policy(Policy("p", "myrtus.policies.Security", ["feed"],
                              {"min_level": "ultra"}))
        problems = ToscaValidator().check(svc)
        assert any("min_level" in p for p in problems)

    def test_nonpositive_latency_budget(self):
        svc = valid_service()
        svc.add_policy(Policy("p", "myrtus.policies.Latency", ["feed"],
                              {"end_to_end_budget_s": -1.0}))
        problems = ToscaValidator().check(svc)
        assert any("must be positive" in p for p in problems)

    @pytest.mark.parametrize("where, properties, message", [
        ("node", {"kernel_class": "quantum"},
         "node feed: property kernel_class 'quantum' is not one of "
         "('general', 'dsp', 'neural', 'crypto', 'analytics')"),
        ("policy", {"data_class": "secret"},
         "policy priv: property data_class 'secret' is not one of "
         "('public', 'aggregated', 'raw_personal')"),
        ("policy", {"data_class": "public", "max_layer": "moon"},
         "policy priv: property max_layer 'moon' is not one of "
         "('edge', 'fog', 'cloud')"),
    ], ids=["kernel_class", "data_class", "max_layer"])
    def test_enumerated_property_off_its_values(self, where, properties,
                                                message):
        """A value off an enumerated property's list is one schema
        problem, naming the allowed values."""
        svc = valid_service()
        if where == "node":
            svc.node_templates["feed"].properties.update(properties)
        else:
            svc.add_policy(Policy("priv", "myrtus.policies.Privacy",
                                  ["feed"], properties))
        assert ToscaValidator().problems(svc) == [("schema", message)]

    def test_enumerated_values_are_the_continuum_enums(self):
        """The TOSCA schema's allowed values are exactly the members the
        MIRTO Manager builds ``Layer``/``PrivacyClass``/``KernelClass``
        from."""
        from repro.continuum.devices import Layer
        from repro.continuum.workload import KernelClass, PrivacyClass
        from repro.tosca.model import DATA_CLASSES, KERNEL_CLASSES, LAYERS
        assert LAYERS == tuple(m.value for m in Layer)
        assert DATA_CLASSES == tuple(m.value for m in PrivacyClass)
        assert KERNEL_CLASSES == tuple(m.value for m in KernelClass)

    def test_validate_raises_with_all_problems(self):
        svc = valid_service()
        svc.add_node(NodeTemplate("bad", type="nope.Type"))
        svc.add_policy(Policy("p", "nope.Policy", ["feed"]))
        with pytest.raises(ValidationError) as excinfo:
            ToscaValidator().validate(svc)
        assert len(excinfo.value.problems) >= 2


class TestServiceTemplateApi:
    def test_duplicate_template_rejected(self):
        svc = ServiceTemplate("s")
        svc.add_node(NodeTemplate("a", "myrtus.nodes.Container"))
        with pytest.raises(ValidationError):
            svc.add_node(NodeTemplate("a", "myrtus.nodes.Container"))

    def test_containers_include_derived_types(self):
        svc = valid_service()
        names = {c.name for c in svc.containers()}
        assert names == {"feed", "detector"}  # AcceleratedKernel derives

    def test_security_floor_is_the_strictest_level(self):
        svc = valid_service()  # one Security policy: "*" at medium
        assert svc.security_floor() == svc.security_floor("feed") \
            == "medium"
        for name, level in (("feed-high", "high"), ("feed-low", "low")):
            svc.add_policy(Policy(name, "myrtus.policies.Security",
                                  ["feed"], {"min_level": level}))
        assert svc.security_floor("feed") == "high"
        assert svc.security_floor("detector") == "medium"
        assert svc.security_floor() == "high"
        svc.policies = [p for p in svc.policies
                        if p.type != "myrtus.policies.Security"]
        assert svc.security_floor() == svc.security_floor("feed") == "low"

    def test_policies_for_wildcard(self):
        svc = valid_service()
        assert [p.name for p in svc.policies_for("feed")] == ["secure-all"]
        assert {p.name for p in svc.policies_for("detector")} \
            == {"secure-all", "fast"}

    def test_policies_of_type(self):
        svc = valid_service()
        assert len(svc.policies_of_type("myrtus.policies.Latency")) == 1


_TEMPLATE = "Definitions/service-template.yaml"


def _raw_csar(template: bytes, meta: bytes | None = None,
              compression: int = zipfile.ZIP_DEFLATED) -> bytes:
    """CSAR bytes around *template*, written without CsarArchive."""
    if meta is None:
        meta = f"Entry-Definitions: {_TEMPLATE}\n".encode()
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        archive.writestr("TOSCA-Metadata/TOSCA.meta", meta)
        archive.writestr(_TEMPLATE, template)
    return buffer.getvalue()


def _damaged_csar(damage: str) -> bytes:
    """A CSAR whose entry template has one kind of zip damage."""
    compression = (zipfile.ZIP_DEFLATED if damage == "bad-deflate"
                   else zipfile.ZIP_STORED)
    data = bytearray(_raw_csar(VALID_DOC.encode(), compression=compression))
    info = zipfile.ZipFile(io.BytesIO(bytes(data))).getinfo(_TEMPLATE)
    local = info.header_offset
    central = data.rindex(b"PK\x01\x02")  # the template is written last
    if damage == "bad-deflate":
        name_len, extra_len = struct.unpack_from("<HH", data, local + 26)
        # BFINAL=1, BTYPE=3: a reserved deflate block type.
        data[local + 30 + name_len + extra_len] = 0x07
    elif damage == "bad-crc":
        data = data.replace(b"feed:1", b"feed:2")
    elif damage == "unknown-method":
        struct.pack_into("<H", data, local + 8, 99)
        struct.pack_into("<H", data, central + 10, 99)
    else:  # truncated: the entry claims more bytes than the file holds
        struct.pack_into("<II", data, central + 20, info.compress_size
                         + 10**6, info.file_size + 10**6)
    return bytes(data)


class TestCsar:
    def test_roundtrip(self):
        archive = CsarArchive(valid_service())
        archive.add_artifact("bitstreams/cnn.bit", b"\x00" * 64)
        archive.add_artifact("meta/operating-points.json", b"{}")
        data = archive.to_bytes()
        back = CsarArchive.from_bytes(data)
        assert back.service.name == "demo"
        assert back.artifact_inventory() == {
            "bitstreams/cnn.bit": 64,
            "meta/operating-points.json": 2,
        }

    def test_bad_zip_rejected(self):
        with pytest.raises(ValidationError):
            CsarArchive.from_bytes(b"not a zip")

    def test_missing_meta_rejected(self):
        import io
        import zipfile
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as z:
            z.writestr("random.txt", "hi")
        with pytest.raises(ValidationError):
            CsarArchive.from_bytes(buffer.getvalue())

    @pytest.mark.parametrize("meta,template,match", [
        (b"Entry-Definitions: " + _TEMPLATE.encode() + b"\n\xff\xfe",
         VALID_DOC.encode(), "TOSCA.meta is not UTF-8"),
        (None, b"tosca_definitions_version: \xff\n",
         "service-template.yaml is not UTF-8"),
    ], ids=["meta-not-utf8", "template-not-utf8"])
    def test_undecodable_entries_rejected(self, meta, template, match):
        with pytest.raises(ValidationError, match=match):
            CsarArchive.from_bytes(_raw_csar(template, meta))

    @pytest.mark.parametrize("damage", ["bad-deflate", "bad-crc",
                                        "unknown-method", "truncated"])
    def test_damaged_template_entry_rejected(self, damage):
        with pytest.raises(ValidationError, match="service-template.yaml "
                                                  "is corrupt"):
            CsarArchive.from_bytes(_damaged_csar(damage))

    def test_corrupt_artifact_rejected(self):
        archive = CsarArchive(valid_service())
        archive.add_artifact("bitstreams/cnn.bit", b"\x00" * 64)
        data = zipfile.ZipFile(io.BytesIO(archive.to_bytes()))
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as z:
            for name in data.namelist():
                z.writestr(name, data.read(name))
        tampered = buffer.getvalue().replace(b"\x00" * 64, b"\x01" * 64)
        with pytest.raises(ValidationError, match="cnn.bit is corrupt"):
            CsarArchive.from_bytes(tampered)

    def test_bad_artifact_path_rejected(self):
        archive = CsarArchive(valid_service())
        with pytest.raises(ValidationError):
            archive.add_artifact("/absolute", b"")

