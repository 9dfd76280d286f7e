"""YAML parser for the TOSCA subset.

Accepts the TOSCA-style document layout::

    tosca_definitions_version: myrtus_tosca_1_0
    metadata: {...}
    topology_template:
      inputs: {...}
      node_templates:
        <name>:
          type: myrtus.nodes.Container
          properties: {...}
          requirements:
            - host: <target>
            - connection:
                node: <target>
                relationship: tosca.relationships.ConnectsTo
      policies:
        - <name>:
            type: myrtus.policies.Latency
            targets: [a, b]
            properties: {...}
"""

from __future__ import annotations

from typing import Any

import yaml

from repro.core.errors import ValidationError
from repro.tosca.model import (
    NodeTemplate,
    Policy,
    Requirement,
    ServiceTemplate,
)

SUPPORTED_VERSIONS = ("myrtus_tosca_1_0", "tosca_2_0")

# libyaml's loader and emitter when PyYAML was built with it; the
# pure-Python classes are the fallback. Both give the same documents and
# the same text on every template the repo builds (tests/test_tosca.py).
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def parse_service_template(text: str, name: str = "service"
                           ) -> ServiceTemplate:
    """Parse a YAML document into a :class:`ServiceTemplate`.

    Structural errors raise :class:`ValidationError`; semantic checks
    are the validator's job (:mod:`repro.tosca.validator`).
    """
    if not isinstance(text, (str, bytes)):
        raise ValidationError("TOSCA document must be str or bytes")
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text to UTF-8 first, so a lone surrogate
        # fails there rather than in the pure-Python reader.
        raise ValidationError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("TOSCA document must be a mapping")
    version = doc.get("tosca_definitions_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValidationError(
            f"unsupported tosca_definitions_version {version!r} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    topology = doc.get("topology_template")
    if not isinstance(topology, dict):
        raise ValidationError("missing topology_template section")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be a mapping")
    service = ServiceTemplate(
        name=metadata.get("template_name", name),
        inputs=_mapping(topology.get("inputs"), "topology_template inputs"),
        metadata=dict(metadata),
    )
    node_templates = topology.get("node_templates")
    if not isinstance(node_templates, dict) or not node_templates:
        raise ValidationError("topology_template needs node_templates")
    for tpl_name, body in node_templates.items():
        service.add_node(_parse_node_template(tpl_name, body))
    for policy_entry in _sequence(topology.get("policies"),
                                  "topology_template policies"):
        service.add_policy(_parse_policy(policy_entry))
    return service


def _mapping(value: Any, where: str) -> dict:
    """A copy of an optional mapping section (absent or empty → ``{}``)."""
    if not value:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping")
    return dict(value)


def _sequence(value: Any, where: str) -> list:
    """An optional list section (absent or empty → ``[]``)."""
    if not value:
        return []
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list")
    return value


def _parse_node_template(name: str, body: Any) -> NodeTemplate:
    if not isinstance(body, dict):
        raise ValidationError(f"node template {name!r} must be a mapping")
    type_name = body.get("type")
    if not isinstance(type_name, str):
        raise ValidationError(f"node template {name!r} missing type")
    template = NodeTemplate(
        name=name,
        type=type_name,
        properties=_mapping(body.get("properties"),
                            f"node template {name!r} properties"),
    )
    for entry in _sequence(body.get("requirements"),
                           f"node template {name!r} requirements"):
        template.requirements.append(_parse_requirement(name, entry))
    return template


def _parse_requirement(owner: str, entry: Any) -> Requirement:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ValidationError(
            f"node template {owner!r}: each requirement must be a "
            "single-key mapping"
        )
    req_name, value = next(iter(entry.items()))
    if isinstance(value, str):
        return Requirement(name=req_name, target=value)
    if isinstance(value, dict):
        target = value.get("node")
        if not isinstance(target, str):
            raise ValidationError(
                f"node template {owner!r}: requirement {req_name!r} "
                "missing node"
            )
        return Requirement(
            name=req_name,
            target=target,
            relationship=value.get("relationship",
                                   "tosca.relationships.Root"),
        )
    raise ValidationError(
        f"node template {owner!r}: malformed requirement {req_name!r}"
    )


def _parse_policy(entry: Any) -> Policy:
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ValidationError("each policy must be a single-key mapping")
    name, body = next(iter(entry.items()))
    if not isinstance(body, dict):
        raise ValidationError(f"policy {name!r} must be a mapping")
    type_name = body.get("type")
    if not isinstance(type_name, str):
        raise ValidationError(f"policy {name!r} missing type")
    targets = body.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ValidationError(f"policy {name!r} needs a non-empty targets "
                              "list")
    return Policy(
        name=name,
        type=type_name,
        targets=[str(t) for t in targets],
        properties=_mapping(body.get("properties"),
                            f"policy {name!r} properties"),
    )


def dump_service_template(service: ServiceTemplate) -> str:
    """Serialize a service template back to TOSCA YAML."""
    node_templates: dict[str, Any] = {}
    for template in service.node_templates.values():
        body: dict[str, Any] = {"type": template.type}
        if template.properties:
            body["properties"] = template.properties
        if template.requirements:
            body["requirements"] = [
                {req.name: {"node": req.target,
                            "relationship": req.relationship}}
                for req in template.requirements
            ]
        node_templates[template.name] = body
    policies = [
        {p.name: {"type": p.type, "targets": p.targets,
                  "properties": p.properties}}
        for p in service.policies
    ]
    doc: dict[str, Any] = {
        "tosca_definitions_version": "myrtus_tosca_1_0",
        "metadata": {**service.metadata, "template_name": service.name},
        "topology_template": {
            "inputs": service.inputs,
            "node_templates": node_templates,
            "policies": policies,
        },
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)
