"""TOSCA object model (subset of OASIS TOSCA v2.0).

The MIRTO agent's REST-like API accepts orchestration requests as TOSCA
service templates (paper Fig. 3), and the DPE exports deployment
specifications as TOSCA/CSAR (Sec. V). This subset covers what MYRTUS
needs: node types with typed properties, node templates with
requirements (HostedOn/ConnectsTo relationships), and policies carrying
the security/latency/energy/privacy constraints the MIRTO Manager must
solve for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ValidationError
from repro.core.levels import SECURITY_RANK


@dataclass(frozen=True)
class PropertyDef:
    """Schema for one property of a node or policy type."""

    name: str
    type: str  # "string" | "integer" | "float" | "boolean" | "map" | "list"
    required: bool = False
    default: Any = None
    #: The allowed values, when the property is an enumeration.
    choices: tuple[str, ...] | None = None

    _CHECKS = {
        "string": lambda v: isinstance(v, str),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "float": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
        "boolean": lambda v: isinstance(v, bool),
        "map": lambda v: isinstance(v, dict),
        "list": lambda v: isinstance(v, list),
    }

    def check(self, value: Any) -> bool:
        checker = self._CHECKS.get(self.type)
        if checker is None:
            raise ValidationError(f"unknown property type {self.type!r}")
        return checker(value)


@dataclass
class NodeType:
    """A reusable node type in the type hierarchy."""

    name: str
    derived_from: str | None = None
    properties: dict[str, PropertyDef] = field(default_factory=dict)
    capabilities: tuple[str, ...] = ()


@dataclass
class RelationshipType:
    name: str
    derived_from: str | None = None


def _prop(name: str, type_: str, required: bool = False,
          default: Any = None,
          choices: tuple[str, ...] | None = None) -> tuple[str, PropertyDef]:
    return name, PropertyDef(name, type_, required, default, choices)


#: Allowed values of the enumerated properties: the values of
#: ``Layer``, ``PrivacyClass`` and ``KernelClass`` (``repro.continuum``),
#: which the MIRTO Manager builds from them. ``repro.tosca`` does not
#: import ``repro.continuum``, so a test pins them equal.
LAYERS = ("edge", "fog", "cloud")
DATA_CLASSES = ("public", "aggregated", "raw_personal")
KERNEL_CLASSES = ("general", "dsp", "neural", "crypto", "analytics")


# The MYRTUS type library: base TOSCA compute plus continuum-specific
# node and policy types.
STANDARD_NODE_TYPES: dict[str, NodeType] = {}
STANDARD_RELATIONSHIP_TYPES: dict[str, RelationshipType] = {}


def _register(node_type: NodeType) -> NodeType:
    STANDARD_NODE_TYPES[node_type.name] = node_type
    return node_type


_register(NodeType("tosca.nodes.Root"))
_register(NodeType(
    "tosca.nodes.Compute",
    derived_from="tosca.nodes.Root",
    properties=dict([
        _prop("num_cpus", "integer"),
        _prop("mem_size_bytes", "integer"),
    ]),
    capabilities=("host",),
))
_register(NodeType(
    "myrtus.nodes.EdgeDevice",
    derived_from="tosca.nodes.Compute",
    properties=dict([
        _prop("device_kind", "string", required=True),
        _prop("max_security_level", "string", default="low"),
    ]),
    capabilities=("host", "edge"),
))
_register(NodeType(
    "myrtus.nodes.FogNode",
    derived_from="tosca.nodes.Compute",
    properties=dict([_prop("fmdc", "boolean", default=False)]),
    capabilities=("host", "fog"),
))
_register(NodeType(
    "myrtus.nodes.CloudServer",
    derived_from="tosca.nodes.Compute",
    capabilities=("host", "cloud"),
))
_register(NodeType(
    "myrtus.nodes.Container",
    derived_from="tosca.nodes.Root",
    properties=dict([
        _prop("image", "string", required=True),
        _prop("cpu_millicores", "integer", required=True),
        _prop("memory_bytes", "integer", required=True),
        _prop("kernel_class", "string", default="general",
              choices=KERNEL_CLASSES),
        _prop("megaops", "float", default=0.0),
        _prop("input_bytes", "integer", default=0),
        _prop("output_bytes", "integer", default=0),
        _prop("operating_points", "list", default=None),
    ]),
))
_register(NodeType(
    "myrtus.nodes.AcceleratedKernel",
    derived_from="myrtus.nodes.Container",
    properties=dict([
        _prop("bitstream", "string"),
        _prop("image", "string", required=True),
        _prop("cpu_millicores", "integer", required=True),
        _prop("memory_bytes", "integer", required=True),
    ]),
))

for rel in ("tosca.relationships.Root", "tosca.relationships.HostedOn",
            "tosca.relationships.ConnectsTo", "myrtus.relationships.Streams"):
    STANDARD_RELATIONSHIP_TYPES[rel] = RelationshipType(rel)


SECURITY_POLICY = "myrtus.policies.Security"

POLICY_TYPES: dict[str, dict[str, PropertyDef]] = {
    SECURITY_POLICY: dict([
        _prop("min_level", "string", required=True),
        _prop("encrypted_storage", "boolean", default=False),
    ]),
    "myrtus.policies.Latency": dict([
        _prop("end_to_end_budget_s", "float", required=True),
    ]),
    "myrtus.policies.Energy": dict([
        _prop("budget_j", "float"),
        _prop("prefer_low_power", "boolean", default=True),
    ]),
    "myrtus.policies.Privacy": dict([
        _prop("data_class", "string", required=True, choices=DATA_CLASSES),
        _prop("max_layer", "string", default="cloud", choices=LAYERS),
    ]),
    "myrtus.policies.Placement": dict([
        _prop("preferred_layer", "string"),
        _prop("anti_affinity_group", "string"),
    ]),
}


@dataclass
class Requirement:
    """A dangling edge of a node template, resolved to another template."""

    name: str  # e.g. "host", "connection"
    target: str  # node template name
    relationship: str = "tosca.relationships.Root"


@dataclass
class NodeTemplate:
    """An occurrence of a node type inside a service topology."""

    name: str
    type: str
    properties: dict[str, Any] = field(default_factory=dict)
    requirements: list[Requirement] = field(default_factory=list)

    def requirement(self, name: str) -> Requirement | None:
        for req in self.requirements:
            if req.name == name:
                return req
        return None


@dataclass
class Policy:
    """A constraint applied to a set of node templates."""

    name: str
    type: str
    targets: list[str]
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class ServiceTemplate:
    """A complete TOSCA service: topology plus policies plus metadata."""

    name: str
    node_templates: dict[str, NodeTemplate] = field(default_factory=dict)
    policies: list[Policy] = field(default_factory=list)
    inputs: dict[str, Any] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def add_node(self, template: NodeTemplate) -> NodeTemplate:
        if template.name in self.node_templates:
            raise ValidationError(
                f"duplicate node template {template.name!r}")
        self.node_templates[template.name] = template
        return template

    def add_policy(self, policy: Policy) -> Policy:
        self.policies.append(policy)
        return policy

    def containers(self) -> list[NodeTemplate]:
        """Templates of Container type (or derived) — the deployable units."""
        result = []
        for template in self.node_templates.values():
            type_name = template.type
            while type_name is not None:
                if type_name == "myrtus.nodes.Container":
                    result.append(template)
                    break
                node_type = STANDARD_NODE_TYPES.get(type_name)
                type_name = node_type.derived_from if node_type else None
        return result

    def policies_of_type(self, type_name: str) -> list[Policy]:
        return [p for p in self.policies if p.type == type_name]

    def policies_for(self, template_name: str) -> list[Policy]:
        """Policies targeting one template (or everything, via '*')."""
        return [p for p in self.policies
                if template_name in p.targets or "*" in p.targets]

    def security_floor(self, template_name: str | None = None) -> str:
        """The strictest Security ``min_level`` among the policies
        targeting *template_name* (``*`` included), or among all of them
        when no template is given; ``low`` when none applies.

        A level off the Table II ladder ranks above ``high``: it is
        never dropped, so the reader that parses it rejects it.
        """
        policies = (self.policies if template_name is None
                    else self.policies_for(template_name))
        levels = [p.properties.get("min_level", "low") for p in policies
                  if p.type == SECURITY_POLICY]
        return max(levels, default="low", key=lambda level:
                   SECURITY_RANK.get(level, len(SECURITY_RANK)))


def resolve_type(name: str) -> NodeType:
    """Look up a node type by name."""
    if name not in STANDARD_NODE_TYPES:
        raise ValidationError(f"unknown node type {name!r}")
    return STANDARD_NODE_TYPES[name]


def effective_properties(node_type_name: str) -> dict[str, PropertyDef]:
    """Property schema of a type including everything inherited."""
    props: dict[str, PropertyDef] = {}
    chain: list[NodeType] = []
    current: str | None = node_type_name
    while current is not None:
        node_type = resolve_type(current)
        chain.append(node_type)
        current = node_type.derived_from
    for node_type in reversed(chain):  # base first, derived overrides
        props.update(node_type.properties)
    return props
