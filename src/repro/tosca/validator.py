"""The TOSCA Validation Processor (paper Fig. 3).

The one home of every template rule, each problem under the rule id
the static checker (:mod:`repro.analysis.tosca_check`) reports:
``schema`` (types, property schemas, requirement targets, policies),
``dependency-cycle`` (over every requirement kind), ``security-level``
(policies, nodes and metadata against the Table II ladder) and
``operating-points`` (the Pareto points the DPE embeds and the MIRTO
Node Manager consumes). Returns all problems at once.
"""

from __future__ import annotations

from repro.core.errors import ValidationError
from repro.core.graph import simple_cycles
from repro.core.levels import SECURITY_LEVELS
from repro.tosca.model import (
    POLICY_TYPES,
    SECURITY_POLICY,
    STANDARD_NODE_TYPES,
    STANDARD_RELATIONSHIP_TYPES,
    ServiceTemplate,
    effective_properties,
)

#: keys every exported operating point carries (dse.export_operating_points)
_POINT_KEYS = ("name", "latency_s", "energy_j")


class ToscaValidator:
    """Collects problems; ``validate`` raises when any exist."""

    def problems(self, service: ServiceTemplate) -> list[tuple[str, str]]:
        """Every problem as ``(rule, message)``, in rule order."""
        return [(rule, message) for rule, check in _RULES
                for message in check(service)]

    def check(self, service: ServiceTemplate) -> list[str]:
        """Return the list of problems (empty when valid)."""
        return [message for _rule, message in self.problems(service)]

    def validate(self, service: ServiceTemplate) -> None:
        """Raise :class:`ValidationError` listing every problem found."""
        problems = self.check(service)
        if problems:
            raise ValidationError(
                f"service template {service.name!r} invalid", problems)


# -- the rules: each yields its problems' messages ---------------------------


def _template_problems(service: ServiceTemplate):
    for template in service.node_templates.values():
        if template.type not in STANDARD_NODE_TYPES:
            yield f"node {template.name}: unknown type {template.type}"
        else:
            yield from _property_problems(
                f"node {template.name}", template.properties,
                effective_properties(template.type))


def _requirement_problems(service: ServiceTemplate):
    for template in service.node_templates.values():
        for req in template.requirements:
            if req.target not in service.node_templates:
                yield (f"node {template.name}: requirement {req.name} "
                       f"targets unknown template {req.target}")
            if req.relationship not in STANDARD_RELATIONSHIP_TYPES:
                yield (f"node {template.name}: unknown relationship "
                       f"{req.relationship}")
            if req.target == template.name:
                yield (f"node {template.name}: requirement {req.name} "
                       "targets itself")


def _policy_problems(service: ServiceTemplate):
    for policy in service.policies:
        if policy.type not in POLICY_TYPES:
            yield f"policy {policy.name}: unknown type {policy.type}"
            continue
        for target in policy.targets:
            if target != "*" and target not in service.node_templates:
                yield f"policy {policy.name}: unknown target {target}"
        yield from _property_problems(
            f"policy {policy.name}", policy.properties,
            POLICY_TYPES[policy.type])
        if policy.type == "myrtus.policies.Latency":
            budget = policy.properties.get("end_to_end_budget_s")
            if isinstance(budget, (int, float)) and budget <= 0:
                yield f"policy {policy.name}: latency budget must be positive"


def _property_problems(where: str, properties: dict, schema: dict):
    """Unknown, ill-typed, off-enumeration and missing required
    properties."""
    for prop_name, value in properties.items():
        definition = schema.get(prop_name)
        if definition is None:
            yield f"{where}: unknown property {prop_name}"
        elif value is None:
            continue
        elif not definition.check(value):
            yield (f"{where}: property {prop_name} is not a "
                   f"{definition.type}")
        elif definition.choices and value not in definition.choices:
            yield (f"{where}: property {prop_name} {value!r} is not one "
                   f"of {definition.choices}")
    for prop_name, definition in schema.items():
        if definition.required and properties.get(prop_name) is None:
            yield f"{where}: missing required property {prop_name}"


def _cycle_problems(service: ServiceTemplate):
    """One problem per elementary cycle over every requirement kind.

    A ConnectsTo cycle deadlocks startup ordering as surely as a
    HostedOn one. Cycles come in template order, each starting where a
    depth-first walk over the templates first meets it, whatever the
    hash seed. A template requiring itself is the schema problem
    "targets itself", not a cycle.
    """
    graph: dict[str, dict[str, None]] = {
        name: {} for name in service.node_templates}
    for template in service.node_templates.values():
        for req in template.requirements:
            if req.target in graph and req.target != template.name:
                graph[template.name][req.target] = None
    for cycle in simple_cycles(graph):
        yield f"requirement cycle: {' -> '.join(cycle + cycle[:1])}"


def _security_level_problems(service: ServiceTemplate):
    levels = [(f"node {template.name}: max_security_level",
               template.properties.get("max_security_level"))
              for template in service.node_templates.values()]
    levels += [(f"policy {policy.name}: min_level",
                policy.properties.get("min_level"))
               for policy in service.policies_of_type(SECURITY_POLICY)]
    levels.append(("metadata security_level",
                   service.metadata.get("security_level")))
    for where, level in levels:
        if level is not None and level not in SECURITY_LEVELS:
            yield f"{where} {level!r} is not one of {SECURITY_LEVELS}"


def _node_operating_point_problems(service: ServiceTemplate):
    for template in service.node_templates.values():
        points = template.properties.get("operating_points")
        if points is not None:
            yield from operating_point_problems(
                points, f"node {template.name}")


def operating_point_problems(points, where: str):
    """Yield the shape problems of one operating-point list.

    Each point is a mapping with a unique ``name`` and non-negative
    ``latency_s`` and ``energy_j``: the contract between
    ``dse.export_operating_points`` and the MIRTO Node Manager. *where*
    (a node, or a CSAR artifact) prefixes every message.
    """
    if not isinstance(points, list):
        yield f"{where}: operating points must be a list of point mappings"
        return
    names: set[str] = set()
    for index, point in enumerate(points):
        at = f"{where}: operating point #{index}"
        if not isinstance(point, dict):
            yield f"{at} is not a mapping"
            continue
        for key in _POINT_KEYS:
            if key not in point:
                yield f"{at} lacks required key {key!r}"
        for key in ("latency_s", "energy_j"):
            value = point.get(key)
            if value is not None and (
                    not isinstance(value, (int, float))
                    or isinstance(value, bool) or value < 0):
                yield f"{at}: {key} must be a non-negative number"
        name = point.get("name")
        if isinstance(name, str):
            if name in names:
                yield f"{at}: duplicate point name {name!r}"
            names.add(name)


#: The rule table: each rule id with a check that yields its problems.
_RULES = (
    ("schema", _template_problems),
    ("schema", _requirement_problems),
    ("schema", _policy_problems),
    ("dependency-cycle", _cycle_problems),
    ("security-level", _security_level_problems),
    ("operating-points", _node_operating_point_problems),
)
