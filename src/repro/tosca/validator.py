"""The TOSCA Validation Processor (paper Fig. 3).

Semantic validation of a parsed service template: type existence,
property schema conformance, requirement resolution, HostedOn cycle
detection, and policy well-formedness. Returns all problems at once.
"""

from __future__ import annotations

from repro.core.errors import ValidationError
from repro.core.graph import simple_cycles
from repro.core.levels import SECURITY_LEVELS
from repro.tosca.model import (
    POLICY_TYPES,
    STANDARD_NODE_TYPES,
    STANDARD_RELATIONSHIP_TYPES,
    ServiceTemplate,
    effective_properties,
)

_LAYERS = ("edge", "fog", "cloud")


class ToscaValidator:
    """Collects problems; ``validate`` raises when any exist."""

    def check(self, service: ServiceTemplate) -> list[str]:
        """Return the list of problems (empty when valid)."""
        problems: list[str] = []
        problems += self._check_templates(service)
        problems += self._check_requirements(service)
        problems += self._check_hosting_cycles(service)
        problems += self._check_policies(service)
        return problems

    def validate(self, service: ServiceTemplate) -> None:
        """Raise :class:`ValidationError` listing every problem found."""
        problems = self.check(service)
        if problems:
            raise ValidationError(
                f"service template {service.name!r} invalid", problems)

    # -- individual passes -------------------------------------------------------

    def _check_templates(self, service: ServiceTemplate) -> list[str]:
        problems = []
        for template in service.node_templates.values():
            if template.type not in STANDARD_NODE_TYPES:
                problems.append(
                    f"node {template.name}: unknown type {template.type}")
                continue
            schema = effective_properties(template.type)
            for prop_name, value in template.properties.items():
                if prop_name not in schema:
                    problems.append(
                        f"node {template.name}: unknown property "
                        f"{prop_name}")
                elif value is not None and not schema[prop_name].check(value):
                    problems.append(
                        f"node {template.name}: property {prop_name} is "
                        f"not a {schema[prop_name].type}")
            for prop_name, definition in schema.items():
                if definition.required and \
                        template.properties.get(prop_name) is None:
                    problems.append(
                        f"node {template.name}: missing required property "
                        f"{prop_name}")
        return problems

    def _check_requirements(self, service: ServiceTemplate) -> list[str]:
        problems = []
        for template in service.node_templates.values():
            for req in template.requirements:
                if req.target not in service.node_templates:
                    problems.append(
                        f"node {template.name}: requirement {req.name} "
                        f"targets unknown template {req.target}")
                if req.relationship not in STANDARD_RELATIONSHIP_TYPES:
                    problems.append(
                        f"node {template.name}: unknown relationship "
                        f"{req.relationship}")
                if req.target == template.name:
                    problems.append(
                        f"node {template.name}: requirement {req.name} "
                        "targets itself")
        return problems

    def _check_hosting_cycles(self, service: ServiceTemplate) -> list[str]:
        """One problem per HostedOn cycle, in template order."""
        hosts: dict[str, dict[str, None]] = {
            name: {} for name in service.node_templates}
        for template in service.node_templates.values():
            for req in template.requirements:
                if req.name == "host" and req.target in hosts:
                    hosts[template.name][req.target] = None
        return [f"hosting cycle: {' -> '.join(cycle)}"
                for cycle in simple_cycles(hosts)]

    def _check_policies(self, service: ServiceTemplate) -> list[str]:
        problems = []
        for policy in service.policies:
            if policy.type not in POLICY_TYPES:
                problems.append(f"policy {policy.name}: unknown type "
                                f"{policy.type}")
                continue
            schema = POLICY_TYPES[policy.type]
            for target in policy.targets:
                if target != "*" and target not in service.node_templates:
                    problems.append(
                        f"policy {policy.name}: unknown target {target}")
            for prop_name, value in policy.properties.items():
                if prop_name not in schema:
                    problems.append(
                        f"policy {policy.name}: unknown property "
                        f"{prop_name}")
                elif value is not None and not schema[prop_name].check(value):
                    problems.append(
                        f"policy {policy.name}: property {prop_name} is "
                        f"not a {schema[prop_name].type}")
            for prop_name, definition in schema.items():
                if definition.required and \
                        policy.properties.get(prop_name) is None:
                    problems.append(
                        f"policy {policy.name}: missing required property "
                        f"{prop_name}")
            problems += self._check_policy_values(policy)
        return problems

    def _check_policy_values(self, policy) -> list[str]:
        problems = self._check_security_level(policy)
        if policy.type == "myrtus.policies.Latency":
            budget = policy.properties.get("end_to_end_budget_s")
            if isinstance(budget, (int, float)) and budget <= 0:
                problems.append(
                    f"policy {policy.name}: latency budget must be positive")
        if policy.type == "myrtus.policies.Privacy":
            layer = policy.properties.get("max_layer")
            if layer is not None and layer not in _LAYERS:
                problems.append(
                    f"policy {policy.name}: max_layer must be one of "
                    f"{_LAYERS}")
        return problems

    @staticmethod
    def _check_security_level(policy) -> list[str]:
        if policy.type == "myrtus.policies.Security":
            level = policy.properties.get("min_level")
            if level is not None and level not in SECURITY_LEVELS:
                return [f"policy {policy.name}: min_level must be one of "
                        f"{SECURITY_LEVELS}"]
        return []
