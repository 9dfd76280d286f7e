"""The security-level ladder (paper Table II): low < medium < high.

Defined once here, in the dependency-free kernel, so placement, the
continuum, kube, Liqo, the security package and the TOSCA validator
all order levels the same way.
"""

#: Level names, weakest first.
SECURITY_LEVELS = ("low", "medium", "high")

#: Position of each level on the ladder; compare ranks, not names.
SECURITY_RANK = {level: rank for rank, level in enumerate(SECURITY_LEVELS)}
