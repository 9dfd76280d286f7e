"""The continuum-lint rules.

These encode the determinism and simulation invariants DESIGN.md
states: all randomness flows through ``repro.core.rng.RngRegistry``,
simulation code never reads wall-clock time, and seeds are derived with
``derive_seed`` (full-entropy, hash-stable) rather than from RNG floats
or ``hash()``.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Severity
from repro.analysis.flow.symbols import function_body_nodes
from repro.analysis.lint.engine import LintContext, Rule, register_rule

# Module-level functions on `random` that consume the global stream.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "seed",
})

# Legacy numpy global-state API (np.random.<fn> without a Generator).
_GLOBAL_NP_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "exponential",
    "poisson", "binomial", "seed",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_SEEDING_CALLS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
})

# Canonical and re-exported names of the runtime primitives that only
# repro.runtime (and tests) may construct directly.
_RUNTIME_PRIMITIVES = frozenset({
    "repro.continuum.simulator.Simulator",
    "repro.continuum.Simulator",
    "repro.core.events.EventBus",
    "repro.core.EventBus",
})


@register_rule
class GlobalRandomRule(Rule):
    """All stochastic choices must come from an ``RngRegistry`` stream.

    Flags calls into the process-global ``random`` module (or numpy's
    legacy global-state API), and unseeded generator constructions
    (``random.Random()`` / ``np.random.default_rng()`` with no seed),
    anywhere outside the rng-allowlisted files.
    """

    rule_id = "global-random"
    description = ("stochastic call bypasses RngRegistry "
                   "(global random module or unseeded generator)")
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def on_node(self, node: ast.Call, ctx: LintContext) -> None:
        if ctx.config.is_rng_allowed(ctx.rel_path):
            return
        target = ctx.resolve_call_target(node.func)
        if target is None:
            return
        parts = target.split(".")
        if parts[0] == "random" and len(parts) == 2 \
                and parts[1] in _GLOBAL_RANDOM_FNS:
            ctx.report(self, node,
                       f"call to global random module ({target}); route "
                       "it through repro.core.rng.RngRegistry")
        elif parts[0] == "numpy" and len(parts) >= 2 \
                and parts[1] == "random" \
                and parts[-1] in _GLOBAL_NP_RANDOM_FNS and len(parts) == 3:
            ctx.report(self, node,
                       f"call to numpy global random state ({target}); "
                       "use RngRegistry.numpy() instead")
        elif target in _SEEDING_CALLS and not node.args \
                and not node.keywords:
            ctx.report(self, node,
                       f"unseeded generator {target}() is "
                       "nondeterministic; pass an explicit seed")


@register_rule
class WallClockRule(Rule):
    """Simulation code runs on logical clocks, never the wall clock."""

    rule_id = "wall-clock"
    description = ("wall-clock read inside simulation code "
                   "(use the simulator's logical clock)")
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def on_node(self, node: ast.Call, ctx: LintContext) -> None:
        if not ctx.config.is_simulation_path(ctx.rel_path):
            return
        target = ctx.resolve_call_target(node.func)
        if target in _WALL_CLOCK_CALLS:
            ctx.report(self, node,
                       f"wall-clock read ({target}) in simulation code; "
                       "use the logical clock")


@register_rule
class MutableDefaultRule(Rule):
    """Mutable default arguments alias state across calls."""

    rule_id = "mutable-default"
    description = "mutable default argument (list/dict/set literal)"
    severity = Severity.WARNING
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def on_node(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                kind = type(default).__name__.lower()
                ctx.report(self, default,
                           f"function {node.name}: mutable default "
                           f"argument ({kind} literal); use None and "
                           "construct inside the body")
            elif isinstance(default, ast.Call) \
                    and isinstance(default.func, ast.Name) \
                    and default.func.id in ("list", "dict", "set") \
                    and not default.args and not default.keywords:
                ctx.report(self, default,
                           f"function {node.name}: mutable default "
                           f"argument ({default.func.id}()); use None "
                           "and construct inside the body")


@register_rule
class OverbroadExceptRule(Rule):
    """Bare excepts (and silently swallowed broad ones) hide faults."""

    rule_id = "overbroad-except"
    description = "bare except, or broad except whose body only passes"
    severity = Severity.WARNING
    node_types = (ast.ExceptHandler,)

    def on_node(self, node: ast.ExceptHandler, ctx: LintContext) -> None:
        if node.type is None:
            ctx.report(self, node,
                       "bare except: catches SystemExit/KeyboardInterrupt; "
                       "name the exception type")
            return
        if isinstance(node.type, ast.Name) \
                and node.type.id in ("Exception", "BaseException") \
                and self._body_swallows(node.body):
            ctx.report(self, node,
                       f"except {node.type.id} with a pass-only body "
                       "silently swallows all errors")

    @staticmethod
    def _body_swallows(body: list[ast.stmt]) -> bool:
        if len(body) != 1:
            return False
        stmt = body[0]
        return isinstance(stmt, ast.Pass) or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)


@register_rule
class RuntimeConstructionRule(Rule):
    """The runtime layer owns clock and bus; nobody else constructs them.

    A subsystem that builds its own ``Simulator()`` or ``EventBus()``
    forks the timeline: its events can no longer be causally ordered
    against the rest of the system, and its trace diverges from the
    canonical one. Everything outside ``repro/runtime/`` (and tests)
    must be injected with a ``RuntimeContext`` instead.
    """

    rule_id = "runtime-construction"
    description = ("direct Simulator()/EventBus() construction outside "
                   "repro.runtime (inject a RuntimeContext)")
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def on_node(self, node: ast.Call, ctx: LintContext) -> None:
        if ctx.config.is_runtime_allowed(ctx.rel_path):
            return
        target = ctx.resolve_call_target(node.func)
        if target in _RUNTIME_PRIMITIVES:
            kind = target.rsplit(".", 1)[-1]
            ctx.report(self, node,
                       f"direct {kind}() construction forks the shared "
                       "timeline; accept a repro.runtime.RuntimeContext "
                       "and use ctx.sim / ctx.bus")


@register_rule
class HotPathAllocationRule(Rule):
    """Functions marked ``# perf: hot`` must not allocate per call.

    The pragma marks dispatch/scheduling/serialization hot paths whose
    cost was measured and paid down (see benchmarks/perf). A
    comprehension or ``list(...)`` copy creeping back into one of them
    is how the win quietly erodes, so the gate flags them; hoist the
    allocation out of the hot path (as ``EventBus.publish`` does with
    ``_build_dispatch``) or drop the pragma if the function is no
    longer hot.
    """

    rule_id = "hot-path-allocation"
    description = ("list/dict/set comprehension or list() copy inside "
                   "a function marked '# perf: hot'")
    severity = Severity.WARNING
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _COMPREHENSIONS = {
        ast.ListComp: "list comprehension",
        ast.SetComp: "set comprehension",
        ast.DictComp: "dict comprehension",
    }

    def on_node(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        if not self._is_hot(node, ctx):
            return
        # Nested defs are dispatched to this rule as their own nodes
        # (and comprehensions/lambdas inside them run in the nested
        # scope), so they are not this function's per-call cost.
        for inner in function_body_nodes(node):
            kind = self._COMPREHENSIONS.get(type(inner))
            if kind is not None:
                ctx.report(self, inner,
                           f"function {node.name} is marked '# perf: "
                           f"hot' but builds a {kind}; hoist it out of "
                           "the hot path")
            elif isinstance(inner, ast.Call) \
                    and isinstance(inner.func, ast.Name) \
                    and inner.func.id == "list" \
                    and len(inner.args) == 1 and not inner.keywords:
                ctx.report(self, inner,
                           f"function {node.name} is marked '# perf: "
                           "hot' but copies with list(); iterate the "
                           "original instead")

    @staticmethod
    def _is_hot(node: ast.FunctionDef, ctx: LintContext) -> bool:
        """The pragma may sit on any line of the (multi-line) signature."""
        first_body_line = node.body[0].lineno if node.body \
            else node.lineno + 1
        return any("# perf: hot" in ctx.source_line(line)
                   for line in range(node.lineno, first_body_line))


@register_rule
class PrintTelemetryRule(Rule):
    """Telemetry goes through ``repro.obs``, never ad-hoc ``print()``.

    A ``print()`` in library code is telemetry that bypasses the trace,
    the metrics registry, and the span tree: it cannot be replayed,
    exported, or asserted on, and it interleaves nondeterministically
    with real output. Only the rendering CLIs (the print-allowlist) may
    write to stdout; everything else records spans/metrics or publishes
    on the bus.
    """

    rule_id = "print-telemetry"
    description = ("ad-hoc print() telemetry outside a rendering CLI "
                   "(use repro.obs spans/metrics or the trace)")
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def on_node(self, node: ast.Call, ctx: LintContext) -> None:
        if ctx.config.is_print_allowed(ctx.rel_path):
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            ctx.report(self, node,
                       "print() telemetry bypasses the trace and the "
                       "metrics registry; record a span/metric or "
                       "publish on the bus instead")


@register_rule
class SeedEntropyRule(Rule):
    """Child seeds must come from ``derive_seed``, not RNG floats/hash().

    ``random.Random(rng.random())`` folds a 53-bit float into the seed
    space non-uniformly, and ``hash(...)`` changes across processes
    (PYTHONHASHSEED), so either pattern silently breaks replayability.
    """

    rule_id = "seed-entropy"
    description = ("seed derived from rng.random()/hash()/time.time() "
                   "instead of repro.core.rng.derive_seed")
    severity = Severity.ERROR
    node_types = (ast.Call,)

    def on_node(self, node: ast.Call, ctx: LintContext) -> None:
        target = ctx.resolve_call_target(node.func)
        is_seeding = target in _SEEDING_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed")
        if not is_seeding:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for inner in ast.walk(arg):
                if not isinstance(inner, ast.Call):
                    continue
                inner_target = ctx.resolve_call_target(inner.func)
                if isinstance(inner.func, ast.Attribute) \
                        and inner.func.attr == "random":
                    ctx.report(self, node,
                               "seeding from a .random() float loses "
                               "entropy; use derive_seed(root, name)")
                elif inner_target == "hash":
                    ctx.report(self, node,
                               "seeding from hash() is unstable across "
                               "processes (PYTHONHASHSEED); use "
                               "derive_seed(root, name)")
                elif inner_target in _WALL_CLOCK_CALLS:
                    ctx.report(self, node,
                               "seeding from the wall clock makes runs "
                               "unreproducible; use derive_seed")
