"""Tests for the whole-program topic-flow & DES-contract analyzer.

Covers the static pattern algebra (including the hypothesis property
pinning it to the runtime bus compiler), the symbol-table/call-graph
rules on synthetic projects, the parse cache, and — as the acceptance
gate — that the real repo analyzes clean and produces a deterministic
topic graph for the fault→evict→MAPE→bind flow.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import ParseCache, parse_source
from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.flow import (FLOW_RULES, TopicPattern,
                                 analyze_des_contracts, analyze_topic_flow,
                                 build_topic_graph, contracts_for,
                                 graph_to_dot, load_project,
                                 pattern_from_ast, patterns_intersect,
                                 run_flow, segment_violations)
from repro.analysis.flow.symbols import Project
from repro.core.events import EventBus, topic_matches

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"),
             "PATH": "/usr/bin:/bin"})


def make_project(sources: dict[str, str]) -> Project:
    """Build a Project from {rel_path: source} without touching disk."""
    project = Project()
    for rel_path, source in sorted(sources.items()):
        parsed = parse_source(source)
        assert parsed.tree is not None, parsed.error
        project.add_module(rel_path, parsed.tree, parsed.lines)
    project.build_indexes()
    return project


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# pattern algebra
# ---------------------------------------------------------------------------


class TestPatternsIntersect:
    @pytest.mark.parametrize("a,b,expected", [
        ("a.b", "a.b", True),
        ("a.b", "a.c", False),
        ("a.*", "a.b", True),
        ("a.*", "b.b", False),
        ("a.*", "*.b", True),
        ("a.**", "a.b.c.d", True),
        ("a.**", "b", False),
        ("**", "anything.at.all", True),
        ("a.**.z", "a.z", True),
        ("a.**.z", "a.b.c.z", True),
        ("a.**.z", "a.b.c", False),
        ("a.**.z", "a.*.z", True),
        ("a.**.z", "a.**.y", False),
        ("a.**.z", "**.z", True),
        ("a.*.c", "a.b.*", True),
        ("a.*.c", "a.b", False),
    ])
    def test_pairs(self, a, b, expected):
        assert patterns_intersect(a, b) is expected
        assert patterns_intersect(b, a) is expected  # symmetric

    def test_topicpattern_helpers(self):
        p = TopicPattern("a.*.c")
        assert not p.exact
        assert p.matches_topic("a.x.c")
        assert not p.matches_topic("a.x.y")
        assert p.intersects("a.b.**")
        assert TopicPattern("a.b").exact


_SEG = st.sampled_from(["alpha", "beta", "gm", "d7"])
_PATSEG = st.sampled_from(["alpha", "beta", "gm", "d7", "*", "**"])


class TestStaticMatchesRuntimeProperty:
    """Satellite: static matcher ≡ the runtime compiled bus matcher."""

    @settings(max_examples=300, deadline=None)
    @given(pattern=st.lists(_PATSEG, min_size=1, max_size=5),
           topic=st.lists(_SEG, min_size=1, max_size=5))
    def test_intersection_equals_compiled_match(self, pattern, topic):
        pattern_text = ".".join(pattern)
        topic_text = ".".join(topic)
        runtime = topic_matches(pattern_text, topic_text)
        # A wildcard-free topic intersects a pattern iff it matches it.
        assert patterns_intersect(pattern_text, topic_text) is runtime
        assert TopicPattern(pattern_text).matches_topic(topic_text) \
            is runtime

    @settings(max_examples=100, deadline=None)
    @given(pattern=st.lists(_PATSEG, min_size=1, max_size=4),
           topic=st.lists(_SEG, min_size=1, max_size=4))
    def test_matches_actual_bus_delivery(self, pattern, topic):
        bus = EventBus()
        bus.subscribe(".".join(pattern), lambda t, p: None)
        delivered = bus.publish(".".join(topic)) > 0
        assert patterns_intersect(".".join(pattern),
                                  ".".join(topic)) is delivered


class TestPatternFromAst:
    def _first_arg(self, source):
        import ast
        call = parse_source(source).tree.body[0].value
        return call.args[0]

    def test_literal(self):
        p = pattern_from_ast(self._first_arg('f("a.b.c")'))
        assert p == TopicPattern("a.b.c", dynamic=False)

    def test_fstring_placeholder_is_one_star(self):
        p = pattern_from_ast(self._first_arg('f(f"a.{x}.c")'))
        assert p.text == "a.*.c"
        assert p.dynamic

    def test_embedded_placeholder_widens_whole_segment(self):
        p = pattern_from_ast(self._first_arg('f(f"a.t{i}.c")'))
        assert p.text == "a.*.c"

    def test_dynamic_expression_unresolvable(self):
        assert pattern_from_ast(self._first_arg("f(topic)")) is None

    def test_segment_violations(self):
        assert segment_violations(TopicPattern("a.B.c"),
                                  allow_wildcards=True)
        assert segment_violations(TopicPattern("a..c"),
                                  allow_wildcards=True)
        assert segment_violations(TopicPattern("a.*.c"),
                                  allow_wildcards=False)
        assert not segment_violations(TopicPattern("a.*.c", dynamic=True),
                                      allow_wildcards=False)
        assert not segment_violations(TopicPattern("a.b-2.c_x"),
                                      allow_wildcards=False)


# ---------------------------------------------------------------------------
# topic-flow rules on synthetic projects
# ---------------------------------------------------------------------------


class TestTopicFlowRules:
    def test_undeclared_topic(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx):\n"
            "    ctx.bus.publish('no.such.namespace', {'a': 1})\n")})
        findings = analyze_topic_flow(project)
        assert "flow-undeclared-topic" in rules_of(findings)

    def test_topic_name_violation(self):
        project = make_project({"src/repro/x.py": (
            "def f(bus):\n"
            "    bus.publish('Continuum.Fault.FAIL', {})\n")})
        findings = analyze_topic_flow(project)
        assert "flow-topic-name" in rules_of(findings)

    def test_wildcard_in_published_topic(self):
        project = make_project({"src/repro/x.py": (
            "def f(bus):\n"
            "    bus.publish('continuum.fault.*', {})\n")})
        [finding] = [f for f in analyze_topic_flow(project)
                     if f.rule == "flow-topic-name"]
        assert "wildcard" in finding.message

    def test_forwarding_wrapper_is_not_a_site(self):
        project = make_project({"src/repro/x.py": (
            "class Ctx:\n"
            "    def publish(self, topic, payload=None):\n"
            "        return self.bus.publish(topic, payload)\n")})
        assert analyze_topic_flow(project) == []

    def test_payload_missing_required_key(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx):\n"
            "    ctx.bus.publish('continuum.fault.fail',\n"
            "                    {'device': d, 'time_s': 0.0})\n"
            "    ctx.bus.subscribe('continuum.fault.**', h)\n")})
        [finding] = [f for f in analyze_topic_flow(project)
                     if f.rule == "flow-payload-schema"]
        assert "interrupted" in finding.message

    def test_payload_unknown_key(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx):\n"
            "    ctx.bus.publish('continuum.fault.repair',\n"
            "                    {'device': d, 'time_s': 0.0,\n"
            "                     'oops': 1})\n"
            "    ctx.bus.subscribe('continuum.fault.**', h)\n")})
        [finding] = [f for f in analyze_topic_flow(project)
                     if f.rule == "flow-payload-schema"]
        assert "'oops'" in finding.message

    def test_spread_payload_is_not_checked(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx, extra):\n"
            "    ctx.bus.publish('chaos.action.begin',\n"
            "                    {'campaign': 'c', **extra})\n")})
        assert not [f for f in analyze_topic_flow(project)
                    if f.rule == "flow-payload-schema"]

    def test_handler_reads_unknown_key(self):
        project = make_project({"src/repro/x.py": (
            "def handler(topic, payload):\n"
            "    return payload.get('nonexistent_key')\n"
            "def wire(ctx):\n"
            "    ctx.bus.subscribe('continuum.fault.fail', handler)\n"
            "    ctx.bus.publish('continuum.fault.fail',\n"
            "                    {'device': d, 'time_s': 0.0,\n"
            "                     'interrupted': []})\n")})
        [finding] = [f for f in analyze_topic_flow(project)
                     if f.rule == "flow-payload-schema"]
        assert "nonexistent_key" in finding.message

    def test_handler_reading_contract_keys_is_clean(self):
        project = make_project({"src/repro/x.py": (
            "def handler(topic, payload):\n"
            "    data = payload or {}\n"
            "    return data.get('device'), payload['time_s']\n"
            "def wire(ctx):\n"
            "    ctx.bus.subscribe('continuum.fault.fail', handler)\n"
            "    ctx.bus.publish('continuum.fault.fail',\n"
            "                    {'device': d, 'time_s': 0.0,\n"
            "                     'interrupted': []})\n")})
        assert not [f for f in analyze_topic_flow(project)
                    if f.rule == "flow-payload-schema"]

    def test_orphan_subscriber(self):
        project = make_project({"src/repro/x.py": (
            "def wire(ctx):\n"
            "    ctx.bus.subscribe('mirto.mape.sense', h)\n")})
        assert "flow-orphan-subscriber" in \
            rules_of(analyze_topic_flow(project))

    def test_dead_bus_topic_without_subscriber(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx):\n"
            "    ctx.bus.publish('continuum.fault.fail',\n"
            "                    {'device': d, 'time_s': 0.0,\n"
            "                     'interrupted': []})\n")})
        dead = [f for f in analyze_topic_flow(project)
                if f.rule == "flow-dead-topic"
                and f.path == "src/repro/x.py"]
        assert dead and "no in-process subscriber" in dead[0].message

    def test_trace_topic_needs_no_subscriber(self):
        project = make_project({"src/repro/x.py": (
            "def f(ctx):\n"
            "    ctx.bus.publish('mirto.mape.sense',\n"
            "                    {'iteration': 1, 'components': []})\n")})
        assert not [f for f in analyze_topic_flow(project)
                    if f.rule == "flow-dead-topic"
                    and f.path == "src/repro/x.py"]

    def test_pragma_suppresses_flow_finding(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "x.py").write_text(
            "def f(bus):\n"
            "    bus.publish('no.such.ns', {})"
            "  # continuum-lint: disable=flow-undeclared-topic\n")
        config = AnalysisConfig(root=tmp_path, flow_paths=["src"])
        findings = run_flow(config)
        assert "flow-undeclared-topic" not in rules_of(findings)


class TestDesRules:
    def test_generator_called_and_discarded(self):
        project = make_project({"src/repro/x.py": (
            "def work(sim):\n"
            "    yield sim.timeout(1.0)\n"
            "def broken(sim):\n"
            "    work(sim)\n")})
        [finding] = analyze_des_contracts(project)
        assert finding.rule == "des-generator-not-driven"
        assert "discards" in finding.message

    def test_yield_generator_instead_of_yield_from(self):
        project = make_project({"src/repro/x.py": (
            "def inner(sim):\n"
            "    yield sim.timeout(1.0)\n"
            "def outer(sim):\n"
            "    yield inner(sim)\n")})
        [finding] = analyze_des_contracts(project)
        assert finding.rule == "des-generator-not-driven"
        assert "yield from" in finding.message

    def test_yield_from_is_clean(self):
        project = make_project({"src/repro/x.py": (
            "def inner(sim):\n"
            "    yield sim.timeout(1.0)\n"
            "def outer(sim):\n"
            "    yield from inner(sim)\n"
            "def spawn(sim):\n"
            "    return sim.process(outer(sim))\n")})
        assert analyze_des_contracts(project) == []

    def test_cross_module_policy_call_misuse(self):
        # `policy.call(...)` resolved across a module boundary via the
        # project symbol table (the interprocedural case).
        project = make_project({
            "src/repro/pol.py": (
                "class RetryPolicy:\n"
                "    def call(self, factory):\n"
                "        yield from factory()\n"),
            "src/repro/use.py": (
                "from repro.pol import RetryPolicy\n"
                "def run(sim, factory):\n"
                "    policy = RetryPolicy()\n"
                "    def proc():\n"
                "        yield policy.call(factory)\n"
                "    return sim.process(proc())\n")})
        [finding] = analyze_des_contracts(project)
        assert finding.rule == "des-generator-not-driven"
        assert "RetryPolicy.call" in finding.message

    def test_sim_process_with_non_generator(self):
        project = make_project({"src/repro/x.py": (
            "def action(n):\n"
            "    return n + 1\n"
            "def spawn(sim):\n"
            "    return sim.process(action(3))\n")})
        [finding] = analyze_des_contracts(project)
        assert finding.rule == "des-process-not-generator"

    def test_sim_process_with_generator_returning_wrapper(self):
        # A plain function that *returns* a generator is a legal
        # process argument (the repo's policy-wrapping idiom).
        project = make_project({"src/repro/x.py": (
            "def inner(sim):\n"
            "    yield sim.timeout(1.0)\n"
            "def wrap(sim):\n"
            "    return inner(sim)\n"
            "def unknown(factory):\n"
            "    return factory()\n"
            "def spawn(sim, factory):\n"
            "    sim.process(wrap(sim))\n"
            "    sim.process(unknown(factory))\n")})
        assert analyze_des_contracts(project) == []

    def test_generator_bus_handler(self):
        project = make_project({"src/repro/x.py": (
            "def handler(topic, payload):\n"
            "    yield payload\n"
            "def wire(ctx):\n"
            "    ctx.bus.subscribe('continuum.fault.fail', handler)\n"
            "    ctx.bus.publish('continuum.fault.fail',\n"
            "                    {'device': d, 'time_s': 0.0,\n"
            "                     'interrupted': []})\n")})
        assert "des-handler-yields" in \
            rules_of(analyze_topic_flow(project))


# ---------------------------------------------------------------------------
# parse cache
# ---------------------------------------------------------------------------


class TestParseCache:
    def test_hit_on_unchanged_file(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        cache = ParseCache()
        first = cache.parse(target)
        second = cache.parse(target)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_miss_after_modification(self, tmp_path):
        import os
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        cache = ParseCache()
        cache.parse(target)
        target.write_text("x = 2\n")
        os.utime(target, ns=(1, 1))  # force a distinct mtime
        parsed = cache.parse(target)
        assert parsed.source == "x = 2\n"
        assert cache.misses == 2

    def test_syntax_error_is_carried(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        parsed = ParseCache().parse(target)
        assert parsed.tree is None
        assert parsed.error is not None


# ---------------------------------------------------------------------------
# whole-repo acceptance + graph snapshot
# ---------------------------------------------------------------------------


class TestWholeRepo:
    def test_repo_flow_analyzes_clean(self):
        findings = run_flow(load_config(REPO_ROOT))
        assert findings == [], [f.as_dict() for f in findings]

    def test_findings_byte_reproducible(self):
        config = load_config(REPO_ROOT)
        first = [f.as_dict() for f in run_flow(config)]
        second = [f.as_dict() for f in run_flow(config)]
        assert first == second

    def test_fault_flow_graph_snapshot(self):
        # Pins the fault→evict→MAPE→bind chain: device failure fans
        # out to the kube eviction watcher, the MAPE loop and the
        # infrastructure monitor; the reactions surface as kube events,
        # MAPE phase topics and the deploy/bind record.
        graph = build_topic_graph(load_project(load_config(REPO_ROOT)))
        by_pattern = {t["pattern"]: t for t in graph["topics"]}
        assert by_pattern["continuum.fault.fail"] == {
            "pattern": "continuum.fault.fail",
            "contracts": ["continuum.fault.fail"],
            "publishers": ["repro.continuum.faults:FaultInjector._fail"],
            "subscribers": [
                {"pattern": "continuum.fault.*",
                 "handler": "repro.kube.cluster:KubeCluster"
                            ".watch_device_faults._on_fault"},
                {"pattern": "continuum.fault.*",
                 "handler": "repro.mirto.mape:MapeLoop._on_fault"},
                {"pattern": "continuum.fault.*",
                 "handler": "repro.monitoring.monitors:"
                            "InfrastructureMonitor"
                            ".watch_device_faults._on_fault"},
            ],
        }
        assert by_pattern["kube.*.*"]["publishers"] == \
            ["repro.kube.cluster:KubeCluster._emit"]
        assert by_pattern["mirto.mape.plan"]["publishers"] == \
            ["repro.mirto.mape:MapeLoop.iterate"]
        assert by_pattern["mirto.deploy.placed"]["publishers"] == \
            ["repro.mirto.manager:WorkloadManager._deploy"]
        assert "chaos.campaign.begin" in by_pattern

    def test_graph_json_deterministic(self):
        config = load_config(REPO_ROOT)
        first = json.dumps(build_topic_graph(load_project(config)))
        second = json.dumps(build_topic_graph(load_project(config)))
        assert first == second

    def test_every_contract_namespace_is_known(self):
        from repro.analysis.flow import NAMESPACES
        assert NAMESPACES == {"continuum", "kube", "mirto", "chaos",
                              "monitor", "net", "obs", "shard"}

    def test_contracts_for_monitor_topics(self):
        [contract] = contracts_for("monitor.metrics.application.app.x")
        assert contract.required == {"time_s", "value"}


class TestFlowCli:
    def test_graph_json_smoke(self):
        result = run_cli("graph")
        assert result.returncode == 0, result.stderr
        graph = json.loads(result.stdout)
        assert graph["topics"]
        assert graph["publisher_count"] > 10

    def test_graph_dot_smoke(self):
        result = run_cli("graph", "--format", "dot")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("digraph topic_flow {")
        assert '"continuum.fault.fail"' in result.stdout

    def test_graph_rejects_extra_paths(self):
        result = run_cli("graph", "src")
        assert result.returncode == 2

    def test_flow_rules_known_to_rules_flag(self):
        result = run_cli("--rules", "flow-undeclared-topic,"
                         "des-generator-not-driven", "--check")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_flow_rule_ids_are_registered(self):
        assert "flow-undeclared-topic" in FLOW_RULES
        assert "des-process-not-generator" in FLOW_RULES
