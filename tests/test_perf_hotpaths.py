"""Tests pinning the hot-path optimizations' semantics.

The perf pass (benchmarks/perf) rewired event-bus dispatch, the DES
kernel, trace serialization and placement-KPI estimation for speed.
These tests pin the contract that made those rewrites safe: compiled
topic matching is extensionally equal to the reference segment matcher,
dispatch caches invalidate on every (un)subscribe, the network's
route cache invalidates on every topology change, and the memoized
objective scores exactly like the direct one (:func:`_objective`, the
reference scoring kept here).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import Simulator, Task, TaskRequirements, \
    build_reference_infrastructure
from repro.continuum.workload import Application, KernelClass
from repro.core.events import EventBus, topic_matches
from repro.mirto.placement import (
    ENERGY_WEIGHT,
    Placement,
    PlacementConstraints,
    PlacementRequest,
    PsoPlacement,
    estimate_placement_kpis,
)
from repro.runtime.trace import TraceRecorder

# -- compiled topic matching == reference matcher ---------------------------


def _segments_match(pats: list[str], tops: list[str]) -> bool:
    """Reference matcher (recursive). The compiled matchers must agree
    with this definition exactly; the property tests check they do."""
    if not pats:
        return not tops
    if pats[0] == "**":
        return any(_segments_match(pats[1:], tops[i:])
                   for i in range(len(tops) + 1))
    if not tops:
        return False
    if pats[0] != "*" and pats[0] != tops[0]:
        return False
    return _segments_match(pats[1:], tops[1:])


_PATTERN_SEGMENTS = st.sampled_from(["a", "b", "c", "ab", "*", "**"])
_TOPIC_SEGMENTS = st.sampled_from(["a", "b", "c", "ab", "d"])
_patterns = st.lists(_PATTERN_SEGMENTS, min_size=1, max_size=6) \
    .map(".".join)
_topics = st.lists(_TOPIC_SEGMENTS, min_size=1, max_size=6).map(".".join)


class TestCompiledMatching:
    @settings(max_examples=500, deadline=None)
    @given(pattern=_patterns, topic=_topics)
    def test_compiled_equals_reference(self, pattern, topic):
        """topic_matches (compiled) ≡ _segments_match (reference)."""
        expected = _segments_match(pattern.split("."), topic.split("."))
        assert topic_matches(pattern, topic) == expected

    def test_mid_doublestar_specializations(self):
        # One case per compiled tier: exact, trailing **, *-only, NFA.
        assert topic_matches("a.b.c", "a.b.c")
        assert not topic_matches("a.b.c", "a.b")
        assert topic_matches("a.**", "a.x.y.z")
        assert topic_matches("a.**", "a")
        assert not topic_matches("a.**", "b.x")
        assert topic_matches("a.*.c", "a.b.c")
        assert not topic_matches("a.*.c", "a.b.x.c")
        assert topic_matches("a.**.c", "a.c")
        assert topic_matches("a.**.c", "a.x.y.c")
        assert not topic_matches("a.**.c", "a.x.y")
        assert topic_matches("**.b.**", "a.b.c")

    @settings(max_examples=200, deadline=None)
    @given(pattern=_patterns, topic=_topics)
    def test_bus_delivery_equals_reference(self, pattern, topic):
        """End-to-end: a subscription delivers iff the reference matches."""
        bus = EventBus()
        hits = []
        bus.subscribe(pattern, lambda t, p: hits.append(t))
        bus.publish(topic)
        expected = _segments_match(pattern.split("."), topic.split("."))
        assert bool(hits) == expected


class TestDispatchCacheInvalidation:
    def test_unsubscribe_invalidates_cached_dispatch(self):
        """Regression: a cached dispatch list must drop unsubscribed subs."""
        bus = EventBus()
        calls = []
        bus.subscribe("a.b", lambda t, p: calls.append("exact"))
        wild = bus.subscribe("a.*", lambda t, p: calls.append("wild"))
        bus.publish("a.b")  # populates the topic's dispatch cache
        assert sorted(calls) == ["exact", "wild"]
        bus.unsubscribe(wild)
        calls.clear()
        bus.publish("a.b")
        assert calls == ["exact"]

    def test_subscribe_invalidates_cached_dispatch(self):
        bus = EventBus()
        calls = []
        bus.subscribe("a.b", lambda t, p: calls.append("first"))
        bus.publish("a.b")
        bus.subscribe("a.**", lambda t, p: calls.append("late"))
        calls.clear()
        bus.publish("a.b")
        assert calls == ["first", "late"]

    def test_compaction_preserves_delivery_order(self):
        bus = EventBus()
        calls = []
        subs = [bus.subscribe("t", lambda t, p, i=i: calls.append(i))
                for i in range(8)]
        for sub in subs[:5]:  # force tombstone compaction
            bus.unsubscribe(sub)
        bus.publish("t")
        assert calls == [5, 6, 7]


# -- placement cost memos ---------------------------------------------------


def _objective(strategy, application, infrastructure, tasks, options,
               choices: list[int], source_device: str | None = None
               ) -> float:
    """Reference scoring of one discrete choice vector: direct KPIs,
    blended with the objective's energy weight. The compiled, memoized
    objective the swarms search must return exactly this."""
    assignment = {
        task.name: options[i][choice].name
        for i, (task, choice) in enumerate(zip(tasks, choices))
    }
    latency, energy = estimate_placement_kpis(
        application, Placement(assignment, strategy.name), infrastructure,
        source_device)
    return latency * (1 - ENERGY_WEIGHT) + ENERGY_WEIGHT * energy / 100.0

def _app():
    app = Application("hot")
    reqs = TaskRequirements(latency_budget_s=10.0)
    app.add_task(Task("ingest", 200, input_bytes=100_000,
                      requirements=reqs))
    app.add_task(Task("process", 5000, kernel=KernelClass.DSP,
                      requirements=reqs))
    app.add_task(Task("report", 100, requirements=reqs))
    app.connect("ingest", "process", 100_000)
    app.connect("process", "report", 5_000)
    return app


class TestPlacementCostCache:
    """The memos placement costing still has: the network's route
    cache (the only transfer memo) and the compiled objective's
    per-solve memo on the choice tuple."""

    def test_cache_refreshes_after_topology_change(self):
        network = build_reference_infrastructure(Simulator()).network
        stale = network.estimate_transfer_time("mc-00-0", "cloud-01",
                                               10_000)
        # A direct fat link changes the best route; the route cache
        # must see it.
        network.add_link("mc-00-0", "cloud-01",
                         latency_s=1e-6, bandwidth_bps=1e12)
        fresh = network.estimate_transfer_time("mc-00-0", "cloud-01",
                                               10_000)
        assert fresh == 1e-6 + 10_000 * 8 / 1e12
        assert fresh < stale

    def test_compiled_objective_equals_direct(self):
        infra = build_reference_infrastructure(Simulator())
        app = _app()
        constraints = PlacementConstraints(source_device="mc-00-0")
        strategy = PsoPlacement(random.Random(5))
        tasks = app.tasks
        options = [strategy._eligible_or_raise(t, infra, constraints)
                   for t in tasks]
        compiled = strategy._compiled_objective(
            app, infra, tasks, options, constraints.source_device)
        rng = random.Random(11)
        for _ in range(25):
            choices = [rng.randrange(len(opts)) for opts in options]
            direct = _objective(strategy, app, infra, tasks, options,
                                choices, constraints.source_device)
            assert compiled(choices) == direct
            assert compiled(choices) == direct  # memo hit, same value

    def test_same_seed_same_placement(self):
        results = []
        for _ in range(2):
            infra = build_reference_infrastructure(Simulator())
            placement = PsoPlacement(random.Random(7), iterations=5).solve(
                PlacementRequest(_app(), infra, PlacementConstraints(
                    source_device="mc-00-0"))).placement
            results.append(placement.assignment)
        assert results[0] == results[1]


class TestTraceRecorderDropCount:
    def test_dropped_count_tracks_evictions(self):
        recorder = TraceRecorder(capacity=4)
        for i in range(10):
            recorder.record(float(i), "t", {"i": i})
        assert len(recorder) == 4
        assert recorder.total_recorded == 10
        assert recorder.dropped == 6
        assert recorder.dropped == recorder.total_recorded - len(recorder)
        # seq keeps climbing monotonically across evictions
        assert [r.seq for r in recorder] == [6, 7, 8, 9]


class TestMidGlobGuards:
    """The mid-``**`` NFA matcher gained literal prefix/suffix guards
    (the midglob.1000 optimization). These pin the guards' semantics
    and the speedup they exist for."""

    def test_suffix_guard_edge_cases(self):
        # topic == suffix (the ** matches zero segments)
        assert topic_matches("**.g7", "g7")
        assert topic_matches("**.g7", "x.g7")
        # a longer final segment must not satisfy the suffix via endswith
        assert not topic_matches("**.g7", "x.g77")
        assert not topic_matches("**.g7", "xg7")
        # multi-segment suffix
        assert topic_matches("a.**.metric.g1", "a.metric.g1")
        assert topic_matches("a.**.metric.g1", "a.b.c.metric.g1")
        assert not topic_matches("a.**.metric.g1", "a.b.metric.g2")

    def test_prefix_guard_edge_cases(self):
        assert topic_matches("a.b.**.c", "a.b.c")
        assert not topic_matches("a.b.**.c", "a.bb.x.c")
        assert not topic_matches("a.b.**.c", "ab.x.c")
        assert topic_matches("a.b.**.c", "a.b.x.y.c")

    def test_guarded_midglob_dispatch_speedup(self):
        """The guards must reject non-matching mid-glob patterns at
        least 3x faster than the raw NFA walk — the midglob.1000
        improvement asserted relatively, machine-independently, on the
        benchmark's own workload shape."""
        from time import perf_counter

        from repro.core.events import _nfa_match, compile_pattern

        patterns = [f"bench.glob.**.g{i % 16}" for i in range(1000)]
        compiled = [compile_pattern(p) for p in patterns]
        segs = [p.split(".") for p in patterns]
        topics = [f"bench.glob.a.b.g{j % 16}" for j in range(32)]
        parts = [t.split(".") for t in topics]

        def run_guarded():
            for topic in topics:
                for matcher in compiled:
                    matcher(topic)

        def run_reference():
            for tops in parts:
                for pat in segs:
                    _nfa_match(pat, tops)

        def best_of(fn, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                start = perf_counter()
                fn()
                best = min(best, perf_counter() - start)
            return best

        # semantics unchanged: guarded == reference on this workload
        for topic, tops in zip(topics, parts):
            for matcher, pat in zip(compiled, segs):
                assert matcher(topic) == _nfa_match(pat, tops)

        speedup = best_of(run_reference) / best_of(run_guarded)
        assert speedup >= 3.0, f"midglob guard speedup only {speedup:.2f}x"
