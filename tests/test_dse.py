"""Tests for the design-space exploration engine (mocasin analogue)."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, ValidationError
from repro.continuum.workload import Application, KernelClass, Task
from repro.dpe.dse import (
    AnnealingExplorer,
    EvaluationResult,
    ExhaustiveExplorer,
    GeneticExplorer,
    Mapping,
    MappingEvaluator,
    PlatformModel,
    ProcessorModel,
    export_operating_points,
    pareto_front,
)


def small_platform():
    return PlatformModel(
        name="p",
        processors=(
            ProcessorModel("big", "cpu", gops=100.0, busy_power_w=50.0,
                           idle_power_w=10.0),
            ProcessorModel("little", "cpu", gops=10.0, busy_power_w=5.0,
                           idle_power_w=1.0),
            ProcessorModel("fpga", "fpga", gops=5.0, busy_power_w=8.0,
                           idle_power_w=2.0,
                           accel_kernels={KernelClass.DSP: 10.0}),
        ),
        interconnect_latency_s=1e-4,
        interconnect_bw_bps=1e9,
    )


def chain_app(n=3, megaops=1000):
    app = Application("chain")
    prev = None
    for i in range(n):
        app.add_task(Task(f"t{i}", megaops=megaops,
                          kernel=KernelClass.DSP if i == 1
                          else KernelClass.GENERAL))
        if prev is not None:
            app.connect(prev, f"t{i}", bytes_transferred=10_000)
        prev = f"t{i}"
    return app


def reference_evaluate(application, platform, mapping):
    """Reference list schedule that reads the models on every call.

    :class:`MappingEvaluator`'s per-task tables must reproduce its floats
    bit for bit. Returns ``(latency_s, energy_j)``.
    """
    assignment = mapping.as_dict()
    proc_free = {p.name: 0.0 for p in platform.processors}
    finish = {}
    busy_energy = 0.0
    graph = nx.DiGraph()
    for task in application.tasks:
        graph.add_node(task.name)
        graph.add_edges_from((pred, task.name)
                             for pred in application.predecessors(task.name))
    for task_name in nx.topological_sort(graph):
        task = application.task(task_name)
        proc = platform.processor(assignment[task_name])
        ready = 0.0
        for pred in application.predecessors(task_name):
            arrival = finish[pred]
            if assignment[pred] != assignment[task_name]:
                arrival += platform.comm_time(
                    application.edge_bytes(pred, task_name))
            ready = max(ready, arrival)
        start = max(ready, proc_free[proc.name])
        duration = proc.time_for(task.megaops, task.kernel)
        finish[task_name] = start + duration
        proc_free[proc.name] = finish[task_name]
        busy_energy += duration * proc.busy_power_w
    return max(finish.values(), default=0.0), busy_energy


def reference_pareto_front(results):
    """Reference front: the quadratic dominance filter, then one point
    per identical KPI pair (the first in *results*), sorted by latency."""
    front = [candidate for candidate in results
             if not any(other.dominates(candidate) for other in results
                        if other is not candidate)]
    unique = {}
    for result in front:
        unique.setdefault((result.latency_s, result.energy_j), result)
    return sorted(unique.values(), key=lambda r: r.latency_s)


@st.composite
def dse_problems(draw):
    """A random platform, a random task DAG on it and a few mappings."""
    kernels = st.sampled_from(list(KernelClass))
    processors = tuple(
        ProcessorModel(
            f"p{i}", "cpu", gops=draw(st.floats(0.5, 500)),
            busy_power_w=draw(st.floats(0, 100)), idle_power_w=0.0,
            accel_kernels=draw(st.dictionaries(kernels, st.floats(1, 20),
                                               max_size=2)))
        for i in range(draw(st.integers(1, 4))))
    platform = PlatformModel(
        "random", processors,
        interconnect_latency_s=draw(st.floats(0, 1e-3)),
        interconnect_bw_bps=draw(st.floats(1e6, 1e10)))
    n_tasks = draw(st.integers(1, 7))
    app = Application("random")
    for i in range(n_tasks):
        app.add_task(Task(f"t{i}", megaops=draw(st.floats(0, 5000)),
                          kernel=draw(kernels)))
    for dst in range(n_tasks):
        for src in range(dst):
            if draw(st.booleans()):
                app.connect(f"t{src}", f"t{dst}",
                            bytes_transferred=draw(st.integers(0, 10**7)))
    names = st.sampled_from([p.name for p in processors])
    mappings = draw(st.lists(
        st.fixed_dictionaries({f"t{i}": names for i in range(n_tasks)}),
        min_size=1, max_size=4))
    return app, platform, [Mapping.of(m) for m in mappings]


# Latencies/energies with ties, duplicates, signed zeros and infinities.
_KPIS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, math.inf, -math.inf]),
    st.floats(allow_nan=False))


class TestPlatformModel:
    def test_duplicate_processor_names_rejected(self):
        with pytest.raises(ConfigurationError):
            PlatformModel("p", (
                ProcessorModel("a", "cpu", 1, 2, 1),
                ProcessorModel("a", "cpu", 1, 2, 1)))

    def test_empty_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            PlatformModel("p", ())

    def test_accelerated_kernel_faster(self):
        fpga = small_platform().processor("fpga")
        assert fpga.time_for(1000, KernelClass.DSP) \
            < fpga.time_for(1000, KernelClass.GENERAL)

    def test_comm_time_model(self):
        platform = small_platform()
        assert platform.comm_time(0) == pytest.approx(1e-4)
        assert platform.comm_time(1_000_000) \
            == pytest.approx(1e-4 + 8e6 / 1e9)


class TestEvaluator:
    def test_all_on_big_is_fast(self):
        app = chain_app()
        evaluator = MappingEvaluator(app, small_platform())
        all_big = Mapping.of({t.name: "big" for t in app.tasks})
        all_little = Mapping.of({t.name: "little" for t in app.tasks})
        assert evaluator.evaluate(all_big).latency_s \
            < evaluator.evaluate(all_little).latency_s

    def test_cross_processor_edges_pay_comm(self):
        app = chain_app(2)
        evaluator = MappingEvaluator(app, small_platform())
        same = evaluator.evaluate(Mapping.of({"t0": "big", "t1": "big"}))
        split = evaluator.evaluate(Mapping.of({"t0": "big",
                                               "t1": "little"}))
        # t1 is slower on little AND pays communication.
        assert split.latency_s > same.latency_s

    def test_dsp_task_benefits_from_fpga(self):
        app = chain_app()
        evaluator = MappingEvaluator(app, small_platform())
        on_little = evaluator.evaluate(Mapping.of(
            {"t0": "little", "t1": "little", "t2": "little"}))
        dsp_on_fpga = evaluator.evaluate(Mapping.of(
            {"t0": "little", "t1": "fpga", "t2": "little"}))
        assert dsp_on_fpga.latency_s < on_little.latency_s

    def test_incomplete_mapping_rejected(self):
        app = chain_app()
        evaluator = MappingEvaluator(app, small_platform())
        with pytest.raises(ValidationError):
            evaluator.evaluate(Mapping.of({"t0": "big"}))

    def test_parallel_tasks_overlap(self):
        app = Application("fork")
        app.add_task(Task("src", megaops=10))
        app.add_task(Task("a", megaops=1000))
        app.add_task(Task("b", megaops=1000))
        app.connect("src", "a")
        app.connect("src", "b")
        evaluator = MappingEvaluator(app, small_platform())
        parallel = evaluator.evaluate(Mapping.of(
            {"src": "big", "a": "big", "b": "little"}))
        serial = evaluator.evaluate(Mapping.of(
            {"src": "big", "a": "little", "b": "little"}))
        assert parallel.latency_s < serial.latency_s

    def test_unknown_processor_rejected(self):
        app = chain_app(2)
        evaluator = MappingEvaluator(app, small_platform())
        with pytest.raises(ConfigurationError, match="'gpu'"):
            evaluator.evaluate(Mapping.of({"t0": "big", "t1": "gpu"}))

    @settings(max_examples=200, deadline=None)
    @given(dse_problems())
    def test_tables_match_reference_bit_for_bit(self, problem):
        app, platform, mappings = problem
        evaluator = MappingEvaluator(app, platform)
        for mapping in mappings:
            result = evaluator.evaluate(mapping)
            latency, energy = reference_evaluate(app, platform, mapping)
            assert result.mapping is mapping
            assert result.latency_s.hex() == latency.hex()
            assert result.energy_j.hex() == energy.hex()

    def test_evaluation_counter(self):
        app = chain_app()
        evaluator = MappingEvaluator(app, small_platform())
        evaluator.evaluate(Mapping.of({t.name: "big" for t in app.tasks}))
        assert evaluator.evaluations == 1


class TestExplorers:
    def test_exhaustive_finds_optimum(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        results = ExhaustiveExplorer(evaluator).explore()
        assert len(results) == 27
        best = min(results, key=lambda r: r.latency_s)
        # GA should find something at least as good as random; the
        # exhaustive optimum is the reference for the next tests.
        assert best.latency_s > 0

    def test_exhaustive_space_limit(self):
        app = chain_app(12)
        evaluator = MappingEvaluator(app, small_platform())
        with pytest.raises(ConfigurationError):
            ExhaustiveExplorer(evaluator, limit=100).explore()

    def test_ga_reaches_near_optimum(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        optimum = min(ExhaustiveExplorer(evaluator).explore(),
                      key=lambda r: r.latency_s).latency_s
        ga_results = GeneticExplorer(
            evaluator, random.Random(0), population=20,
            generations=20).explore()
        ga_best = min(r.latency_s for r in ga_results)
        assert ga_best <= optimum * 1.05

    def test_annealing_improves_over_start(self):
        app = chain_app(4)
        evaluator = MappingEvaluator(app, small_platform())
        explorer = AnnealingExplorer(evaluator, random.Random(1),
                                     iterations=300)
        results = explorer.explore()
        assert min(r.latency_s for r in results) \
            <= results[0].latency_s

    def test_objective_selection(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        energy_ga = GeneticExplorer(evaluator, random.Random(2),
                                    population=16, generations=15,
                                    objective="energy").explore()
        latency_ga = GeneticExplorer(evaluator, random.Random(2),
                                     population=16, generations=15,
                                     objective="latency").explore()
        assert min(r.energy_j for r in energy_ga) \
            <= min(r.energy_j for r in latency_ga) * 1.2

    def test_unknown_objective_rejected(self):
        app = chain_app(2)
        evaluator = MappingEvaluator(app, small_platform())
        with pytest.raises(ConfigurationError):
            GeneticExplorer(evaluator, random.Random(0),
                            objective="vibes")


class TestPareto:
    def test_front_is_non_dominated(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        results = ExhaustiveExplorer(evaluator).explore()
        front = pareto_front(results)
        assert front
        for a in front:
            assert not any(b.dominates(a) for b in results)

    def test_front_sorted_by_latency(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        front = pareto_front(ExhaustiveExplorer(evaluator).explore())
        latencies = [r.latency_s for r in front]
        assert latencies == sorted(latencies)
        # Along the front, lower latency costs more energy.
        energies = [r.energy_j for r in front]
        assert energies == sorted(energies, reverse=True)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(_KPIS, _KPIS), max_size=40))
    def test_sweep_matches_quadratic_reference(self, kpis):
        mapping = Mapping.of({"t": "p"})
        results = [EvaluationResult(mapping, latency, energy)
                   for latency, energy in kpis]
        got = pareto_front(results)
        want = reference_pareto_front(results)
        assert [id(r) for r in got] == [id(r) for r in want]

    @settings(max_examples=100, deadline=None)
    @given(dse_problems())
    def test_front_of_evaluated_mappings_matches_reference(self, problem):
        app, platform, mappings = problem
        evaluator = MappingEvaluator(app, platform)
        results = [evaluator.evaluate(m) for m in mappings * 2]
        assert [id(r) for r in pareto_front(results)] \
            == [id(r) for r in reference_pareto_front(results)]

    def test_dominates_semantics(self):
        m = Mapping.of({"t": "p"})
        a = EvaluationResult(m, 1.0, 1.0)
        b = EvaluationResult(m, 2.0, 2.0)
        c = EvaluationResult(m, 0.5, 3.0)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c) and not c.dominates(a)


class TestOperatingPointExport:
    def test_export_shape(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        points = export_operating_points(
            ExhaustiveExplorer(evaluator).explore(), max_points=3)
        assert 1 <= len(points) <= 3
        for point in points:
            assert set(point) == {"name", "latency_s", "energy_j",
                                  "mapping"}
            assert set(point["mapping"]) == {"t0", "t1", "t2"}

    def test_points_span_tradeoff(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        points = export_operating_points(
            ExhaustiveExplorer(evaluator).explore(), max_points=5)
        if len(points) >= 2:
            assert points[0]["latency_s"] < points[-1]["latency_s"]
            assert points[0]["energy_j"] > points[-1]["energy_j"]

    def test_single_point_is_the_fastest(self):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        results = ExhaustiveExplorer(evaluator).explore()
        front = pareto_front(results)
        assert len(front) >= 2
        points = export_operating_points(results, max_points=1)
        assert [p["name"] for p in points] == ["op-0"]
        assert points[0]["latency_s"] == front[0].latency_s
        assert points[0]["mapping"] == front[0].mapping.as_dict()

    @pytest.mark.parametrize("max_points", [0, -1])
    def test_fewer_than_one_point_rejected(self, max_points):
        app = chain_app(3)
        evaluator = MappingEvaluator(app, small_platform())
        results = ExhaustiveExplorer(evaluator).explore()
        with pytest.raises(ConfigurationError, match="max_points"):
            export_operating_points(results, max_points=max_points)
