"""Unit tests for the task/application workload model."""

import random

import pytest

from repro.core.errors import ValidationError
from repro.continuum.workload import (
    Application,
    KernelClass,
    PoissonArrivals,
    PrivacyClass,
    Task,
    TaskRequirements,
)


def diamond_app() -> Application:
    app = Application("diamond")
    app.add_task(Task("src", megaops=10))
    app.add_task(Task("left", megaops=20))
    app.add_task(Task("right", megaops=30))
    app.add_task(Task("sink", megaops=5))
    app.connect("src", "left", bytes_transferred=1000)
    app.connect("src", "right", bytes_transferred=2000)
    app.connect("left", "sink")
    app.connect("right", "sink")
    return app


class TestTask:
    def test_rejects_negative_megaops(self):
        with pytest.raises(ValidationError):
            Task("t", megaops=-1)

    def test_rejects_negative_data(self):
        with pytest.raises(ValidationError):
            Task("t", megaops=1, input_bytes=-1)

    def test_rejects_nonpositive_latency_budget(self):
        with pytest.raises(ValidationError):
            TaskRequirements(latency_budget_s=0)

    def test_scaled_copy(self):
        t = Task("t", megaops=10, input_bytes=100, output_bytes=50)
        s = t.scaled(2.0)
        assert s.megaops == 20
        assert s.input_bytes == 200
        assert s.output_bytes == 100
        assert t.megaops == 10  # original untouched

    def test_defaults(self):
        t = Task("t", megaops=1)
        assert t.kernel == KernelClass.GENERAL
        assert t.requirements.privacy == PrivacyClass.PUBLIC


class TestApplication:
    def test_duplicate_task_rejected(self):
        app = Application("a")
        app.add_task(Task("t", megaops=1))
        with pytest.raises(ValidationError):
            app.add_task(Task("t", megaops=2))

    def test_connect_unknown_task_rejected(self):
        app = Application("a")
        app.add_task(Task("t", megaops=1))
        with pytest.raises(ValidationError):
            app.connect("t", "ghost")

    def test_cycle_rejected_and_rolled_back(self):
        app = Application("a")
        app.add_task(Task("x", megaops=1))
        app.add_task(Task("y", megaops=1))
        app.connect("x", "y")
        with pytest.raises(ValidationError):
            app.connect("y", "x")
        # The offending edge must not remain.
        assert app.successors("y") == []
        assert app.predecessors("x") == []

    def test_topological_task_order(self):
        app = diamond_app()
        names = [t.name for t in app.tasks]
        assert names.index("src") < names.index("left")
        assert names.index("left") < names.index("sink")
        assert names.index("right") < names.index("sink")

    def test_predecessors_successors(self):
        app = diamond_app()
        assert set(app.predecessors("sink")) == {"left", "right"}
        assert set(app.successors("src")) == {"left", "right"}

    def test_edge_bytes(self):
        app = diamond_app()
        assert app.edge_bytes("src", "right") == 2000

    def test_total_and_critical_path_megaops(self):
        app = diamond_app()
        assert app.total_megaops() == 65
        # Critical path: src -> right -> sink = 10 + 30 + 5.
        assert app.critical_path_megaops() == 45

    def test_len(self):
        assert len(diamond_app()) == 4

    def test_task_lookup_unknown_raises(self):
        with pytest.raises(ValidationError):
            diamond_app().task("nope")


class TestPoissonArrivals:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(diamond_app(), 0, random.Random(1))

    def test_arrivals_before_horizon(self):
        gen = PoissonArrivals(diamond_app(), rate_per_s=10, rng=random.Random(1))
        events = list(gen.until(5.0))
        assert events, "expected at least one arrival in 5s at 10/s"
        assert all(0 < e.time_s < 5.0 for e in events)

    def test_arrival_times_increase(self):
        gen = PoissonArrivals(diamond_app(), rate_per_s=5, rng=random.Random(2))
        times = [e.time_s for e in gen.until(10.0)]
        assert times == sorted(times)

    def test_instances_get_unique_names(self):
        gen = PoissonArrivals(diamond_app(), rate_per_s=10, rng=random.Random(3))
        names = [e.application.name for e in gen.until(2.0)]
        assert len(names) == len(set(names))
        assert all(n.startswith("diamond#") for n in names)

    def test_deterministic_given_seed(self):
        a = [e.time_s for e in PoissonArrivals(
            diamond_app(), 8, random.Random(7)).until(3.0)]
        b = [e.time_s for e in PoissonArrivals(
            diamond_app(), 8, random.Random(7)).until(3.0)]
        assert a == b
