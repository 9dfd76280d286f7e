"""Scorecard harness: deterministic replay, causal recovery tracing,
partition-heal recovery, and the repro-chaos CLI contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos.scorecard import (
    render_report,
    run_scenario,
    score_run,
    scorecard,
)
from repro.kube.cluster import PodPhase


@pytest.fixture(scope="module")
def smoke_run():
    return run_scenario(seed=7, campaign_name="smoke")


@pytest.fixture(scope="module")
def full_run():
    return run_scenario(seed=7, campaign_name="full")


class TestScorecardDeterminism:
    def test_same_seed_replay_byte_identical(self):
        """Trace AND scorecard JSON replay byte-for-byte."""
        def once():
            run = run_scenario(seed=11, campaign_name="smoke",
                               horizon_s=20.0)
            return run["ctx"].trace.to_jsonl(), \
                json.dumps(score_run(run), sort_keys=True)

        first_trace, first_score = once()
        second_trace, second_score = once()
        assert first_trace == second_trace
        assert first_score == second_score

    def test_different_seed_diverges(self):
        def score_of(seed):
            run = run_scenario(seed=seed, campaign_name="smoke",
                               horizon_s=20.0)
            return run["ctx"].trace.to_jsonl()

        assert score_of(11) != score_of(12)

    def test_report_aggregates_over_seeds(self):
        report = scorecard("smoke", seeds=(1, 2), horizon_s=20.0)
        assert report["campaign"]["name"] == "smoke"
        assert report["seeds"] == [1, 2]
        assert sorted(report["per_seed"]) == ["1", "2"]
        agg = report["aggregate"]
        per_seed = [card["availability"]
                    for card in report["per_seed"].values()]
        assert agg["availability"] == \
            pytest.approx(sum(per_seed) / 2, abs=1e-6)
        # render_report is canonical: sorted keys, stable text.
        assert render_report(report) == render_report(report)


class TestPinnedRecovery:
    """The e2e ``recovery`` op, pinned: ``run_scenario(seed, "full",
    horizon_s=40.0)`` for seeds 0-59, hashing each seed's sorted-key
    ``score_run`` JSON and then its trace JSONL."""

    PINNED = ("392af70fb31de927db3416867b796e7e"
              "b2beb5aa98decc47e94b77b6f3a665b5")

    def test_scorecards_and_traces_match_pin(self):
        digest = hashlib.sha256()
        for seed in range(60):
            run = run_scenario(seed, "full", horizon_s=40.0)
            digest.update(json.dumps(score_run(run),
                                     sort_keys=True).encode())
            digest.update(run["ctx"].trace.to_jsonl().encode())
        assert digest.hexdigest() == self.PINNED


class TestScorecardMetrics:
    def test_smoke_scorecard_shape(self, smoke_run):
        score = score_run(smoke_run)
        assert 0.0 < score["availability"] < 1.0
        assert score["mttr_s"] > 0.0
        assert score["mutations_executed"] >= 4
        assert score["fault_events"] >= 2
        assert score["mape_iterations"] >= 5
        assert score["deployments"] >= 1
        json.dumps(score)  # plain JSON types only

    def test_degradation_accrued(self, smoke_run):
        score = score_run(smoke_run)
        assert score["degradation_time_s"] > 0.0
        # Bounded by the horizon.
        assert score["degradation_time_s"] <= smoke_run["horizon_s"]

    def test_full_campaign_losses_and_breakers(self, full_run):
        score = score_run(full_run)
        assert score["tasks_lost"] > 0
        assert score["slo_violations"] >= 0
        states = score["breaker_states"]
        # The zone outage trips mc-00-0's bind breaker through a full
        # open -> half-open -> closed cycle.
        assert states["mc-00-0"][:4] == \
            ["closed", "open", "half-open", "closed"]


class TestCausalRecoveryTrace:
    """Acceptance: a zone outage yields ONE causal span tree
    chaos.action.begin -> continuum.fault.inject -> mirto.mape ->
    kube.bind."""

    @pytest.fixture(scope="class")
    def tree(self, smoke_run):
        ctx = smoke_run["ctx"]
        spans = [r.payload for r in ctx.trace if r.topic == "obs.span"]
        begins = [s for s in spans if s["name"] == "chaos.action.begin"
                  and s["attrs"].get("action") == "zone-outage"]
        assert len(begins) == 1
        root = begins[0]
        return root, [s for s in spans
                      if s["trace_id"] == root["trace_id"]]

    def test_single_root(self, tree):
        root, spans = tree
        assert root["parent_id"] is None
        roots = [s for s in spans if s["parent_id"] is None]
        assert roots == [root]

    def test_recovery_chain_spans_all_layers(self, tree):
        root, spans = tree
        names = {s["name"] for s in spans}
        assert {"chaos.action.begin", "continuum.fault.inject",
                "kube.evict", "mirto.mape.cycle", "kube.schedule",
                "kube.bind"} <= names
        assert {"chaos", "continuum", "kube", "mirto"} <= \
            {s["layer"] for s in spans}

    def test_every_span_descends_from_the_action(self, tree):
        root, spans = tree
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            walk = span
            while walk["parent_id"] is not None:
                walk = by_id[walk["parent_id"]]
            assert walk is root

    def test_fault_inject_nested_under_action(self, tree):
        root, spans = tree
        inject = [s for s in spans
                  if s["name"] == "continuum.fault.inject"][0]
        assert inject["parent_id"] == root["span_id"]


class TestPartitionRecovery:
    """Partition heals -> MAPE replaces the pods evicted meanwhile."""

    def test_deployment_back_to_strength(self, full_run):
        cluster = full_run["cluster"]
        score = score_run(full_run)
        assert score["pods_evicted"] > 0
        running = [p for p in cluster.pods_in_phase(PodPhase.RUNNING)
                   if p.spec.name.startswith("svc")]
        assert len(running) == 2  # replicas restored
        assert score["tasks_recovered"] >= 1

    def test_partition_cut_and_healed_on_bus(self, full_run):
        trace = full_run["ctx"].trace
        cuts = list(trace.records("chaos.net.partition"))
        heals = list(trace.records("chaos.net.heal"))
        assert len(cuts) == 1 and len(heals) == 1
        assert heals[0].time_s > cuts[0].time_s


REPO_ROOT = Path(__file__).resolve().parents[1]


class TestCli:
    def _run(self, *argv):
        """``python -m repro.chaos`` from this checkout's ``src``."""
        src = str(REPO_ROOT / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not pythonpath
               else src + os.pathsep + pythonpath}
        return subprocess.run(
            [sys.executable, "-m", "repro.chaos", *argv],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)

    def test_run_is_byte_identical_across_invocations(self):
        args = ("run", "--campaign", "smoke", "--seed", "7",
                "--horizon", "20.0")
        first = self._run(*args)
        second = self._run(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["campaign"]["name"] == "smoke"

    def test_check_accepts_matching_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = self._run("run", "--campaign", "smoke", "--seed", "3",
                        "--horizon", "20.0", "--out", str(baseline))
        assert out.returncode == 0, out.stderr
        check = self._run("run", "--campaign", "smoke", "--seed", "3",
                          "--horizon", "20.0", "--check",
                          str(baseline))
        assert check.returncode == 0, check.stdout + check.stderr

    def test_check_rejects_drift(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        self._run("run", "--campaign", "smoke", "--seed", "3",
                  "--horizon", "20.0", "--out", str(baseline))
        drifted = json.loads(baseline.read_text())
        drifted["aggregate"]["availability"] += 0.25
        baseline.write_text(json.dumps(drifted))
        check = self._run("run", "--campaign", "smoke", "--seed", "3",
                          "--horizon", "20.0", "--check",
                          str(baseline))
        assert check.returncode == 1
        assert "availability" in check.stdout + check.stderr

    def test_list_names_campaigns(self):
        out = self._run("list")
        assert out.returncode == 0
        assert "smoke" in out.stdout and "full" in out.stdout
