"""Tests for Raft log compaction and InstallSnapshot."""

import random

import pytest

from repro.kb import KnowledgeBase
from repro.kb.raft import RaftCluster


def make_cluster(n=3, seed=0, threshold=8, **kwargs):
    applied = {f"n{i}": [] for i in range(n)}
    state = {f"n{i}": {"sum": 0} for i in range(n)}

    def make_apply(name):
        def apply(cmd):
            applied[name].append(cmd)
            state[name]["sum"] += cmd
        return apply

    def make_snapshot(name):
        return lambda: dict(state[name])

    def make_restore(name):
        def restore(snap):
            state[name].clear()
            state[name].update(snap)
        return restore

    cluster = RaftCluster(
        [f"n{i}" for i in range(n)], random.Random(seed),
        apply_fns={name: make_apply(name) for name in applied},
        snapshot_fns={name: make_snapshot(name) for name in applied},
        restore_fns={name: make_restore(name) for name in applied},
        snapshot_threshold=threshold, **kwargs)
    return cluster, applied, state


class TestCompaction:
    def test_log_is_bounded_by_threshold(self):
        cluster, _, _ = make_cluster(threshold=8)
        for i in range(50):
            cluster.propose(i)
        cluster.tick(50)
        for node in cluster.nodes.values():
            assert len(node.log) <= 8 + 2  # threshold + in-flight slack
            assert node.snapshots_taken >= 1

    def test_state_machine_correct_after_compaction(self):
        cluster, _, state = make_cluster(threshold=5)
        total = 0
        for i in range(30):
            cluster.propose(i)
            total += i
        cluster.tick(80)
        for name in cluster.nodes:
            assert state[name]["sum"] == total

    def test_no_compaction_without_threshold(self):
        cluster, _, _ = make_cluster(threshold=None)
        for i in range(30):
            cluster.propose(i)
        cluster.tick(30)
        leader = cluster.run_until_leader()
        assert cluster.nodes[leader].snapshots_taken == 0
        assert len(cluster.nodes[leader].log) >= 30


class TestInstallSnapshot:
    def test_lagging_follower_receives_snapshot(self):
        cluster, _, state = make_cluster(n=3, seed=1, threshold=6)
        leader = cluster.run_until_leader()
        follower = next(n for n in cluster.nodes if n != leader)
        cluster.stop(follower)
        total = 0
        for i in range(40):  # far beyond the compaction threshold
            cluster.propose(i)
            total += i
        cluster.restart(follower)
        cluster.tick(150)
        node = cluster.nodes[follower]
        assert node.snapshots_installed >= 1
        assert state[follower]["sum"] == total

    def test_follower_continues_after_snapshot(self):
        """After installing a snapshot, normal replication resumes."""
        cluster, _, state = make_cluster(n=3, seed=2, threshold=6)
        leader = cluster.run_until_leader()
        follower = next(n for n in cluster.nodes if n != leader)
        cluster.stop(follower)
        total = 0
        for i in range(30):
            cluster.propose(i)
            total += i
        cluster.restart(follower)
        cluster.tick(150)
        for i in range(5):  # post-snapshot appends
            cluster.propose(100 + i)
            total += 100 + i
        cluster.tick(80)
        assert state[follower]["sum"] == total

    def test_stale_snapshot_ignored(self):
        from repro.kb.raft import InstallSnapshot
        cluster, _, state = make_cluster(n=3, seed=3, threshold=5)
        for i in range(20):
            cluster.propose(i)
        cluster.tick(60)
        leader = cluster.run_until_leader()
        node = cluster.nodes[leader]
        follower_name = next(n for n in cluster.nodes if n != leader)
        follower = cluster.nodes[follower_name]
        before = follower.snapshot_index
        # Deliver an old snapshot directly.
        follower.handle(
            InstallSnapshot(term=node.current_term, leader=leader,
                            snapshot_index=1, snapshot_term=1,
                            state={"sum": 0}),
            cluster.now, lambda dst, m: None)
        assert follower.snapshot_index == before  # unchanged


class TestKnowledgeBaseWithSnapshots:
    def test_kb_operations_survive_compaction(self):
        kb = KnowledgeBase(replicas=3, seed=4, snapshot_threshold=10)
        for i in range(60):
            kb.put(f"key-{i % 7}", i)
        kb.tick(80)
        for i in range(7):
            latest = max(j for j in range(60) if j % 7 == i)
            assert kb.get(f"key-{i}") == latest
        leader = kb.cluster.run_until_leader()
        assert kb.cluster.nodes[leader].snapshots_taken >= 1

    def test_crashed_replica_catches_up_via_snapshot(self):
        kb = KnowledgeBase(replicas=3, seed=5, snapshot_threshold=8)
        kb.put("warmup", 0)
        leader = kb.cluster.run_until_leader()
        victim = next(n for n in kb.cluster.nodes if n != leader)
        kb.cluster.stop(victim)
        for i in range(40):
            kb.put(f"k{i % 5}", i)
        kb.cluster.restart(victim)
        kb.tick(200)
        states = kb.replica_states()
        reference = states[kb.cluster.run_until_leader()]
        assert states[victim] == reference
        assert kb.cluster.nodes[victim].snapshots_installed >= 1

    def test_revision_preserved_across_snapshot(self):
        kb = KnowledgeBase(replicas=1, seed=6, snapshot_threshold=5)
        for i in range(20):
            kb.put("k", i)
        revision_before = kb.revision
        kb.put("k", 99)
        assert kb.revision == revision_before + 1


class TestDelayedSnapshot:
    """A snapshot that arrives after the follower's log already moved
    past it (it was delayed, or overtaken by later AppendEntries) must
    never roll the follower back (Raft Sec. 7)."""

    def test_snapshot_behind_the_log_keeps_the_suffix(self):
        from repro.kb.raft import InstallSnapshot
        cluster, applied, state = make_cluster(n=3, seed=0, threshold=None)
        for i in range(7):
            cluster.propose(i)
        cluster.tick(30)
        leader_name = cluster.run_until_leader()
        leader = cluster.nodes[leader_name]
        name = next(n for n in cluster.nodes if n != leader_name)
        follower = cluster.nodes[name]
        # The leader's no-op at index 1, then the seven commands.
        assert (follower.commit_index, follower.last_applied) == (8, 8)
        assert follower.last_log_index() == 8
        follower.handle(
            InstallSnapshot(term=leader.current_term, leader=leader_name,
                            snapshot_index=7,
                            snapshot_term=follower._term_at(7),
                            state={"sum": sum(range(6))}),
            cluster.now, lambda dst, m: None)
        assert follower.snapshot_index == 7
        assert follower.commit_index == 8
        assert follower.last_applied == 8
        assert follower.last_log_index() == 8
        assert [entry.command for entry in follower.log] == [6]
        # Entry 8 stays applied: the state machine was not restored to
        # the older snapshot.
        assert state[name]["sum"] == sum(range(7))
        assert applied[name] == list(range(7))

    def test_snapshot_ahead_of_applied_but_on_the_log_restores(self):
        """The log holds the snapshot's last entry but nothing past the
        snapshot is applied yet: the state is restored, the suffix
        kept, and commit and apply catch up to the snapshot."""
        from repro.kb.raft import InstallSnapshot, LogEntry
        cluster, _, state = make_cluster(n=3, seed=0, threshold=None)
        name = "n1"
        follower = cluster.nodes[name]
        follower.current_term = 2
        follower.log = [LogEntry(1, 10), LogEntry(1, 20), LogEntry(2, 30)]
        follower.handle(
            InstallSnapshot(term=2, leader="n0", snapshot_index=2,
                            snapshot_term=1, state={"sum": 30}),
            cluster.now, lambda dst, m: None)
        assert (follower.snapshot_index, follower.snapshot_term) == (2, 1)
        assert (follower.commit_index, follower.last_applied) == (2, 2)
        assert follower.log == [LogEntry(2, 30)]
        assert state[name]["sum"] == 30

    def test_conflicting_log_is_replaced(self):
        """A log whose entry at the snapshot index has another term is
        discarded whole and the state restored."""
        from repro.kb.raft import InstallSnapshot, LogEntry
        cluster, _, state = make_cluster(n=3, seed=0, threshold=None)
        name = "n1"
        follower = cluster.nodes[name]
        follower.current_term = 3
        follower.log = [LogEntry(1, 10), LogEntry(1, 20), LogEntry(1, 30)]
        follower.handle(
            InstallSnapshot(term=3, leader="n0", snapshot_index=2,
                            snapshot_term=2, state={"sum": 7}),
            cluster.now, lambda dst, m: None)
        assert follower.log == []
        assert (follower.commit_index, follower.last_applied) == (2, 2)
        assert follower.last_log_index() == 2
        assert state[name]["sum"] == 7
