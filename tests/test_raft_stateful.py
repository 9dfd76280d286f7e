"""Raft safety under reordering, partitions, crashes and compaction.

A :class:`DelayedCluster` holds every message for ``message_delay``
plus 0..J extra ticks, so later messages overtake earlier ones — the
reordering the FIFO default network never produces. A
:class:`SafetyMonitor` checks Raft's safety properties (Ongaro and
Ousterhout, USENIX ATC 2014, Fig. 3) after every tick:

- Election Safety: at most one leader per term;
- Log Matching: two logs holding an entry with the same index and term
  agree on every earlier entry both still hold;
- State Machine Safety: no two replicas apply different commands at one
  index (a leader's no-op counts as a command);
- Leader Completeness: a leader holds every entry committed in an
  earlier term;
- no replica's ``commit_index`` or ``last_applied`` ever decreases.

The hypothesis state machine drives random clusters through propose,
tick, partition, heal, crash and restart with log compaction on; the
seeded run replays one long random schedule that once lost a committed
write when a delayed snapshot rolled a follower back.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.kb.raft import NOOP, RaftCluster, Role


class DelayedCluster(RaftCluster):
    """A :class:`RaftCluster` whose network delays each message by 0 to
    *jitter* extra ticks, drawn from its own seeded stream."""

    def __init__(self, names, rng, *, jitter, **kwargs):
        super().__init__(names, rng, **kwargs)
        self.jitter = jitter
        self._jitter_rng = random.Random(rng.getrandbits(64))

    def _send_from(self, src):
        send = super()._send_from(src)

        def delayed(dst, message):
            queued = len(self._in_flight)
            send(dst, message)
            if len(self._in_flight) > queued:
                self._in_flight[-1].deliver_at += \
                    self._jitter_rng.randint(0, self.jitter)
        return delayed


class _Applied(tuple):
    """A replica's state machine: its applied ``(index, command)`` pairs.
    Immutable, so the deep copies Raft makes of every snapshot it ships
    or installs may share it."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self


def make_cluster(replicas, seed, *, jitter, drop, threshold):
    """A delayed cluster whose replicas keep an :class:`_Applied` state,
    snapshotted and restored whole; returns ``(cluster, states)``."""
    names = [f"kb-{i}" for i in range(replicas)]
    states = {name: _Applied() for name in names}
    holder = {}

    def make_apply(name):
        def apply(command):
            index = holder["cluster"].nodes[name].last_applied
            states[name] = _Applied(states[name] + ((index, command),))
        return apply

    def make_restore(name):
        def restore(snapshot):
            states[name] = snapshot
        return restore

    cluster = DelayedCluster(
        names, random.Random(seed), jitter=jitter, drop_probability=drop,
        apply_fns={name: make_apply(name) for name in names},
        snapshot_fns={name: (lambda name=name: states[name])
                      for name in names},
        restore_fns={name: make_restore(name) for name in names},
        snapshot_threshold=threshold)
    holder["cluster"] = cluster
    return cluster, states


class SafetyMonitor:
    """Checks Raft's safety properties over one cluster's history."""

    def __init__(self, cluster, states):
        self.cluster = cluster
        self.states = states
        self.leaders = {}       # term -> the one leader of that term
        self.committed = {}     # index -> [entry, earliest observed term]
        self.top = 0            # highest commit_index seen
        self.chosen = {}        # index -> the command applied there
        self.commit = dict.fromkeys(cluster.nodes, 0)
        self.applied = dict.fromkeys(cluster.nodes, 0)

    def check(self):
        nodes = self.cluster.nodes
        for name, node in nodes.items():
            if node.role is Role.LEADER:
                leader = self.leaders.setdefault(node.current_term, name)
                assert leader == name, (
                    f"two leaders in term {node.current_term}: "
                    f"{leader} and {name}")
            self._check_commit(name, node)
            self._check_applied(name, node)
        names = list(nodes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self._check_log_matching(nodes[a], nodes[b])
        for node in nodes.values():
            if node.role is Role.LEADER:
                self._check_leader_completeness(node)

    def _check_commit(self, name, node):
        before = self.commit[name]
        assert node.commit_index >= before, (
            f"{name}: commit_index {before} -> {node.commit_index}")
        for index in range(max(before, node.snapshot_index) + 1,
                           node.commit_index + 1):
            entry = node._entry(index)
            seen = self.committed.setdefault(
                index, [entry, node.current_term])
            assert seen[0] == entry, (
                f"{name} committed {entry} at {index}, "
                f"another replica {seen[0]}")
            seen[1] = min(seen[1], node.current_term)
        self.commit[name] = node.commit_index
        self.top = max(self.top, node.commit_index)

    def _check_applied(self, name, node):
        before = self.applied[name]
        assert node.last_applied >= before, (
            f"{name}: last_applied {before} -> {node.last_applied}")
        if node.last_applied == before:
            return
        tail = {}
        for index, command in reversed(self.states[name]):
            if index <= before:
                break
            tail[index] = command
        for index in range(before + 1, node.last_applied + 1):
            command = tail.get(index, NOOP)
            chosen = self.chosen.setdefault(index, command)
            assert chosen == command, (
                f"{name} applied {command!r} at {index}, "
                f"another replica {chosen!r}")
        self.applied[name] = node.last_applied

    @staticmethod
    def _check_log_matching(a, b):
        low = max(a.snapshot_index, b.snapshot_index) + 1
        high = min(a.last_log_index(), b.last_log_index())
        for index in range(high, low - 1, -1):
            if a._entry(index).term == b._entry(index).term:
                assert a.log[low - a.snapshot_index - 1:
                             index - a.snapshot_index] == \
                    b.log[low - b.snapshot_index - 1:
                          index - b.snapshot_index], (
                        f"{a.name} and {b.name} agree at {index} but "
                        f"differ below it")
                return

    def _check_leader_completeness(self, node):
        committed = self.committed
        for index in range(node.snapshot_index + 1, self.top + 1):
            # An entry committed and compacted within one tick on every
            # replica that committed it is never seen.
            entry, term = committed.get(index, (None, node.current_term))
            if term >= node.current_term:
                continue
            assert index <= node.last_log_index() and \
                node._entry(index) == entry, (
                    f"leader {node.name} of term {node.current_term} "
                    f"lacks {entry} committed at {index}")


def run_probe(seed, *, replicas=5, jitter=2, drop=0.0, threshold=3,
              ticks=3000):
    """One random schedule: each tick it may partition a random pair
    (1 %), heal every link (1 %), crash one node (0.5 %), restart the
    crashed ones (1 %) or propose through the leader (16.5 %); then it
    ticks once and checks every property. Returns the monitor."""
    cluster, states = make_cluster(replicas, seed, jitter=jitter,
                                   drop=drop, threshold=threshold)
    monitor = SafetyMonitor(cluster, states)
    rng = random.Random(seed)
    names = list(cluster.nodes)
    crashed = set()
    for step in range(ticks):
        roll = rng.random()
        if roll < 0.01:
            a, b = rng.sample(names, 2)
            cluster.partition(a, b)
        elif roll < 0.02:
            cluster.heal()
        elif roll < 0.025:
            victim = rng.choice(names)
            cluster.stop(victim)
            crashed.add(victim)
        elif roll < 0.035:
            for name in sorted(crashed):
                cluster.restart(name)
            crashed.clear()
        elif roll < 0.2:
            leader = cluster.leader()
            if leader is not None:
                cluster.nodes[leader].propose(("k", step))
        cluster.tick()
        monitor.check()
    return monitor


class TestSeededProbe:
    def test_delayed_snapshot_never_rolls_back_a_follower(self):
        """Five replicas, up to 2 ticks of extra delay, compaction every
        3 applied entries, 3,000 ticks. When installing a delayed
        snapshot replaced a follower's whole log, it dropped an entry
        the leader had counted toward commitment; on this schedule that
        elected a term-26 leader lacking the entry committed at index
        202 in term 19."""
        monitor = run_probe(34)
        # The schedule keeps the cluster busy: snapshots are shipped
        # and installed, and most proposals commit.
        cluster = monitor.cluster
        assert sum(node.snapshots_installed
                   for node in cluster.nodes.values()) > 0
        assert len(monitor.chosen) > 100


class RaftSafetyMachine(RuleBasedStateMachine):
    """Random clusters under random faults keep every safety property."""

    @initialize(replicas=st.sampled_from([3, 5]),
                jitter=st.integers(0, 10),
                drop=st.sampled_from([0.0, 0.1, 0.2]),
                threshold=st.integers(2, 5),
                seed=st.integers(0, 2 ** 16))
    def build(self, replicas, jitter, drop, threshold, seed):
        self.cluster, states = make_cluster(
            replicas, seed, jitter=jitter, drop=drop, threshold=threshold)
        self.monitor = SafetyMonitor(self.cluster, states)
        self.names = list(self.cluster.nodes)
        self.proposals = 0

    @rule(ticks=st.integers(1, 40), every=st.integers(0, 6))
    def tick(self, ticks, every):
        """Tick *ticks* times, proposing through the leader before every
        *every*-th tick (never when 0)."""
        for step in range(ticks):
            if every and step % every == 0:
                self.propose()
            self.cluster.tick()
            self.monitor.check()

    @rule()
    def propose(self):
        """Propose through the leader, as a client with at most 16
        uncommitted writes in flight: a leader cut off from its majority
        would otherwise grow a log every AppendEntries walks whole."""
        leader = self.cluster.leader()
        if leader is None:
            return
        node = self.cluster.nodes[leader]
        if node.last_log_index() - node.commit_index < 16:
            self.proposals += 1
            node.propose(("k", self.proposals))

    @rule(a=st.integers(0, 4), b=st.integers(0, 4))
    def partition(self, a, b):
        a, b = a % len(self.names), b % len(self.names)
        if a != b:
            self.cluster.partition(self.names[a], self.names[b])

    @rule()
    def heal(self):
        self.cluster.heal()

    @rule(victim=st.integers(0, 4))
    def crash(self, victim):
        self.cluster.stop(self.names[victim % len(self.names)])

    @rule()
    def restart(self):
        for name in list(self.cluster._stopped):
            self.cluster.restart(name)

    @invariant()
    def safe(self):
        self.monitor.check()


RaftSafetyMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)
TestRaftSafety = RaftSafetyMachine.TestCase
