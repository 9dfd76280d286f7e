"""Raft consensus, implemented from scratch.

The paper proposes ETCD as the distributed Knowledge Base technology
(Sec. III footnote 3: "a strongly consistent, distributed key-value
store"). ETCD's consistency comes from Raft, so the reproduction
implements Raft itself: leader election with randomized timeouts, log
replication with the AppendEntries consistency check, and commitment by
majority match. The cluster runs on a deterministic logical clock with an
injectable message network supporting partitions, drops and delays —
which the knowledge-base ablation bench uses to measure availability
under failures.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.core.errors import ConsensusError
from repro.core.rng import derive_seed


class Role(str, Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


#: Sentinel command a fresh leader appends so entries from earlier terms
#: become committable (Raft paper Sec. 5.4.2). Never passed to apply_fn.
NOOP = object()


@dataclass(frozen=True)
class LogEntry:
    term: int
    command: Any


@dataclass
class RequestVote:
    term: int
    candidate: str
    last_log_index: int
    last_log_term: int


@dataclass
class RequestVoteReply:
    term: int
    voter: str
    granted: bool


@dataclass
class AppendEntries:
    term: int
    leader: str
    prev_log_index: int
    prev_log_term: int
    entries: tuple[LogEntry, ...]
    leader_commit: int


@dataclass
class AppendEntriesReply:
    term: int
    follower: str
    success: bool
    match_index: int


@dataclass
class InstallSnapshot:
    """Leader -> follower state transfer when the follower's next entry
    has already been compacted away (Raft paper Sec. 7)."""

    term: int
    leader: str
    snapshot_index: int
    snapshot_term: int
    state: Any


@dataclass
class _InFlight:
    deliver_at: int
    src: str
    dst: str
    message: Any


class RaftNode:
    """One Raft participant. Driven by :class:`RaftCluster`."""

    def __init__(self, name: str, peers: list[str], rng: random.Random,
                 apply_fn: Callable[[Any], None],
                 election_timeout_range: tuple[int, int] = (10, 20),
                 heartbeat_interval: int = 3,
                 snapshot_fn: Callable[[], Any] | None = None,
                 restore_fn: Callable[[Any], None] | None = None,
                 snapshot_threshold: int | None = None):
        self.name = name
        self.peers = [p for p in peers if p != name]
        self.rng = rng
        self.apply_fn = apply_fn
        self.election_timeout_range = election_timeout_range
        self.heartbeat_interval = heartbeat_interval
        # Log compaction (optional): snapshot_fn captures the state
        # machine, restore_fn reinstates it, and the threshold bounds
        # how many applied entries may accumulate before compaction.
        self.snapshot_fn = snapshot_fn
        self.restore_fn = restore_fn
        self.snapshot_threshold = snapshot_threshold
        self.snapshot_index = 0
        self.snapshot_term = 0
        self.snapshot_state: Any = None
        self.snapshots_taken = 0
        self.snapshots_installed = 0
        # Persistent state.
        self.current_term = 0
        self.voted_for: str | None = None
        self.log: list[LogEntry] = []
        # Volatile state.
        self.role = Role.FOLLOWER
        self.commit_index = 0  # 1-based; 0 = nothing committed
        self.last_applied = 0
        self.leader_hint: str | None = None
        # Leader state.
        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}
        # Timers (logical ticks).
        self._election_deadline = 0
        self._next_heartbeat = 0
        self.reset_election_timer(0)

    # -- helpers ------------------------------------------------------------

    def last_log_index(self) -> int:
        return self.snapshot_index + len(self.log)

    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else self.snapshot_term

    def _term_at(self, index: int) -> int:
        """Term of the entry at absolute *index* (0 for the empty log
        origin; snapshot_term at the snapshot boundary). Any other index
        outside ``[snapshot_index, last_log_index]`` raises
        :class:`ConsensusError`: compaction dropped its term, or it was
        never written."""
        if index == 0:
            return 0
        offset = index - self.snapshot_index
        if offset == 0:
            return self.snapshot_term
        if not 0 < offset <= len(self.log):
            raise ConsensusError(
                f"{self.name}: log index {index} lies outside "
                f"[{self.snapshot_index}, {self.last_log_index()}]")
        return self.log[offset - 1].term

    def _entry(self, index: int) -> LogEntry:
        return self.log[index - self.snapshot_index - 1]

    def reset_election_timer(self, now: int) -> None:
        low, high = self.election_timeout_range
        self._election_deadline = now + self.rng.randint(low, high)

    def _become_follower(self, term: int, now: int) -> None:
        self.role = Role.FOLLOWER
        self.current_term = term
        self.voted_for = None
        self.reset_election_timer(now)

    def _become_leader(self, now: int) -> None:
        self.role = Role.LEADER
        self.leader_hint = self.name
        # Committing this no-op from the new term also commits every
        # earlier entry already replicated to a majority.
        self.log.append(LogEntry(term=self.current_term, command=NOOP))
        self.next_index = {p: self.last_log_index() for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        self._next_heartbeat = now  # send heartbeats immediately
        if not self.peers:
            self._advance_commit_index()

    # -- tick-driven behaviour ------------------------------------------------

    def tick(self, now: int, send: Callable[[str, Any], None]) -> None:
        """Advance timers; possibly start an election or send heartbeats."""
        if self.role is Role.LEADER:
            if now >= self._next_heartbeat:
                self._broadcast_append_entries(send)
                self._next_heartbeat = now + self.heartbeat_interval
            return
        if now >= self._election_deadline:
            self._start_election(now, send)

    def _start_election(self, now: int, send) -> None:
        self.role = Role.CANDIDATE
        self.current_term += 1
        self.voted_for = self.name
        self._votes = {self.name}
        self.reset_election_timer(now)
        if len(self._votes) * 2 > len(self.peers) + 1:
            # Single-node cluster: we already hold a majority.
            self._become_leader(now)
            return
        for peer in self.peers:
            send(peer, RequestVote(
                term=self.current_term,
                candidate=self.name,
                last_log_index=self.last_log_index(),
                last_log_term=self.last_log_term(),
            ))

    def _broadcast_append_entries(self, send) -> None:
        for peer in self.peers:
            self._send_append_entries(peer, send)

    def _send_append_entries(self, peer: str, send) -> None:
        next_idx = self.next_index.get(peer, self.last_log_index() + 1)
        if next_idx <= self.snapshot_index:
            # The entries the follower needs were compacted away: ship
            # the whole snapshot instead.
            send(peer, InstallSnapshot(
                term=self.current_term,
                leader=self.name,
                snapshot_index=self.snapshot_index,
                snapshot_term=self.snapshot_term,
                state=copy.deepcopy(self.snapshot_state),
            ))
            return
        prev_index = next_idx - 1
        prev_term = self._term_at(prev_index)
        entries = tuple(self.log[next_idx - self.snapshot_index - 1:])
        send(peer, AppendEntries(
            term=self.current_term,
            leader=self.name,
            prev_log_index=prev_index,
            prev_log_term=prev_term,
            entries=entries,
            leader_commit=self.commit_index,
        ))

    # -- message handling --------------------------------------------------------

    def handle(self, message: Any, now: int, send) -> None:
        """Process one incoming Raft message."""
        term = getattr(message, "term", 0)
        if term > self.current_term:
            self._become_follower(term, now)
        if isinstance(message, RequestVote):
            self._on_request_vote(message, now, send)
        elif isinstance(message, RequestVoteReply):
            self._on_vote_reply(message, now)
        elif isinstance(message, AppendEntries):
            self._on_append_entries(message, now, send)
        elif isinstance(message, AppendEntriesReply):
            self._on_append_reply(message, send)
        elif isinstance(message, InstallSnapshot):
            self._on_install_snapshot(message, now, send)

    def _on_request_vote(self, msg: RequestVote, now: int, send) -> None:
        granted = False
        if msg.term >= self.current_term:
            up_to_date = (
                msg.last_log_term > self.last_log_term()
                or (msg.last_log_term == self.last_log_term()
                    and msg.last_log_index >= self.last_log_index())
            )
            if up_to_date and self.voted_for in (None, msg.candidate):
                granted = True
                self.voted_for = msg.candidate
                self.reset_election_timer(now)
        send(msg.candidate, RequestVoteReply(
            term=self.current_term, voter=self.name, granted=granted))

    def _on_vote_reply(self, msg: RequestVoteReply, now: int) -> None:
        if self.role is not Role.CANDIDATE or msg.term != self.current_term:
            return
        if msg.granted:
            self._votes.add(msg.voter)
            if len(self._votes) * 2 > len(self.peers) + 1:
                self._become_leader(now)

    def _on_append_entries(self, msg: AppendEntries, now: int, send) -> None:
        if msg.term < self.current_term:
            send(msg.leader, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=False, match_index=0))
            return
        # Valid leader for this term.
        if self.role is not Role.FOLLOWER:
            self._become_follower(msg.term, now)
        self.current_term = msg.term
        self.leader_hint = msg.leader
        self.reset_election_timer(now)
        # Entries at or below our snapshot are already committed and
        # applied; trim the request to the part we still need.
        prev_log_index = msg.prev_log_index
        prev_log_term = msg.prev_log_term
        entries = msg.entries
        if prev_log_index < self.snapshot_index:
            skip = self.snapshot_index - prev_log_index
            if len(entries) <= skip:
                send(msg.leader, AppendEntriesReply(
                    term=self.current_term, follower=self.name,
                    success=True, match_index=self.snapshot_index))
                return
            entries = entries[skip:]
            prev_log_index = self.snapshot_index
            prev_log_term = self.snapshot_term
        # Consistency check on the previous entry.
        if prev_log_index > self.last_log_index():
            send(msg.leader, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=False, match_index=0))
            return
        if prev_log_index > self.snapshot_index and \
                self._term_at(prev_log_index) != prev_log_term:
            # Conflicting entry: truncate.
            del self.log[prev_log_index - self.snapshot_index - 1:]
            send(msg.leader, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=False, match_index=0))
            return
        # Append new entries (overwriting any conflicting suffix).
        index = prev_log_index
        for entry in entries:
            index += 1
            if index <= self.last_log_index():
                if self._term_at(index) != entry.term:
                    del self.log[index - self.snapshot_index - 1:]
                    self.log.append(entry)
            else:
                self.log.append(entry)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_log_index())
            self._apply_committed()
        send(msg.leader, AppendEntriesReply(
            term=self.current_term, follower=self.name,
            success=True, match_index=index))

    def _on_append_reply(self, msg: AppendEntriesReply, send) -> None:
        if self.role is not Role.LEADER or msg.term != self.current_term:
            return
        if msg.success:
            self.match_index[msg.follower] = max(
                self.match_index.get(msg.follower, 0), msg.match_index)
            self.next_index[msg.follower] = \
                self.match_index[msg.follower] + 1
            self._advance_commit_index()
        else:
            # Back off and retry (dropping to or below the snapshot
            # boundary makes the next send an InstallSnapshot).
            self.next_index[msg.follower] = max(
                1, self.next_index.get(msg.follower, 1) - 1)
            self._send_append_entries(msg.follower, send)

    def _advance_commit_index(self) -> None:
        floor = max(self.commit_index, self.snapshot_index)
        for candidate in range(self.last_log_index(), floor, -1):
            if self._term_at(candidate) != self.current_term:
                continue  # Raft only commits entries from the current term
            votes = 1 + sum(
                1 for p in self.peers
                if self.match_index.get(p, 0) >= candidate
            )
            if votes * 2 > len(self.peers) + 1:
                self.commit_index = candidate
                self._apply_committed()
                break

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            command = self._entry(self.last_applied).command
            if command is not NOOP:
                self.apply_fn(command)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Snapshot the state machine and discard applied log entries."""
        if self.snapshot_fn is None or self.snapshot_threshold is None:
            return
        applied_since = self.last_applied - self.snapshot_index
        if applied_since < self.snapshot_threshold:
            return
        new_term = self._term_at(self.last_applied)
        self.snapshot_state = self.snapshot_fn()
        del self.log[: self.last_applied - self.snapshot_index]
        self.snapshot_index = self.last_applied
        self.snapshot_term = new_term
        self.snapshots_taken += 1

    def _on_install_snapshot(self, msg: InstallSnapshot, now: int,
                             send) -> None:
        if msg.term < self.current_term:
            send(msg.leader, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=False, match_index=0))
            return
        if self.role is not Role.FOLLOWER:
            self._become_follower(msg.term, now)
        self.current_term = msg.term
        self.leader_hint = msg.leader
        self.reset_election_timer(now)
        if msg.snapshot_index <= self.snapshot_index:
            # Stale snapshot; acknowledge what we already cover.
            send(msg.leader, AppendEntriesReply(
                term=self.current_term, follower=self.name,
                success=True, match_index=self.snapshot_index))
            return
        if self.restore_fn is None:
            raise ConsensusError(
                f"{self.name}: received a snapshot but has no restore_fn")
        if msg.snapshot_index <= self.last_log_index() and \
                self._term_at(msg.snapshot_index) == msg.snapshot_term:
            # The log already holds the snapshot's last entry: drop only
            # the prefix it covers and keep the suffix, which may hold
            # entries the leader counted toward commitment (Raft Sec. 7).
            del self.log[:msg.snapshot_index - self.snapshot_index]
        else:
            self.log = []
        if msg.snapshot_index > self.last_applied:
            self.restore_fn(copy.deepcopy(msg.state))
            self.last_applied = msg.snapshot_index
        self.snapshot_state = copy.deepcopy(msg.state)
        self.snapshot_index = msg.snapshot_index
        self.snapshot_term = msg.snapshot_term
        # A delayed snapshot may trail what this node already committed
        # and applied: neither index ever moves back.
        self.commit_index = max(self.commit_index, msg.snapshot_index)
        self.snapshots_installed += 1
        send(msg.leader, AppendEntriesReply(
            term=self.current_term, follower=self.name,
            success=True, match_index=msg.snapshot_index))

    # -- client interface ------------------------------------------------------

    def propose(self, command: Any) -> int:
        """Leader-only: append a command; returns its log index."""
        if self.role is not Role.LEADER:
            raise ConsensusError(
                f"{self.name} is not the leader "
                f"(hint: {self.leader_hint or 'unknown'})"
            )
        self.log.append(LogEntry(term=self.current_term, command=command))
        if not self.peers:
            self._advance_commit_index()
        return self.last_log_index()


class RaftCluster:
    """A deterministic Raft cluster on a logical clock.

    Messages travel through an in-memory network with a configurable
    delay, optional random drops, and link-level partitions.
    """

    def __init__(self, node_names: list[str], rng: random.Random,
                 apply_fns: dict[str, Callable[[Any], None]] | None = None,
                 message_delay: int = 1, drop_probability: float = 0.0,
                 snapshot_fns: dict[str, Callable[[], Any]] | None = None,
                 restore_fns: dict[str,
                                   Callable[[Any], None]] | None = None,
                 snapshot_threshold: int | None = None):
        if len(node_names) < 1:
            raise ConsensusError("cluster needs at least one node")
        self.rng = rng
        self.now = 0
        self.message_delay = message_delay
        self.drop_probability = drop_probability
        self._partitioned: set[frozenset[str]] = set()
        self._stopped: set[str] = set()
        self._in_flight: list[_InFlight] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        self.nodes: dict[str, RaftNode] = {}
        apply_fns = apply_fns or {}
        snapshot_fns = snapshot_fns or {}
        restore_fns = restore_fns or {}
        cluster_seed = rng.getrandbits(63)
        for name in node_names:
            node_rng = random.Random(derive_seed(cluster_seed, name))
            self.nodes[name] = RaftNode(
                name, node_names, node_rng,
                apply_fns.get(name, lambda cmd: None),
                snapshot_fn=snapshot_fns.get(name),
                restore_fn=restore_fns.get(name),
                snapshot_threshold=snapshot_threshold)

    # -- failure injection -----------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the link between nodes *a* and *b* (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str | None = None, b: str | None = None) -> None:
        """Heal one link, or all partitions when called without args."""
        if a is None:
            self._partitioned.clear()
        else:
            self._partitioned.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        """Partition *name* from every other node."""
        for other in self.nodes:
            if other != name:
                self.partition(name, other)

    def stop(self, name: str) -> None:
        """Crash-stop a node (it neither sends nor receives)."""
        self._stopped.add(name)

    def restart(self, name: str) -> None:
        """Restart a crashed node.

        Persistent state (term, vote, log) survives; volatile leadership
        does not — the node comes back as a follower, as after a real
        process restart.
        """
        self._stopped.discard(name)
        node = self.nodes[name]
        node.role = Role.FOLLOWER
        node.reset_election_timer(self.now)

    # -- simulation loop -----------------------------------------------------------

    def _send_from(self, src: str):
        def send(dst: str, message: Any) -> None:
            self.messages_sent += 1
            if src in self._stopped or dst in self._stopped:
                self.messages_dropped += 1
                return
            if frozenset((src, dst)) in self._partitioned:
                self.messages_dropped += 1
                return
            if self.drop_probability and \
                    self.rng.random() < self.drop_probability:
                self.messages_dropped += 1
                return
            self._in_flight.append(_InFlight(
                deliver_at=self.now + self.message_delay,
                src=src, dst=dst, message=message))
        return send

    def tick(self, steps: int = 1) -> None:
        """Advance the logical clock, delivering messages and timers."""
        for _ in range(steps):
            self.now += 1
            # Deliver due messages.
            due = [m for m in self._in_flight if m.deliver_at <= self.now]
            self._in_flight = [m for m in self._in_flight
                               if m.deliver_at > self.now]
            for envelope in due:
                if envelope.dst in self._stopped:
                    self.messages_dropped += 1
                    continue
                if frozenset((envelope.src, envelope.dst)) in \
                        self._partitioned:
                    self.messages_dropped += 1
                    continue
                self.nodes[envelope.dst].handle(
                    envelope.message, self.now,
                    self._send_from(envelope.dst))
            # Node timers.
            for name, node in self.nodes.items():
                if name not in self._stopped:
                    node.tick(self.now, self._send_from(name))

    def run_until_leader(self, max_ticks: int = 500) -> str:
        """Tick until a live node is leader; returns its name."""
        for _ in range(max_ticks):
            leader = self.leader()
            if leader is not None:
                return leader
            self.tick()
        raise ConsensusError(f"no leader after {max_ticks} ticks")

    def leader(self) -> str | None:
        """The current live leader with the highest term, if any."""
        leaders = [n for name, n in self.nodes.items()
                   if n.role is Role.LEADER and name not in self._stopped]
        if not leaders:
            return None
        return max(leaders, key=lambda n: n.current_term).name

    def propose(self, command: Any, settle_ticks: int = 30) -> None:
        """Propose via the current leader and tick until it commits."""
        leader_name = self.run_until_leader()
        leader = self.nodes[leader_name]
        index = leader.propose(command)
        for _ in range(settle_ticks):
            self.tick()
            if leader.commit_index >= index:
                return
        raise ConsensusError(
            f"command at index {index} not committed after "
            f"{settle_ticks} ticks"
        )
