"""Tests for the replicated Knowledge Base and Resource Registry."""

import pytest

from repro.core.errors import NotFoundError
from repro.kb import ComponentRecord, KnowledgeBase, ResourceRegistry


@pytest.fixture
def kb():
    return KnowledgeBase(replicas=3, seed=1)


class TestKvOperations:
    def test_put_get(self, kb):
        kb.put("config/mode", "eco")
        assert kb.get("config/mode") == "eco"

    def test_get_missing_raises(self, kb):
        with pytest.raises(NotFoundError):
            kb.get("ghost")

    def test_overwrite(self, kb):
        kb.put("k", 1)
        kb.put("k", 2)
        assert kb.get("k") == 2

    def test_delete(self, kb):
        kb.put("k", 1)
        kb.delete("k")
        with pytest.raises(NotFoundError):
            kb.get("k")

    def test_delete_missing_is_noop(self, kb):
        kb.delete("never-existed")  # must not raise

    def test_range_by_prefix(self, kb):
        kb.put("status/a", 1)
        kb.put("status/b", 2)
        kb.put("registry/a", 3)
        assert kb.range("status/") == {"status/a": 1, "status/b": 2}

    def test_revisions_monotonic(self, kb):
        kb.put("a", 1)
        r1 = kb.revision
        kb.put("b", 2)
        r2 = kb.revision
        assert r2 > r1

    def test_mod_revision_tracks_updates(self, kb):
        kb.put("k", 1)
        meta1 = kb.get_with_meta("k")
        kb.put("k", 2)
        meta2 = kb.get_with_meta("k")
        assert meta2.mod_revision > meta1.mod_revision
        assert meta2.create_revision == meta1.create_revision

    def test_replicas_converge(self, kb):
        kb.put("x", 1)
        kb.put("y", 2)
        kb.delete("x")
        kb.tick(50)  # allow followers to learn the final commit index
        states = kb.replica_states()
        assert all(s == {"y": 2} for s in states.values()), states


class TestWatches:
    def test_watch_sees_puts_and_deletes(self, kb):
        events = []
        kb.watch("status/", events.append)
        kb.put("status/fpga", {"util": 0.4})
        kb.delete("status/fpga")
        kinds = [(e.event_type, e.key) for e in events]
        assert kinds == [("put", "status/fpga"), ("delete", "status/fpga")]

    def test_watch_prefix_filtering(self, kb):
        events = []
        kb.watch("status/", events.append)
        kb.put("registry/node", 1)
        assert events == []

    def test_cancel_watch(self, kb):
        events = []
        watch = kb.watch("s/", events.append)
        kb.put("s/1", 1)
        kb.cancel_watch(watch)
        kb.put("s/2", 2)
        assert len(events) == 1

    def test_watch_event_carries_revision(self, kb):
        events = []
        kb.watch("", events.append)
        kb.put("a", 1)
        kb.put("b", 2)
        assert events[1].revision > events[0].revision


class TestLeases:
    def test_leased_key_survives_with_keepalive(self, kb):
        lease = kb.grant_lease(ttl_ticks=30)
        kb.put("node/hb", "alive", lease_id=lease)
        for _ in range(4):
            kb.tick(15)
            kb.keepalive(lease)
            kb.expire_due_leases()
        assert kb.get("node/hb") == "alive"

    def test_leased_key_dies_without_keepalive(self, kb):
        lease = kb.grant_lease(ttl_ticks=20)
        kb.put("node/hb", "alive", lease_id=lease)
        kb.tick(30)
        expired = kb.expire_due_leases()
        assert lease in expired
        with pytest.raises(NotFoundError):
            kb.get("node/hb")

    def test_unleased_keys_unaffected_by_expiry(self, kb):
        lease = kb.grant_lease(ttl_ticks=10)
        kb.put("ephemeral", 1, lease_id=lease)
        kb.put("durable", 2)
        kb.tick(20)
        kb.expire_due_leases()
        assert kb.get("durable") == 2

    def test_put_with_unknown_lease_rejected(self, kb):
        with pytest.raises(NotFoundError):
            kb.put("k", 1, lease_id=999)

    def test_keepalive_unknown_lease_rejected(self, kb):
        with pytest.raises(NotFoundError):
            kb.keepalive(12345)


class TestFaultTolerance:
    def test_store_survives_leader_crash(self):
        kb = KnowledgeBase(replicas=5, seed=2)
        kb.put("persistent", "value")
        kb.cluster.stop(kb.cluster.run_until_leader())
        # A new leader must serve the committed value.
        assert kb.get("persistent") == "value"
        kb.put("after-failover", 1)
        assert kb.get("after-failover") == 1

    def test_store_works_under_message_loss(self):
        kb = KnowledgeBase(replicas=3, seed=3, drop_probability=0.15)
        for i in range(5):
            kb.put(f"k{i}", i)
        for i in range(5):
            assert kb.get(f"k{i}") == i


class TestResourceRegistry:
    @pytest.fixture
    def registry(self, kb):
        return ResourceRegistry(kb, lease_ttl_ticks=40)

    def record(self, name="fpga-0", layer="edge"):
        return ComponentRecord(
            name=name, kind="hmpsoc_fpga", layer=layer,
            max_security_level="high",
            capabilities={"kernels": ["dsp", "neural"]})

    def test_register_and_lookup(self, registry):
        registry.register(self.record())
        rec = registry.component("fpga-0")
        assert rec.kind == "hmpsoc_fpga"
        assert rec.capabilities["kernels"] == ["dsp", "neural"]

    def test_snapshot_and_layer_query(self, registry):
        registry.register(self.record("fpga-0", "edge"))
        registry.register(self.record("fmdc-0", "fog"))
        snap = registry.snapshot()
        assert set(snap) == {"fpga-0", "fmdc-0"}
        assert [r.name for r in registry.components_in_layer("fog")] \
            == ["fmdc-0"]

    def test_liveness_follows_lease(self, registry, kb):
        registry.register(self.record())
        assert registry.is_alive("fpga-0")
        kb.tick(50)
        kb.expire_due_leases()
        assert not registry.is_alive("fpga-0")

    def test_heartbeat_keeps_alive(self, registry, kb):
        registry.register(self.record())
        for _ in range(3):
            kb.tick(25)
            registry.heartbeat("fpga-0")
            kb.expire_due_leases()
        assert registry.is_alive("fpga-0")

    def test_heartbeat_unregistered_raises(self, registry):
        with pytest.raises(NotFoundError):
            registry.heartbeat("ghost")

    def test_status_updates_and_history(self, registry):
        registry.register(self.record())
        registry.update_status("fpga-0", {"util": 0.3})
        registry.update_status("fpga-0", {"util": 0.6})
        assert registry.status("fpga-0")["util"] == 0.6
        history = registry.history("fpga-0")
        assert [h["util"] for h in history] == [0.3, 0.6]

    def test_history_bounded(self, kb):
        registry = ResourceRegistry(kb, history_limit=5)
        registry.register(self.record())
        for i in range(10):
            registry.update_status("fpga-0", {"i": i})
        assert len(registry.history("fpga-0")) == 5
        assert registry.history("fpga-0")[0]["i"] == 5

    def test_deregister(self, registry):
        registry.register(self.record())
        registry.update_status("fpga-0", {"util": 0.3})
        registry.deregister("fpga-0")
        assert not registry.is_alive("fpga-0")
        with pytest.raises(NotFoundError):
            registry.status("fpga-0")

    def test_status_missing_raises(self, registry):
        with pytest.raises(NotFoundError):
            registry.status("ghost")

    def test_update_status_history_matches_kb(self, registry):
        """The KB value and the history entry are one snapshot, stamped
        with the Raft clock read before the write."""
        registry.update_status("dev", {"util": 0.5})
        assert registry.history("dev")[-1] == registry.status("dev")
        registry.update_status("dev", {"util": 0.7})
        assert registry.history("dev")[-1] == registry.status("dev")

    def test_update_statuses_history_matches_kb(self, registry):
        registry.update_statuses({"dev": {"util": 0.5},
                                  "gpu": {"util": 0.1}})
        for name in ("dev", "gpu"):
            assert registry.history(name)[-1] == registry.status(name)


class TestBatchedStatuses:
    """``update_statuses`` writes a whole batch as one Raft log entry
    with the revisions and watch events of the same puts made one by
    one."""

    STATUSES = {"mc-0": {"utilization": 0.4, "queue_length": 2},
                "fpga-0": {"utilization": 0.9, "queue_length": 0},
                "cloud-0": {"utilization": 0.1, "queue_length": 1}}

    @staticmethod
    def _primed():
        kb = KnowledgeBase(replicas=3, seed=4)
        kb.put("status/fpga-0", {"utilization": 0.0})  # elects a leader
        events = []
        kb.watch("status/", lambda e: events.append(
            (e.event_type, e.key, e.value, e.revision)))
        return kb, events

    def test_one_log_entry_per_batch(self):
        kb, _ = self._primed()
        leader = kb.cluster.nodes[kb.cluster.leader()]
        before = leader.last_log_index()
        ResourceRegistry(kb).update_statuses(self.STATUSES)
        assert kb.cluster.leader() == leader.name
        assert leader.last_log_index() == before + 1

    def test_revisions_and_events_match_sequential_puts(self):
        batched, batched_events = self._primed()
        ResourceRegistry(batched).update_statuses(self.STATUSES)
        sequential, sequential_events = self._primed()
        for _, key, value, _ in batched_events:
            sequential.put(key, value)
        assert [e[1] for e in batched_events] == \
            [f"status/{name}" for name in self.STATUSES]
        assert batched_events == sequential_events
        assert batched.revision == sequential.revision
        for name in self.STATUSES:
            key = f"status/{name}"
            assert batched.get_with_meta(key) == \
                sequential.get_with_meta(key)

    def test_replicas_converge(self):
        kb, _ = self._primed()
        ResourceRegistry(kb).update_statuses(self.STATUSES)
        kb.tick(50)  # allow followers to learn the final commit index
        states = list(kb.replica_states().values())
        assert all(state == states[0] for state in states)
        assert set(states[0]) == {f"status/{n}" for n in self.STATUSES}

    def test_empty_batch_writes_nothing(self):
        kb, events = self._primed()
        revision = kb.revision
        ResourceRegistry(kb).update_statuses({})
        assert kb.revision == revision and events == []

    def test_mape_sense_is_one_proposal(self, monkeypatch):
        from repro.mirto.engine import CognitiveEngine
        engine = CognitiveEngine(seed=3)
        proposals = []
        propose = KnowledgeBase._propose

        def counted(self, command):
            proposals.append(command["op"])
            propose(self, command)

        monkeypatch.setattr(KnowledgeBase, "_propose", counted)
        samples = engine.mape.sense()
        assert proposals == ["txn"]
        assert len(samples) == len(engine.infrastructure.devices) > 1
        for name in samples:
            assert engine.registry.history(name)[-1] == \
                engine.registry.status(name)


class TestTransactions:
    def test_success_branch_applies_atomically(self, kb):
        kb.put("config", "v1")
        ok = kb.txn([("config", "==", "v1")],
                    on_success=[{"op": "put", "key": "config",
                                 "value": "v2"},
                                {"op": "put", "key": "config-history",
                                 "value": ["v1"]}])
        assert ok
        assert kb.get("config") == "v2"
        assert kb.get("config-history") == ["v1"]

    def test_failure_branch_on_mismatch(self, kb):
        kb.put("config", "v1")
        ok = kb.txn([("config", "==", "other")],
                    on_success=[{"op": "put", "key": "config",
                                 "value": "v2"}],
                    on_failure=[{"op": "put", "key": "conflicts",
                                 "value": 1}])
        assert not ok
        assert kb.get("config") == "v1"
        assert kb.get("conflicts") == 1

    def test_absent_guard_implements_locking(self, kb):
        first = kb.txn([("lock/resource", "absent", None)],
                       on_success=[{"op": "put", "key": "lock/resource",
                                    "value": "agent-a"}])
        second = kb.txn([("lock/resource", "absent", None)],
                        on_success=[{"op": "put", "key": "lock/resource",
                                     "value": "agent-b"}])
        assert first and not second
        assert kb.get("lock/resource") == "agent-a"

    def test_mod_revision_guard_detects_concurrent_write(self, kb):
        kb.put("doc", "draft")
        revision = kb.get_with_meta("doc").mod_revision
        kb.put("doc", "edited-by-someone-else")
        ok = kb.txn([("doc", "mod_rev==", revision)],
                    on_success=[{"op": "put", "key": "doc",
                                 "value": "my-edit"}])
        assert not ok
        assert kb.get("doc") == "edited-by-someone-else"

    def test_exists_and_ne_guards(self, kb):
        kb.put("mode", "eco")
        assert kb.txn([("mode", "exists", None),
                       ("mode", "!=", "turbo")],
                      on_success=[{"op": "delete", "key": "mode"}])
        import pytest as _pytest
        from repro.core.errors import NotFoundError as _NF
        with _pytest.raises(_NF):
            kb.get("mode")

    def test_txn_replicates_consistently(self, kb):
        kb.txn([("x", "absent", None)],
               on_success=[{"op": "put", "key": "x", "value": 1}])
        kb.txn([("x", "==", 1)],
               on_success=[{"op": "put", "key": "x", "value": 2}])
        kb.tick(60)
        states = kb.replica_states()
        assert all(s == {"x": 2} for s in states.values())

    def test_unknown_operator_rejected(self, kb):
        import pytest as _pytest
        from repro.core.errors import ConsensusError as _CE
        with _pytest.raises(_CE):
            kb.txn([("x", "~=", 1)],
                   on_success=[{"op": "put", "key": "x", "value": 1}])
