"""Resource Registry and telemetry history over the Knowledge Base.

Paper Sec. VI: "the KB is expected to keep track of the current status of
every single component (e.g. supportable security level and actual
security configuration, type of computing node and their availability,
etc.) in the Resource Registry, as well as of the historical batch data".

Components register under leases (liveness follows keepalives, exactly
like Kubernetes node leases on etcd); telemetry snapshots append to a
bounded per-component history used by learning-based MIRTO strategies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.errors import NotFoundError
from repro.kb.store import KnowledgeBase

_REGISTRY_PREFIX = "registry/"
_STATUS_PREFIX = "status/"


@dataclass(frozen=True)
class ComponentRecord:
    """Static registration record for one continuum component."""

    name: str
    kind: str
    layer: str
    max_security_level: str
    capabilities: dict[str, Any]

    def to_value(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "layer": self.layer,
            "max_security_level": self.max_security_level,
            "capabilities": dict(self.capabilities),
        }

    @staticmethod
    def from_value(value: dict) -> "ComponentRecord":
        return ComponentRecord(
            name=value["name"],
            kind=value["kind"],
            layer=value["layer"],
            max_security_level=value["max_security_level"],
            capabilities=dict(value.get("capabilities", {})),
        )


class ResourceRegistry:
    """Component availability/status snapshot plus telemetry history."""

    def __init__(self, kb: KnowledgeBase, lease_ttl_ticks: int = 60,
                 history_limit: int = 256):
        self.kb = kb
        self.lease_ttl_ticks = lease_ttl_ticks
        self.history_limit = history_limit
        self._leases: dict[str, int] = {}
        self._history: dict[str, deque[dict[str, Any]]] = {}

    # -- registration ------------------------------------------------------------

    def register(self, record: ComponentRecord) -> None:
        """Register a component under a fresh liveness lease."""
        lease_id = self.kb.grant_lease(self.lease_ttl_ticks)
        self._leases[record.name] = lease_id
        self.kb.put(_REGISTRY_PREFIX + record.name, record.to_value(),
                    lease_id=lease_id)

    def heartbeat(self, name: str) -> None:
        """Keep a component's registration alive."""
        if name not in self._leases:
            raise NotFoundError(f"component {name!r} never registered")
        self.kb.keepalive(self._leases[name])

    def deregister(self, name: str) -> None:
        """Explicitly remove a component and its status."""
        self.kb.delete(_REGISTRY_PREFIX + name)
        self.kb.delete(_STATUS_PREFIX + name)
        self._leases.pop(name, None)

    # -- queries -------------------------------------------------------------------

    def component(self, name: str) -> ComponentRecord:
        """Fetch one component's registration."""
        try:
            value = self.kb.get(_REGISTRY_PREFIX + name)
        except NotFoundError:
            raise NotFoundError(
                f"component {name!r} not registered (or lease expired)"
            ) from None
        return ComponentRecord.from_value(value)

    def snapshot(self) -> dict[str, ComponentRecord]:
        """All currently registered components."""
        return {
            key[len(_REGISTRY_PREFIX):]: ComponentRecord.from_value(value)
            for key, value in self.kb.range(_REGISTRY_PREFIX).items()
        }

    def components_in_layer(self, layer: str) -> list[ComponentRecord]:
        """Registered components on one continuum layer."""
        return [rec for rec in self.snapshot().values()
                if rec.layer == layer]

    def is_alive(self, name: str) -> bool:
        """True while the component's leased registration exists."""
        return _REGISTRY_PREFIX + name in self.kb.range(_REGISTRY_PREFIX)

    # -- status and history ----------------------------------------------------------

    def update_status(self, name: str, status: dict[str, Any]) -> None:
        """Publish a telemetry snapshot and append it to local history.

        The snapshot is stamped with the Raft clock as read before the
        write; the KB value and the history entry are the same snapshot.
        """
        snapshot = {**status, "tick": self.kb.cluster.now}
        self.kb.put(_STATUS_PREFIX + name, snapshot)
        self._remember(name, snapshot)

    def update_statuses(self, statuses: dict[str, dict[str, Any]]) -> None:
        """Publish many snapshots as one consensus round.

        The whole batch is one guard-less transaction, so one Raft log
        entry, like etcd's batched Txn. Revisions and watch events are
        those of the same puts made one by one, in *statuses* order.
        Every snapshot is stamped with the Raft clock read once, before
        the round.
        """
        if not statuses:
            return
        tick = self.kb.cluster.now
        snapshots = {name: {**status, "tick": tick}
                     for name, status in statuses.items()}
        self.kb.txn([], on_success=[
            {"op": "put", "key": _STATUS_PREFIX + name, "value": snapshot}
            for name, snapshot in snapshots.items()])
        for name, snapshot in snapshots.items():
            self._remember(name, snapshot)

    def _remember(self, name: str, snapshot: dict[str, Any]) -> None:
        history = self._history.setdefault(
            name, deque(maxlen=self.history_limit))
        history.append(dict(snapshot))

    def status(self, name: str) -> dict[str, Any]:
        """Most recent telemetry snapshot for *name*."""
        try:
            return self.kb.get(_STATUS_PREFIX + name)
        except NotFoundError:
            raise NotFoundError(f"no status for component {name!r}") from None

    def history(self, name: str) -> list[dict[str, Any]]:
        """Bounded telemetry history (the KB's 'historical batch data')."""
        return list(self._history.get(name, []))
