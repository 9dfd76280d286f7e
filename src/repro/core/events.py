"""In-process publish/subscribe event bus.

Used for loose coupling between subsystems: monitors publish telemetry,
MIRTO agents subscribe to triggers, the kube control plane publishes
object-change notifications. Topics are dotted names; subscription
patterns may use ``*`` (exactly one segment) and ``**`` (any number of
segments, anywhere in the pattern).

Dispatch is index-based: patterns are compiled once at subscribe time —
wildcard-free patterns land in an exact-topic dict, wildcard patterns
get a specialized matcher (prefix test for trailing ``**``, fixed-length
segment walk for ``*``-only, an iterative NFA with literal prefix/suffix
guards for mid-pattern ``**``) and are bucketed by their literal first
segment so a topic is only tested against wildcards that could match it
— and per-topic delivery lists are cached on the bus, invalidated on
every subscribe/unsubscribe. Publishing to a previously seen topic is a
dict lookup plus the handler calls, independent of how many
subscriptions exist.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Optional

Handler = Callable[[str, Any], None]

#: Bound on the per-bus topic -> delivery-list cache. Real topic
#: vocabularies are small; the bound only guards against unbounded
#: growth when topics embed identifiers.
_DISPATCH_CACHE_MAX = 4096

_by_order = attrgetter("order")


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; use to unsubscribe."""

    __slots__ = ("pattern", "handler", "active", "order", "matcher")

    def __init__(self, pattern: str, handler: Handler,
                 active: bool = True, order: int = 0):
        self.pattern = pattern
        self.handler = handler
        self.active = active
        #: Bus-wide subscription sequence number; delivery order.
        self.order = order
        #: Compiled matcher (None means the pattern is wildcard-free).
        self.matcher: Optional[Callable[[str], bool]] = \
            compile_pattern(pattern)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "inactive"
        return f"Subscription({self.pattern!r}, {state})"


def topic_matches(pattern: str, topic: str) -> bool:
    """Return True when dotted *topic* matches *pattern*.

    A pattern segment of ``*`` matches exactly one topic segment; a
    ``**`` segment matches any number of segments (including none) and
    may appear anywhere — ``a.**.z`` matches ``a.z``, ``a.b.z`` and
    ``a.b.c.z`` but not ``a.b.c``.
    """
    matcher = compile_pattern(pattern)
    if matcher is None:
        return pattern == topic
    return matcher(topic)


@lru_cache(maxsize=4096)
def compile_pattern(pattern: str) -> Optional[Callable[[str], bool]]:
    """Compile *pattern* to a matcher callable, or None when exact.

    This is THE pattern-compiler: the bus dispatches through it at
    subscribe time, and the static topic-flow analyzer
    (:mod:`repro.analysis.flow`) imports it so compile-time matching
    can never drift from runtime delivery semantics.

    Specializations, cheapest first: wildcard-free patterns need no
    matcher at all (the bus indexes them by topic); a single trailing
    ``**`` reduces to a string-prefix test; ``*``-only patterns to a
    fixed-length segment walk; anything with a mid-pattern ``**`` runs
    the iterative NFA.
    """
    segs = pattern.split(".")
    has_star = "*" in segs
    has_glob = "**" in segs
    if not has_star and not has_glob:
        return None
    if has_glob and not has_star and segs[-1] == "**" \
            and "**" not in segs[:-1]:
        if len(segs) == 1:  # bare "**" matches every topic
            return lambda topic: True
        prefix = ".".join(segs[:-1])
        prefix_dot = prefix + "."
        return lambda topic: (topic == prefix
                              or topic.startswith(prefix_dot))
    if not has_glob:
        n = len(segs)

        def match_stars(topic: str, _segs=segs, _n=n) -> bool:
            tops = topic.split(".")
            if len(tops) != _n:
                return False
            for p, t in zip(_segs, tops):
                if p != t and p != "*":
                    return False
            return True
        return match_stars

    # Mid-pattern ``**``: guard the NFA walk with the pattern's literal
    # prefix (segments before the first wildcard) and literal suffix
    # (segments after the last wildcard). Both are implied by the NFA
    # semantics — a topic failing either can never match — and each is
    # a single C-level string test, so non-matching topics skip the
    # set-of-states simulation entirely.
    lead = 0
    while segs[lead] != "*" and segs[lead] != "**":
        lead += 1
    prefix_dot = ".".join(segs[:lead]) + "." if lead else ""
    tail = len(segs)
    while segs[tail - 1] != "*" and segs[tail - 1] != "**":
        tail -= 1
    suffix = ".".join(segs[tail:])
    suffix_dot = "." + suffix

    def match_nfa(topic: str, _segs=segs, _pre=prefix_dot,
                  _suf=suffix, _sufd=suffix_dot) -> bool:
        if _pre and not topic.startswith(_pre):
            return False
        if _suf and topic != _suf and not topic.endswith(_sufd):
            return False
        return _nfa_match(_segs, topic.split("."))
    return match_nfa


def _nfa_match(segs: list[str], tops: list[str]) -> bool:
    """Iterative set-of-states simulation for patterns with ``**``.

    States are indices into *segs*; ``**`` adds an epsilon edge to the
    next index (zero segments) and a self loop (consume one segment).
    O(len(tops) * len(segs)) worst case, no recursion.
    """
    n = len(segs)
    states = _epsilon_closure({0}, segs, n)
    for top in tops:
        nxt = set()
        for s in states:
            if s >= n:
                continue
            seg = segs[s]
            if seg == "**":
                nxt.add(s)  # consume this topic segment, stay in **
            elif seg == "*" or seg == top:
                nxt.add(s + 1)
        if not nxt:
            return False
        states = _epsilon_closure(nxt, segs, n)
    return n in states


def _epsilon_closure(states: set[int], segs: list[str], n: int) -> set[int]:
    stack = list(states)
    while stack:
        s = stack.pop()
        if s < n and segs[s] == "**" and s + 1 not in states:
            states.add(s + 1)
            stack.append(s + 1)
    return states


class EventBus:
    """Synchronous topic-based event dispatcher with a compiled index."""

    def __init__(self):
        #: All live + tombstoned subscriptions, insertion order.
        self._subs: list[Subscription] = []
        #: Exact (wildcard-free) patterns: topic -> subscriptions.
        self._exact: dict[str, list[Subscription]] = {}
        #: Wildcard subscriptions whose first segment is a literal,
        #: bucketed by that segment: only topics sharing the segment can
        #: match, so dispatch for a topic probes one bucket instead of
        #: walking every wildcard subscription.
        self._wild_first: dict[str, list[Subscription]] = {}
        #: Wildcard subscriptions starting with ``*``/``**`` — the only
        #: ones every topic must be tested against.
        self._wild_any: list[Subscription] = []
        #: topic -> ordered tuple of matching subscriptions (bounded).
        self._dispatch_cache: dict[str, tuple[Subscription, ...]] = {}
        self._order = 0
        self._dead = 0
        self._delivered = 0

    def subscribe(self, pattern: str, handler: Handler) -> Subscription:
        """Register *handler* for topics matching *pattern*."""
        sub = Subscription(pattern, handler, order=self._order)
        self._order += 1
        self._subs.append(sub)
        self._index(sub)
        self._dispatch_cache.clear()
        return sub

    def _index(self, sub: Subscription) -> None:
        """File *sub* in the exact dict or a wildcard bucket."""
        if sub.matcher is None:
            self._exact.setdefault(sub.pattern, []).append(sub)
            return
        first = sub.pattern.split(".", 1)[0]
        if first == "*" or first == "**":
            self._wild_any.append(sub)
        else:
            self._wild_first.setdefault(first, []).append(sub)

    def unsubscribe(self, sub: Subscription) -> None:
        """Deactivate a subscription; it will receive no further events.

        O(1) amortized: the subscription is tombstoned (``active=False``
        — publish skips it without a match attempt) and the index is
        compacted once tombstones outnumber live entries.
        """
        if not sub.active:
            return
        sub.active = False
        self._dead += 1
        self._dispatch_cache.clear()
        if self._dead * 2 > len(self._subs):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned subscriptions and rebuild the index."""
        live = [s for s in self._subs if s.active]
        self._subs = live
        self._exact = {}
        self._wild_first = {}
        self._wild_any = []
        for sub in live:
            self._index(sub)
        self._dead = 0

    def publish(self, topic: str, payload: Any = None) -> int:  # perf: hot
        """Deliver *payload* to all matching subscribers.

        Returns the number of handlers invoked. Handlers run synchronously
        in subscription order; a handler added during delivery only sees
        later events.
        """
        subs = self._dispatch_cache.get(topic)
        if subs is None:
            subs = self._build_dispatch(topic)
        delivered = 0
        for sub in subs:
            if sub.active:
                sub.handler(topic, payload)
                delivered += 1
        self._delivered += delivered
        return delivered

    def _build_dispatch(self, topic: str) -> tuple[Subscription, ...]:
        """Resolve and cache the delivery list for *topic*."""
        matched = [s for s in self._exact.get(topic, ()) if s.active]
        bucket = self._wild_first.get(topic.split(".", 1)[0])
        if bucket is not None:
            for sub in bucket:
                if sub.active and sub.matcher(topic):
                    matched.append(sub)
        for sub in self._wild_any:
            if sub.active and sub.matcher(topic):
                matched.append(sub)
        matched.sort(key=_by_order)
        subs = tuple(matched)
        if len(self._dispatch_cache) >= _DISPATCH_CACHE_MAX:
            self._dispatch_cache.clear()
        self._dispatch_cache[topic] = subs
        return subs

    @property
    def total_delivered(self) -> int:
        """Total number of handler invocations since construction."""
        return self._delivered
