"""repro-obs: inspect an exported trace JSONL.

Subcommands, all reading the unified trace a run exports with
``RuntimeContext.trace.export_jsonl`` (after calling
``snapshot_observability()`` so metric/profile snapshots are embedded):

- ``tree``      — causal span trees, one per trace id
- ``timeline``  — chronological publish log, or per-topic/layer summary
- ``metrics``   — Prometheus-style exposition of the metrics snapshot
- ``profile``   — DES profiler table + flamegraph-style aggregation
- ``shards``    — sharded-run barrier/straggler profile

Merged sharded exports (``ShardedContext.export_jsonl``, in process or
with workers) tag every row with its zone; ``tree`` annotates each span
node with it and ``--zone`` filters both ``tree`` and ``timeline`` to
one zone's slice of the run.

Everything is stdlib-only and renders from the file alone; no live
runtime objects are needed, so traces can be inspected long after (or
far away from) the run that produced them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.obs.metrics import METRICS_TOPIC, render_exposition
from repro.obs.profiler import PROFILE_TOPIC, SHARD_PROFILE_TOPIC
from repro.obs.spans import SPAN_TOPIC


def load_records(path: str) -> list[dict[str, Any]]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ---------------------------------------------------------------------------
# tree


def _span_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    spans = []
    for record in records:
        if record["topic"] != SPAN_TOPIC:
            continue
        span = record["payload"]
        span["_index"] = len(spans)
        # Merged sharded exports tag rows with the owning zone; plain
        # single-context exports have no zone key.
        span["_zone"] = record.get("zone")
        spans.append(span)
    return spans


def render_tree(records: list[dict[str, Any]],
                trace_id: Optional[str] = None,
                zone: Optional[str] = None) -> str:
    """Box-drawing span trees, one per trace id, chronological roots.

    *zone* keeps only the trees that touch that zone — a cross-shard
    tree shows whole (the point of span propagation is that one fault's
    consequences in other zones stay attached), trees entirely outside
    the zone are dropped.
    """
    spans = _span_records(records)
    if trace_id is not None:
        spans = [s for s in spans if s["trace_id"] == trace_id]
    if zone is not None:
        touching = {s["trace_id"] for s in spans if s["_zone"] == zone}
        spans = [s for s in spans if s["trace_id"] in touching]
    if not spans:
        return "(no spans)"

    by_id = {s["span_id"]: s for s in spans}
    children: dict[Optional[str], list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for span in spans:
        parent = span["parent_id"]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)

    # Spans land on the trace at their end instant, so file position is
    # completion order — the right tiebreaker when siblings share a
    # start time (common at zero-duration simulated instants).
    def start_key(span: dict[str, Any]):
        return (span.get("start_s") or 0.0, span["_index"])

    roots.sort(key=start_key)
    for kids in children.values():
        kids.sort(key=start_key)

    lines: list[str] = []

    def emit(span: dict[str, Any], prefix: str, is_last: bool,
             is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        status = "" if span["status"] == "ok" else f" [{span['status']}]"
        where = f" @{span['_zone']}" if span["_zone"] else ""
        lines.append(
            f"{prefix}{connector}{span['name']}{where} "
            f"({span['layer']}) "
            f"[{span['start_s']:.3f}s → {span['end_s']:.3f}s]{status}")
        kids = children.get(span["span_id"], ())
        child_prefix = prefix if is_root else (
            prefix + ("   " if is_last else "│  "))
        for i, kid in enumerate(kids):
            emit(kid, child_prefix, i == len(kids) - 1, False)

    for root in roots:
        lines.append(f"trace {root['trace_id']}")
        emit(root, "  ", True, True)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# timeline


_SNAPSHOT_TOPICS = frozenset({SPAN_TOPIC, METRICS_TOPIC, PROFILE_TOPIC,
                              SHARD_PROFILE_TOPIC})


def render_timeline(records: list[dict[str, Any]],
                    by: Optional[str] = None,
                    zone: Optional[str] = None) -> str:
    """Chronological publish log; ``by`` collapses to topic/layer counts
    and ``zone`` keeps only one zone's rows of a merged sharded export."""
    events = [r for r in records if r["topic"] not in _SNAPSHOT_TOPICS]
    if zone is not None:
        events = [r for r in events if r.get("zone") == zone]
    if not events:
        return "(no events)"
    if by is not None:
        counts: dict[str, int] = {}
        for record in events:
            key = record["topic"] if by == "topic" \
                else record["topic"].split(".", 1)[0]
            counts[key] = counts.get(key, 0) + 1
        width = max(len(k) for k in counts)
        return "\n".join(
            f"{key:<{width}}  {counts[key]}"
            for key in sorted(counts)) + "\n"
    lines = []
    for record in events:
        span = record.get("span")
        marker = f"  ⇐ {span['trace_id'][:8]}" if span else ""
        where = f"[{record['zone']}] " if record.get("zone") else ""
        lines.append(
            f"{record['time_s']:>10.3f}s  {where}{record['topic']}{marker}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics / profile


def _last_payload(records: list[dict[str, Any]],
                  topic: str) -> Optional[dict[str, Any]]:
    for record in reversed(records):
        if record["topic"] == topic:
            return record["payload"]
    return None


def render_metrics(records: list[dict[str, Any]]) -> str:
    payload = _last_payload(records, METRICS_TOPIC)
    if payload is None:
        return ("(no metrics snapshot; call "
                "ctx.snapshot_observability() before export)")
    return render_exposition(payload)


def render_profile(records: list[dict[str, Any]], width: int = 40) -> str:
    payload = _last_payload(records, PROFILE_TOPIC)
    if payload is None:
        return ("(no profile snapshot; install a DesProfiler and call "
                "ctx.snapshot_observability() before export)")
    rows = payload["rows"]
    if not rows:
        return "(profiler installed but no events executed)"
    total_wall = sum(r["wall_ns"] for r in rows.values()) or 1
    name_width = max(len(name) for name in rows)
    ordered = sorted(rows.items(),
                     key=lambda kv: (-kv[1]["wall_ns"], kv[0]))
    lines = [f"{'owner':<{name_width}}  {'events':>8}  "
             f"{'wall_ms':>10}  {'sim_s':>10}  share",
             "-" * (name_width + 42)]
    for name, row in ordered:
        share = row["wall_ns"] / total_wall
        lines.append(
            f"{name:<{name_width}}  {row['events']:>8}  "
            f"{row['wall_ns'] / 1e6:>10.3f}  {row['sim_s']:>10.3f}  "
            f"{share:>5.1%}")
    # Flamegraph-style two-level aggregation: kind → owner, bar width
    # proportional to wall share.
    lines.append("")
    kinds: dict[str, int] = {}
    for name, row in rows.items():
        kind = name.split(":", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + row["wall_ns"]
    for kind in sorted(kinds, key=lambda k: (-kinds[k], k)):
        bar = "█" * max(1, round(width * kinds[kind] / total_wall))
        lines.append(f"{kind:<{name_width}}  {bar}")
        for name, row in ordered:
            if name.split(":", 1)[0] != kind:
                continue
            sub = "▒" * max(1, round(width * row["wall_ns"] / total_wall))
            lines.append(f"  {name:<{name_width}}{sub}")
    return "\n".join(lines) + "\n"


def render_shards(records: list[dict[str, Any]], width: int = 40,
                  top: int = 5) -> str:
    """Sharded-run barrier/straggler profile (``obs.shard_profile``).

    Per-shard totals — advance wall time, barrier wait, relay
    injections, critical-path epochs — with an advance-share bar, then
    the *top* straggler epochs (largest barrier wait, i.e. the epochs
    where the fleet idled longest on one slow shard).
    """
    payload = _last_payload(records, SHARD_PROFILE_TOPIC)
    if payload is None:
        return ("(no shard profile; run the sharded backend with "
                "profile=True and export with observability=True)")
    epochs = payload["epochs"]
    shards = payload["shards"]
    lines = [f"shard profile: {payload['backend']} backend, "
             f"{payload['n_shards']} shards, {len(epochs)} epochs"]
    if not epochs:
        return lines[0] + "\n(no epochs recorded)\n"
    total_advance = sum(s["advance_ns"] for s in shards) or 1
    lines += ["",
              f"{'shard':>5}  {'advance_ms':>10}  {'wait_ms':>10}  "
              f"{'relay':>7}  {'critical':>8}  share",
              "-" * (5 + 10 + 10 + 7 + 8 + 8 + 8)]
    for index, row in enumerate(shards):
        share = row["advance_ns"] / total_advance
        bar = "█" * max(1, round(width * share))
        lines.append(
            f"{index:>5}  {row['advance_ns'] / 1e6:>10.3f}  "
            f"{row['wait_ns'] / 1e6:>10.3f}  {row['relay']:>7}  "
            f"{row['critical_epochs']:>8}  {bar}")
    stragglers = sorted(epochs, key=lambda e: -max(e["wait_ns"]))[:top]
    lines += ["", f"top {len(stragglers)} straggler epochs "
              "(largest barrier wait):",
              f"{'epoch':>6}  {'t_s':>10}  {'critical':>8}  "
              f"{'slowest_ms':>10}  {'max_wait_ms':>11}",
              "-" * (6 + 10 + 8 + 10 + 11 + 8)]
    for row in stragglers:
        lines.append(
            f"{row['epoch']:>6}  {row['t_s']:>10.3f}  "
            f"{row['critical']:>8}  "
            f"{max(row['advance_ns']) / 1e6:>10.3f}  "
            f"{max(row['wait_ns']) / 1e6:>11.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect an exported repro trace JSONL.")
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="render causal span trees")
    tree.add_argument("trace", help="path to trace JSONL")
    tree.add_argument("--trace-id", default=None,
                      help="only the tree with this trace id")
    tree.add_argument("--zone", default=None,
                      help="only trees touching this zone "
                           "(merged sharded exports)")

    timeline = sub.add_parser("timeline", help="chronological event log")
    timeline.add_argument("trace", help="path to trace JSONL")
    timeline.add_argument("--by", choices=("topic", "layer"), default=None,
                          help="collapse to per-topic/per-layer counts")
    timeline.add_argument("--zone", default=None,
                          help="only this zone's rows "
                               "(merged sharded exports)")

    metrics = sub.add_parser("metrics",
                             help="Prometheus-style metrics exposition")
    metrics.add_argument("trace", help="path to trace JSONL")

    profile = sub.add_parser("profile", help="DES profiler aggregation")
    profile.add_argument("trace", help="path to trace JSONL")

    shards = sub.add_parser(
        "shards", help="sharded-run barrier/straggler profile")
    shards.add_argument("trace", help="path to trace JSONL")
    shards.add_argument("--top", type=int, default=5,
                        help="straggler epochs to list (default 5)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = load_records(args.trace)
    except OSError as exc:
        print(f"repro-obs: cannot read {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    if args.command == "tree":
        out = render_tree(records, trace_id=args.trace_id, zone=args.zone)
    elif args.command == "timeline":
        out = render_timeline(records, by=args.by, zone=args.zone)
    elif args.command == "metrics":
        out = render_metrics(records)
    elif args.command == "shards":
        out = render_shards(records, top=args.top)
    else:
        out = render_profile(records)
    print(out, end="" if out.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
