"""Command line for the analysis subsystem.

Lint + flow mode (the default)::

    python -m repro.analysis                 # report against baseline
    python -m repro.analysis --check         # exit 1 on new findings
    python -m repro.analysis --write-baseline
    python -m repro.analysis --json src/repro/kb

Topic-graph mode::

    python -m repro.analysis graph                # JSON topic graph
    python -m repro.analysis graph --format dot   # Graphviz DOT

TOSCA mode::

    python -m repro.analysis tosca service.yaml
    python -m repro.analysis tosca package.csar

The default run merges continuum-lint findings with the whole-program
flow analyses (topic contracts, DES generator rules) and diffs the
union against one baseline. The engines share one in-memory parse
cache, so each file is parsed once per run; a run writes no file
unless asked to (``--write-baseline``).

Exit codes: 0 = clean (or everything baselined), 1 = new blocking
findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.cache import ParseCache
from repro.analysis.config import load_config
from repro.analysis.findings import Baseline, Severity
from repro.analysis.reporters import render_findings, render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Static analysis for the MYRTUS reproduction "
                    "(continuum-lint, topic-flow/DES contracts, "
                    "TOSCA checking).")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to lint (default: configured "
                             "paths), 'graph' for the topic graph, or "
                             "'tosca FILE' for template mode")
    parser.add_argument("--root", default=".",
                        help="repo root (where pyproject.toml and the "
                             "baseline live)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when new findings exist")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept the current findings as baseline")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default from config)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all enabled)")
    parser.add_argument("--format", default="json",
                        choices=("json", "dot"),
                        help="graph mode output format")
    parser.add_argument("--verbose", action="store_true",
                        help="also list baselined findings")
    return parser


def _run_tosca(paths: list[str], as_json: bool) -> int:
    from repro.analysis.tosca_check import check_csar_bytes, check_service
    from repro.core.errors import ValidationError
    from repro.tosca.parser import parse_service_template

    if not paths:
        print("tosca mode needs at least one file", file=sys.stderr)
        return 2
    findings = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            print(f"no such file: {path}", file=sys.stderr)
            return 2
        if path.suffix in (".csar", ".zip"):
            findings += check_csar_bytes(path.read_bytes(), str(path))
        else:
            try:
                service = parse_service_template(path.read_text())
            except (ValidationError, UnicodeDecodeError) as exc:
                print(f"{path}: cannot parse: {exc}", file=sys.stderr)
                return 1
            findings += check_service(service, str(path))
    if as_json:
        import json as json_module
        print(json_module.dumps([f.as_dict() for f in findings],
                                indent=2))
    else:
        print(render_findings(findings))
    blocking = [f for f in findings if f.severity != Severity.INFO]
    return 1 if blocking else 0


def _run_graph(args) -> int:
    import json as json_module

    from repro.analysis.flow import (build_topic_graph, graph_to_dot,
                                     load_project)

    graph = build_topic_graph(load_project(load_config(args.root)))
    if args.format == "dot":
        print(graph_to_dot(graph), end="")
    else:
        print(json_module.dumps(graph, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.paths and args.paths[0] == "tosca":
        return _run_tosca(args.paths[1:], args.json)
    if args.paths and args.paths[0] == "graph":
        if len(args.paths) > 1:
            print("graph mode takes no paths", file=sys.stderr)
            return 2
        return _run_graph(args)

    from repro.analysis.flow import FLOW_RULES, run_flow
    from repro.analysis.lint import LintEngine, all_rules

    config = load_config(args.root)
    only_rules = None
    if args.rules:
        only_rules = {r.strip() for r in args.rules.split(",")
                      if r.strip()}
        known = set(all_rules()) | FLOW_RULES
        unknown = only_rules - known
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}; "
                  f"available: {', '.join(sorted(known))}",
                  file=sys.stderr)
            return 2
    for raw in args.paths:
        if not Path(raw).exists():
            print(f"no such path: {raw}", file=sys.stderr)
            return 2
    cache = ParseCache()
    engine = LintEngine(config, only_rules=only_rules, cache=cache)
    findings = engine.run(args.paths or None)
    # The flow analyses are whole-program: they run on the configured
    # flow paths (not the lint path selection) unless rule-filtered out.
    if only_rules is None or only_rules & FLOW_RULES:
        findings = findings + run_flow(config, cache=cache,
                                       only_rules=only_rules)
    findings.sort(key=lambda f: (f.path, f.line, f.tool, f.rule,
                                 f.occurrence))

    baseline_path = Path(args.baseline) if args.baseline \
        else config.baseline_path
    if args.write_baseline:
        Baseline.write(baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0
    baseline = Baseline.load(baseline_path)
    diff = baseline.diff(findings)
    print(render_json(diff) if args.json
          else render_text(diff, verbose=args.verbose))
    if args.check and diff.blocking:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
