"""End-to-end checks of the `python -m repro.analysis` CLI.

This is the acceptance gate: the repo must lint clean against its
committed baseline, and a planted violation must fail `--check`.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})


class TestSelfLint:
    def test_repo_passes_check_against_baseline(self):
        result = run_cli("--check")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_planted_violation_fails_check(self, tmp_path):
        bad = tmp_path / "planted.py"
        bad.write_text("import random\nx = random.random()\n")
        result = run_cli("--check", "--root", str(REPO_ROOT), str(bad))
        assert result.returncode == 1
        assert "global-random" in result.stdout

    def test_planted_violation_visible_in_json(self, tmp_path):
        bad = tmp_path / "planted.py"
        bad.write_text("import random\nx = random.random()\n")
        result = run_cli("--json", "--root", str(REPO_ROOT), str(bad))
        payload = json.loads(result.stdout)
        assert payload["summary"]["new"] == 1
        assert payload["new"][0]["rule"] == "global-random"

    def test_write_baseline_then_check_passes(self, tmp_path):
        bad = tmp_path / "planted.py"
        bad.write_text("import random\nx = random.random()\n")
        baseline = tmp_path / "baseline.json"
        result = run_cli("--write-baseline", "--baseline", str(baseline),
                         "--root", str(REPO_ROOT), str(bad))
        assert result.returncode == 0
        result = run_cli("--check", "--baseline", str(baseline),
                         "--root", str(REPO_ROOT), str(bad))
        assert result.returncode == 0

    def test_run_writes_no_file_under_root(self, tmp_path):
        # The parse cache lives in memory: neither a lint + flow run
        # nor a graph run leaves a file (such as the retired
        # .repro-analysis-cache pickle) in the tree it analyzed.
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "clean.py").write_text("def f(x):\n    return x\n")
        before = sorted(tmp_path.rglob("*"))
        result = run_cli("--check", "--root", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        result = run_cli("graph", "--root", str(tmp_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert sorted(tmp_path.rglob("*")) == before

    def test_unknown_rule_is_usage_error(self):
        result = run_cli("--rules", "no-such-rule")
        assert result.returncode == 2

    def test_nonexistent_path_is_usage_error(self):
        result = run_cli("--check", "/no/such/dir")
        assert result.returncode == 2
        assert "no such path" in result.stderr

    def test_rule_filter_runs_subset(self, tmp_path):
        bad = tmp_path / "planted.py"
        bad.write_text("import random\nx = random.random()\n"
                       "def f(items=[]):\n    return items\n")
        result = run_cli("--json", "--rules", "mutable-default",
                         "--root", str(REPO_ROOT), str(bad))
        payload = json.loads(result.stdout)
        rules = {f["rule"] for f in payload["new"]}
        assert rules == {"mutable-default"}


class TestToscaMode:
    def test_valid_template_exits_zero(self, tmp_path):
        template = tmp_path / "svc.yaml"
        template.write_text("""
tosca_definitions_version: myrtus_tosca_1_0
metadata: {template_name: demo}
topology_template:
  node_templates:
    edge1:
      type: myrtus.nodes.EdgeDevice
      properties: {device_kind: gateway}
    app:
      type: myrtus.nodes.Container
      properties:
        image: registry/app:1
        cpu_millicores: 250
        memory_bytes: 1048576
      requirements:
        - host: edge1
""")
        result = run_cli("tosca", str(template))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_dangling_target_exits_nonzero(self, tmp_path):
        template = tmp_path / "svc.yaml"
        template.write_text("""
tosca_definitions_version: myrtus_tosca_1_0
metadata: {template_name: demo}
topology_template:
  node_templates:
    app:
      type: myrtus.nodes.Container
      properties:
        image: registry/app:1
        cpu_millicores: 250
        memory_bytes: 1048576
      requirements:
        - host: missing-host
""")
        result = run_cli("tosca", str(template))
        assert result.returncode == 1
        assert "unknown template" in result.stdout

    def test_malformed_templates_cannot_parse(self, tmp_path):
        bad_section = tmp_path / "section.yaml"
        bad_section.write_text("tosca_definitions_version: myrtus_tosca_1_0\n"
                               "metadata: oops\n"
                               "topology_template: {}\n")
        not_utf8 = tmp_path / "bytes.yaml"
        not_utf8.write_bytes(b"\xff\xfe")
        for template in (bad_section, not_utf8):
            result = run_cli("tosca", str(template))
            assert result.returncode == 1
            assert "cannot parse" in result.stderr
            assert "Traceback" not in result.stderr

    def test_missing_file_is_usage_error(self):
        result = run_cli("tosca", "/no/such/file.yaml")
        assert result.returncode == 2


class TestBaselineFile:
    def test_committed_baseline_is_empty(self):
        # all pre-existing findings were fixed in this PR, so the
        # committed baseline must carry zero accepted findings
        data = json.loads((REPO_ROOT / "analysis-baseline.json")
                          .read_text())
        assert data["version"] == 1
        assert data["entries"] == []
