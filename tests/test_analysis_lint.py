"""Unit tests for the continuum-lint rules, pragmas, and baseline."""

import textwrap

from repro.analysis import AnalysisConfig, Baseline, Finding, Severity
from repro.analysis.lint import LintEngine, all_rules

SIM_PATH = "src/repro/continuum/sim.py"
PLAIN_PATH = "src/repro/dpe/tool.py"


def lint(source: str, path: str = PLAIN_PATH, **config_kwargs):
    engine = LintEngine(AnalysisConfig(**config_kwargs))
    return engine.lint_source(textwrap.dedent(source), path)


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestGlobalRandomRule:
    def test_module_level_call_flagged(self):
        findings = lint("""
            import random
            x = random.random()
        """)
        assert rules_of(findings) == ["global-random"]
        assert findings[0].line == 3

    def test_aliased_import_flagged(self):
        findings = lint("""
            import random as rnd
            pick = rnd.choice([1, 2, 3])
        """)
        assert rules_of(findings) == ["global-random"]

    def test_from_import_flagged(self):
        findings = lint("""
            from random import randint
            n = randint(1, 6)
        """)
        assert rules_of(findings) == ["global-random"]

    def test_numpy_global_state_flagged(self):
        findings = lint("""
            import numpy as np
            np.random.seed(0)
            v = np.random.normal(0.0, 1.0)
        """)
        assert rules_of(findings) == ["global-random", "global-random"]

    def test_unseeded_generators_flagged(self):
        findings = lint("""
            import random
            import numpy as np
            a = random.Random()
            b = np.random.default_rng()
        """)
        assert rules_of(findings) == ["global-random", "global-random"]

    def test_seeded_generators_ok(self):
        findings = lint("""
            import random
            import numpy as np
            a = random.Random(42)
            b = np.random.default_rng(7)
        """)
        assert findings == []

    def test_instance_stream_ok(self):
        findings = lint("""
            def roll(rng):
                return rng.random()
        """)
        assert findings == []

    def test_allowlisted_file_ok(self):
        findings = lint("""
            import random
            x = random.random()
        """, path="src/repro/core/rng.py")
        assert findings == []


class TestWallClockRule:
    def test_time_in_simulation_code_flagged(self):
        findings = lint("""
            import time
            now = time.time()
        """, path=SIM_PATH)
        assert rules_of(findings) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        findings = lint("""
            from datetime import datetime
            stamp = datetime.now()
        """, path=SIM_PATH)
        assert rules_of(findings) == ["wall-clock"]

    def test_outside_simulation_packages_ok(self):
        findings = lint("""
            import time
            now = time.time()
        """, path=PLAIN_PATH)
        assert findings == []

    def test_every_simulation_package_covered(self):
        for pkg in ("continuum", "kube", "kb", "mirto"):
            findings = lint("""
                import time
                now = time.monotonic()
            """, path=f"src/repro/{pkg}/mod.py")
            assert rules_of(findings) == ["wall-clock"], pkg


class TestMutableDefaultRule:
    def test_list_literal_flagged(self):
        findings = lint("""
            def collect(items=[]):
                return items
        """)
        assert rules_of(findings) == ["mutable-default"]
        assert findings[0].severity == Severity.WARNING

    def test_kwonly_dict_flagged(self):
        findings = lint("""
            def configure(*, options={}):
                return options
        """)
        assert rules_of(findings) == ["mutable-default"]

    def test_constructor_call_flagged(self):
        findings = lint("""
            def merge(extra=dict()):
                return extra
        """)
        assert rules_of(findings) == ["mutable-default"]

    def test_none_default_ok(self):
        findings = lint("""
            def collect(items=None):
                return items or []
        """)
        assert findings == []


class TestOverbroadExceptRule:
    def test_bare_except_flagged(self):
        findings = lint("""
            try:
                work()
            except:
                pass
        """)
        assert rules_of(findings) == ["overbroad-except"]

    def test_swallowing_broad_except_flagged(self):
        findings = lint("""
            try:
                work()
            except Exception:
                pass
        """)
        assert rules_of(findings) == ["overbroad-except"]

    def test_broad_except_with_handling_ok(self):
        findings = lint("""
            try:
                work()
            except Exception as exc:
                log(exc)
                raise
        """)
        assert findings == []

    def test_narrow_except_ok(self):
        findings = lint("""
            try:
                work()
            except ValueError:
                pass
        """)
        assert findings == []


class TestSeedEntropyRule:
    def test_float_seed_flagged(self):
        findings = lint("""
            import random
            def child(rng):
                return random.Random(rng.random())
        """)
        assert "seed-entropy" in rules_of(findings)

    def test_hash_seed_flagged(self):
        findings = lint("""
            import random
            def child(name):
                return random.Random(hash(name) & 0xFFFF)
        """)
        assert rules_of(findings) == ["seed-entropy"]

    def test_wall_clock_seed_flagged(self):
        findings = lint("""
            import random
            import time
            def fresh():
                return random.Random(time.time())
        """)
        assert "seed-entropy" in rules_of(findings)

    def test_reseed_method_flagged(self):
        findings = lint("""
            def reseed(rng, other):
                rng.seed(other.random())
        """)
        assert rules_of(findings) == ["seed-entropy"]

    def test_derive_seed_ok(self):
        findings = lint("""
            import random
            from repro.core.rng import derive_seed
            def child(root, name):
                return random.Random(derive_seed(root, name))
        """)
        assert findings == []


class TestRuntimeConstructionRule:
    def test_direct_simulator_flagged(self):
        findings = lint("""
            from repro.continuum.simulator import Simulator
            sim = Simulator()
        """)
        assert rules_of(findings) == ["runtime-construction"]
        assert "RuntimeContext" in findings[0].message

    def test_package_reexport_flagged(self):
        findings = lint("""
            from repro.continuum import Simulator
            sim = Simulator(start_time=5.0)
        """)
        assert rules_of(findings) == ["runtime-construction"]

    def test_direct_eventbus_flagged(self):
        findings = lint("""
            from repro.core.events import EventBus
            bus = EventBus()
        """)
        assert rules_of(findings) == ["runtime-construction"]

    def test_aliased_import_flagged(self):
        findings = lint("""
            from repro.core.events import EventBus as Bus
            bus = Bus()
        """)
        assert rules_of(findings) == ["runtime-construction"]

    def test_runtime_layer_allowed(self):
        findings = lint("""
            from repro.continuum.simulator import Simulator
            sim = Simulator()
        """, path="src/repro/runtime/context.py")
        assert findings == []

    def test_tests_allowed(self):
        findings = lint("""
            from repro.core.events import EventBus
            bus = EventBus()
        """, path="tests/test_events.py")
        assert findings == []

    def test_context_injection_ok(self):
        findings = lint("""
            from repro.runtime import RuntimeContext

            def build(ctx: RuntimeContext):
                return ctx.sim, ctx.bus
        """)
        assert findings == []


class TestHotPathAllocationRule:
    def test_comprehension_in_hot_function_flagged(self):
        findings = lint("""
            def dispatch(self, subs):  # perf: hot
                return [s for s in subs if s.active]
        """)
        assert rules_of(findings) == ["hot-path-allocation"]

    def test_list_copy_in_hot_function_flagged(self):
        findings = lint("""
            def publish(self, subs):  # perf: hot
                for sub in list(subs):
                    sub()
        """)
        assert rules_of(findings) == ["hot-path-allocation"]

    def test_dict_comprehension_flagged(self):
        findings = lint("""
            def index(self, subs):  # perf: hot
                return {s.name: s for s in subs}
        """)
        assert rules_of(findings) == ["hot-path-allocation"]

    def test_unmarked_function_not_flagged(self):
        findings = lint("""
            def dispatch(self, subs):
                return [s for s in subs if s.active]
        """)
        assert findings == []

    def test_empty_list_call_ok(self):
        findings = lint("""
            def publish(self):  # perf: hot
                out = list()
                out.append(1)
                return out
        """)
        assert findings == []

    def test_nested_function_not_charged_to_hot_parent(self):
        findings = lint("""
            def compile(self, options):  # perf: hot
                def cold(xs):
                    return [x for x in xs]
                return cold
        """)
        assert findings == []

    def test_pragma_on_later_signature_line(self):
        findings = lint("""
            def estimate(self, application,
                         infrastructure):  # perf: hot
                return [t for t in application]
        """)
        assert rules_of(findings) == ["hot-path-allocation"]


class TestPragmas:
    SOURCE = """
        import random
        x = random.random()  # continuum-lint: disable=global-random
        y = random.random()
    """

    def test_line_pragma_suppresses_one_line(self):
        findings = lint(self.SOURCE)
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_bare_disable_suppresses_all_rules_on_line(self):
        findings = lint("""
            import random
            x = random.random()  # continuum-lint: disable
        """)
        assert findings == []

    def test_file_pragma_suppresses_rule_everywhere(self):
        findings = lint("""
            # continuum-lint: disable-file=global-random
            import random
            x = random.random()
            y = random.random()
        """)
        assert findings == []

    def test_file_pragma_leaves_other_rules_active(self):
        findings = lint("""
            # continuum-lint: disable-file=global-random
            import random
            x = random.random()
            def f(items=[]):
                return items
        """)
        assert rules_of(findings) == ["mutable-default"]

    def test_disable_config_turns_rule_off(self):
        findings = lint("""
            import random
            x = random.random()
        """, disable=["global-random"])
        assert findings == []


class TestBaseline:
    def _findings(self, source):
        return lint(source)

    def test_identical_findings_get_distinct_fingerprints(self):
        findings = self._findings("""
            import random
            a = random.random()
            b = random.random()
        """)
        # same stripped context on both lines would collide without
        # occurrence numbering
        assert len({f.fingerprint for f in findings}) == 2

    def test_diff_partitions_new_and_baselined(self, tmp_path):
        first = self._findings("""
            import random
            a = random.random()
        """)
        baseline_file = tmp_path / "baseline.json"
        Baseline.write(baseline_file, first)
        both = self._findings("""
            import random
            a = random.random()
            b = np_missing = random.randint(0, 3)
        """)
        diff = Baseline.load(baseline_file).diff(both)
        assert len(diff.baselined) == 1
        assert len(diff.new) == 1
        assert diff.new[0].rule == "global-random"

    def test_fixed_entries_reported(self, tmp_path):
        first = self._findings("""
            import random
            a = random.random()
        """)
        baseline_file = tmp_path / "baseline.json"
        Baseline.write(baseline_file, first)
        diff = Baseline.load(baseline_file).diff([])
        assert len(diff.fixed) == 1
        assert diff.new == [] and diff.baselined == []

    def test_info_findings_never_block(self):
        finding = Finding(tool="lint", rule="x", path="p", line=1,
                          message="m", severity=Severity.INFO)
        diff = Baseline().diff([finding])
        assert diff.new == [finding]
        assert diff.blocking == []


class TestPrintTelemetryRule:
    def test_print_flagged_in_library_code(self):
        findings = lint("""
            def report(value):
                print("value is", value)
        """)
        assert rules_of(findings) == ["print-telemetry"]
        assert findings[0].line == 3

    def test_rendering_clis_allowlisted_by_default(self):
        findings = lint("""
            print("rendered output")
        """, path="src/repro/obs/cli.py")
        assert findings == []
        findings = lint("""
            print("findings table")
        """, path="src/repro/analysis/cli.py")
        assert findings == []

    def test_configured_allowlist_entry(self):
        source = """
            print("ok here")
        """
        assert rules_of(lint(source)) == ["print-telemetry"]
        assert lint(source, print_allowlist=["dpe/tool.py"]) == []

    def test_directory_allowlist_entry(self):
        findings = lint("""
            print("anywhere in the package")
        """, path="src/repro/dpe/deep/tool.py",
            print_allowlist=["dpe/"])
        assert findings == []

    def test_method_named_print_not_flagged(self):
        findings = lint("""
            def export(doc):
                doc.print("page 1")
        """)
        assert findings == []


class TestEngine:
    def test_all_expected_rules_registered(self):
        assert {"global-random", "wall-clock", "mutable-default",
                "overbroad-except", "seed-entropy",
                "runtime-construction", "print-telemetry",
                "hot-path-allocation"} <= set(all_rules())

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == ["syntax-error"]

    def test_directory_run_respects_excludes(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "continuum"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\nx = random.random()\n")
        config = AnalysisConfig(root=tmp_path, paths=["src/repro"])
        assert len(LintEngine(config).run()) == 1
        config = AnalysisConfig(root=tmp_path, paths=["src/repro"],
                                exclude=["src/repro/continuum"])
        assert LintEngine(config).run() == []
