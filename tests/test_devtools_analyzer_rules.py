"""Per-rule snippet tests for the analyzer's file-scoped rules.

Each rule gets positive snippets (must fire) and silent ones (must stay
quiet).  Every snippet is analyzed as a source *overlay* placed at the
path of a module under test (``repro.obs.example`` by default), through
the same :func:`~repro.devtools.analyzer.analyze` driver the CLI uses,
so module scoping, sanctuary modules and waivers behave exactly as on
the real tree.
"""

import re
import textwrap

import pytest

from repro.devtools.analyzer import RULES, AnalyzerReport, Finding, analyze


def _path_for(module):
    parts = module.split(".")
    root = "src/" if parts[0] == "repro" else ""
    return root + "/".join(parts) + ".py"


def lint(source, module="repro.obs.example", **kwargs):
    # Default module sits outside the P7 packages, inside D2's repro.* scope.
    overlay = {_path_for(module): textwrap.dedent(source)}
    return list(analyze([], overlay=overlay, docs={}, **kwargs).findings)


def rules_of(findings):
    return [f.rule for f in findings]


class TestP2Entropy:
    def test_import_random_fires(self):
        findings = lint("import random\n")
        assert "P2" in rules_of(findings)

    def test_from_random_import_fires(self):
        findings = lint("from random import choice\n")
        assert "P2" in rules_of(findings)

    def test_numpy_random_attribute_fires(self):
        findings = lint(
            """
            import numpy as np

            def draw():
                return np.random.random()
            """
        )
        assert "P2" in rules_of(findings)

    def test_default_rng_fires(self):
        findings = lint(
            """
            from numpy.random import default_rng

            GEN = default_rng(7)
            """
        )
        assert "P2" in rules_of(findings)

    def test_allowlisted_module_is_silent(self):
        findings = lint("import random\n", module="repro.simcore.rng")
        assert "P2" not in rules_of(findings)

    def test_seeded_rng_use_is_silent(self):
        findings = lint(
            """
            from repro.simcore import SeededRng

            def draw(rng: SeededRng) -> float:
                return rng.uniform()
            """
        )
        assert findings == []

    def test_explicitly_seeded_generator_call_is_silent(self):
        findings = lint(
            """
            import numpy as np

            def stream(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []


class TestP1WallClock:
    def test_time_time_fires(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "P1" in rules_of(findings)

    def test_perf_counter_alias_fires(self):
        findings = lint(
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """
        )
        assert "P1" in rules_of(findings)

    def test_datetime_now_fires(self):
        findings = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert "P1" in rules_of(findings)

    def test_probes_module_is_allowlisted(self):
        findings = lint(
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
            module="repro.obs.probes",
        )
        assert "P1" not in rules_of(findings)

    def test_env_now_is_silent(self):
        findings = lint(
            """
            def stamp(env):
                return env.now
            """
        )
        assert findings == []


class TestP6SetIteration:
    def test_for_over_set_literal_fires(self):
        findings = lint(
            """
            def f():
                for x in {1, 2, 3}:
                    print(x)
            """
        )
        assert "P6" in rules_of(findings)

    def test_for_over_set_call_fires(self):
        findings = lint(
            """
            def f(items):
                for x in set(items):
                    print(x)
            """
        )
        assert "P6" in rules_of(findings)

    def test_comprehension_over_set_union_fires(self):
        findings = lint(
            """
            def f(a, b):
                return [x for x in set(a) | set(b)]
            """
        )
        assert "P6" in rules_of(findings)

    def test_sorted_set_is_silent(self):
        findings = lint(
            """
            def f(items):
                for x in sorted(set(items)):
                    print(x)
            """
        )
        assert "P6" not in rules_of(findings)

    def test_list_iteration_is_silent(self):
        findings = lint(
            """
            def f(items):
                for x in list(items):
                    print(x)
            """
        )
        assert findings == []

    def test_set_iteration_in_hash_function_is_reported_once(self):
        findings = lint(
            """
            import hashlib

            def digest(items):
                h = hashlib.sha256()
                for x in set(items):
                    h.update(x)
                return h.hexdigest()
            """
        )
        assert rules_of(findings) == ["P6"]


class TestD2TimestampEquality:
    def test_eq_on_timestamps_fires(self):
        findings = lint(
            """
            def f(frame, env):
                return frame.t_displayed == env.now
            """
        )
        assert "D2" in rules_of(findings)

    def test_neq_on_ms_suffix_fires(self):
        findings = lint(
            """
            def f(deadline_ms, elapsed_ms):
                return deadline_ms != elapsed_ms
            """
        )
        assert "D2" in rules_of(findings)

    def test_ordering_comparison_is_silent(self):
        findings = lint(
            """
            def f(deadline_ms, elapsed_ms):
                return elapsed_ms < deadline_ms
            """
        )
        assert "D2" not in rules_of(findings)

    def test_non_timestamp_names_are_silent(self):
        findings = lint(
            """
            def f(count, total):
                return count == total
            """
        )
        assert findings == []

    def test_is_none_check_is_silent(self):
        findings = lint(
            """
            def f(t_displayed):
                return t_displayed is None
            """
        )
        assert findings == []

    def test_tests_are_out_of_scope(self):
        findings = lint(
            """
            def test_exact(t_a, t_b):
                assert t_a == t_b
            """,
            module="tests.test_example",
        )
        assert findings == []


class TestP7ModuleState:
    def test_module_level_list_fires(self):
        findings = lint("CACHE = []\n", module="repro.pipeline.example")
        assert "P7" in rules_of(findings)

    def test_module_level_dict_fires(self):
        findings = lint("REGISTRY = {}\n", module="repro.regulators.example")
        assert "P7" in rules_of(findings)

    def test_outside_p7_packages_is_silent(self):
        findings = lint("CACHE = []\n", module="repro.analysis.example")
        assert "P7" not in rules_of(findings)

    def test_dunder_all_exempt(self):
        findings = lint('__all__ = ["f"]\n', module="repro.pipeline.example")
        assert "P7" not in rules_of(findings)

    def test_frozen_constants_are_silent(self):
        findings = lint(
            """
            LIMIT = 5
            NAMES = ("a", "b")
            KINDS = frozenset({"x"})
            """,
            module="repro.core.example",
        )
        assert "P7" not in rules_of(findings)

    def test_class_attributes_are_silent(self):
        findings = lint(
            """
            class Config:
                defaults = {"a": 1}
            """,
            module="repro.pipeline.example",
        )
        assert "P7" not in rules_of(findings)


class TestWaivers:
    def test_waiver_silences_rule(self):
        findings = lint(
            """
            def f():
                for x in {1, 2}:  # analyzer: allow=P6 -- order irrelevant
                    print(x)
            """
        )
        assert "P6" not in rules_of(findings)
        assert "W1" not in rules_of(findings)

    def test_waiver_is_rule_specific(self):
        findings = lint(
            """
            def f(t_a, t_b):
                return t_a == t_b  # analyzer: allow=P6 -- wrong rule
            """
        )
        assert "D2" in rules_of(findings)

    def test_waiver_covers_multiple_rules(self):
        findings = lint(
            """
            def f(t_a, t_b):
                return [x for x in {t_a} if x == t_b]  # analyzer: allow=P6, D2 -- fixture
            """
        )
        assert findings == []

    def test_waiver_is_line_scoped_not_file_scoped(self):
        findings = lint(
            """
            # analyzer: allow=D2 -- a header comment covers only its own line
            def f(t_a, t_b):
                return t_a == t_b

            def g(t_c, t_d):
                return t_c != t_d
            """
        )
        assert rules_of(findings).count("D2") == 2
        assert "W1" in rules_of(findings)

    def test_waiver_for_another_rule_is_reported_stale(self):
        findings = lint(
            """
            import random  # analyzer: allow=D2 -- timestamps only

            def f(t_a, t_b):
                return t_a == t_b
            """
        )
        assert "P2" in rules_of(findings)
        assert "D2" in rules_of(findings)
        assert any(
            f.rule == "W1" and f.detail == "waiver:stale:D2" for f in findings
        )

    def test_waiver_without_rationale_suppresses_nothing(self):
        findings = lint(
            """
            def f(t_a, t_b):
                return t_a == t_b  # analyzer: allow=D2
            """
        )
        assert "D2" in rules_of(findings)
        assert any(
            f.rule == "W1" and f.detail == "waiver:no-rationale" for f in findings
        )

    def test_waiver_on_the_line_above_covers_nothing(self):
        findings = lint(
            """
            def f(t_a, t_b):
                return t_a == t_b

            def g(t_c, t_d):
                # analyzer: allow=D2 -- a waiver must sit on the finding's line
                return t_c == t_d
            """
        )
        assert rules_of(findings).count("D2") == 2
        assert "W1" in rules_of(findings)


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == ["E0"]

    def test_select_restricts_rules(self):
        source = "import random\nCACHE = []\n"
        findings = lint(source, module="repro.pipeline.example", select=["P7"])
        assert rules_of(findings) == ["P7"]

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError):
            lint("x = 1\n", select=["R99"])

    def test_findings_sorted_by_location(self):
        source = "import random\nimport time\n\ndef f():\n    return time.time()\n"
        findings = lint(source, module="repro.pipeline.example")
        assert rules_of(findings) == ["P2", "P1"]
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_finding_render_format(self):
        finding = Finding(rule="P1", path="a.py", line=3, col=5, message="m")
        assert finding.render() == "a.py:3:5: P1 m"

    def test_rules_catalogue_complete(self):
        assert sorted(RULES) == sorted(
            [f"P{i}" for i in range(1, 8)]
            + ["D2"]
            + [f"C{i}" for i in range(1, 6)]
            + ["F1", "F2", "W1"]
        )

    def test_analyze_paths_on_tree(self, tmp_path):
        (tmp_path / "clean.py").write_text("X = 5\n")
        (tmp_path / "dirty.py").write_text("import random\n")
        report = analyze([str(tmp_path)], docs={})
        assert isinstance(report, AnalyzerReport)
        assert report.files_scanned == 2
        assert not report.ok
        assert report.counts() == {"P2": 1}


class TestRulesOutsideTheAnalyzer:
    """Two conventions are enforced by CI tools rather than the analyzer."""

    def test_ruff_selects_b006_for_mutable_defaults(self):
        with open("pyproject.toml", "r", encoding="utf-8") as handle:
            text = handle.read()
        lint_table = text.split("[tool.ruff.lint]", 1)[1]
        select = re.search(r"^select\s*=\s*\[(.*?)\]", lint_table, re.M | re.S)
        assert select is not None
        assert '"B006"' in select.group(1)

    def test_mypy_strict_job_covers_the_annotated_packages(self):
        with open(".github/workflows/ci.yml", "r", encoding="utf-8") as handle:
            text = handle.read()
        command = text[text.index("mypy --strict -p"):].split("\n\n", 1)[0]
        for package in (
            "repro.simcore",
            "repro.core",
            "repro.pipeline",
            "repro.multitenant",
            "repro.analysis",
        ):
            assert f"-p {package}" in command, package
