"""The whole-program determinism analyzer, tested in both directions.

Positive direction: today's tree analyzes clean (the analyzer gates CI,
so this test *is* the gate's local twin).  Negative direction: the
contract and purity rules must actually fire — each negative test
analyzes the real tree with a source *overlay* that reintroduces a
historical bug class (dropping a CellSpec hash input, adding an
unregistered FaultSpec, calling ``time.time()`` in engine-reachable
code or in a regulator hook the call graph cannot reach) and asserts
the named finding appears.  Suppression machinery (waivers, baseline,
SARIF, cache) and path handling are exercised on the same driver.
Per-rule snippet cases live in ``test_devtools_analyzer_rules.py``.
"""

import json
import time

import pytest

from repro.devtools.analyzer import (
    RULES,
    AnalyzerReport,
    Finding,
    analyze,
    collect_sources,
    explain,
    to_sarif,
)
from repro.devtools.analyzer.baseline import (
    apply_baseline,
    baseline_entry,
    load_baseline,
    write_baseline_payload,
)

SRC = ["src/repro"]

PLAN_PATH = "src/repro/experiments/plan.py"
ENGINE_PATH = "src/repro/simcore/engine.py"
EXECUTOR_PATH = "src/repro/experiments/executor.py"
INTERVAL_PATH = "src/repro/regulators/interval.py"
ODR_PATH = "src/repro/core/odr.py"


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    """One shared facts cache: overlay tests re-extract only one file."""
    return str(tmp_path_factory.mktemp("analyzer") / "facts-cache.json")


def _analyze(overlay=None, cache_path=None, **kwargs):
    return analyze(SRC, overlay=overlay, cache_path=cache_path, **kwargs)


def _rules(report):
    return {f.rule for f in report.findings}


# -- positive: HEAD is clean ----------------------------------------------


def test_head_tree_analyzes_clean(cache_path):
    report = _analyze(cache_path=cache_path)
    assert report.ok, "\n".join(f.render() for f in report.findings)
    assert report.files_scanned > 100
    # The dogfooded waivers (executor chaos hooks) are alive, not stale.
    assert sum(report.waived.values()) >= 2


def test_tests_tree_analyzes_clean(cache_path):
    report = analyze(["src/repro", "tests"], cache_path=cache_path)
    assert report.ok, "\n".join(f.render() for f in report.findings)


# -- C1: cache-key drift (the PR-4 horizon bug as a lint rule) ------------


def test_deleting_hash_input_field_fires_c1(cache_path):
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    assert '"duration_ms"' not in source.split("def config_payload")[1].split(
        "def "
    )[0]
    report = _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)
    c1 = [f for f in report.findings if f.rule == "C1"]
    assert len(c1) == 1
    assert c1[0].detail == "field:duration_ms"
    assert c1[0].path == PLAN_PATH
    assert "collide" in c1[0].message


def test_removing_hash_exempt_marker_fires_c1(cache_path):
    source = _read(PLAN_PATH).replace(
        "  # analyzer: hash-exempt -- catalog label; the fault specs "
        "themselves are hashed",
        "",
    )
    report = _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)
    assert any(
        f.rule == "C1" and f.detail == "field:fault_class" for f in report.findings
    )


# -- C2/C3: fault registry drift ------------------------------------------


def test_unregistered_faultspec_fires_c2(cache_path):
    rogue = (
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "from repro.faults.spec import FaultSpec\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class RogueFault(FaultSpec):\n"
        '    kind: ClassVar[str] = "rogue"\n'
    )
    report = _analyze(
        overlay={"src/repro/faults/rogue.py": rogue}, cache_path=cache_path
    )
    c2 = [f for f in report.findings if f.rule == "C2"]
    assert any(f.detail == "class:RogueFault:unregistered" for f in c2)
    # An unregistered kind is by definition also uncataloged.
    assert any(
        f.rule == "C3" and "rogue" in f.detail for f in report.findings
    ) is False  # C3 only covers *registered* kinds; C2 is the finding here


def test_faultspec_without_kind_fires_c2(cache_path):
    rogue = (
        "from dataclasses import dataclass\n"
        "from repro.faults.spec import FaultSpec\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class KindlessFault(FaultSpec):\n"
        "    pass\n"
    )
    report = _analyze(
        overlay={"src/repro/faults/rogue.py": rogue}, cache_path=cache_path
    )
    assert any(
        f.rule == "C2" and f.detail == "class:KindlessFault:no-kind"
        for f in report.findings
    )


# -- P1: wall clock inside the sim-pure boundary --------------------------


def test_clock_read_in_engine_fires_p1_with_chain(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _smuggled_timestamp() -> float:\n"
        "    return time.time()\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert len(p1) == 1
    assert p1[0].path == ENGINE_PATH
    assert "time.time()" in p1[0].message
    assert p1[0].chain  # evidence: the call chain from the root
    assert p1[0].chain[-1].endswith(":_smuggled_timestamp")


def test_clock_read_behind_helper_is_still_found(cache_path):
    # Two calls deep: engine -> helper -> clock.  Per-file linting with
    # an allowlist could never see this; the call graph does.
    source = _read(EXECUTOR_PATH).replace(
        "def _chaos_hooks(spec: CellSpec) -> None:",
        "def _hidden_clock() -> float:\n"
        "    import time\n"
        "    return time.perf_counter()\n"
        "\n\n"
        "def _chaos_hooks(spec: CellSpec) -> None:\n"
        "    _hidden_clock()",
        1,
    )
    report = _analyze(overlay={EXECUTOR_PATH: source}, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert len(p1) == 1
    chain = p1[0].chain
    assert any(h.endswith(":execute_cell") for h in chain)
    assert chain[-1].endswith(":_hidden_clock")


def test_clock_read_outside_boundary_is_flagged_without_chain(cache_path):
    # P1 no longer depends on reachability: a raw clock anywhere outside
    # the sanctuary modules is a finding, just without a call chain.
    overlay = {
        "src/repro/obs/offline_tool.py": (
            "import time\n\n\n"
            "def wall_now() -> float:\n"
            "    return time.time()\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert len(p1) == 1
    assert p1[0].path == "src/repro/obs/offline_tool.py"
    assert p1[0].chain == ()
    assert "reachable" not in p1[0].message


def test_nondeterminism_in_unreachable_regulator_hooks_is_found(cache_path):
    # The regulator hooks run under the engine through callbacks the call
    # graph does not resolve, so a reachability-scoped rule misses both.
    interval = _read(INTERVAL_PATH)
    anchor = '    def app_wait(self, app: "Application3D", then: Step) -> None:\n'
    assert interval.count(anchor) == 2
    interval = interval.replace(
        anchor, anchor + "        import time\n        time.time()\n", 1
    )
    odr = _read(ODR_PATH)
    anchor = "    def _store(self) -> None:\n"
    assert odr.count(anchor) == 1
    odr = odr.replace(anchor, anchor + "        import random\n        random.random()\n")
    report = _analyze(
        overlay={INTERVAL_PATH: interval, ODR_PATH: odr}, cache_path=cache_path
    )
    p1 = [f for f in report.findings if f.rule == "P1"]
    assert [(f.path, f.detail) for f in p1] == [(INTERVAL_PATH, "clock:time.time()")]
    assert "IntervalRegulator.app_wait()" in p1[0].message
    p2 = [f for f in report.findings if f.rule == "P2"]
    assert {f.detail for f in p2} == {"entropy:import random", "entropy:random.random()"}
    assert all(
        f.path == ODR_PATH and "OdrProxy._store()" in f.message for f in p2
    )


# -- C4: sweep event vocabulary drift -------------------------------------


def test_emitting_unknown_event_kind_fires_c4(cache_path):
    overlay = {
        "src/repro/obs/rogue_emitter.py": (
            "from repro.obs.sweep import SweepEventBus\n\n\n"
            "def chatter(bus: SweepEventBus) -> None:\n"
            '    bus.emit("mystery_kind", cell="x")\n'
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    c4 = [f for f in report.findings if f.rule == "C4"]
    assert any(f.detail == "kind:mystery_kind:unschema'd" for f in c4)


# -- F1/F2: fork safety ---------------------------------------------------


def test_lambda_submitted_to_pool_fires_f1(cache_path):
    overlay = {
        "src/repro/experiments/rogue_pool.py": (
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def run() -> None:\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(lambda: 1)\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    assert any(
        f.rule == "F1" and f.detail == "submit:lambda" for f in report.findings
    )


def test_smuggled_lock_fires_f2(cache_path):
    overlay = {
        "src/repro/experiments/rogue_pool.py": (
            "import threading\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n\n"
            "def work(lock) -> None:\n"
            "    pass\n\n\n"
            "def run() -> None:\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(work, threading.Lock())\n"
        )
    }
    report = _analyze(overlay=overlay, cache_path=cache_path)
    assert any(
        f.rule == "F2" and "threading.Lock" in f.detail for f in report.findings
    )


# -- waivers --------------------------------------------------------------


def test_live_waiver_suppresses_and_counts(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _sanctioned_peek() -> float:\n"
        "    return time.time()  # analyzer: allow=P1 -- test fixture, proves waivers work\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    assert "P1" not in _rules(report)
    assert report.waived.get("P1", 0) >= 1
    assert "W1" not in _rules(report)


def test_stale_waiver_fails_the_run(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nHARMLESS = 1  # analyzer: allow=P1 -- nothing impure here anymore\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    w1 = [f for f in report.findings if f.rule == "W1"]
    assert any(f.detail == "waiver:stale:P1" for f in w1)
    assert not report.ok


def test_waiver_without_rationale_fails_the_run(cache_path):
    source = _read(ENGINE_PATH) + (
        "\n\nimport time\n\n\n"
        "def _peek() -> float:\n"
        "    return time.time()  # analyzer: allow=P1\n"
    )
    report = _analyze(overlay={ENGINE_PATH: source}, cache_path=cache_path)
    assert any(
        f.rule == "W1" and f.detail == "waiver:no-rationale" for f in report.findings
    )
    # The rationale-less waiver still suppresses nothing: P1 survives.
    assert "P1" in _rules(report)


def test_waiver_example_in_docstring_is_not_a_waiver():
    report = analyze(
        [],
        overlay={
            "src/repro/example_doc.py": (
                '"""Docs quoting `# analyzer: allow=P1 -- like so`."""\n'
                "VALUE = 1\n"
            )
        },
    )
    assert "W1" not in _rules(report)


# -- baseline -------------------------------------------------------------


def _one_finding_report(cache_path):
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    return _analyze(overlay={PLAN_PATH: source}, cache_path=cache_path)


def test_baseline_adopts_and_silences(cache_path):
    report = _one_finding_report(cache_path)
    baseline = write_baseline_payload(list(report.findings))
    source = _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    silenced = _analyze(
        overlay={PLAN_PATH: source},
        cache_path=cache_path,
        baseline_text=baseline,
    )
    assert silenced.ok
    assert silenced.baselined.get("C1") == 1
    assert silenced.stale_baseline == []


def test_baseline_fingerprints_survive_line_renumbering(cache_path):
    report = _one_finding_report(cache_path)
    baseline = write_baseline_payload(list(report.findings))
    # Shift every line in the file down: the finding moves, the
    # fingerprint (no line numbers) still matches.
    source = "# a new leading comment line\n" + _read(PLAN_PATH).replace(
        '            "duration_ms": self.duration_ms,\n', ""
    )
    silenced = _analyze(
        overlay={PLAN_PATH: source},
        cache_path=cache_path,
        baseline_text=baseline,
    )
    assert silenced.ok
    assert silenced.baselined.get("C1") == 1


def test_baseline_entry_for_deleted_file_is_stale_not_fatal(cache_path):
    baseline = json.dumps(
        {
            "version": 1,
            "entries": [
                {
                    "rule": "P1",
                    "path": "src/repro/deleted/gone.py",
                    "key": "clock:time.time()",
                }
            ],
        }
    )
    report = _analyze(cache_path=cache_path, baseline_text=baseline)
    assert report.ok  # stale entries never fail the run
    assert report.stale_baseline == [
        {"rule": "P1", "path": "src/repro/deleted/gone.py", "key": "clock:time.time()"}
    ]


def test_malformed_baseline_fails_loudly():
    with pytest.raises(ValueError):
        load_baseline('{"entries": "not-a-list"}')
    with pytest.raises(ValueError):
        load_baseline('{"entries": [{"rule": "P1"}]}')


def test_apply_baseline_splits_matched_and_stale():
    finding = Finding(
        rule="P1", path="a.py", line=3, col=1, message="m", detail="clock:x"
    )
    entries = [
        baseline_entry(finding),
        {"rule": "P2", "path": "b.py", "key": "entropy:y"},
    ]
    kept, baselined, stale = apply_baseline([finding], entries)
    assert kept == []
    assert baselined == {"P1": 1}
    assert stale == [{"rule": "P2", "path": "b.py", "key": "entropy:y"}]


# -- SARIF ----------------------------------------------------------------


def test_sarif_results_carry_every_finding_field():
    findings = [
        Finding(
            rule="P1",
            path="src/repro/simcore/engine.py",
            line=10,
            col=5,
            message="wall-clock read",
            chain=("repro.simcore.engine:step", "repro.simcore.engine:_bad"),
            detail="clock:time.time()",
        ),
        Finding(rule="C1", path=PLAN_PATH, line=74, col=1, message="drift"),
    ]
    text = to_sarif(findings)
    payload = json.loads(text)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "odr-analyze"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(RULES) <= rule_ids
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["P1", "C1"]
    first = results[0]
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/simcore/engine.py"
    assert location["region"] == {"startLine": 10, "startColumn": 5}
    assert first["message"]["text"] == "wall-clock read"
    assert first["properties"]["detail"] == "clock:time.time()"
    hops = first["codeFlows"][0]["threadFlows"][0]["locations"]
    assert [h["location"]["message"]["text"] for h in hops] == list(findings[0].chain)
    assert "codeFlows" not in results[1]  # no chain, no flow


def test_sarif_of_clean_run_has_no_results(cache_path):
    report = _analyze(cache_path=cache_path)
    payload = json.loads(to_sarif(list(report.findings)))
    assert payload["runs"][0]["results"] == []


# -- cache ----------------------------------------------------------------


def test_warm_cache_hits_every_file_and_is_fast(tmp_path):
    path = str(tmp_path / "cache.json")
    cold = _analyze(cache_path=path)
    assert cold.cache_misses == cold.files_scanned
    started = time.perf_counter()  # analyzer: allow=P1 -- timing the analyzer, not sim state
    warm = _analyze(cache_path=path)
    elapsed = time.perf_counter() - started  # analyzer: allow=P1 -- timing the analyzer, not sim state
    assert warm.cache_hits == warm.files_scanned
    assert warm.cache_misses == 0
    assert warm.findings == cold.findings
    assert elapsed < 5.0, f"warm analyze took {elapsed:.2f}s"


def test_cache_invalidates_on_content_change(tmp_path):
    path = str(tmp_path / "cache.json")
    _analyze(cache_path=path)
    touched = _read(ENGINE_PATH) + "\n# trailing comment\n"
    second = _analyze(overlay={ENGINE_PATH: touched}, cache_path=path)
    assert second.cache_misses == 1
    assert second.cache_hits == second.files_scanned - 1


def test_cache_from_another_extractor_runs_cold(tmp_path):
    path = tmp_path / "cache.json"
    _analyze(cache_path=str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["entries"]
    payload["extractor"] = "0" * 64
    path.write_text(json.dumps(payload), encoding="utf-8")
    report = _analyze(cache_path=str(path))
    assert report.cache_hits == 0
    assert report.cache_misses == report.files_scanned


def test_corrupt_cache_file_runs_cold(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{ not json", encoding="utf-8")
    report = _analyze(cache_path=str(path))
    assert report.ok
    assert report.cache_hits == 0


# -- paths ----------------------------------------------------------------


def test_missing_path_is_an_error():
    with pytest.raises(FileNotFoundError):
        collect_sources(["no/such/dir.txt"])


def test_non_python_file_is_an_error():
    with pytest.raises(FileNotFoundError):
        collect_sources(["README.md"])


def test_overlay_only_path_is_accepted():
    path = "src/repro/obs/overlay_only.py"
    sources = collect_sources([path], overlay={path: "VALUE = 1\n"})
    assert sources == {path: "VALUE = 1\n"}


# -- rule catalogue -------------------------------------------------------


def test_every_rule_has_an_explanation():
    for rule in RULES:
        text = explain(rule)
        assert text is not None and rule in text and len(text) > 80


def test_unknown_rule_explains_to_none():
    assert explain("Z9") is None


def test_report_json_is_sorted_and_complete(cache_path):
    report = _analyze(cache_path=cache_path)
    payload = json.loads(report.to_json())
    assert payload["files_scanned"] == report.files_scanned
    assert payload["findings"] == []
    assert isinstance(report, AnalyzerReport)
