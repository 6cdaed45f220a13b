"""Self-tests for reprolint: every rule fires, suppresses, and scopes.

The fixtures under ``tests/lint/fixtures/`` are deliberately broken
snippets (excluded from default lint walks); each test pins the exact
rule IDs and line numbers a fixture must produce, so a rule that stops
firing — or starts over-firing — fails CI just like a regression in
the runtime contracts the rules guard.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import (  # noqa: E402
    all_project_rules,
    all_rules,
    check_file,
    known_rule_ids,
    run,
)
from tools.reprolint.cli import main as lint_main  # noqa: E402

PROJECT_RULE_IDS = {
    "F501", "F502", "F503", "P601", "P602", "P603", "R701", "R702",
}


def findings_for(name: str, all_rules_flag: bool = True):
    return check_file(str(FIXTURES / name), all_rules_everywhere=all_rules_flag)


def triples(findings):
    return [(f.rule, f.line) for f in findings]


def project_run(*names: str):
    """Whole-program run over explicit fixture files."""
    return run([str(FIXTURES / name) for name in names], all_rules_everywhere=True)


def project_triples(*names: str):
    return [
        (f.rule, f.line)
        for f in project_run(*names).findings
        if f.rule in PROJECT_RULE_IDS
    ]


class TestRuleRegistry:
    def test_all_families_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert ids == {
            "D101", "D102", "D103", "D104", "D105", "D106",
            "A201", "A202", "A203",
            "E301", "E302", "E303",
            "N401", "N402", "N403",
        }

    def test_all_project_families_registered(self):
        ids = {rule.rule_id for rule in all_project_rules()}
        assert ids == PROJECT_RULE_IDS

    def test_known_ids_include_engine_findings(self):
        assert {"P001", "X001", "X002", "X003"} <= known_rule_ids()

    def test_every_rule_has_summary(self):
        for rule in [*all_rules(), *all_project_rules()]:
            assert rule.summary, rule.rule_id

    def test_check_file_never_runs_project_rules(self):
        # The single-file fast path stays file-rules-only: project
        # families need the whole program and only run through run().
        findings = findings_for("bad_lifetime.py")
        assert [f for f in findings if f.rule in PROJECT_RULE_IDS] == []


class TestDeterminismRules:
    def test_bad_fixture_exact_findings(self):
        assert triples(findings_for("bad_determinism.py")) == [
            ("D101", 10),
            ("D102", 14),
            ("D103", 18),
            ("D103", 19),
            ("D104", 25),
            ("D104", 27),
            ("D105", 31),
            ("D105", 32),
            ("D106", 38),
            ("D106", 41),
        ]

    def test_good_fixture_clean(self):
        assert findings_for("good_determinism.py") == []


class TestScenarioRule:
    """F501 at call depth 0: a draw written directly in a scenario seam."""

    def test_bad_fixture_exact_findings(self):
        assert triples(project_run("bad_scenario.py").findings) == [
            ("F501", 6),
            ("F501", 10),
            ("F501", 11),
            ("F501", 15),
        ]

    def test_justified_suppression_waives_the_draw(self):
        # perturb_with_waiver's draw (line 20) carries a justified
        # disable directive and must not appear above.
        lines = [f.line for f in project_run("bad_scenario.py").findings]
        assert 20 not in lines

    def test_good_fixture_clean(self):
        assert project_run("good_scenario.py").findings == []

    def test_scoped_to_the_scenario_module(self):
        # Without --all-rules the fixture's functions are not seams:
        # only src/repro/sim/scenario.py defines them.
        result = run(
            [str(FIXTURES / "bad_scenario.py")], all_rules_everywhere=False
        )
        assert [f for f in result.findings if f.rule == "F501"] == []


class TestAtomicityRules:
    def test_bad_fixture_exact_findings(self):
        assert triples(findings_for("bad_atomicity.py")) == [
            ("A201", 8),
            ("A201", 13),
            ("A201", 15),
            ("A202", 20),
            ("A202", 21),
            ("A202", 22),
            ("A203", 26),
            ("A203", 27),
            ("A202", 33),
            ("A202", 34),
            ("A202", 36),
            ("A202", 37),
        ]

    def test_good_fixture_clean(self):
        assert findings_for("good_atomicity.py") == []


class TestTaxonomyRules:
    def test_bad_fixture_exact_findings(self):
        assert triples(findings_for("bad_taxonomy.py")) == [
            ("E301", 7),
            ("E302", 13),
            ("E302", 15),
            ("E303", 21),
        ]

    def test_good_fixture_clean(self):
        assert findings_for("good_taxonomy.py") == []


class TestNumericRules:
    def test_bad_fixture_exact_findings(self):
        assert triples(findings_for("bad_numeric.py")) == [
            ("N401", 10),
            ("N401", 11),
            ("N401", 12),
            ("N402", 17),
            ("N402", 18),
            ("N403", 23),
            ("N403", 24),
        ]

    def test_good_fixture_clean(self):
        assert findings_for("good_numeric.py") == []


class TestSuppressions:
    def test_waives_precisely_one_finding(self):
        findings = findings_for("suppressed.py")
        # The justified directive waived line 11's E302 and the
        # disable-next waived the bare except; line 16 must survive.
        assert triples(findings) == [("E302", 16)]

    def test_file_level_waives_all_occurrences(self):
        assert findings_for("file_level.py") == []

    def test_unjustified_and_unused_directives_flagged(self):
        findings = findings_for("bad_suppression.py")
        assert triples(findings) == [
            ("X001", 6),
            ("X002", 10),
            ("X002", 14),
        ]
        messages = {f.rule: f.message for f in findings}
        assert "justification" in messages["X001"]

    def test_suppression_scoped_to_its_line_only(self):
        # The directive on line 11 must not leak to line 16's finding.
        survivors = [f for f in findings_for("suppressed.py") if f.rule == "E302"]
        assert [f.line for f in survivors] == [16]


class TestRngFlowRules:
    """F5xx: interprocedural RNG stream-order contracts."""

    def test_bad_fixture_exact_findings(self):
        assert project_triples("bad_rngflow.py") == [
            ("F501", 5),
            ("F502", 21),
            ("F502", 31),
            ("F503", 40),
        ]

    def test_seam_chain_reported_as_related_spans(self):
        finding = next(
            f for f in project_run("bad_rngflow.py").findings
            if f.rule == "F501"
        )
        notes = [note for _, _, note in finding.related]
        assert notes == [
            "scenario seam apply_event()",
            "apply_event() calls _relabel()",
            "_relabel() calls _jitter()",
        ]
        assert [line for _, line, _ in finding.related] == [12, 15, 9]

    def test_good_fixture_has_no_project_findings(self):
        assert project_triples("good_rngflow.py") == []


class TestCommitProtocolRules:
    """P6xx: manifest-last / pointer-last commit ordering."""

    def test_bad_fixture_exact_findings(self):
        assert project_triples("bad_commitproto.py") == [
            ("P601", 24),
            ("P602", 28),
            ("P603", 33),
        ]

    def test_ordering_findings_carry_the_other_side(self):
        findings = {
            f.rule: f for f in project_run("bad_commitproto.py").findings
        }
        assert findings["P601"].related == (
            (
                "tests/lint/fixtures/bad_commitproto.py", 25,
                "manifest write that must come first",
            ),
        )
        assert findings["P602"].related == (
            (
                "tests/lint/fixtures/bad_commitproto.py", 29,
                "pointer flip that must come first",
            ),
        )

    def test_good_fixture_has_no_project_findings(self):
        assert project_triples("good_commitproto.py") == []


class TestLifetimeRules:
    """R7xx: handles closed on every path, incl. the PR 8 loop shape."""

    def test_bad_fixture_exact_findings(self):
        assert project_triples("bad_lifetime.py") == [
            ("R701", 5),
            ("R701", 10),
            ("R702", 18),
            ("R702", 29),
        ]

    def test_exception_edge_reported_even_with_a_close(self):
        finding = next(
            f for f in project_run("bad_lifetime.py").findings
            if f.rule == "R701" and f.line == 10
        )
        assert "exception escapes" in finding.message

    def test_generator_message_names_the_finally_requirement(self):
        finding = next(
            f for f in project_run("bad_lifetime.py").findings
            if f.rule == "R702" and f.line == 29
        )
        assert "generator" in finding.message

    def test_good_fixture_has_no_project_findings(self):
        assert project_triples("good_lifetime.py") == []


class TestCrossFileSuppression:
    """A waiver in file A must never mask a finding whose primary span
    is in file B, however many related spans point back at A."""

    def test_wrong_file_waiver_does_not_mask(self):
        result = project_run("xfile_waiver.py", "xfile_draws.py")
        survivors = [f for f in result.findings if f.rule == "F501"]
        assert [(f.path, f.line) for f in survivors] == [
            ("tests/lint/fixtures/xfile_draws.py", 5)
        ]
        related_paths = {path for path, _, _ in survivors[0].related}
        assert related_paths == {"tests/lint/fixtures/xfile_waiver.py"}

    def test_the_useless_waiver_is_itself_flagged(self):
        result = project_run("xfile_waiver.py", "xfile_draws.py")
        unused = [f for f in result.findings if f.rule == "X002"]
        assert [(f.path, f.line) for f in unused] == [
            ("tests/lint/fixtures/xfile_waiver.py", 6)
        ]


class TestRuleCrash:
    """X003: a crashing rule becomes a finding, not a dead run."""

    def test_file_rule_crash_yields_x003_and_exit_two(self):
        from tools.reprolint import registry

        class Boom(registry.Rule):
            rule_id = "Z999"
            summary = "always crashes (test-only)"

            def check(self, module):
                raise RuntimeError("kaboom")

        registry._REGISTRY["Z999"] = Boom()
        try:
            result = run(
                [str(FIXTURES / "good_taxonomy.py")],
                all_rules_everywhere=True,
            )
        finally:
            del registry._REGISTRY["Z999"]
        crashes = [f for f in result.findings if f.rule == "X003"]
        assert len(crashes) == 1
        assert "Z999" in crashes[0].message
        assert "RuntimeError: kaboom" in crashes[0].message
        assert "Traceback" in crashes[0].message
        assert result.exit_code == 2

    def test_project_rule_crash_yields_x003_and_exit_two(self):
        from tools.reprolint import registry

        class Boom(registry.ProjectRule):
            rule_id = "Z998"
            summary = "always crashes (test-only)"

            def check_project(self, project, graph):
                raise ValueError("project kaboom")

        registry._PROJECT_REGISTRY["Z998"] = Boom()
        try:
            result = run(
                [str(FIXTURES / "good_taxonomy.py")],
                all_rules_everywhere=True,
            )
        finally:
            del registry._PROJECT_REGISTRY["Z998"]
        crashes = [f for f in result.findings if f.rule == "X003"]
        assert [f.path for f in crashes] == ["<project>"]
        assert "ValueError: project kaboom" in crashes[0].message
        assert result.exit_code == 2


class TestFindingsCache:
    def fixture_copy(self, tmp_path, name="bad_numeric.py"):
        target = tmp_path / name
        target.write_text((FIXTURES / name).read_text())
        return target

    def test_second_run_hits_and_findings_are_identical(self, tmp_path):
        target = self.fixture_copy(tmp_path)
        cache = tmp_path / "cache.json"
        first = run(
            [str(target)], all_rules_everywhere=True, cache_path=str(cache)
        )
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        assert first.findings
        second = run(
            [str(target)], all_rules_everywhere=True, cache_path=str(cache)
        )
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.findings == first.findings

    def test_content_change_invalidates_the_entry(self, tmp_path):
        target = self.fixture_copy(tmp_path)
        cache = tmp_path / "cache.json"
        run([str(target)], all_rules_everywhere=True, cache_path=str(cache))
        target.write_text(target.read_text() + "\n\nEXTRA = 1\n")
        third = run(
            [str(target)], all_rules_everywhere=True, cache_path=str(cache)
        )
        assert (third.cache_hits, third.cache_misses) == (0, 1)

    def test_all_rules_flag_is_part_of_the_key(self, tmp_path):
        target = self.fixture_copy(tmp_path)
        cache = tmp_path / "cache.json"
        scoped = run([str(target)], cache_path=str(cache))
        assert scoped.findings == []  # out of scope without --all-rules
        everywhere = run(
            [str(target)], all_rules_everywhere=True, cache_path=str(cache)
        )
        # A scoped cache entry must not satisfy an --all-rules lookup.
        assert everywhere.cache_hits == 0
        assert everywhere.findings


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path):
        out_path = tmp_path / "lint.sarif"
        code = lint_main(
            [str(FIXTURES / "bad_commitproto.py"), "--all-rules",
             "--no-cache", "--sarif-out", str(out_path)]
        )
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert doc["version"] == "2.1.0"
        sarif_run = doc["runs"][0]
        assert sarif_run["tool"]["driver"]["name"] == "reprolint"
        declared = {r["id"] for r in sarif_run["tool"]["driver"]["rules"]}
        assert PROJECT_RULE_IDS <= declared
        by_rule = {r["ruleId"]: r for r in sarif_run["results"]}
        assert {"P601", "P602", "P603"} <= set(by_rule)
        primary = by_rule["P601"]["locations"][0]["physicalLocation"]
        assert primary["region"]["startLine"] == 24
        related = by_rule["P601"]["relatedLocations"]
        assert related[0]["message"]["text"] == (
            "manifest write that must come first"
        )


class TestParseErrors:
    def test_syntax_error_is_a_finding(self):
        findings = check_file(str(FIXTURES / "bad_syntax.py.txt"))
        assert [f.rule for f in findings] == ["P001"]
        assert findings[0].line == 1


class TestScoping:
    def test_scoped_rules_skip_out_of_scope_files(self):
        # Without --all-rules the fixture lives outside src/repro/sim,
        # so the D/A/N families must not fire; E301 (everywhere) still
        # applies but the fixture has no bare except.
        findings = findings_for("bad_determinism.py", all_rules_flag=False)
        assert findings == []

    def test_default_excludes_skip_fixtures(self):
        result = run([str(Path(__file__).parent)], all_rules_everywhere=True)
        paths = {f.path for f in result.findings}
        assert not any("fixtures" in path for path in paths)

    def test_explicit_file_argument_beats_excludes(self):
        result = run(
            [str(FIXTURES / "bad_taxonomy.py")], all_rules_everywhere=True
        )
        assert result.findings


class TestCliContract:
    def test_exit_zero_on_clean_file(self, capsys):
        code = lint_main([str(FIXTURES / "good_taxonomy.py"), "--all-rules"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        code = lint_main([str(FIXTURES / "bad_taxonomy.py"), "--all-rules"])
        assert code == 1
        out = capsys.readouterr().out
        assert "E301" in out and "E302" in out and "E303" in out

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["no/such/path"]) == 2

    def test_json_report_shape(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = lint_main(
            [str(FIXTURES / "bad_numeric.py"), "--all-rules",
             "--format", "json", "--out", str(out_path)]
        )
        assert code == 1
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads(out_path.read_text())
        assert stdout_report == file_report
        assert file_report["schema"] == 1
        assert file_report["summary"]["total"] == 7
        assert file_report["summary"]["by_rule"] == {
            "N401": 3, "N402": 2, "N403": 2,
        }
        first = file_report["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(known_rule_ids()):
            assert rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint",
             str(FIXTURES / "bad_atomicity.py"), "--all-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "A201" in proc.stdout


class TestRepoIsClean:
    """The acceptance gate, as a regression test: the tree lints clean."""

    def test_src_and_tests_have_no_findings(self):
        result = run([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], rendered
        assert result.files_checked > 100

    def test_repro_cli_lint_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "tests"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
