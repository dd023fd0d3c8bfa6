"""Tests for the lint engine, rules, suppressions, reporters, and CLI.

The ``examples/projects/buggy`` fixture plants exactly one defect per
registered rule, so most assertions run against its analysis. The
solver-equivalence tests (identical findings under ``naive`` and
``seminaive``) are the lint-level counterpart of the core solver
equivalence suite.
"""

import json
import os
import shutil

import pytest

from repro import analyze
from repro.core.analysis import AnalysisOptions
from repro.corpus.connectbot import build_connectbot_example
from repro.frontend import load_app_from_dir
from repro.lint import (
    ALL_RULES,
    Finding,
    LintOptions,
    Rule,
    Severity,
    diff_baseline,
    render_text,
    rule_by_id,
    run_lint,
    to_json,
    to_sarif,
    validate_sarif,
)
from repro.__main__ import main as cli_main

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "projects"
)
BUGGY = os.path.join(EXAMPLES, "buggy")
NOTEPAD = os.path.join(EXAMPLES, "notepad")


@pytest.fixture(scope="module")
def buggy_result():
    return analyze(load_app_from_dir(BUGGY), AnalysisOptions(provenance=True))


@pytest.fixture(scope="module")
def buggy_report(buggy_result):
    return run_lint(buggy_result)


class TestRegistry:
    def test_five_rules_with_stable_ids(self):
        assert [r.id for r in ALL_RULES] == [
            "GUI001",
            "GUI002",
            "GUI003",
            "GUI004",
            "GUI005",
        ]

    def test_lookup_by_id_and_name(self):
        assert rule_by_id("GUI003").name == "bad-cast"
        assert rule_by_id("bad-cast").id == "GUI003"
        assert rule_by_id("GUI999") is None

    def test_severities(self):
        by_id = {r.id: r.severity for r in ALL_RULES}
        assert by_id["GUI001"] is Severity.ERROR
        assert by_id["GUI003"] is Severity.ERROR
        assert by_id["GUI002"] is Severity.WARNING
        assert by_id["GUI004"] is Severity.WARNING
        assert by_id["GUI005"] is Severity.WARNING
        assert Severity.ERROR.rank < Severity.WARNING.rank


class TestBuggyFindings:
    def test_one_finding_per_rule(self, buggy_report):
        assert sorted(f.rule_id for f in buggy_report.findings) == [
            "GUI001",
            "GUI002",
            "GUI003",
            "GUI004",
            "GUI005",
        ]

    def test_findings_sorted_by_location(self, buggy_report):
        keys = [f.sort_key() for f in buggy_report.findings]
        assert keys == sorted(keys)

    def test_uid_shape_and_str(self, buggy_report):
        for f in buggy_report.findings:
            assert f.uid.startswith(f.rule_id + "-")
            assert len(f.uid.split("-", 1)[1]) == 10
            text = str(f)
            assert f.severity.value in text and f.uid in text

    def test_every_finding_has_a_witness(self, buggy_report):
        for f in buggy_report.findings:
            assert f.witness, f"{f.rule_id} missing witness"
            # Each step names a rule (derived) or is an axiom.
            for line in f.witness:
                assert "<=" in line or "[axiom]" in line

    def test_by_rule_and_finding_accessors(self, buggy_report):
        dead = buggy_report.by_rule("dead-listener")
        assert len(dead) == 1 and dead[0].rule_id == "GUI005"
        uid = dead[0].uid
        assert buggy_report.finding(uid) is dead[0]
        assert buggy_report.finding("GUI005-0000000000") is None
        assert len(buggy_report) == 5


class TestSolverEquivalence:
    """Identical findings under both solver modes (satellite check)."""

    @pytest.mark.parametrize(
        "make_app",
        [
            lambda: load_app_from_dir(BUGGY),
            build_connectbot_example,
            lambda: load_app_from_dir(NOTEPAD),
        ],
        ids=["buggy", "connectbot", "notepad"],
    )
    def test_identical_findings_across_solvers(self, make_app):
        reports = {}
        for solver in ("naive", "seminaive"):
            result = analyze(
                make_app(), AnalysisOptions(solver=solver, provenance=True)
            )
            reports[solver] = run_lint(result)
        naive, semi = reports["naive"], reports["seminaive"]
        assert [str(f) for f in naive.findings] == [
            str(f) for f in semi.findings
        ]
        assert [f.witness for f in naive.findings] == [
            f.witness for f in semi.findings
        ]


class TestOptions:
    def test_rule_selection_by_id_and_name(self, buggy_result):
        report = run_lint(buggy_result, LintOptions(rules=["GUI005"]))
        assert [r.id for r in report.rules_run] == ["GUI005"]
        assert [f.rule_id for f in report.findings] == ["GUI005"]
        report = run_lint(buggy_result, LintOptions(rules=["bad-cast"]))
        assert [f.rule_id for f in report.findings] == ["GUI003"]

    def test_disable(self, buggy_result):
        report = run_lint(
            buggy_result, LintOptions(disabled=["dead-listener", "GUI002"])
        )
        assert sorted(f.rule_id for f in report.findings) == [
            "GUI001",
            "GUI003",
            "GUI004",
        ]

    def test_unknown_rule_raises(self, buggy_result):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(buggy_result, LintOptions(rules=["GUI999"]))
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(buggy_result, LintOptions(disabled=["nope"]))

    def test_min_severity(self, buggy_result):
        report = run_lint(
            buggy_result, LintOptions(min_severity=Severity.ERROR)
        )
        assert sorted(f.rule_id for f in report.findings) == [
            "GUI001",
            "GUI003",
        ]

    def test_witness_opt_out(self, buggy_result):
        report = run_lint(buggy_result, LintOptions(witness=False))
        assert all(not f.witness for f in report.findings)

    def test_no_witness_without_provenance(self):
        result = analyze(load_app_from_dir(BUGGY))  # provenance off
        report = run_lint(result)
        assert len(report) == 5
        assert all(not f.witness for f in report.findings)


class TestDedupe:
    def test_identical_findings_collapse(self, buggy_result, monkeypatch):
        site = buggy_result.pts and next(
            f.site for f in run_lint(buggy_result).findings
        )

        def twice(result):
            for _ in range(2):
                yield Finding(
                    rule_id="GUI001",
                    severity=Severity.ERROR,
                    site=site,
                    message="duplicate finding",
                )

        dup_rule = Rule(
            id="GUI001",
            name="unresolved-lookup",
            severity=Severity.ERROR,
            summary="s",
            rationale="r",
            check=twice,
        )
        monkeypatch.setattr("repro.lint.engine.ALL_RULES", [dup_rule])
        report = run_lint(buggy_result)
        assert len(report.findings) == 1


class TestSuppressions:
    def _lint_with_marker(self, tmp_path, line_no, marker):
        """Copy buggy, append ``marker`` to source line ``line_no``."""
        project = tmp_path / "buggy"
        shutil.copytree(BUGGY, project)
        src = project / "src" / "MainActivity.alite"
        lines = src.read_text().splitlines()
        lines[line_no - 1] += "  " + marker
        src.write_text("\n".join(lines) + "\n")
        result = analyze(load_app_from_dir(str(project)))
        return run_lint(result)

    def test_inline_disable_all(self, tmp_path, buggy_report):
        dead = buggy_report.by_rule("GUI005")[0]
        report = self._lint_with_marker(
            tmp_path, dead.site.line, "// lint:disable"
        )
        assert not report.by_rule("GUI005")
        assert any(f.rule_id == "GUI005" for f in report.suppressed)
        assert len(report.findings) == 4

    def test_inline_disable_specific_rule(self, tmp_path, buggy_report):
        bad = buggy_report.by_rule("GUI001")[0]
        report = self._lint_with_marker(
            tmp_path, bad.site.line, "// lint:disable=GUI001"
        )
        assert not report.by_rule("GUI001")
        assert len(report.findings) == 4

    def test_inline_disable_other_rule_is_inert(self, tmp_path, buggy_report):
        bad = buggy_report.by_rule("GUI001")[0]
        report = self._lint_with_marker(
            tmp_path, bad.site.line, "// lint:disable=GUI005"
        )
        assert report.by_rule("GUI001")
        assert len(report.findings) == 5

    def test_file_suppression_by_uid(self, buggy_result, buggy_report):
        uid = buggy_report.by_rule("GUI003")[0].uid
        report = run_lint(buggy_result, LintOptions(suppress_text=uid + "\n"))
        assert not report.by_rule("GUI003")
        assert [f.uid for f in report.suppressed] == [uid]

    def test_file_suppression_by_rule_and_location(
        self, buggy_result, buggy_report
    ):
        f = buggy_report.by_rule("GUI002")[0]
        simple = f.site.method.class_name.rsplit(".", 1)[-1]
        text = f"# comment line\nGUI002 {simple}:{f.site.line}\n"
        report = run_lint(buggy_result, LintOptions(suppress_text=text))
        assert not report.by_rule("GUI002")
        assert len(report.findings) == 4

    def test_malformed_entries_are_inert(self, buggy_result):
        text = "GUI999 Nowhere:12\nGUI001 missing-colon\nGUI001 C:xx\n"
        report = run_lint(buggy_result, LintOptions(suppress_text=text))
        assert len(report.findings) == 5 and not report.suppressed


class TestExport:
    def test_json_document(self, buggy_report):
        doc = to_json(buggy_report)
        assert doc["schema"] == "repro.lint/1"
        assert doc["app"] == buggy_report.app_name
        assert doc["rules_run"] == [r.id for r in ALL_RULES]
        assert len(doc["findings"]) == 5
        for item, finding in zip(doc["findings"], buggy_report.findings):
            assert item["uid"] == finding.uid
            assert item["site"]["line"] == finding.site.line
            assert item["witness"] == finding.witness
        json.dumps(doc)  # must be serializable

    def test_sarif_is_structurally_valid(self, buggy_report):
        sarif = to_sarif(buggy_report)
        assert validate_sarif(sarif) == []
        run = sarif["runs"][0]
        assert len(run["results"]) == 5
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["partialFingerprints"]["reproLintUid/v1"]
            assert result["codeFlows"][0]["threadFlows"][0]["locations"]
        uris = {
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in run["results"]
        }
        assert "src/MainActivity.alite" in uris

    def test_validator_rejects_broken_documents(self, buggy_report):
        assert validate_sarif("nope") == ["sarifLog: not an object"]
        assert any(
            "version" in p for p in validate_sarif({"version": "9.9.9"})
        )
        sarif = to_sarif(buggy_report)
        sarif["runs"][0]["results"][0]["message"] = {}
        sarif["runs"][0]["results"][1]["ruleIndex"] = 99
        sarif["runs"][0]["results"][2]["level"] = "fatal"
        problems = validate_sarif(sarif)
        assert any("message.text" in p for p in problems)
        assert any("ruleIndex" in p for p in problems)
        assert any(".level" in p for p in problems)

    def test_render_text_footer_and_witness(self, buggy_report):
        text = render_text(buggy_report)
        assert text.endswith("5 finding(s), 0 suppressed (5 rules run)")
        assert "  witness:" in text
        bare = render_text(buggy_report, witness=False)
        assert "  witness:" not in bare


class TestBaseline:
    def test_round_trip_is_clean(self, buggy_report):
        new, fixed = diff_baseline(buggy_report, to_json(buggy_report))
        assert new == [] and fixed == []

    def test_new_and_fixed(self, buggy_report):
        baseline = to_json(buggy_report)
        removed = baseline["findings"].pop(0)
        baseline["findings"].append(
            {"uid": "GUI001-feedfeed00", "rule": "GUI001"}
        )
        new, fixed = diff_baseline(buggy_report, baseline)
        assert [f.uid for f in new] == [removed["uid"]]
        assert fixed == ["GUI001-feedfeed00"]

    def test_wrong_schema_raises(self, buggy_report):
        with pytest.raises(ValueError, match="repro.lint/1"):
            diff_baseline(buggy_report, {"schema": "other/1"})


class TestCLI:
    def test_buggy_exits_one_and_reports_all_rules(self, capsys):
        code = cli_main(["lint", BUGGY])
        out = capsys.readouterr().out
        assert code == 1
        for rule_id in ("GUI001", "GUI002", "GUI003", "GUI004", "GUI005"):
            assert rule_id in out
        assert "witness:" in out

    def test_clean_project_exits_zero(self, capsys):
        code = cli_main(["lint", NOTEPAD])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_sarif_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "lint.sarif"
        code = cli_main(
            ["lint", BUGGY, "--format", "sarif", "--output", str(out_file)]
        )
        capsys.readouterr()
        assert code == 1
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        assert validate_sarif(doc) == []

    def test_rules_filter_and_severity(self, capsys):
        code = cli_main(["lint", BUGGY, "--severity", "error"])
        out = capsys.readouterr().out
        assert code == 1
        assert "GUI001" in out and "GUI003" in out
        assert "GUI005" not in out

    def test_unknown_rule_exits_two(self, capsys):
        code = cli_main(["lint", BUGGY, "--rules", "GUI999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown lint rule" in err

    def test_explain(self, buggy_report, capsys):
        uid = buggy_report.by_rule("GUI003")[0].uid
        code = cli_main(["lint", BUGGY, "--explain", uid])
        out = capsys.readouterr().out
        assert code == 0
        assert "rationale:" in out
        assert "witness (premises first, conclusion last):" in out
        assert cli_main(["lint", BUGGY, "--explain", "GUI001-nope"]) == 2
        capsys.readouterr()

    def test_baseline_gating(self, tmp_path, buggy_report, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(to_json(buggy_report)))
        code = cli_main(["lint", BUGGY, "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 0
        assert "0 new finding(s), 0 fixed" in captured.err

        doc = to_json(buggy_report)
        doc["findings"] = doc["findings"][1:]
        baseline.write_text(json.dumps(doc))
        code = cli_main(["lint", BUGGY, "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 1
        assert "1 new finding(s)" in captured.err

    def test_suppress_file_flag(self, tmp_path, buggy_report, capsys):
        supp = tmp_path / "suppressions.txt"
        supp.write_text(
            "\n".join(f.uid for f in buggy_report.findings) + "\n"
        )
        code = cli_main(["lint", BUGGY, "--suppress", str(supp)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s), 5 suppressed" in out
