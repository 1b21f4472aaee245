"""Framework behaviour: suppressions, reporters, selection, labels."""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.core import (
    RULES,
    Finding,
    ModuleSource,
    Severity,
    load_project,
    run_rules,
)
from repro.lint.report import render_json, render_text

# A set-iteration line the determinism rule flags, waived in each test.
LOOP = "for x in {1, 2}:"


class TestSuppressions:
    def test_named_suppression_silences_the_rule(self, make_project):
        src = f"{LOOP}  # repro: lint-ok[determinism]\n    pass\n"
        project = make_project({"core/x.py": src})
        assert run_rules(project, ["determinism"]) == []

    def test_comment_only_line_covers_the_next_line(self, make_project):
        src = f"# repro: lint-ok[determinism]\n{LOOP}\n    pass\n"
        project = make_project({"core/x.py": src})
        assert run_rules(project, ["determinism"]) == []

    def test_suppression_for_other_rule_does_not_silence(self, make_project):
        src = f"{LOOP}  # repro: lint-ok[trace-guard]\n    pass\n"
        project = make_project({"core/x.py": src})
        findings = run_rules(project, ["determinism"])
        assert [f.rule for f in findings] == ["determinism"]

    def test_blanket_suppression_is_an_error(self, make_project):
        src = f"{LOOP}  # repro: lint-ok\n    pass\n"
        project = make_project({"core/x.py": src})
        findings = run_rules(project, ["determinism"])
        rules = {f.rule for f in findings}
        assert "suppression" in rules  # the blanket waiver itself
        assert "determinism" in rules  # and it silenced nothing
        blanket = [f for f in findings if f.rule == "suppression"][0]
        assert blanket.severity is Severity.ERROR

    def test_unused_suppression_warns_on_full_runs(self, make_project):
        src = "x = 1  # repro: lint-ok[determinism]\n"
        project = make_project({"core/util.py": src})
        findings = run_rules(project)
        assert any(
            f.rule == "suppression" and "unused" in f.message for f in findings
        )
        # Partial runs cannot tell unused from not-checked: no warning.
        assert run_rules(project, ["trace-guard"]) == []

    def test_docstring_mention_is_not_a_waiver(self):
        src = '"""Docs say: use # repro: lint-ok[determinism] to waive."""\nx = 1\n'
        module = ModuleSource("core/doc.py", src)
        assert module.suppressions == {}

    def test_unknown_rule_waiver_is_an_error(self, make_project):
        src = "x = 1  # repro: lint-ok[proces-yield]\n"
        project = make_project({"core/util.py": src})
        findings = run_rules(project, ["determinism"])  # even on partial runs
        (finding,) = findings
        assert finding.rule == "suppression"
        assert finding.severity is Severity.ERROR
        assert "unknown rule 'proces-yield'" in finding.message

    def test_unknown_rule_waiver_not_double_reported(self, make_project):
        src = "x = 1  # repro: lint-ok[no-such-rule]\n"
        project = make_project({"core/util.py": src})
        findings = run_rules(project)  # full run: unused warnings active
        assert [f for f in findings if "unknown rule" in f.message]
        assert not [f for f in findings if "unused" in f.message]

    def test_blanket_waiver_on_a_yield_is_an_error(self, make_project):
        src = (
            "class Bus:\n"
            "    def transact(self, txn):\n"
            "        yield self.sim.timeout(1)\n"
            "        yield 5  # repro: lint-ok\n"
        )
        project = make_project({"bus/asb.py": src})
        findings = run_rules(project, ["process-yield"])
        blanket = [f for f in findings if f.rule == "suppression"]
        assert blanket and blanket[0].severity is Severity.ERROR
        assert "blanket" in blanket[0].message
        # And it silenced nothing: the bad yield is still reported.
        assert [f for f in findings if f.rule == "process-yield"]


class TestReporters:
    def _findings(self):
        return [
            Finding("determinism", "a.py", 3, "iteration over a set"),
            Finding(
                "suppression", "b.py", 1, "unused", severity=Severity.WARNING
            ),
        ]

    def test_text_report(self):
        out = io.StringIO()
        render_text(self._findings(), out)
        text = out.getvalue()
        assert "a.py:3: [error] determinism: iteration over a set" in text
        assert "1 error(s), 1 warning(s)" in text

    def test_text_report_clean(self):
        out = io.StringIO()
        render_text([], out)
        assert "clean" in out.getvalue()

    def test_json_report_schema(self):
        out = io.StringIO()
        render_json(self._findings(), out)
        doc = json.loads(out.getvalue())
        assert doc["errors"] == 1
        assert doc["warnings"] == 1
        assert doc["findings"][0] == {
            "rule": "determinism",
            "path": "a.py",
            "line": 3,
            "severity": "error",
            "message": "iteration over a set",
        }


class TestSelection:
    def test_unknown_rule_rejected(self, make_project):
        project = make_project({"core/x.py": "x = 1\n"})
        with pytest.raises(KeyError):
            run_rules(project, ["no-such-rule"])

    def test_registry_contains_the_documented_rules(self):
        run_rules(load_project(["tests/lint/conftest.py"]))  # force registration
        assert set(RULES) == {
            "determinism",
            "trace-guard",
            "process-yield",
            "engine-contract",
            "fabric-contract",
        }

    def test_findings_sorted_and_stable(self, make_project):
        src = textwrap.dedent(
            """
            for b in {2}:
                pass

            for a in {1}:
                pass
            """
        )
        project = make_project({"core/x.py": src})
        findings = run_rules(project, ["determinism"])
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestLabelStability:
    def test_package_files_keep_package_relative_labels(self):
        # Naming a package file directly must not change its label:
        # waivers key on the package-relative path.
        import repro

        kernel = Path(repro.__file__).parent / "sim" / "kernel.py"
        project = load_project([str(kernel)])
        assert [m.path for m in project.modules] == ["sim/kernel.py"]

    def test_outside_files_fall_back_to_root_relative(self, tmp_path):
        (tmp_path / "mod.py").write_text("items = (1, 2, 3)\n")
        project = load_project([str(tmp_path)])
        assert [m.path for m in project.modules] == ["mod.py"]
