"""The ``repro.lint`` static-analysis subsystem: rule fixtures, the
suppression machinery, the CLI surface, and the fixture-injection
guard against a linter that passes everything."""

import glob
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.analysis import analyze_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import RULES, module_name_for

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "lint_fixtures")

RULE_CODES = ("RPR001", "RPR003")

#: The code of each rule the engine runs (each rule module's ``CODE``).
ENGINE_CODES = tuple(sorted(sys.modules[check.__module__].CODE for check in RULES))

#: Auto-discovered fixture pairs: every ``rprNNN_bad.py`` in the corpus,
#: as its rule code.  New rules cannot ship without honest fixtures —
#: the discovery test below cross-checks this set against the engine.
DISCOVERED_CODES = tuple(
    sorted(
        m.group(1).upper()
        for p in glob.glob(os.path.join(FIXTURES, "rpr*_bad.py"))
        for m in [re.match(r"(rpr\d+)_bad\.py$", os.path.basename(p))]
        if m
    )
)


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint(path):
    return analyze_paths([path])


def codes_in(path):
    return {f.code for f in lint(path)}


class TestRuleFixtures:
    """Each rule has one fixture that triggers it and one that does not.

    The pairs are auto-discovered from ``tests/lint_fixtures/`` so a new
    rule's fixtures are exercised the moment they land — and a rule
    *without* fixtures fails the engine cross-check."""

    def test_every_rule_has_a_fixture_pair(self):
        assert DISCOVERED_CODES == ENGINE_CODES
        for code in DISCOVERED_CODES:
            assert os.path.exists(fixture(f"{code.lower()}_good.py")), (
                f"{code} has a _bad fixture but no _good twin"
            )

    @pytest.mark.parametrize("code", DISCOVERED_CODES)
    def test_positive_fixture_triggers_exactly_its_rule(self, code):
        found = codes_in(fixture(f"{code.lower()}_bad.py"))
        assert found == {code}

    @pytest.mark.parametrize("code", DISCOVERED_CODES)
    def test_negative_fixture_is_clean(self, code):
        assert lint(fixture(f"{code.lower()}_good.py")) == []

    def test_rpr001_covers_all_four_hazards(self):
        messages = " | ".join(
            f.message for f in lint(fixture("rpr001_bad.py"))
        )
        assert "iteration over a set" in messages
        assert "random.choice" in messages
        assert "wall-clock read" in messages
        assert "id()" in messages

    def test_engine_runs_exactly_the_documented_rules(self):
        assert ENGINE_CODES == RULE_CODES


class TestSuppressions:
    def _write(self, tmp_path, text):
        path = tmp_path / "frag.py"
        path.write_text(text)
        return str(path)

    def test_noqa_with_reason_suppresses(self, tmp_path):
        path = self._write(
            tmp_path,
            "# repro-lint-module: repro.sim.frag\n"
            "S = {1, 2}\n"
            "OUT = [x for x in S]  # repro: noqa[RPR001] order never observed\n",
        )
        assert lint(path) == []

    def test_noqa_without_reason_is_rpr000(self, tmp_path):
        path = self._write(
            tmp_path,
            "# repro-lint-module: repro.sim.frag\n"
            "S = {1, 2}\n"
            "OUT = [x for x in S]  # repro: noqa[RPR001]\n",
        )
        assert {f.code for f in lint(path)} == {"RPR000"}

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        path = self._write(
            tmp_path,
            "# repro-lint-module: repro.sim.frag\n"
            "S = {1, 2}\n"
            "OUT = [x for x in S]  # repro: noqa[RPR003] wrong code entirely\n",
        )
        assert "RPR001" in {f.code for f in lint(path)}

    def test_syntax_error_reports_rpr000_instead_of_crashing(self, tmp_path):
        path = self._write(tmp_path, "def broken(:\n")
        findings = lint(path)
        assert [f.code for f in findings] == ["RPR000"]
        assert "does not parse" in findings[0].message


class TestModuleNames:
    def test_derived_from_src_layout(self):
        assert (
            module_name_for("src/repro/sim/scheduler.py", []) == "repro.sim.scheduler"
        )
        assert module_name_for("src/repro/sim/__init__.py", []) == "repro.sim"

    def test_override_comment_wins(self):
        lines = ["# repro-lint-module: repro.policies.synthetic"]
        assert module_name_for("anywhere/at/all.py", lines) == "repro.policies.synthetic"


class TestBaseline:
    def test_src_is_clean(self, monkeypatch):
        """Nothing in the tree is grandfathered: every accepted finding
        carries an inline reasoned suppression instead."""
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src"]) == 0


class TestCli:
    @pytest.mark.parametrize(
        "flag",
        [
            "--baseline", "--no-baseline", "--write-baseline",
            "--select RPR001", "--list-rules",
        ],
    )
    def test_no_baseline_flag_exists(self, capsys, flag):
        """Accepted findings carry inline reasoned suppressions; there is
        no baseline file to grandfather them.  Both rules always run, so
        there is no rule selection or listing either."""
        with pytest.raises(SystemExit) as exc:
            lint_main(["src", *flag.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_json_format_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["src", "--format", "json"])
        assert exc.value.code == 2
        assert "invalid choice: 'json'" in capsys.readouterr().err

    def test_github_format_emits_error_annotations(self, capsys):
        rc = lint_main(
            [fixture("rpr003_bad.py"), "--format", "github"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        annotations = [l for l in lines if l.startswith("::error ")]
        assert len(annotations) == 1
        (ann,) = annotations
        assert "file=" in ann and ",line=4," in ann
        assert "title=RPR003" in ann
        assert "::" in ann.split("title=RPR003", 1)[1]
        assert lines[-1] == "1 finding(s)"

    def test_github_format_escapes_message_newlines_and_percent(self):
        from repro.analysis.cli import render_github
        from repro.analysis.core import Finding

        f = Finding(
            code="RPR001",
            path="src/x.py",
            line=3,
            col=1,
            message="bad 100%\nsecond line",
        )
        rendered = render_github(f)
        assert "\n" not in rendered
        assert "%25" in rendered and "%0A" in rendered

    def test_github_format_clean_tree_exits_zero(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert not any(l.startswith("::error") for l in out.splitlines())


class TestInjectionGuard:
    """Dropping a known-bad fixture into an otherwise-clean tree must
    fail the gate (guards against the linter silently passing
    everything)."""

    def test_injected_violation_fails_a_clean_tree(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "clean.py").write_text(
            '"""A clean module."""\n\nVALUE = sorted({1, 2, 3})\n'
        )
        assert lint_main([str(tmp_path / "src")]) == 0

        shutil.copy(fixture("rpr001_bad.py"), tree / "injected.py")
        assert lint_main([str(tmp_path / "src")]) == 1
        findings = analyze_paths([str(tmp_path / "src")])
        assert {f.code for f in findings} == {"RPR001"}


class TestExportTables:
    """RPR003 reads a package init's ``_EXPORTS`` table (name ->
    submodule) as the imports it stands for, each on its entry's line."""

    @staticmethod
    def _service_init(tmp_path, entries):
        init = tmp_path / "src" / "repro" / "service" / "__init__.py"
        init.parent.mkdir(parents=True)
        init.write_text(
            '"""A service init."""\n\n'
            "from .. import _exports\n\n"
            "_EXPORTS = {\n"
            + "".join(f'    "{k}": "{v}",\n' for k, v in entries)
            + "}\n\n"
            "__all__ = tuple(_EXPORTS)\n"
            "__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)\n"
        )
        return str(init)

    def test_entry_into_sim_is_flagged_on_its_line(self, tmp_path):
        path = self._service_init(
            tmp_path,
            [("LockService", ".server"), ("Simulator", "..sim.scheduler")],
        )
        (finding,) = lint(path)
        assert finding.code == "RPR003"
        assert finding.line == 7
        assert "'repro.sim'" in finding.message
        assert "repro.sim.scheduler" in finding.message

    def test_conforming_table_passes(self, tmp_path):
        path = self._service_init(
            tmp_path,
            [("LockService", ".server"), ("LockKernel", "..kernel.core")],
        )
        assert lint(path) == []

    def test_only_package_inits_have_tables(self, tmp_path):
        module = tmp_path / "src" / "repro" / "service" / "helpers.py"
        module.parent.mkdir(parents=True)
        module.write_text('_EXPORTS = {"Simulator": "..sim.scheduler"}\n')
        assert lint(str(module)) == []


class TestLinterIsolation:
    """The linter runs on a tree whose checked code cannot even be
    imported: running ``repro/__init__.py`` loads no other layer."""

    def test_lint_runs_on_a_tree_with_a_broken_core_module(self, tmp_path):
        tree = tmp_path / "repro"
        shutil.copytree(
            os.path.join(REPO_ROOT, "src", "repro"), tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        with open(tree / "core" / "canonical.py", "a") as fh:
            fh.write('\nraise RuntimeError("broken on import")\n')
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        done = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tree)],
            env=env, cwd=str(tmp_path), capture_output=True, text=True,
            timeout=120,
        )
        assert done.stdout.splitlines()[-1:] == ["0 finding(s)"], done.stderr
        assert done.returncode == 0
