"""Tests for the `python -m repro` command-line interface."""

import json
import os

import pytest

from repro.__main__ import main

PROJECT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "examples", "projects", "notepad")
)


class TestAnalyze:
    def test_basic(self, capsys):
        assert main(["analyze", PROJECT]) == 0
        out = capsys.readouterr().out
        assert "app: notepad" in out
        assert "NotesListActivity" in out
        assert "options menu" in out

    def test_json(self, capsys):
        assert main(["analyze", PROJECT, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["app"] == "notepad"
        assert data["gui_tuples"]

    def test_tuples_and_transitions(self, capsys):
        assert main(["analyze", PROJECT, "--tuples", "--transitions"]) == 0
        out = capsys.readouterr().out
        assert "GUI tuples:" in out
        assert "-> com.example.notepad.EditNoteActivity" in out

    def test_checks_clean_exit_zero(self, capsys):
        assert main(["analyze", PROJECT, "--checks"]) == 0

    def test_checks_buggy_exit_one(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "res" / "layout").mkdir(parents=True)
        (tmp_path / "src" / "a.alite").write_text(
            "package p; class A extends Activity {"
            " void onCreate() {"
            "   this.setContentView(R.layout.m);"
            "   View x = this.findViewById(R.id.ghost);"
            " } }"
        )
        (tmp_path / "res" / "layout" / "m.xml").write_text(
            '<LinearLayout android:id="@+id/real"/>'
        )
        assert main(["analyze", str(tmp_path), "--checks"]) == 1
        assert "unresolved-lookup" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot_file = str(tmp_path / "graph.dot")
        assert main(["analyze", PROJECT, "--dot", dot_file]) == 0
        with open(dot_file) as f:
            assert f.read().startswith("digraph constraint_graph")

    def test_taint(self, capsys):
        assert main(["analyze", PROJECT, "--taint"]) == 0
        assert "EditText" in capsys.readouterr().out


class TestRunAndDisasm:
    def test_run(self, capsys):
        assert main(["run", PROJECT]) == 0
        out = capsys.readouterr().out
        assert "soundness:" in out
        assert "0 violations" in out

    def test_disasm_stdout(self, capsys):
        assert main(["disasm", PROJECT]) == 0
        out = capsys.readouterr().out
        assert ".class Lcom/example/notepad/NotesListActivity;" in out
        assert "const-menu" in out

    def test_disasm_file_roundtrips(self, tmp_path, capsys):
        target = str(tmp_path / "app.smali")
        assert main(["disasm", PROJECT, "-o", target]) == 0
        from repro.dex import parse_dex_text

        with open(target) as f:
            program = parse_dex_text(f.read())
        assert program.clazz("com.example.notepad.NotesListActivity") is not None


BROKEN = os.path.join(os.path.dirname(PROJECT), "broken")
COMMANDS = ("analyze", "lint", "run", "disasm")


def _smali_project(tmp_path, instruction: str) -> str:
    """A project whose classes.smali has ``instruction`` on line 4."""
    from repro.corpus.export import dump_app
    from repro.frontend import load_app_from_dir

    project = tmp_path / "dumped"
    dump_app(load_app_from_dir(PROJECT), str(project))
    smali = project / "classes.smali"
    lines = smali.read_text().splitlines()
    assert lines[3].startswith(".method")
    lines.insert(4, "    " + instruction)
    smali.write_text("\n".join(lines) + "\n")
    return str(project)


class TestLoadErrors:
    """Malformed input prints one located line and exits 2, no traceback."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_alite_parse_error(self, command, capsys):
        assert main([command, BROKEN]) == 2
        err = capsys.readouterr().err
        where = os.path.join(BROKEN, "src", "BrokenActivity.alite")
        assert err == f"repro: error: {where}:12: unexpected token ''\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_dalvik_syntax_error_names_the_file(self, command, tmp_path, capsys):
        project = _smali_project(tmp_path, "move v0")
        assert main([command, project]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro: error: {os.path.join(project, 'classes.smali')}:5: "
            "malformed 'move v0'"
        )
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_or_codeless_project(self, command, tmp_path, capsys):
        missing = str(tmp_path / "no_such_dir")
        assert main([command, missing]) == 2
        assert capsys.readouterr().err == (
            f"repro: error: {missing}: no such project directory\n"
        )
        empty = tmp_path / "empty"
        (empty / "res" / "layout").mkdir(parents=True)
        assert main([command, str(empty)]) == 2
        assert capsys.readouterr().err == (
            f"repro: error: {empty}: no .alite sources and no classes.smali\n"
        )

    def test_layout_error(self, tmp_path, capsys):
        (tmp_path / "res" / "layout").mkdir(parents=True)
        (tmp_path / "res" / "layout" / "main.xml").write_text("<LinearLayout>")
        assert main(["analyze", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {tmp_path}: main: XML parse error")
        assert err.count("\n") == 1

    def test_validation_error(self, tmp_path, capsys):
        project = _smali_project(tmp_path, "move v0, v1")
        assert main(["lint", project]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: {project}: ")
        assert "undeclared local 'v0'" in err and err.count("\n") == 1
