"""Cyclic collector policy and the acyclic-solution guarantee.

The CLI and batch workers pause the cyclic collector for one command
(:mod:`repro.collector`). That is only memory-safe while analysis
results contain no reference cycles, so reference counting alone frees
them once a command drops them. These tests pin both halves.
"""

from __future__ import annotations

import contextlib
import gc
import os
import types

import pytest

from repro.bench.solverbench import scaled_spec
from repro.clients import build_transition_graph, run_taint_analysis
from repro.collector import collector_paused
from repro.core.analysis import AnalysisOptions, analyze
from repro.corpus.apps import spec_by_name
from repro.corpus.export import dump_app
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_dir
from repro.ir.program import Method
from repro.lint import run_lint, to_sarif
from repro.runner import BatchOptions, run_batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROJECTS = os.path.join(ROOT, "examples", "projects")


# -- acyclic solutions ---------------------------------------------------------


@contextlib.contextmanager
def _saving_garbage():
    """Pause the collector and keep whatever it later finds unreachable."""
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if was_enabled:
            gc.enable()


def _repro_name(obj: object):
    """``obj``'s qualified name if ``repro`` defines it (or its type)."""
    owner = obj if isinstance(obj, types.FunctionType) else type(obj)
    module = owner.__module__ or ""
    if module == "repro" or module.startswith("repro."):
        return f"{module}.{owner.__qualname__}"
    return None


def _leaked(run) -> list:
    """``repro`` objects left in reference cycles once ``run`` returns."""
    with _saving_garbage():
        run()
        gc.collect()
        # Describe rather than return the objects: holding them would
        # outlive the garbage list that is cleared on exit.
        return sorted({_repro_name(o) for o in gc.garbage} - {None})


def _lint_pipeline(project: str) -> None:
    app = load_app_from_dir(project)
    app.validate()
    for provenance in (False, True):
        result = analyze(app, AnalysisOptions(provenance=provenance))
        to_sarif(run_lint(result))


def _corpus_project(tmp_path, name: str) -> str:
    path = str(tmp_path / name)
    dump_app(generate_app(spec_by_name(name)), path)
    return path


class TestAcyclicSolutions:
    @pytest.mark.parametrize("project", ["notepad", "buggy"])
    def test_alite_lint_pipeline(self, project):
        path = os.path.join(PROJECTS, project)
        assert _leaked(lambda: _lint_pipeline(path)) == []

    def test_corpus_lint_pipeline(self, tmp_path):
        path = _corpus_project(tmp_path, "ConnectBot")
        assert _leaked(lambda: _lint_pipeline(path)) == []

    def test_scale_clients(self, tmp_path):
        path = str(tmp_path / "scale8")
        dump_app(generate_app(scaled_spec(8)), path)

        def run() -> None:
            result = analyze(load_app_from_dir(path))
            build_transition_graph(result)
            run_taint_analysis(result)

        assert _leaked(run) == []


# -- who pauses the collector ----------------------------------------------------


def _collector_state_job(app, analysis):
    return gc.isenabled()


class TestCollectorPolicy:
    def test_pause_restores_and_nests(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_pause_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_main_restores_collector(self, monkeypatch, capsys):
        from repro import __main__ as cli

        seen = []
        monkeypatch.setattr(
            cli, "_cmd_disasm", lambda args: seen.append(gc.isenabled()) or 0
        )
        assert cli.main(["disasm", os.path.join(PROJECTS, "notepad")]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_main_restores_collector_when_command_raises(self, monkeypatch):
        from repro import __main__ as cli

        def boom(args):
            raise RuntimeError("command failed")

        monkeypatch.setattr(cli, "_cmd_disasm", boom)
        with pytest.raises(RuntimeError):
            cli.main(["disasm", os.path.join(PROJECTS, "notepad")])
        assert gc.isenabled()

    def test_main_leaves_disabled_collector_disabled(self, capsys):
        from repro.__main__ import main

        gc.disable()
        try:
            assert main(["disasm", os.path.join(PROJECTS, "notepad")]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_library_calls_leave_collector_alone(self):
        app = load_app_from_dir(os.path.join(PROJECTS, "notepad"))
        result = analyze(app, AnalysisOptions(provenance=True))
        run_lint(result)
        assert gc.isenabled()

    def test_batch_worker_runs_paused(self):
        batch = run_batch(
            [os.path.join(PROJECTS, "notepad")],
            BatchOptions(jobs=1, retries=0),
            job=_collector_state_job,
        )
        batch.require_ok()
        assert list(batch.payloads().values()) == [False]
        assert gc.isenabled()


# -- Method.sig ------------------------------------------------------------------


class TestMethodSig:
    def test_sig_is_built_once(self):
        m = Method("onClick", "app.Main", params=[("v", "android.view.View")])
        assert m.sig is m.sig
        assert m.sig.arity == 1

    def test_add_param_updates_arity(self):
        m = Method("run", "app.Main")
        before = m.sig
        m.add_param("x", "int")
        assert before.arity == 0
        assert m.sig.arity == 1
        assert m.sig is m.sig
