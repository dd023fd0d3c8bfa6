"""Differential equivalence of the naive and semi-naive scheduling policies.

The safety net for the delta-driven scheduler: both modes must produce
*observationally identical* solutions — same ``flowsTo`` sets, same
relationship edges, same XML-handler bindings, same precision metrics —
on every corpus app and every on-disk example project.

Both modes must also reproduce the frozen naive-mode solution hashes in
``goldens/solver_fingerprints.json`` (``python tests/regen_goldens.py``
rebuilds them), so the shared indexes stay checked against the output
of the original reference solver, not only against each other.

The semi-naive run enables ``seminaive_cross_check``, so each claimed
fixed point is re-validated with one full sweep; a scheduler bug
that dropped work would surface both as a fingerprint mismatch and as
the cross-check RuntimeWarning (escalated to an error here).
"""

import json
import os
import warnings

import pytest

from repro.core.analysis import AnalysisOptions, GuiReferenceAnalysis, analyze
from repro.core.diff import diff_solutions, solution_fingerprint
from repro.corpus.apps import APP_SPECS
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_dir
from repro.runner.tasks import fingerprint_hash

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "projects")
EXAMPLE_PROJECTS = sorted(
    name
    for name in os.listdir(EXAMPLES_DIR)
    if os.path.isdir(os.path.join(EXAMPLES_DIR, name))
    # examples/projects/broken deliberately fails to load (it exercises
    # the batch runner's quarantine path) — not an analyzable project.
    and name != "broken"
)

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "solver_fingerprints.json")
with open(GOLDEN, encoding="utf-8") as _f:
    REFERENCE_HASHES = json.load(_f)

_APP_CACHE = {}


def _corpus_app(name):
    app = _APP_CACHE.get(("corpus", name))
    if app is None:
        spec = next(s for s in APP_SPECS if s.name == name)
        app = generate_app(spec)
        _APP_CACHE[("corpus", name)] = app
    return app


def _example_app(name):
    app = _APP_CACHE.get(("example", name))
    if app is None:
        app = load_app_from_dir(os.path.join(EXAMPLES_DIR, name))
        _APP_CACHE[("example", name)] = app
    return app


def _assert_modes_agree(app, key):
    naive = analyze(app, AnalysisOptions(solver="naive"))
    with warnings.catch_warnings():
        # A cross-check warning means the dependency index missed work:
        # that's a scheduler bug even if the final answer self-heals.
        warnings.simplefilter("error", RuntimeWarning)
        semi = analyze(
            app,
            AnalysisOptions(solver="seminaive", seminaive_cross_check=True),
        )
    problems = diff_solutions(
        solution_fingerprint(naive), solution_fingerprint(semi)
    )
    assert not problems, "solver modes disagree:\n" + "\n".join(problems)
    assert fingerprint_hash(naive) == REFERENCE_HASHES[key], "naive drifted from golden"
    assert fingerprint_hash(semi) == REFERENCE_HASHES[key], "seminaive drifted from golden"
    assert naive.converged and semi.converged
    assert semi.ops_skipped > 0, "scheduler never skipped an evaluation"
    # Discounting the cross-check's own full sweep, the scheduler must
    # never evaluate more rule instances than the naive mode does.
    sweep = len(semi.graph.ops())
    assert semi.ops_scheduled - sweep <= naive.ops_scheduled


@pytest.mark.parametrize("name", [s.name for s in APP_SPECS])
def test_corpus_app_equivalence(name):
    _assert_modes_agree(_corpus_app(name), f"corpus/{name}")


@pytest.mark.parametrize("name", EXAMPLE_PROJECTS)
def test_example_project_equivalence(name):
    _assert_modes_agree(_example_app(name), f"examples/{name}")


def test_golden_covers_every_target():
    expected = {f"corpus/{s.name}" for s in APP_SPECS}
    expected |= {f"examples/{name}" for name in EXAMPLE_PROJECTS}
    assert set(REFERENCE_HASHES) == expected


def test_unknown_solver_rejected():
    with pytest.raises(ValueError, match="unknown solver"):
        AnalysisOptions(solver="magic")


def test_naive_mode_counts_full_sweeps():
    app = _example_app(EXAMPLE_PROJECTS[0])
    result = analyze(app, AnalysisOptions(solver="naive"))
    assert result.solver == "naive"
    assert result.ops_skipped == 0
    assert result.ops_scheduled == result.rounds * len(result.graph.ops())


def test_seminaive_cross_check_disabled_by_default():
    app = _example_app(EXAMPLE_PROJECTS[0])
    analysis = GuiReferenceAnalysis(app, AnalysisOptions(solver="seminaive"))
    result = analysis.solve()
    assert result.solver == "seminaive"
    assert result.ops_skipped > 0
    # The graph's edge-change hook must be uninstalled after solving so
    # later client-side add_rel calls don't touch dead scheduler state.
    assert analysis.graph.rel_listener is None
