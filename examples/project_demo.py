"""Analyze a trimmed Android project directory end to end.

Loads ``examples/projects/notepad`` (Java-subset sources, layout XML
with ``<include>``/``<merge>`` and ``android:onClick``, a manifest),
runs the reference analysis plus the three clients and the lint
checks, and executes the
app in the concrete interpreter with a soundness check.

Run:  python examples/project_demo.py
"""

import os

from repro import analyze
from repro.clients import (
    build_gui_model,
    build_transition_graph,
    run_taint_analysis,
)
from repro.frontend import load_app_from_dir
from repro.lint import LintOptions, run_lint
from repro.semantics import check_soundness, run_app

PROJECT = os.path.join(os.path.dirname(__file__), "projects", "notepad")


def main() -> None:
    app = load_app_from_dir(PROJECT)
    app.validate()
    result = analyze(app)

    print("== GUI model ==")
    print(build_gui_model(result).to_text())

    print("\n== Hierarchy of the list screen (after bindRow) ==")
    print(result.hierarchy_dump("com.example.notepad.NotesListActivity"))

    print("\n== Options menu ==")
    for item in result.menu_items_of("com.example.notepad.NotesListActivity"):
        print(f"  {item} (id={item.id_name})")

    print("\n== Transition graph ==")
    graph = build_transition_graph(result)
    for t in graph.transitions:
        print(f"  {t.source.rsplit('.',1)[-1]} -> {t.target.rsplit('.',1)[-1]} "
              f"({t.trigger.event.value} on {t.trigger.view})")
    assert graph.successors("com.example.notepad.NotesListActivity")

    print("\n== Taint (note text written to storage) ==")
    for finding in run_taint_analysis(result):
        print(" ", finding)

    print("\n== Error checks ==")
    report = run_lint(result, LintOptions(witness=False))
    for finding in report.findings:
        print(f"  [{finding.rule_id}] {finding.site}: {finding.message}")
    print(f"  ({len(report)} finding(s))")

    print("\n== Concrete execution ==")
    run = run_app(app)
    print("  fired events:", len(run.fired_events))
    soundness = check_soundness(result, run.trace)
    print(f"  soundness: {soundness.checked} facts checked, "
          f"{len(soundness.violations)} violations")
    assert soundness.is_sound


if __name__ == "__main__":
    main()
