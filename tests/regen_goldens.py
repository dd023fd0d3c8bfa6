"""Regenerate the golden files (run deliberately after intended changes)."""

import json
import os

from repro import analyze
from repro.bench.figures import run_figure4
from repro.core.analysis import AnalysisOptions
from repro.corpus import APP_SPECS, generate_app
from repro.corpus.connectbot import build_connectbot_example
from repro.frontend import FrontendError, load_app_from_dir
from repro.ir.printer import print_program
from repro.lint import LintOptions, render_text, run_lint, to_sarif
from repro.runner.tasks import fingerprint_hash

HERE = os.path.dirname(__file__)
EXAMPLES = os.path.join(HERE, os.pardir, "examples", "projects")


def build_lint_corpus_text() -> str:
    """Witness-free lint findings for the corpus apps plus the examples.

    Witness-free on purpose: finding content (rule, site, message) is
    deterministic, while witness selection prefers the *first* recorded
    derivation, which is an implementation detail the golden should not
    pin for every app. The buggy example's witnesses are pinned
    separately (they exercise one app, deliberately).
    """
    sections = []
    for spec in APP_SPECS:
        app = generate_app(spec)
        report = run_lint(analyze(app), LintOptions(witness=False))
        sections.append(f"== {spec.name} ==\n{render_text(report, witness=False)}")
    for example in ("notepad", "buggy"):
        app = load_app_from_dir(os.path.join(EXAMPLES, example))
        report = run_lint(analyze(app), LintOptions(witness=False))
        sections.append(f"== {example} ==\n{render_text(report, witness=False)}")
    return "\n\n".join(sections) + "\n"


def build_lint_buggy_text() -> str:
    """Full lint text (with witness paths) for the planted-bug example."""
    app = load_app_from_dir(os.path.join(EXAMPLES, "buggy"))
    result = analyze(app, AnalysisOptions(provenance=True))
    return render_text(run_lint(result)) + "\n"


def build_lint_notepad_sarif() -> str:
    """SARIF for the notepad example, byte-equal to the CLI's --output."""
    app = load_app_from_dir(os.path.join(EXAMPLES, "notepad"))
    result = analyze(app, AnalysisOptions(provenance=True))
    report = run_lint(result)
    return json.dumps(to_sarif(report), indent=2, sort_keys=True) + "\n"


def build_solver_fingerprints() -> str:
    """Naive-mode solution hashes of the corpus apps and the examples.

    The frozen reference for ``tests/test_solver_equivalence.py``: both
    scheduling policies must reproduce every hash. Refuses to write
    when the naive and semi-naive solutions disagree on any target.
    Example projects that do not load (``broken``) are skipped.
    """
    targets = [(f"corpus/{spec.name}", generate_app(spec)) for spec in APP_SPECS]
    for name in sorted(os.listdir(EXAMPLES)):
        if not os.path.isdir(os.path.join(EXAMPLES, name)):
            continue
        try:
            app = load_app_from_dir(os.path.join(EXAMPLES, name))
        except FrontendError:
            continue
        targets.append((f"examples/{name}", app))
    hashes = {}
    for key, app in targets:
        naive = fingerprint_hash(analyze(app, AnalysisOptions(solver="naive")))
        semi = fingerprint_hash(analyze(app, AnalysisOptions(solver="seminaive")))
        if naive != semi:
            raise SystemExit(f"{key}: naive and seminaive solutions differ")
        hashes[key] = naive
    return json.dumps(hashes, indent=2, sort_keys=True) + "\n"


def main() -> None:
    app = build_connectbot_example()
    result = analyze(app)
    goldens = {
        "connectbot_ir.txt": print_program(app.program),
        "figure4.txt": run_figure4(result),
        "hierarchy.txt": result.hierarchy_dump("connectbot.ConsoleActivity"),
        "lint_corpus.txt": build_lint_corpus_text(),
        "lint_buggy.txt": build_lint_buggy_text(),
        "lint_notepad.sarif": build_lint_notepad_sarif(),
        "solver_fingerprints.json": build_solver_fingerprints(),
    }
    for name, text in goldens.items():
        with open(os.path.join(HERE, "goldens", name), "w", encoding="utf-8") as f:
            f.write(text)
        print("wrote", name)


if __name__ == "__main__":
    main()
