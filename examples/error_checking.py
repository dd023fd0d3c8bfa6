"""Static error checking of GUI code.

An app with four deliberately planted GUI bugs, each caught by a
checker built on the reference analysis:

* a find-view with an id that exists in no reachable hierarchy;
* a cast of a find-view result that can never succeed;
* a duplicate view id making a lookup ambiguous;
* a listener object that is never registered on any view.

(The checkers are the lint engine's rules in ``repro.lint`` — five
registered rules GUI001-GUI005, looked up here by name; this example
exercises four of them. For severities, witness paths, and SARIF
export, see ``docs/LINT.md`` and ``examples/projects/buggy``, which
plants one defect per rule.)

Run:  python examples/error_checking.py
"""

from repro import analyze
from repro.frontend import load_app_from_sources
from repro.lint import LintOptions, run_lint

SOURCE = """
package buggy;

import android.app.Activity;
import android.view.View;
import android.widget.Button;
import android.widget.ImageView;
import android.widget.TextView;

class BuggyActivity extends Activity {
    void onCreate() {
        this.setContentView(R.layout.screen);

        // Bug 1: no view with id "titel" exists anywhere ("title" typo).
        View t = this.findViewById(R.id.titel);

        // Bug 2: R.id.icon is an ImageView; this cast always fails.
        View i = this.findViewById(R.id.icon);
        Button broken = (Button) i;

        // Bug 3: two widgets share R.id.row -- ambiguous lookup.
        View dup = this.findViewById(R.id.row);

        // Bug 4: allocated listener never registered anywhere.
        DeadListener dead = new DeadListener();

        // And one healthy wiring, for contrast.
        View ok = this.findViewById(R.id.icon);
        ImageView icon = (ImageView) ok;
        LiveListener live = new LiveListener();
        icon.setOnClickListener(live);
    }
}

class DeadListener implements View.OnClickListener {
    void onClick(View v) { }
}

class LiveListener implements View.OnClickListener {
    void onClick(View v) { }
}
"""

LAYOUT = """
<LinearLayout>
    <TextView android:id="@+id/title"/>
    <ImageView android:id="@+id/icon"/>
    <TextView android:id="@+id/row"/>
    <TextView android:id="@+id/row"/>
</LinearLayout>
"""


def main() -> None:
    app = load_app_from_sources("buggy", [SOURCE], {"screen": LAYOUT})
    result = analyze(app)
    report = run_lint(result, LintOptions(witness=False))

    print(f"== {len(report)} finding(s) ==")
    for finding in report.findings:
        print(f"  [{finding.rule_id}] {finding.site}: {finding.message}")

    assert report.by_rule("unresolved-lookup"), "typo'd id not caught"
    assert report.by_rule("bad-cast"), "impossible cast not caught"
    assert report.by_rule("ambiguous-lookup"), "duplicate id not caught"
    dead = report.by_rule("dead-listener")
    assert len(dead) == 1 and "DeadListener" in dead[0].message
    print("\nAll four planted bugs were caught.")


if __name__ == "__main__":
    main()
