"""Unit tests for AST-to-IR lowering and whole-app loading."""

import pytest

from repro import analyze
from repro.frontend import compile_sources, load_app_from_sources
from repro.frontend.errors import FrontendError, LowerError
from repro.ir.statements import (
    Assign,
    BinOp,
    Cast,
    ConstLayoutId,
    ConstViewId,
    Goto,
    If,
    Invoke,
    InvokeKind,
    Label,
    Load,
    New,
    Return,
    StaticLoad,
    StaticStore,
    Store,
)
from repro.ir.validate import validate_program


def lower_single(body: str, extra: str = "", fields: str = "") -> list:
    program = compile_sources(
        [f"package p; class C {{ {fields} void m() {{ {body} }} {extra} }}"]
    )
    validate_program(program)
    return program.clazz("p.C").method("m", 0).body


class TestNameResolution:
    def test_package_local_class(self):
        program = compile_sources(["package p; class A { } class B extends A { }"])
        assert program.clazz("p.B").superclass == "p.A"

    def test_cross_file_resolution(self):
        program = compile_sources(
            ["package p; class A { }", "package q; import p.A; class B extends A { }"]
        )
        assert program.clazz("q.B").superclass == "p.A"

    def test_platform_short_names(self):
        program = compile_sources(
            ["package p; class A extends Activity { Button b; }"]
        )
        clazz = program.clazz("p.A")
        assert clazz.superclass == "android.app.Activity"
        assert clazz.fields["b"].type_name == "android.widget.Button"

    def test_nested_listener_interface(self):
        program = compile_sources(
            ["package p; import android.view.View;"
             " class L implements View.OnClickListener {"
             " void onClick(View v) { } }"]
        )
        assert program.clazz("p.L").interfaces == (
            "android.view.View$OnClickListener",
        )

    def test_unknown_type_reported(self):
        with pytest.raises(LowerError, match="unknown type 'Zorp'"):
            compile_sources(["class A { Zorp z; }"])

    def test_duplicate_class_reported(self):
        with pytest.raises(LowerError, match="duplicate class"):
            compile_sources(["package p; class A { } class A { }"])

    @pytest.mark.parametrize(
        "broken",
        [
            "package p; class B {",  # parse error
            "package p; class B { Zorp z; }",  # member type
            "package p; class B { void f() { x = 1; } }",  # method body
        ],
    )
    def test_error_names_its_source(self, broken):
        sources = ["package p; class A { }", broken, "package p; class C { }"]
        with pytest.raises(FrontendError) as info:
            compile_sources(sources, ["a.alite", "b.alite", "c.alite"])
        assert info.value.path == "b.alite"
        with pytest.raises(FrontendError) as info:
            compile_sources(sources)
        assert info.value.path is None


class TestStatementLowering:
    def test_r_constants(self):
        body = lower_single("int a = R.layout.main; int b = R.id.ok;")
        assert any(isinstance(s, ConstLayoutId) and s.layout_name == "main" for s in body)
        assert any(isinstance(s, ConstViewId) and s.id_name == "ok" for s in body)

    def test_field_store_load(self):
        body = lower_single("f = null; Object x = f;", fields="Object f;")
        assert any(isinstance(s, Store) and s.field_name == "f" for s in body)
        assert any(isinstance(s, Load) and s.field_name == "f" for s in body)

    def test_static_field_access(self):
        body = lower_single(
            "g = null; Object x = g;", fields="static Object g;"
        )
        assert any(isinstance(s, StaticStore) for s in body)
        assert any(isinstance(s, StaticLoad) for s in body)

    def test_new_with_constructor(self):
        body = lower_single(
            "D d = new D(this);", extra="", fields=""
        ) if False else compile_sources(
            ["package p; class C { void m() { D d = new D(this); } }"
             " class D { D(C c) { } }"]
        ).clazz("p.C").method("m", 0).body
        news = [s for s in body if isinstance(s, New)]
        inits = [s for s in body if isinstance(s, Invoke) and s.method_name == "<init>"]
        assert len(news) == 1 and len(inits) == 1
        assert inits[0].kind is InvokeKind.SPECIAL

    def test_new_platform_class_no_ctor_call(self):
        body = lower_single("Object o = new Object();")
        assert not any(
            isinstance(s, Invoke) and s.method_name == "<init>" for s in body
        )

    def test_if_produces_branches(self):
        body = lower_single("int x = 0; if (x == 1) { x = 2; } else { x = 3; }")
        assert any(isinstance(s, If) for s in body)
        assert any(isinstance(s, Goto) for s in body)
        assert sum(1 for s in body if isinstance(s, Label)) == 2
        assert any(isinstance(s, BinOp) and s.op == "==" for s in body)

    def test_while_produces_loop(self):
        body = lower_single("int x = 0; while (x < 2) { x = x + 1; }")
        labels = [s.name for s in body if isinstance(s, Label)]
        assert len(labels) == 2
        gotos = [s for s in body if isinstance(s, Goto)]
        assert gotos and gotos[-1].target == labels[0]

    def test_cast_lowering(self):
        body = lower_single("Object o = null; String s = (String) o;")
        casts = [s for s in body if isinstance(s, Cast)]
        assert casts and casts[0].type_name == "java.lang.String"

    def test_primitive_cast_is_identity(self):
        body = lower_single("int x = 1; int y = (int) x;")
        assert not any(isinstance(s, Cast) for s in body)

    def test_implicit_this_field(self):
        body = lower_single("Object x = f;", fields="Object f;")
        loads = [s for s in body if isinstance(s, Load)]
        assert loads and loads[0].base == "this"

    def test_unqualified_call_is_this_call(self):
        body = lower_single("helper();", extra="void helper() { }")
        calls = [s for s in body if isinstance(s, Invoke)]
        assert calls and calls[0].base == "this"

    def test_static_call_on_class_name(self):
        program = compile_sources(
            ["package p; class Util { static void go() { } }"
             " class C { void m() { Util.go(); } }"]
        )
        body = program.clazz("p.C").method("m", 0).body
        calls = [s for s in body if isinstance(s, Invoke)]
        assert calls[0].kind is InvokeKind.STATIC
        assert calls[0].class_name == "p.Util"

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(LowerError, match="undeclared"):
            lower_single("ghost = 1;")

    def test_unknown_method_rejected(self):
        with pytest.raises(LowerError, match="unknown method"):
            lower_single("ghost();")

    def test_platform_call_result_typed(self):
        body = lower_single(
            "Activity a = null; Object v = a.findViewById(1);",
        )
        # The temp receiving findViewById's result is View-typed, which
        # is what drives downstream op classification.
        program = compile_sources(
            ["package p; class C { void m() {"
             " Activity a = null; Object v = a.findViewById(1); } }"]
        )
        method = program.clazz("p.C").method("m", 0)
        call = next(s for s in method.body if isinstance(s, Invoke))
        assert method.locals[call.lhs].type_name == "android.view.View"


class TestWholeApp:
    def test_load_app_auto_manifest(self):
        app = load_app_from_sources(
            "t",
            ["package p; class Main extends Activity { void onCreate() { } }"
             " class Other extends Activity { void onCreate() { } }"],
        )
        assert app.manifest.main_activity() == "p.Main"
        assert len(app.manifest.activities) == 2

    def test_load_app_with_manifest(self):
        app = load_app_from_sources(
            "t",
            ["package p; class Main extends Activity { void onCreate() { } }"],
            manifest_xml="""
                <manifest package="p">
                  <application><activity android:name=".Main"/></application>
                </manifest>
            """,
        )
        assert app.manifest.activities == ["p.Main"]

    def test_load_app_from_dir(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "res" / "layout").mkdir(parents=True)
        (tmp_path / "src" / "main.alite").write_text(
            "package p; class Main extends Activity {"
            " void onCreate() { this.setContentView(R.layout.main); } }"
        )
        (tmp_path / "res" / "layout" / "main.xml").write_text(
            '<LinearLayout android:id="@+id/root"/>'
        )
        from repro.frontend import load_app_from_dir

        app = load_app_from_dir(str(tmp_path), name="t")
        result = analyze(app)
        assert result.roots_of_activity("p.Main")
