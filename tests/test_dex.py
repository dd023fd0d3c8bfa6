"""Unit and round-trip tests for the Dalvik-text frontend."""

import pytest
from hypothesis import given, strategies as st

from repro import analyze
from repro.app import AndroidApp
from repro.core.metrics import compute_graph_stats, compute_precision
from repro.corpus.apps import APP_SPECS
from repro.corpus.connectbot import build_connectbot_example
from repro.corpus.generator import generate_app
from repro.dex import (
    DexSyntaxError,
    assemble_program,
    descriptor_to_type,
    parse_dex_text,
    type_to_descriptor,
)
from repro.dex.descriptors import (
    escape_string,
    join_method_descriptor,
    split_method_descriptor,
    unescape_string,
)
from repro.dex.parse import _DexParser
from repro.ir.statements import Cast, ConstNull, ConstString, Invoke, InvokeKind


def _method_with(instruction: str) -> str:
    """A one-class program whose line 3 is ``instruction``."""
    return f".class Lp/A;\n.method m()V\n    {instruction}\n.end method\n.end class"


class TestDescriptors:
    @pytest.mark.parametrize(
        "type_name,descriptor",
        [
            ("int", "I"),
            ("boolean", "Z"),
            ("void", "V"),
            ("java.lang.String", "Ljava/lang/String;"),
            ("android.view.View$OnClickListener", "Landroid/view/View$OnClickListener;"),
        ],
    )
    def test_roundtrip(self, type_name, descriptor):
        assert type_to_descriptor(type_name) == descriptor
        assert descriptor_to_type(descriptor) == type_name

    def test_malformed_descriptor(self):
        with pytest.raises(ValueError):
            descriptor_to_type("Lunclosed")

    def test_method_descriptor_split(self):
        params, ret = split_method_descriptor("(ILandroid/view/View;Z)V")
        assert params == ["int", "android.view.View", "boolean"]
        assert ret == "void"

    def test_method_descriptor_join(self):
        assert join_method_descriptor(["int"], "android.view.View") == (
            "(I)Landroid/view/View;"
        )

    def test_empty_params(self):
        assert split_method_descriptor("()V") == ([], "void")


class TestStringLiterals:
    @given(st.text())
    def test_unescape_inverts_escape(self, value):
        assert unescape_string(escape_string(value)) == value

    @given(st.text())
    def test_escaped_literal_is_one_line(self, value):
        assert len(f'"{escape_string(value)}"'.splitlines()) == 1

    def test_unknown_escape_is_kept(self):
        assert unescape_string("a\\qb") == "a\\qb"


class TestParser:
    def test_minimal_class(self):
        program = parse_dex_text(".class Lp/A;\n.super Ljava/lang/Object;\n.end class")
        clazz = program.clazz("p.A")
        assert clazz is not None and clazz.superclass == "java.lang.Object"

    def test_interface(self):
        program = parse_dex_text(".interface Lp/I;\n.end class")
        assert program.clazz("p.I").is_interface

    def test_fields(self):
        program = parse_dex_text(
            ".class Lp/A;\n.field f:I\n.field static g:Ljava/lang/String;\n.end class"
        )
        clazz = program.clazz("p.A")
        assert clazz.fields["f"].type_name == "int"
        assert clazz.fields["g"].is_static

    def test_method_with_params_and_locals(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m(ILjava/lang/Object;)V\n"
            "    .param x, I\n"
            "    .param y, Ljava/lang/Object;\n"
            "    .local t, Ljava/lang/Object;\n"
            "    move t, y\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        method = program.clazz("p.A").method("m", 2)
        assert method.param_names == ["x", "y"]
        assert method.locals["t"].type_name == "java.lang.Object"

    def test_invoke_merges_move_result(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    .local r, Ljava/lang/Object;\n"
            "    invoke-virtual {this}, Lp/A;->g()Ljava/lang/Object;\n"
            "    move-result-object r\n"
            "    return-void\n"
            ".end method\n"
            ".method g()Ljava/lang/Object;\n"
            "    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0\n"
            "    return-object x\n"
            ".end method\n"
            ".end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        call = next(s for s in body if isinstance(s, Invoke))
        assert call.lhs == "r"

    def test_invoke_without_result(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    invoke-virtual {this}, Lp/A;->m()V\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        call = next(
            s for s in program.clazz("p.A").method("m", 0).body
            if isinstance(s, Invoke)
        )
        assert call.lhs is None

    def test_move_checkcast_peephole(self):
        program = parse_dex_text(
            ".class Lp/A;\n"
            ".method m()V\n"
            "    .local a, Ljava/lang/Object;\n"
            "    .local b, Ljava/lang/String;\n"
            "    const/4 a, 0\n"
            "    move b, a\n"
            "    check-cast b, Ljava/lang/String;\n"
            "    return-void\n"
            ".end method\n"
            ".end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        casts = [s for s in body if isinstance(s, Cast)]
        assert casts and casts[0].rhs == "a" and casts[0].lhs == "b"

    def test_const4_zero_is_null(self):
        program = parse_dex_text(
            ".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0\n    return-void\n.end method\n.end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        assert any(isinstance(s, ConstNull) for s in body)

    def test_line_comments_recovered(self):
        program = parse_dex_text(
            ".class Lp/A;\n.method m()V\n    .local x, Ljava/lang/Object;\n"
            "    const/4 x, 0  # line 42\n    return-void\n.end method\n.end class"
        )
        body = program.clazz("p.A").method("m", 0).body
        assert body[0].line == 42

    @pytest.mark.parametrize(
        "text,message",
        [
            ("garbage", "unexpected top-level"),
            (".class Lp/A;\n.method m()V\n", "missing .end method"),
            (".class Lp/A;\n.method m()V\n    warp x\n.end method\n.end class",
             "unknown opcode"),
            (".class Lp/A;\n.method m()V\n    move-result-object r\n"
             ".end method\n.end class", "move-result without invoke"),
            (".class Lp/A;\n.method m()V\n"
             "    invoke-virtual {this, a}, Lp/A;->m()V\n"
             ".end method\n.end class", "argument count"),
            # Malformed operands name the source line, never a bare ValueError.
            (_method_with("move v0"), "line 3: malformed 'move v0'"),
            (_method_with("move v0, v1, v2"), "line 3: malformed 'move v0, v1, v2'"),
            (_method_with("iget v0, v1"), "line 3: malformed 'iget v0, v1'"),
            (_method_with("check-cast v0"), "line 3: malformed 'check-cast v0'"),
            (_method_with("if-nez v0"), "line 3: malformed 'if-nez v0'"),
            (_method_with("sget v0"), "line 3: malformed 'sget v0'"),
            (_method_with("const/4 v0, xyz"), "line 3: malformed 'const/4 v0, xyz'"),
            (_method_with("new-instance v0, Bad"), "line 3: .*type descriptor 'Bad'"),
            (".class Bad\n.end class", "line 1: malformed type descriptor 'Bad'"),
            (_method_with("invoke-static {}, Lp/A;->m(Q)V"),
             "line 3: .*parameter descriptor at 'Q'"),
            (".class Lp/A;\n.method m()V\n.end method\n.method m()V\n.end method\n"
             ".end class", "line 4: duplicate method m/0"),
            (".class Lp/A;\n.end class\n.class Lp/A;\n.end class", "line 3: duplicate class"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(DexSyntaxError, match=message):
            parse_dex_text(text)

    @pytest.mark.parametrize(
        "value", ["#fff", "x#y", "a # line 99", "two\nlines", 'say "hi"\\', "\\n"]
    )
    def test_const_string_roundtrip(self, value):
        """``#`` inside a literal is text, and every value reloads."""
        text = _method_with(f'const-string s, "{escape_string(value)}"  # line 7')
        for _ in range(2):  # the text as written, then as reassembled
            (stmt,) = parse_dex_text(text).clazz("p.A").method("m", 0).body
            assert stmt == ConstString("s", value, line=7)
            text = assemble_program(parse_dex_text(text))

    def test_literal_without_comment_keeps_hash(self):
        program = parse_dex_text(_method_with('const-string s, "x#y"'))
        assert program.clazz("p.A").method("m", 0).body == [ConstString("s", "x#y")]


class TestOpcodeTable:
    @pytest.mark.parametrize(
        "opcode,handler",
        [
            ("move-result-object", _DexParser._move_result),
            ("move", _DexParser._move),
            ("invoke-static", _DexParser._invoke),
            ("iget-object", _DexParser._iget),
            ("const-string", _DexParser._const_string),
            ("const/4", _DexParser._const),
            ("return-void", _DexParser._return_void),
            ("return-object", _DexParser._return),
        ],
    )
    def test_prefix_order(self, opcode, handler):
        parser = _DexParser("")
        assert parser._handler(opcode, 1) is handler
        assert parser.handlers == {opcode: handler}

    @pytest.mark.parametrize(
        "opcode,message",
        [("warp", "unknown opcode"), ("moves", "unknown opcode"),
         ("invoke-super", "unknown invoke"), (".local", "unknown opcode")],
    )
    def test_unknown_opcodes_are_not_memoised(self, opcode, message):
        parser = _DexParser("")
        with pytest.raises(DexSyntaxError, match=message):
            parser._handler(opcode, 1)
        assert parser.handlers == {}

    def test_each_parse_starts_empty(self):
        text = assemble_program(build_connectbot_example().program)
        first, second = _DexParser(text), _DexParser(text)
        first.parse()
        assert first.handlers and first.types and first.field_refs
        assert not (second.handlers or second.types or second.field_refs)
        assert not (second.method_refs or second.signatures)


class TestRoundTrip:
    @pytest.mark.parametrize("spec", APP_SPECS, ids=lambda spec: spec.name)
    def test_corpus_app_reassembles_identically(self, spec):
        """Statements, lines, params, locals, fields and casts survive."""
        text = assemble_program(generate_app(spec).program)
        assert assemble_program(parse_dex_text(text)) == text

    def test_connectbot_solution_preserved(self):
        app = build_connectbot_example()
        program2 = parse_dex_text(assemble_program(app.program))
        app2 = AndroidApp("rt", program2, app.resources, app.manifest)
        r1, r2 = analyze(app), analyze(app2)
        assert compute_graph_stats(r1).as_row()[1:] == compute_graph_stats(r2).as_row()[1:]
        assert compute_precision(r1).as_row()[2:] == compute_precision(r2).as_row()[2:]
        v1 = {str(v) for v in r1.views_at_var(
            "connectbot.EscapeButtonListener", "onClick", 1, "v")}
        v2 = {str(v) for v in r2.views_at_var(
            "connectbot.EscapeButtonListener", "onClick", 1, "v")}
        assert v1 == v2 == {"TerminalView_21"}

    def test_assembly_idempotent(self):
        app = build_connectbot_example()
        text1 = assemble_program(app.program)
        text2 = assemble_program(parse_dex_text(text1))
        text3 = assemble_program(parse_dex_text(text2))
        assert text2 == text3

    def test_frontend_to_dex_pipeline(self):
        """Java subset -> IR -> Dalvik text -> IR -> analysis."""
        from repro.frontend import load_app_from_sources

        app = load_app_from_sources(
            "t",
            ["package p; class Main extends Activity {"
             " void onCreate() {"
             "   this.setContentView(R.layout.main);"
             "   View b = this.findViewById(R.id.ok);"
             " } }"],
            {"main": '<LinearLayout><Button android:id="@+id/ok"/></LinearLayout>'},
        )
        program2 = parse_dex_text(assemble_program(app.program))
        app2 = AndroidApp("t2", program2, app.resources, app.manifest)
        result = analyze(app2)
        views = result.views_at_var("p.Main", "onCreate", 0, "b")
        assert {v.view_class for v in views} == {"android.widget.Button"}
