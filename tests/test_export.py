"""Tests for DOT/JSON export of graphs and solutions."""

import json
import re

import pytest

from repro import analyze
from repro.core.export import graph_to_dot, result_to_json


class TestDot:
    def test_contains_figure_nodes(self, connectbot_result):
        dot = graph_to_dot(connectbot_result.graph)
        assert dot.startswith("digraph constraint_graph")
        assert "Inflate1_19" in dot
        assert "R.layout.act_console" in dot
        assert 'label="child"' in dot
        assert dot.rstrip().endswith("}")

    def test_without_vars(self, connectbot_result):
        full = graph_to_dot(connectbot_result.graph, include_vars=True)
        slim = graph_to_dot(connectbot_result.graph, include_vars=False)
        assert len(slim) < len(full)
        assert "onCreate$g" not in slim

    def test_identical_across_analyses(self, connectbot_app):
        # Two analyses share no node objects, so ids derived from
        # identity or hashes would differ between them.
        first = graph_to_dot(analyze(connectbot_app).graph)
        assert first == graph_to_dot(analyze(connectbot_app).graph)
        declared = re.findall(r"^  (n\d+) \[", first, re.MULTILINE)
        assert declared == [f"n{i}" for i in range(len(declared))]

    def test_without_flow(self, connectbot_result):
        dot = graph_to_dot(connectbot_result.graph, include_flow=False)
        # Only dashed relationship edges remain.
        plain_edges = [
            line for line in dot.splitlines()
            if "->" in line and "style=dashed" not in line
        ]
        assert plain_edges == []


class TestJson:
    def test_valid_and_complete(self, connectbot_result):
        data = json.loads(result_to_json(connectbot_result))
        assert data["app"] == "ConnectBot-example"
        assert data["statistics"]["views_inflated"] == 6
        assert data["precision"]["receivers"] == pytest.approx(1.0)
        kinds = {op["kind"] for op in data["operations"]}
        assert {"Inflate1", "Inflate2", "SetListener", "SetId"} <= kinds
        assert data["relationships"]["child"]
        assert data["gui_tuples"][0]["event"] == "click"

    def test_operation_sets_serialised(self, connectbot_result):
        data = json.loads(result_to_json(connectbot_result))
        setid = next(op for op in data["operations"] if op["kind"] == "SetId")
        assert setid["receivers"] == ["TerminalView_21"]
        assert setid["arguments"] == ["R.id.console_flip"]

    def test_indent_option(self, connectbot_result):
        text = result_to_json(connectbot_result, indent=2)
        assert text.startswith("{\n  ")
        json.loads(text)
