"""Tests for ASCII table rendering."""

import pytest

from repro.errors import AnalysisError
from repro.io.tables import format_left_table, format_series, format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            ["metric", "value"],
            [["latency", 42.0], ["loss", 0.5]],
            title="Fig. 1",
        )
        lines = text.splitlines()
        assert lines[0] == "Fig. 1"
        assert "metric" in lines[1]
        assert "-" in lines[2]
        assert "42.00" in text

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["x", 1], ["longer", 2]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])  # header matches rule width

    def test_mismatched_row_raises(self):
        with pytest.raises(AnalysisError):
            format_table(["a", "b"], [["only one"]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_floats_formatted(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.14" in text and "3.14159" not in text


class TestFormatSeries:
    def test_pairs_rendered(self):
        text = format_series([(1, 10.0), (2, 20.0)], "month", "mbps")
        assert "month" in text and "mbps" in text
        assert "20.00" in text


class TestFormatLeftTable:
    def test_left_aligned_with_rule_and_no_trailing_blanks(self):
        text = format_left_table(("name", "n", "note"),
                                 [("a", "10", "-"), ("longer", "2", "")])
        assert text.splitlines() == [
            "name    n   note",
            "------  --  ----",
            "a       10  -",
            "longer  2",
        ]

    def test_header_only(self):
        assert format_left_table(("x", "yy"), []) == "x  yy\n-  --"
