from pathlib import Path

import pytest

from framefuse.errors import BadConfig
from framefuse.report import (NON_METRIC_COLUMNS, ReportTable, _bold_positions,
                              read_table_csv, render_table)

FIXTURE = Path(__file__).parent / "data" / "ablation_16frame.csv"
GOLDEN = Path(__file__).parent / "data" / "ablation_16frame_golden.md"


def small_table():
    return ReportTable(
        columns=("method", "k", "acc"),
        rows=[{"method": "a", "k": "2", "acc": "0.50"},
              {"method": "b", "k": "2", "acc": "0.75"},
              {"method": "a", "k": "4", "acc": "0.60"},
              {"method": "b", "k": "4", "acc": "0.60"}])


def test_duplicate_columns_rejected():
    with pytest.raises(BadConfig, match="duplicate columns"):
        ReportTable(columns=("a", "a"), rows=[])


def test_read_table_from_text():
    table = read_table_csv("x,y\n1,2\n3,4\n")
    assert table.columns == ("x", "y")
    assert table.rows == [{"x": "1", "y": "2"}, {"x": "3", "y": "4"}]
    # one line without a newline is a header-only table, not a file name
    header_only = read_table_csv("x,y")
    assert header_only.columns == ("x", "y")
    assert header_only.rows == []


def test_read_table_from_path(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n5,6\n")
    table = read_table_csv(p.read_text())
    assert table.rows == [{"x": "5", "y": "6"}]


def test_read_table_skips_blank_lines():
    table = read_table_csv("x,y\n1,2\n\n3,4\n")
    assert len(table.rows) == 2


def test_read_table_empty_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(BadConfig, match="empty CSV: no header row"):
        read_table_csv(p.read_text())


def test_read_table_ragged_rejected():
    with pytest.raises(BadConfig, match="row 0 has 3 cells, header has 2"):
        read_table_csv("x,y\n1,2,3\n")


def test_render_csv_round_trips():
    table = small_table()
    text = render_table(table, "csv")
    again = read_table_csv(text)
    assert again.columns == table.columns
    assert again.rows == table.rows


def test_render_is_byte_stable():
    table = small_table()
    assert render_table(table, "md") == render_table(table, "md")
    assert render_table(table, "csv") == render_table(table, "csv")


def test_render_empty_table_is_header_only():
    table = ReportTable(columns=("a", "b"), rows=[])
    assert render_table(table, "csv") == "a,b\n"
    md = render_table(table, "md")
    assert md == "| a | b |\n| --- | --- |\n"


def test_render_unknown_format():
    with pytest.raises(BadConfig):
        render_table(small_table(), "html")


def test_caption_is_bolded_header():
    table = ReportTable(columns=("a",), rows=[{"a": "1"}], caption="title")
    md = render_table(table, "md")
    assert md.startswith("**title**\n\n| a |")


def test_bolding_marks_group_maxima_with_ties():
    marks = _bold_positions(small_table())
    assert (1, "acc") in marks       # 0.75 wins the k=2 group
    assert (0, "acc") not in marks
    assert (2, "acc") in marks       # k=4 tie: both rows bold
    assert (3, "acc") in marks


def test_bolding_skips_singleton_groups():
    table = ReportTable(columns=("method", "k", "acc"),
                        rows=[{"method": "a", "k": "1", "acc": "0.9"}])
    assert _bold_positions(table) == set()


def test_bolding_skips_non_numeric_columns():
    table = ReportTable(
        columns=("method", "k", "note"),
        rows=[{"method": "a", "k": "2", "note": "fast"},
              {"method": "b", "k": "2", "note": "slow"}])
    assert _bold_positions(table) == set()


def test_bolding_requires_every_cell_numeric():
    table = ReportTable(
        columns=("method", "k", "acc"),
        rows=[{"method": "a", "k": "2", "acc": "0.9"},
              {"method": "b", "k": "2", "acc": "n/a"}])
    assert _bold_positions(table) == set()


def test_non_metric_columns_never_bolded():
    assert {"method", "k", "n_input", "l_decoder", "final_loss",
            "flops_per_clip"} <= set(NON_METRIC_COLUMNS)
    marks = _bold_positions(small_table())
    assert all(col == "acc" for _, col in marks)


def test_ablation_fixture_matches_golden():
    table = read_table_csv(FIXTURE.read_text())
    assert len(table.rows) == 21
    assert render_table(table, "md") == GOLDEN.read_text()


def test_ablation_fixture_k4_pattern():
    table = read_table_csv(FIXTURE.read_text())
    marks = _bold_positions(table)
    idx = {(r["method"], r["k"]): i for i, r in enumerate(table.rows)}
    te4 = idx[("through-encoder", "4")]
    pl4 = idx[("pllava-pool", "4")]
    for col in ("motionbench", "mvbench", "videomme_short", "videomme_long",
                "lvbench"):
        assert (te4, col) in marks
    assert (te4, "videomme_medium") not in marks
    assert (pl4, "videomme_medium") in marks
    base = idx[("baseline", "1")]
    assert all(i != base for i, _ in marks)
