"""Result tables: CSV ingestion and deterministic CSV/markdown rendering.

Markdown output bolds the per-column best value among rows sharing a k value,
mirroring how ablation tables mark the winning method per compression ratio.
Cell values stay verbatim strings so rendering the same table twice is
byte-identical.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .errors import BadConfig

# identifier and cost columns; never bolded even though they parse as numbers
NON_METRIC_COLUMNS = frozenset({"method", "k", "n_input", "l_decoder",
                                "final_loss", "flops_per_clip", "steps",
                                "wall_seconds", "seed"})


@dataclass
class ReportTable:
    columns: tuple[str, ...]
    rows: list[dict[str, str]] = field(default_factory=list)
    caption: str = ""

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise BadConfig(f"duplicate columns in {self.columns}")
        for i, row in enumerate(self.rows):
            if set(row) != set(self.columns):
                raise BadConfig(f"row {i} keys {sorted(row)} != schema {sorted(self.columns)}")


def read_table_csv(text: str) -> ReportTable:
    """The table in CSV `text`: a header row, then one row per record."""
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as err:  # e.g. a field past csv's size limit
        raise BadConfig(f"line {reader.line_num}: {err}") from err
    if not records:
        raise BadConfig("empty CSV: no header row")
    header = records[0]
    rows = []
    for i, record in enumerate(records[1:]):
        if not record:
            continue
        if len(record) != len(header):
            raise BadConfig(f"row {i} has {len(record)} cells, header has {len(header)}")
        rows.append(dict(zip(header, record)))
    return ReportTable(columns=tuple(header), rows=rows)


def _as_float(value: str) -> float | None:
    try:
        return float(value)
    except ValueError:
        return None


def _bold_positions(table: ReportTable) -> set[tuple[int, str]]:
    """(row index, column) pairs holding a per-column maximum within their
    k-group. Groups of fewer than two rows have nothing to compare."""
    groups: dict[str, list[int]] = {}
    for i, row in enumerate(table.rows):
        groups.setdefault(row.get("k", ""), []).append(i)
    marks: set[tuple[int, str]] = set()
    for members in groups.values():
        if len(members) < 2:
            continue
        for col in table.columns:
            if col in NON_METRIC_COLUMNS:
                continue
            values = [(i, _as_float(table.rows[i][col])) for i in members]
            numeric = [(i, v) for i, v in values if v is not None]
            if len(numeric) != len(members):
                continue
            best = max(v for _, v in numeric)
            marks.update((i, col) for i, v in numeric if v == best)
    return marks


def render_table(table: ReportTable, fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([row[c] for c in table.columns])
        return out.getvalue()
    if fmt in ("md", "markdown"):
        marks = _bold_positions(table)
        lines = []
        if table.caption:
            lines.append(f"**{table.caption}**")
            lines.append("")
        lines.append("| " + " | ".join(table.columns) + " |")
        lines.append("| " + " | ".join("---" for _ in table.columns) + " |")
        for i, row in enumerate(table.rows):
            cells = [f"**{row[c]}**" if (i, c) in marks else row[c] for c in table.columns]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise BadConfig(f"unknown table format {fmt!r}; use csv or markdown")
