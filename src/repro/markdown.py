"""The Markdown table of every generated report; it imports nothing, so
a report can use it without loading a plane."""

from __future__ import annotations


def md_table(header: list[str], rows: list[list[object]]) -> str:
    """A Markdown table: the header, its rule, and one line per row."""
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)
