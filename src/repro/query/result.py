"""Query results.

A :class:`ResultSet` materializes the output tuples together with their
propagated summary objects — what the paper's Figure 1 L.H.S shows the user:
each row plus the Rep[] arrays of its attached summary objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.tuples import QTuple


@dataclass
class ResultSet:
    """Materialized query output."""

    columns: list[str]
    tuples: list[QTuple]
    #: Optional execution metadata filled in by the executor.
    stats: dict = field(default_factory=dict)
    #: Per-row summary freshness ("fresh" | "stale"), parallel to
    #: ``tuples``; only populated by deferred-maintenance databases (None
    #: everywhere else — sync maintenance never serves staleness).
    summary_status: list[str] | None = None

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    @property
    def rows(self) -> list[dict[str, object]]:
        """Rows as plain dicts (data values only)."""
        return [dict(zip(t.columns, t.values)) for t in self.tuples]

    def column(self, name: str) -> list[object]:
        """All values of one output column."""
        return [t.get(name) for t in self.tuples]

    def summaries(self, i: int) -> dict[str, list]:
        """Propagated summary display (instance -> Rep[]) of row ``i``."""
        return self.tuples[i].merged_summary_set().to_display()

    def scalar(self) -> object:
        """The single value of a 1x1 result."""
        if len(self.tuples) != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.tuples)}x{len(self.columns)}"
            )
        return self.tuples[0].values[0]

    def to_table(self, max_rows: int = 20) -> str:
        """Simple fixed-width text rendering (examples/demos)."""
        shown = self.tuples[:max_rows]
        cells = [[str(v) for v in t.values] for t in shown]
        widths = [
            max([len(c)] + [len(row[i]) for row in cells])
            for i, c in enumerate(self.columns)
        ]
        def fmt(row):
            return " | ".join(v.ljust(w) for v, w in zip(row, widths))
        lines = [fmt(self.columns), "-+-".join("-" * w for w in widths)]
        lines += [fmt(row) for row in cells]
        if len(self.tuples) > max_rows:
            lines.append(f"... ({len(self.tuples)} rows total)")
        return "\n".join(lines)


class ZoomResult(list):
    """Zoom-in output: the raw annotation texts, plus the freshness of the
    summary objects they were selected through.

    A plain ``list`` subclass so every existing caller (and the wire
    protocol, which renders lists) keeps working; deferred-maintenance
    databases attach ``summary_status`` so callers can tell whether the
    selection reflects all raw annotations (``"fresh"``) or the
    last-generated objects (``"stale"``)."""

    def __init__(self, texts=(), summary_status: str = "fresh"):
        super().__init__(texts)
        self.summary_status = summary_status
