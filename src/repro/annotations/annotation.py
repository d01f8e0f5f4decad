"""Annotation value objects."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SummaryError


@dataclass(frozen=True)
class AnnotationTarget:
    """One attachment point of an annotation.

    ``columns`` is the tuple of column names the annotation covers within
    the tuple; an empty tuple means the annotation covers the whole row (and
    therefore survives any projection of that row).
    """

    table: str
    oid: int
    columns: tuple[str, ...] = ()


@dataclass
class Annotation:
    """A raw annotation: free text plus one or more attachment targets."""

    ann_id: int
    text: str
    targets: list[AnnotationTarget] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.targets:
            raise SummaryError("an annotation needs at least one target")

    def columns_on(self, table: str, oid: int) -> tuple[str, ...]:
        """Columns this annotation covers on one specific tuple.

        Multiple targets on the same tuple are merged; any row-level target
        makes the whole attachment row-level.
        """
        columns: set[str] = set()
        for target in self.targets:
            if target.table.lower() == table.lower() and target.oid == oid:
                if not target.columns:
                    return ()
                columns.update(target.columns)
        return tuple(sorted(columns))
