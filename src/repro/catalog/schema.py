"""Table schemas: named, typed columns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.storage.record import RecordCodec, ValueType


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: ValueType
    nullable: bool = True


@dataclass
class Schema:
    """An ordered list of columns with by-name lookup."""

    columns: list[Column]
    _by_name: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        object.__setattr__(self, "_by_name", {n: i for i, n in enumerate(names)})

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Ordinal position of column ``name``."""
        if name not in self._by_name:
            raise SchemaError(f"no column named {name!r}")
        return self._by_name[name]

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def codec(self) -> RecordCodec:
        """Record codec matching this schema's column types."""
        return RecordCodec([c.type for c in self.columns])

    def validate_row(self, values: list[object]) -> None:
        """Type/null-check a full row of values."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values; schema has {len(self.columns)}"
            )
        for col, value in zip(self.columns, values):
            if value is None and not col.nullable:
                raise SchemaError(f"column {col.name!r} is not nullable")
            col.type.validate(value)

    def validate_values(self, values: dict[str, object]) -> None:
        """Type/null-check the named columns of a partial row."""
        self.project(list(values)).validate_row(list(values.values()))

    def row_from_dict(self, row: dict[str, object]) -> list[object]:
        """Order a ``{name: value}`` mapping into a positional row."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns: {sorted(unknown)}")
        return [row.get(c.name) for c in self.columns]

    def dict_from_row(self, values: list[object]) -> dict[str, object]:
        return dict(zip(self.names, values))

    def project(self, names: list[str]) -> "Schema":
        """A new schema containing only ``names`` (in the given order)."""
        return Schema([self.column(n) for n in names])
