"""Tokenizer for the SQL subset."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<dollar>\$)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|=|<|>)
  | (?P<punct>[(),.;*\[\]])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "order", "by", "group",
    "asc", "desc", "join", "on", "as", "like", "limit", "alter", "table",
    "add", "drop", "indexable", "zoom", "in", "create", "insert", "into",
    "values", "int", "float", "text", "bool", "count", "sum", "avg", "min",
    "max", "true", "false", "null", "distinct", "filter", "summaries",
    "having", "delete", "update", "set", "explain", "analyze",
    "begin", "commit", "abort", "rollback", "transaction", "annotate",
}


@dataclass(frozen=True)
class Token:
    kind: str  # number | string | ident | keyword | op | punct | dollar | eof
    value: object
    pos: int

    def __str__(self) -> str:
        return f"{self.value}"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`ParseError` on unknown characters."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(f"unexpected character {sql[pos]!r} at {pos}")
        kind = match.lastgroup
        text = match.group(0)
        if kind == "ws":
            pos = match.end()
            continue
        if kind == "number":
            value: object = float(text) if "." in text else int(text)
            tokens.append(Token("number", value, pos))
        elif kind == "string":
            tokens.append(Token("string", text[1:-1].replace("''", "'"), pos))
        elif kind == "ident":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, pos))
            else:
                tokens.append(Token("ident", text, pos))
        elif kind == "dollar":
            tokens.append(Token("dollar", "$", pos))
        else:
            tokens.append(Token(kind, text, pos))
        pos = match.end()
    tokens.append(Token("eof", "<eof>", pos))
    return tokens
