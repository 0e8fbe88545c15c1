"""The SQL dialect's table for :func:`repro.lang.lexing.scan`."""

from __future__ import annotations

from repro.lang.lexing import (
    LexTable,
    ParseError,
    Rule,
    Token,
    number,
    scan,
    unterminated,
)

KEYWORDS = {
    "select", "distinct", "from", "join", "left", "outer", "inner", "on",
    "where", "group", "order", "by", "asc", "desc", "limit", "and", "or",
    "not", "in", "is", "null", "true", "false", "insert", "into", "values",
    "update", "set", "delete", "create", "table", "index", "primary", "key",
    "using", "with", "recursive", "as", "union", "all", "analyze",
}

_SYMBOLS = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ".": "dot",
    "*": "star",
    "+": "plus",
    "-": "minus",
    "/": "slash",
    "?": "param",
    ";": "semicolon",
    **dict.fromkeys(("=", "<>", "<", "<=", ">", ">="), "op"),
}


class SqlParseError(ParseError):
    pass


class SqlLexError(SqlParseError):
    pass


_TABLE = LexTable(
    keywords=KEYWORDS,
    symbols=_SYMBOLS,
    comment="--",
    rules=(
        # '' is an escaped quote: the closing quote is one no quote follows
        Rule(
            r"'(?:[^']|'')*'(?!')",
            lambda s: ("string", s[1:-1].replace("''", "'")),
        ),
        Rule("'", unterminated),
        Rule(r"\d+(?:\.\d*)?|\.\d+", number),
        Rule("!=", lambda s: ("op", "<>")),
    ),
)


def tokenize(text: str) -> list[Token]:
    return scan(text, _TABLE, SqlLexError)
