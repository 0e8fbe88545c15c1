"""The Cypher subset's table for :func:`repro.lang.lexing.scan`."""

from __future__ import annotations

import re
from typing import Any

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
    "match", "optional", "where", "return", "create", "set", "distinct",
    "order", "by", "asc", "desc", "limit", "and", "or", "not", "null",
    "true", "false", "as", "is",
}

_SYMBOLS = {
    "(": "lparen",
    ")": "rparen",
    "[": "lbracket",
    "]": "rbracket",
    "{": "lbrace",
    "}": "rbrace",
    ",": "comma",
    ".": "dot",
    "..": "dotdot",
    ":": "colon",
    "*": "star",
    "+": "plus",
    "-": "minus",
    "->": "arrow_right",
    "<-": "arrow_left",
    "/": "slash",
    "=": "eq",
    "$": "dollar",
    **dict.fromkeys(("<>", "<", "<=", ">", ">="), "op"),
}


class CypherParseError(ParseError):
    pass


class CypherLexError(CypherParseError):
    pass


_ESCAPE = re.compile(r"\\([\s\S])")


def _string(lexeme: str) -> tuple[str, Any]:
    return "string", _ESCAPE.sub(r"\1", lexeme[1:-1])


_TABLE = LexTable(
    keywords=KEYWORDS,
    symbols=_SYMBOLS,
    comment="//",
    rules=(
        Rule(r"'(?:[^'\\]|\\[\s\S])*'|\"(?:[^\"\\]|\\[\s\S])*\"", _string),
        Rule("['\"]", unterminated),
        # "1..3" is number, range operator, number: no decimal point there
        Rule(r"\d+(?:\.(?!\.)\d*)?", number),
    ),
)


def tokenize(text: str) -> list[Token]:
    return scan(text, _TABLE, CypherLexError)
