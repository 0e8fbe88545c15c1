"""One token type, one scan loop and one token cursor.

A dialect is a :class:`LexTable` and nothing else: ordered rules (a
regex plus a converter from the matched lexeme to ``(kind, value)``),
a keyword set, a map from fixed symbols — operators and punctuation —
to token kinds, and a comment opener.  :func:`scan` walks the text
with the table; :class:`TokenCursor` walks the tokens for a
recursive-descent parser.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Mapping, Sequence
from typing import Any, NamedTuple, TypeVar

T = TypeVar("T")


class ParseError(Exception):
    """Base of every dialect's lex and parse errors."""


class Token(NamedTuple):
    kind: str  # keyword | ident | number | string | eof | a dialect's own
    value: Any
    pos: int


#: lexeme -> ``(kind, value)``; raises ``ValueError(reason)`` to reject
#: the lexeme (``scan`` adds the position and the dialect's error class)
Convert = Callable[[str], "tuple[str, Any]"]


class Rule(NamedTuple):
    pattern: str  # regex without capturing groups
    convert: Convert


def number(lexeme: str) -> tuple[str, Any]:
    return "number", float(lexeme) if "." in lexeme else int(lexeme)


def ident(lexeme: str) -> tuple[str, Any]:
    return "ident", lexeme


def reject(reason: str) -> Convert:
    """A converter that refuses its lexeme (``{!r}`` in ``reason``)."""

    def convert(lexeme: str) -> tuple[str, Any]:
        raise ValueError(reason.format(lexeme))

    return convert


#: for an opening quote no string rule could close
unterminated = reject("unterminated string")


class LexTable:
    """A dialect's lexical grammar, compiled once at import.

    The skeleton every dialect shares wraps the dialect's own ``rules``:
    whitespace and ``comment``-to-end-of-line are skipped before every
    token; after the rules a word is a keyword (lower-cased) when
    ``keywords`` has it and ``bare_word(lexeme)`` otherwise; then the
    longest entry of ``symbols`` at that position is a token of the
    mapped kind whose value is the lexeme itself; any other character
    is an error.
    """

    def __init__(
        self,
        *,
        rules: Sequence[Rule],
        keywords: Collection[str],
        symbols: Mapping[str, str],
        comment: str,
        bare_word: Convert = ident,
    ) -> None:
        def word(lexeme: str) -> tuple[str, Any]:
            lower = lexeme.lower()
            if lower in keywords:
                return "keyword", lower
            return bare_word(lexeme)

        def symbol(lexeme: str) -> tuple[str, Any]:
            return symbols[lexeme], lexeme

        longest_first = sorted(symbols, key=len, reverse=True)
        ordered = [
            *rules,
            Rule(r"[^\W\d]\w*", word),
            Rule("|".join(map(re.escape, longest_first)), symbol),
            Rule(r"[\s\S]", reject("unexpected character {!r}")),
        ]
        skip = rf"(?:\s+|{re.escape(comment)}[^\n]*)*"
        tokens = "|".join(f"({rule.pattern})" for rule in ordered)
        # \Z: trailing skipped text matches too, with no group set
        self.finditer = re.compile(rf"{skip}(?:{tokens}|\Z)").finditer
        # group numbers are 1-based
        self.converts = (None, *(rule.convert for rule in ordered))


def scan(
    text: str, table: LexTable, error: type[ParseError]
) -> list[Token]:
    """Tokenize ``text``; the last token is always ``eof`` at ``len(text)``."""
    tokens: list[Token] = []
    append = tokens.append
    converts = table.converts
    pos = 0
    try:
        for found in table.finditer(text):
            rule = found.lastindex
            if rule is None:
                break
            pos = found.start(rule)
            kind, value = converts[rule](found.group(rule))
            append(Token(kind, value, pos))
    except ValueError as exc:
        raise error(f"{exc} at {pos}") from None
    append(Token("eof", None, len(text)))
    return tokens


class TokenCursor:
    """Position in a token list, for recursive-descent parsers.

    ``error`` is the exception class every failed expectation raises.
    """

    def __init__(self, tokens: list[Token], error: type[ParseError]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._error = error

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def check(self, kind: str, value: object = None) -> bool:
        token = self._tokens[self._pos]
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: object = None) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind == kind and (value is None or token.value == value):
            self._pos += 1
            return token
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            want = value if value is not None else kind
            raise self.unexpected(f"expected {want!r}, got")
        return token

    def keyword(self, word: str) -> bool:
        return self.accept("keyword", word) is not None

    def ident(self) -> str:
        return str(self.expect("ident").value)

    def comma_list(self, item: Callable[[], T]) -> list[T]:
        """``item (',' item)*``"""
        items = [item()]
        while self.accept("comma"):
            items.append(item())
        return items

    def unexpected(self, what: str) -> ParseError:
        """The error for the current token, in the one message format."""
        token = self._tokens[self._pos]
        return self._error(
            f"{what} {token.kind} {token.value!r} at position {token.pos}"
        )
