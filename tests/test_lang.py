"""The shared front end: what :mod:`repro.lang` guarantees to every dialect."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphdb.cypher import ast as cypher_ast
from repro.graphdb.cypher import lexer as cypher_lexer
from repro.graphdb.cypher import parser as cypher_parser
from repro.lang.lexing import (
    LexTable,
    ParseError,
    Rule,
    Token,
    TokenCursor,
    scan,
)
from repro.rdf.sparql import parser as sparql
from repro.relational.sql import ast as sql_ast
from repro.relational.sql import lexer as sql_lexer
from repro.relational.sql import parser as sql_parser

# (tokenize, comment opener, lexer error, parser error)
DIALECTS = [
    pytest.param(
        sql_lexer.tokenize, "--",
        sql_lexer.SqlLexError, sql_parser.SqlParseError, id="sql",
    ),
    pytest.param(
        cypher_lexer.tokenize, "//",
        cypher_lexer.CypherLexError, cypher_parser.CypherParseError,
        id="cypher",
    ),
    pytest.param(
        sparql.tokenize, "#",
        sparql.SparqlParseError, sparql.SparqlParseError, id="sparql",
    ),
]


@pytest.mark.parametrize("tokenize, comment, lex_error, parse_error", DIALECTS)
class TestSharedLexing:
    def test_keywords_are_case_insensitive(
        self, tokenize, comment, lex_error, parse_error
    ):
        tokens = tokenize("WHERE Where where")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("keyword", "where")
        ] * 3

    def test_every_token_carries_its_position(
        self, tokenize, comment, lex_error, parse_error
    ):
        text = "  where ('it' ,\n 12)"
        tokens = tokenize(text)
        assert [t.kind for t in tokens] == [
            "keyword", "lparen", "string", "comma", "number", "rparen", "eof",
        ]
        assert [t.pos for t in tokens] == [2, 8, 9, 14, 17, 19, len(text)]
        assert tokens[2].value == "it" and tokens[4].value == 12

    def test_eof_sentinel(self, tokenize, comment, lex_error, parse_error):
        assert tokenize("") == [Token("eof", None, 0)]
        assert tokenize(" \n ")[-1] == Token("eof", None, 3)

    def test_comment_runs_to_end_of_line(
        self, tokenize, comment, lex_error, parse_error
    ):
        tokens = tokenize(f"where {comment} limit 'x\n 1 {comment}")
        assert [t.kind for t in tokens] == ["keyword", "number", "eof"]

    @pytest.mark.parametrize(
        "text, pos", [("where 'oops", 6), ("limit @", 6), ("1 ~ 2", 2)]
    )
    def test_lex_errors_name_the_position(
        self, tokenize, comment, lex_error, parse_error, text, pos
    ):
        with pytest.raises(lex_error, match=f" at {pos}$"):
            tokenize(text)

    def test_a_lex_error_is_the_dialects_parse_error(
        self, tokenize, comment, lex_error, parse_error
    ):
        assert issubclass(lex_error, parse_error)
        assert issubclass(parse_error, ParseError)


class TestLexTable:
    TABLE = LexTable(
        keywords={"let"},
        symbols={"<": "lt", "<-": "arrow", "-": "minus"},
        comment=";",
        rules=(Rule(r"\d+", lambda s: ("number", int(s))),),
    )

    def kinds(self, text):
        return [t.kind for t in scan(text, self.TABLE, ParseError)]

    def test_longest_symbol_wins(self):
        assert self.kinds("<- < -") == ["arrow", "lt", "minus", "eof"]

    def test_rules_run_before_words_and_symbols(self):
        assert self.kinds("LET x1 7") == ["keyword", "ident", "number", "eof"]

    def test_a_converter_rejects_with_value_error(self):
        def reject(lexeme):
            raise ValueError(f"no {lexeme!r} here")

        table = LexTable(
            keywords=(), symbols={"+": "plus"}, comment="#",
            bare_word=reject, rules=(),
        )

        class DialectError(ParseError):
            pass

        with pytest.raises(DialectError, match="^no 'abc' here at 2$"):
            scan("+ abc", table, DialectError)


class TestTokenCursor:
    def cursor(self, text):
        class DialectError(ParseError):
            pass

        return TokenCursor(
            scan(text, TestLexTable.TABLE, DialectError), DialectError
        )

    def test_accept_and_expect(self):
        cursor = self.cursor("let x < 3")
        assert cursor.keyword("let")
        assert not cursor.keyword("let")
        assert cursor.ident() == "x"
        assert cursor.accept("minus") is None
        assert cursor.expect("lt").value == "<"
        assert cursor.check("number", 3) and not cursor.check("number", 4)
        assert cursor.advance().value == 3
        assert cursor.current.kind == "eof"

    def test_failed_expectation_raises_the_given_error(self):
        cursor = self.cursor("let 7")
        cursor.advance()
        with pytest.raises(
            ParseError, match="expected 'ident', got number 7 at position 4"
        ) as excinfo:
            cursor.ident()
        assert type(excinfo.value).__name__ == "DialectError"


# --- one expression grammar ------------------------------------------------

NAMES = st.sampled_from(["a", "b", "x1", "total"])
ATOMS = st.one_of(
    NAMES,
    st.integers(0, 999).map(str),
    st.sampled_from(
        ["1.5", "0.25", "'abc'", "''", "null", "TRUE", "false", "count(*)"]
    ),
    NAMES.map("count(DISTINCT {})".format),
)
COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


def _chain(operand, operators):
    """``operand (op operand)*`` — one left-associative ladder rung."""
    tail = st.lists(
        st.tuples(st.sampled_from(operators), operand), max_size=2
    )
    return st.tuples(operand, tail).map(
        lambda t: t[0] + "".join(f" {op} {rhs}" for op, rhs in t[1])
    )


def _ladder(primary):
    """A parenthesized expression using every rung over ``primary``."""
    primary = st.one_of(
        primary,
        st.tuples(NAMES, primary).map(lambda t: f"{t[0]}({t[1]}, 1)"),
    )
    unary = st.one_of(primary, primary.map("- {}".format))
    additive = _chain(_chain(unary, ["*", "/"]), ["+", "-"])
    comparison = st.one_of(
        additive,
        st.tuples(additive, st.sampled_from(COMPARISONS), additive).map(
            " ".join
        ),
        additive.map("{} IS NULL".format),
        additive.map("{} is not null".format),
    )
    negation = st.one_of(comparison, comparison.map("NOT {}".format))
    return _chain(_chain(negation, ["AND"]), ["or"]).map("({})".format)


EXPRESSIONS = st.recursive(ATOMS, _ladder, max_leaves=12)


def _as_column_refs(node):
    """A Cypher tree with each ``VarRef(n)`` as a ``ColumnRef(None, n)``."""
    if isinstance(node, cypher_ast.VarRef):
        return sql_ast.ColumnRef(None, node.name)
    if isinstance(node, tuple):
        return tuple(_as_column_refs(item) for item in node)
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(
            node,
            **{
                f.name: _as_column_refs(getattr(node, f.name))
                for f in dataclasses.fields(node)
            },
        )
    return node


class TestOneExpressionGrammar:
    @given(EXPRESSIONS)
    def test_sql_and_cypher_build_the_same_tree(self, text):
        sql = sql_parser.parse(f"SELECT {text}").items[0].expr
        cypher = cypher_parser.parse(f"RETURN {text}").returns.items[0].expr
        assert sql == _as_column_refs(cypher)

    def test_the_tree_is_the_precedence_ladder(self):
        tree = sql_parser.parse(
            "SELECT NOT a + 2 * - b < 3 AND c IS NOT NULL "
            "OR count(DISTINCT d) = 1"
        ).items[0].expr
        col = lambda n: sql_ast.ColumnRef(None, n)  # noqa: E731
        op, lit = sql_ast.BinaryOp, sql_ast.Literal
        assert tree == op(
            "OR",
            op(
                "AND",
                sql_ast.UnaryOp(
                    "NOT",
                    op(
                        "<",
                        op(
                            "+",
                            col("a"),
                            op("*", lit(2), sql_ast.UnaryOp("-", col("b"))),
                        ),
                        lit(3),
                    ),
                ),
                sql_ast.IsNull(col("c"), negated=True),
            ),
            op(
                "=",
                sql_ast.FuncCall("count", (col("d"),), distinct=True),
                lit(1),
            ),
        )

    def test_shared_nodes_are_one_class(self):
        for name in (
            "Expr", "Literal", "BinaryOp", "UnaryOp", "IsNull", "FuncCall",
        ):
            assert getattr(sql_ast, name) is getattr(cypher_ast, name)
