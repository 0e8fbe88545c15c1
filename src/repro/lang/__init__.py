"""The one language front end under the SQL, Cypher and SPARQL dialects.

:mod:`repro.lang.lexing` is the tokenizer and the token cursor,
:mod:`repro.lang.expr` the shared expression nodes, the precedence
ladder and the aggregate accumulator.  A leaf package: it imports
nothing from ``repro`` and never asks which dialect is calling — the
differences arrive as tables, callbacks and overridden hooks.
"""
