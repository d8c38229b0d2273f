"""Tokenizer and parser for the supported JML subset.

One scan of ``_TOKEN_RE`` splits a line into (kind, text, offset) tuples,
which the parser reads by position.

Binary operators are parsed by precedence climbing over
:data:`specsmith.expr.BINARY_LEVEL` and ``RIGHT_ASSOC_OPS``, the table
:mod:`specsmith.schemata` renders by, so precedence and associativity are
written down once. After an operator, its right operand is parsed from the
next level up; if the operator is right-associative and another of its
level follows, that operand is extended by the rest of the chain. Unary
operators, postfix indexing and field access, atoms and quantifiers are
recursive descent.

``parse_clause_line`` handles full annotation lines (``//@ <kind> <expr>;``
or the same without the comment marker) and returns the raw (kind keyword,
expression) pair. Clause construction and the type pass live in
:mod:`specsmith.clauses`.
"""
from __future__ import annotations

import re

from .errors import ClauseSyntaxError
from .expr import (
    BINARY_LEVEL,
    LEVEL_EQUIV,
    RIGHT_ASSOC_OPS,
    ArrayIndex,
    Binary,
    BoolLit,
    Expr,
    FieldAccess,
    IntLit,
    NullLit,
    OldRef,
    Quantifier,
    ResultRef,
    Unary,
    Var,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<kw>\\(?:forall|exists|result|old))
  | (?P<name>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<op><==>|==>|<==|&&|\|\||==|!=|<=|>=|[-+*/%<>!()\[\];.,])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

RESERVED_NAMES = {"true", "false", "null", "int"}

CLAUSE_KEYWORDS = ("requires", "ensures", "maintaining", "decreases")

# The deepest a clause may nest, counting both the parser's nesting
# (parentheses, brackets, unary operators, ``==>`` chains) and the depth of
# the tree it builds. Parsing, rendering, mutating and evaluating recurse a
# few frames per level, so a deeper clause would exhaust the interpreter's
# recursion limit instead of failing as a syntax error.
MAX_NESTING = 100


# A token is (kind, text, offset), kind being "int", "kw", "name", "op" or
# "eof"; the eof token's text is empty and its offset is the text's length.
Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens in one scan; whitespace separates them."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ClauseSyntaxError(
                f"unrecognized character {match.group()!r}", offset=match.start()
            )
        append((kind, match.group(), match.start()))
    append(("eof", "", len(text)))
    return tokens


def _unexpected(kind: str, text: str) -> str:
    return f"unexpected {text!r}" if kind != "eof" else "unexpected end of input"


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0  # the current token; never moves past eof
        self.depth = 0  # constructs being parsed inside one another

    def nest(self, offset: int) -> None:
        """Enter one more nested construct, which starts at ``offset``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ClauseSyntaxError(_TOO_DEEP, offset=offset)

    def expect(self, text: str) -> int:
        """Consume the token ``text``, returning its offset."""
        kind, found, offset = self.tokens[self.pos]
        if found != text:
            raise ClauseSyntaxError(_unexpected(kind, found), offset=offset, expected=repr(text))
        self.pos += 1
        return offset

    def parse_expr(self) -> Expr:
        return self.parse_binary(self.parse_unary(), LEVEL_EQUIV)

    def parse_binary(self, lhs: Expr, min_level: int) -> Expr:
        """Fold each following binary operator of level >= ``min_level`` into ``lhs``.

        An operator's right operand takes every operator that binds tighter,
        plus the rest of the chain at its own level when it is right-associative.
        Two operators of one level that associate differently (``==>`` and
        ``<==``) may not meet without parentheses.
        """
        tokens = self.tokens
        while BINARY_LEVEL.get(op := tokens[self.pos][1], 0) >= min_level:
            self.pos += 1
            level = BINARY_LEVEL[op]
            rhs = self.parse_binary(self.parse_unary(), level + 1)
            _, text, offset = tokens[self.pos]
            if BINARY_LEVEL.get(text) == level:
                if (text in RIGHT_ASSOC_OPS) != (op in RIGHT_ASSOC_OPS):
                    raise ClauseSyntaxError(
                        "cannot mix ==> and <== without parentheses", offset=offset
                    )
                if op in RIGHT_ASSOC_OPS:
                    self.nest(offset)
                    rhs = self.parse_binary(rhs, level)
                    self.depth -= 1
            lhs = Binary(op, lhs, rhs)
        return lhs

    def parse_unary(self) -> Expr:
        _, text, offset = self.tokens[self.pos]
        if text == "!":
            self.pos += 1
            self.nest(offset)
            node = Unary("!", self.parse_unary())
        elif text == "-":
            self.pos += 1
            kind, text, offset = self.tokens[self.pos]
            # A minus directly on an integer token folds into the literal so
            # negative constants round-trip as IntLit nodes.
            if kind == "int":
                self.pos += 1
                return IntLit(-int(text))
            self.nest(offset)
            node = Unary("neg", self.parse_unary())
        else:
            return self.parse_postfix()
        self.depth -= 1
        return node

    def parse_postfix(self) -> Expr:
        node = self.parse_atom()
        tokens = self.tokens
        while True:
            _, text, offset = tokens[self.pos]
            if text == "[":
                self.pos += 1
                self.nest(offset)
                index = self.parse_expr()
                self.expect("]")
                self.depth -= 1
                node = ArrayIndex(node, index)
            elif text == ".":
                self.pos += 1
                kind, text, offset = tokens[self.pos]
                if kind != "name":
                    raise ClauseSyntaxError(
                        f"unexpected {text!r}", offset=offset, expected="field name"
                    )
                self.pos += 1
                node = FieldAccess(node, text)
            else:
                return node

    def parse_atom(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        if kind == "op" and text == "(":
            self.pos += 1
            self.nest(offset)
            if self.tokens[self.pos][1] in ("\\forall", "\\exists"):
                node = self.parse_quantifier()
            else:
                node = self.parse_expr()
                self.expect(")")
            self.depth -= 1
            return node
        if kind == "int":
            self.pos += 1
            return IntLit(int(text))
        if kind == "kw":
            self.pos += 1
            if text == "\\result":
                return ResultRef()
            if text == "\\old":
                self.nest(self.expect("("))
                inner = self.parse_expr()
                self.expect(")")
                self.depth -= 1
                return OldRef(inner)
            raise ClauseSyntaxError(
                f"{text} is only valid at the start of a quantifier", offset=offset
            )
        if kind == "name":
            self.pos += 1
            if text == "true":
                return BoolLit(True)
            if text == "false":
                return BoolLit(False)
            if text == "null":
                return NullLit()
            if text == "int":
                raise ClauseSyntaxError("'int' is not a value", offset=offset)
            return Var(text)
        raise ClauseSyntaxError(
            _unexpected(kind, text), offset=offset, expected="an expression"
        )

    def parse_quantifier(self) -> Expr:
        tokens = self.tokens
        kind = tokens[self.pos][1][1:]  # \forall or \exists, less the backslash
        self.pos += 1
        _, text, offset = tokens[self.pos]
        if text != "int":
            raise ClauseSyntaxError(
                "quantified variables must be declared int",
                offset=offset,
                expected="'int'",
            )
        self.pos += 1
        name_kind, name, offset = tokens[self.pos]
        if name_kind != "name" or name in RESERVED_NAMES:
            raise ClauseSyntaxError(
                f"unexpected {name!r}",
                offset=offset,
                expected="a variable name",
            )
        self.pos += 1
        self.expect(";")
        range_expr = self.parse_expr()
        self.expect(";")
        body = self.parse_expr()
        self.expect(")")
        return Quantifier(kind, name, range_expr, body)


_TOO_DEEP = f"clause nests deeper than {MAX_NESTING} levels"


def _check_depth(expr: Expr) -> None:
    """Reject a tree more than ``MAX_NESTING`` levels below its root, as a
    long operator chain builds. A tree has fewer levels than its text has
    tokens, so only a text of more tokens than that needs the check."""
    stack = [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_NESTING:
            raise ClauseSyntaxError(_TOO_DEEP)
        stack.extend((child, depth + 1) for child in node.children())


def _check_end(parser: _Parser, expected: str) -> None:
    kind, text, offset = parser.tokens[parser.pos]
    if kind != "eof":
        raise ClauseSyntaxError(f"trailing input {text!r}", offset=offset, expected=expected)


def parse_clause_line(text: str) -> tuple[str, Expr]:
    """Parse ``[//@] <kind> <expr>;`` into the kind keyword and expression."""
    stripped = text.strip()
    if stripped.startswith("//@"):
        stripped = stripped[3:].lstrip()
    parser = _Parser(tokenize(stripped))
    kind, keyword, offset = parser.tokens[0]
    if kind != "name" or keyword not in CLAUSE_KEYWORDS:
        raise ClauseSyntaxError(
            f"unexpected {keyword!r}" if kind != "eof" else "empty clause",
            offset=offset,
            expected="requires, ensures, maintaining, or decreases",
        )
    parser.pos = 1
    expr = parser.parse_expr()
    parser.expect(";")
    _check_end(parser, "end of clause")
    if len(parser.tokens) > MAX_NESTING:
        _check_depth(expr)
    return keyword, expr
