"""Tokenizer and parser for the supported JML subset.

Binary operators are parsed by precedence climbing over
:data:`specsmith.expr.BINARY_LEVEL` and ``RIGHT_ASSOC_OPS``, the table the
renderer uses, so precedence and associativity are written down once. After
an operator, its right operand is parsed from the next level up; if the
operator is right-associative and another of its level follows, that
operand is extended by the rest of the chain. Unary operators, postfix
indexing and field access, atoms and quantifiers are recursive descent.

``parse_expr`` handles bare expressions; ``parse_clause_line`` handles full
annotation lines (``//@ <kind> <expr>;`` or the same without the comment
marker) and returns the raw (kind keyword, expression) pair. Clause
construction and the type pass live in :mod:`specsmith.clauses`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

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
    """,
    re.VERBOSE,
)

RESERVED_NAMES = {"true", "false", "null", "int"}

CLAUSE_KEYWORDS = ("requires", "ensures", "maintaining", "decreases")

# The deepest a clause may nest, counting both the parser's nesting
# (parentheses, brackets, unary operators, ``==>`` chains) and the depth of
# the tree it builds. Parsing, rendering, mutating and evaluating recurse a
# few frames per level, so a deeper clause would exhaust the interpreter's
# recursion limit instead of failing as a syntax error.
MAX_NESTING = 100


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "kw" | "name" | "op" | "eof"
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ClauseSyntaxError(f"unrecognized character {text[pos]!r}", offset=pos)
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind, match.group(), match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # constructs being parsed inside one another

    def nest(self, tok: Token) -> None:
        """Enter one more nested construct, which starts at ``tok``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ClauseSyntaxError(_TOO_DEEP, offset=tok.offset)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise ClauseSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                offset=tok.offset,
                expected=repr(text),
            )
        return self.advance()

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == op

    def parse_expr(self) -> Expr:
        return self.parse_binary(self.parse_unary(), LEVEL_EQUIV)

    def parse_binary(self, lhs: Expr, min_level: int) -> Expr:
        """Fold each following binary operator of level >= ``min_level`` into ``lhs``.

        An operator's right operand takes every operator that binds tighter,
        plus the rest of the chain at its own level when it is right-associative.
        Two operators of one level that associate differently (``==>`` and
        ``<==``) may not meet without parentheses.
        """
        while BINARY_LEVEL.get(self.peek().text, 0) >= min_level:
            op = self.advance().text
            level = BINARY_LEVEL[op]
            rhs = self.parse_binary(self.parse_unary(), level + 1)
            tok = self.peek()
            if BINARY_LEVEL.get(tok.text) == level:
                if (tok.text in RIGHT_ASSOC_OPS) != (op in RIGHT_ASSOC_OPS):
                    raise ClauseSyntaxError(
                        "cannot mix ==> and <== without parentheses", offset=tok.offset
                    )
                if op in RIGHT_ASSOC_OPS:
                    self.nest(tok)
                    rhs = self.parse_binary(rhs, level)
                    self.depth -= 1
            lhs = Binary(op, lhs, rhs)
        return lhs

    def parse_unary(self) -> Expr:
        if self.at_op("!"):
            self.nest(self.advance())
            node = Unary("!", self.parse_unary())
        elif self.at_op("-"):
            self.advance()
            # A minus directly on an integer token folds into the literal so
            # negative constants round-trip as IntLit nodes.
            if self.peek().kind == "int":
                tok = self.advance()
                return IntLit(-int(tok.text))
            self.nest(self.peek())
            node = Unary("neg", self.parse_unary())
        else:
            return self.parse_postfix()
        self.depth -= 1
        return node

    def parse_postfix(self) -> Expr:
        node = self.parse_atom()
        while True:
            if self.at_op("["):
                self.nest(self.advance())
                index = self.parse_expr()
                self.expect("]")
                self.depth -= 1
                node = ArrayIndex(node, index)
            elif self.at_op("."):
                self.advance()
                tok = self.peek()
                if tok.kind != "name":
                    raise ClauseSyntaxError(
                        f"unexpected {tok.text!r}", offset=tok.offset, expected="field name"
                    )
                self.advance()
                node = FieldAccess(node, tok.text)
            else:
                return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.nest(self.advance())
            if self.peek().text in ("\\forall", "\\exists"):
                node = self.parse_quantifier()
            else:
                node = self.parse_expr()
                self.expect(")")
            self.depth -= 1
            return node
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "kw":
            self.advance()
            if tok.text == "\\result":
                return ResultRef()
            if tok.text == "\\old":
                self.nest(self.expect("("))
                inner = self.parse_expr()
                self.expect(")")
                self.depth -= 1
                return OldRef(inner)
            raise ClauseSyntaxError(
                f"{tok.text} is only valid at the start of a quantifier", offset=tok.offset
            )
        if tok.kind == "name":
            self.advance()
            if tok.text == "true":
                return BoolLit(True)
            if tok.text == "false":
                return BoolLit(False)
            if tok.text == "null":
                return NullLit()
            if tok.text == "int":
                raise ClauseSyntaxError("'int' is not a value", offset=tok.offset)
            return Var(tok.text)
        raise ClauseSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            offset=tok.offset,
            expected="an expression",
        )

    def parse_quantifier(self) -> Expr:
        kw = self.advance()  # \forall or \exists
        kind = kw.text[1:]
        type_tok = self.peek()
        if type_tok.text != "int":
            raise ClauseSyntaxError(
                "quantified variables must be declared int",
                offset=type_tok.offset,
                expected="'int'",
            )
        self.advance()
        name_tok = self.peek()
        if name_tok.kind != "name" or name_tok.text in RESERVED_NAMES:
            raise ClauseSyntaxError(
                f"unexpected {name_tok.text!r}",
                offset=name_tok.offset,
                expected="a variable name",
            )
        self.advance()
        self.expect(";")
        range_expr = self.parse_expr()
        self.expect(";")
        body = self.parse_expr()
        self.expect(")")
        return Quantifier(kind, name_tok.text, range_expr, body)


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


def parse_expr(text: str) -> Expr:
    """Parse a bare expression; the whole string must be consumed."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ClauseSyntaxError(
            f"trailing input {tok.text!r}", offset=tok.offset, expected="end of expression"
        )
    if len(parser.tokens) > MAX_NESTING:
        _check_depth(node)
    return node


def parse_clause_line(text: str) -> tuple[str, Expr]:
    """Parse ``[//@] <kind> <expr>;`` into the kind keyword and expression."""
    stripped = text.strip()
    if stripped.startswith("//@"):
        stripped = stripped[3:].lstrip()
    parser = _Parser(tokenize(stripped))
    head = parser.peek()
    if head.kind != "name" or head.text not in CLAUSE_KEYWORDS:
        raise ClauseSyntaxError(
            f"unexpected {head.text!r}" if head.kind != "eof" else "empty clause",
            offset=head.offset,
            expected="requires, ensures, maintaining, or decreases",
        )
    parser.advance()
    expr = parser.parse_expr()
    parser.expect(";")
    tok = parser.peek()
    if tok.kind != "eof":
        raise ClauseSyntaxError(
            f"trailing input {tok.text!r}", offset=tok.offset, expected="end of clause"
        )
    if len(parser.tokens) > MAX_NESTING:
        _check_depth(expr)
    return head.text, expr
