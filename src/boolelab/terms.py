"""Term syntax for the class signature {+, -, *, 0, 1}.

Grammar, normative for every text surface that carries terms:

    term := sum
    sum  := prod (('+' | '-') prod)*
    prod := atom ('*'? atom)*
    atom := ident | intlit | '(' sum ')'

Juxtaposition multiplies, so ``2x`` is ``2*x`` and ``x y`` is ``x*y``.
Both levels associate to the left and '*' binds tighter.  '-' is
strictly binary: unary minus is rejected, write ``0 - t`` instead.
There is no exponent syntax; squares are written out, as in ``x*x``.
Identifiers match [a-zA-Z][a-zA-Z0-9_]* and integer literals are
nonnegative digit strings.  Literals other than 0 and 1 are convenience
notation; the signature itself has only the two constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Term:
    """Base class for the five node kinds below."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"bad variable name {self.name!r}")


@dataclass(frozen=True)
class IntLit(Term):
    value: int

    def __post_init__(self):
        # The grammar has no negative literals; negate via 0 - t.
        if self.value < 0:
            raise ValueError("integer literals are nonnegative; write 0 - t")


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


class ParseError(ValueError):
    """Syntax error, carrying the offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*()]")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tok = m.group()
        if tok[0].isalpha():
            kind = "ident"
        elif tok[0].isdigit():
            kind = "int"
        else:
            kind = tok
        tokens.append((kind, tok, i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Term:
        t = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r} after a complete term", pos)
        return t

    def sum(self) -> Term:
        t = self.prod()
        while True:
            kind = self.peek()[0]
            if kind == "+":
                self.advance()
                t = Add(t, self.prod())
            elif kind == "-":
                self.advance()
                t = Sub(t, self.prod())
            else:
                return t

    def prod(self) -> Term:
        t = self.atom()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.advance()
                t = Mul(t, self.atom())
            elif kind in ("ident", "int", "("):
                # juxtaposition
                t = Mul(t, self.atom())
            else:
                return t

    def atom(self) -> Term:
        kind, text, pos = self.advance()
        if kind == "ident":
            return Var(text)
        if kind == "int":
            return IntLit(int(text))
        if kind == "(":
            t = self.sum()
            kind, text, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return t
        if kind == "-":
            raise ParseError("unary minus is not in the grammar; write 0 - t", pos)
        shown = text if text else "end of input"
        raise ParseError(f"expected a variable, an integer, or '(', got {shown}", pos)


def parse(text: str) -> Term:
    """Parse ``text`` under the grammar above, or raise ParseError."""
    return _Parser(text).parse()


# Precedence levels for printing: 0 = sum position, 1 = product position,
# 2 = atom position.  A node parenthesizes when placed above its level.


def _render(t: Term, level: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, Mul):
        s = f"{_render(t.left, 1)}*{_render(t.right, 2)}"
        return f"({s})" if level > 1 else s
    op = "+" if isinstance(t, Add) else "-"
    s = f"{_render(t.left, 0)} {op} {_render(t.right, 1)}"
    return f"({s})" if level > 0 else s


def pretty(t: Term) -> str:
    """Render with minimal parentheses; parse(pretty(t)) == t."""
    return _render(t, 0)


def variables(t: Term) -> tuple[str, ...]:
    """Distinct variable names occurring in t, sorted.  The walk is
    iterative, so any depth is fine."""
    seen: set[str] = set()
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            seen.add(node.name)
        elif isinstance(node, (Add, Sub, Mul)):
            todo.append(node.right)
            todo.append(node.left)
    return tuple(sorted(seen))


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace each Var named in ``mapping`` by the given term."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Add, Sub, Mul)):
        return type(t)(substitute(t.left, mapping), substitute(t.right, mapping))
    return t


def count_var(t: Term, name: str) -> int:
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, (Add, Sub, Mul)):
        return count_var(t.left, name) + count_var(t.right, name)
    return 0


def replaced_once(t: Term, pattern: Term, replacement: Term):
    """Yield every term obtained from t by rewriting one occurrence of
    ``pattern`` to ``replacement``."""
    if t == pattern:
        yield replacement
    if isinstance(t, (Add, Sub, Mul)):
        for left in replaced_once(t.left, pattern, replacement):
            yield type(t)(left, t.right)
        for right in replaced_once(t.right, pattern, replacement):
            yield type(t)(t.left, right)


def depth(t: Term) -> int:
    """Nodes on the longest root-to-leaf path; a leaf has depth 1."""
    if isinstance(t, (Add, Sub, Mul)):
        return 1 + max(depth(t.left), depth(t.right))
    return 1
