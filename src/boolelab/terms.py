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
import sys

from ._record import Record

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_set = object.__setattr__


class Term(Record):
    """Base class for the five node kinds below.

    Nodes are records (``_record.Record``) with ``__slots__``, since
    terms are built and compared in every hot loop; an operator node
    compares, hashes and prints on an explicit stack, so any depth is
    fine.

    The one slot here, ``_form``, is not a field: ``polynomial.normalize``
    keeps a node's normal form in it, with the monomial pairs of its
    largest product step, so a term is normalized once while it lives
    for every cap that allows that step.  Equality, hashing, printing
    and pickling ignore it, and a copied or unpickled node starts
    without one.
    """

    __slots__ = ("_form",)

    def __reduce__(self):
        return self.__class__, self._values()


class Var(Term):
    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.match(name):
            raise ValueError(f"bad variable name {name!r}")
        _set(self, "name", name)

    def _values(self):
        return (self.name,)


class IntLit(Term):
    __slots__ = ("value",)
    _fields = ("value",)

    def __init__(self, value: int):
        # The grammar has no negative literals; negate via 0 - t.
        if value < 0:
            raise ValueError("integer literals are nonnegative; write 0 - t")
        _set(self, "value", value)

    def _values(self):
        return (self.value,)


class _Binary(Term):
    """An operator node over two terms: Add, Sub or Mul."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)

    def __init_subclass__(cls, **kwargs):
        # Each kind gets its own copy of __init__, so a missing or extra
        # argument is reported against Add, Sub or Mul by name.
        super().__init_subclass__(**kwargs)
        init = _Binary.__init__
        own = type(init)(init.__code__, init.__globals__, init.__name__)
        own.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = own

    def __eq__(self, other):
        # pairwise on an explicit stack, so any depth is fine
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if isinstance(a, _Binary) and a.__class__ is b.__class__:
                todo += ((a.right, b.right), (a.left, b.left))
            elif a is not b and a != b:
                return False
        return True

    def __hash__(self):
        # hash((left, right)), carried up one fold, so any depth is fine
        return fold(self, lambda x: _HashOf(hash(x)), lambda n, a, b: _HashOf(hash((a, b)))).value

    def __repr__(self):
        # pending pieces wait on an explicit stack, so any depth is fine:
        # a piece of text as itself, an operand wrapped in a 1-tuple
        out: list[str] = []
        todo: list = [(self,)]
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            n = item[0]
            if isinstance(n, _Binary):
                out.append(f"{n.__class__.__qualname__}(left=")
                todo += (")", (n.right,), ", right=", (n.left,))
            else:
                out.append(repr(n))
        return "".join(out)


class _HashOf:
    """Stands in for a term in a tuple whose hash is taken: its hash is
    the term's, worked out before.  ``hash((a, b))`` of two stand-ins
    is then ``hash((l, r))`` of their terms, with no recursion; passing
    the bare ints instead would not be, since an int above 2^61 - 1
    hashes to another value."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class ParseError(ValueError):
    """Syntax error, carrying the offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|[-+*()]|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, ending with an "end" token; an
    operator or parenthesis is its own kind."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup or m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def parse_int(text: str) -> int:
    """The value of a digit string: the one integer syntax of the term
    grammar and of every integer field of the file formats.  Anything
    else, a sign or an underscore included, raises ValueError; a string
    longer than the interpreter's digit limit raises CapExceeded."""
    if not text.isdecimal():
        raise ValueError(f"expected an unsigned integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        # a digit string fails only on the interpreter's digit limit;
        # errors is imported here, so that loading terms loads no other
        # module than _record
        from .errors import CapExceeded

        raise CapExceeded(
            "an integer literal exceeds the limit of"
            f" {sys.get_int_max_str_digits()} digits"
        ) from None


_JUXTAPOSED = ("ident", "int", "(")
_ADDITIVE = {"+": Add, "-": Sub}


def parse(text: str) -> Term:
    """Parse ``text`` under the grammar above, or raise ParseError.  A
    literal longer than the interpreter's digit limit raises CapExceeded.

    Precedence climbing with an explicit stack, so nesting depth is
    unlimited.  Each open parenthesis saves the enclosing sum so far,
    its pending '+' or '-', and the enclosing product so far; the
    closing one restores them and the parenthesized sum becomes the
    next atom of that product.
    """
    tokens = _tokenize(text)
    i = 0
    stack: list = []
    total = op = product = None
    while True:
        # an atom is due
        kind, word, pos = tokens[i]
        i += 1
        if kind == "(":
            stack.append((total, op, product))
            total = op = product = None
            continue
        if kind == "ident":
            atom: Term = Var(word)
        elif kind == "int":
            atom = IntLit(parse_int(word))
        elif kind == "-":
            raise ParseError("unary minus is not in the grammar; write 0 - t", pos)
        else:
            shown = word if word else "end of input"
            raise ParseError(f"expected a variable, an integer, or '(', got {shown}", pos)
        while True:
            # fold the atom into the product, then look past it
            product = atom if product is None else Mul(product, atom)
            kind, word, pos = tokens[i]
            if kind == "*":
                i += 1
                break
            if kind in _JUXTAPOSED:
                break
            t = product if total is None else op(total, product)
            product = None
            if kind in _ADDITIVE:
                i += 1
                total, op = t, _ADDITIVE[kind]
                break
            if not stack:
                if kind != "end":
                    raise ParseError(f"unexpected {word!r} after a complete term", pos)
                return t
            i += 1
            if kind != ")":
                raise ParseError("expected ')'", pos)
            total, op, product = stack.pop()
            atom = t


# Precedence levels for printing: 0 = sum position, 1 = product position,
# 2 = atom position.  A node parenthesizes when placed above its level.


def pretty(t: Term) -> str:
    """Render with minimal parentheses; parse(pretty(t)) == t.  Pending
    operands and separators wait on an explicit stack, so any depth is
    fine."""
    out: list[str] = []
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, IntLit):
            out.append(str(node.value))
        elif isinstance(node, Mul):
            if level > 1:
                out.append("(")
                todo.append(")")
            todo += ((node.right, 2), "*", (node.left, 1))
        else:
            if level > 0:
                out.append("(")
                todo.append(")")
            op = " + " if isinstance(node, Add) else " - "
            todo += ((node.right, 1), op, (node.left, 0))
    return "".join(out)


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


_OPERANDS_DONE = object()  # on fold's stack: both operands of the node below are done


def fold(t: Term, leaf, node):
    """The post-order fold of a term: ``leaf(x)`` at each Var or IntLit
    x, and ``node(n, a, b)`` at each binary node n, where a and b are
    the results for its left and right operands, the left one computed
    first.  Anything else raises TypeError.  Nodes wait on an explicit
    stack, so any depth is fine."""
    values: list = []
    todo: list = [t]
    pop, push = todo.pop, values.append
    while todo:
        n = pop()
        if n is _OPERANDS_DONE:
            b = values.pop()
            values[-1] = node(pop(), values[-1], b)
            continue
        kind = n.__class__
        if kind is Var or kind is IntLit:
            push(leaf(n))
        elif kind is Add or kind is Sub or kind is Mul:
            todo += (n, _OPERANDS_DONE, n.right, n.left)
        else:
            raise TypeError(f"not a term: {n!r}")
    return values[0]


def substitute(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace each Var named in ``mapping`` by the given term."""
    def leaf(x):
        return mapping.get(x.name, x) if x.__class__ is Var else x

    return fold(t, leaf, lambda n, a, b: n.__class__(a, b))


def count_var(t: Term, name: str) -> int:
    """Occurrences of the variable ``name`` in t."""
    return fold(t, lambda x: int(x.__class__ is Var and x.name == name), lambda n, a, b: a + b)
