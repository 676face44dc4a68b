"""Finite partial algebras: strict evaluation and Horn satisfaction.

Operations are given by explicit tables; an absent entry means the
operation is undefined there, and undefinedness propagates strictly
through terms.  A Horn sentence is judged only on assignments where
every term appearing in it (consequent included) is defined; this
relative reading is what separates partial-algebra consequence from
consequence over total models.

There is one term evaluator: ``_compile`` turns a term once into a flat
post-order program of table reads over carrier indices, and ``_eval``
runs it under an assignment, stopping at the first undefined cell.
``eval_term``, ``holds`` (hence ``classes.semantic_consequence``) and
the model search in ``models`` all run these programs.  Neither step
recurses, and compiling checks every symbol, so an unknown operation
or constant raises even where no evaluation would reach it.

Algebra files look like::

    carrier: 0 1
    op +/2:
    0 0 -> 0
    1 1 -> 1

with one block per operation in signature order and one line per
defined entry, entries in row-major carrier order.  An arity-0 block
has a single line ``-> e``.  The format round-trips exactly.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import CapExceeded, Value, Verdict, read_lines
from .horn import HornSentence
from .terms import Add, Mul, Sub, Term, Var, fold, parse_int, variables


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


class UnknownSymbolError(ValueError):
    """A term used a variable or operation the context does not supply."""


class FinitePartialAlgebra(Value):
    """Named carrier, signature of (name, arity) pairs, partial tables.

    Tables map argument tuples to carrier elements; constants are
    arity-0 operations keyed by the empty tuple.  A symbol that terms
    use must be declared at the arity they use it at: 2 for +, - and *,
    0 for a digit string.  ``index`` maps each element to its position
    in the carrier.  Treat instances as immutable after construction.
    """

    carrier: tuple[str, ...]
    signature: tuple[tuple[str, int], ...]
    tables: dict

    def __post_init__(self):
        if not self.carrier:
            raise ValueError("carrier must be nonempty")
        index = dict(zip(self.carrier, range(len(self.carrier))))
        if len(index) != len(self.carrier):
            raise ValueError("carrier elements must be distinct")
        object.__setattr__(self, "index", index)
        arities = dict(self.signature)
        if len(arities) != len(self.signature):
            raise ValueError("duplicate operation in signature")
        for op, k in self.signature:
            use = _term_arity(op)
            if use is not None and k != use:
                raise ValueError(f"operation {op!r} has arity {k}, but terms use it with arity {use}")
        for op, table in self.tables.items():
            if op not in arities:
                raise ValueError(f"table for {op!r} has no signature entry")
            k = arities[op]
            for args in table:
                if len(args) != k:
                    raise ValueError(f"arity mismatch in table for {op!r}")
            if not index.keys() >= {*itertools.chain.from_iterable(table), *table.values()}:
                raise ValueError(f"table for {op!r} strays outside the carrier")

    def defined_entries(self):
        """(op, args, value) triples, ops in signature order, entries in
        row-major carrier order."""
        for op, k in self.signature:
            table = self.tables.get(op, {})
            for args in itertools.product(self.carrier, repeat=k):
                if args in table:
                    yield op, args, table[args]

    def is_total(self) -> bool:
        for op, k in self.signature:
            if len(self.tables.get(op, {})) != len(self.carrier) ** k:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, FinitePartialAlgebra):
            return NotImplemented
        return (
            self.carrier == other.carrier
            and self.signature == other.signature
            and {op: dict(t) for op, t in self.tables.items() if t}
            == {op: dict(t) for op, t in other.tables.items() if t}
        )

    def __hash__(self):
        return hash((self.carrier, self.signature))

    @cached_property
    def _layout(self) -> tuple[list, dict]:
        """(cells, base): the tables of the term symbols (+, -, * and
        the digit-string constants) as one flat list of carrier indices
        (None where undefined, binary tables row-major), and each
        symbol's first cell.  Cell 0 is never defined: a literal with no
        constant of its name reads there."""
        index = self.index
        cells: list = [None]
        base = {}
        for op, k in self.signature:
            if _term_arity(op) is None:
                continue
            base[op] = len(cells)
            table = self.tables.get(op, {})
            cells.extend(
                index[table[args]] if args in table else None
                for args in itertools.product(self.carrier, repeat=k)
            )
        return cells, base

    @cached_property
    def _entries_by_element(self) -> list:
        """The defined entries as (op, argument indices, value index),
        filed under the carrier index of the last element each one
        mentions, an argument or the value."""
        index = self.index
        filed: list = [[] for _ in self.carrier]
        for op, table in self.tables.items():
            for args, value in table.items():
                at = tuple(map(index.__getitem__, args))
                v = index[value]
                filed[max((*at, v))].append((op, at, v))
        return filed


_OP_NAMES = {Add: "+", Sub: "-", Mul: "*"}
MAX_LITERAL = 4096
"""Largest integer literal that ``holds_total`` and the model search
read.  A literal n is evaluated as n - 1 additions of the unit, one
table read each, so the cap bounds the program a sentence compiles to."""
_NOWHERE = 0  # the never-defined cell of a partial algebra's layout
_NO_ENTRIES: dict = {}  # the table of an operation with no defined entry


def _term_arity(op: str) -> int | None:
    """The arity terms use the symbol ``op`` at: 2 for +, - and *, 0 for
    a digit string (a literal), None for a symbol no term uses."""
    if op in _OP_NAMES.values():
        return 2
    return 0 if op.isdecimal() else None


def _compile(t: Term, names: tuple, base: dict, max_sum: int | None = None):
    """Post-order program of table reads for a term over ``names``.

    Instruction (b, x, y) reads cell b + values[x]*size + values[y],
    where b is the operation's first cell (``base``) and ``values`` is 0,
    then the elements of ``names``, then each instruction's result.  A
    constant reads with operands 0, 0; a bare variable compiles to its
    index in ``values``.  A literal n >= 2 reads the constant named n,
    or the never-defined cell; with ``max_sum`` it is n - 1 additions of
    the unit instead, n above ``max_sum`` raises CapExceeded, and a
    signature without the unit or addition raises UnknownSymbolError.
    The first unknown symbol in post-order raises UnknownSymbolError
    here, before any evaluation.  The walk is a ``fold``, so depth is
    unlimited.
    """
    position = {name: i for i, name in enumerate(names, 1)}
    prog: list = []
    offset = len(names)  # instruction i's result is values[offset + i + 1]

    def leaf(x) -> int:
        if x.__class__ is Var:
            if x.name not in position:
                raise UnknownSymbolError(f"unbound variable {x.name!r}")
            return position[x.name]
        name = str(x.value)
        if max_sum is not None and x.value > 1:
            if x.value > max_sum:
                raise CapExceeded(f"integer literal {x.value} exceeds the limit of {max_sum}")
            if "1" not in base or "+" not in base:
                raise UnknownSymbolError(
                    f"literal {x.value} needs the constant '1' and the operation '+'"
                )
            prog.append((base["1"], 0, 0))
            unit = offset + len(prog)
            for _ in range(x.value - 1):
                prog.append((base["+"], offset + len(prog), unit))
            return offset + len(prog)
        if name in base or x.value > 1:
            prog.append((base.get(name, _NOWHERE), 0, 0))
            return offset + len(prog)
        raise UnknownSymbolError(f"no constant {name!r} in the signature")

    def node(n, x: int, y: int) -> int:
        op = _OP_NAMES[n.__class__]
        if op not in base:
            raise UnknownSymbolError(f"no operation {op!r} in the signature")
        prog.append((base[op], x, y))
        return offset + len(prog)

    operand = fold(t, leaf, node)
    return tuple(prog) if prog else operand


def _eval(prog, env, cells: list, size: int) -> int:
    """Carrier index of a compiled term's value under ``env`` (the
    elements of its variables, in order), or ~c for the first undefined
    cell c its evaluation stops at."""
    if prog.__class__ is int:
        return env[prog - 1]
    values = [0, *env]
    for b, x, y in prog:
        c = b + values[x] * size + values[y]
        v = cells[c]
        if v is None:
            return ~c
        values.append(v)
    return v


def eval_term(algebra: FinitePartialAlgebra, t: Term, assignment: dict):
    """Strict evaluation: the value of t, or UNDEFINED.

    Unbound variables and unknown operation symbols raise, whether or
    not the evaluation would reach them; an integer literal outside
    {0, 1} evaluates by a constant table of that name when the
    signature has one and is UNDEFINED otherwise.  Each call compiles
    t afresh; a caller that loops over assignments should compile once,
    as ``holds`` does.
    """
    cells, base = algebra._layout
    index = algebra.index
    names = variables(t)
    env = []
    for name in names:
        if name not in assignment:
            raise UnknownSymbolError(f"unbound variable {name!r}")
        if assignment[name] not in index:
            raise ValueError(f"assignment sends {name!r} outside the carrier")
        env.append(index[assignment[name]])
    v = _eval(_compile(t, names, base), env, cells, len(algebra.carrier))
    return UNDEFINED if v < 0 else algebra.carrier[v]


class SatisfactionVerdict(Verdict, Value):
    """Holds, or fails with the least falsifying assignment."""

    holds: bool
    witness: dict | None = None


def holds(algebra: FinitePartialAlgebra, sentence: HornSentence) -> SatisfactionVerdict:
    """Dom-relative satisfaction.

    Assignments range over the carrier in the sentence's variable
    order; ones leaving any term of the sentence undefined are skipped.
    The witness, if any, is the lexicographically least assignment that
    defines every term, satisfies the antecedents and falsifies the
    consequent (for falsum: any such assignment).

    The assignments are searched depth first, binding the variables in
    order with the smallest element first and the pending choices on an
    explicit stack.  Each term and each equation is checked once per
    branch, at the depth where the last variable it reads is bound; an
    undefined term, a false antecedent or an equal consequent there
    rules out every assignment below, so the subtree is dropped, and
    the first complete assignment reached is the witness.  Raises
    UnknownSymbolError if the sentence uses an operation symbol the
    signature lacks, before any assignment is tried.
    """
    return _satisfaction(algebra, sentence, None)


def _satisfaction(algebra: FinitePartialAlgebra, sentence: HornSentence, max_sum):
    """``holds``, with the sentence's terms compiled under ``max_sum``."""
    cells, base = algebra._layout
    size = len(algebra.carrier)
    names = sentence.vars
    k = len(names)
    programs = [_compile(t, names, base, max_sum) for t in sentence.all_terms()]
    depths = []  # the last variable position (1..k) each program reads, or 0
    for prog in programs:
        if prog.__class__ is int:
            depths.append(prog)
            continue
        depth = 0
        for _, x, y in prog:
            if depth < x <= k:
                depth = x
            if depth < y <= k:
                depth = y
        depths.append(depth)
    # steps[d]: the terms evaluated once names[:d] are bound, as (index,
    # program, test); the side of an equation evaluated last tests it,
    # with test True where a witness needs the sides equal (an
    # antecedent) and False where it needs them unequal (the consequent)
    steps: list = [[] for _ in range(k + 1)]
    antecedent_sides = 2 * len(sentence.antecedents)
    for i in range(0, len(programs), 2):
        first, last = (i + 1, i) if depths[i] > depths[i + 1] else (i, i + 1)
        steps[depths[first]].append((first, programs[first], None))
        steps[depths[last]].append((last, programs[last], i < antecedent_sides))
    # fixed length, so a program filed at depth d reads only env[:d]
    env = [0] * k
    values = [0] * len(programs)  # each term's value on this branch
    todo = [(0, 0)]  # (depth, element for names[depth - 1])
    while todo:
        depth, e = todo.pop()
        if depth:
            env[depth - 1] = e
            if e + 1 < size:
                todo.append((depth, e + 1))
        for i, prog, test in steps[depth]:
            v = _eval(prog, env, cells, size)
            if v < 0 or test is not None and (values[i ^ 1] == v) is not test:
                break  # outside the domain, or the equation rules out a witness
            values[i] = v
        else:
            if depth == k:
                witness = {n: algebra.carrier[e] for n, e in zip(names, env)}
                return SatisfactionVerdict(False, witness)
            todo.append((depth + 1, 0))
    return SatisfactionVerdict(True)


def holds_total(algebra: FinitePartialAlgebra, sentence: HornSentence) -> SatisfactionVerdict:
    """Classical satisfaction; requires every table to be complete.

    An integer literal n >= 2 reads as the model search reads it: n - 1
    additions of the unit, not a constant named n.  A literal above
    ``MAX_LITERAL`` raises CapExceeded, and one in a signature without
    the unit or addition raises UnknownSymbolError."""
    if not algebra.is_total():
        raise ValueError("holds_total needs a total algebra")
    return _satisfaction(algebra, sentence, MAX_LITERAL)


class CheckVerdict(Verdict, Value):
    """Yes, or no with a reason."""

    ok: bool
    reason: str | None = None


def is_weak_subalgebra(p: FinitePartialAlgebra, q: FinitePartialAlgebra) -> CheckVerdict:
    """Carrier containment plus agreement of p's defined entries with q.

    Every entry defined in p must be defined in q with the same value;
    q may define more.  Signatures must coincide as sets.
    """
    if set(p.signature) != set(q.signature):
        raise ValueError("weak subalgebra comparison needs matching signatures")
    if not set(p.carrier) <= set(q.carrier):
        extra = sorted(set(p.carrier) - set(q.carrier))
        return CheckVerdict(False, f"carrier elements {extra} are not in the larger algebra")
    for op, args, value in p.defined_entries():
        other = q.tables.get(op, {}).get(args)
        if other is None:
            return CheckVerdict(False, f"{op} is undefined at {args} in the larger algebra")
        if other != value:
            return CheckVerdict(False, f"{op} at {args} gives {value} versus {other}")
    return CheckVerdict(True)


def _check_signatures(p: FinitePartialAlgebra, q: FinitePartialAlgebra) -> None:
    """Raise ValueError unless q interprets every symbol of p."""
    if set(p.signature) - set(q.signature):
        raise ValueError("embedding needs p's signature inside q's")


def check_embedding(p: FinitePartialAlgebra, q: FinitePartialAlgebra, mapping: dict) -> CheckVerdict:
    """Is ``mapping`` an embedding of p into q?

    The map must be total on p's carrier and injective, and every
    defined entry of p must map to a defined entry of q with the
    matching value.  q may interpret extra operation symbols.
    """
    _check_signatures(p, q)
    missing = [e for e in p.carrier if e not in mapping]
    if missing:
        raise ValueError(f"mapping is not total on the carrier: missing {missing}")
    image = [mapping[e] for e in p.carrier]
    if any(v not in q.carrier for v in image):
        return CheckVerdict(False, "mapping leaves the target carrier")
    if len(set(image)) != len(image):
        return CheckVerdict(False, "mapping is not injective")
    for op, args, value in p.defined_entries():
        target_args = tuple(mapping[a] for a in args)
        other = q.tables.get(op, {}).get(target_args)
        if other is None:
            return CheckVerdict(False, f"{op} is undefined at the image of {args}")
        if other != mapping[value]:
            return CheckVerdict(False, f"{op} at the image of {args} gives {other}, expected {mapping[value]}")
    return CheckVerdict(True)


def search_embedding(p: FinitePartialAlgebra, q: FinitePartialAlgebra):
    """First embedding of p into q, trying p's elements in carrier
    order and images in q's carrier order; None if there is none.

    The search is depth first with the pending choices on an explicit
    stack.  Each defined entry of p is checked once per branch, when
    the last element it mentions is mapped (``_entries_by_element``);
    q's tables are read as given."""
    _check_signatures(p, q)
    filed = p._entries_by_element
    tables = q.tables
    targets = q.carrier[::-1]
    last = len(p.carrier) - 1
    image: list = []  # image[i] is the target of p.carrier[i] on this branch
    look = image.__getitem__
    todo = [(0, t) for t in targets]
    while todo:
        i, target = todo.pop()
        del image[i:]
        if target in image:
            continue
        image.append(target)
        for op, args, value in filed[i]:
            if tables.get(op, _NO_ENTRIES).get(tuple(map(look, args))) != image[value]:
                break
        else:
            if i == last:
                return dict(zip(p.carrier, image))
            todo += [(i + 1, t) for t in targets]
    return None


class Presentation(Value):
    """The positive diagram and the distinctness constraints of a
    finite partial algebra, as ground data."""

    diag_plus: tuple  # (op, args, value) triples
    distinct: tuple  # (a, b) pairs, a before b in carrier order

    def __str__(self):
        lines = [
            f"{op}({', '.join(args)}) = {value}" if args else f"{op} = {value}"
            for op, args, value in self.diag_plus
        ]
        lines += [f"{a} != {b}" for a, b in self.distinct]
        return "\n".join(lines)


def presentation(algebra: FinitePartialAlgebra) -> Presentation:
    diag = tuple(algebra.defined_entries())
    pairs = tuple(
        (a, b)
        for i, a in enumerate(algebra.carrier)
        for b in algebra.carrier[i + 1 :]
    )
    return Presentation(diag, pairs)


def format_algebra(algebra: FinitePartialAlgebra) -> str:
    lines = ["carrier: " + " ".join(algebra.carrier)]
    for op, k in algebra.signature:
        lines.append(f"op {op}/{k}:")
        table = algebra.tables.get(op, {})
        for args in itertools.product(algebra.carrier, repeat=k):
            if args in table:
                prefix = " ".join(args) + " " if args else ""
                lines.append(f"{prefix}-> {table[args]}")
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> FinitePartialAlgebra:
    """Parse the algebra file format; inverse of format_algebra."""
    carrier: tuple[str, ...] | None = None
    signature: list[tuple[str, int]] = []
    tables: dict[str, dict] = {}
    current: str | None = None

    def read(line: str) -> None:
        nonlocal carrier, current
        if line.startswith("carrier:"):
            if carrier is not None:
                raise ValueError("second carrier line")
            carrier = tuple(line[len("carrier:") :].split())
        elif line.startswith("op "):
            head = line[3:].rstrip(":")
            name, _, arity = head.partition("/")
            if not name or not arity.isdecimal():
                raise ValueError("malformed operation header")
            signature.append((name, parse_int(arity)))
            current = name
            tables[name] = {}
        elif "->" in line:
            if current is None:
                raise ValueError("entry before any operation header")
            left, _, value = line.partition("->")
            args = tuple(left.split())
            value = value.strip()
            arity = dict(signature)[current]
            if len(args) != arity or not value:
                raise ValueError(f"entry does not match arity {arity}")
            if args in tables[current]:
                raise ValueError("duplicate entry")
            tables[current][args] = value
        else:
            raise ValueError(f"unrecognized line {line!r}")

    read_lines(text, read)
    if carrier is None:
        raise ValueError("missing carrier line")
    return FinitePartialAlgebra(carrier, tuple(signature), tables)
