"""Exhaustive search for total models of Horn theories, and bounded
embedding search into those models.

The enumeration order is canonical and documented: operations are
ordered constants first, then the rest, each group by first occurrence
in a preorder walk of the theory's terms (a partial algebra's own
signature, when one is supplied, comes ahead of theory-only symbols);
within an operation the argument tuples run row-major in carrier order;
candidate values are tried in carrier order.  The first completed table
in depth-first order is the model returned, which makes every search
result reproducible.

The search fills one table cell (a slot) at a time and prunes a branch
as soon as some ground instance of a sentence is violated.  Each open
instance waits on one undefined cell its evaluation stops at; filling a
slot re-checks only the instances waiting on that slot, and those still
open move to the list of their new blocking cell until the search
backtracks.  An instance can be violated only once every cell on its
evaluation paths is defined, so every violation is still found at the
node that completes it: the search tree and the order of the yielded
models are those of re-checking every open instance after every slot.

Terms are compiled once per sentence by the evaluator in ``algebra``
(``_compile``/``_eval``, see that module) against the flat cell list
the search fills; a ground instance is its sentence's equations,
consequent first, plus the elements of its variables, and it is settled
once one equation settles it.  Integer literals outside {0, 1} are
searched as repeated addition of the unit constant, since a total model
interprets only the ring signature; literals above ``MAX_LITERAL`` are
refused before any instance is built.
"""

from __future__ import annotations

import itertools

from .algebra import MAX_LITERAL, _OP_NAMES, FinitePartialAlgebra, _compile, _eval, search_embedding
from .errors import MAX_MODEL_SIZE, CapExceeded, Value
from .horn import FALSUM, HornSentence, horn_sentence, identity
from .terms import Add, IntLit, Mul, Sub, Term, Var


def signature_of(sentences, base=()) -> tuple[tuple[str, int], ...]:
    """Operation symbols used by the sentences, constants first, each
    group in order of first occurrence in a preorder walk of the
    sentences' terms; ``base`` symbols are kept in front.  A literal
    n >= 2 contributes the unit constant and addition.  A symbol used
    with two arities raises ValueError."""
    found = dict.fromkeys(base)
    for s in sentences:
        todo = s.all_terms()[::-1]
        while todo:
            node = todo.pop()
            if node.__class__ is IntLit:
                if node.value < 2:
                    found[(str(node.value), 0)] = None
                else:
                    found[("1", 0)] = None
                    found[("+", 2)] = None
            elif node.__class__ in _OP_NAMES:
                found[(_OP_NAMES[node.__class__], 2)] = None
                todo += (node.right, node.left)
    arity: dict = {}
    for op, k in found:
        if arity.setdefault(op, k) != k:
            raise ValueError(f"operation {op!r} is used with arity {arity[op]} and with arity {k}")
    return tuple(sorted(found, key=lambda entry: entry[1] != 0))


# _decide's verdicts besides a blocking cell index (always >= 0)
_SATISFIED = -1
_VIOLATED = -2


def _decide(instance, cells: list, size: int) -> int:
    """_SATISFIED, _VIOLATED, or the index of a cell that must be filled
    before the verdict can change to violated.

    An equation whose sides are both defined settles the instance when
    it rules out a counter-instance: equal sides of the consequent or
    unequal sides of an antecedent.  Any undefined cell a side's
    evaluation stops at leaves that equation, and so the instance, open
    until the cell is filled; the latest such cell in slot order is
    returned, which postpones the next re-check the most.
    """
    equations, env = instance
    blocked = -1
    for left, right, test in equations:
        a = _eval(left, env, cells, size)
        b = _eval(right, env, cells, size)
        if a >= 0 and b >= 0:
            if (a == b) is not test:
                return _SATISFIED
        else:
            blocked = max(blocked, ~a, ~b)
    return _VIOLATED if blocked < 0 else blocked


def _instances(sentences, base: dict, size: int):
    """Every ground instance as (equations, env): the sentence's
    equations compiled once and shared by all its instances, and the
    elements of its variables.  An equation is (left, right, test) with
    test True where a counter-instance needs the sides equal (an
    antecedent) and False where it needs them unequal (the consequent);
    the consequent, the usually decisive check, comes first.  All
    sentences compile before any instance is built."""
    compiled = []
    for s in sentences:
        programs = [_compile(t, s.vars, base, MAX_LITERAL) for t in s.all_terms()]
        sides = 2 * len(s.antecedents)
        equations = [(programs[i], programs[i + 1], i < sides) for i in range(0, len(programs), 2)]
        equations.sort(key=lambda e: e[2])  # stable: the consequent moves to the front
        compiled.append((tuple(equations), len(s.vars)))
    for equations, arity in compiled:
        for env in itertools.product(range(size), repeat=arity):
            yield equations, env


def enumerate_total_models(sentences, size: int, base_signature=()):
    """Yield every total model of the sentences with the given carrier
    size, in the canonical order described in the module docstring.

    Carrier elements are named e0, e1, ...  Sentences may be Horn
    sentences over +, -, *, 0, 1 in any mix.  Raises CapExceeded for an
    integer literal above ``MAX_LITERAL``.
    """
    signature = signature_of(sentences, base=base_signature)
    names = tuple(f"e{i}" for i in range(size))
    # slot i is the cell (op, argument names) filled at depth i; the
    # name tuples are shared by every yielded model
    slots = []
    base = {}
    for op, k in signature:
        base[op] = len(slots)
        slots.extend((op, args) for args in itertools.product(names, repeat=k))
    cells: list = [None] * len(slots)
    waiting: list[list] = [[] for _ in slots]

    # settle instances that need no table at all (bare variable or
    # element equations); a violated one rules out every table
    for inst in _instances(sentences, base, size):
        d = _decide(inst, cells, size)
        if d == _VIOLATED:
            return
        if d >= 0:
            waiting[d].append(inst)

    def snapshot() -> FinitePartialAlgebra:
        tables: dict[str, dict] = {op: {} for op, _ in signature}
        for (op, args), v in zip(slots, cells):
            tables[op][args] = names[v]
        return FinitePartialAlgebra(names, signature, tables)

    # depth first over the slots with no recursion, so any number of
    # cells is fine: cells[i] is the value slot i tries now (None before
    # the first), and moved[i] the waiting lists that value appended to
    moved: list[list] = [[] for _ in slots]
    i = 0
    while i >= 0:
        if i == len(slots):
            yield snapshot()
            i -= 1
            continue
        undo = moved[i]
        for c in reversed(undo):
            waiting[c].pop()
        undo.clear()
        value = 0 if cells[i] is None else cells[i] + 1
        if value == size:
            cells[i] = None
            i -= 1
            continue
        cells[i] = value
        for inst in waiting[i]:
            d = _decide(inst, cells, size)
            if d >= 0:
                waiting[d].append(inst)
                undo.append(d)
            elif d == _VIOLATED:
                break
        else:
            i += 1


# Every carrier-size cap is held at 2^32, so a cap of any length costs
# one small integer: a binary table of 2^32 elements has 2^64 cells,
# which no search fills, so the hold changes no outcome.
_SIZE_HOLD = 1 << 32


def _check_size(what: str, size: int, cap: int) -> None:
    """Raise CapExceeded when ``size`` is past ``cap`` held at 2^32."""
    limit = min(cap, _SIZE_HOLD)
    if size > limit:
        raise CapExceeded(f"{what} {size} exceeds the limit of {limit}")


def search_total_model(sentences, size: int, max_size: int = MAX_MODEL_SIZE):
    """First total model of the sentences at the given carrier size, or
    None; size is capped (default 4, held at 2^32)."""
    if size < 1:
        raise ValueError("carrier size must be at least 1")
    _check_size("model size", size, max_size)
    return next(enumerate_total_models(sentences, size), None)


class EmbedSearchResult(Value):
    """A model-and-embedding witness, or the exhausted bound."""

    max_size: int
    model: FinitePartialAlgebra | None = None
    mapping: dict | None = None

    @property
    def found(self) -> bool:
        return self.model is not None

    def __bool__(self):
        return self.found


def embeds_into_mod_bounded(
    p: FinitePartialAlgebra, sentences, max_size: int, cap: int = MAX_MODEL_SIZE
) -> EmbedSearchResult:
    """Search for a total model of the sentences that p embeds into.

    Model sizes run 1..max_size; within a size, models come in the
    canonical enumeration order and the embedding search tries images
    lexicographically, so the witness is deterministic.  The models
    interpret p's signature together with any extra theory symbols.
    The bound is capped (held at 2^32).
    """
    _check_size("model size bound", max_size, cap)
    for size in range(1, max_size + 1):
        if size < len(p.carrier):
            continue  # no injection exists
        for q in enumerate_total_models(sentences, size, base_signature=p.signature):
            mapping = search_embedding(p, q)
            if mapping is not None:
                return EmbedSearchResult(max_size, q, mapping)
    return EmbedSearchResult(max_size)


def _repeated_sum(var: Var, n: int) -> Term:
    acc: Term = var
    for _ in range(n - 1):
        acc = Add(acc, var)
    return acc


def hailperin_laws(nilpotent_bound: int = MAX_MODEL_SIZE) -> tuple[HornSentence, ...]:
    """The ring laws Boole's symbolic reasoning runs on.

    Commutative-ring-with-unity identities over {+, -, *, 0, 1} with
    binary subtraction, the exclusion of additive nilpotents (nx = 0
    implies x = 0) for n up to ``nilpotent_bound``, and 0 != 1.  The
    nilpotent scheme is an infinite family; truncating at the model
    size bound is enough because a total model of size k gives its unit
    an additive order of at most k.
    """
    x, y, z = Var("x"), Var("y"), Var("z")
    laws = [
        identity(Add(x, y), Add(y, x)),
        identity(Add(Add(x, y), z), Add(x, Add(y, z))),
        identity(Add(x, IntLit(0)), x),
        identity(Add(Sub(x, y), y), x),
        identity(Sub(Add(x, y), y), x),
        identity(Mul(x, y), Mul(y, x)),
        identity(Mul(Mul(x, y), z), Mul(x, Mul(y, z))),
        identity(Mul(x, IntLit(1)), x),
        identity(Mul(x, Add(y, z)), Add(Mul(x, y), Mul(x, z))),
    ]
    for n in range(2, nilpotent_bound + 1):
        laws.append(
            horn_sentence(((_repeated_sum(x, n), IntLit(0)),), (x, IntLit(0)))
        )
    laws.append(horn_sentence(((IntLit(0), IntLit(1)),), FALSUM))
    return tuple(laws)
