"""Multilinear integer polynomials over idempotent class symbols.

A monomial is a set of variable names, so multiplication unions
monomials: this is arithmetic in Z[vars] modulo the ideal generated by
v*v - v.  Every term of the class signature has a unique normal form
here, and evaluating that normal form on {0,1} vertices is the
"variables susceptible of the values 0 and 1" reading of a term.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from types import MappingProxyType

from .errors import MAX_VARS, CapExceeded, Value, Verdict
from .terms import Add, Mul, Term, Var, fold

Monomial = frozenset


def _monomial_key(mono: frozenset) -> tuple:
    # degree first, then variable names: degree-lexicographic order
    return (len(mono), tuple(sorted(mono)))


class MultilinearPoly(Value):
    """Integer polynomial with exponents at most one.

    ``vars`` may list variables that no monomial uses (a normal form
    remembers every variable of the source term, even cancelled ones);
    equality and hashing look at the coefficients only, which matches
    equality modulo the idempotence ideal.

    The constructor is the check on outside input: it freezes the
    monomials, drops zero coefficients and widens ``vars`` to cover
    every monomial.  The operators, ``const``, ``variable`` and
    ``normalize`` build their results with ``_of``, from parts that
    already hold those rules.
    """

    vars: tuple = ()
    _coeffs: dict = None

    def __post_init__(self):
        names = set(self.vars)
        cleaned: dict[frozenset, int] = {}
        for mono, c in (self._coeffs or {}).items():
            mono = frozenset(mono)
            names.update(mono)
            if c:
                cleaned[mono] = c
        object.__setattr__(self, "vars", tuple(sorted(names)))
        object.__setattr__(self, "_coeffs", cleaned)

    @classmethod
    def _of(cls, vars: tuple, coeffs: dict) -> "MultilinearPoly":
        """The polynomial with these fields as given, without the
        constructor's pass: ``vars`` sorted and covering every monomial,
        ``coeffs`` keyed by frozensets with no zero coefficient, and
        owned by the result from now on."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "_coeffs", coeffs)
        return p

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    @classmethod
    def const(cls, n: int, vars=()) -> "MultilinearPoly":
        """The integer n, with no monomial when n is 0: the one rule that
        turns an int into a polynomial, an int operand included."""
        return cls._of(tuple(sorted({*vars})), {frozenset(): n} if n else {})

    @classmethod
    def variable(cls, name: str) -> "MultilinearPoly":
        return cls._of((name,), {frozenset((name,)): 1})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def _plus(self, other, sign: int):
        """self + sign * other, for a polynomial or an int other."""
        if isinstance(other, int):
            other = MultilinearPoly.const(other)
        elif not isinstance(other, MultilinearPoly):
            return NotImplemented
        coeffs = dict(self._coeffs)
        _fold(coeffs, other._coeffs, sign)
        return MultilinearPoly._of(tuple(sorted({*self.vars, *other.vars})), coeffs)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultilinearPoly._of(self.vars, {m: -c for m, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = MultilinearPoly.const(other)
        elif not isinstance(other, MultilinearPoly):
            return NotImplemented
        coeffs = _product(self._coeffs, other._coeffs)
        return MultilinearPoly._of(tuple(sorted({*self.vars, *other.vars})), coeffs)

    __rmul__ = __mul__

    def evaluate(self, assignment) -> int:
        """Value under an integer assignment covering every monomial."""
        total = 0
        for mono, c in self._coeffs.items():
            v = c
            for name in mono:
                v *= assignment[name]
            total += v
        return total

    def ordered_monomials(self) -> list[tuple[frozenset, int]]:
        return sorted(self._coeffs.items(), key=lambda kv: _monomial_key(kv[0]))

    def to_records(self) -> list[dict]:
        return [
            {"monomial": sorted(mono), "coeff": c}
            for mono, c in self.ordered_monomials()
        ]

    @classmethod
    def from_records(cls, records) -> "MultilinearPoly":
        coeffs: dict[frozenset, int] = {}
        for rec in records:
            mono = frozenset(rec["monomial"])
            coeffs[mono] = coeffs.get(mono, 0) + int(rec["coeff"])
        return cls((), coeffs)

    def __str__(self):
        monos = self.ordered_monomials()
        if not monos:
            return "0"
        parts = []
        for mono, c in monos:
            body = "*".join(sorted(mono))
            if not body:
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            parts.append((c < 0, chunk))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, chunk in parts[1:]:
            out += (" - " if neg else " + ") + chunk
        return out

    def __repr__(self):
        return f"MultilinearPoly({self})"


def _fold(left: dict, right: dict, sign: int) -> None:
    """Add sign * right into left in place, dropping the monomials that
    cancel; neither dict holds a zero coefficient.  The one signed sum
    of coefficient dicts, whatever their monomials are: name sets here,
    vertex masks in the split tree, exponent tuples in the free ring."""
    for mono, c in right.items():
        c = left.get(mono, 0) + sign * c
        if c:
            left[mono] = c
        else:
            del left[mono]


def pair_cap(max_vars: int) -> int:
    """The monomial-pair cap of a product step under the variable cap
    max_vars: 2^max_vars pairs, held at 2^64 so a cap of any length
    costs one small integer.  No product reaches 2^64 pairs (each factor
    would need 2^32 monomials), so the hold changes no outcome."""
    return 1 << min(max_vars, 64)


def _pair_cap(left: dict, right: dict, max_pairs: int | None) -> None:
    """Raise CapExceeded before a product of polynomials with these
    monomials that would multiply more than ``max_pairs`` pairs."""
    pairs = len(left) * len(right)
    if max_pairs is not None and pairs > max_pairs:
        raise CapExceeded(f"{pairs} monomial pairs in one product exceeds the limit of {max_pairs}")


def _product(left: dict, right: dict, max_pairs: int | None = None) -> dict:
    """The product of two {monomial: coefficient} dicts with no zero
    coefficient, in a new dict without one; a monomial is a set of
    names, so a product of monomials is their union (the idempotent
    exponent collapse).  Capped as in ``_pair_cap``."""
    _pair_cap(left, right, max_pairs)
    product: dict[frozenset, int] = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            mono = m1 | m2
            product[mono] = product.get(mono, 0) + c1 * c2
    return {m: c for m, c in product.items() if c}


def normalize(term: Term, max_pairs: int | None = None) -> MultilinearPoly:
    """Unique multilinear normal form of a term.

    Two terms get equal normal forms exactly when every commutative ring
    with unity makes them equal under every assignment of idempotent
    elements to the variables.  ``vars`` lists every variable of the
    term, cancelled ones included.

    One ``fold`` of the term, so any depth is fine.  Operands are plain
    {monomial: coefficient} dicts with no zero entries; a sum or
    difference folds its right operand into its left one in place, so a
    left-deep sum of k terms costs O(k).  A product of k sums can have
    2^k monomials, so with ``max_pairs`` a product step that would
    multiply more monomial pairs than that raises CapExceeded before it
    starts.

    The result is kept on the term node together with the pairs of its
    largest product step.  A later call on the same node whose cap
    allows that step returns the same (immutable) object without a
    walk; one with a smaller cap walks, and so raises at the first step
    over it.
    """
    kept = getattr(term, "_form", None)  # (form, pairs of its largest product step)
    if kept is not None and (max_pairs is None or kept[1] <= max_pairs):
        return kept[0]
    names: set[str] = set()
    widest = 0

    def leaf(x) -> dict:
        if x.__class__ is Var:
            names.add(x.name)
            return {frozenset((x.name,)): 1}
        return {frozenset(): x.value} if x.value else {}

    def node(n, left: dict, right: dict) -> dict:
        nonlocal widest
        if n.__class__ is Mul:
            widest = max(widest, len(left) * len(right))
            return _product(left, right, max_pairs)
        _fold(left, right, 1 if n.__class__ is Add else -1)
        return left

    coeffs = fold(term, leaf, node)  # before sorting names: the fold fills them
    form = MultilinearPoly._of(tuple(sorted(names)), coeffs)
    object.__setattr__(term, "_form", (form, widest))  # nodes refuse plain assignment
    return form


class ConstituentExpansion(Value):
    """Coefficients of a polynomial at every {0,1} vertex.

    A vertex is a tuple of bits aligned with ``vars``; all 2^len(vars)
    vertices are present.  This is the development of a class term into
    constituents: the coefficient at a vertex multiplies the product of
    the variables set there and the complements of the others.

    Construction checks the table by count and key shape: 2^m distinct
    keys, each a tuple of length m.  The entries of a key are not
    checked one by one (that costs as much as listing every vertex);
    ``expand`` builds its keys from ``vertices``.
    """

    vars: tuple[str, ...]
    coeff_at: MappingProxyType

    def __post_init__(self):
        m = len(self.vars)
        table = dict(self.coeff_at)
        if len(table) != 1 << m or not all(
            type(v) is tuple and len(v) == m for v in table
        ):
            raise ValueError("expansion must cover every 0/1 vertex exactly once")
        object.__setattr__(self, "coeff_at", MappingProxyType(table))

    def __reduce__(self):
        # a mapping proxy cannot be pickled or deep-copied; the plain
        # table can, and the constructor wraps it again
        return ConstituentExpansion, (self.vars, dict(self.coeff_at))

    def vertices(self) -> list[tuple[int, ...]]:
        return sorted(self.coeff_at)

    def __str__(self):
        return "\n".join(f"{bits(v)}: {self.coeff_at[v]}" for v in self.vertices())


def bits(vertex: tuple[int, ...]) -> str:
    """A vertex as its bit string, ``()`` for the one vertex over no
    variables."""
    return "".join(map(str, vertex)) if vertex else "()"


def vertices(var_names) -> Iterator[tuple[int, ...]]:
    """All 0/1 vertices over the given variables, lexicographically and
    lazily: the first variable is the most significant bit."""
    return itertools.product((0, 1), repeat=len(var_names))


def _bit_terms(names, polys) -> list[dict[int, int]]:
    """Each polynomial as a {mask: coefficient} dict over ``names``,
    where names[j] is bit m-1-j of a vertex index.  Index order is then
    the lexicographic vertex order of ``vertices``, and a polynomial's
    value at vertex index i is the sum of the coefficients whose mask
    is inside i."""
    m = len(names)
    bit = {name: 1 << (m - 1 - j) for j, name in enumerate(names)}
    out = []
    for p in polys:
        terms = {}
        for mono, c in p._coeffs.items():
            k = 0
            for name in mono:
                k |= bit[name]
            terms[k] = c
        out.append(terms)
    return out


def _split(polys: list[dict]) -> tuple[int, list[dict], list[dict]]:
    """Boole's development of {mask: coefficient} polynomials at the
    highest variable any of them uses: its bit, then each polynomial at
    x = 0 (the masks without the bit) and at x = 1 (the bit cleared
    from every mask, merged, with the coefficients that cancel
    dropped).  A polynomial that does not use the bit gets one dict
    for both halves, so no half may be changed in place."""
    used = 0
    for p in polys:
        for k in p:
            used |= k
    bit = 1 << used.bit_length() >> 1
    zeros, ones = [], []
    for p in polys:
        zero = {}
        high = {}
        for k, c in p.items():
            if k & bit:
                high[k ^ bit] = c
            else:
                zero[k] = c
        one = zero.copy() if high else zero
        _fold(one, high, 1)
        zeros.append(zero)
        ones.append(one)
    return bit, zeros, ones


def _join(zero: dict, one: dict, bit: int) -> dict:
    """The {mask: coefficient} polynomial zero + x*(one - zero), for the
    variable x of ``bit``: Boole's development, read backwards, of a
    polynomial whose halves at x = 0 and x = 1 are the two given."""
    joined = dict(zero)
    _fold(joined, {k | bit: c for k, c in one.items()}, 1)
    _fold(joined, {k | bit: c for k, c in zero.items()}, -1)
    return joined


def _vertex(names, i: int) -> dict[str, int]:
    """The vertex of index i as a {name: bit} dict in ``names`` order."""
    m = len(names)
    return {name: (i >> (m - 1 - j)) & 1 for j, name in enumerate(names)}


class _Monomials(dict):
    """Vertex index -> the monomial of the variables whose bits are set
    in it, over ``names``.  A monomial is built on first use, from the
    one of its index with the lowest set bit cleared, so callers that
    share one table build each monomial once and only those they use."""

    def __init__(self, names):
        super().__init__({0: frozenset()})
        self.names = names

    def __missing__(self, i: int) -> frozenset:
        low = i & -i
        mono = self[i ^ low] | {self.names[len(self.names) - low.bit_length()]}
        self[i] = mono
        return mono


def _vertex_values(p: MultilinearPoly) -> list[int]:
    """p's value at every vertex index over p.vars, in vertex order."""
    terms = _bit_terms(p.vars, [p])[0].items()
    return [sum(c for k, c in terms if i & k == k) for i in range(1 << len(p.vars))]


def expand(p: MultilinearPoly) -> ConstituentExpansion:
    """Evaluate p at every 0/1 vertex over p.vars."""
    return ConstituentExpansion(p.vars, dict(zip(vertices(p.vars), _vertex_values(p))))


def unexpand(e: ConstituentExpansion) -> MultilinearPoly:
    """Rebuild the polynomial from its vertex values; inverse to expand.

    Boole's development read backwards, one variable at a time: the
    table starts as one constant {mask: coefficient} polynomial per
    vertex index, and each pass joins the neighbouring polynomials that
    differ in the lowest bit left (``_join``), halving the table.
    O(m * 2^m) dict steps."""
    table = [{0: c} if c else {} for c in map(e.coeff_at.__getitem__, vertices(e.vars))]
    bit = 1
    while len(table) > 1:
        table = [_join(zero, one, bit) for zero, one in zip(table[::2], table[1::2])]
        bit <<= 1
    monos = _Monomials(e.vars)
    return MultilinearPoly(e.vars, {monos[k]: c for k, c in table[0].items()})


INTERPRETABLE = "interpretable"
CONDITIONAL = "conditionally-interpretable"
NEVER = "never-interpretable"


@dataclass(frozen=True)  # the benchmark's answer checks call dataclasses.replace on it
class InterpretVerdict:
    """Whether every constituent coefficient lies in {0, 1}.

    ``bad_vertices`` lists the offending vertices in lexicographic
    order; the verdict is NEVER when every vertex offends, which leaves
    no assignment of classes reading the expression as a class.
    """

    kind: str
    bad_vertices: tuple[tuple[int, ...], ...]


def interpretability(p: MultilinearPoly) -> InterpretVerdict:
    values = _vertex_values(p)
    bad = tuple(v for v, c in zip(vertices(p.vars), values) if c not in (0, 1))
    if not bad:
        return InterpretVerdict(INTERPRETABLE, ())
    if len(bad) == len(values):
        return InterpretVerdict(NEVER, bad)
    return InterpretVerdict(CONDITIONAL, bad)


class OracleVerdict(Verdict, Value):
    """Outcome of the 0/1-vertex consequence test.

    ``witness`` maps variables to bits at the lexicographically least
    vertex where every premiss difference vanishes but the conclusion
    difference does not.
    """

    valid: bool
    witness: dict | None = None


def equation_difference(eq: tuple[Term, Term], max_pairs: int | None = None) -> MultilinearPoly:
    """The normal form of ``lhs - rhs``, built from the kept normal forms
    of the two sides (each capped by ``max_pairs``, as in ``normalize``);
    equal to ``normalize(Sub(lhs, rhs))`` down to its vars and the order
    of its coefficients."""
    lhs, rhs = eq
    return normalize(lhs, max_pairs) - normalize(rhs, max_pairs)


def check_var_cap(names, max_vars: int) -> None:
    """Raise CapExceeded when more than max_vars variables are named,
    before any work that can grow as 2^m starts."""
    if len(names) > max_vars:
        raise CapExceeded(f"{len(names)} variables exceeds the limit of {max_vars}")


def _differences(premisses, conclusion, max_vars: int):
    """(names, f, gs): the pooled variables in sorted order, the
    conclusion difference and the premiss differences, each side
    normalized with no product step over ``pair_cap(max_vars)``
    monomial pairs.
    Raises CapExceeded at such a step, or when more than max_vars
    variables occur."""
    max_pairs = pair_cap(max_vars)
    gs = [equation_difference(eq, max_pairs) for eq in premisses]
    f = equation_difference(conclusion, max_pairs)
    names = tuple(sorted(set(f.vars).union(*(g.vars for g in gs))))
    check_var_cap(names, max_vars)
    return names, f, gs


def _least_witness(polys: list[dict]) -> int | None:
    """Index of the least vertex where the conclusion difference f =
    polys[0] does not vanish and every premiss difference in polys[1:]
    does, or None; all are {mask: coefficient} dicts from ``_bit_terms``.

    Boole's development f = f(0)*(1 - x) + f(1)*x, applied one variable
    at a time (the split of DPLL and of Bryant's decision diagrams):
    each node splits on the highest bit any of its differences still
    uses, 0-branch first, with the 1-branch on an explicit stack.  A
    variable no difference uses is not split, since its 1-branch repeats
    its 0-branch.  A subtree is dropped when f restricts to 0 or some
    premiss difference to a nonzero constant; a premiss that restricts
    to 0 drops out.  The least vertex of a subtree is its witness when
    f has a constant term there and no premiss difference has one.
    Once no premiss is left, the least vertex where f is nonzero is its
    least mask: below it every value of f is 0, so by Moebius inversion
    every coefficient is 0 too, and at it the coefficient equals the
    value.
    """
    todo = [(0, polys)]
    while todo:
        index, polys = todo.pop()
        while polys[0]:
            f = polys[0]
            corner = 0 in f  # f is nonzero at the least vertex below
            live = [f]
            for g in polys[1:]:
                if g:
                    if 0 in g:
                        if len(g) == 1:
                            break  # a nonzero constant
                        corner = False
                    live.append(g)
            else:
                if corner:
                    return index
                if len(live) == 1:
                    return index | min(f)
                bit, polys, ones = _split(live)
                todo.append((index | bit, ones))
                continue
            break
    return None


def boole_oracle(premisses, conclusion, max_vars: int = MAX_VARS) -> OracleVerdict:
    """Decide ground consequence by the rule of 0 and 1.

    The conclusion follows when its difference polynomial vanishes at
    every 0/1 vertex killing all premiss differences.  The vertices are
    searched by splitting one variable at a time (``_least_witness``),
    so a chain of m inclusions whose names sort in chain order takes
    O(m) splits, not 2^m vertices; the witness is the lexicographically
    least failing vertex.  The number m of variables is capped at
    ``max_vars``, and each product step of the normal forms at
    ``pair_cap(max_vars)`` monomial pairs.
    """
    names, f, gs = _differences(premisses, conclusion, max_vars)
    index = _least_witness(_bit_terms(names, [f, *gs]))
    if index is None:
        return OracleVerdict(True)
    return OracleVerdict(False, _vertex(names, index))
