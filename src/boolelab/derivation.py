"""Symbolic consequence: cofactor certificates and derivation traces.

A certificate for "premisses entail conclusion" exhibits an integer
n >= 1 and one multilinear cofactor per premiss with

    n * (lhs - rhs)  =  sum_j cofactor_j * (lhs_j - rhs_j)

as multilinear polynomials; verification is a normalization to zero,
so a certificate is checkable without trusting the search that found
it.  Certificates serialize as {"n": ..., "cofactors": [...]} with
each cofactor a list of monomial/coeff records.

A trace is a numbered list of equations, each justified by a rule tag.
Hailperin mode admits idempotence only on a bare class symbol;
sigma1 mode admits it on arbitrary terms, which is exactly the
unsound-for-classes reading that lets 2x = 0 and then x = 0 be derived
from nothing.  Trace files carry one step per line:

    k: lhs = rhs [Rule args]

with rule arguments as step numbers and integers, written as digit
strings, or as terms (Congruence contexts mark the hole with the
reserved identifier HOLE).
"""

from __future__ import annotations

import math

from .errors import HAILPERIN, MAX_VARS, MODES, SIGMA1, CapExceeded, Value, Verdict, read_lines
from .polynomial import (
    MultilinearPoly,
    _bit_terms,
    _differences,
    _fold,
    _join,
    _Monomials,
    _pair_cap,
    _split,
    equation_difference,
)
from .terms import (
    Add,
    IntLit,
    Mul,
    Term,
    Var,
    _Binary,
    count_var,
    fold,
    parse,
    parse_int,
    pretty,
    substitute,
)

HOLE = "HOLE"


# ---------------------------------------------------------------- certificates


class Certificate(Value):
    """A verified-checkable witness of symbolic consequence."""

    n: int
    cofactors: tuple[MultilinearPoly, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("certificate multiplier must be at least 1")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "cofactors": [c.to_records() for c in self.cofactors],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        cofactors = tuple(
            MultilinearPoly.from_records(rec) for rec in data["cofactors"]
        )
        return cls(int(data["n"]), cofactors)


class CertificateCheck(Verdict, Value):
    """Verified, or rejected with the nonzero residual."""

    verified: bool
    residual: MultilinearPoly | None = None


def verify_certificate(premisses, conclusion, certificate: Certificate) -> CertificateCheck:
    """Recompute n*f - sum of cofactor_j * g_j and test it for zero."""
    if len(certificate.cofactors) != len(premisses):
        raise ValueError(
            f"{len(certificate.cofactors)} cofactors for {len(premisses)} premisses"
        )
    residual = certificate.n * equation_difference(conclusion)
    for cofactor, eq in zip(certificate.cofactors, premisses):
        residual = residual - cofactor * equation_difference(eq)
    if residual.is_zero:
        return CertificateCheck(True)
    return CertificateCheck(False, residual)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bezout(values) -> tuple[int, list[int]]:
    """gcd of the values plus integer coefficients realizing it."""
    g = 0
    coeffs = []
    for v in values:
        g, s, t = _ext_gcd(g, v)
        coeffs = [c * s for c in coeffs]
        coeffs.append(t)
    return g, coeffs


def certify_consequence(premisses, conclusion, max_vars: int = MAX_VARS) -> Certificate | None:
    """Search for a certificate; None exactly when the 0/1-vertex
    oracle rejects the consequence.  Capped as ``boole_oracle`` is.

    The search runs on the oracle's split tree (``_least_witness``):
    each node restricts the conclusion difference f and the premiss
    differences g_j to a subcube.  It splits only when f is not 0 and a
    g_j that is not constant comes before the first g_j that is 1 or -1
    (a unit).  Every other node is a leaf with one rule: each cofactor
    is 0, or free if its g_j is 0, except those that f sets when it is
    not 0.  A unit sets n*f/g_j at its index; with no unit, every g_j is
    a constant, and their Bezout coefficients, scaled by n*f/d for
    their gcd d, set the cofactors whose coefficient is not 0, or the
    search returns None when d is 0, since f is not.  A free cofactor
    is one the identity does not constrain there.

    A node that splits does so on its highest variable (``_split``), and
    each cofactor is rebuilt from its two halves by the restrict
    operator of Coudert and Madre: a free half takes the other one,
    equal halves drop the variable, and otherwise ``_join`` applies
    Boole's development.  A cofactor free everywhere is 0.  The leaves
    agree at every vertex with a per-vertex construction: the first
    premiss value of 1 or -1 takes the whole of n*f, else the Bezout
    coefficients of the values do; a cofactor is free where its premiss
    value is 0.

    The multiplier n is the least common multiple of d / gcd(d, content
    of f) over the constant leaves.  That equals the least common
    multiple of the local denominators over all vertices, the minimum
    for this construction, since a unit leaf contributes 1.  When n
    grows, the cofactors built so far are scaled to match.  The search
    returns None in the first subtree, in the oracle's order, that holds
    a vertex where f is nonzero and every premiss difference is 0.
    """
    names, f, diffs = _differences(premisses, conclusion, max_vars)
    n = 1
    done: list[list] = []  # the cofactors of finished subtrees, in order
    todo: list = [_bit_terms(names, [f, *diffs])]
    while todo:
        polys = todo.pop()
        if type(polys) is int:  # join the last two subtrees at this bit
            one = done.pop()
            zero = done[-1]
            for j, b in enumerate(one):
                a = zero[j]
                if a is None or b is not None and a != b:
                    zero[j] = b if a is None else _join(a, b, polys)
            continue
        while True:
            f, *gs = polys
            v = 0  # the first unit, or 0 for none
            if f:
                if 0 in f:
                    for g in gs:
                        if 0 in g:
                            break
                    else:
                        return None  # the least vertex below is a witness
                values = []  # the constants before the first unit or non-constant
                for g in gs:
                    v = g[0] if len(g) == 1 and 0 in g else None if g else 0
                    if v is None or v == 1 or v == -1:
                        break
                    values.append(v)
                else:
                    v = 0  # every g_j is a constant, none of them a unit
                if v is None:
                    bit, polys, ones = _split(polys)
                    todo += (bit, ones)
                    continue
            cofs = [{} if g else None for g in gs]
            if v:  # n*f/v is v*n*f for v = 1 or -1
                cofs[len(values)] = {k: v * n * c for k, c in f.items()}
            elif f:
                d, coeffs = _bezout(values)
                if d == 0:
                    return None
                content = math.gcd(d, *f.values())
                grow = d // content
                if n % grow:
                    scale = math.lcm(n, grow) // n
                    n *= scale
                    done = [
                        [c and {k: scale * b for k, b in c.items()} for c in leaf]
                        for leaf in done
                    ]
                q = n // grow  # n*c/d is q*(c/content) for each coefficient c of f
                for j, a in enumerate(coeffs):
                    if a:
                        a *= q
                        cofs[j] = {k: a * (c // content) for k, c in f.items()}
            done.append(cofs)
            break
    monos = _Monomials(names)
    # a premiss difference of 0 is free at every leaf, so its cofactor is 0
    cofactors = (
        MultilinearPoly._of(names, {monos[k]: b for k, b in (c or {}).items()}) for c in done[0]
    )
    return Certificate(n, tuple(cofactors))


# ---------------------------------------------------------------------- traces


class Premiss(Value):
    pass


class RingAxiomInstance(Value):
    pass


class DeltaIdempotence(Value):
    target: Term


class Refl(Value):
    pass


class Sym(Value):
    step: int


class Trans(Value):
    first: int
    second: int


class Congruence(Value):
    step: int
    context: Term  # exactly one occurrence of Var("HOLE")


class NoNilpotent(Value):
    step: int
    n: int


class IntegerSimplification(Value):
    step: int


class TraceStep(Value):
    lhs: Term
    rhs: Term
    rule: object


class DerivationTrace(Value):
    premisses: tuple
    steps: tuple[TraceStep, ...]

    @property
    def conclusion(self):
        if not self.steps:
            raise ValueError("empty trace has no conclusion")
        last = self.steps[-1]
        return (last.lhs, last.rhs)


class TraceVerdict(Verdict, Value):
    """Accepted, or rejected at a 1-based step with a reason."""

    accepted: bool
    step: int | None = None
    reason: str | None = None


# The free commutative ring with unity: exponent-tracking monomials.
# Two terms are instances of one ring identity exactly when their ring
# normal forms agree, which keeps RingAxiomInstance decidable.


def _rp_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        e1 = dict(m1)
        for m2, c2 in q.items():
            merged = dict(e1)
            for name, exp in m2:
                merged[name] = merged.get(name, 0) + exp
            mono = tuple(sorted(merged.items()))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def ring_normalize(t: Term, max_pairs: int | None = None) -> dict:
    """Normal form in the free commutative ring with unity, with true
    exponents (no idempotence), by one ``fold``; ``max_pairs`` caps each
    product step as in ``normalize``."""

    def leaf(x) -> dict:
        if x.__class__ is Var:
            return {((x.name, 1),): 1}
        return {(): x.value} if x.value else {}

    def node(n, a: dict, b: dict) -> dict:
        if n.__class__ is Mul:
            _pair_cap(a, b, max_pairs)
            return _rp_mul(a, b)
        _fold(a, b, 1 if n.__class__ is Add else -1)
        return a

    return fold(t, leaf, node)


def _rewrites_once(t: Term, u: Term, pattern: Term, replacement: Term) -> bool:
    """Whether u is t with one ``pattern`` rewritten to the smaller
    ``replacement``.  One descent: below a binary node the rewrite lies
    in the one operand pair that differs.  The pairs are compared in
    turns until one is equal or both differ, so the descent is linear."""
    while not (t == pattern and u == replacement):
        if not (isinstance(t, _Binary) and t.__class__ is u.__class__):
            return False
        pairs = ((t.left, u.left), (t.right, u.right))
        walks, differs, side = [[pairs[0]], [pairs[1]]], None, 1
        while True:
            side = 1 - side
            if side == differs:
                continue
            if not walks[side]:  # this pair is equal
                t, u = pairs[1 - side]
                break
            a, b = walks[side].pop()
            if isinstance(a, _Binary) and a.__class__ is b.__class__:
                walks[side] += ((a.right, b.right), (a.left, b.left))
            elif a is not b and a != b:
                if differs is not None:
                    return False
                differs = side
    return True


def _check_step(trace, k: int, mode: str, max_pairs: int | None) -> str | None:
    """None if step k is justified, else the reason it is not."""
    step = trace.steps[k - 1]
    rule = step.rule
    eq = (step.lhs, step.rhs)
    if hasattr(rule, "step"):
        # Sym, Congruence, NoNilpotent and IntegerSimplification
        # each rest on one earlier step
        if not 1 <= rule.step < k:
            return f"step {rule.step} is not an earlier step"
        prev = trace.steps[rule.step - 1]

    if isinstance(rule, Premiss):
        if eq in tuple(trace.premisses):
            return None
        return "equation is not one of the premisses"
    if isinstance(rule, RingAxiomInstance):
        if ring_normalize(step.lhs, max_pairs) == ring_normalize(step.rhs, max_pairs):
            return None
        return "sides differ in the free commutative ring with unity"
    if isinstance(rule, DeltaIdempotence):
        target = rule.target
        if mode == HAILPERIN and not isinstance(target, Var):
            return (
                f"idempotence target {pretty(target)} is not a class symbol"
            )
        square = Mul(target, target)
        if _rewrites_once(step.lhs, step.rhs, square, target):
            return None
        return (
            f"right side is not the left with one {pretty(square)} rewritten to "
            f"{pretty(target)}"
        )
    if isinstance(rule, Refl):
        if step.lhs == step.rhs:
            return None
        return "sides are not identical"
    if isinstance(rule, Sym):
        if eq == (prev.rhs, prev.lhs):
            return None
        return f"equation is not step {rule.step} reversed"
    if isinstance(rule, Trans):
        if not (1 <= rule.first < k and 1 <= rule.second < k):
            return "both referenced steps must be earlier"
        first, second = trace.steps[rule.first - 1], trace.steps[rule.second - 1]
        if first.rhs != second.lhs:
            return (
                f"steps {rule.first} and {rule.second} do not chain: middle terms differ"
            )
        if eq == (first.lhs, second.rhs):
            return None
        return "equation is not the chained composite"
    if isinstance(rule, Congruence):
        if count_var(rule.context, HOLE) != 1:
            return "context must contain the hole exactly once"
        built = (
            substitute(rule.context, {HOLE: prev.lhs}),
            substitute(rule.context, {HOLE: prev.rhs}),
        )
        if eq == built:
            return None
        return "equation is not the context applied to both sides of the step"
    if isinstance(rule, NoNilpotent):
        if rule.n < 1:
            return "the multiplier must be a positive integer"
        expected_lhs = Mul(IntLit(rule.n), step.lhs)
        if prev.lhs == expected_lhs and prev.rhs == IntLit(0) and step.rhs == IntLit(0):
            return None
        return (
            f"step {rule.step} is not {rule.n}*t = 0 for this step's t = 0"
        )
    if isinstance(rule, IntegerSimplification):
        difference = equation_difference(eq, max_pairs)
        if difference == equation_difference((prev.lhs, prev.rhs), max_pairs):
            return None
        return (
            "side difference does not match the referenced step's "
            "(ring laws plus class-symbol idempotence)"
        )
    return f"unknown rule {rule!r}"


def check_trace(trace: DerivationTrace, mode: str, max_pairs: int | None = None) -> TraceVerdict:
    """Validate every step under the given mode; first failure wins.
    ``max_pairs`` caps the normal forms of RingAxiomInstance and
    IntegerSimplification as in ``normalize``, naming the step."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    for k in range(1, len(trace.steps) + 1):
        try:
            reason = _check_step(trace, k, mode, max_pairs)
        except CapExceeded as exc:
            raise CapExceeded(f"step {k}: {exc}") from exc
        if reason is not None:
            return TraceVerdict(False, k, reason)
    return TraceVerdict(True)


# ----------------------------------------------------------- trace text format


# Each rule class is the one description of its tag: the class name,
# then its fields in order, an int as a digit string and a Term as
# ``pretty`` prints it.  Only a rule's last field may be a Term, which
# then takes the rest of the tag.
_RULES = {
    cls.__name__: cls
    for cls in (
        Premiss, RingAxiomInstance, DeltaIdempotence, Refl, Sym, Trans,
        Congruence, NoNilpotent, IntegerSimplification,
    )
}


def _format_rule(rule) -> str:
    name = type(rule).__name__
    if _RULES.get(name) is not type(rule):
        raise TypeError(f"unknown rule {rule!r}")
    args = (pretty(v) if isinstance(v, Term) else str(v) for v in rule._values())
    return " ".join((name, *args))


def format_trace(trace: DerivationTrace) -> str:
    lines = []
    for k, step in enumerate(trace.steps, 1):
        lines.append(
            f"{k}: {pretty(step.lhs)} = {pretty(step.rhs)} [{_format_rule(step.rule)}]"
        )
    return "\n".join(lines) + "\n"


def _parse_rule(text: str):
    if not text:
        raise ValueError("empty rule tag")
    name = text.split(None, 1)[0]
    cls = _RULES.get(name)
    if cls is None:
        raise ValueError(f"unknown rule name {name!r}")
    # annotations are strings here: "int" or "Term"
    kinds = [cls.__annotations__[field] for field in cls._fields]
    words = text.split(None, len(kinds) if "Term" in kinds else -1)[1:]
    if len(words) != len(kinds):
        s = "" if len(kinds) == 1 else "s"
        raise ValueError(f"rule {name} takes {len(kinds)} argument{s}")
    return cls(*(parse(w) if kind == "Term" else parse_int(w) for kind, w in zip(kinds, words)))


def parse_trace(text: str, premisses=()) -> DerivationTrace:
    """Parse the numbered-step trace format; steps must be numbered
    consecutively from 1.  An error names its line."""
    steps = []

    def read(line: str) -> None:
        head, _, rest = line.partition(":")
        if not head.strip().isdecimal():
            raise ValueError("missing step number")
        k = parse_int(head.strip())
        if k != len(steps) + 1:
            raise ValueError(f"expected step {len(steps) + 1}, got {k}")
        body, bracket, tail = rest.rpartition("[")
        if not bracket or not tail.rstrip().endswith("]"):
            raise ValueError("missing [Rule] tag")
        rule = _parse_rule(tail.rstrip().removesuffix("]").strip())
        if body.count("=") != 1:
            raise ValueError("step needs exactly one '='")
        lhs_text, _, rhs_text = body.partition("=")
        steps.append(TraceStep(parse(lhs_text), parse(rhs_text), rule))

    read_lines(text, read)
    return DerivationTrace(tuple(premisses), tuple(steps))
