"""Shared generators and independent evaluators used across the suite.

Everything here is deliberately written against the Term constructors
only, so expected values never route through the code under test.  The
exceptions are the reference semantic check, which takes its class
algebras from ``classes.build_pu``, the reference oracle and vertex
reconstruction, which compute with ``MultilinearPoly`` and take their
local coefficients from ``derivation._bezout``, the replaced one-walk
certify, which runs on the package's vertex-index helpers, the reference
normalizer, which computes with ``MultilinearPoly``'s operators, the
replaced assignment loop of ``holds``, which runs the package's compiled
programs, the recursive free-ring normalizer, which multiplies with
``derivation``'s ``_rp_mul`` and adds with its own ``_rp_add``, and the
replaced compiler, which reads ``algebra``'s operation names; their
loops are independent.
"""

import dataclasses
import itertools
import math
import random
import re
import subprocess
import sys
from pathlib import Path

from boolelab.algebra import (
    _NOWHERE,
    _OP_NAMES,
    UNDEFINED,
    FinitePartialAlgebra,
    SatisfactionVerdict,
    UnknownSymbolError,
    _compile,
    _eval,
)
from boolelab.classes import build_pu
from boolelab.derivation import Certificate, _bezout, _rp_mul
from boolelab.errors import CapExceeded
from boolelab.horn import FALSUM, HornSentence
from boolelab.polynomial import (
    ConstituentExpansion,
    MultilinearPoly,
    OracleVerdict,
    _bit_terms,
    _differences,
    _Monomials,
    check_var_cap,
    equation_difference,
)
from boolelab.terms import (
    _IDENT_RE,
    Add,
    IntLit,
    Mul,
    ParseError,
    Sub,
    Term,
    Var,
    variables,
)


def eval_int(t: Term, env) -> int:
    """Total evaluation over the integers, independent of the
    polynomial module."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, IntLit):
        return t.value
    if isinstance(t, Add):
        return eval_int(t.left, env) + eval_int(t.right, env)
    if isinstance(t, Sub):
        return eval_int(t.left, env) - eval_int(t.right, env)
    if isinstance(t, Mul):
        return eval_int(t.left, env) * eval_int(t.right, env)
    raise TypeError(f"not a term: {t!r}")


def exhaustive_terms(leaves, max_depth: int, ops=(Add, Sub, Mul)):
    """Every term of depth <= max_depth over the given leaves.

    A leaf has depth 1; each round closes under one application of the
    operations, so the result is exactly the depth-bounded term set.
    """
    terms = list(leaves)
    for _ in range(max_depth - 1):
        below = list(terms)
        terms = list(leaves)
        for op in ops:
            for a in below:
                for b in below:
                    terms.append(op(a, b))
    return terms


def random_term(rng: random.Random, names, depth: int) -> Term:
    if depth <= 1 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return IntLit(rng.choice((0, 1, 1, 2, 3)))
        return Var(rng.choice(names))
    op = rng.choice((Add, Sub, Mul))
    return op(
        random_term(rng, names, depth - 1),
        random_term(rng, names, depth - 1),
    )


def leaves(t: Term) -> list:
    """The leaves of t, left to right."""
    if isinstance(t, (Add, Sub, Mul)):
        return leaves(t.left) + leaves(t.right)
    return [t]


def with_leaf(t: Term, k: int, leaf: Term) -> Term:
    """t with its k-th leaf, counted left to right from 0, replaced."""
    def walk(t, k):
        if isinstance(t, (Add, Sub, Mul)):
            left, k = walk(t.left, k)
            right, k = walk(t.right, k)
            return type(t)(left, right), k
        return (leaf if k == 0 else t), k - 1
    return walk(t, k)[0]


def random_ground_argument(rng: random.Random):
    """One random consequence instance: up to two premisses and a
    conclusion over at most three class symbols."""
    names = ("x", "y", "z")[: rng.randint(1, 3)]
    def equation():
        return (random_term(rng, names, 3), random_term(rng, names, 3))
    premisses = tuple(equation() for _ in range(rng.randint(0, 2)))
    return premisses, equation()


def chain(m, conclusion_first=0, drop=None, conclusion_last=None):
    """v_i - v_i*v_{i+1} = 0 for every link but ``drop``, concluding
    v_c - v_c*v_l = 0 for c = conclusion_first and l = conclusion_last
    (the last symbol by default)."""
    v = [Var(f"v{i}") for i in range(m)]
    premisses = tuple(
        (Sub(v[i], Mul(v[i], v[i + 1])), IntLit(0)) for i in range(m - 1) if i != drop
    )
    c = v[conclusion_first]
    last = v[-1] if conclusion_last is None else v[conclusion_last]
    return premisses, (Sub(c, Mul(c, last)), IntLit(0))


def chain_arguments(m):
    """The chain over m symbols, its converse (v_last - v_last*v_0 = 0,
    refuted at the vertex with only v_last set), and every chain with
    one link dropped (refuted past the middle of the vertex order)."""
    yield chain(m)
    yield chain(m, conclusion_first=m - 1, conclusion_last=0)
    for k in range(m - 1):
        yield chain(m, drop=k)


def _dense_factor(rng, v):
    a, b = rng.sample(v, 2)
    return rng.choice(
        (Sub(IntLit(1), Mul(a, b)), Sub(Add(a, b), Mul(a, b)), Sub(a, Mul(a, b)), Add(a, Mul(IntLit(2), b)))
    )


def _dense_product(rng, v, k):
    t = _dense_factor(rng, v)
    for _ in range(k - 1):
        t = Mul(t, _dense_factor(rng, v))
    return t


def dense_argument(rng: random.Random, valid: bool, m: int = 8):
    """Two premisses equating products of random two-symbol factors
    over v0..v(m-1), in the style of the benchmark's dense problems.  A
    valid conclusion is a combination of the premiss differences with
    random product coefficients; an invalid one is drawn until the
    reference oracle finds a witness."""
    v = [Var(f"v{i}") for i in range(m)]
    while True:
        premisses = tuple((_dense_product(rng, v, 3), _dense_product(rng, v, 2)) for _ in range(2))
        if valid:
            lhs = Add(
                Mul(_dense_product(rng, v, 2), Sub(*premisses[0])),
                Mul(_dense_product(rng, v, 2), Sub(*premisses[1])),
            )
            return premisses, (lhs, IntLit(0))
        conclusion = (_dense_product(rng, v, 2), _dense_product(rng, v, 3))
        if not reference_boole_oracle(premisses, conclusion).valid:
            return premisses, conclusion


def small_algebras():
    """All partial algebras with one binary operation and carrier a
    nonempty subset of {0, 1}: 2 + 2 + 81 = 85 in total."""
    out = []
    for carrier in (("0",), ("1",), ("0", "1")):
        pairs = list(itertools.product(carrier, repeat=2))
        for values in itertools.product((None,) + carrier, repeat=len(pairs)):
            table = {p: v for p, v in zip(pairs, values) if v is not None}
            out.append(FinitePartialAlgebra(carrier, (("+", 2),), {"+": table}))
    return out


def random_plus_sentence(rng: random.Random) -> HornSentence:
    """A small universal Horn sentence in the one-operation signature."""
    names = ("x", "y")
    def equation():
        return (
            random_term_plus(rng, names, rng.randint(1, 3)),
            random_term_plus(rng, names, rng.randint(1, 2)),
        )
    antecedents = tuple(equation() for _ in range(rng.randint(0, 2)))
    return HornSentence(names, antecedents, equation())


def random_ring_sentence(rng: random.Random) -> HornSentence:
    """A small universal Horn sentence over +, -, * and the literals
    0-3, with up to two antecedents and, when it has one, sometimes a
    falsum consequent."""
    names = ("x", "y")
    def equation():
        return (
            random_term(rng, names, rng.randint(1, 3)),
            random_term(rng, names, rng.randint(1, 2)),
        )
    antecedents = tuple(equation() for _ in range(rng.randint(0, 2)))
    consequent = FALSUM if antecedents and rng.random() < 0.3 else equation()
    return HornSentence(names, antecedents, consequent)


def random_term_plus(rng: random.Random, names, depth: int) -> Term:
    # addition only, so every generated sentence stays in the signature
    # of the small-algebra enumeration
    if depth <= 1 or rng.random() < 0.3:
        return Var(rng.choice(names))
    return Add(
        random_term_plus(rng, names, depth - 1),
        random_term_plus(rng, names, depth - 1),
    )


def strip_timing(text: str) -> str:
    """Drop the trailing wall-clock line so golden comparisons are
    stable."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("time: ")]
    return "\n".join(lines)


def snippet_output(code: str, *argv: str) -> list[str]:
    """The stdout lines of a fresh interpreter running ``code`` with
    ``argv`` from the repository root."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parents[1]),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def modules_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` with
    ``argv``, boolelab's submodules named without the package prefix."""
    last = snippet_output(code + "\nimport sys\nprint('modules:', *sys.modules)", *argv)[-1]
    return {name.removeprefix("boolelab.") for name in last.split()[1:]}


# ------------------------------------------------ reference model search
#
# The op-filtered search that ``models.enumerate_total_models`` replaced:
# each ground instance is a recursive tree, and filling a slot re-checks
# every open instance that mentions the slot's operation symbol.  The
# search tree and the yield order must match the watched-cell search
# exactly, which the differential tests in test_models.py assert.


def _ref_desugar(t: Term) -> Term:
    if isinstance(t, IntLit) and t.value not in (0, 1):
        acc: Term = IntLit(1)
        for _ in range(t.value - 1):
            acc = Add(acc, IntLit(1))
        return acc
    if isinstance(t, (Add, Sub, Mul)):
        return type(t)(_ref_desugar(t.left), _ref_desugar(t.right))
    return t


def _ref_ground(t: Term, assignment: dict):
    if isinstance(t, Var):
        return assignment[t.name]
    if isinstance(t, IntLit):
        return ("c", str(t.value))
    op = {Add: "+", Sub: "-", Mul: "*"}[type(t)]
    return (
        "f",
        op,
        (_ref_ground(t.left, assignment), _ref_ground(t.right, assignment)),
    )


def _ref_eval_ground(g, tables):
    if isinstance(g, int):
        return g
    if g[0] == "c":
        return tables[g[1]].get(())
    a = _ref_eval_ground(g[2][0], tables)
    if a is None:
        return None
    b = _ref_eval_ground(g[2][1], tables)
    if b is None:
        return None
    return tables[g[1]].get((a, b))


def _ref_ops_of_ground(g, out: set):
    if isinstance(g, int):
        return
    out.add(g[1])
    if g[0] == "f":
        _ref_ops_of_ground(g[2][0], out)
        _ref_ops_of_ground(g[2][1], out)


def reference_signature_of(sentences, base=()) -> tuple[tuple[str, int], ...]:
    """``models.signature_of`` by a recursive preorder walk of each
    antecedent, then the consequent, with a list for the symbols seen."""
    found = list(base)

    def note(entry):
        if entry not in found:
            found.append(entry)

    def walk(t):
        if isinstance(t, IntLit):
            if t.value in (0, 1):
                note((str(t.value), 0))
            else:
                note(("1", 0))
                note(("+", 2))
        elif isinstance(t, (Add, Sub, Mul)):
            note(({Add: "+", Sub: "-", Mul: "*"}[type(t)], 2))
            walk(t.left)
            walk(t.right)

    for s in sentences:
        equations = s.antecedents + (() if s.consequent is FALSUM else (s.consequent,))
        for lhs, rhs in equations:
            walk(lhs)
            walk(rhs)
    return tuple([e for e in found if e[1] == 0] + [e for e in found if e[1] != 0])


class _RefInstance:
    def __init__(self, antecedents, consequent):
        self.antecedents = antecedents
        self.consequent = consequent
        self.ops = set()
        for gl, gr in antecedents + ((consequent,) if consequent else ()):
            _ref_ops_of_ground(gl, self.ops)
            _ref_ops_of_ground(gr, self.ops)

    def check(self, tables):
        """True = satisfied for good, False = violated, None = open."""
        if self.consequent is not None:
            lv = _ref_eval_ground(self.consequent[0], tables)
            rv = _ref_eval_ground(self.consequent[1], tables)
            if lv is not None and rv is not None and lv == rv:
                return True
        else:
            lv = rv = None
        open_antecedent = False
        for gl, gr in self.antecedents:
            av = _ref_eval_ground(gl, tables)
            bv = _ref_eval_ground(gr, tables)
            if av is None or bv is None:
                open_antecedent = True
            elif av != bv:
                return True
        if open_antecedent:
            return None
        if self.consequent is None:
            return False
        if lv is None or rv is None:
            return None
        return False


def reference_total_models(sentences, size: int, base_signature=()):
    """Every total model, in the canonical order, by the op-filtered
    re-check of all open instances after each filled slot."""
    signature = reference_signature_of(sentences, base=base_signature)
    slots = [
        (op, args)
        for op, k in signature
        for args in itertools.product(range(size), repeat=k)
    ]
    tables: dict = {op: {} for op, _ in signature}
    pending = []
    for s in sentences:
        ante = tuple((_ref_desugar(l), _ref_desugar(r)) for l, r in s.antecedents)
        cons = (
            None
            if s.consequent is FALSUM
            else (_ref_desugar(s.consequent[0]), _ref_desugar(s.consequent[1]))
        )
        for values in itertools.product(range(size), repeat=len(s.vars)):
            env = dict(zip(s.vars, values))
            inst = _RefInstance(
                tuple((_ref_ground(l, env), _ref_ground(r, env)) for l, r in ante),
                None
                if cons is None
                else (_ref_ground(cons[0], env), _ref_ground(cons[1], env)),
            )
            r = inst.check(tables)
            if r is False:
                return
            if r is None:
                pending.append(inst)
    names = tuple(f"e{i}" for i in range(size))

    def fill(i, open_instances):
        if i == len(slots):
            yield FinitePartialAlgebra(
                names,
                signature,
                {
                    op: {
                        tuple(names[a] for a in args): names[v]
                        for args, v in table.items()
                    }
                    for op, table in tables.items()
                },
            )
            return
        op, args = slots[i]
        for value in range(size):
            tables[op][args] = value
            still_open = []
            violated = False
            for inst in open_instances:
                if op not in inst.ops:
                    still_open.append(inst)
                    continue
                r = inst.check(tables)
                if r is False:
                    violated = True
                    break
                if r is None:
                    still_open.append(inst)
            if not violated:
                yield from fill(i + 1, still_open)
            del tables[op][args]

    yield from fill(0, pending)


# ----------------------------------------- reference evaluator and loop
#
# The recursive evaluator and the semantic-consequence loop that the
# compiled programs of ``algebra._compile``/``algebra._eval`` replaced.
# The reference evaluator looks symbols up only when its walk reaches
# them, so it raises for an unknown symbol only if some evaluation gets
# there; otherwise its values must match ``eval_term`` exactly.


def reference_eval_term(algebra: FinitePartialAlgebra, t: Term, assignment: dict):
    """Strict recursive evaluation: the value of t, or UNDEFINED."""
    if isinstance(t, Var):
        if t.name not in assignment:
            raise UnknownSymbolError(f"unbound variable {t.name!r}")
        value = assignment[t.name]
        if value not in algebra.carrier:
            raise ValueError(f"assignment sends {t.name!r} outside the carrier")
        return value
    if isinstance(t, IntLit):
        name = str(t.value)
        known = {op for op, _ in algebra.signature}
        if name not in known:
            if t.value in (0, 1):
                raise UnknownSymbolError(f"no constant {name!r} in the signature")
            return UNDEFINED
        return algebra.tables.get(name, {}).get((), UNDEFINED)
    if isinstance(t, (Add, Sub, Mul)):
        op = {Add: "+", Sub: "-", Mul: "*"}[type(t)]
        if all(op != name for name, _ in algebra.signature):
            raise UnknownSymbolError(f"no operation {op!r} in the signature")
        left = reference_eval_term(algebra, t.left, assignment)
        if left is UNDEFINED:
            return UNDEFINED
        right = reference_eval_term(algebra, t.right, assignment)
        if right is UNDEFINED:
            return UNDEFINED
        return algebra.tables.get(op, {}).get((left, right), UNDEFINED)
    raise TypeError(f"not a term: {t!r}")


def reference_semantic_consequence(premisses, conclusion, max_n: int = 3):
    """(valid, witness_n, witness) by enumerating bitmask assignments
    over P(U) for n = 1..max_n with the reference evaluator."""
    names: set[str] = set()
    for lhs, rhs in [*premisses, conclusion]:
        names.update(variables(lhs))
        names.update(variables(rhs))
    ordered = tuple(sorted(names))
    all_terms: list[Term] = []
    for lhs, rhs in [*premisses, conclusion]:
        all_terms += [lhs, rhs]
    for n in range(1, max_n + 1):
        algebra = build_pu(n).algebra
        for masks in itertools.product(range(1 << n), repeat=len(ordered)):
            assignment = {v: algebra.carrier[m] for v, m in zip(ordered, masks)}
            values = []
            for t in all_terms:
                val = reference_eval_term(algebra, t, assignment)
                if val is UNDEFINED:
                    break
                values.append(val)
            if len(values) != len(all_terms):
                continue
            if any(values[2 * i] != values[2 * i + 1] for i in range(len(premisses))):
                continue
            if values[-2] != values[-1]:
                return False, n, assignment
    return True, None, None


# ------------------------------------ reference holds and embedding search
#
# The loops that the backtracking ``algebra.holds`` and
# ``algebra.search_embedding`` replaced: every assignment in product
# order with every term evaluated, and every extension of the mapping
# re-checking every entry of p whose elements are all mapped.  Verdicts,
# witnesses and first mappings must match exactly.


def reference_holds(algebra: FinitePartialAlgebra, sentence: HornSentence) -> SatisfactionVerdict:
    """Dom-relative satisfaction by listing all |A|^k assignments."""
    cells, base = algebra._layout
    size = len(algebra.carrier)
    programs = [_compile(t, sentence.vars, base) for t in sentence.all_terms()]
    n_ante = len(sentence.antecedents)
    for env in itertools.product(range(size), repeat=len(sentence.vars)):
        values = []
        for prog in programs:
            v = _eval(prog, env, cells, size)
            if v < 0:
                break  # outside the sentence's domain
            values.append(v)
        else:
            if any(values[2 * i] != values[2 * i + 1] for i in range(n_ante)):
                continue  # some antecedent is false
            if sentence.consequent is FALSUM or values[-2] != values[-1]:
                witness = {n: algebra.carrier[e] for n, e in zip(sentence.vars, env)}
                return SatisfactionVerdict(False, witness)
    return SatisfactionVerdict(True)


def reference_search_embedding(p: FinitePartialAlgebra, q: FinitePartialAlgebra):
    """First embedding of p into q by recursive extension, re-checking
    every fully mapped entry of p after each step."""
    if set(p.signature) - set(q.signature):
        raise ValueError("embedding needs p's signature inside q's")
    entries = list(p.defined_entries())
    mapping: dict = {}

    def consistent() -> bool:
        for op, args, value in entries:
            if value not in mapping or any(a not in mapping for a in args):
                continue
            target = q.tables.get(op, {}).get(tuple(mapping[a] for a in args))
            if target is None or target != mapping[value]:
                return False
        return True

    def extend(i: int):
        if i == len(p.carrier):
            yield dict(mapping)
            return
        element = p.carrier[i]
        for target in q.carrier:
            if target in mapping.values():
                continue
            mapping[element] = target
            if consistent():
                yield from extend(i + 1)
            del mapping[element]

    return next(extend(0), None)


# ------------------------------------------------ reference normalizer
#
# The recursive normalizer that ``polynomial.normalize``'s single
# post-order walk replaced: one ``MultilinearPoly`` per node, combined
# by the class's operators, then widened by a separate variable walk.
# The differential tests hold ``vars``, the coefficient insertion order
# and the printed form equal.


def _ref_normalize(t: Term) -> MultilinearPoly:
    if isinstance(t, Var):
        return MultilinearPoly.variable(t.name)
    if isinstance(t, IntLit):
        return MultilinearPoly.const(t.value)
    if isinstance(t, Add):
        return _ref_normalize(t.left) + _ref_normalize(t.right)
    if isinstance(t, Sub):
        return _ref_normalize(t.left) - _ref_normalize(t.right)
    if isinstance(t, Mul):
        return _ref_normalize(t.left) * _ref_normalize(t.right)
    raise TypeError(f"not a term: {t!r}")


def with_vars(p: MultilinearPoly, extra) -> MultilinearPoly:
    """p with ``extra`` added to its vars."""
    return MultilinearPoly(set(p.vars) | set(extra), p.coeffs)


def reference_normalize(t: Term) -> MultilinearPoly:
    return with_vars(_ref_normalize(t), variables(t))


# -------------------------------------------------- reference term walks
#
# The recursive walks that ``terms.fold``, the pairwise loop of
# ``_Binary.__eq__`` and the one descent of ``DeltaIdempotence``
# replaced, and ``algebra._compile`` as it was before it became a fold:
# it checks each operation before its operands, so it reports the first
# unknown symbol in pre-order.  The differential tests hold the results
# equal, and the compiled programs tuple-identical.


def reference_equal(a, b) -> bool:
    """The tuple-form equality of the term nodes: same kind, then equal
    fields, the left operand compared first."""
    if a.__class__ is not b.__class__:
        return False
    if isinstance(a, (Add, Sub, Mul)):
        return reference_equal(a.left, b.left) and reference_equal(a.right, b.right)
    return a == b


def reference_substitute(t: Term, mapping: dict) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Add, Sub, Mul)):
        return type(t)(reference_substitute(t.left, mapping), reference_substitute(t.right, mapping))
    return t


def reference_count_var(t: Term, name: str) -> int:
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, (Add, Sub, Mul)):
        return reference_count_var(t.left, name) + reference_count_var(t.right, name)
    return 0


def reference_replaced_once(t: Term, pattern: Term, replacement: Term):
    """Every term obtained from t by rewriting one occurrence of
    ``pattern`` to ``replacement``."""
    if reference_equal(t, pattern):
        yield replacement
    if isinstance(t, (Add, Sub, Mul)):
        for left in reference_replaced_once(t.left, pattern, replacement):
            yield type(t)(left, t.right)
        for right in reference_replaced_once(t.right, pattern, replacement):
            yield type(t)(t.left, right)


def _rp_add(p: dict, q: dict) -> dict:
    """The sum of two free-ring normal forms, by a copy of the loop that
    ``ring_normalize`` ran before its sums shared ``polynomial._fold``."""
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def reference_ring_normalize(t: Term) -> dict:
    if isinstance(t, Var):
        return {((t.name, 1),): 1}
    if isinstance(t, IntLit):
        return {(): t.value} if t.value else {}
    if isinstance(t, Add):
        return _rp_add(reference_ring_normalize(t.left), reference_ring_normalize(t.right))
    if isinstance(t, Sub):
        neg = {m: -c for m, c in reference_ring_normalize(t.right).items()}
        return _rp_add(reference_ring_normalize(t.left), neg)
    if isinstance(t, Mul):
        return _rp_mul(reference_ring_normalize(t.left), reference_ring_normalize(t.right))
    raise TypeError(f"not a term: {t!r}")


def reference_compile(t: Term, names: tuple, base: dict, max_sum: int | None = None):
    position = {name: i for i, name in enumerate(names, 1)}
    prog: list = []
    operands: list = []

    def emit(ins) -> int:
        prog.append(ins)
        return len(names) + len(prog)

    todo: list = [(t, False)]
    while todo:
        node, children_done = todo.pop()
        if isinstance(node, Var):
            if node.name not in position:
                raise UnknownSymbolError(f"unbound variable {node.name!r}")
            operands.append(position[node.name])
        elif isinstance(node, IntLit):
            name = str(node.value)
            if max_sum is not None and node.value > 1:
                if node.value > max_sum:
                    raise CapExceeded(
                        f"integer literal {node.value} exceeds the limit of {max_sum}"
                    )
                unit = acc = emit((base["1"], 0, 0))
                for _ in range(node.value - 1):
                    acc = emit((base["+"], acc, unit))
                operands.append(acc)
            elif name in base or node.value > 1:
                operands.append(emit((base.get(name, _NOWHERE), 0, 0)))
            else:
                raise UnknownSymbolError(f"no constant {name!r} in the signature")
        elif children_done:
            y = operands.pop()
            x = operands.pop()
            operands.append(emit((base[_OP_NAMES[type(node)]], x, y)))
        else:
            op = _OP_NAMES.get(type(node))
            if op is None:
                raise TypeError(f"not a term: {node!r}")
            if op not in base:
                raise UnknownSymbolError(f"no operation {op!r} in the signature")
            todo.append((node, True))
            todo.append((node.right, False))
            todo.append((node.left, False))
    return tuple(prog) if prog else operands[0]


# ------------------------------------ reference vertex reconstruction
#
# The dict-per-vertex ``boole_oracle`` and the constituent-sum
# ``unexpand``, which the split tree and the joins of ``unexpand`` must
# match exactly, down to the witness's key order; the two-pass and the
# one-walk ``certify_consequence`` that the split tree replaced, whose
# multiplier it must keep; and the per-vertex "first unit + restrict"
# construction whose certificates it must build exactly.


def _ref_pooled_differences(premisses, conclusion):
    diffs = [equation_difference(eq) for eq in premisses]
    f = equation_difference(conclusion)
    pool = set(f.vars)
    for g in diffs:
        pool.update(g.vars)
    return tuple(sorted(pool)), f, diffs


def reference_boole_oracle(premisses, conclusion) -> OracleVerdict:
    """Every vertex tuple in lexicographic order, a {name: bit} dict for
    each, and ``MultilinearPoly.evaluate`` on every difference."""
    names, f, diffs = _ref_pooled_differences(premisses, conclusion)
    for v in itertools.product((0, 1), repeat=len(names)):
        a = dict(zip(names, v))
        if all(g.evaluate(a) == 0 for g in diffs) and f.evaluate(a) != 0:
            return OracleVerdict(False, a)
    return OracleVerdict(True)


def reference_expand(p: MultilinearPoly) -> dict:
    """{vertex tuple: value} of p over p.vars, by ``evaluate``."""
    return {
        v: p.evaluate(dict(zip(p.vars, v)))
        for v in itertools.product((0, 1), repeat=len(p.vars))
    }


def _ref_constituent(var_names, vertex) -> MultilinearPoly:
    p = MultilinearPoly.const(1, var_names)
    for name, bit in zip(var_names, vertex):
        x = MultilinearPoly.variable(name)
        p = p * (x if bit else (1 - x))
    return p


def reference_unexpand(e: ConstituentExpansion) -> MultilinearPoly:
    """The coefficient-weighted sum of constituent indicator products."""
    p = MultilinearPoly((), {})
    for v in e.vertices():
        c = e.coeff_at[v]
        if c:
            p = p + c * _ref_constituent(e.vars, v)
    return with_vars(p, e.vars)


def reference_certify_consequence(premisses, conclusion, max_vars: int = 20):
    """Oracle first, then every difference at every vertex, Bezout
    cofactor values and the constituent-sum rebuild."""
    names, f, diffs = _ref_pooled_differences(premisses, conclusion)
    check_var_cap(names, max_vars)
    if not reference_boole_oracle(premisses, conclusion).valid:
        return None
    grid = list(itertools.product((0, 1), repeat=len(names)))
    per_vertex = {}
    n = 1
    for v in grid:
        a = dict(zip(names, v))
        gvals = [g.evaluate(a) for g in diffs]
        fval = f.evaluate(a)
        per_vertex[v] = (fval, gvals)
        if fval != 0:
            d = math.gcd(*gvals) if gvals else 0
            n = math.lcm(n, d // math.gcd(d, fval))
    cofactor_values = [dict() for _ in diffs]
    for v in grid:
        fval, gvals = per_vertex[v]
        if fval == 0:
            for table in cofactor_values:
                table[v] = 0
            continue
        d, coeffs = _bezout(gvals)
        scale = n * fval // d
        for table, c in zip(cofactor_values, coeffs):
            table[v] = c * scale
    cofactors = tuple(
        reference_unexpand(ConstituentExpansion(names, table))
        for table in cofactor_values
    )
    return Certificate(n, cofactors)


def vertex_walk_certify_consequence(premisses, conclusion, max_vars: int = 20):
    """The one-walk certify that the split tree replaced: the
    conclusion difference at every vertex index, the premiss
    differences where it is nonzero, Bezout cofactor values there (all
    the weight on the last unit) and the Moebius transform of each
    cofactor's 2^m values.  Its multiplier n is the one the split tree
    must keep."""
    names, f, gs = _differences(premisses, conclusion, max_vars)
    fterms, *gterms = [terms.items() for terms in _bit_terms(names, [f, *gs])]
    support = []
    n = 1
    for i in range(1 << len(names)):
        fval = sum(c for k, c in fterms if i & k == k)
        if fval == 0:
            continue
        gvals = [sum(c for k, c in terms if i & k == k) for terms in gterms]
        d = math.gcd(*gvals)
        if d == 0:
            return None
        n = math.lcm(n, d // math.gcd(d, fval))
        support.append((i, fval, gvals))
    cofactor_values = [[0] * (1 << len(names)) for _ in gs]
    for i, fval, gvals in support:
        d, coeffs = _bezout(gvals)
        scale = n * fval // d
        for values, c in zip(cofactor_values, coeffs):
            values[i] = c * scale
    monos = _Monomials(names)
    cofactors = []
    for values in cofactor_values:
        # the Moebius transform in place, one pass per bit: values[i]
        # ends as the coefficient of monos[i]
        bit = 1
        while bit < len(values):
            for i in range(len(values)):
                if i & bit:
                    values[i] -= values[i ^ bit]
            bit <<= 1
        cofactors.append(MultilinearPoly(names, {monos[i]: c for i, c in enumerate(values) if c}))
    return Certificate(n, tuple(cofactors))


def _ref_restrict(var_names, pinned):
    """Rebuild one cofactor from its {vertex tuple: value or None}
    table, splitting on var_names[0] first: a free half (None) takes
    the other half, equal halves drop the variable, and otherwise
    p = a + x*(b - a)."""
    if not var_names:
        value = pinned[()]
        return None if value is None else MultilinearPoly.const(value)
    a, b = (
        _ref_restrict(var_names[1:], {v[1:]: c for v, c in pinned.items() if v[0] == bit})
        for bit in (0, 1)
    )
    if a is None:
        return b
    if b is None or a == b:
        return a
    return a + MultilinearPoly.variable(var_names[0]) * (b - a)


def reference_first_unit_certificate(premisses, conclusion):
    """The certificate the split tree must build, vertex by vertex: n
    as in ``reference_certify_consequence``; at a vertex where the
    conclusion difference f is nonzero, the first premiss value of 1
    or -1 takes n*f/g and the others 0, or without one the Bezout
    coefficients scaled by n*f/d; where f is 0 every cofactor is 0.  A
    cofactor is free wherever its premiss value is 0, and each is
    rebuilt by ``_ref_restrict``."""
    names, f, diffs = _ref_pooled_differences(premisses, conclusion)
    if not reference_boole_oracle(premisses, conclusion).valid:
        return None
    n = 1
    pinned = [{} for _ in diffs]
    rows = []
    for v in itertools.product((0, 1), repeat=len(names)):
        a = dict(zip(names, v))
        gvals = [g.evaluate(a) for g in diffs]
        fval = f.evaluate(a)
        if fval:
            d = math.gcd(*gvals)
            n = math.lcm(n, d // math.gcd(d, fval))
        rows.append((v, fval, gvals))
    for v, fval, gvals in rows:
        units = [j for j, g in enumerate(gvals) if g in (1, -1)]
        if units:
            values = [0] * len(gvals)
            values[units[0]] = n * fval * gvals[units[0]]
        elif fval:
            d, coeffs = _bezout(gvals)
            values = [c * (n * fval // d) for c in coeffs]
        else:
            values = [0] * len(gvals)
        for table, g, value in zip(pinned, gvals, values):
            table[v] = value if g else None
    cofactors = []
    for table in pinned:
        p = _ref_restrict(names, table)
        cofactors.append(MultilinearPoly(names, p.coeffs if p is not None else {}))
    return Certificate(n, tuple(cofactors))


# ------------------------------------------------ reference parser
#
# The character loop, recursive-descent parser and printer that the
# one-scan ``terms._tokenize``, the explicit-stack ``terms.parse`` and
# ``terms.pretty`` replaced.  On every text both tokenizers must give
# the same tokens and both parsers equal trees, or both raise the same
# ParseError message at the same position, and both printers must print
# the same string.

_REF_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[-+*()]")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _REF_TOKEN_RE.match(text, i)
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


class _RefParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
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


def reference_parse(text: str) -> Term:
    return _RefParser(text).parse()


def _ref_render(t: Term, level: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    if isinstance(t, Mul):
        s = f"{_ref_render(t.left, 1)}*{_ref_render(t.right, 2)}"
        return f"({s})" if level > 1 else s
    op = "+" if isinstance(t, Add) else "-"
    s = f"{_ref_render(t.left, 0)} {op} {_ref_render(t.right, 1)}"
    return f"({s})" if level > 0 else s


def reference_pretty(t: Term) -> str:
    return _ref_render(t, 0)


# ------------------------------------------------ reference value classes
#
# The frozen dataclasses that the hand-written term nodes and the
# ``errors.Value`` classes replaced, under the names they had, so that
# repr, hash, equality and construction errors can be compared exactly.


@dataclasses.dataclass(frozen=True)
class reference_Var:
    __qualname__ = "Var"
    name: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"bad variable name {self.name!r}")


@dataclasses.dataclass(frozen=True)
class reference_IntLit:
    __qualname__ = "IntLit"
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("integer literals are nonnegative; write 0 - t")


@dataclasses.dataclass(frozen=True)
class reference_Add:
    __qualname__ = "Add"
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class reference_Sub:
    __qualname__ = "Sub"
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class reference_Mul:
    __qualname__ = "Mul"
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class reference_OracleVerdict:
    __qualname__ = "OracleVerdict"
    valid: bool
    witness: dict | None = None


@dataclasses.dataclass(frozen=True)
class reference_Certificate:
    __qualname__ = "Certificate"
    n: int
    cofactors: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("certificate multiplier must be at least 1")


_REFERENCE_BINARY = {
    Add: reference_Add,
    Sub: reference_Sub,
    Mul: reference_Mul,
}


def reference_term(t: Term):
    """The same tree built from the reference dataclass nodes."""
    if isinstance(t, Var):
        return reference_Var(t.name)
    if isinstance(t, IntLit):
        return reference_IntLit(t.value)
    return _REFERENCE_BINARY[type(t)](reference_term(t.left), reference_term(t.right))
