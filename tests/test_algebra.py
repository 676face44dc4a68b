"""Partial-algebra evaluation, satisfaction, subalgebras, embeddings."""

import itertools
import random
import re
import sys
from collections import Counter

import pytest

from boolelab.algebra import (
    CheckVerdict,
    FinitePartialAlgebra,
    UNDEFINED,
    UnknownSymbolError,
    _compile,
    check_embedding,
    eval_term,
    format_algebra,
    holds,
    is_weak_subalgebra,
    parse_algebra,
    presentation,
    search_embedding,
)
from boolelab.classes import build_pu, semantic_consequence
from boolelab.counterexamples import intro_algebra, max_algebra, xor_algebra
from boolelab.errors import CapExceeded
from boolelab.horn import FALSUM, HornSentence, horn_sentence, identity
from boolelab.models import hailperin_laws, search_total_model
from boolelab.terms import Add, IntLit, Mul, Sub, Var, parse
from helpers import (
    random_plus_sentence,
    random_term,
    reference_compile,
    reference_eval_term,
    reference_holds,
    reference_search_embedding,
    small_algebras,
)

x, y = Var("x"), Var("y")


def test_eval_defined_entry():
    assert eval_term(intro_algebra(), parse("x + y"), {"x": "1", "y": "1"}) == "1"


def test_eval_undefined_entry():
    assert eval_term(intro_algebra(), parse("x + y"), {"x": "0", "y": "1"}) is UNDEFINED


def test_eval_nested_defined():
    assert eval_term(intro_algebra(), parse("x + (y + y)"), {"x": "0", "y": "0"}) == "0"


def test_eval_strict_propagation():
    # the defined outer entry cannot rescue an undefined inner sum
    t = parse("(x + y) + x")
    assert eval_term(intro_algebra(), t, {"x": "0", "y": "1"}) is UNDEFINED


def test_eval_unknown_symbols():
    with pytest.raises(UnknownSymbolError):
        eval_term(intro_algebra(), parse("x"), {})
    with pytest.raises(UnknownSymbolError):
        eval_term(intro_algebra(), parse("x*y"), {"x": "0", "y": "0"})
    with pytest.raises(UnknownSymbolError):
        eval_term(intro_algebra(), parse("0"), {})


def test_eval_large_literal_is_undefined_without_table():
    # 2 is sugar, not a signature constant, so it simply fails to denote
    assert eval_term(intro_algebra(), IntLit(2), {}) is UNDEFINED


def test_eval_term_reuses_programs_with_the_same_errors():
    # the checks of the assignment run on every call, and a term that
    # fails to compile fails on every call
    algebra = intro_algebra()
    t = parse("(x + y) + x")
    for values in itertools.product(algebra.carrier, repeat=2):
        assignment = dict(zip("xy", values))
        assert eval_term(algebra, t, assignment) == reference_eval_term(algebra, t, assignment)
    twin = parse("(x + y) + x")
    assert eval_term(algebra, twin, {"x": "1", "y": "1"}) == "1"
    with pytest.raises(UnknownSymbolError, match="unbound variable 'y'"):
        eval_term(algebra, t, {"x": "0"})
    with pytest.raises(ValueError, match="outside the carrier"):
        eval_term(algebra, t, {"x": "0", "y": "7"})
    for _ in range(2):
        with pytest.raises(UnknownSymbolError, match="no operation"):
            eval_term(algebra, parse("x*y"), {"x": "0", "y": "0"})
    sums = [x]
    for _ in range(200):
        sums.append(Add(sums[-1], x))
    for s in sums:
        assert eval_term(algebra, s, {"x": "1"}) == "1"


def test_unknown_symbols_raise_before_evaluation():
    # the sum is undefined at (0, 1), so evaluation never reaches the
    # missing constant or product; compiling the term still rejects it
    t = Add(Add(x, y), IntLit(0))
    assert reference_eval_term(intro_algebra(), t, {"x": "0", "y": "1"}) is UNDEFINED
    with pytest.raises(UnknownSymbolError):
        eval_term(intro_algebra(), t, {"x": "0", "y": "1"})
    # the first term is never defined, so no assignment reaches x*y
    with pytest.raises(UnknownSymbolError):
        holds(intro_algebra(), identity(IntLit(2), parse("x*y")))


def _random_symbol_term(rng, names, depth, ops, literals):
    if depth <= 1 or not ops or rng.random() < 0.25:
        if rng.random() < 0.3:
            return IntLit(rng.choice(literals))
        return Var(rng.choice(names))
    return rng.choice(ops)(
        _random_symbol_term(rng, names, depth - 1, ops, literals),
        _random_symbol_term(rng, names, depth - 1, ops, literals),
    )


def _random_algebra(rng):
    """A partial algebra over the term symbols and an operation f that no
    term uses, declared at a random arity."""
    carrier = ("a", "b", "c")[: rng.randint(1, 3)]
    signature = []
    tables = {}
    for op in ("+", "-", "*", "0", "1", "2", "3", "f"):
        if rng.random() < 0.2:
            continue  # the symbol is unknown
        k = rng.choice((0, 1, 2)) if op == "f" else (2 if op in "+-*" else 0)
        signature.append((op, k))
        tables[op] = {
            args: rng.choice(carrier)
            for args in itertools.product(carrier, repeat=k)
            if rng.random() < 0.7
        }
    return FinitePartialAlgebra(carrier, tuple(signature), tables)


def _symbols(algebra):
    known = {op for op, _ in algebra.signature}
    ops = [op for op, name in ((Add, "+"), (Sub, "-"), (Mul, "*")) if name in known]
    literals = [n for n in (0, 1) if str(n) in known] + [2, 3, 4]
    return ops, literals


def test_eval_term_matches_reference_evaluator():
    """Compiled evaluation against the recursive reference, on terms
    whose symbols are all in the signature: the same element or
    UNDEFINED under every assignment.  Literals 2..4 with no constant of
    their name must be UNDEFINED in both."""
    rng = random.Random(20240611)
    algebras = [(a, [Add], [2, 3]) for a in small_algebras()]
    algebras.append((intro_algebra(), [Add], [2, 3]))
    for _ in range(60):
        a = _random_algebra(rng)
        algebras.append((a, *_symbols(a)))
    compared = defined = 0
    for algebra, ops, literals in algebras:
        for _ in range(12):
            t = _random_symbol_term(rng, ("x", "y"), 4, ops, literals)
            for values in itertools.product(algebra.carrier, repeat=2):
                assignment = {"x": values[0], "y": values[1]}
                expected = reference_eval_term(algebra, t, assignment)
                assert eval_term(algebra, t, assignment) == expected, (algebra, t, assignment)
                compared += 1
                defined += expected is not UNDEFINED
    assert compared > 5000
    assert 0 < defined < compared


@pytest.mark.parametrize(
    "text",
    ["x*y", "0", "0 + x", "1", "x - y", "(x + x)*y"],
)
def test_unknown_symbols_raise_in_both_evaluators(text):
    t = parse(text)
    assignment = {"x": "0", "y": "0"}
    with pytest.raises(UnknownSymbolError):
        reference_eval_term(intro_algebra(), t, assignment)
    with pytest.raises(UnknownSymbolError):
        eval_term(intro_algebra(), t, assignment)


def _compiled(t, names, base, max_sum, compile_):
    try:
        return compile_(t, names, base, max_sum)
    except (UnknownSymbolError, CapExceeded) as exc:
        return exc


def test_compile_matches_the_pre_order_reference():
    """The fold's programs are tuple-identical to the replaced walk's on
    the 85 small algebras and on random ones, with and without
    ``max_sum``.  Terms use every operation and literal, so some symbols
    are unknown; the fold reports the first unknown symbol in
    post-order, so where the reference names an operation the fold may
    name a symbol inside its operands, or a literal over ``max_sum``.
    A literal over ``max_sum`` that the reference reaches first is the
    first in post-order too."""
    rng = random.Random(20261022)
    algebras = small_algebras() + [_random_algebra(rng) for _ in range(60)]
    programs = errors = 0
    for algebra in algebras:
        base = algebra._layout[1]
        sums = (None, 3) if {"1", "+"} <= base.keys() else (None,)
        for max_sum in sums:
            for _ in range(12):
                t = _random_symbol_term(rng, ("x", "y", "z"), 4, [Add, Sub, Mul], [0, 1, 2, 3, 4])
                names = ("x", "y", "z")[: rng.choice((2, 3, 3))]
                got = _compiled(t, names, base, max_sum, _compile)
                want = _compiled(t, names, base, max_sum, reference_compile)
                if isinstance(want, Exception):
                    errors += 1
                    if isinstance(want, CapExceeded):
                        assert isinstance(got, CapExceeded) and str(got) == str(want)
                    else:
                        assert isinstance(got, (UnknownSymbolError, CapExceeded)), (t, got)
                else:
                    assert type(got) is type(want) and got == want, (algebra, t)
                    programs += 1
    assert programs > 300 and errors > 300


def test_first_unknown_symbol_in_post_order_is_reported():
    # neither '+' nor '0': the constant, an operand, is reported before
    # the sum that holds it (the pre-order walk named '+')
    algebra = FinitePartialAlgebra(("a",), (("*", 2),), {"*": {}})
    t = parse("0 + x")
    with pytest.raises(UnknownSymbolError, match="^no constant '0' in the signature$"):
        eval_term(algebra, t, {"x": "a"})
    with pytest.raises(UnknownSymbolError, match="^no operation '[+]' in the signature$"):
        reference_compile(t, ("x",), algebra._layout[1])


def test_deep_term_needs_no_recursion():
    # 5000 nested sums and products, built without the parser, far past
    # the interpreter's recursion limit
    t = x
    for i in range(5000):
        t = Add(t, x) if i % 2 else Mul(x, t)
    assert eval_term(build_pu(2).algebra, t, {"x": "{0}"}) is UNDEFINED
    assert eval_term(build_pu(2).algebra, t, {"x": "{}"}) == "{}"
    sums = x
    for _ in range(5000):
        sums = Add(sums, x)
    assert eval_term(intro_algebra(), sums, {"x": "1"}) == "1"
    assert holds(intro_algebra(), identity(sums, x)).holds
    products = x
    for _ in range(5000):
        products = Mul(x, products)
    assert semantic_consequence((), (products, x), max_n=2).valid
    model = search_total_model([identity(sums, x)], 1)
    assert model is not None and model.tables["+"] == {("e0", "e0"): "e0"}


def test_holds_absorbing_laws():
    assert holds(intro_algebra(), identity(parse("x + y"), x)).holds
    assert holds(intro_algebra(), identity(parse("x + y"), y)).holds


def test_holds_collapse_fails():
    verdict = holds(intro_algebra(), identity(x, y))
    assert not verdict.holds
    assert verdict.witness == {"x": "0", "y": "1"}


def test_holds_idempotence():
    assert holds(intro_algebra(), identity(parse("x + x"), x)).holds


def test_domain_includes_consequent_terms():
    pu = build_pu(1).algebra
    # x = 1 -> x + x = x: the only assignment keeping x + x defined is
    # the empty class, where the antecedent is false
    guarded = horn_sentence(
        ((x, parse("1")),), (parse("x + x"), x), vars=("x",)
    )
    assert holds(pu, guarded).holds
    # with a total consequent the same antecedent bites
    bare = horn_sentence(((x, parse("1")),), (x, parse("0")), vars=("x",))
    verdict = holds(pu, bare)
    assert not verdict.holds
    assert verdict.witness == {"x": "{0}"}


def same_verdict(algebra, sentence):
    got = holds(algebra, sentence)
    expected = reference_holds(algebra, sentence)
    assert (got.holds, got.witness) == (expected.holds, expected.witness), (
        format_algebra(algebra),
        str(sentence),
    )
    return got.holds


def test_holds_matches_reference_on_small_algebras():
    """The backtracking search against the full assignment loop: the
    same verdict and least witness for seeded one-operation sentences,
    with antecedents and with a falsum consequent."""
    rng = random.Random(1975)
    outcomes = Counter()
    for algebra in small_algebras():
        for _ in range(12):
            sentence = random_plus_sentence(rng)
            outcomes[same_verdict(algebra, sentence)] += 1
            antecedents = sentence.antecedents or (sentence.consequent,)
            negative = HornSentence(sentence.vars, antecedents, FALSUM)
            outcomes["falsum", same_verdict(algebra, negative)] += 1
    assert all(outcomes[key] > 50 for key in (True, False, ("falsum", True), ("falsum", False)))


def test_holds_matches_reference_on_hailperin_laws():
    # every ring law holds where it is defined in the class algebras
    for n in (1, 2, 3):
        pu = build_pu(n).algebra
        assert all(same_verdict(pu, law) for law in hailperin_laws())


_RING_SIGNATURE = (("+", 2), ("-", 2), ("*", 2), ("0", 0), ("1", 0))


def _ring_algebra(rng: random.Random, names=("a", "b", "c", "d")) -> FinitePartialAlgebra:
    """A partial algebra in the ring signature on 1 to 4 of ``names``:
    each table is absent, empty, total or defined at random cells, so
    constants may be undefined too."""
    carrier = tuple(rng.sample(names, rng.randint(1, len(names))))
    tables = {}
    for op, k in _RING_SIGNATURE:
        shape = rng.random()
        if shape < 0.1:
            continue  # no table at all
        density = 0.0 if shape < 0.2 else 1.0 if shape < 0.3 else rng.random()
        tables[op] = {
            args: rng.choice(carrier)
            for args in itertools.product(carrier, repeat=k)
            if rng.random() < density
        }
    return FinitePartialAlgebra(carrier, _RING_SIGNATURE, tables)


def _subalgebra_of(rng: random.Random, q: FinitePartialAlgebra) -> FinitePartialAlgebra:
    """A partial algebra that embeds into q: q restricted to a random
    subset of its carrier, with some entries dropped and the elements
    renamed and listed in a random order."""
    kept = rng.sample(q.carrier, rng.randint(1, len(q.carrier)))
    rename = {e: f"p{i}" for i, e in enumerate(kept)}
    tables = {
        op: {
            tuple(rename[a] for a in args): rename[v]
            for args, v in table.items()
            if v in rename and all(a in rename for a in args) and rng.random() < 0.8
        }
        for op, table in q.tables.items()
    }
    return FinitePartialAlgebra(tuple(rename[e] for e in kept), q.signature, tables)


def test_holds_matches_reference_on_random_algebras():
    """Up to four elements, constants that may be undefined, absent and
    empty tables, and ring terms with literals that read no table."""
    rng = random.Random(1976)
    outcomes = set()
    for _ in range(400):
        algebra = _ring_algebra(rng)
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        def equation():
            return (random_term(rng, names, 3), random_term(rng, names, 2))
        antecedents = tuple(equation() for _ in range(rng.randint(0, 2)))
        consequent = FALSUM if antecedents and rng.random() < 0.2 else equation()
        sentence = horn_sentence(antecedents, consequent, vars=names)
        outcomes.add(same_verdict(algebra, sentence))
    assert outcomes == {True, False}


def test_holds_without_variables():
    pu = build_pu(1).algebra
    assert holds(pu, identity(parse("1*1"), parse("1"))).holds
    verdict = holds(pu, identity(parse("1"), parse("0")))
    assert (verdict.holds, verdict.witness) == (False, {})
    # undefined ground terms leave the sentence nothing to judge
    assert holds(pu, identity(parse("1 + 1"), parse("0"))).holds


def test_search_embedding_matches_reference_on_small_algebras():
    """Every ordered pair of the 85 small algebras: the same first
    mapping, or None for both."""
    algebras = small_algebras()
    found = 0
    for p in algebras:
        for q in algebras:
            mapping = search_embedding(p, q)
            assert mapping == reference_search_embedding(p, q), (p, q)
            if mapping is not None:
                assert list(mapping) == list(p.carrier)
                assert check_embedding(p, q, mapping).ok
                found += 1
    assert found > 847


def test_search_embedding_matches_reference_on_random_algebras():
    rng = random.Random(1976)
    found = 0
    for _ in range(600):
        q = _ring_algebra(rng)
        p = _subalgebra_of(rng, q) if rng.random() < 0.7 else _ring_algebra(rng)
        mapping = search_embedding(p, q)
        assert mapping == reference_search_embedding(p, q), (format_algebra(p), format_algebra(q))
        if mapping is not None:
            assert check_embedding(p, q, mapping).ok
            found += 1
    assert 200 < found < 600


def test_search_embedding_reads_q_as_given():
    # q interprets a symbol p lacks, and has no table for one p has
    p = FinitePartialAlgebra(("a",), (("c", 0),), {})
    q = FinitePartialAlgebra(("u", "v"), (("c", 0), ("f", 1)), {"f": {("u",): "v"}})
    assert search_embedding(p, q) == {"a": "u"}
    p1 = FinitePartialAlgebra(("a",), (("c", 0),), {"c": {(): "a"}})
    assert search_embedding(p1, q) is None
    assert search_embedding(p1, FinitePartialAlgebra(("u", "v"), (("c", 0),), {"c": {(): "v"}})) == {"a": "v"}


def test_weak_subalgebra_reflexive():
    assert is_weak_subalgebra(intro_algebra(), intro_algebra()).ok


def test_weak_subalgebra_into_max():
    assert is_weak_subalgebra(intro_algebra(), max_algebra()).ok


def test_weak_subalgebra_not_into_xor():
    verdict = is_weak_subalgebra(intro_algebra(), xor_algebra())
    assert not verdict.ok
    assert "('1', '1')" in verdict.reason


def test_weak_subalgebra_names_extra_carrier_elements():
    wider = FinitePartialAlgebra(("0", "1", "2"), (("+", 2),), {"+": {}})
    verdict = is_weak_subalgebra(wider, intro_algebra())
    assert verdict == CheckVerdict(False, "carrier elements ['2'] are not in the larger algebra")


def test_weak_subalgebra_signature_mismatch():
    with pytest.raises(ValueError):
        is_weak_subalgebra(intro_algebra(), build_pu(1).algebra)


def test_embedding_identity_into_max():
    assert check_embedding(intro_algebra(), max_algebra(), {"0": "0", "1": "1"}).ok


def test_embedding_rejects_non_injective():
    verdict = check_embedding(intro_algebra(), max_algebra(), {"0": "0", "1": "0"})
    assert not verdict.ok
    assert "injective" in verdict.reason


def test_embedding_swap_also_works():
    # both defined entries are fixed points of the swap under max
    assert check_embedding(intro_algebra(), max_algebra(), {"0": "1", "1": "0"}).ok


def test_embedding_requires_total_mapping():
    with pytest.raises(ValueError):
        check_embedding(intro_algebra(), max_algebra(), {"0": "0"})


@pytest.mark.parametrize(
    "p, q, image_of_1, reason",
    [
        (intro_algebra(), max_algebra(), "2", "mapping leaves the target carrier"),
        (max_algebra(), intro_algebra(), "1", "+ is undefined at the image of ('0', '1')"),
        (intro_algebra(), xor_algebra(), "1", "+ at the image of ('1', '1') gives 0, expected 1"),
    ],
    ids=["carrier", "undefined", "value"],
)
def test_embedding_rejection_reasons(p, q, image_of_1, reason):
    verdict = check_embedding(p, q, {"0": "0", "1": image_of_1})
    assert verdict == CheckVerdict(False, reason)


def test_embedding_needs_the_signature_inside_the_target():
    # P(1) interprets -, *, 0 and 1, which intro_algebra lacks
    p = build_pu(1).algebra
    mapping = dict(zip(p.carrier, intro_algebra().carrier))
    with pytest.raises(ValueError, match="embedding needs p's signature inside q's"):
        check_embedding(p, intro_algebra(), mapping)
    with pytest.raises(ValueError, match="embedding needs p's signature inside q's"):
        search_embedding(p, intro_algebra())


def test_search_embedding_finds_identity_first():
    assert search_embedding(intro_algebra(), max_algebra()) == {"0": "0", "1": "1"}


def test_search_embedding_none_into_xor():
    assert search_embedding(intro_algebra(), xor_algebra()) is None


def test_search_embedding_self():
    for algebra in (intro_algebra(), max_algebra(), build_pu(1).algebra):
        mapping = search_embedding(algebra, algebra)
        assert mapping == {e: e for e in algebra.carrier}


def test_presentation_intro():
    pres = presentation(intro_algebra())
    assert pres.diag_plus == (("+", ("0", "0"), "0"), ("+", ("1", "1"), "1"))
    assert pres.distinct == (("0", "1"),)


def test_presentation_single_point():
    one = FinitePartialAlgebra(("e",), (("c", 0),), {"c": {(): "e"}})
    pres = presentation(one)
    assert pres.diag_plus == (("c", (), "e"),)
    assert pres.distinct == ()


def test_presentation_class_algebra_counts():
    pres = presentation(build_pu(1).algebra)
    counts = Counter(op for op, _, _ in pres.diag_plus)
    assert counts == {"+": 3, "-": 3, "*": 4, "0": 1, "1": 1}
    assert pres.distinct == (("{}", "{0}"),)
    assert str(pres).splitlines() == [
        "+({}, {}) = {}",
        "+({}, {0}) = {0}",
        "+({0}, {}) = {0}",
        "-({}, {}) = {}",
        "-({0}, {}) = {0}",
        "-({0}, {0}) = {}",
        "*({}, {}) = {}",
        "*({}, {0}) = {}",
        "*({0}, {}) = {}",
        "*({0}, {0}) = {0}",
        "0 = {}",
        "1 = {0}",
        "{} != {0}",
    ]


def test_weak_subalgebra_is_a_partial_order():
    algebras = small_algebras()
    assert len(algebras) == 85
    related = set()
    for i, p in enumerate(algebras):
        for j, q in enumerate(algebras):
            if set(p.carrier) <= set(q.carrier) and is_weak_subalgebra(p, q).ok:
                related.add((i, j))
    assert len(related) == 847
    for i in range(len(algebras)):
        assert (i, i) in related
    for i, j in related:
        if (j, i) in related:
            assert algebras[i] == algebras[j] or i == j
    for i, j in related:
        for k in range(len(algebras)):
            if (j, k) in related:
                assert (i, k) in related


def test_algebra_file_round_trip():
    for algebra in (intro_algebra(), build_pu(1).algebra, build_pu(2).algebra):
        text = format_algebra(algebra)
        assert parse_algebra(text) == algebra
        assert format_algebra(parse_algebra(text)) == text


def test_algebra_file_shape():
    text = format_algebra(intro_algebra())
    assert text.splitlines()[0] == "carrier: 0 1"
    assert "op +/2:" in text
    assert "1 1 -> 1" in text


def test_constant_blocks_round_trip():
    one = FinitePartialAlgebra(("e",), (("c", 0),), {"c": {(): "e"}})
    text = format_algebra(one)
    assert "-> e" in text
    assert parse_algebra(text) == one


def test_operation_arity_is_a_digit_string():
    for arity in ("+2", "2_0", "\u00b2", "", "x"):
        with pytest.raises(ValueError, match="line 2: malformed operation header"):
            parse_algebra(f"carrier: a\nop f/{arity}:\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("carrier: a\ncarrier: b\n", "line 2: second carrier line"),
        ("carrier: a\na a -> a\n", "line 2: entry before any operation header"),
        ("carrier: a\nop f/2:\na -> a\n", "line 3: entry does not match arity 2"),
        ("carrier: a\nop f/2:\na a -> a\na a -> a\n", "line 4: duplicate entry"),
        ("carrier: a\nop f/2:\nf a a\n", "line 3: unrecognized line 'f a a'"),
        # found only at the end of the file, so no line is named
        ("op c/0:\n-> a\n", "missing carrier line"),
    ],
)
def test_algebra_file_refusals(text, message):
    with pytest.raises(ValueError) as info:
        parse_algebra(text)
    assert str(info.value) == message


def test_operation_arity_over_the_digit_limit_names_its_line():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(CapExceeded) as info:
        parse_algebra(f"carrier: a\nop f/{'9' * (limit + 100)}:\n")
    assert str(info.value) == f"line 2: an integer literal exceeds the limit of {limit} digits"


def test_an_algebra_is_not_equal_to_a_non_algebra():
    p = intro_algebra()
    assert p.__eq__(p.tables) is NotImplemented
    assert p != p.tables


def test_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FinitePartialAlgebra((), (("+", 2),), {})
    with pytest.raises(ValueError):
        FinitePartialAlgebra(("a",), (("+", 2),), {"+": {("a",): "a"}})
    with pytest.raises(ValueError):
        FinitePartialAlgebra(("a",), (("+", 2),), {"+": {("a", "a"): "b"}})
    with pytest.raises(ValueError):
        FinitePartialAlgebra(("a",), (), {"+": {}})
    with pytest.raises(ValueError, match="carrier elements must be distinct"):
        FinitePartialAlgebra(("a", "a"), (), {})
    with pytest.raises(ValueError, match="duplicate operation in signature"):
        FinitePartialAlgebra(("a",), (("c", 0), ("c", 0)), {})


@pytest.mark.parametrize(
    "op, arity, use",
    [("+", 1, 2), ("-", 0, 2), ("*", 3, 2), ("1", 2, 0), ("0", 1, 0), ("12", 2, 0)],
)
def test_a_term_symbol_at_another_arity_is_refused(op, arity, use):
    """Terms read +, - and * as binary and a digit string as a constant,
    so an algebra that declares one otherwise cannot be built."""
    message = f"operation {op!r} has arity {arity}, but terms use it with arity {use}"
    with pytest.raises(ValueError, match=re.escape(message)):
        FinitePartialAlgebra(("a", "b"), ((op, arity),), {op: {("a",) * arity: "b"}})


def test_a_symbol_no_term_uses_takes_any_arity():
    algebra = FinitePartialAlgebra(("a", "b"), (("f", 3), ("c", 2), ("1", 0)), {"1": {(): "b"}})
    assert algebra._layout == ([None, 1], {"1": 1})
    assert holds(algebra, identity(parse("1"), parse("1"))).holds


def test_defined_entries_order():
    entries = list(build_pu(1).algebra.defined_entries())
    ops = [op for op, _, _ in entries]
    assert ops == ["+"] * 3 + ["-"] * 3 + ["*"] * 4 + ["0", "1"]
    plus_args = [args for op, args, _ in entries if op == "+"]
    assert plus_args == [("{}", "{}"), ("{}", "{0}"), ("{0}", "{}")]
