"""Multilinear normal forms, constituent expansion, and the 0/1 oracle."""

import copy
import itertools
import operator
import pickle
import random

import pytest

from boolelab.errors import CapExceeded
from boolelab.polynomial import (
    CONDITIONAL,
    INTERPRETABLE,
    NEVER,
    ConstituentExpansion,
    MultilinearPoly,
    boole_oracle,
    equation_difference,
    expand,
    interpretability,
    normalize,
    pair_cap,
    unexpand,
)
from boolelab.terms import Add, IntLit, Mul, Sub, Var, parse
from helpers import (
    chain_arguments,
    dense_argument,
    eval_int,
    exhaustive_terms,
    random_ground_argument,
    random_term,
    reference_boole_oracle,
    reference_expand,
    reference_normalize,
    reference_unexpand,
)


def nf(text: str) -> MultilinearPoly:
    return normalize(parse(text))


def test_normalize_idempotence():
    assert nf("x*x") == nf("x")
    assert str(nf("x*x")) == "x"


def test_normalize_cancellation():
    p = nf("x - x")
    assert not p.coeffs
    assert str(p) == "0"


def test_normalize_squared_double():
    assert str(nf("(2x)*(2x)")) == "4*x"


def test_normalize_product_of_complements():
    assert str(nf("(1-x)*(1-y)")) == "1 - x - y + x*y"


def test_vars_keep_cancelled_variables():
    # x - x mentions x even though the coefficients vanish
    assert nf("x - x").vars == ("x",)
    assert nf("x - x") == nf("0")


def test_normalize_matches_integer_evaluation():
    leaves = (Var("x"), Var("y"), Var("z"), IntLit(0), IntLit(1))
    for t in exhaustive_terms(leaves, 2):
        p = normalize(t)
        for bits in itertools.product((0, 1), repeat=3):
            env = dict(zip(("x", "y", "z"), bits))
            assert p.evaluate(env) == eval_int(t, env)


def test_normalize_matches_integer_evaluation_random():
    rng = random.Random(88)
    names = ("x", "y", "z")
    for _ in range(300):
        t = random_term(rng, names, rng.randint(1, 4))
        p = normalize(t)
        for bits in itertools.product((0, 1), repeat=3):
            env = dict(zip(names, bits))
            assert p.evaluate(env) == eval_int(t, env)


def test_normalize_matches_recursive_reference():
    """The single post-order walk against the recursive normalizer: the
    same vars, the same coefficient insertion order and the same printed
    form.  Literals up to 3 occur, and each term is also taken minus
    another, with that other added back (its monomials cancel and
    return) and times a zero difference.  A second call on the node
    returns the form the first one kept."""
    rng = random.Random(1854)
    names = ("w", "x", "y", "z")
    for _ in range(1500):
        t = random_term(rng, names, rng.randint(1, 6))
        u = random_term(rng, names, rng.randint(1, 4))
        for term in (t, Sub(t, u), Add(Sub(t, u), u), Mul(u, Sub(t, t))):
            got, want = normalize(term), reference_normalize(term)
            assert normalize(term) is got, term
            assert got.vars == want.vars, term
            assert list(got.coeffs.items()) == list(want.coeffs.items()), term
            assert str(got) == str(want), term


def test_normalize_deep_terms():
    # deeper than the interpreter's recursion limit both ways; a sum
    # folds its right operand into its left one, so the right-nested
    # difference is quadratic and is kept shorter
    names = [f"v{i}" for i in range(5000)]
    left_sum = Var(names[0])
    for name in names[1:]:
        left_sum = Add(left_sum, Var(name))
    p = normalize(left_sum)
    assert p.vars == tuple(sorted(names))
    assert len(p.coeffs) == 5000 and set(p.coeffs.values()) == {1}
    right_diff = Var(names[0])
    for name in names[1:1500]:
        right_diff = Sub(Var(name), right_diff)
    q = normalize(right_diff)
    assert len(q.coeffs) == 1500 and set(q.coeffs.values()) == {1, -1}


def test_normalize_monomial_cap():
    # (v0 + 1)*(v1 + 1): 2 by 2 monomial pairs, then 4 by 2, then 8 by 2
    term = parse("(v0 + 1)*(v1 + 1)*(v2 + 1)*(v3 + 1)")
    assert len(normalize(term, max_pairs=16).coeffs) == 16
    with pytest.raises(CapExceeded, match="16 monomial pairs in one product exceeds the limit of 15"):
        normalize(term, max_pairs=15)
    assert normalize(term) == normalize(term, max_pairs=16)
    # the kept form serves every cap that allows its largest step, and
    # does not get past a smaller one
    kept = normalize(term)
    assert normalize(term) is kept and normalize(term, max_pairs=16) is kept
    with pytest.raises(CapExceeded, match="4 monomial pairs in one product exceeds the limit of 1"):
        normalize(term, max_pairs=1)


def test_pair_cap_stops_at_two_to_the_64():
    assert [pair_cap(k) for k in (1, 4, 20, 64)] == [2, 16, 2**20, 2**64]
    assert pair_cap(65) == pair_cap(10**20) == 2**64
    assert boole_oracle((), (Var("x"), Var("x")), max_vars=10**20).valid


def test_equation_difference_matches_normalized_difference():
    """Built from the two kept side forms, the difference equals the
    walk over Sub(l, r) in vars, coefficient order and printed form,
    whether or not the sides were normalized before, and also when
    every monomial cancels."""
    rng = random.Random(19)
    names = ("w", "x", "y", "z")
    for i in range(1500):
        t = random_term(rng, names, rng.randint(1, 6))
        u = random_term(rng, names, rng.randint(1, 4))
        if i % 2:
            normalize(t)
        for l, r in ((t, u), (u, t), (t, t), (t, Add(IntLit(0), t)), (Sub(t, u), Mul(t, t))):
            got, want = equation_difference((l, r)), normalize(Sub(l, r))
            assert got.vars == want.vars, (l, r)
            assert list(got.coeffs.items()) == list(want.coeffs.items()), (l, r)
            assert str(got) == str(want), (l, r)
    assert str(equation_difference((parse("x*y - x"), parse("x*y*y - x")))) == "0"
    assert equation_difference((parse("x*y - x"), parse("x*y*y - x"))).vars == ("x", "y")


def test_kept_form_is_not_part_of_the_value():
    term = parse("x*(y - 1) + 2")
    form = normalize(term)
    for other in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert other == term and hash(other) == hash(term) and repr(other) == repr(term)
        assert not hasattr(other, "_form")
        assert normalize(other) == form
    with pytest.raises(AttributeError):
        term._form = MultilinearPoly()
    assert normalize(term) is form


def test_constructor_keeps_variables_of_zero_monomials():
    p = MultilinearPoly(("b",), {frozenset(("a",)): 0, frozenset(("c", "b")): 2})
    assert p.vars == ("a", "b", "c")
    assert dict(p.coeffs) == {frozenset(("b", "c")): 2}


def _naive(vars, items) -> MultilinearPoly:
    """The public constructor on the dict that plain accumulation of
    (monomial, coefficient) pairs builds, zeros and all."""
    coeffs = {}
    for mono, c in items:
        coeffs[mono] = coeffs.get(mono, 0) + c
    return MultilinearPoly(vars, coeffs)


def _naive_sum(p, q, sign=1) -> MultilinearPoly:
    items = [*p.coeffs.items(), *((m, sign * c) for m, c in q.coeffs.items())]
    return _naive({*p.vars, *q.vars}, items)


def _random_poly(rng, names) -> MultilinearPoly:
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        coeffs[frozenset(rng.sample(names, rng.randint(0, len(names))))] = rng.randint(-2, 2)
    return MultilinearPoly(rng.sample(names, rng.randint(0, 2)), coeffs)


def assert_same_poly(got, want):
    assert got.vars == want.vars
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert 0 not in got.coeffs.values()


def test_operators_match_the_constructor_on_naive_dicts():
    rng = random.Random(1616)
    names = ("a", "b", "c", "d")
    cancelled = 0
    for _ in range(400):
        p, q, r = (_random_poly(rng, names) for _ in range(3))
        if rng.random() < 0.4:  # q cancels some or all of p
            kept = [(m, -c) for m, c in p.coeffs.items() if rng.random() < 0.7]
            q = _naive(q.vars, [*q.coeffs.items(), *kept] if rng.random() < 0.5 else kept)
        k = rng.randint(-3, 3)
        const = MultilinearPoly.const(k)
        negated = [(m, -c) for m, c in p.coeffs.items()]
        product = [(m1 | m2, c1 * c2) for m1, c1 in p.coeffs.items() for m2, c2 in q.coeffs.items()]
        cases = [
            (p + q, _naive_sum(p, q)),
            (p - q, _naive_sum(p, q, -1)),
            (p - p, _naive(p.vars, ())),
            (p + (-p), _naive(p.vars, ())),
            (p * q, _naive({*p.vars, *q.vars}, product)),
            (-p, _naive(p.vars, negated)),
            (k * p, _naive(p.vars, ((m, k * c) for m, c in p.coeffs.items()))),
            (p * 0, _naive(p.vars, ())),
            (p + k, _naive_sum(p, const)),
            (k - p, _naive(p.vars, [*negated, *const.coeffs.items()])),
            (sum([p, q, r]), _naive_sum(_naive_sum(_naive_sum(MultilinearPoly(), p), q), r)),
        ]
        for got, want in cases:
            assert_same_poly(got, want)
        cancelled += (p + q).is_zero and not p.is_zero
    assert cancelled > 10


def test_int_operands_match_the_constructor_path(monkeypatch):
    """An int on either side of +, - and * gives the vars and the
    coefficients (values, types and insertion order) that the operator
    gives with the int built by the public constructor, and no int
    operand, ``const`` or ``variable`` runs the constructor's pass."""
    rng = random.Random(2702)
    names = ("a", "b", "c", "d")
    forms = [normalize(random_term(rng, names[: rng.randint(1, 4)], rng.randint(1, 4))) for _ in range(200)]
    ints = (0, 1, -1, 2, -7, 10**30, True)
    calls = []  # (function, its arguments, the constructor path's result)
    for p in forms:
        for n in ints:
            c = MultilinearPoly((), {frozenset(): n})
            calls += [
                (operator.add, (p, n), p + c),
                (operator.add, (n, p), p + c),
                (operator.sub, (p, n), p - c),
                (operator.sub, (n, p), -p + c),
                (operator.mul, (p, n), p * c),
                (operator.mul, (n, p), p * c),
                (MultilinearPoly.const, (n, p.vars[::-1] * 2), MultilinearPoly(p.vars, c.coeffs)),
            ]
    for name in names:
        calls.append((MultilinearPoly.variable, (name,), MultilinearPoly((name,), {frozenset(name): 1})))
    monkeypatch.setattr(MultilinearPoly, "__post_init__", lambda self: pytest.fail("the constructor ran"))
    for function, args, want in calls:
        got = function(*args)
        assert got.vars == want.vars
        assert [(m, c, type(c)) for m, c in got.coeffs.items()] == [
            (m, c, type(c)) for m, c in want.coeffs.items()
        ]


def test_normalize_is_a_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        s = random_term(rng, ("x", "y", "z"), rng.randint(1, 3))
        t = random_term(rng, ("x", "y", "z"), rng.randint(1, 3))
        assert normalize(Add(s, t)) == normalize(s) + normalize(t)
        assert normalize(Sub(s, t)) == normalize(s) - normalize(t)
        assert normalize(Mul(s, t)) == normalize(s) * normalize(t)


def test_expand_single_variable():
    e = expand(nf("x"))
    assert dict(e.coeff_at) == {(0,): 0, (1,): 1}


def test_expand_sum():
    e = expand(nf("x + y"))
    assert dict(e.coeff_at) == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def test_expand_difference():
    e = expand(nf("x - y"))
    assert dict(e.coeff_at) == {(0, 0): 0, (0, 1): -1, (1, 0): 1, (1, 1): 0}


def test_unexpand_examples():
    one_var = ConstituentExpansion(("x",), {(1,): 1, (0,): 0})
    assert unexpand(one_var) == nf("x")
    constant = ConstituentExpansion(("x",), {(1,): 1, (0,): 1})
    assert unexpand(constant) == nf("1")
    two_var = ConstituentExpansion(
        ("x", "y"), {(1, 1): 2, (1, 0): 1, (0, 1): 1, (0, 0): 0}
    )
    assert unexpand(two_var) == nf("x + y")


def test_expand_unexpand_inverse_random():
    rng = random.Random(424)
    names = ("x", "y", "z")
    for _ in range(1000):
        coeffs = {}
        for sub in itertools.chain.from_iterable(
            itertools.combinations(names, k) for k in range(4)
        ):
            c = rng.randint(-4, 4)
            if c:
                coeffs[frozenset(sub)] = c
        p = MultilinearPoly(names, coeffs)
        e = expand(p)
        assert unexpand(e) == p
        assert expand(unexpand(e)) == e


def test_expand_unexpand_inverse_sparse_wide():
    """Polynomials of up to 20 random monomials over 10 and 12
    variables come back from their 2^m vertex values."""
    rng = random.Random(1854)
    for m in (10, 12):
        names = tuple(f"v{i:02d}" for i in range(m))
        for _ in range(4):
            monos = {frozenset(rng.sample(names, rng.randint(0, m))) for _ in range(rng.randint(1, 20))}
            p = MultilinearPoly(names, {mono: rng.choice((-3, -1, 1, 2)) for mono in monos})
            q = unexpand(expand(p))
            assert q == p
            assert q.vars == p.vars


def test_unexpand_matches_constituent_sum():
    # variables deliberately out of sorted order: bit k of a vertex
    # belongs to the k-th listed variable, not the k-th in sorted order.
    # The m passes join at one variable each, from the last listed to
    # the first; above m = 6 only a sample of the one-hot tables is
    # checked, to keep the constituent sums cheap.
    rng = random.Random(1937)
    names = ("f", "b", "e", "a", "d", "c", "i", "g", "h")
    checked = 0
    for m in range(10):
        grid = list(itertools.product((0, 1), repeat=m))
        hots = grid if m <= 6 else rng.sample(grid, 24)
        tables = [dict.fromkeys(grid, 0)]
        tables += [{v: rng.choice((-4, -1, 1, 3)) * (v == hot) for v in grid} for hot in hots]
        tables += [{v: rng.randint(-4, 4) for v in grid} for _ in range(12 if m <= 6 else 2)]
        for table in tables:
            e = ConstituentExpansion(names[:m], table)
            got, want = unexpand(e), reference_unexpand(e)
            assert got == want
            assert got.vars == want.vars
            checked += 1
    assert checked == 7 * 13 + 127 + 3 * 27


def test_expand_matches_per_vertex_evaluation():
    """The walk over vertex indices against ``evaluate`` at every vertex
    tuple: equal tables with the same key order, over up to 8 variables
    with and without cancelled ones."""
    rng = random.Random(1847)
    names = ("a", "b", "c", "d", "e", "f", "g", "h")
    for _ in range(200):
        t = random_term(rng, names[: rng.randint(1, 8)], rng.randint(1, 6))
        for p in (normalize(t), normalize(Sub(t, t))):
            got, want = dict(expand(p).coeff_at), reference_expand(p)
            assert list(got.items()) == list(want.items()), t


def assert_same_oracle(premisses, conclusion):
    got = boole_oracle(premisses, conclusion)
    want = reference_boole_oracle(premisses, conclusion)
    assert got.valid == want.valid
    if got.valid:
        assert got.witness is None
    else:
        assert list(got.witness.items()) == list(want.witness.items())
    return got


def test_oracle_matches_dict_walk_reference_random():
    """Verdict, least witness and the witness's key order against the
    walk that builds a dict per vertex tuple."""
    rng = random.Random(1915)
    invalid = 0
    for _ in range(300):
        invalid += not assert_same_oracle(*random_ground_argument(rng)).valid
    assert 30 < invalid < 270


def test_oracle_matches_dict_walk_reference_chains():
    for m in range(2, 11):
        verdicts = [assert_same_oracle(*arg) for arg in chain_arguments(m)]
        assert verdicts[0].valid
        assert verdicts[1].witness == {f"v{i}": int(i == m - 1) for i in range(m)}
        for k, verdict in enumerate(verdicts[2:]):
            assert verdict.witness == {f"v{i}": int(i <= k) for i in range(m)}


def test_oracle_long_chains():
    """The witnesses of the pattern above, which the dict walk shows for
    m <= 10; against the dict walk itself for the valid, the reversed
    and the first and last broken chains."""
    for m in (12, 16):
        args = list(chain_arguments(m))
        verdicts = [boole_oracle(*arg) for arg in args]
        assert verdicts[0].valid
        assert verdicts[1].witness == {f"v{i}": int(i == m - 1) for i in range(m)}
        for k, verdict in enumerate(verdicts[2:]):
            assert verdict.witness == {f"v{i}": int(i <= k) for i in range(m)}
        for arg in args[:3] + args[-1:]:
            assert_same_oracle(*arg)
    # a vertex walk would need 2^40 vertices for the valid chain
    valid, converse = itertools.islice(chain_arguments(40), 2)
    assert boole_oracle(*valid, max_vars=40).valid
    assert boole_oracle(*converse, max_vars=40).witness == {f"v{i}": int(i == 39) for i in range(40)}


def test_oracle_matches_dict_walk_reference_dense():
    rng = random.Random(3141)
    for valid in (True, False) * 6:
        assert assert_same_oracle(*dense_argument(rng, valid)).valid == valid


def test_expansion_requires_all_vertices():
    with pytest.raises(ValueError):
        ConstituentExpansion(("x",), {(1,): 1})
    full = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 2}
    ConstituentExpansion(("x", "y"), full)
    missing = {v: c for v, c in full.items() if v != (1, 0)}
    extra = {**full, (1, 1, 0): 0}
    wrong_length = {**missing, (1,): 0}
    not_a_tuple = {**missing, 2: 0}
    for table in (missing, extra, wrong_length, not_a_tuple):
        with pytest.raises(ValueError):
            ConstituentExpansion(("x", "y"), table)


def test_interpretability_product():
    assert interpretability(nf("x*y")).kind == INTERPRETABLE


def test_interpretability_sum():
    v = interpretability(nf("x + y"))
    assert v.kind == CONDITIONAL
    assert v.bad_vertices == ((1, 1),)


def test_interpretability_difference():
    v = interpretability(nf("x - y"))
    assert v.kind == CONDITIONAL
    assert v.bad_vertices == ((0, 1),)


def test_interpretability_constants():
    assert interpretability(nf("0")).kind == INTERPRETABLE
    assert interpretability(nf("1")).kind == INTERPRETABLE
    assert interpretability(nf("2")).kind == NEVER


def test_oracle_barbara():
    premisses = ((parse("x - x*y"), parse("0")), (parse("y - y*z"), parse("0")))
    verdict = boole_oracle(premisses, (parse("x - x*z"), parse("0")))
    assert verdict.valid
    assert verdict.witness is None


def test_oracle_reflexive():
    assert boole_oracle((), (parse("x - x"), parse("0"))).valid


def test_oracle_identity_for_all_terms():
    rng = random.Random(5)
    for _ in range(50):
        t = random_term(rng, ("x", "y"), rng.randint(1, 4))
        assert boole_oracle((), (t, t)).valid


def test_oracle_collapse_from_absorbing_sums():
    # both premisses vanish only where x = y = 0
    premisses = ((parse("x + y"), parse("x")), (parse("x + y"), parse("y")))
    assert boole_oracle(premisses, (parse("x"), parse("y"))).valid


def test_oracle_invalid_witness_is_least():
    verdict = boole_oracle((), (parse("x"), parse("0")))
    assert not verdict.valid
    assert verdict.witness == {"x": 1}
    verdict = boole_oracle((), (parse("x*y"), parse("1")))
    assert verdict.witness == {"x": 0, "y": 0}


def test_oracle_monotone_under_premisses():
    rng = random.Random(990)
    for _ in range(200):
        names = ("x", "y")
        premisses = tuple(
            (random_term(rng, names, 2), random_term(rng, names, 2))
            for _ in range(rng.randint(0, 2))
        )
        conclusion = (random_term(rng, names, 3), random_term(rng, names, 2))
        if boole_oracle(premisses, conclusion).valid:
            extra = (random_term(rng, names, 2), random_term(rng, names, 2))
            assert boole_oracle(premisses + (extra,), conclusion).valid


def test_oracle_variable_cap():
    terms = [Var(f"v{i}") for i in range(21)]
    total = terms[0]
    for t in terms[1:]:
        total = Add(total, t)
    with pytest.raises(CapExceeded):
        boole_oracle((), (total, IntLit(0)))


def test_poly_equality_ignores_var_order():
    a = normalize(parse("x + y"))
    b = normalize(parse("y + x"))
    assert a == b
    assert hash(a) == hash(b)


def test_poly_operators_refuse_a_foreign_type():
    p = nf("x")
    assert p.__eq__("x") is NotImplemented
    assert p != "x"
    with pytest.raises(TypeError):
        p + "x"
    with pytest.raises(TypeError):
        p * "x"


def test_poly_is_immutable():
    p = nf("x")
    with pytest.raises(AttributeError):
        p.vars = ("y",)
    with pytest.raises(AttributeError):
        del p.vars
    with pytest.raises(AttributeError):
        del p._coeffs
    assert p.vars == ("x",) and dict(p.coeffs) == {frozenset(("x",)): 1}


def test_ordered_monomials_degree_lex():
    p = nf("y + x + x*y + 1")
    names = [sorted(m) for m, _ in p.ordered_monomials()]
    assert names == [[], ["x"], ["y"], ["x", "y"]]
