"""Cofactor certificates and rule-checked derivation traces."""

import random
import tracemalloc

import pytest

from boolelab.algebra import eval_term, holds
from boolelab.counterexamples import (
    barbara_conclusion,
    barbara_premisses,
    cx_conclusion,
    cx_trace,
    intro_algebra,
)
from boolelab.derivation import (
    _RULES,
    Certificate,
    Congruence,
    DeltaIdempotence,
    DerivationTrace,
    HAILPERIN,
    IntegerSimplification,
    NoNilpotent,
    Premiss,
    Refl,
    RingAxiomInstance,
    SIGMA1,
    Sym,
    Trans,
    TraceStep,
    certify_consequence,
    check_trace,
    format_trace,
    parse_trace,
    ring_normalize,
    verify_certificate,
)
from boolelab.errors import CapExceeded, Value
from boolelab.polynomial import MultilinearPoly, boole_oracle, normalize
from boolelab.horn import identity, parse_equation
from boolelab.terms import Add, IntLit, Mul, Sub, Var, count_var, parse, substitute, variables
from helpers import (
    chain,
    chain_arguments,
    dense_argument,
    leaves,
    random_ground_argument,
    random_term,
    reference_certify_consequence,
    reference_equal,
    reference_first_unit_certificate,
    reference_replaced_once,
    reference_ring_normalize,
    vertex_walk_certify_consequence,
    with_leaf,
)

x, y = Var("x"), Var("y")
ZERO = IntLit(0)


def nf(text: str):
    return normalize(parse(text))


def test_barbara_certificate_construction():
    cert = certify_consequence(barbara_premisses(), barbara_conclusion())
    assert cert is not None
    assert cert.n == 1
    # gate 07's textbook certificate: x - x*z = (1 - z)*(x - x*y) + x*(y - y*z)
    assert [str(c) for c in cert.cofactors] == ["1 - z", "x"]
    assert verify_certificate(barbara_premisses(), barbara_conclusion(), cert).verified


def test_barbara_compact_certificate():
    compact = Certificate(1, (nf("1 - z"), nf("x")))
    check = verify_certificate(barbara_premisses(), barbara_conclusion(), compact)
    assert check.verified
    assert check.residual is None


def test_barbara_wrong_certificate_residual():
    wrong = Certificate(1, (nf("1"), nf("x")))
    check = verify_certificate(barbara_premisses(), barbara_conclusion(), wrong)
    assert not check.verified
    assert check.residual == nf("x*y*z - x*z")


def test_empty_premisses_certificate():
    conclusion = (parse("x - x"), ZERO)
    cert = certify_consequence((), conclusion)
    assert cert == Certificate(1, ())
    assert verify_certificate((), conclusion, cert).verified


def test_torsion_multiplier():
    premisses = ((parse("2*x"), ZERO),)
    conclusion = (x, ZERO)
    cert = certify_consequence(premisses, conclusion)
    assert cert.n == 2
    # where x = 0 the premiss difference 2*x vanishes and leaves the
    # cofactor free, so it takes its value at x = 1
    assert cert.cofactors == (nf("1"),)
    assert verify_certificate(premisses, conclusion, cert).verified
    # the cofactor x that pins 0 at x = 0 is just as good
    assert verify_certificate(premisses, conclusion, Certificate(2, (nf("x"),))).verified


def test_invalid_instances_get_no_certificate():
    assert certify_consequence(((x, ZERO),), (y, ZERO)) is None
    assert certify_consequence((), (x, ZERO)) is None


@pytest.mark.parametrize(
    "premisses, conclusion, names",
    [
        (("x = y",), "x - x = 0", ("x", "y")),
        (("x = x", "x*y = y"), "x*x = x", ("x", "y")),
        (("x = x", "y - y = 0"), "x*x = x", ("x", "y")),
        (("x = x", "y - y = 0"), "x = 0", None),
        (("x = x", "y - y = 0"), "1 = 0", None),
        (("y*y = y",), "x + x = 0", None),
    ],
)
def test_certify_settled_at_the_root(premisses, conclusion, names):
    # a zero conclusion difference, or every premiss difference zero:
    # a certificate with n = 1 and zero cofactors over the pooled
    # variables, or None when the conclusion difference is not zero
    premisses = tuple(parse_equation(e) for e in premisses)
    conclusion = parse_equation(conclusion)
    cert = certify_consequence(premisses, conclusion)
    if names is None:
        assert cert is None
        return
    assert cert == Certificate(1, (nf("0"),) * len(premisses))
    assert [c.vars for c in cert.cofactors] == [names] * len(premisses)
    assert cert.to_json_dict() == {"n": 1, "cofactors": [[]] * len(premisses)}
    assert verify_certificate(premisses, conclusion, cert).verified


def test_certificate_requires_positive_multiplier():
    with pytest.raises(ValueError):
        Certificate(0, ())


def test_verify_rejects_cofactor_count_mismatch():
    with pytest.raises(ValueError):
        verify_certificate(barbara_premisses(), barbara_conclusion(), Certificate(1, ()))


def test_certificate_json_round_trip():
    cert = certify_consequence(barbara_premisses(), barbara_conclusion())
    doc = cert.to_json_dict()
    assert doc["n"] == 1
    assert Certificate.from_json_dict(doc) == cert


def test_oracle_certificate_agreement_random():
    rng = random.Random(5150)
    produced = 0
    for _ in range(200):
        premisses, conclusion = random_ground_argument(rng)
        oracle = boole_oracle(premisses, conclusion)
        cert = certify_consequence(premisses, conclusion)
        assert oracle.valid == (cert is not None)
        if cert is not None:
            produced += 1
            assert verify_certificate(premisses, conclusion, cert).verified
    assert produced > 20


def assert_same_certificate(premisses, conclusion):
    """The split-tree certificate against the per-vertex first-unit +
    restrict reference (cofactors and their vars), the replaced one-walk
    construction (the same multiplier n) and the oracle (None exactly
    when it rejects); every certificate verifies."""
    got = certify_consequence(premisses, conclusion)
    want = reference_first_unit_certificate(premisses, conclusion)
    assert got == want
    old = vertex_walk_certify_consequence(premisses, conclusion)
    assert (got is None) == (old is None) == (not boole_oracle(premisses, conclusion).valid)
    if got is not None:
        names = sorted({v for eq in (*premisses, conclusion) for t in eq for v in variables(t)})
        assert [c.vars for c in got.cofactors] == [tuple(names)] * len(premisses)
        assert got.n == old.n
        assert verify_certificate(premisses, conclusion, got).verified
    return got


def test_certify_matches_two_pass_reference_random():
    rng = random.Random(1007)
    produced, multipliers = 0, set()
    for _ in range(300):
        premisses, conclusion = random_ground_argument(rng)
        cert = assert_same_certificate(premisses, conclusion)
        # the replaced one-walk construction is still the two-pass one
        old = vertex_walk_certify_consequence(premisses, conclusion)
        assert old == reference_certify_consequence(premisses, conclusion)
        if cert is not None:
            produced += 1
            multipliers.add(cert.n)
    assert produced > 30
    assert max(multipliers) > 1


def test_certify_matches_two_pass_reference_chains():
    for m in range(2, 11):
        assert assert_same_certificate(*chain(m)) is not None
        assert assert_same_certificate(*chain(m, conclusion_first=m - 1)) is not None
        assert assert_same_certificate(*chain(m, conclusion_first=m - 1, conclusion_last=0)) is None
        for k in range(m - 1):
            assert assert_same_certificate(*chain(m, drop=k)) is None


def test_certify_matches_reference_dense():
    rng = random.Random(4421)
    for valid in (True, False) * 6:
        cert = assert_same_certificate(*dense_argument(rng, valid))
        assert (cert is not None) == valid


def test_certify_gives_a_zero_premiss_difference_the_zero_cofactor():
    """A premiss t = t, whose difference is 0, is free at every leaf, so
    its cofactor is 0 wherever it stands: before a unit, between
    constants, or last."""
    def inserted(premisses, k, t):
        return (*premisses[:k], (t, t), *premisses[k:])

    constants = ((Mul(IntLit(2), x), ZERO), (Mul(IntLit(3), x), ZERO))
    cases = [(inserted(constants, 1, x), (x, ZERO), 1)]
    for m in range(2, 7):
        premisses, conclusion = chain(m)
        cases += [(inserted(premisses, k, Var("v0")), conclusion, k) for k in (0, len(premisses))]
    rng = random.Random(2029)
    for _ in range(200):
        premisses, conclusion = random_ground_argument(rng)
        k = rng.randint(0, len(premisses))
        cases.append((inserted(premisses, k, random_term(rng, ("x", "y", "z"), 2)), conclusion, k))
    produced = 0
    for premisses, conclusion, k in cases:
        cert = assert_same_certificate(premisses, conclusion)
        if cert is not None:
            produced += 1
            assert not cert.cofactors[k].coeffs
    assert produced > 30


def test_certify_long_chains():
    """On the chain over m symbols, cofactor j + 1 is v0*...*v(j-1) times
    (1 - v(m-1)), and the last one is v0*...*v(m-3): 2m - 3 monomials
    in all, where the replaced one-walk construction had 2^(m+1) - 2."""
    for m in (4, 8, 12, 16):
        args = list(chain_arguments(m))
        cert = certify_consequence(*args[0], max_vars=m)
        prefixes = [MultilinearPoly.const(1)]
        for i in range(m - 2):
            prefixes.append(prefixes[-1] * MultilinearPoly.variable(f"v{i}"))
        complement = 1 - MultilinearPoly.variable(f"v{m - 1}")
        want = [p * complement for p in prefixes[:-1]] + [prefixes[-1]]
        assert list(cert.cofactors) == want
        assert sum(len(c.coeffs) for c in cert.cofactors) == 2 * m - 3
        assert verify_certificate(*args[0], cert).verified
        if m == 12:
            assert cert == reference_first_unit_certificate(*args[0])
        if m >= 12:
            # below 12, test_certify_matches_two_pass_reference_chains
            # covers every chain argument
            assert cert.n == vertex_walk_certify_consequence(*args[0], max_vars=m).n
            assert all(certify_consequence(*arg, max_vars=m) is None for arg in args[1:])


def test_certify_cap_matches_reference():
    premisses, conclusion = chain(6)
    messages = []
    for certify in (certify_consequence, reference_certify_consequence):
        with pytest.raises(CapExceeded) as info:
            certify(premisses, conclusion, max_vars=5)
        messages.append(str(info.value))
    assert messages == ["6 variables exceeds the limit of 5"] * 2
    assert certify_consequence(premisses, conclusion, max_vars=6) is not None


@pytest.mark.parametrize("decide", [boole_oracle, certify_consequence])
def test_library_consequence_normalizes_under_the_pair_cap(decide):
    # four variables, within the cap of 4, but a product step of 5 * 5
    # monomial pairs, over the 2^4 that the cap allows: the library
    # bounds its own normal forms, as the CLI does
    product = parse("(a+b+c+d+1)*(a+b+c+d+1)")
    premisses, conclusion = [(product, parse("0"))], (parse("a"), parse("a"))
    with pytest.raises(CapExceeded, match="^25 monomial pairs in one product exceeds the limit of 16$"):
        decide(premisses, conclusion, max_vars=4)
    assert decide(premisses, conclusion, max_vars=5)


def test_first_vertex_witness_walks_lazily():
    # v0 + ... + v19 = 1 fails at the all-zero vertex, the first one
    # visited, so neither the oracle nor certify should build the grid
    # of 2^20 vertices.
    total = Var("v0")
    for i in range(1, 20):
        total = Add(total, Var(f"v{i}"))
    conclusion = (total, IntLit(1))
    tracemalloc.start()
    try:
        verdict = boole_oracle((), conclusion)
        cert = certify_consequence((), conclusion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.witness == {f"v{i}": 0 for i in range(20)}
    assert cert is None
    assert peak < 10 * 2**20


def test_cx_trace_mode_split():
    trace = cx_trace()
    assert check_trace(trace, SIGMA1).accepted
    verdict = check_trace(trace, HAILPERIN)
    assert not verdict.accepted
    assert verdict.step == 1
    assert verdict.reason == "idempotence target 2*x is not a class symbol"
    assert trace.conclusion == cx_conclusion()


def test_single_reflexive_step():
    trace = DerivationTrace((), (TraceStep(x, x, Refl()),))
    assert check_trace(trace, HAILPERIN).accepted
    assert check_trace(trace, SIGMA1).accepted


def full_rule_trace() -> DerivationTrace:
    """A small derivation touching every rule, legal in both modes."""
    two_x = Mul(IntLit(2), x)
    return DerivationTrace(
        ((two_x, ZERO),),
        (
            TraceStep(two_x, ZERO, Premiss()),
            TraceStep(x, ZERO, NoNilpotent(1, 2)),
            TraceStep(Add(x, x), two_x, RingAxiomInstance()),
            TraceStep(ZERO, x, Sym(2)),
            TraceStep(ZERO, ZERO, Trans(4, 2)),
            TraceStep(Add(x, y), Add(ZERO, y), Congruence(2, Add(Var("HOLE"), y))),
            TraceStep(x, ZERO, IntegerSimplification(6)),
            TraceStep(Mul(x, x), x, DeltaIdempotence(x)),
        ),
    )


def test_every_rule_accepted():
    trace = full_rule_trace()
    assert check_trace(trace, HAILPERIN).accepted
    assert check_trace(trace, SIGMA1).accepted


def test_accepted_traces_agree_with_the_oracle():
    for trace in (full_rule_trace(),):
        assert check_trace(trace, HAILPERIN).accepted
        assert boole_oracle(trace.premisses, trace.conclusion).valid


def rejects(steps, premisses=(), mode=HAILPERIN):
    verdict = check_trace(DerivationTrace(premisses, steps), mode)
    assert not verdict.accepted
    return verdict


def test_premiss_must_match():
    verdict = rejects((TraceStep(x, ZERO, Premiss()),), premisses=((y, ZERO),))
    assert verdict.step == 1
    assert "premiss" in verdict.reason


def test_ring_axiom_must_hold_in_the_free_ring():
    rejects((TraceStep(Mul(x, y), x, RingAxiomInstance()),))


def test_ring_axiom_does_not_include_idempotence():
    # x*x = x needs the delta rule; the ring laws alone keep exponents
    rejects((TraceStep(Mul(x, x), x, RingAxiomInstance()),))
    assert ring_normalize(Mul(x, x)) != ring_normalize(x)


def test_delta_idempotence_needs_the_square():
    verdict = rejects((TraceStep(Add(x, y), x, DeltaIdempotence(x)),))
    assert "rewritten" in verdict.reason


def test_delta_idempotence_compound_target_split():
    square = Mul(Add(x, y), Add(x, y))
    steps = (TraceStep(square, Add(x, y), DeltaIdempotence(Add(x, y))),)
    assert check_trace(DerivationTrace((), steps), SIGMA1).accepted
    verdict = rejects(steps)
    assert "class symbol" in verdict.reason


def test_refl_needs_identical_sides():
    rejects((TraceStep(x, y, Refl()),))


def test_trans_needs_earlier_steps():
    verdict = rejects((TraceStep(x, x, Refl()), TraceStep(x, x, Trans(1, 2))))
    assert (verdict.step, verdict.reason) == (2, "both referenced steps must be earlier")


def test_empty_trace_has_no_conclusion():
    with pytest.raises(ValueError, match="empty trace has no conclusion"):
        DerivationTrace((), ()).conclusion


def test_sym_checks_reversal_and_reference():
    good = TraceStep(x, y, Premiss())
    rejects((good, TraceStep(x, y, Sym(1))), premisses=((x, y),))
    verdict = rejects((TraceStep(y, x, Sym(1)),))
    assert "earlier" in verdict.reason
    verdict = rejects((good, TraceStep(y, x, Sym(2))), premisses=((x, y),))
    assert verdict.step == 2


def test_trans_requires_chaining_middles():
    premisses = ((x, y), (x, ZERO))
    steps = (
        TraceStep(x, y, Premiss()),
        TraceStep(x, ZERO, Premiss()),
        TraceStep(x, ZERO, Trans(1, 2)),
    )
    verdict = rejects(steps, premisses=premisses)
    assert verdict.step == 3
    assert "middle" in verdict.reason


def test_congruence_demands_one_hole():
    base = TraceStep(x, ZERO, Premiss())
    no_hole = rejects(
        (base, TraceStep(Add(x, y), Add(ZERO, y), Congruence(1, Add(x, y)))),
        premisses=((x, ZERO),),
    )
    assert "hole" in no_hole.reason
    hole = Var("HOLE")
    two_holes = rejects(
        (base, TraceStep(Add(x, x), Add(ZERO, ZERO), Congruence(1, Add(hole, hole)))),
        premisses=((x, ZERO),),
    )
    assert "hole" in two_holes.reason


def test_no_nilpotent_shape():
    bad_n = rejects(
        (TraceStep(Mul(IntLit(2), x), ZERO, Premiss()), TraceStep(x, ZERO, NoNilpotent(1, 0))),
        premisses=((Mul(IntLit(2), x), ZERO),),
    )
    assert "positive" in bad_n.reason
    wrong_form = rejects(
        (TraceStep(Add(x, x), ZERO, Premiss()), TraceStep(x, ZERO, NoNilpotent(1, 2))),
        premisses=((Add(x, x), ZERO),),
    )
    assert wrong_form.step == 2


def test_integer_simplification_compares_differences():
    base = TraceStep(Add(x, x), ZERO, Premiss())
    good = TraceStep(Mul(IntLit(2), x), ZERO, IntegerSimplification(1))
    trace = DerivationTrace(((Add(x, x), ZERO),), (base, good))
    assert check_trace(trace, HAILPERIN).accepted
    verdict = rejects((base, TraceStep(x, ZERO, IntegerSimplification(1))),
                      premisses=((Add(x, x), ZERO),))
    assert verdict.step == 2


def test_unknown_rule_objects_are_rejected():
    verdict = rejects((TraceStep(x, x, object()),))
    assert "unknown rule" in verdict.reason


def test_check_trace_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_trace(cx_trace(), "liberal")


def test_trace_format_round_trip():
    for trace in (cx_trace(), full_rule_trace()):
        text = format_trace(trace)
        assert parse_trace(text, premisses=trace.premisses) == trace


def test_every_rule_class_round_trips_through_its_tag():
    # distinct values, so fields read back in the wrong order show
    ints = iter(range(3, 100))
    context = Add(Var("HOLE"), Mul(IntLit(2), y))
    steps = []
    for cls in _RULES.values():
        fields = [cls.__annotations__[field] for field in cls._fields]
        rule = cls(*(context if kind == "Term" else next(ints) for kind in fields))
        steps.append(TraceStep(x, y, rule))
    trace = DerivationTrace((), tuple(steps))
    text = format_trace(trace)
    assert [line.split("[")[1].split()[0].rstrip("]") for line in text.splitlines()] == list(_RULES)
    assert parse_trace(text) == trace


def test_a_look_alike_rule_is_not_formatted():
    class Refl(Value):
        pass

    trace = DerivationTrace((), (TraceStep(x, x, Refl()),))
    with pytest.raises(TypeError, match=r"^unknown rule .*\.Refl\(\)$"):
        format_trace(trace)


def test_cx_trace_text():
    assert format_trace(cx_trace()) == (
        "1: 2*x*(2*x) = 2*x [DeltaIdempotence 2*x]\n"
        "2: 4*x = 2*x [IntegerSimplification 1]\n"
        "3: 2*x = 0 [IntegerSimplification 2]\n"
        "4: x = 0 [NoNilpotent 3 2]\n"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("x = x [Refl]", "missing step number"),
        ("1: x = x", "missing [Rule] tag"),
        ("1: x = x = x [Refl]", "step needs exactly one '='"),
        ("1: x = x []", "empty rule tag"),
        ("1: x = x [Foo 1]", "unknown rule name 'Foo'"),
    ],
)
def test_trace_file_refusals_name_their_line(line, message):
    with pytest.raises(ValueError) as info:
        parse_trace(f"# a comment\n{line}\n")
    assert str(info.value) == f"line 2: {message}"


def test_parse_trace_enforces_numbering():
    with pytest.raises(ValueError):
        parse_trace("2: x = x [Refl]\n")
    with pytest.raises(ValueError):
        parse_trace("1: x = x [Refl]\n3: x = x [Refl]\n")


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_terms_need_no_recursion(side):
    # 3000-deep sums, far past the interpreter's default recursion limit
    def nest(leaf, bottom=None):
        t = bottom or leaf
        for _ in range(2999):
            t = Add(t, leaf) if side == "left" else Add(leaf, t)
        return t

    t = nest(x)
    assert t == nest(x) and t != nest(x, bottom=y)
    assert substitute(t, {"x": y}) == nest(y)
    assert count_var(t, "x") == 3000
    assert ring_normalize(t) == {(("x", 1),): 3000}
    assert normalize(t) == MultilinearPoly((), {frozenset("x"): 3000})
    assert eval_term(intro_algebra(), t, {"x": "1"}) == "1"
    assert holds(intro_algebra(), identity(t, x)).holds


def _most_pairs(t) -> int:
    """The most monomial pairs any product step of ring_normalize(t)
    multiplies."""
    if not isinstance(t, (Add, Sub, Mul)):
        return 0
    here = 0
    if isinstance(t, Mul):
        here = len(reference_ring_normalize(t.left)) * len(reference_ring_normalize(t.right))
    return max(here, _most_pairs(t.left), _most_pairs(t.right))


def test_ring_normalize_matches_recursive_reference():
    # the same monomials in the same insertion order; the pair cap
    # admits a product step of exactly max_pairs pairs, and no more
    rng = random.Random(20261020)
    capped = 0
    for _ in range(400):
        t = random_term(rng, ("x", "y", "z"), rng.randint(1, 6))
        form = ring_normalize(t)
        assert list(form.items()) == list(reference_ring_normalize(t).items())
        most = _most_pairs(t)
        assert ring_normalize(t, max_pairs=most) == form
        if most:
            with pytest.raises(CapExceeded, match=f"{most} monomial pairs"):
                ring_normalize(t, max_pairs=most - 1)
            capped += 1
    assert capped > 100


def test_delta_idempotence_matches_replaced_once():
    # the one descent accepts exactly the right sides that the replaced
    # generator yields: every single rewrite of a square of the target,
    # placed at up to two random leaves, and none of the near misses
    rng = random.Random(20261021)
    names = ("x", "y")
    accepted = rejected = 0
    for _ in range(500):
        target = random_term(rng, names, rng.randint(1, 3))
        square = Mul(target, target)
        t = random_term(rng, names, rng.randint(1, 5))
        lhs = square if rng.random() < 0.1 else t
        for _ in range(rng.randint(0, 2)):
            lhs = with_leaf(lhs, rng.randrange(len(leaves(lhs))), square)
        rewrites = list(reference_replaced_once(lhs, square, target))
        candidates = [*rewrites, lhs, t, target, random_term(rng, names, 4)]
        for c in rewrites:
            candidates.append(with_leaf(c, rng.randrange(len(leaves(c))), Var("z")))
        for rhs in candidates:
            expected = any(reference_equal(c, rhs) for c in rewrites)
            step = TraceStep(lhs, rhs, DeltaIdempotence(target))
            assert check_trace(DerivationTrace((), (step,)), SIGMA1).accepted is expected
            accepted += expected
            rejected += not expected
    assert accepted > 400 and rejected > 1000
