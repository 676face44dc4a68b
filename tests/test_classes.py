"""Power-set class algebras, the indicator embedding, and brute-force
semantic consequence."""

import itertools
import random

import pytest

from boolelab import classes
from boolelab.algebra import UNDEFINED, holds
from boolelab.classes import (
    ChiVerdict,
    IntVector,
    build_pu,
    chi,
    semantic_consequence,
    subset_name,
    verify_chi_embedding,
)
from boolelab.derivation import certify_consequence, verify_certificate
from boolelab.errors import CapExceeded
from boolelab.horn import horn_sentence
from boolelab.polynomial import boole_oracle
from boolelab.terms import Add, Mul, Sub, parse
from helpers import (
    chain,
    random_ground_argument,
    reference_eval_term,
    reference_holds,
    reference_semantic_consequence,
)


def independent_tables(n: int):
    """Set-theoretic recomputation of the class-algebra tables, written
    directly from the definedness conditions on subsets."""
    universe = frozenset(range(n))
    subsets = [
        frozenset(c)
        for k in range(n + 1)
        for c in itertools.combinations(range(n), k)
    ]
    def name(s):
        return "{" + ",".join(str(i) for i in sorted(s)) + "}"
    plus, minus, times = {}, {}, {}
    for a in subsets:
        for b in subsets:
            key = (name(a), name(b))
            if not a & b:
                plus[key] = name(a | b)
            if b <= a:
                minus[key] = name(a - b)
            times[key] = name(a & b)
    return {
        "+": plus,
        "-": minus,
        "*": times,
        "0": {(): name(frozenset())},
        "1": {(): name(universe)},
    }


def test_carrier_and_signature():
    pu = build_pu(1)
    assert pu.algebra.carrier == ("{}", "{0}")
    assert pu.algebra.signature == (
        ("+", 2),
        ("-", 2),
        ("*", 2),
        ("0", 0),
        ("1", 0),
    )
    assert pu.empty_name == "{}"
    assert pu.universe_name == "{0}"


def test_carrier_is_mask_ordered():
    pu = build_pu(2)
    assert pu.algebra.carrier == ("{}", "{0}", "{1}", "{0,1}")
    assert pu.name_of(3) == "{0,1}"
    assert pu.mask_of("{1}") == 2


def test_union_partial_difference_partial_intersection_total():
    algebra = build_pu(1).algebra
    assert len(algebra.tables["+"]) == 3
    assert ("{0}", "{0}") not in algebra.tables["+"]
    assert len(algebra.tables["-"]) == 3
    assert len(algebra.tables["*"]) == 4


def test_difference_count_matches_containment():
    # pairs with b contained in a: sum of 2^|a| over subsets a
    assert len(build_pu(2).algebra.tables["-"]) == 9
    assert len(build_pu(3).algebra.tables["-"]) == 27


def test_tables_match_set_theory():
    for n in (1, 2, 3):
        assert build_pu(n).algebra.tables == independent_tables(n)


def test_universe_size_caps():
    with pytest.raises(ValueError):
        build_pu(0)
    with pytest.raises(CapExceeded):
        build_pu(6)


def test_subset_names():
    assert subset_name(0) == "{}"
    assert subset_name(5) == "{0,2}"


def test_chi_examples():
    assert chi(0, 2) == IntVector((0, 0))
    assert chi(3, 2) == IntVector((1, 1))
    assert chi(1, 2) == IntVector((1, 0))


def test_int_vector_arithmetic():
    a, b = IntVector((1, 0, 2)), IntVector((1, 1, 1))
    assert a + b == IntVector((2, 1, 3))
    assert a - b == IntVector((0, -1, 1))
    assert a * b == IntVector((1, 0, 2))
    assert IntVector.zero(2) == IntVector((0, 0))
    assert IntVector.ones(2) == IntVector((1, 1))


def test_int_vectors_of_different_lengths_do_not_combine():
    with pytest.raises(ValueError, match="vector length mismatch"):
        IntVector((1, 0)) + IntVector((1,))


def test_chi_embedding_verified():
    expected_entries = {1: 12, 2: 36, 3: 120}
    for n, entries in expected_entries.items():
        verdict = verify_chi_embedding(n)
        assert verdict.ok
        assert verdict.failing is None
        assert verdict.entries_checked == entries


def test_mask_and_name_round_trip():
    for n in range(1, 6):
        pu = build_pu(n)
        for mask, name in enumerate(pu.algebra.carrier):
            assert pu.mask_of(name) == mask
            assert pu.name_of(mask) == name
            assert pu.mask_of(subset_name(mask)) == mask


def test_chi_embedding_checks_every_entry_up_to_six_points():
    # 3^n disjoint pairs for +, 3^n contained pairs for -, 4^n pairs
    # for *, and the two constants
    expected_entries = {1: 12, 2: 36, 3: 120, 4: 420, 5: 1512, 6: 5556}
    for n, entries in expected_entries.items():
        assert verify_chi_embedding(n, max_n=6) == ChiVerdict(True, entries)


def test_chi_embedding_reports_a_map_that_is_not_injective(monkeypatch):
    monkeypatch.setattr(classes, "chi", lambda mask, n: IntVector.zero(n))
    assert verify_chi_embedding(2) == ChiVerdict(False, 0, "indicator map is not injective")


def test_chi_embedding_reports_the_first_entry_a_map_breaks(monkeypatch):
    # the complement is injective, but {} + {} = {} goes to 1 + 1 = 2, not 1
    real = classes.chi
    monkeypatch.setattr(classes, "chi", lambda mask, n: real(mask ^ ((1 << n) - 1), n))
    assert verify_chi_embedding(2) == ChiVerdict(False, 1, "mismatch at +('{}', '{}')")


def test_semantic_union_absorption():
    premisses = ((parse("x*y"), parse("0")),)
    verdict = semantic_consequence(premisses, (parse("(x + y)*x"), parse("x")))
    assert verdict.valid
    assert verdict.max_n == 3


def test_semantic_collapse_from_absorbing_sums():
    # within the class algebras the two sum laws force both classes empty
    premisses = ((parse("x + y"), parse("x")), (parse("x + y"), parse("y")))
    assert semantic_consequence(premisses, (parse("x"), parse("y"))).valid


def test_semantic_refutes_everything_empty():
    verdict = semantic_consequence((), (parse("x"), parse("0")), max_n=1)
    assert not verdict.valid
    assert verdict.witness_n == 1
    assert verdict.witness == {"x": "{0}"}


def test_semantic_witness_is_least():
    verdict = semantic_consequence((), (parse("x*y"), parse("x")), max_n=2)
    assert not verdict.valid
    assert verdict.witness_n == 1
    assert verdict.witness == {"x": "{0}", "y": "{}"}


def test_semantic_cap():
    with pytest.raises(CapExceeded):
        semantic_consequence((), (parse("x"), parse("x")), max_n=9)


def test_semantic_cap_is_checked_before_any_assignment():
    # invalid already at n = 1, but the bound itself is over the cap
    with pytest.raises(CapExceeded, match="universe size 9 exceeds the limit of 5"):
        semantic_consequence((), (parse("x"), parse("0")), max_n=9)
    with pytest.raises(CapExceeded, match="universe size 3 exceeds the limit of 2"):
        semantic_consequence((), (parse("x"), parse("0")), max_n=3, cap=2)


def test_semantic_needs_a_universe():
    with pytest.raises(ValueError, match="nonempty"):
        semantic_consequence((), (parse("x"), parse("0")), max_n=0)


def test_semantic_matches_reference_loop():
    """``holds`` on P(U) against the old enumeration loop over the
    recursive evaluator: the same verdict, smallest universe and least
    witness on seeded random arguments."""
    rng = random.Random(8128)
    outcomes = set()
    for _ in range(300):
        premisses, conclusion = random_ground_argument(rng)
        verdict = semantic_consequence(premisses, conclusion, max_n=3)
        expected = reference_semantic_consequence(premisses, conclusion, 3)
        assert (verdict.valid, verdict.witness_n, verdict.witness) == expected, (
            premisses,
            conclusion,
        )
        outcomes.add(verdict.witness_n)
    # P(U) with n points is the n-th power of P(U) with one point, with
    # definedness componentwise, so a witness always exists at n = 1
    assert outcomes == {None, 1}


def test_semantic_matches_reference_holds():
    """The backtracking search on P(1) against the full assignment
    loop of the replaced ``holds``."""
    rng = random.Random(1976)
    pu = build_pu(1).algebra
    outcomes = set()
    for _ in range(300):
        premisses, conclusion = random_ground_argument(rng)
        verdict = semantic_consequence(premisses, conclusion)
        expected = reference_holds(pu, horn_sentence(premisses, conclusion))
        assert (verdict.valid, verdict.witness) == (expected.holds, expected.witness), (
            premisses,
            conclusion,
        )
        outcomes.add(verdict.valid)
    assert outcomes == {True, False}


def assert_refutes(premisses, conclusion, witness):
    """Under the witness every term is defined on P(1), the premisses
    hold and the conclusion fails."""
    pu = build_pu(1).algebra
    values = [
        (reference_eval_term(pu, lhs, witness), reference_eval_term(pu, rhs, witness))
        for lhs, rhs in [*premisses, conclusion]
    ]
    assert all(UNDEFINED not in pair for pair in values)
    assert all(a == b for a, b in values[:-1])
    assert values[-1][0] != values[-1][1]


def test_semantic_decides_long_chains():
    """A chain of inclusions over 40 symbols, 2^40 assignments to a
    loop: valid, and refuted with the middle link dropped."""
    assert semantic_consequence(*chain(40)).valid
    premisses, conclusion = chain(40, drop=20)
    verdict = semantic_consequence(premisses, conclusion)
    assert not verdict.valid and verdict.witness_n == 1
    assert_refutes(premisses, conclusion, verdict.witness)


def test_semantic_chains_match_reference_holds():
    pu = build_pu(1).algebra
    for m in range(2, 15):
        for drop in (None, m // 2 - 1 if m > 2 else None):
            premisses, conclusion = chain(m, drop=drop)
            verdict = semantic_consequence(premisses, conclusion)
            expected = reference_holds(pu, horn_sentence(premisses, conclusion))
            assert (verdict.valid, verdict.witness) == (expected.holds, expected.witness), (m, drop)
            assert verdict.valid == (drop is None)
            if drop is not None:
                assert_refutes(premisses, conclusion, verdict.witness)


def test_p1_verdict_matches_reference_loop_up_to_four_points():
    """The verdict decided on P(1) alone against the old loop over P(U)
    for every n up to 4: a valid argument has no counter-assignment on
    two, three or four points either."""
    rng = random.Random(2013)
    outcomes = set()
    for _ in range(150):
        premisses, conclusion = random_ground_argument(rng)
        verdict = semantic_consequence(premisses, conclusion, max_n=4)
        expected = reference_semantic_consequence(premisses, conclusion, 4)
        assert (verdict.valid, verdict.witness_n, verdict.witness) == expected, (
            premisses,
            conclusion,
        )
        assert verdict.max_n == 4
        outcomes.add(verdict.valid)
    assert outcomes == {True, False}


def test_certified_arguments_hold_on_two_to_four_points():
    """Gate 05 checks its certified arguments with semantic_consequence,
    which decides on P(1) alone; here the same arguments are checked on
    P(U) for n = 2..4 directly, so that gate still covers them."""
    rng = random.Random(96321)  # the seed of gate 05's sweep
    certified = 0
    for _ in range(500):
        premisses, conclusion = random_ground_argument(rng)
        cert = certify_consequence(premisses, conclusion)
        if cert is None or not verify_certificate(premisses, conclusion, cert).verified:
            continue
        certified += 1
        sentence = horn_sentence(premisses, conclusion)
        for n in (2, 3, 4):
            assert holds(build_pu(n).algebra, sentence).holds, (n, premisses, conclusion)
    assert certified > 50


def test_rule_of_zero_and_one():
    """The vertex oracle against universe-size-one class semantics.

    Oracle validity must imply validity over the two-element class
    algebra.  The converse can fail, because an oracle witness may fall
    outside the definedness domain; such cases are counted and shown,
    never hidden.
    """
    rng = random.Random(31415)
    discrepancies = []
    checked = 0
    for _ in range(500):
        premisses, conclusion = random_ground_argument(rng)
        oracle = boole_oracle(premisses, conclusion)
        semantic = semantic_consequence(premisses, conclusion, max_n=1)
        checked += 1
        if oracle.valid:
            assert semantic.valid, (premisses, conclusion)
        elif semantic.valid:
            discrepancies.append((premisses, conclusion, oracle.witness))
    assert checked == 500
    if discrepancies:
        print(
            f"\nrule-of-0-and-1: {len(discrepancies)} of 500 instances are"
            " semantically valid yet rejected by the oracle (witness falls"
            " outside the definedness domain); first case:"
        )
        premisses, conclusion, witness = discrepancies[0]
        print(f"  premisses={premisses} conclusion={conclusion} vertex={witness}")


def _subterms(t) -> list:
    """The distinct subterms of t, t itself included, in walk order."""
    found, todo = {}, [t]
    while todo:
        s = todo.pop()
        found[s] = None
        if isinstance(s, (Add, Sub, Mul)):
            todo += (s.right, s.left)
    return list(found)


def test_p1_verdict_is_the_oracle_with_every_subterm_idempotent():
    """The corrected rule of 0 and 1: the P(1) verdict is the oracle's
    once every subterm s of every side carries the premiss s*s = s,
    which holds at a vertex exactly when s is defined there as a class.
    Verdicts and witnesses agree, the oracle's bit b read as the subset
    ``subset_name(b)`` of the one point."""
    rng = random.Random(11)
    invalid = 0
    for _ in range(3000):
        premisses, conclusion = random_ground_argument(rng)
        sides = [side for eq in (*premisses, conclusion) for side in eq]
        subterms = dict.fromkeys(s for side in sides for s in _subterms(side))
        guards = tuple((Mul(s, s), s) for s in subterms)
        oracle = boole_oracle((*premisses, *guards), conclusion)
        semantic = semantic_consequence(premisses, conclusion, max_n=1)
        assert semantic.valid == oracle.valid, (premisses, conclusion)
        if not oracle.valid:
            invalid += 1
            witness = {name: subset_name(bit) for name, bit in oracle.witness.items()}
            assert semantic.witness == witness, (premisses, conclusion)
    assert invalid == 298
