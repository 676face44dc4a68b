"""Horn sentences, guards, relativization, and the theory text format."""

import pytest

from boolelab.algebra import FinitePartialAlgebra, holds_total
from boolelab.horn import (
    FALSUM,
    Delta,
    HornSentence,
    format_theory,
    horn_sentence,
    idempotence_guard,
    identity,
    parse_equation,
    parse_theory,
    relativize,
)
from boolelab.terms import Add, Mul, Var, parse

x, y = Var("x"), Var("y")


def total_max_with_zero() -> FinitePartialAlgebra:
    table = {
        ("0", "0"): "0",
        ("0", "1"): "1",
        ("1", "0"): "1",
        ("1", "1"): "1",
    }
    return FinitePartialAlgebra(
        ("0", "1"),
        (("+", 2), ("0", 0)),
        {"+": table, "0": {(): "0"}},
    )


def test_falsum_requires_antecedent():
    with pytest.raises(ValueError, match="^a falsum consequent needs at least one antecedent$"):
        HornSentence((), (), FALSUM)


def test_vars_must_cover_terms():
    with pytest.raises(ValueError):
        HornSentence(("x",), (), (x, y))


def test_horn_sentence_infers_sorted_vars():
    s = horn_sentence(((y, x),), (Add(x, y), x))
    assert s.vars == ("x", "y")
    assert HornSentence(None, ((y, x),), (Add(x, y), x)) == s
    assert horn_sentence(((y, Var("b")),), FALSUM).vars == ("b", "y")
    assert identity(Mul(y, y), parse("1")).vars == ("y",)


def test_given_vars_must_still_cover_terms():
    with pytest.raises(ValueError, match=r"variables \['y'\] are not quantified"):
        horn_sentence(((y, x),), FALSUM, vars=("x",))
    with pytest.raises(ValueError, match="not quantified"):
        identity(x, y, vars=("y",))
    assert horn_sentence((), (x, x), vars=("z", "x")).vars == ("z", "x")


def test_str_forms():
    assert str(identity(x, y)) == "-> x = y"
    s = horn_sentence(((parse("0"), parse("1")),), FALSUM, vars=())
    assert str(s) == "0 = 1 -> false"


def test_relativize_prepends_guards_in_quantifier_order():
    s = identity(Mul(x, y), Mul(y, x), vars=("x", "y"))
    guarded = relativize(s, idempotence_guard())
    assert guarded.vars == ("x", "y")
    assert guarded.antecedents == ((Mul(x, x), x), (Mul(y, y), y))
    assert guarded.consequent == (Mul(x, y), Mul(y, x))
    assert str(guarded) == "x*x = x & y*y = y -> x*y = y*x"


def test_relativize_closed_sentence_unchanged():
    s = horn_sentence(((parse("0"), parse("1")),), FALSUM, vars=())
    assert relativize(s, idempotence_guard()) == s


def test_relativize_adds_one_guard_per_variable():
    s = horn_sentence(((x, parse("0")),), (x, parse("0")), vars=("x",))
    guarded = relativize(s, idempotence_guard())
    assert len(guarded.antecedents) == len(s.antecedents) + len(s.vars)


def test_delta_substitutes_its_variable():
    guard = idempotence_guard()
    assert guard.at("y") == ((Mul(y, y), y),)


def test_parse_equation_demands_one_equals():
    assert parse_equation("x = y") == (x, y)
    with pytest.raises(ValueError):
        parse_equation("x")
    with pytest.raises(ValueError):
        parse_equation("x = y = z")


@pytest.mark.parametrize("line", ["x = y", "x = y -> y = x -> x = x"])
def test_theory_line_needs_one_arrow(line):
    with pytest.raises(ValueError) as info:
        parse_theory(f"-> x = x\n{line}\n")
    assert str(info.value) == "line 2: expected exactly one '->'"


def test_guard_atoms_use_only_the_guard_variable():
    with pytest.raises(ValueError, match="guard atoms must use exactly the variable 'x'"):
        Delta("x", ((Mul(y, y), y),))


def test_theory_round_trip():
    text = "\n".join(
        [
            "# comment line",
            "-> x + y = y + x",
            "x + x = 0 -> x = 0",
            "0 = 1 -> false",
            "",
        ]
    )
    theory = parse_theory(text)
    assert len(theory) == 3
    assert theory[2].consequent is FALSUM
    assert parse_theory(format_theory(theory)) == theory


def test_holds_total_commutativity():
    q = total_max_with_zero()
    assert holds_total(q, identity(Add(x, y), Add(y, x))).holds


def test_holds_total_no_inverses():
    q = total_max_with_zero()
    verdict = holds_total(q, identity(Add(x, x), parse("0")))
    assert not verdict.holds
    assert verdict.witness == {"x": "1"}


def test_holds_total_reflexive_equation():
    q = total_max_with_zero()
    assert holds_total(q, identity(x, x)).holds


def test_holds_total_rejects_partial_algebras():
    partial = FinitePartialAlgebra(("0", "1"), (("+", 2),), {"+": {}})
    with pytest.raises(ValueError):
        holds_total(partial, identity(x, x))
