"""Total-model enumeration, law sets, and bounded embedding search."""

import random

import pytest

from boolelab import models
from boolelab.algebra import FinitePartialAlgebra, UnknownSymbolError, eval_term, holds, holds_total
from boolelab.counterexamples import intro_algebra, intro_laws
from boolelab.errors import CapExceeded
from boolelab.horn import FALSUM, Delta, horn_sentence, identity, parse_theory, relativize
from boolelab.models import (
    MAX_LITERAL,
    embeds_into_mod_bounded,
    enumerate_total_models,
    hailperin_laws,
    search_total_model,
    signature_of,
)
from boolelab.terms import Add, IntLit, Var, parse
from helpers import (
    random_plus_sentence,
    random_ring_sentence,
    reference_signature_of,
    reference_total_models,
    small_algebras,
)

x, y = Var("x"), Var("y")

COMMUTATIVE = identity(parse("x + y"), parse("y + x"))


def test_signature_constants_first():
    falsum_line = horn_sentence(((parse("0"), parse("1")),), FALSUM, vars=())
    sig = signature_of((COMMUTATIVE, falsum_line))
    assert sig == (("0", 0), ("1", 0), ("+", 2))


def test_signature_desugars_large_literals():
    s = identity(parse("2*x"), parse("x + x"))
    assert signature_of((s,)) == (("1", 0), ("*", 2), ("+", 2))


def test_signature_respects_base():
    sig = signature_of((COMMUTATIVE,), base=(("-", 2),))
    assert sig == (("-", 2), ("+", 2))


def ring_theories(seed: int, count: int):
    """Seeded theories of one or two ``random_ring_sentence``s."""
    rng = random.Random(seed)
    return [
        tuple(random_ring_sentence(rng) for _ in range(rng.randint(1, 2)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("base", [(), (("*", 2), ("0", 0))])
def test_signature_matches_the_recursive_walk(base):
    theories = ring_theories(2510, 300)
    assert any(s.consequent is FALSUM for theory in theories for s in theory)
    for theory in theories:
        assert signature_of(theory, base) == reference_signature_of(theory, base)


def assert_same_sequence(sentences, size, base_signature=()):
    """The watched-cell search yields exactly the reference's models, in
    the reference's order; returns how many."""
    got = list(enumerate_total_models(sentences, size, base_signature))
    want = list(reference_total_models(sentences, size, base_signature))
    assert [(m.signature, m.tables) for m in got] == [
        (m.signature, m.tables) for m in want
    ]
    return len(got)


@pytest.mark.parametrize("size, count", [(2, 8), (3, 729)])
def test_commutative_order_matches_reference(size, count):
    assert assert_same_sequence((COMMUTATIVE,), size) == count


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("base", [(), intro_algebra().signature])
def test_intro_order_matches_reference(size, base):
    assert assert_same_sequence(intro_laws(), size, base) == (1 if size == 1 else 0)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_hailperin_matches_reference(size):
    assert assert_same_sequence(hailperin_laws(), size) == 0


def test_random_theories_match_reference():
    rng = random.Random(1412)
    sizes_with_models = set()
    for _ in range(30):
        theory = tuple(random_plus_sentence(rng) for _ in range(rng.randint(1, 3)))
        size = rng.randint(1, 3)
        if assert_same_sequence(theory, size):
            sizes_with_models.add(size)
    assert sizes_with_models == {1, 2, 3}


def test_ring_theories_match_reference():
    with_models = 0
    for theory in ring_theories(2511, 40):
        for size in (1, 2):
            with_models += assert_same_sequence(theory, size) > 0
    assert 0 < with_models < 80


def test_first_commutative_model_is_constant():
    model = search_total_model((COMMUTATIVE,), 2)
    assert model.is_total()
    assert model.tables == {
        "+": {
            ("e0", "e0"): "e0",
            ("e0", "e1"): "e0",
            ("e1", "e0"): "e0",
            ("e1", "e1"): "e0",
        }
    }
    assert holds_total(model, COMMUTATIVE).holds


def test_enumerated_models_satisfy_the_theory():
    count = 0
    for model in enumerate_total_models((COMMUTATIVE,), 2):
        assert model.is_total()
        assert holds_total(model, COMMUTATIVE).holds
        count += 1
    # commutative tables on two elements: free choice on the diagonal
    # and one value for the symmetric off-diagonal pair
    assert count == 8


def test_intro_laws_admit_only_the_point():
    counts = [
        sum(1 for _ in enumerate_total_models(intro_laws(), size))
        for size in (1, 2, 3, 4)
    ]
    assert counts == [1, 0, 0, 0]


def test_collapse_with_distinct_constants_has_no_model():
    sentences = (
        identity(x, y),
        horn_sentence(((parse("0"), parse("1")),), FALSUM, vars=()),
    )
    for size in (1, 2, 3, 4):
        assert search_total_model(sentences, size) is None


def test_sugar_in_theories_is_searchable():
    model = search_total_model((identity(parse("2*x"), parse("x + x")),), 1)
    assert model is not None
    assert model.is_total()


def test_search_fills_any_number_of_cells():
    # one slot per table cell with no recursion: 1600 cells at size 40,
    # and two commuting operations of 529 cells each at size 23
    model = search_total_model((COMMUTATIVE,), 40, max_size=40)
    assert set(model.tables["+"].values()) == {"e0"}
    both = (COMMUTATIVE, identity(parse("x * y"), parse("y * x")))
    model = search_total_model(both, 23, max_size=23)
    assert all(holds_total(model, law).holds for law in both)
    # a theory with no operation symbols has the one empty table
    assert len(list(enumerate_total_models((identity(x, x),), 3))) == 1


def test_size_cap():
    with pytest.raises(CapExceeded):
        search_total_model((COMMUTATIVE,), 5)
    with pytest.raises(ValueError):
        search_total_model((COMMUTATIVE,), 0)


def test_hailperin_law_set_shape():
    laws = hailperin_laws()
    assert len(laws) == 13
    assert laws[-1].consequent is FALSUM
    assert sum(1 for s in laws if s.antecedents and s.consequent is not FALSUM) == 3
    assert len(hailperin_laws(nilpotent_bound=2)) == 11


def test_hailperin_has_no_tiny_models():
    # sizes 1..3 here; the acceptance gate pushes the bound to 4
    for size in (1, 2, 3):
        assert search_total_model(hailperin_laws(), size) is None


def test_embedding_search_blocked_for_intro():
    result = embeds_into_mod_bounded(intro_algebra(), intro_laws(), 4)
    assert not result.found
    assert not result
    assert result.max_size == 4
    assert result.model is None
    assert result.mapping is None


def test_embedding_search_bound_over_the_cap():
    with pytest.raises(CapExceeded, match="model size bound 5 exceeds the limit of 4"):
        embeds_into_mod_bounded(intro_algebra(), intro_laws(), 5)


def test_embedding_search_into_commutative_models():
    result = embeds_into_mod_bounded(intro_algebra(), (COMMUTATIVE,), 4)
    assert result.found
    assert result.mapping == {"0": "e0", "1": "e1"}
    assert result.model.carrier == ("e0", "e1")
    assert result.model.tables == {
        "+": {
            ("e0", "e0"): "e0",
            ("e0", "e1"): "e0",
            ("e1", "e0"): "e0",
            ("e1", "e1"): "e1",
        }
    }


def test_embedding_search_empty_theory_totalizes():
    result = embeds_into_mod_bounded(intro_algebra(), (), 4)
    assert result.found
    assert result.mapping == {"0": "e0", "1": "e1"}
    for op, args, value in intro_algebra().defined_entries():
        image = tuple(result.mapping[a] for a in args)
        assert result.model.tables[op][image] == result.mapping[value]


def test_transfer_through_embeddings():
    """Consequence transfers along an embedding into total models.

    Whenever some total model of the theory receives the partial
    algebra, every relativized sentence holding in that model holds in
    the partial algebra too, provided the guard is total there and
    satisfied.  Randomized over the small-algebra enumeration.
    """
    rng = random.Random(2718)
    algebras = small_algebras()
    guard = Delta("x", ((Add(x, x), x),))
    guard_sentence = horn_sentence((), (Add(x, x), x), vars=("x",))
    exercised = 0
    for _ in range(500):
        p = rng.choice(algebras)
        theory = tuple(random_plus_sentence(rng) for _ in range(rng.randint(1, 2)))
        sigma = random_plus_sentence(rng)
        if not all((e, e) in p.tables.get("+", {}) for e in p.carrier):
            continue  # guard not total on p
        if not holds(p, guard_sentence).holds:
            continue
        result = embeds_into_mod_bounded(p, theory, 2)
        if not result.found:
            continue
        if not holds_total(result.model, relativize(sigma, guard)).holds:
            continue
        exercised += 1
        assert holds(p, sigma).holds, (p, theory, sigma)
    assert exercised > 20


def test_embeddings_preserve_term_values():
    # spot check on the witness from the commutative search
    result = embeds_into_mod_bounded(intro_algebra(), (COMMUTATIVE,), 4)
    t = parse("x + (y + y)")
    for a in intro_algebra().carrier:
        for b in intro_algebra().carrier:
            value = eval_term(intro_algebra(), t, {"x": a, "y": b})
            if value == "0" or value == "1":
                image = eval_term(
                    result.model, t, {"x": result.mapping[a], "y": result.mapping[b]}
                )
                assert image == result.mapping[value]


def test_a_symbol_with_two_arities_is_refused_before_any_instance(monkeypatch):
    monkeypatch.setattr(models, "_instances", lambda *args: pytest.fail("an instance was built"))
    # an algebra cannot declare these arities, so the base signature is given directly
    with pytest.raises(ValueError, match=r"'\+' is used with arity 1 and with arity 2"):
        next(enumerate_total_models([COMMUTATIVE], 2, base_signature=(("+", 1),)))
    with pytest.raises(ValueError, match="'1' is used with arity 2 and with arity 0"):
        next(enumerate_total_models([identity(parse("x + 1"), x)], 2, base_signature=(("1", 2),)))


def test_holds_total_reads_a_literal_as_the_model_search_does():
    theory = parse_theory("-> x + 0 = x\n-> 1 + 1 = 0\n0 = 1 -> false\n")
    model = search_total_model(theory, 2)
    two_is_one, two_is_zero = parse_theory("-> 2 = 1\n-> 2 = 0\n")
    # 2 is 1 + 1, which is 0 here and not 1
    assert not holds_total(model, two_is_one).holds
    assert not holds_total(model, identity(parse("1 + 1"), parse("1"))).holds
    assert holds_total(model, two_is_zero).holds
    assert search_total_model((*theory, two_is_one), 2) is None
    assert search_total_model((*theory, two_is_zero), 2) == model
    # holds keeps its partial reading: 2 names a constant the model lacks
    assert holds(model, two_is_one).holds
    with pytest.raises(CapExceeded, match=f"exceeds the limit of {MAX_LITERAL}"):
        holds_total(model, identity(x, IntLit(MAX_LITERAL + 1)))
    no_unit = FinitePartialAlgebra(("a",), (("+", 2),), {"+": {("a", "a"): "a"}})
    with pytest.raises(UnknownSymbolError, match="literal 2 needs the constant '1'"):
        holds_total(no_unit, identity(x, parse("2")))
