"""Grammar, parser, and printer behaviour."""

import random

import pytest

from boolelab.terms import (
    Add,
    IntLit,
    Mul,
    ParseError,
    Sub,
    Var,
    _tokenize,
    count_var,
    fold,
    parse,
    parse_int,
    pretty,
    substitute,
    variables,
)
from boolelab.errors import CapExceeded
from helpers import (
    exhaustive_terms,
    leaves,
    random_term,
    reference_count_var,
    reference_equal,
    reference_parse,
    reference_pretty,
    reference_substitute,
    reference_tokenize,
    with_leaf,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_parse_product():
    assert parse("x*y") == Mul(x, y)


def test_parse_squared_double():
    # squares are entered as explicit products
    assert parse("(2x)*(2x)") == Mul(Mul(IntLit(2), x), Mul(IntLit(2), x))


def test_parse_precedence():
    assert parse("x + y - x y") == Sub(Add(x, y), Mul(x, y))


def test_parse_left_associative():
    assert parse("x - y - z") == Sub(Sub(x, y), z)
    assert parse("x*y*z") == Mul(Mul(x, y), z)


def test_juxtaposition():
    assert parse("2x") == Mul(IntLit(2), x)
    assert parse("x (y + z)") == Mul(x, Add(y, z))
    assert parse("x y z") == Mul(Mul(x, y), z)


def test_pretty_product():
    assert pretty(Mul(x, y)) == "x*y"


def test_pretty_zero_minus():
    assert pretty(Sub(IntLit(0), x)) == "0 - x"


def test_pretty_sum_of_product():
    assert pretty(Add(x, Mul(y, z))) == "x + y*z"


def test_unary_minus_rejected():
    for text in ("-x", "x + -y", "(-x)"):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert "0 - t" in str(info.value)


def test_syntax_errors_have_positions():
    for text in ("x +", "(", "x )", ")", "x * * y", ""):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position >= 0


def test_identifiers():
    assert parse("alpha_2 + B9") == Add(Var("alpha_2"), Var("B9"))


def test_constructor_validation():
    with pytest.raises(ValueError):
        IntLit(-1)
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("2x")


def test_variables_sorted_unique():
    assert variables(parse("y*x + y - 1")) == ("x", "y")


def depth(t):
    """Nodes on the longest root-to-leaf path, as a fold."""
    return fold(t, lambda leaf: 1, lambda node, a, b: 1 + max(a, b))


def test_depth_counts_leaves_as_one():
    assert depth(x) == 1
    assert depth(parse("x + y")) == 2
    assert depth(parse("x*(y + z)")) == 3
    assert depth(parse("x + (y + z)*y - x")) == 5
    # iterative: far past the interpreter's recursion limit
    assert depth(parse("x + (" * 2999 + "y" + ")" * 2999)) == 3000
    assert depth(parse("+".join(["x"] * 3000))) == 3000


def test_fold_visits_left_before_right_in_post_order():
    seen = []
    t = parse("(x - 2)*y + z")
    assert fold(t, seen.append, lambda n, a, b: seen.append(n.__class__.__name__)) is None
    assert seen == [x, IntLit(2), "Sub", y, "Mul", z, "Add"]
    # each node gets its left operand's result first
    assert fold(t, lambda leaf: leaf, lambda n, a, b: n.__class__(a, b)) == t
    assert fold(IntLit(7), lambda leaf: leaf.value, None) == 7
    for bad in (None, 3, "x", Add(x, None)):
        with pytest.raises(TypeError, match="not a term"):
            fold(bad, lambda leaf: 0, lambda n, a, b: 0)


def test_round_trip_random():
    rng = random.Random(20210)
    for _ in range(300):
        t = random_term(rng, ("x", "y", "z"), rng.randint(1, 6))
        assert parse(pretty(t)) == t


def test_round_trip_exhaustive_shallow():
    leaves = (x, y, IntLit(0), IntLit(2))
    for t in exhaustive_terms(leaves, 2):
        assert parse(pretty(t)) == t


def test_parser_totality_fuzz():
    # every input either parses or raises a positioned ParseError
    rng = random.Random(7)
    alphabet = "xy01+-*() "
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse(text)
        except ParseError as err:
            assert err.position >= 0


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return ("error", str(err), err.position)


def test_parse_matches_recursive_reference():
    """The explicit-stack parser against the recursive one: equal trees,
    or the same message at the same position.  Texts are printed random
    terms with extra parentheses, then some of them damaged by deleting,
    inserting or swapping characters, plus random strings."""
    rng = random.Random(1854)
    alphabet = "xy01+-*() 2"
    texts = []
    for _ in range(600):
        text = pretty(random_term(rng, ("x", "y", "z"), rng.randint(1, 6)))
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(text))
            j = rng.randint(i, len(text))
            text = text[:i] + "(" + text[i:j] + ")" + text[j:]
        texts.append(text)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            edit = rng.choice(("delete", "insert", "swap"))
            if edit == "delete":
                text = text[:i] + text[i + 1 :]
            elif edit == "insert":
                text = text[:i] + rng.choice(alphabet) + text[i:]
            else:
                text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
            texts.append(text)
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14))) for _ in range(600)]
    errors = 0
    for text in texts:
        got = _parse_outcome(parse, text)
        assert got == _parse_outcome(reference_parse, text), text
        errors += isinstance(got, tuple)
    assert 300 < errors < len(texts) - 300


def test_tokenize_matches_character_loop():
    """The one-scan tokenizer against the character loop it replaced:
    the same tokens, or the same message at the same position, also
    for the characters that only some notions of space, letter or digit
    include."""
    rng = random.Random(1847)
    alphabet = "xyZ_09+-*() \t\n#.=" + "\u2003\x1c\x85\u0661\u00b2\u00e9"
    errors = 0
    for _ in range(4000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        got = _parse_outcome(_tokenize, text)
        assert got == _parse_outcome(reference_tokenize, text), repr(text)
        errors += isinstance(got, tuple)
    assert 400 < errors < 3600  # both outcomes are common


def test_parse_int_takes_digit_strings_only():
    assert parse_int("0") == 0
    assert parse_int("0042") == 42
    # the digits of the term grammar, so a literal reads the same in a term
    assert parse(str(parse_int("\u0661\u0662"))) == parse("\u0661\u0662")
    for text in ("", " 3", "+3", "-2", "3_000", "1.5", "\u00b2", "0x1f", "abc"):
        with pytest.raises(ValueError, match="expected an unsigned integer"):
            parse_int(text)
    with pytest.raises(CapExceeded, match="an integer literal exceeds the limit"):
        parse_int("9" * 5000)


def test_pretty_matches_recursive_reference():
    rng = random.Random(1815)
    for _ in range(500):
        t = random_term(rng, ("x", "y", "z"), rng.randint(1, 7))
        assert pretty(t) == reference_pretty(t)


def test_parse_and_pretty_any_depth():
    # far past the interpreter's recursion limit; strings are compared,
    # because comparing such deep trees would itself recurse
    nested = "(" * 3000 + "x" + ")" * 3000
    assert parse(nested) == x
    t = x
    for i in range(3000):
        t = Sub(y, t) if i % 2 else Mul(t, Add(x, IntLit(2)))
    text = pretty(t)
    assert text.count("(") == 1500 + 1499  # every (x + 2), every inner difference
    assert pretty(parse(text)) == text
    with pytest.raises(ParseError) as info:
        parse("(" * 3000 + "x")
    assert info.value.position == 3001


def test_term_walks_match_recursive_references():
    # equality, count_var and substitute against the recursive walks they
    # replaced, on random terms and HOLE contexts; the terms compared
    # with each one are an equal copy sharing no node, the same term
    # with one leaf changed, its left operand, its square and a fresh one
    rng = random.Random(20261019)
    names = ("x", "y", "HOLE")
    unequal = 0
    for _ in range(600):
        t = random_term(rng, names, rng.randint(1, 6))
        others = [
            parse(pretty(t)),
            with_leaf(t, rng.randrange(len(leaves(t))), rng.choice((z, IntLit(2)))),
            getattr(t, "left", x),
            Mul(t, t),
            random_term(rng, names, 4),
        ]
        for u in others:
            expected = reference_equal(t, u)
            assert (t == u) is expected and (u == t) is expected
            assert (t != u) is not expected
            unequal += not expected
        for name in names:
            assert count_var(t, name) == reference_count_var(t, name)
        s = random_term(rng, ("x", "y"), 3)
        for mapping in ({"HOLE": s}, {"x": s, "y": t}, {}):
            assert reference_equal(substitute(t, mapping), reference_substitute(t, mapping))
    assert unequal > 1000
