"""Problem-file parsing."""

from pathlib import Path

import pytest

from boolelab.counterexamples import barbara_conclusion, barbara_premisses
from boolelab.horn import parse_theory
from boolelab.models import hailperin_laws
from boolelab.problems import Problem, parse_problem
from boolelab.terms import parse

STOCK = Path(__file__).resolve().parents[1] / "problems"

BARBARA_TEXT = """\
# a classic
vars: x y z
premiss: x - x*y = 0
premiss: y - y*z = 0
conclude: x - x*z = 0
mode: hailperin
max_n: 3
"""


def test_parse_full_problem():
    problem = parse_problem(BARBARA_TEXT)
    assert problem == Problem(
        premisses=(
            (parse("x - x*y"), parse("0")),
            (parse("y - y*z"), parse("0")),
        ),
        conclusion=(parse("x - x*z"), parse("0")),
        mode="hailperin",
        max_n=3,
    )


def test_defaults():
    problem = parse_problem("conclude: x = x\n")
    assert problem.premisses == ()
    assert problem.mode == "hailperin"
    assert problem.max_n == 3


def test_sigma1_mode():
    assert parse_problem("conclude: x = 0\nmode: sigma1\n").mode == "sigma1"


def test_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_problem("conclude: x = x\nconclude: x = x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_problem("premiss: x + = 0\nconclude: x = x\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_problem("# fine\nconclude: x = x\nmode: none\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_problem("conclude: x = x\nmax_n: 0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_problem("frobnicate: 1\nconclude: x = x\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_problem("just some words\n")


def test_max_n_is_a_digit_string():
    assert parse_problem("conclude: x = x\nmax_n: 007\n").max_n == 7
    for value in ("+3", "3_000", "-2", "three", "3.0"):
        with pytest.raises(ValueError, match="line 2: expected an unsigned integer"):
            parse_problem(f"conclude: x = x\nmax_n: {value}\n")


def test_missing_conclusion():
    with pytest.raises(ValueError, match="conclude"):
        parse_problem("premiss: x = 0\n")


def test_stock_files_match_the_library_fixtures():
    barbara = parse_problem((STOCK / "barbara.prob").read_text())
    assert barbara == Problem(barbara_premisses(), barbara_conclusion())
    assert parse_theory((STOCK / "hailperin.thy").read_text()) == hailperin_laws(4)
