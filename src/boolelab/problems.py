"""Problem files: a ground argument plus optional checking directives.

Line-oriented, with '#' comments::

    vars: x y z          # accepted and ignored
    premiss: x - x*y = 0
    premiss: y - y*z = 0
    conclude: x - x*z = 0
    mode: hailperin      # or sigma1; governs trace checking
    max_n: 3             # universe bound for the semantic check

Exactly one conclude line is required; premiss lines may repeat or be
absent.  A ``vars`` line is accepted for older files and ignored:
variables are always listed in sorted order.
"""

from __future__ import annotations

from .errors import HAILPERIN, MODES, Value, read_lines
from .horn import Equation, parse_equation
from .terms import parse_int


class Problem(Value):
    premisses: tuple[Equation, ...]
    conclusion: Equation
    mode: str = HAILPERIN
    max_n: int = 3


def parse_problem(text: str) -> Problem:
    premisses = []
    conclusion = None
    given = {}  # the directives the file sets; Problem supplies the rest

    def read(line: str) -> None:
        nonlocal conclusion
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError("expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if key == "premiss":
            premisses.append(parse_equation(value))
        elif key == "conclude":
            if conclusion is not None:
                raise ValueError("second conclude line")
            conclusion = parse_equation(value)
        elif key == "vars":
            pass
        elif key == "mode":
            if value not in MODES:
                raise ValueError(f"mode must be one of {MODES}")
            given["mode"] = value
        elif key == "max_n":
            max_n = parse_int(value)
            if max_n < 1:
                raise ValueError("max_n must be at least 1")
            given["max_n"] = max_n
        else:
            raise ValueError(f"unknown key {key!r}")

    read_lines(text, read)
    if conclusion is None:
        raise ValueError("missing conclude line")
    return Problem(tuple(premisses), conclusion, **given)
