"""Universally quantified Horn sentences over the class signature.

A sentence is a conjunction of equational antecedents implying either a
single equation or falsum; negative facts such as 0 != 1 are written as
an antecedent equation with a falsum consequent.  Theory files carry
one sentence per line:

    ante1 & ante2 -> conseq        conditional equation
    -> conseq                      identity (no antecedents)
    ante -> false                  negative sentence

where each equation is ``term = term`` in the term grammar.
"""

from __future__ import annotations

from .errors import Value, read_lines
from .terms import Mul, Term, Var, parse, pretty, substitute, variables


class _Falsum:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FALSUM"


FALSUM = _Falsum()

Equation = tuple  # (Term, Term)


def equation_variables(eq: Equation) -> set[str]:
    return set(variables(eq[0])) | set(variables(eq[1]))


def format_equation(eq: Equation) -> str:
    return f"{pretty(eq[0])} = {pretty(eq[1])}"


def parse_equation(text: str) -> Equation:
    if text.count("=") != 1:
        raise ValueError(f"an equation needs exactly one '=': {text!r}")
    lhs, rhs = text.split("=")
    return (parse(lhs), parse(rhs))


class HornSentence(Value):
    """(forall vars) antecedents -> consequent.

    ``consequent`` is an equation or FALSUM; a falsum consequent needs
    at least one antecedent.  ``vars`` must cover every variable in the
    sentence and fixes the order used for witness assignments; None
    stands for the sorted variables of the sentence.
    """

    vars: tuple[str, ...]
    antecedents: tuple[Equation, ...]
    consequent: object

    def __post_init__(self):
        if self.consequent is FALSUM and not self.antecedents:
            raise ValueError("a falsum consequent needs at least one antecedent")
        used: set[str] = set()
        for t in self.all_terms():
            used.update(variables(t))
        if self.vars is None:
            object.__setattr__(self, "vars", tuple(sorted(used)))
        elif not used <= set(self.vars):
            missing = sorted(used - set(self.vars))
            raise ValueError(f"variables {missing} are not quantified")

    def all_terms(self) -> list[Term]:
        out = []
        for lhs, rhs in self.antecedents:
            out.append(lhs)
            out.append(rhs)
        if self.consequent is not FALSUM:
            out.append(self.consequent[0])
            out.append(self.consequent[1])
        return out

    def __str__(self):
        left = " & ".join(format_equation(eq) for eq in self.antecedents)
        right = "false" if self.consequent is FALSUM else format_equation(self.consequent)
        return f"{left} -> {right}".strip()


def horn_sentence(antecedents, consequent, vars=None) -> HornSentence:
    """Build a sentence, inferring sorted quantified variables if none
    are given."""
    return HornSentence(None if vars is None else tuple(vars), tuple(antecedents), consequent)


def identity(lhs: Term, rhs: Term, vars=None) -> HornSentence:
    return horn_sentence((), (lhs, rhs), vars)


class Delta(Value):
    """Conjunction of atomic conditions in one variable, used as the
    guard prepended by relativization."""

    var: str
    atoms: tuple[Equation, ...]

    def __post_init__(self):
        used: set[str] = set()
        for eq in self.atoms:
            used |= equation_variables(eq)
        if used != {self.var}:
            raise ValueError(f"guard atoms must use exactly the variable {self.var!r}")

    def at(self, name: str) -> tuple[Equation, ...]:
        """The guard instantiated at another variable."""
        m = {self.var: Var(name)}
        return tuple((substitute(l, m), substitute(r, m)) for l, r in self.atoms)


def idempotence_guard(var: str = "x") -> Delta:
    """The guard x*x = x marking x as a class symbol."""
    x = Var(var)
    return Delta(var, ((Mul(x, x), x),))


def relativize(sentence: HornSentence, delta: Delta) -> HornSentence:
    """Prepend the guard at every quantified variable.

    The quantifier block is unchanged; the guard instances come first,
    in quantifier order, followed by the original antecedents.
    """
    guards: list[Equation] = []
    for name in sentence.vars:
        guards.extend(delta.at(name))
    return HornSentence(
        sentence.vars, tuple(guards) + sentence.antecedents, sentence.consequent
    )


def parse_theory(text: str) -> tuple[HornSentence, ...]:
    """Parse a theory file; blank lines and '#' comments are skipped."""
    sentences = []

    def read(line: str) -> None:
        if line.count("->") != 1:
            raise ValueError("expected exactly one '->'")
        left, right = line.split("->")
        left = left.strip()
        right = right.strip()
        antecedents = tuple(
            parse_equation(part) for part in left.split("&") if part.strip()
        ) if left else ()
        consequent = FALSUM if right == "false" else parse_equation(right)
        sentences.append(horn_sentence(antecedents, consequent))

    read_lines(text, read)
    return tuple(sentences)


def format_theory(sentences) -> str:
    return "\n".join(str(s) for s in sentences) + "\n"
