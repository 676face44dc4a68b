"""The value classes: hand-written term nodes and ``errors.Value``
records behave as the frozen dataclasses they replaced."""

import copy
import dataclasses
import inspect
import pickle
import random
import sys
from importlib import import_module
from pathlib import Path

import pytest

import boolelab
from boolelab.algebra import (
    UNDEFINED,
    CheckVerdict,
    FinitePartialAlgebra,
    Presentation,
    SatisfactionVerdict,
)
from boolelab.classes import ChiVerdict, ClassAlgebra, IntVector, SemanticVerdict, build_pu
from boolelab.derivation import (
    Certificate,
    CertificateCheck,
    Congruence,
    DeltaIdempotence,
    DerivationTrace,
    IntegerSimplification,
    NoNilpotent,
    Premiss,
    Refl,
    RingAxiomInstance,
    Sym,
    TraceStep,
    TraceVerdict,
    Trans,
)
from boolelab.errors import Value
from boolelab.horn import FALSUM, Delta, HornSentence
from boolelab.models import EmbedSearchResult
from boolelab.polynomial import (
    InterpretVerdict,
    MultilinearPoly,
    OracleVerdict,
    expand,
    normalize,
)
from boolelab.problems import Problem
from boolelab.terms import Add, IntLit, Mul, Sub, Term, Var, parse
from helpers import (
    random_term,
    reference_Add,
    reference_Certificate,
    reference_IntLit,
    reference_Mul,
    reference_OracleVerdict,
    reference_Sub,
    reference_term,
    reference_Var,
    snippet_output,
)

SUBMODULES = sorted(p.stem for p in Path(boolelab.__file__).parent.glob("[a-z]*.py"))


def _random_terms(count=500, seed=20140):
    rng = random.Random(seed)
    return [random_term(rng, ("x", "y", "z"), rng.randint(1, 5)) for _ in range(count)]


def test_terms_agree_with_the_reference_dataclasses():
    terms = _random_terms()
    refs = [reference_term(t) for t in terms]
    for t, r in zip(terms, refs):
        assert repr(t) == repr(r)
        assert hash(t) == hash(r)
        assert t == rebuilt(t)
    for t, r in zip(terms, refs):
        for u, s in zip(terms, refs):
            assert (t == u) == (r == s)
            assert (t != u) == (r != s)


def sum_of_x(depth, side):
    """x + x + ... + x with ``depth`` additions, nested to the given side."""
    t = Var("x")
    for _ in range(depth):
        t = Add(t, Var("x")) if side == "left" else Add(Var("x"), t)
    return t


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_terms_print_and_hash(side):
    # at depth 400 the recursive reference dataclasses still print and
    # hash, given room (their repr takes two frames a level); 3000 is
    # far past the interpreter's recursion limit
    t, ref = sum_of_x(400, side), reference_term(sum_of_x(400, side))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    try:
        assert repr(t) == repr(ref) and hash(t) == hash(ref)
    finally:
        sys.setrecursionlimit(limit)
    t = sum_of_x(3000, side)
    if side == "left":
        text = "Add(left=" * 3000 + "Var(name='x')" + ", right=Var(name='x'))" * 3000
    else:
        text = "Add(left=Var(name='x'), right=" * 3000 + "Var(name='x')" + ")" * 3000
    assert repr(t) == text
    assert hash(t) == hash((t.left, t.right)) == hash(sum_of_x(3000, side))


def rebuilt(t):
    """An equal tree that shares no node with t."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, IntLit):
        return IntLit(t.value)
    return type(t)(rebuilt(t.left), rebuilt(t.right))


def test_class_is_part_of_equality():
    assert Premiss() != Refl()
    assert Sym(1) != IntegerSimplification(1)
    a, b = Var("a"), Var("b")
    assert Add(a, b) != Sub(a, b)
    assert Add(a, b) != Mul(a, b)
    assert Sub(a, b) != Mul(a, b)
    assert Add(a, b) == Add(Var("a"), Var("b"))
    assert Var("x") != IntLit(1) and IntLit(1) != Var("x")
    assert reference_Add(1, 2) != reference_Sub(1, 2)


_NODES = [Var("x"), IntLit(3), Add(Var("x"), IntLit(1)), Sub(IntLit(0), Var("y")), Mul(Var("x"), Var("x"))]


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_term_fields_are_read_only(node):
    field = "name" if isinstance(node, Var) else "value" if isinstance(node, IntLit) else "left"
    with pytest.raises(AttributeError):
        setattr(node, field, Var("z"))
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert getattr(node, field) is not None


def _error(call):
    try:
        call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


_BAD_CALLS = [
    ("Var", (), {}),
    ("Var", ("1x",), {}),
    ("Var", ("",), {}),
    ("Var", ("x", "y"), {}),
    ("Var", (), {"nom": "x"}),
    ("IntLit", (-1,), {}),
    ("IntLit", (), {}),
    ("IntLit", (1, 2), {}),
    ("Add", (), {}),
    ("Add", (1,), {}),
    ("Sub", (1, 2, 3), {}),
    ("Mul", (1,), {"left": 2}),
    ("Mul", (1, 2), {"other": 3}),
    ("OracleVerdict", (), {}),
    ("OracleVerdict", (True, None, 3), {}),
    ("OracleVerdict", (True,), {"valid": False}),
    ("OracleVerdict", (True,), {"witnes": {}}),
    ("Certificate", (0, ()), {}),
    ("Certificate", (1,), {}),
    ("Certificate", (), {}),
    ("Certificate", (1, (), 3), {}),
    ("Certificate", (), {"cofactors": ()}),
]

_NEW = {"Var": Var, "IntLit": IntLit, "Add": Add, "Sub": Sub, "Mul": Mul,
        "OracleVerdict": OracleVerdict, "Certificate": Certificate}
_REFERENCE = {"Var": reference_Var, "IntLit": reference_IntLit, "Add": reference_Add,
              "Sub": reference_Sub, "Mul": reference_Mul,
              "OracleVerdict": reference_OracleVerdict, "Certificate": reference_Certificate}


@pytest.mark.parametrize("name, args, kwargs", _BAD_CALLS)
def test_construction_errors_are_unchanged(name, args, kwargs):
    new = _error(lambda: _NEW[name](*args, **kwargs))
    assert new == _error(lambda: _REFERENCE[name](*args, **kwargs))


def test_missing_arguments_are_listed_as_a_def_lists_them():
    class Three(Value):
        a: int
        b: int
        c: int

    assert _error(lambda: Three())[1] == (
        "test_missing_arguments_are_listed_as_a_def_lists_them.<locals>.Three.__init__()"
        " missing 3 required positional arguments: 'a', 'b', and 'c'"
    )
    assert _error(lambda: Three(1))[1].endswith("arguments: 'b' and 'c'")
    assert _error(lambda: Premiss(1))[1] == (
        "Premiss.__init__() takes 1 positional argument but 2 were given"
    )


def test_a_default_before_a_non_default_field_is_refused_as_a_dataclass_refuses_it():
    def value_class():
        class Late(Value):
            a: int = 0
            b: int

    def reference():
        @dataclasses.dataclass(frozen=True)
        class Late:
            a: int = 0
            b: int

    assert _error(value_class) == _error(reference)


def test_a_subclass_defined_after_its_parent_was_built_takes_both_fields():
    class Parent(Value):
        a: int

    assert Parent(1).a == 1

    class Child(Parent):
        b: int = 2

    assert (Child(1, 3).b, Child(1).b, Child(b=4, a=1).b) == (3, 2, 4)
    assert Parent(5) == Parent(a=5)


def test_an_init_a_class_defines_is_kept():
    class Doubled(Value):
        a: int

        def __init__(self, a):
            super().__init__(2 * a)

    own = Doubled.__dict__["__init__"]
    assert (Doubled(2).a, Doubled(3).a) == (4, 6)
    assert Doubled.__dict__["__init__"] is own


def test_a_field_named_self_constructs_positionally():
    class Odd(Value):
        self: int
        other: int = 0

    assert (Odd(1).self, Odd(1, 2).other, Odd(self=3).self) == (1, 2, 3)


def test_a_class_writes_its_init_once():
    class Once(Value):
        a: int

    Once(1)
    written = Once.__init__
    assert written is not Value.__init__
    assert list(inspect.signature(written).parameters) == ["self", "a"]
    Once(2)
    assert Once.__init__ is written


def test_the_signature_lists_the_fields_with_their_defaults():
    Problem((), (Var("x"), Var("x")))
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in inspect.signature(Problem).parameters.values()] == [
        ("premisses", empty),
        ("conclusion", empty),
        ("mode", "hailperin"),
        ("max_n", 3),
    ]


def test_a_polynomial_is_a_read_only_value():
    p = MultilinearPoly(("b",), {frozenset("a"): 2, frozenset("c"): 0})
    assert isinstance(p, Value) and p.vars == ("a", "b", "c")
    for how in _ROUND_TRIPS.values():
        back = how(p)
        assert type(back) is MultilinearPoly and back == p and back.vars == p.vars
    with pytest.raises(AttributeError, match="cannot assign to field 'vars'"):
        p.vars = ()
    with pytest.raises(AttributeError, match="cannot delete field '_coeffs'"):
        del p._coeffs
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p.coeffs == {frozenset("a"): 2}


def test_verdicts_agree_with_the_reference_dataclasses():
    poly = normalize(parse("x - x*y"))
    pairs = [
        (OracleVerdict(True), reference_OracleVerdict(True)),
        (OracleVerdict(False, {"x": 1, "y": 0}), reference_OracleVerdict(False, {"x": 1, "y": 0})),
        (OracleVerdict(valid=False, witness={}), reference_OracleVerdict(False, {})),
        (Certificate(2, (poly,)), reference_Certificate(2, (poly,))),
        (Certificate(cofactors=(), n=1), reference_Certificate(1, ())),
    ]
    for new, ref in pairs:
        assert repr(new) == repr(ref)
        assert new == type(new)(*dataclasses.astuple(ref, tuple_factory=tuple))
        assert new != ref
    for new, ref in pairs[:1] + pairs[3:]:
        assert hash(new) == hash(ref)
    with pytest.raises(TypeError, match="unhashable"):
        hash(pairs[1][0])


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(SatisfactionVerdict, "holds", id="SatisfactionVerdict"),
        pytest.param(CheckVerdict, "ok", id="CheckVerdict"),
        pytest.param(lambda ok: ChiVerdict(ok, 4), "ok", id="ChiVerdict"),
        pytest.param(lambda valid: SemanticVerdict(valid, 3), "valid", id="SemanticVerdict"),
        pytest.param(CertificateCheck, "verified", id="CertificateCheck"),
        pytest.param(TraceVerdict, "accepted", id="TraceVerdict"),
        pytest.param(OracleVerdict, "valid", id="OracleVerdict"),
        pytest.param(
            lambda found: EmbedSearchResult(1, *((build_pu(1), {}) if found else ())),
            "found",
            id="EmbedSearchResult",
        ),
    ],
)
def test_a_verdict_is_true_exactly_when_its_flag_is(make, field, flag):
    record = make(flag)
    assert getattr(record, field) is flag
    assert bool(record) is flag


def test_undefined_is_false_and_prints_its_name():
    assert bool(UNDEFINED) is False
    assert repr(UNDEFINED) == "UNDEFINED"
    assert type(UNDEFINED)() is UNDEFINED


def test_value_fields_are_read_only_and_defaults_apply():
    v = TraceVerdict(False, 3)
    assert (v.accepted, v.step, v.reason) == (False, 3, None)
    assert vars(Trans(1, 2)) == {"first": 1, "second": 2}
    with pytest.raises(AttributeError, match="cannot assign to field 'step'"):
        v.step = 4
    with pytest.raises(AttributeError, match="cannot delete field 'step'"):
        del v.step
    with pytest.raises(AttributeError):
        v.extra = 1
    eq = (Var("x"), Var("x"))
    assert (Problem((), eq).mode, Problem((), eq).max_n) == ("hailperin", 3)
    assert Problem((), eq, "sigma1").max_n == 3


def test_own_equality_and_cached_properties_survive():
    a = FinitePartialAlgebra(("0",), (("+", 2),), {"+": {}})
    b = FinitePartialAlgebra(("0",), (("+", 2),), {})
    assert a == b and hash(a) == hash(b)  # empty tables do not count
    assert a._layout is a._layout


def _samples():
    x, y = Var("x"), Var("y")
    poly = normalize(parse("x - x*y"))
    algebra = FinitePartialAlgebra(
        ("0", "1"), (("+", 2), ("0", 0)), {"+": {("0", "0"): "0", ("0", "1"): "1"}, "0": {(): "0"}}
    )
    rule = Congruence(1, Add(Var("HOLE"), y))
    step = TraceStep(x, x, Refl())
    return _NODES + [
        algebra,
        SatisfactionVerdict(False, {"x": "0"}),
        CheckVerdict(False, "no"),
        Presentation(tuple(algebra.defined_entries()), (("0", "1"),)),
        ClassAlgebra(1, algebra),
        IntVector((1, 0, 1)),
        ChiVerdict(False, 3, "mismatch"),
        SemanticVerdict(False, 3, 1, {"x": "{0}"}),
        Certificate(2, (poly,)),
        CertificateCheck(False, poly),
        Premiss(),
        RingAxiomInstance(),
        DeltaIdempotence(Mul(x, y)),
        Refl(),
        Sym(1),
        Trans(1, 2),
        rule,
        NoNilpotent(1, 2),
        IntegerSimplification(1),
        step,
        DerivationTrace(((x, y),), (step, TraceStep(x, y, Premiss()))),
        TraceVerdict(False, 2, "why"),
        HornSentence(("x", "y"), ((x, y),), FALSUM),
        HornSentence(("x",), (), (Mul(x, x), x)),
        Delta("x", ((Mul(x, x), x),)),
        EmbedSearchResult(4, algebra, {"0": "0"}),
        poly,
        expand(poly),
        InterpretVerdict("conditionally-interpretable", ((1, 0),)),
        OracleVerdict(False, {"x": 1}),
        Problem(((x, y),), (y, x), "sigma1", 2),
    ]


def _value_classes():
    """Every class of the package that is a value: term nodes, Value
    subclasses, the remaining dataclasses and the polynomials."""
    found = set()
    for name in SUBMODULES:
        module = import_module(f"boolelab.{name}")
        for obj in vars(module).values():
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            if obj is Value or obj is Term or obj.__name__ == "_Binary":
                continue
            if issubclass(obj, (Value, Term, MultilinearPoly)) or dataclasses.is_dataclass(obj):
                found.add(obj)
    return found


_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", sorted(_ROUND_TRIPS))
def test_every_value_class_round_trips(how):
    samples = _samples()
    assert {type(v) for v in samples} == _value_classes()
    for value in samples:
        back = _ROUND_TRIPS[how](value)
        assert type(back) is type(value)
        assert back == value, repr(value)
        assert repr(back) == repr(value)
    falsum = _ROUND_TRIPS[how](HornSentence(("x", "y"), ((Var("x"), Var("y")),), FALSUM))
    assert falsum.consequent is FALSUM


def test_check_leaves_two_dataclasses():
    # the benchmark's answer checks call dataclasses.replace on these two
    code = (
        "import inspect, sys\n"
        "from boolelab.cli import run\n"
        "if run(sys.argv[1:]):\n"
        "    sys.exit(1)\n"
        "print(*sorted(\n"
        "    c.__name__ for n, m in list(sys.modules.items()) if n.startswith('boolelab.')\n"
        "    for c in vars(m).values()\n"
        "    if inspect.isclass(c) and c.__module__ == n and hasattr(c, '__dataclass_fields__')))\n"
    )
    last = snippet_output(code, "check", "problems/barbara.prob")[-1]
    assert last.split() == ["InterpretVerdict", "SemanticVerdict"]
