"""Command-line surface: subcommands, exit codes, reports."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolelab import algebra, classes, cli
from boolelab.algebra import SatisfactionVerdict
from boolelab.classes import ChiVerdict, SemanticVerdict
from boolelab.cli import run
from boolelab.counterexamples import cx_trace
from boolelab.derivation import (
    _RULES,
    SIGMA1,
    DerivationTrace,
    TraceStep,
    check_trace,
    format_trace,
    parse_trace,
)
from boolelab.errors import CapExceeded
from boolelab.terms import parse
from helpers import modules_after, strip_timing

PKG_ROOT = Path(__file__).resolve().parents[1]
BARBARA = str(PKG_ROOT / "problems" / "barbara.prob")
BARBARA_TRACE = str(PKG_ROOT / "problems" / "barbara.trace")
COMMUTATIVE = str(PKG_ROOT / "problems" / "commutative.thy")
HAILPERIN_THY = str(PKG_ROOT / "problems" / "hailperin.thy")


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


SCHEMA = json.loads(resources.files("boolelab").joinpath("report.schema.json").read_text())


def invoke_json(capsys, argv):
    code = run(["--json"] + argv)
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema"] == "boolelab/1"
    assert doc["exit_code"] == code
    return code, doc


def test_normalize_text(capsys):
    code, out = invoke(capsys, ["normalize", "x*x - x"])
    assert code == 0
    assert strip_timing(out) == "term: x*x - x\nnormal form: 0"
    assert out.splitlines()[-1].startswith("time: ")


def test_normalize_product_of_complements(capsys):
    code, out = invoke(capsys, ["normalize", "(1-x)*(1-y)"])
    assert code == 0
    assert "normal form: 1 - x - y + x*y" in out


def test_normalize_json(capsys):
    code, doc = invoke_json(capsys, ["normalize", "x*x - x"])
    assert code == 0
    assert doc["command"] == "normalize"
    assert doc["data"] == {
        "term": "x*x - x",
        "normal_form": "0",
        "vars": ["x"],
        "records": [],
    }


def test_expand_text(capsys):
    code, out = invoke(capsys, ["expand", "x + y"])
    assert code == 0
    assert strip_timing(out) == (
        "term: x + y\nvars: x y\n00: 0\n01: 1\n10: 1\n11: 2"
    )


def test_expand_json(capsys):
    code, doc = invoke_json(capsys, ["expand", "x - y"])
    assert code == 0
    assert doc["data"]["coefficients"] == [
        {"vertex": [0, 0], "coeff": 0},
        {"vertex": [0, 1], "coeff": -1},
        {"vertex": [1, 0], "coeff": 1},
        {"vertex": [1, 1], "coeff": 0},
    ]


def test_interpret_verdicts(capsys):
    code, out = invoke(capsys, ["interpret", "x*y"])
    assert code == 0
    assert "verdict: interpretable" in out
    code, out = invoke(capsys, ["interpret", "x + y"])
    assert code == 1
    assert "verdict: conditionally-interpretable" in out
    assert "bad constituent 11: coefficient 2" in out


def test_interpret_json(capsys):
    code, doc = invoke_json(capsys, ["interpret", "x + y"])
    assert code == 1
    assert doc["status"] == "ok"
    assert doc["data"]["bad_vertices"] == [[1, 1]]


def test_check_barbara_all_modes(capsys):
    code, out = invoke(capsys, ["check", BARBARA, "--mode", "all"])
    assert code == 0
    assert "oracle: valid" in out
    assert "certificate: verified (n=1)" in out
    assert "cofactor 1: 1 - z" in out
    assert "cofactor 2: x" in out
    assert "semantic: valid (universe sizes 1..3)" in out
    assert "note:" not in out


def test_check_single_mode(capsys):
    code, out = invoke(capsys, ["check", BARBARA, "--mode", "semantic"])
    assert code == 0
    assert "oracle" not in out
    assert "semantic: valid" in out


def test_check_json_verdicts(capsys):
    code, doc = invoke_json(capsys, ["check", BARBARA, "--mode", "all"])
    assert code == 0
    verdicts = doc["data"]["verdicts"]
    assert verdicts["oracle"] == {"valid": True, "witness": None}
    assert verdicts["certificate"]["verified"] is True
    assert verdicts["certificate"]["n"] == 1
    assert verdicts["semantic"]["valid"] is True
    assert "disagreement" not in doc["data"]


def test_check_a_certificate_with_a_multiplier(capsys, tmp_path):
    # 2x = 0 yields x = 0 only after dividing by 2: the leaf's premiss
    # value 2 has Bezout coefficient 1, so n is 2
    problem = tmp_path / "twice.prob"
    problem.write_text("premiss: 2*x = 0\nconclude: x = 0\n")
    argv = ["check", str(problem), "--mode", "certificate"]
    code, out = invoke(capsys, argv)
    assert code == 0
    assert strip_timing(out).splitlines()[1:] == [
        "premiss: 2*x = 0",
        "conclusion: x = 0",
        "certificate: verified (n=2)",
        "cofactor 1: 1",
    ]
    code, doc = invoke_json(capsys, argv)
    assert code == 0
    assert doc["data"]["verdicts"] == {
        "certificate": {
            "produced": True,
            "verified": True,
            "n": 2,
            "cofactors": [[{"monomial": [], "coeff": 1}]],
        }
    }


@pytest.mark.parametrize(
    "where, bad",
    [("oracle", {"valid": "yes"}), ("oracle", {"witness": 1}), ("certificate", {"n": 0})],
)
def test_schema_checks_the_check_verdicts(capsys, where, bad):
    _, doc = invoke_json(capsys, ["check", BARBARA])
    doc["data"]["verdicts"][where].update(bad)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)
    # only a produced certificate carries n and cofactors
    doc["data"]["verdicts"] = {"certificate": {"produced": False}}
    jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize(
    "bad",
    [
        {"records": [{"monomial": ["x"], "coeff": "2"}]},
        {"records": [{"monomial": "x", "coeff": 2}]},
        {"records": [{"coeff": 2}]},
        {"vars": ["x", 1]},
        {"normal_form": None},
        {"term": None},
    ],
)
def test_schema_checks_the_normalize_data(capsys, bad):
    _, doc = invoke_json(capsys, ["normalize", "2x + y"])
    assert doc["data"]["records"] == [
        {"monomial": ["x"], "coeff": 2},
        {"monomial": ["y"], "coeff": 1},
    ]
    doc["data"].update(bad)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize("data", [{}, {"error": 3}])
def test_schema_checks_the_error_data(capsys, data):
    assert run(["--json", "normalize", "x +"]) == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    doc["data"] = data
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize(
    "argv, path, key",
    [
        (["check", BARBARA], ("verdicts", "semantic"), "max_n"),
        (["check", BARBARA, "--trace", "refl.trace"], ("verdicts", "trace"), "reason"),
        (["embed", "--boole", "1"], (), "entries_checked"),
        (["counterexample", "intro"], ("laws", 0), "witness"),
    ],
    ids=["semantic", "trace", "embed", "laws"],
)
@pytest.mark.parametrize("change", ["rename", "add"])
def test_schema_pins_the_record_shapes(capsys, tmp_path, monkeypatch, argv, path, key, change):
    # each of these objects lists every field of its verdict record
    monkeypatch.chdir(tmp_path)
    (tmp_path / "refl.trace").write_text("1: x = x [Refl]\n")
    _, doc = invoke_json(capsys, argv)
    shape = doc["data"]
    for step in path:
        shape = shape[step]
    if change == "rename":
        shape[key + "_"] = shape.pop(key)
    else:
        shape["extra"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


def test_check_trace_disagreement(capsys, tmp_path):
    problem = tmp_path / "collapse.prob"
    problem.write_text("vars: x\nconclude: x = 0\nmode: sigma1\nmax_n: 1\n")
    tracefile = tmp_path / "collapse.trace"
    tracefile.write_text(format_trace(cx_trace()))
    code, out = invoke(
        capsys,
        ["check", str(problem), "--mode", "all", "--trace", str(tracefile)],
    )
    assert code == 1
    assert "oracle: invalid at x -> 1" in out
    assert "certificate: none (oracle rejects)" in out
    assert "semantic: invalid at n=1 with x -> {0}" in out
    assert "trace (sigma1): accepted" in out
    assert "note: the symbolic and the class-algebra verdicts disagree" in out


def test_check_trace_rejected_in_hailperin_mode(capsys, tmp_path):
    problem = tmp_path / "collapse.prob"
    problem.write_text("vars: x\nconclude: x = 0\nmode: hailperin\nmax_n: 1\n")
    tracefile = tmp_path / "collapse.trace"
    tracefile.write_text(format_trace(cx_trace()))
    code, out = invoke(
        capsys, ["check", str(problem), "--mode", "oracle", "--trace", str(tracefile)]
    )
    assert code == 1
    assert "trace (hailperin): rejected at step 1" in out


def _trace_verdict(capsys, problem, trace, *argv):
    """The trace line and exit code of ``check --trace`` in text, after
    checking that ``--json`` gives the same verdict record."""
    argv = ["check", str(problem), *argv, "--trace", str(trace)]
    code, doc = invoke_json(capsys, argv)
    text_code, out = invoke(capsys, argv)
    assert text_code == code
    assert "disagreement" not in doc["data"]
    assert "note:" not in out
    verdict = doc["data"]["verdicts"]["trace"]
    line = next(l for l in out.splitlines() if l.startswith("trace ("))
    assert line.endswith(
        "accepted" if verdict["accepted"] else f"rejected at step {verdict['step']}: {verdict['reason']}"
    )
    return code, line


def test_check_trace_must_end_in_the_conclusion(capsys, tmp_path):
    # the trace derives x = x, not the problem's x = 0
    problem = tmp_path / "zero.prob"
    problem.write_text("conclude: x = 0\nmode: hailperin\nmax_n: 1\n")
    trace = tmp_path / "refl.trace"
    trace.write_text("1: x = x [Refl]\n")
    assert _trace_verdict(capsys, problem, trace, "--mode", "semantic") == (
        1,
        "trace (hailperin): rejected at step 1: the last step is not the conclusion x = 0",
    )


def test_check_barbara_trace(capsys, tmp_path):
    assert _trace_verdict(capsys, BARBARA, BARBARA_TRACE) == (0, "trace (hailperin): accepted")
    # without its last step the trace derives an equation, but not Barbara's
    short = tmp_path / "short.trace"
    short.write_text("".join(Path(BARBARA_TRACE).read_text().splitlines(True)[:7]))
    assert _trace_verdict(capsys, BARBARA, short, "--mode", "oracle") == (
        1,
        "trace (hailperin): rejected at step 7: the last step is not the conclusion x - x*z = 0",
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_check_empty_trace_is_an_error(capsys, tmp_path, json_flag):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    assert run([*json_flag, "check", BARBARA, "--trace", str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: empty trace has no conclusion\n"
    if json_flag:
        doc = json.loads(captured.out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["data"] == {"error": "empty trace has no conclusion"}
    else:
        assert captured.out == ""


@pytest.mark.parametrize("command", ["expand", "interpret"])
def test_vertex_commands_check_the_variable_cap(capsys, command):
    assert run(["--max-vars", "3", command, "a+b+c+d+e"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5 variables exceeds the limit of 3" in captured.err
    code, out = invoke(capsys, ["--max-vars", "5", command, "a+b+c+d+e"])
    assert code in (0, 1)
    assert "term: a+b+c+d+e" in out


@pytest.mark.parametrize("op", ["+", "*"])
def test_normalize_long_sum_and_product(capsys, op):
    names = [f"v{i}" for i in range(5000)]
    code, out = invoke(capsys, ["normalize", op.join(names)])
    assert code == 0
    normal_form = out.splitlines()[1]
    if op == "+":
        assert normal_form == "normal form: " + " + ".join(sorted(names))
    else:
        assert normal_form == "normal form: " + "*".join(sorted(names))


def test_normalize_monomial_cap(capsys):
    # a product of k sums has 2^k monomials; the variable cap bounds the
    # monomial pairs of each product step at 2^max_vars
    term = "*".join(f"(v{i}+1)" for i in range(14))
    assert run(["--max-vars", "5", "normalize", term]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "64 monomial pairs in one product exceeds the limit of 32" in captured.err
    code, out = invoke(capsys, ["normalize", term])
    assert code == 0
    assert out.count(" + ") == 2**14 - 1


@pytest.mark.parametrize("command", ["normalize", "expand", "interpret"])
def test_deeply_nested_parentheses(capsys, command):
    code, out = invoke(capsys, [command, "(" * 1200 + "1 - x" + ")" * 1200])
    assert code == 0
    assert "term: " + "(" * 1200 in out


def test_embed_verified(capsys):
    code, out = invoke(capsys, ["embed", "--boole", "1"])
    assert code == 0
    assert "indicator embedding: verified (12 entries)" in out


def test_embed_json(capsys):
    code, doc = invoke_json(capsys, ["embed", "--boole", "2"])
    assert code == 0
    assert doc["command"] == "embed"
    assert doc["data"] == {"n": 2, "ok": True, "entries_checked": 36, "failing": None}


def test_embed_cap_exceeded(capsys):
    code = run(["embed", "--boole", "9"])
    assert code == 3


def test_model_search_found(capsys):
    code, out = invoke(capsys, ["model-search", COMMUTATIVE, "--size", "2"])
    assert code == 0
    assert "carrier: e0 e1" in out
    assert "e1 e1 -> e0" in out


def test_model_search_none(capsys):
    code, out = invoke(capsys, ["model-search", HAILPERIN_THY, "--size", "3"])
    assert code == 1
    assert "no total model of this size" in out


def test_model_search_json(capsys):
    code, doc = invoke_json(capsys, ["model-search", COMMUTATIVE, "--size", "2"])
    assert code == 0
    assert doc["data"]["found"] is True
    assert doc["data"]["model"].startswith("carrier: e0 e1\nop +/2:\n")
    code, doc = invoke_json(capsys, ["model-search", HAILPERIN_THY, "--size", "2"])
    assert code == 1
    assert doc["data"] == {"size": 2, "found": False}


def test_model_search_cap(capsys):
    code = run(["model-search", COMMUTATIVE, "--size", "9"])
    assert code == 3


def test_model_search_long_literal(capsys, tmp_path):
    # 3000 is searched as a chain of 2999 additions of the unit
    theory = tmp_path / "t.thy"
    theory.write_text("-> x = 3000\n")
    code, out = invoke(capsys, ["model-search", str(theory), "--size", "1"])
    assert code == 0
    assert "op +/2:" in out
    code, out = invoke(capsys, ["model-search", str(theory), "--size", "2"])
    assert code == 1


def test_model_search_literal_cap(capsys, tmp_path):
    theory = tmp_path / "t.thy"
    theory.write_text(f"-> x = {10**9}\n")
    assert run(["model-search", str(theory), "--size", "1"]) == 3
    assert "integer literal 1000000000 exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-vars", "-3", "normalize", "x"],
        ["--max-universe", "0", "check", BARBARA],
        ["--max-model-size", "-1", "model-search", COMMUTATIVE, "--size", "1"],
        ["model-search", COMMUTATIVE, "--size", "0"],
        ["embed", "--boole", "-2"],
        ["embed", "--boole", "two"],
    ],
)
def test_non_positive_numbers_exit_two(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err or "not an integer" in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("BOOLELAB_MAX_VARS", "0"),
        ("BOOLELAB_MAX_UNIVERSE", "abc"),
        ("BOOLELAB_MAX_MODEL_SIZE", "-1"),
        ("BOOLELAB_MAX_MODEL_SIZE", "2.5"),
    ],
)
def test_bad_cap_environment_exits_two(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert run(["normalize", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--max-vars", ["normalize", "x"]),
        ("--max-universe", ["check", BARBARA]),
        ("--size", ["model-search", COMMUTATIVE]),
        ("--boole", ["embed"]),
    ],
)
@pytest.mark.parametrize("value", ["+2", " 2", "2 ", "2_0", "\u00b2"])
def test_numeric_flags_take_digit_strings_only(capsys, flag, argv, value):
    # a sign, a blank or an underscore is not part of the digit-string rule
    if flag.startswith("--max"):
        argv = [flag, value, *argv]
    else:
        argv = [*argv, flag, value]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not an integer: {value!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-vars", "--boole"])
def test_numeric_flag_over_the_digit_limit_is_not_echoed(capsys, flag):
    limit = sys.get_int_max_str_digits()
    value = "9" * (limit + 100)
    argv = [flag, value, "normalize", "x"] if flag == "--max-vars" else ["embed", flag, value]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument {flag}: an integer literal exceeds the limit of {limit} digits\n")
    assert len(err) < 1000


@pytest.mark.parametrize(
    "value, shown",
    [
        ("abc", "'abc' (digits only"),
        ("x" * 20, f"'{'x' * 20}' (digits only"),
        ("x" * 21, f"'{'x' * 20}'... (21 characters; digits only"),
        ("a" * 4400, f"'{'a' * 20}'... (4400 characters; digits only"),
    ],
    ids=["short", "20", "21", "4400"],
)
def test_non_integer_value_is_echoed_up_to_twenty_characters(capsys, monkeypatch, value, shown):
    rule = ", with no sign, blank or underscore)\n"
    assert run(["embed", "--boole", value]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument --boole: not an integer: {shown}{rule}")
    assert len(err) < 200
    monkeypatch.setenv("BOOLELAB_MAX_VARS", value)
    assert run(["normalize", "x"]) == 2
    assert capsys.readouterr().err == f"error: BOOLELAB_MAX_VARS: not an integer: {shown}{rule}"


@pytest.mark.parametrize("value", ["+2", "2_0", " 2", "9" * 4400])
def test_cap_environment_takes_digit_strings_only(capsys, monkeypatch, value):
    monkeypatch.setenv("BOOLELAB_MAX_VARS", value)
    assert run(["normalize", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: BOOLELAB_MAX_VARS: ")
    assert len(captured.err) < 1000


@pytest.mark.parametrize(
    "caps, problem, message",
    [
        ([], "chain26", "26 variables exceeds the limit of 20"),
        (["--max-vars", "2"], BARBARA, "3 variables exceeds the limit of 2"),
    ],
    ids=["chain26", "barbara"],
)
def test_semantic_check_has_the_variable_cap(capsys, tmp_path, caps, problem, message):
    # holds on P(1) prunes, but may still try 2^m assignments, so a
    # problem over more variables than the cap is refused before the
    # first one
    if problem == "chain26":
        names = [f"v{i:02d}" for i in range(26)]
        links = [f"premiss: {a} - {a}*{b} = 0" for a, b in zip(names, names[1:])]
        problem = tmp_path / "chain.prob"
        problem.write_text("\n".join(links + ["conclude: v00 - v00*v25 = 0"]) + "\n")
    argv = [*caps, "check", str(problem), "--mode", "semantic"]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"cap exceeded: {message}\n")
    assert run(["--json", *argv]) == 3
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCHEMA)
    assert (doc["status"], doc["exit_code"], doc["data"]) == ("error", 3, {"error": message})


def test_semantic_check_within_the_variable_cap(capsys):
    assert run(["--max-vars", "3", "check", BARBARA, "--mode", "semantic"]) == 0
    assert "semantic: valid" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["oracle", "certificate", "semantic", "all"])
def test_check_counts_variables_before_normalizing(capsys, tmp_path, monkeypatch, mode):
    # a product of six binomials over twelve variables: every mode is
    # refused before the first normal form is built
    import boolelab.polynomial as polynomial

    product = "*".join(f"(a{i} + b{i})" for i in range(6))
    problem = tmp_path / "p.prob"
    problem.write_text(f"premiss: {product} = 0\nconclude: a0 = 0\n")
    calls = []
    original = polynomial.normalize

    def counting_normalize(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(polynomial, "normalize", counting_normalize)
    assert run(["--max-vars", "4", "check", str(problem), "--mode", mode]) == 3
    assert capsys.readouterr() == ("", "cap exceeded: 12 variables exceeds the limit of 4\n")
    assert calls == []


@pytest.mark.parametrize("mode", ["oracle", "certificate", "semantic", "all"])
def test_check_normalizes_under_the_pair_cap(capsys, tmp_path, mode):
    # four variables, within the cap of 4, but a product step of 5 * 5
    # monomial pairs, over the 2^4 that the cap allows; the semantic
    # check builds no normal form
    problem = tmp_path / "p.prob"
    problem.write_text("premiss: (a+b+c+d+1)*(a+b+c+d+1) = 0\nconclude: a = a\n")
    code = run(["--max-vars", "4", "check", str(problem), "--mode", mode])
    captured = capsys.readouterr()
    if mode == "semantic":
        assert code == 0 and "semantic: valid" in captured.out
    else:
        assert code == 3
        assert captured == (
            "", "cap exceeded: 25 monomial pairs in one product exceeds the limit of 16\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "x"],
        *(["check", BARBARA, "--mode", m] for m in ("oracle", "certificate", "semantic", "all")),
        ["check", BARBARA, "--trace", BARBARA_TRACE],
    ],
    ids=["normalize", "oracle", "certificate", "semantic", "all", "trace"],
)
def test_a_variable_cap_of_any_length_answers(capsys, monkeypatch, argv):
    # a 20-digit cap allows every product the default cap allows
    code, out = invoke(capsys, argv)
    assert code == 0
    huge_code, huge_out = invoke(capsys, ["--max-vars", "9" * 20, *argv])
    assert (huge_code, strip_timing(huge_out)) == (code, strip_timing(out))
    monkeypatch.setenv("BOOLELAB_MAX_VARS", "9" * 20)
    env_code, env_out = invoke(capsys, argv)
    assert (env_code, strip_timing(env_out)) == (code, strip_timing(out))


@pytest.mark.parametrize(
    "steps, product, pairs",
    [
        # 20 factors of 7 monomials: the free-ring normal form has
        # C(k+6, 6) monomials after k of them, so the fourth product
        # step multiplies 84 * 7 pairs
        (["1: {p} = {p} [RingAxiomInstance]"], "*".join(["(a+b+c+d+e+f+1)"] * 20), 84 * 7),
        # 10 binomials: 2^k multilinear monomials after k of them
        (
            ["1: {p} = {p} [Refl]", "2: {p} = {p} [IntegerSimplification 1]"],
            "*".join(f"(v{i}+1)" for i in range(10)),
            2**8 * 2,
        ),
    ],
    ids=["ring", "integer"],
)
def test_trace_normal_forms_have_the_pair_cap(capsys, tmp_path, steps, product, pairs):
    problem = tmp_path / "p.prob"
    problem.write_text("conclude: x = x\n")
    trace = tmp_path / "t.trace"
    trace.write_text("".join(line.format(p=product) + "\n" for line in steps))
    argv = ["--max-vars", "8", "check", str(problem), "--mode", "oracle", "--trace", str(trace)]
    assert run(argv) == 3
    step = len(steps)
    assert capsys.readouterr() == (
        "",
        f"cap exceeded: step {step}: {pairs} monomial pairs in one product"
        " exceeds the limit of 256\n",
    )


@pytest.mark.parametrize("conclusion", ["x = 0", "x = x"])
def test_universe_bound_over_cap_exits_three_at_once(capsys, tmp_path, conclusion):
    # one conclusion is invalid at n = 1 and one valid up to the cap;
    # either way a bound over the cap is refused before the search
    problem = tmp_path / "p.prob"
    problem.write_text(f"conclude: {conclusion}\nmax_n: 9\n")
    assert run(["check", str(problem), "--mode", "semantic"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "universe size 9 exceeds the limit of 5" in captured.err
    assert run(["check", str(problem)]) == 3
    capsys.readouterr()


def test_cap_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("BOOLELAB_MAX_MODEL_SIZE", "2")
    assert run(["model-search", COMMUTATIVE, "--size", "3"]) == 3
    capsys.readouterr()
    code, out = invoke(
        capsys,
        ["--max-model-size", "3", "model-search", COMMUTATIVE, "--size", "3"],
    )
    assert code == 0


TWENTY_NINES = "9" * 20


@pytest.mark.parametrize(
    "key, argv, message",
    [
        (
            "max_universe",
            ["embed", "--boole", TWENTY_NINES],
            f"universe size {TWENTY_NINES} exceeds the limit of 32",
        ),
        (
            "max_model_size",
            ["model-search", COMMUTATIVE, "--size", TWENTY_NINES],
            f"model size {TWENTY_NINES} exceeds the limit of {2**32}",
        ),
        (
            "max_model_size",
            ["theorem-demo"],
            f"model size bound {TWENTY_NINES} exceeds the limit of {2**32}",
        ),
    ],
    ids=["embed", "model-search", "theorem-demo"],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_a_size_cap_of_any_length_is_held(capsys, monkeypatch, key, argv, message, source):
    # the universe cap holds at 32 and the model-size cap at 2^32, so a
    # 20-digit cap exits 3 instead of shifting or listing 10^20 elements
    if source == "flag":
        argv = ["--" + key.replace("_", "-"), TWENTY_NINES, *argv]
    else:
        monkeypatch.setenv(f"BOOLELAB_{key.upper()}", TWENTY_NINES)
    assert run(argv) == 3
    assert capsys.readouterr() == ("", f"cap exceeded: {message}\n")


def test_counterexample_intro(capsys):
    code, out = invoke(capsys, ["counterexample", "intro"])
    assert code == 0
    assert "law -> x + y = x: holds" in out
    assert "law -> x + y = y: holds" in out
    assert "law -> x = y: fails at x -> 0, y -> 1" in out


def test_counterexample_cx(capsys):
    code, out = invoke(capsys, ["counterexample", "cx"])
    assert code == 0
    assert "sigma1 check: accepted" in out
    assert (
        "hailperin check: rejected at step 1:"
        " idempotence target 2*x is not a class symbol" in out
    )
    assert "semantic check: invalid at n=1 with x -> {0}" in out


def test_counterexample_cx_json(capsys):
    code, doc = invoke_json(capsys, ["counterexample", "cx"])
    assert code == 0
    data = doc["data"]
    assert data["sigma1"] == {"accepted": True}
    assert data["hailperin"]["step"] == 1
    assert data["semantic"]["witness"] == {"x": "{0}"}


def test_theorem_demo(capsys):
    code, out = invoke(capsys, ["theorem-demo"])
    assert code == 0
    assert "indicator embedding n=3: verified (120 entries)" in out
    assert "embedding search: none up to size 4" in out
    assert "x = y fails at x -> 0, y -> 1" in out


def test_theorem_demo_json(capsys):
    code, doc = invoke_json(capsys, ["theorem-demo"])
    assert code == 0
    assert [c["entries"] for c in doc["data"]["chi"]] == [12, 36, 120]
    failure = doc["data"]["principles_failure"]
    assert failure["embedding_found"] is False
    assert failure["sigma_holds_in_all_models"] is True
    assert failure["witness"] == {"x": "0", "y": "1"}


# Branches no shipped fixture reaches: each verdict is replaced by one
# that fails (or, for the cx semantic check, holds) through monkeypatch.


def test_embed_reports_a_failing_embedding(capsys, monkeypatch):
    monkeypatch.setattr(
        classes, "verify_chi_embedding", lambda n, max_n: ChiVerdict(False, 7, "mismatch at +")
    )
    code, out = invoke(capsys, ["embed", "--boole", "2"])
    assert (code, strip_timing(out)) == (
        1,
        "universe size: 2\nindicator embedding: FAILED (mismatch at +)",
    )
    code, doc = invoke_json(capsys, ["embed", "--boole", "2"])
    assert code == 1
    assert doc["data"] == {"n": 2, "ok": False, "entries_checked": 7, "failing": "mismatch at +"}


def test_theorem_demo_reports_a_failing_embedding(capsys, monkeypatch):
    real = classes.verify_chi_embedding

    def verify(n, max_n):
        return ChiVerdict(False, 5, "mismatch at *") if n == 2 else real(n, max_n)

    monkeypatch.setattr(classes, "verify_chi_embedding", verify)
    code, out = invoke(capsys, ["theorem-demo"])
    assert code == 1
    assert strip_timing(out).splitlines()[2:5] == [
        "  indicator embedding n=1: verified (12 entries)",
        "  indicator embedding n=2: FAILED (mismatch at *)",
        "  indicator embedding n=3: verified (120 entries)",
    ]
    code, doc = invoke_json(capsys, ["theorem-demo"])
    assert code == 1
    assert doc["data"]["chi"] == [
        {"n": 1, "ok": True, "entries": 12},
        {"n": 2, "ok": False, "entries": 5},
        {"n": 3, "ok": True, "entries": 120},
    ]


def test_theorem_demo_reports_a_law_failing_in_a_total_model(capsys, monkeypatch):
    def holds_total(model, sentence):
        return SatisfactionVerdict(False, {"x": "0", "y": "1"})

    monkeypatch.setattr(algebra, "holds_total", holds_total)
    code, out = invoke(capsys, ["theorem-demo"])
    assert code == 1
    assert "  total models of the two laws up to size 4: 1; x = y holds in NOT all\n" in out
    code, doc = invoke_json(capsys, ["theorem-demo"])
    assert code == 1
    assert doc["data"]["principles_failure"]["sigma_holds_in_all_models"] is False


def test_counterexample_cx_reports_a_valid_semantic_check(capsys, monkeypatch):
    def semantic_consequence(premisses, conclusion, max_n, cap):
        return SemanticVerdict(True, max_n)

    monkeypatch.setattr(classes, "semantic_consequence", semantic_consequence)
    code, out = invoke(capsys, ["counterexample", "cx"])
    assert code == 1
    assert "semantic check: valid (universe sizes 1..1)\n" in out
    code, doc = invoke_json(capsys, ["counterexample", "cx"])
    assert code == 1
    assert doc["data"]["semantic"] == {"valid": True, "witness_n": None, "witness": None}
    assert doc["data"]["reproduced"] is False


def test_usage_errors_exit_two(capsys):
    # argparse would exit the process; run() catches and maps to 2
    assert run(["normalize", "x +"]) == 2
    capsys.readouterr()
    assert run(["check", str(PKG_ROOT / "problems" / "missing.prob")]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["check", BARBARA, "--mode", "sideways"]) == 2
    capsys.readouterr()


_COMMANDS = SCHEMA["properties"]["command"]["enum"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ["normalize", "x +"],
            2,
            "syntax error at position 3: expected a variable, an integer, or '(',"
            " got end of input",
        ),
        (["--max-vars", "2", "expand", "a+b+c"], 3, "3 variables exceeds the limit of 2"),
        (["embed", "--boole", "9"], 3, "universe size 9 exceeds the limit of 5"),
        (
            ["check", str(PKG_ROOT / "problems" / "missing.prob")],
            2,
            f"[Errno 2] No such file or directory: '{PKG_ROOT / 'problems' / 'missing.prob'}'",
        ),
    ],
)
def test_json_error_report(capsys, argv, code, message):
    assert run(argv) == code
    text = capsys.readouterr()
    assert text.out == ""
    assert run(["--json"] + argv) == code
    captured = capsys.readouterr()
    # the stderr line is the same with and without --json
    assert captured.err == text.err
    assert captured.err == f"{'cap exceeded' if code == 3 else 'error'}: {message}\n"
    doc = json.loads(captured.out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "error"
    assert doc["exit_code"] == code
    assert doc["command"] == next(a for a in argv if a in _COMMANDS)
    assert doc["data"] == {"error": message}
    assert doc["timing_ms"] >= 0


def test_running_out_of_memory_exits_three(capsys, monkeypatch):
    # what the handler was building lives in its frame, which the
    # MemoryError's traceback holds; run keeps none of it
    built = []

    def exhaust(args, caps):
        cells = set()  # a dict or a list takes no weak reference
        built.append(weakref.ref(cells))
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "model-search", exhaust)
    argv = ["model-search", COMMUTATIVE, "--size", "2"]
    assert run(argv) == 3
    assert capsys.readouterr() == ("", "cap exceeded: out of memory\n")
    assert run(["--json", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.err == "cap exceeded: out of memory\n"
    doc = json.loads(captured.out)
    jsonschema.validate(doc, SCHEMA)
    assert (doc["command"], doc["status"], doc["exit_code"]) == ("model-search", "error", 3)
    assert doc["data"] == {"error": "out of memory"}
    assert [cells() for cells in built] == [None, None]


DIGITS = sys.get_int_max_str_digits()
# (10**h)**2 has one digit more than the limit, (10**h - 1)**2 has it exactly
_HALF = DIGITS // 2


def _lcm_problem(tmp_path) -> str:
    """x = 0 from a premiss whose differences at x=1 are two coprime
    numbers of more than half the limit: the certificate's n is their
    product."""
    a, b = 10 ** (_HALF + 50), 10 ** (_HALF + 50) + 1
    problem = tmp_path / "lcm.prob"
    problem.write_text(f"premiss: {a} x y + {b} x - {b} x y = 0\nconclude: x = 0\n")
    return str(problem)


@pytest.mark.skipif(not DIGITS, reason="the interpreter has no digit limit")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["normalize", "9" * (DIGITS + 1)], f"an integer literal exceeds the limit of {DIGITS} digits"),
        (["interpret", "x + " + "9" * (DIGITS + 1)], f"an integer literal exceeds the limit of {DIGITS} digits"),
        (["normalize", f"{10 ** _HALF} * {10 ** _HALF}"], f"a coefficient of the result exceeds the limit of {DIGITS} digits"),
        (["expand", f"{10 ** _HALF} * {10 ** _HALF} x"], f"a coefficient of the result exceeds the limit of {DIGITS} digits"),
        (["interpret", f"{10 ** _HALF} * {10 ** _HALF}"], f"a coefficient of the result exceeds the limit of {DIGITS} digits"),
        (["check", "LCM", "--mode", "certificate"], f"a coefficient of the result exceeds the limit of {DIGITS} digits"),
    ],
    ids=["literal", "literal-in-sum", "normal-form", "vertex", "interpret", "certificate"],
)
def test_integers_over_the_digit_limit_exit_three(capsys, tmp_path, argv, message):
    argv = [_lcm_problem(tmp_path) if a == "LCM" else a for a in argv]
    for prefix in ([], ["--json"]):
        assert run(prefix + argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"cap exceeded: {message}\n"
    doc = json.loads(captured.out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["data"] == {"error": message}


@pytest.mark.skipif(not DIGITS, reason="the interpreter has no digit limit")
@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("big.prob", "premiss: x = {big}\nconclude: x = 0\n", ["check", "FILE"]),
        ("big.thy", "x = 0 -> x = {big}\n", ["model-search", "FILE", "--size", "2"]),
        ("big.trace", "1: x = {big} [Refl]\n", ["check", BARBARA, "--trace", "FILE"]),
        ("max_n.prob", "max_n: {big}\nconclude: x = 0\n", ["check", "FILE"]),
        ("step.trace", "{big}: x = x [Refl]\n", ["check", BARBARA, "--trace", "FILE"]),
        ("argument.trace", "1: x = x [Sym {big}]\n", ["check", BARBARA, "--trace", "FILE"]),
    ],
    ids=["problem", "theory", "trace", "max_n", "step-number", "rule-argument"],
)
def test_integers_over_the_digit_limit_in_files_exit_three(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text.format(big="9" * (DIGITS + 100)))
    argv = [str(path) if a == "FILE" else a for a in argv]
    message = f"line 1: an integer literal exceeds the limit of {DIGITS} digits"
    for prefix in ([], ["--json"]):
        assert run(prefix + argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"cap exceeded: {message}\n"
    doc = json.loads(captured.out)
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == argv[0]
    assert doc["data"] == {"error": message}


@pytest.mark.skipif(not DIGITS, reason="the interpreter has no digit limit")
def test_integers_at_the_digit_limit_print(capsys):
    nines = "9" * DIGITS
    code, out = invoke(capsys, ["normalize", f"0 - {nines}"])
    assert code == 0 and f"normal form: -{nines}\n" in out
    square = str((10**_HALF - 1) ** 2)
    code, doc = invoke_json(capsys, ["expand", f"{'9' * _HALF} * {'9' * _HALF} x"])
    assert code == 0 and [row["coeff"] for row in doc["data"]["coefficients"]] == [0, int(square)]
    # the parser itself reports an over-limit literal as a cap
    with pytest.raises(CapExceeded, match=f"exceeds the limit of {DIGITS} digits"):
        parse("9" * (DIGITS + 1))


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_text_output_is_deterministic(capsys):
    _, first = invoke(capsys, ["check", BARBARA, "--mode", "all"])
    _, second = invoke(capsys, ["check", BARBARA, "--mode", "all"])
    assert strip_timing(first) == strip_timing(second)


def test_json_output_is_deterministic(capsys):
    _, first = invoke_json(capsys, ["counterexample", "cx"])
    _, second = invoke_json(capsys, ["counterexample", "cx"])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boolelab", "normalize", "x*x - x"],
        capture_output=True,
        text=True,
        cwd=str(PKG_ROOT),
    )
    assert proc.returncode == 0
    assert "normal form: 0" in proc.stdout


def test_interpret_expands_once(capsys, monkeypatch):
    import boolelab.polynomial as polynomial

    _, before = invoke(capsys, ["interpret", "a + b + c"])
    calls = []
    original = polynomial.expand

    def counting_expand(p):
        calls.append(p)
        return original(p)

    # the handler imports expand when it runs, so patch its home module
    monkeypatch.setattr(polynomial, "expand", counting_expand)
    code, after = invoke(capsys, ["interpret", "a + b + c"])
    assert code == 1
    assert len(calls) == 1
    assert strip_timing(after) == strip_timing(before)
    assert after.count("bad constituent") == 4


@pytest.mark.parametrize("argv", [["--json", "theorem-demo"], ["normalize", "x"]])
def test_closed_pipe_exits_without_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "boolelab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(PKG_ROOT),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def _nested_sum(depth, leaf="x"):
    """x + (x + (... + leaf)), a term of the given depth."""
    return "x + (" * (depth - 1) + leaf + ")" * (depth - 1)


def _deep_trace_steps(depth):
    """(lhs, rhs, rule) texts of a ten-step sigma1 trace that uses every
    rule on terms of the given depth and ends in its problem's
    conclusion x = x; its premiss is the deep sum."""
    deep = _nested_sum(depth)
    context = _nested_sum(depth, leaf="HOLE")
    half = _nested_sum(depth - 1)
    return [
        (deep, deep, "Refl"),
        (deep, deep, "Sym 1"),
        (deep, deep, "Trans 1 2"),
        (deep, deep, "RingAxiomInstance"),
        (deep, deep, "IntegerSimplification 4"),
        ("x", "x", "Refl"),
        (deep, deep, f"Congruence 6 {context}"),
        (f"({half})*({half})", half, f"DeltaIdempotence {half}"),
        (deep, deep, "Premiss"),
        ("x", "x", "Refl"),
    ]


def _deep_trace_problem(tmp_path, depth):
    deep = _nested_sum(depth)
    problem = tmp_path / "deep.prob"
    problem.write_text(f"premiss: {deep} = {deep}\nconclude: x = x\nmode: sigma1\n")
    trace = tmp_path / "deep.trace"
    trace.write_text(
        "".join(
            f"{k}: {lhs} = {rhs} [{rule}]\n"
            for k, (lhs, rhs, rule) in enumerate(_deep_trace_steps(depth), 1)
        )
    )
    return ["check", str(problem), "--mode", "oracle", "--trace", str(trace)]


@pytest.mark.parametrize("depth", [100, 1200, 3000])
def test_deep_trace_is_checked(capsys, tmp_path, depth):
    # checking a trace walks its terms iteratively, so no depth is refused
    code, out = invoke(capsys, _deep_trace_problem(tmp_path, depth))
    assert code == 0
    assert "trace (sigma1): accepted" in out


@pytest.mark.parametrize("depth", [1200, 3000])
def test_deep_trace_is_rejected_at_the_altered_step(depth):
    texts = _deep_trace_steps(depth)
    deep = parse(_nested_sum(depth))
    trace = parse_trace(
        "".join(f"{k}: {l} = {r} [{rule}]\n" for k, (l, r, rule) in enumerate(texts, 1)),
        premisses=((deep, deep),),
    )
    assert check_trace(trace, SIGMA1).accepted
    for k, (_, rhs, _) in enumerate(texts, 1):
        # the deepest leaf of step k's right side becomes y
        head, _, tail = rhs.rpartition("x")
        step = trace.steps[k - 1]
        steps = list(trace.steps)
        steps[k - 1] = TraceStep(step.lhs, parse(f"{head}y{tail}"), step.rule)
        verdict = check_trace(DerivationTrace(trace.premisses, tuple(steps)), SIGMA1)
        assert (verdict.accepted, verdict.step) == (False, k)


def _bad_rule_tags():
    """For every rule: a tag with one argument too few, or one too many
    where the last argument is not a term; and each argument replaced
    by a non-integer, a signed or a superscript number, or a bad term."""
    good = {"int": "1", "Term": "x"}
    bad = {"int": ("abc", "+1", "-1", "1_0", "1.5", "\u00b2"), "Term": ("x +", "(x")}
    for name, cls in _RULES.items():
        kinds = [cls.__annotations__[field] for field in cls._fields]
        args = [good[kind] for kind in kinds]
        yield " ".join([name, *args[:-1]]) if args else f"{name} 1"
        if "Term" not in kinds:
            yield " ".join([name, *args, "1"])
        for i, kind in enumerate(kinds):
            for word in bad[kind]:
                yield " ".join([name, *args[:i], word, *args[i + 1 :]])


@pytest.mark.parametrize(
    "step",
    [f"x = x [{tag}]" for tag in _bad_rule_tags()]
    + ["x + = x [Refl]", "x = (x [Sym 1]"]
    # no tag, two '=', an empty tag, an unknown rule name
    + ["x = x", "x = x = x [Refl]", "x = x []", "x = x [Foo 1]"],
)
def test_malformed_trace_steps_name_their_line(capsys, tmp_path, step):
    trace = tmp_path / "bad.trace"
    trace.write_text(f"1: x = x [Refl]\n2: {step}\n")
    argv = ["check", BARBARA, "--trace", str(trace)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "invalid literal" not in err and "unpack" not in err
    code, doc = invoke_json(capsys, argv)
    assert code == 2
    assert doc["data"]["error"] == err.removeprefix("error: ").rstrip("\n")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["normalize", "x"],
            {"models", "algebra", "classes", "derivation", "horn", "problems",
             "counterexamples", "json"},
        ),
        (["check", "problems/barbara.prob"], {"models", "counterexamples", "json"}),
        (["--json", "check", "problems/barbara.prob"], {"models", "counterexamples"}),
        (["counterexample", "cx"], {"models", "problems"}),
    ],
)
def test_command_loads_only_the_modules_it_runs(argv, absent):
    code = "import sys\nfrom boolelab.cli import run\nif run(sys.argv[1:]):\n    sys.exit(1)"
    loaded = modules_after(code, *argv)
    assert not loaded & absent
    assert {"cli", "terms"} <= loaded
    if argv[0] == "--json":
        assert "json" in loaded


def _nestings():
    """Deep or long inputs built from a size: parentheses (balanced or
    not), right-nested sums, long chains and long literals."""
    size = st.integers(min_value=1, max_value=3000)
    inner = st.sampled_from(["x", "1 - x", "x y", "", "x +", "2x*(y - 1)"])
    return st.one_of(
        st.builds(lambda n, m, t: "(" * n + t + ")" * m, size, size, inner),
        st.builds(lambda n, t: "x + (" * n + t + ")" * n, size, inner),
        st.builds(lambda n, op: op.join(["x"] * n), size, st.sampled_from(["+", "-", "*", " "])),
        st.builds(lambda n: "9" * n, st.integers(min_value=1, max_value=6000)),
    )


_TERM_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="xyz0129+-*() ", max_size=40),
    _nestings(),
)


@settings(max_examples=100, deadline=None, database=None)
@given(
    command=st.sampled_from(["normalize", "expand", "interpret"]),
    text=_TERM_TEXT,
    as_json=st.booleans(),
    max_vars=st.integers(min_value=1, max_value=10),
)
def test_any_term_text_gets_an_exit_code(command, text, as_json, max_vars):
    argv = ["--json"] * as_json + ["--max-vars", str(max_vars), command, "--", text]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2, 3)


_TRACE_TEMPLATES = [
    "1: {t} = {u} [Refl]\n",
    "1: {t} = {u} [RingAxiomInstance]\n2: {u} = {t} [IntegerSimplification 1]\n",
    "1: x = y [Premiss]\n2: {t} = {u} [Congruence 1 {h}]\n",
    "1: ({t})*({t}) = {u} [DeltaIdempotence {t}]\n",
    "1: {t} = {u} [Premiss]\n2: {u} = {t} [Sym 1]\n3: {t} = {t} [Trans 1 2]\n",
    "1: 2*({t}) = 0 [Premiss]\n2: {t} = 0 [NoNilpotent 1 2]\n",
]


@settings(max_examples=60, deadline=None, database=None)
@given(
    template=st.sampled_from(_TRACE_TEMPLATES),
    t=_nestings(),
    u=_nestings(),
    premiss=st.sampled_from(["x = y", "{t} = {u}", "2*({t}) = 0"]),
    mode=st.sampled_from(["oracle", "certificate", "semantic"]),
    max_vars=st.integers(min_value=1, max_value=10),
)
def test_any_deep_trace_gets_an_exit_code(template, t, u, premiss, mode, max_vars):
    # no depth cap: every trace is checked, or refused with a message
    h = t.replace("x", "HOLE", 1)
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "p.prob"
        problem.write_text(f"premiss: {premiss.format(t=t, u=u)}\nconclude: x = x\nmode: sigma1\n")
        trace = Path(tmp) / "t.trace"
        trace.write_text(template.format(t=t, u=u, h=h))
        argv = ["--max-vars", str(max_vars), "check", str(problem), "--mode", mode, "--trace", str(trace)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 1, 2, 3)
