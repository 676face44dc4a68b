"""Command line interface.

Subcommands: normalize, expand, interpret, check, embed, model-search,
counterexample, theorem-demo.  Exit codes: 0 when the query comes back
affirmative, 1 when it comes back negative, 2 for usage or format
errors, 3 when a size cap is exceeded.  ``--json`` switches the report
to a JSON document in the shape of the shipped schema (boolelab/1),
which the test suite validates every command's report against; reports
are deterministic apart from the timing field.  Exits 2 and 3 after the
arguments parse also get a report, with status "error".
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import MAX_MODEL_SIZE, MAX_UNIVERSE, MAX_VARS, CapExceeded

# Each handler imports the modules it calls, so a call loads only what
# its command runs: ``normalize`` needs terms and polynomial, not the
# class algebras, the model search or the derivation checker.

_ECHO_CHARS = 20  # the most characters of a bad numeric value a message repeats

# The caps, each as (key, default, help): the key names the handlers'
# cap, the flag --max-... and the environment variable BOOLELAB_MAX_...
_CAPS = (
    ("max_vars", MAX_VARS, "variable cap for vertex enumeration"),
    ("max_universe", MAX_UNIVERSE, "universe size cap for class algebras"),
    ("max_model_size", MAX_MODEL_SIZE, "carrier size cap for model search"),
)


def _witness_str(witness: dict) -> str:
    return ", ".join(f"{k} -> {v}" for k, v in sorted(witness.items()))


def _holds_str(verdict) -> str:
    """A satisfaction verdict: holds, or fails at its witness."""
    return "holds" if verdict.holds else f"fails at {_witness_str(verdict.witness)}"


def _trace_str(verdict) -> str:
    """A trace verdict: accepted, or rejected at a step for a reason."""
    if verdict.accepted:
        return "accepted"
    return f"rejected at step {verdict.step}: {verdict.reason}"


def _semantic_str(verdict) -> str:
    """A semantic verdict: valid up to its bound, or invalid at a witness."""
    if verdict.valid:
        return f"valid (universe sizes 1..{verdict.max_n})"
    return f"invalid at n={verdict.witness_n} with {_witness_str(verdict.witness)}"


def _chi_str(verdict) -> str:
    """An indicator-embedding verdict: verified, or failed for a reason."""
    if verdict.ok:
        return f"verified ({verdict.entries_checked} entries)"
    return f"FAILED ({verdict.failing})"


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: a digit string (the integer
    rule of ``terms.parse_int``) of value at least 1."""
    from .terms import parse_int

    try:
        value = parse_int(text)
    except ValueError:
        rule = "digits only, with no sign, blank or underscore"
        if len(text) <= _ECHO_CHARS:
            shown = repr(text)
        else:  # a long value is echoed by its start and its length
            shown, rule = f"{text[:_ECHO_CHARS]!r}...", f"{len(text)} characters; {rule}"
        raise argparse.ArgumentTypeError(f"not an integer: {shown} ({rule})") from None
    except CapExceeded as exc:
        # the message names the digit limit, not the value
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolelab",
        description="Boole's partial algebra of classes, with receipts.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for key, default, text in _CAPS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, type=_positive_int, default=None, help=f"{text} (default {default})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="multilinear normal form of a term")
    p.add_argument("term")

    p = sub.add_parser("expand", help="constituent coefficients of a term")
    p.add_argument("term")

    p = sub.add_parser("interpret", help="is the term a class under every reading?")
    p.add_argument("term")

    p = sub.add_parser("check", help="check a consequence problem file")
    p.add_argument("problem")
    p.add_argument(
        "--mode",
        choices=("oracle", "certificate", "semantic", "all"),
        default="all",
    )
    p.add_argument("--trace", default=None, help="derivation trace file to check")

    p = sub.add_parser("embed", help="verify the indicator-vector embedding")
    p.add_argument("--boole", type=_positive_int, required=True, metavar="N", help="universe size")

    p = sub.add_parser("model-search", help="search for a total model of a theory")
    p.add_argument("theory")
    p.add_argument("--size", type=_positive_int, required=True)

    p = sub.add_parser("counterexample", help="replay a stock counterexample")
    p.add_argument("which", choices=("intro", "cx"))

    sub.add_parser("theorem-demo", help="both directions of the transfer principle")
    return parser


def _env_int(name: str, fallback: int) -> int:
    """A cap from the environment, held to the rule of the numeric
    flags; a bad value is a usage error naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _caps(args) -> dict:
    """Each cap from its flag, else from its environment variable, else
    its default."""
    caps = {}
    for key, default, _ in _CAPS:
        value = getattr(args, key)
        caps[key] = value if value is not None else _env_int(f"BOOLELAB_{key.upper()}", default)
    return caps


def _digit_limit() -> int:
    """The most digits the interpreter converts between an int and its
    decimal text; 0 means no limit (as on releases before 3.10.7)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _check_printable(values) -> None:
    """Raise CapExceeded for an integer of the result longer than the
    digit limit, which the interpreter would refuse to print."""
    limit = _digit_limit()
    # 10**limit has more than 3*limit bits, so a shorter value fits
    if limit and any(v.bit_length() > 3 * limit and abs(v) >= 10**limit for v in values):
        raise CapExceeded(f"a coefficient of the result exceeds the limit of {limit} digits")


def _cmd_normalize(args, caps):
    from .polynomial import normalize, pair_cap
    from .terms import parse

    p = normalize(parse(args.term), pair_cap(caps["max_vars"]))
    _check_printable(p.coeffs.values())
    lines = [f"term: {args.term}", f"normal form: {p}"]
    data = {
        "term": args.term,
        "normal_form": str(p),
        "vars": list(p.vars),
        "records": p.to_records(),
    }
    return 0, lines, data


def _capped_normal_form(text: str, max_vars: int):
    """Normal form of a term whose vertex table is about to be listed:
    the variable cap is checked first."""
    from .polynomial import check_var_cap, normalize, pair_cap
    from .terms import parse, variables

    term = parse(text)
    check_var_cap(variables(term), max_vars)
    return normalize(term, pair_cap(max_vars))


def _cmd_expand(args, caps):
    from .polynomial import expand

    e = expand(_capped_normal_form(args.term, caps["max_vars"]))
    _check_printable(e.coeff_at.values())
    lines = [f"term: {args.term}", "vars: " + " ".join(e.vars), str(e)]
    coeff_rows = [{"vertex": list(v), "coeff": e.coeff_at[v]} for v in e.vertices()]
    data = {"term": args.term, "vars": list(e.vars), "coefficients": coeff_rows}
    return 0, lines, data


def _cmd_interpret(args, caps):
    from .polynomial import INTERPRETABLE, bits, expand, interpretability

    p = _capped_normal_form(args.term, caps["max_vars"])
    _check_printable(p.coeffs.values())
    verdict = interpretability(p)
    lines = [f"term: {args.term}", f"normal form: {p}", f"verdict: {verdict.kind}"]
    coeff_at = expand(p).coeff_at if verdict.bad_vertices else {}
    _check_printable(coeff_at[v] for v in verdict.bad_vertices)
    for v in verdict.bad_vertices:
        lines.append(f"bad constituent {bits(v)}: coefficient {coeff_at[v]}")
    data = {
        "term": args.term,
        "verdict": verdict.kind,
        "bad_vertices": [list(v) for v in verdict.bad_vertices],
    }
    code = 0 if verdict.kind == INTERPRETABLE else 1
    return code, lines, data


def _cmd_check(args, caps):
    from .classes import semantic_consequence
    from .derivation import certify_consequence, verify_certificate
    from .horn import equation_variables, format_equation
    from .polynomial import boole_oracle, check_var_cap, pair_cap
    from .problems import parse_problem

    with open(args.problem) as fh:
        problem = parse_problem(fh.read())
    premisses = [format_equation(eq) for eq in problem.premisses]
    conclusion = format_equation(problem.conclusion)
    lines = [
        f"problem: {args.problem}",
        *(f"premiss: {eq}" for eq in premisses),
        f"conclusion: {conclusion}",
    ]
    verdicts = {}
    data = {
        "premisses": premisses,
        "conclusion": conclusion,
        "mode": args.mode,
        "verdicts": verdicts,
    }
    symbolic = []  # the oracle, certificate and trace verdicts, as run
    want = (
        ("oracle", "certificate", "semantic") if args.mode == "all" else (args.mode,)
    )
    # every mode may take 2^m steps: count before any normal form
    equations = [*problem.premisses, problem.conclusion]
    check_var_cap(set().union(*map(equation_variables, equations)), caps["max_vars"])
    if "oracle" in want:
        oracle = boole_oracle(
            problem.premisses, problem.conclusion, max_vars=caps["max_vars"]
        )
        tail = f" at {_witness_str(oracle.witness)}" if not oracle.valid else ""
        lines.append(f"oracle: {'valid' if oracle.valid else 'invalid'}{tail}")
        verdicts["oracle"] = vars(oracle)
        symbolic.append(oracle.valid)
    if "certificate" in want:
        cert = certify_consequence(
            problem.premisses, problem.conclusion, max_vars=caps["max_vars"]
        )
        if cert is None:
            lines.append("certificate: none (oracle rejects)")
            verdicts["certificate"] = {"produced": False}
            symbolic.append(False)
        else:
            _check_printable([cert.n, *(c for cof in cert.cofactors for c in cof.coeffs.values())])
            checked = verify_certificate(problem.premisses, problem.conclusion, cert)
            state = "verified" if checked.verified else "REJECTED"
            lines.append(f"certificate: {state} (n={cert.n})")
            lines.extend(f"cofactor {j}: {cof}" for j, cof in enumerate(cert.cofactors, 1))
            verdicts["certificate"] = {
                "produced": True,
                "verified": checked.verified,
                **cert.to_json_dict(),
            }
            symbolic.append(checked.verified)
    semantic = None
    if "semantic" in want:
        semantic = semantic_consequence(
            problem.premisses,
            problem.conclusion,
            max_n=problem.max_n,
            cap=caps["max_universe"],
        )
        lines.append(f"semantic: {_semantic_str(semantic)}")
        verdicts["semantic"] = vars(semantic)
    if args.trace is not None:
        from .derivation import TraceVerdict, check_trace, parse_trace

        with open(args.trace) as fh:
            trace = parse_trace(fh.read(), premisses=problem.premisses)
        derived = trace.conclusion  # an empty trace raises: it derives nothing
        verdict = check_trace(trace, problem.mode, max_pairs=pair_cap(caps["max_vars"]))
        if verdict.accepted and derived != problem.conclusion:
            reason = f"the last step is not the conclusion {conclusion}"
            verdict = TraceVerdict(False, len(trace.steps), reason)
        lines.append(f"trace ({problem.mode}): {_trace_str(verdict)}")
        verdicts["trace"] = {"mode": problem.mode, **vars(verdict)}
        symbolic.append(verdict.accepted)
    if semantic is not None and any(v != semantic.valid for v in symbolic):
        lines.append(
            "note: the symbolic and the class-algebra verdicts disagree;"
            " the symbolic calculus is not sound for partial class semantics"
        )
        data["disagreement"] = True
    return (0 if all(symbolic) and (semantic is None or semantic.valid) else 1), lines, data


def _cmd_embed(args, caps):
    from .classes import verify_chi_embedding

    verdict = verify_chi_embedding(args.boole, max_n=caps["max_universe"])
    lines = [f"universe size: {args.boole}", f"indicator embedding: {_chi_str(verdict)}"]
    data = {"n": args.boole, **vars(verdict)}
    return (0 if verdict.ok else 1), lines, data


def _cmd_model_search(args, caps):
    from .algebra import format_algebra
    from .horn import parse_theory
    from .models import search_total_model

    with open(args.theory) as fh:
        sentences = parse_theory(fh.read())
    model = search_total_model(sentences, args.size, max_size=caps["max_model_size"])
    lines = [f"theory: {args.theory}", f"size: {args.size}"]
    if model is None:
        lines.append("no total model of this size")
        data = {"size": args.size, "found": False}
        return 1, lines, data
    text = format_algebra(model)
    lines.append("model:")
    lines.extend(text.rstrip("\n").splitlines())
    data = {"size": args.size, "found": True, "model": text}
    return 0, lines, data


def _cmd_counterexample(args, caps):
    if args.which == "intro":
        return _counterexample_intro()
    return _counterexample_cx(caps)


def _counterexample_intro():
    from . import counterexamples as cx
    from .algebra import format_algebra, holds

    algebra = cx.intro_algebra()
    laws = (*cx.intro_laws(), cx.intro_collapse())
    verdicts = [holds(algebra, law) for law in laws]
    lines = ["counterexample: intro", "algebra:"]
    lines.extend(format_algebra(algebra).rstrip("\n").splitlines())
    lines.extend(f"law {law}: {_holds_str(v)}" for law, v in zip(laws, verdicts))
    lines.append(
        "note: both defining laws hold where defined, yet their equational"
        " consequence x = y fails on the partial algebra"
    )
    v1, v2, v3 = verdicts
    expected = v1.holds and v2.holds and not v3.holds and v3.witness == {
        "x": "0",
        "y": "1",
    }
    data = {
        "which": "intro",
        "laws": [{"sentence": str(law), **vars(v)} for law, v in zip(laws, verdicts)],
        "reproduced": expected,
    }
    return (0 if expected else 1), lines, data


def _counterexample_cx(caps):
    from . import counterexamples as cx
    from .classes import semantic_consequence, subset_name
    from .derivation import HAILPERIN, SIGMA1, check_trace, format_trace
    from .horn import format_equation

    trace = cx.cx_trace()
    sigma1 = check_trace(trace, SIGMA1)
    hailperin = check_trace(trace, HAILPERIN)
    conclusion = cx.cx_conclusion()
    semantic = semantic_consequence(
        (), conclusion, max_n=1, cap=caps["max_universe"]
    )
    text = format_trace(trace)
    lines = [
        "counterexample: cx",
        "mode sigma1 admits idempotence on arbitrary terms and is unsound for class algebras",
        "trace:",
    ]
    lines.extend("  " + l for l in text.rstrip("\n").splitlines())
    lines.append(f"sigma1 check: {_trace_str(sigma1)}")
    lines.append(f"hailperin check: {_trace_str(hailperin)}")
    lines.append(f"conclusion: {format_equation(conclusion)}")
    tail = "" if semantic.valid else " (the universe itself)"
    lines.append(f"semantic check: {_semantic_str(semantic)}{tail}")
    lines.append(
        "note: the sigma1 derivation is accepted symbolically, but its"
        " conclusion fails in the class algebras"
    )
    expected = (
        sigma1.accepted
        and not hailperin.accepted
        and hailperin.step == 1
        and not semantic.valid
        and semantic.witness_n == 1
        and semantic.witness == {"x": subset_name(1)}
    )
    data = {
        "which": "cx",
        "trace": text,
        "sigma1": {"accepted": sigma1.accepted},
        "hailperin": vars(hailperin),
        "conclusion": format_equation(conclusion),
        "semantic": {
            "valid": semantic.valid,
            "witness_n": semantic.witness_n,
            "witness": semantic.witness,
        },
        "reproduced": expected,
    }
    return (0 if expected else 1), lines, data


def _cmd_theorem_demo(args, caps):
    from . import counterexamples as cx
    from .algebra import holds, holds_total
    from .classes import verify_chi_embedding
    from .models import embeds_into_mod_bounded, enumerate_total_models

    lines = ["theorem-demo"]
    data: dict = {"chi": [], "principles_failure": {}}
    all_ok = True

    lines.append("embedding direction: class algebras land in integer-vector rings")
    for n in (1, 2, 3):
        verdict = verify_chi_embedding(n, max_n=caps["max_universe"])
        all_ok = all_ok and verdict.ok
        lines.append(f"  indicator embedding n={n}: {_chi_str(verdict)}")
        data["chi"].append(
            {"n": n, "ok": verdict.ok, "entries": verdict.entries_checked}
        )

    lines.append("failure direction: holding laws without an embedding do not transfer")
    algebra = cx.intro_algebra()
    laws = cx.intro_laws()
    sigma = cx.intro_collapse()
    result = embeds_into_mod_bounded(
        algebra, laws, caps["max_model_size"], cap=caps["max_model_size"]
    )
    found = "found one (unexpected)" if result.found else f"none up to size {result.max_size}"
    lines.append(f"  embedding search: {found}")
    model_count = 0
    sigma_everywhere = True
    for size in range(1, caps["max_model_size"] + 1):
        for model in enumerate_total_models(laws, size, base_signature=algebra.signature):
            model_count += 1
            if not holds_total(model, sigma).holds:
                sigma_everywhere = False
    lines.append(
        f"  total models of the two laws up to size {caps['max_model_size']}:"
        f" {model_count}; x = y holds in {'all' if sigma_everywhere else 'NOT all'}"
    )
    on_partial = holds(algebra, sigma)
    lines.append(f"  on the partial algebra: x = y {_holds_str(on_partial)}")
    all_ok = all_ok and not result.found and sigma_everywhere and not on_partial.holds
    data["principles_failure"] = {
        "embedding_found": result.found,
        "max_size": result.max_size,
        "total_models": model_count,
        "sigma_holds_in_all_models": sigma_everywhere,
        "sigma_fails_on_partial": not on_partial.holds,
        "witness": on_partial.witness,
    }
    lines.append(
        "note: consequence transfers through an embedding into total models,"
        " and only through one"
    )
    return (0 if all_ok else 1), lines, data


_HANDLERS = {
    "normalize": _cmd_normalize,
    "expand": _cmd_expand,
    "interpret": _cmd_interpret,
    "check": _cmd_check,
    "embed": _cmd_embed,
    "model-search": _cmd_model_search,
    "counterexample": _cmd_counterexample,
    "theorem-demo": _cmd_theorem_demo,
}


def run(argv=None) -> int:
    """Execute one CLI invocation and return its exit code.

    A usage error or an exceeded cap after the arguments parse prints
    one line to stderr; under ``--json`` it also prints a report with
    status "error" and the message in ``data.error``.  Running out of
    memory counts as an exceeded cap."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    status = "ok"
    try:
        code, lines, data = _HANDLERS[args.command](args, _caps(args))
    except CapExceeded as exc:
        code, status, data = 3, "error", {"error": str(exc)}
    except MemoryError:
        # no name for the exception: its traceback's frames hold the
        # half-built tables, and they go when this block ends
        code, status, data = 3, "error", {"error": "out of memory"}
    except (ValueError, OSError) as exc:
        code, status, data = 2, "error", {"error": str(exc)}
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if status == "error":
        print(f"{'cap exceeded' if code == 3 else 'error'}: {data['error']}", file=sys.stderr)
        if not args.json:
            return code
    try:
        if args.json:
            import json

            report = {
                "schema": "boolelab/1",
                "command": args.command,
                "status": status,
                "exit_code": code,
                "data": data,
                "timing_ms": round(elapsed_ms, 3),
            }
            print(json.dumps(report, indent=2))
        else:
            for line in lines:
                print(line)
            print(f"time: {elapsed_ms:.1f} ms")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # interpreter's flush at exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())
