"""The four benchmark workloads: inputs from a seed, items, answer checks.

A workload is a fixed list of items built from its seed.  Each item is
one call sequence into boolelab's public functions (``run``), a check
of its answer against an independently known value (``check``, which
returns a reason on a mismatch and None otherwise) and a canonical
digest of the answer, so that later passes over the same items can be
compared with the first without repeating the expensive checks.

Every call goes through a module attribute (``polynomial.normalize``,
never a name imported here), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from boolelab import algebra, classes, cli, derivation, horn, models, polynomial, problems
from boolelab.terms import Add, IntLit, Mul, Sub, Var

import reference as ref

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], object] = repr
    scale: dict = field(default_factory=dict)


def _renamer(rng, old_names, pool):
    """Order-preserving renaming of ``old_names`` (sorted) to names drawn
    from ``pool``, so every enumeration order the program uses is
    unchanged and the work stays the same from seed to seed."""
    new = sorted(rng.sample(pool, len(old_names)))
    return dict(zip(sorted(old_names), new))


def rename_term(t, mapping):
    if isinstance(t, Var):
        return Var(mapping.get(t.name, t.name))
    if isinstance(t, (Add, Sub, Mul)):
        return type(t)(rename_term(t.left, mapping), rename_term(t.right, mapping))
    return t


def rename_sentence(s, mapping):
    eq = lambda e: (rename_term(e[0], mapping), rename_term(e[1], mapping))
    consequent = s.consequent if not isinstance(s.consequent, tuple) else eq(s.consequent)
    return horn.HornSentence(
        tuple(mapping.get(v, v) for v in s.vars),
        tuple(eq(a) for a in s.antecedents),
        consequent,
    )


def _pretty(t) -> str:
    # full parenthesization, written here so that problem text does not
    # depend on the printer under test
    if isinstance(t, Var):
        return t.name
    if isinstance(t, IntLit):
        return str(t.value)
    op = {Add: "+", Sub: "-", Mul: "*"}[type(t)]
    return f"({_pretty(t.left)} {op} {_pretty(t.right)})"


def problem_text(premisses, conclusion, max_n=None) -> str:
    lines = [f"premiss: {_pretty(l)} = {_pretty(r)}" for l, r in premisses]
    lines.append(f"conclude: {_pretty(conclusion[0])} = {_pretty(conclusion[1])}")
    if max_n is not None:
        lines.append(f"max_n: {max_n}")
    return "\n".join(lines) + "\n"


def _poly_records(p) -> tuple:
    return tuple(sorted((tuple(sorted(mono)), c) for mono, c in p.coeffs.items()))


# ------------------------------------------------------------------ wide

WIDE_LEVELS = (8, 10, 12)
DENSE_M = 8
DENSE_COUNT = 4  # half valid by construction, half invalid
# Certify's cost grows with the number of vertices where the conclusion
# difference is nonzero, so valid dense problems are drawn until that
# number is in this band: the work then stays the same from seed to seed.
DENSE_SUPPORT = (56, 72)


def _chain(names, conclusion, drop=None):
    v = [Var(n) for n in names]
    premisses = [
        (Sub(v[i], Mul(v[i], v[i + 1])), IntLit(0))
        for i in range(len(v) - 1)
        if i != drop
    ]
    return premisses, conclusion(v)


def _factor(rng, v):
    a, b = rng.sample(v, 2)
    return rng.choice(
        (Sub(IntLit(1), Mul(a, b)), Sub(Add(a, b), Mul(a, b)), Sub(a, Mul(a, b)), Add(a, Mul(IntLit(2), b)))
    )


def _product(rng, v, k):
    t = _factor(rng, v)
    for _ in range(k - 1):
        t = Mul(t, _factor(rng, v))
    return t


def _dense(rng, names, valid):
    """Two premisses equating products of random two-symbol factors.  A
    valid conclusion is a combination of the premiss differences with
    random product coefficients; an invalid one is drawn at random until
    the reference finds a witness."""
    v = [Var(n) for n in names]
    low, high = DENSE_SUPPORT
    while True:
        premisses = [(_product(rng, v, 3), _product(rng, v, 2)) for _ in range(2)]
        if valid:
            lhs = Add(
                Mul(_product(rng, v, 2), Sub(*premisses[0])),
                Mul(_product(rng, v, 2), Sub(*premisses[1])),
            )
            conclusion = (lhs, IntLit(0))
            if low <= ref.support_size(conclusion, names) <= high:
                return premisses, conclusion
        else:
            conclusion = (_product(rng, v, 2), _product(rng, v, 3))
            if ref.vertex_witness(premisses, conclusion) is not None:
                return premisses, conclusion


def pipeline(text):
    """parse -> normalize -> oracle -> certificate -> verification."""
    p = problems.parse_problem(text)
    forms = [polynomial.normalize(Sub(l, r)) for l, r in [*p.premisses, p.conclusion]]
    oracle = polynomial.boole_oracle(p.premisses, p.conclusion)
    cert = derivation.certify_consequence(p.premisses, p.conclusion)
    checked = (
        derivation.verify_certificate(p.premisses, p.conclusion, cert)
        if cert is not None
        else None
    )
    return {"forms": forms, "oracle": oracle, "cert": cert, "verified": checked}


def pipeline_digest(ans):
    cert = ans["cert"]
    return repr((
        [_poly_records(f) for f in ans.get("forms", ())],
        ans["oracle"].valid,
        sorted((ans["oracle"].witness or {}).items()),
        None if cert is None else (cert.n, [_poly_records(c) for c in cert.cofactors]),
        None if ans["verified"] is None else ans["verified"].verified,
    ))


REFERENCE = "reference"  # expected witness: recompute independently when checking


def check_pipeline(premisses, conclusion, expected_witness, ans) -> str | None:
    """The oracle verdict and least witness must be the expected ones;
    a certificate must exist exactly for valid problems, verify, and
    satisfy the certificate identity at every vertex."""
    oracle, cert = ans["oracle"], ans["cert"]
    if expected_witness == REFERENCE:
        expected_witness = ref.vertex_witness(premisses, conclusion)
    if expected_witness is None:
        if not oracle.valid:
            return f"oracle rejects a valid problem at {oracle.witness}"
        if cert is None:
            return "no certificate for a valid problem"
        if ans["verified"] is None or not ans["verified"].verified:
            return "certificate does not verify"
        cofactors = [dict(c.coeffs) for c in cert.cofactors]
        if not ref.certificate_holds(premisses, conclusion, cert.n, cofactors):
            return "certificate identity fails at some vertex"
        return None
    if oracle.valid:
        return "oracle accepts an invalid problem"
    if oracle.witness != expected_witness:
        return f"witness {oracle.witness} is not the least one {expected_witness}"
    if cert is not None:
        return "certificate produced for an invalid problem"
    return None


def _pipeline_item(item_id, premisses, conclusion, expected_witness, scale):
    text = problem_text(premisses, conclusion)
    return Item(
        item_id,
        lambda: pipeline(text),
        lambda ans: check_pipeline(premisses, conclusion, expected_witness, ans),
        pipeline_digest,
        dict(scale, premisses=premisses, conclusion=conclusion),
    )


def wide_items(seed: int):
    rng = random.Random(seed)
    prefix = rng.choice("abcdefghkpqrstuw")
    items = []
    for m in WIDE_LEVELS:
        names = [f"{prefix}{i:02d}" for i in range(m)]
        # chain: valid, every vertex scanned
        p, c = _chain(names, lambda v: (Sub(v[0], Mul(v[0], v[-1])), IntLit(0)))
        items.append(_pipeline_item(f"chain.m{m}", p, c, None, {"m": m}))
        # reversed chain: invalid, least witness is vertex 1 (only the last symbol set)
        p, c = _chain(names, lambda v: (Sub(v[-1], Mul(v[0], v[-1])), IntLit(0)))
        witness = {n: int(i == m - 1) for i, n in enumerate(names)}
        items.append(_pipeline_item(f"reversed.m{m}", p, c, witness, {"m": m}))
        # broken chain: premiss k dropped; the least witness sets the
        # first k+1 symbols, so it lies past vertex 2^(m-1)
        k = rng.choice((m // 2 - 1, m // 2))
        p, c = _chain(names, lambda v: (Sub(v[0], Mul(v[0], v[-1])), IntLit(0)), drop=k)
        witness = {n: int(i <= k) for i, n in enumerate(names)}
        items.append(_pipeline_item(f"broken.m{m}", p, c, witness, {"m": m}))
    names = [f"{prefix}{i:02d}" for i in range(DENSE_M)]
    for j in range(DENSE_COUNT):
        p, c = _dense(rng, names, valid=j % 2 == 0)
        items.append(_pipeline_item(f"dense{j}.m{DENSE_M}", p, c, REFERENCE, {"m": DENSE_M}))
    return items


# ----------------------------------------------------------------- sweep

SWEEP_ITEMS = 800
SWEEP_MAX_N = 3


def _random_term(rng, names, depth):
    # the shape of the suite's random ground arguments
    if depth <= 1 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return IntLit(rng.choice((0, 1, 1, 2, 3)))
        return Var(rng.choice(names))
    op = rng.choice((Add, Sub, Mul))
    return op(_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))


def sweep_argument(text):
    p = problems.parse_problem(text)
    verdicts = [
        polynomial.interpretability(polynomial.normalize(t))
        for eq in [*p.premisses, p.conclusion]
        for t in eq
    ]
    oracle = polynomial.boole_oracle(p.premisses, p.conclusion)
    cert = derivation.certify_consequence(p.premisses, p.conclusion)
    checked = (
        derivation.verify_certificate(p.premisses, p.conclusion, cert)
        if cert is not None
        else None
    )
    semantic = classes.semantic_consequence(p.premisses, p.conclusion, max_n=p.max_n)
    return {
        "interpret": verdicts,
        "oracle": oracle,
        "cert": cert,
        "verified": checked,
        "semantic": semantic,
    }


def sweep_digest(ans):
    sem = ans["semantic"]
    return repr((
        [(v.kind, v.bad_vertices) for v in ans["interpret"]],
        pipeline_digest(ans),
        (sem.valid, sem.witness_n, sorted((sem.witness or {}).items())),
    ))


def check_sweep(premisses, conclusion, ans) -> str | None:
    """Oracle verdict equals whether a certificate was produced; every
    certificate verifies; every certified problem is valid in the class
    algebras up to max_n (the embedding direction); each verdict equals
    an independent recomputation."""
    oracle, cert, sem = ans["oracle"], ans["cert"], ans["semantic"]
    if oracle.valid != (cert is not None):
        return "oracle verdict and certificate disagree"
    problem = check_pipeline(premisses, conclusion, REFERENCE, ans)
    if problem:
        return problem
    if cert is not None and not sem.valid:
        return "certified problem is semantically invalid"
    valid, wn, wit = ref.semantic_reference(premisses, conclusion, SWEEP_MAX_N)
    if (sem.valid, sem.witness_n, sem.witness) != (valid, wn, wit):
        return f"semantic verdict {sem} differs from reference {(valid, wn, wit)}"
    sides = [t for eq in [*premisses, conclusion] for t in eq]
    for t, v in zip(sides, ans["interpret"]):
        if (v.kind, v.bad_vertices) != ref.interpretability_reference(t):
            return f"interpretability verdict {v.kind} is wrong"
    return None


def sweep_items(seed: int):
    rng = random.Random(seed)
    pool = [c + d for c in "abcdefghkmnpqrstuw" for d in ("", "1", "2")]
    items = []
    for i in range(SWEEP_ITEMS):
        # symbol count and premiss count are fixed by position, not
        # drawn, so every seed has the same mix of small and large arguments
        v = 1 + i % 4
        names = sorted(rng.sample(pool, v))
        equation = lambda: (_random_term(rng, names, 3), _random_term(rng, names, 3))
        premisses = [equation() for _ in range((i // 4) % 3)]
        conclusion = equation()
        text = problem_text(premisses, conclusion, SWEEP_MAX_N)
        items.append(Item(
            f"arg{i}",
            (lambda text: lambda: sweep_argument(text))(text),
            (lambda p, c: lambda ans: check_sweep(p, c, ans))(premisses, conclusion),
            sweep_digest,
            {"v": len(ref.ground_names(premisses, conclusion)), "premisses": premisses,
             "conclusion": conclusion},
        ))
    return items


# ---------------------------------------------------------------- search

HAILPERIN_SIZES = (1, 2, 3, 4)
COMMUTATIVE_SIZES = (2, 3)
HOLDS_SIZES = (1, 2, 3, 4)


def check_commutative_models(k, found) -> str | None:
    """Exactly the k^(k(k+1)/2) commutative operations, each once."""
    tables = []
    for model in found:
        t = model.tables["+"]
        if any(t[(a, b)] != t[(b, a)] for a in model.carrier for b in model.carrier):
            return "a yielded model is not commutative"
        if len(t) != k * k:
            return "a yielded model is not total"
        tables.append(tuple(sorted(t.items())))
    expected = k ** (k * (k + 1) // 2)
    if len(set(tables)) != len(tables):
        return "a model is yielded twice"
    if len(tables) != expected:
        return f"{len(tables)} models, expected {expected}"
    return None


def check_embedding_found(p, q):
    return lambda mapping: None if ref.is_embedding(p, q, mapping) else f"{mapping} is not an embedding"


def search_items(seed: int):
    rng = random.Random(seed)
    pool = [c + d for c in "abcdefghkmnpqrstuw" for d in ("", "1", "2")]
    rename = _renamer(rng, ("x", "y", "z"), pool)
    items = []

    laws = tuple(rename_sentence(s, rename) for s in models.hailperin_laws())
    for k in HAILPERIN_SIZES:
        items.append(Item(
            f"hailperin.k{k}",
            (lambda k: lambda: models.search_total_model(laws, k))(k),
            lambda ans: None if ans is None else "found a finite model of the Hailperin laws",
            scale={"k": k},
        ))

    x, y = (Var(rename[n]) for n in ("x", "y"))
    text = (ROOT / "problems" / "commutative.thy").read_text()
    text = re.sub(r"\b[xyz]\b", lambda mt: rename[mt.group()], text)
    expected_theory = (horn.HornSentence((x.name, y.name), (), (Add(x, y), Add(y, x))),)
    items.append(Item(
        "parse_theory.commutative",
        lambda: horn.parse_theory(text),
        lambda ans: None if ans == expected_theory else f"parsed {ans}",
    ))
    for k in COMMUTATIVE_SIZES:
        items.append(Item(
            f"commutative.k{k}",
            (lambda k: lambda: list(models.enumerate_total_models(expected_theory, k)))(k),
            (lambda k: lambda ans: check_commutative_models(k, ans))(k),
            lambda ans: repr([sorted(m.tables["+"].items()) for m in ans]),
            scale={"k": k, "yields": True},
        ))

    a, b = sorted(rng.sample(pool, 2))
    intro = algebra.FinitePartialAlgebra(
        (a, b), (("+", 2),), {"+": {(a, a): a, (b, b): b}}
    )
    intro_laws = (
        horn.HornSentence((x.name, y.name), (), (Add(x, y), x)),
        horn.HornSentence((x.name, y.name), (), (Add(x, y), y)),
    )
    items.append(Item(
        "embed.intro",
        lambda: models.embeds_into_mod_bounded(intro, intro_laws, 4),
        lambda ans: None if (not ans.found and ans.max_size == 4) else "intro algebra embeds",
        lambda ans: repr((ans.found, ans.max_size)),
    ))
    items.append(Item(
        "models.intro",
        lambda: [m for k in (1, 2, 3, 4) for m in models.enumerate_total_models(intro_laws, k)],
        lambda ans: None if len(ans) == 1 and len(ans[0].carrier) == 1 else f"{len(ans)} total models",
        lambda ans: repr([m.carrier for m in ans]),
        scale={"yields": True},
    ))

    def check_holds(n, verdicts):
        for j, (law, verdict) in enumerate(zip(laws, verdicts)):
            expected = ref.sentence_holds_on_classes(law, n)
            if verdict.holds != expected:
                return f"law {j}: holds is {verdict.holds}, expected {expected}"
        return None if len(verdicts) == len(laws) else "a law was skipped"

    for n in HOLDS_SIZES:
        items.append(Item(
            f"holds.n{n}",
            (lambda n: lambda: [algebra.holds(classes.build_pu(n).algebra, law) for law in laws])(n),
            (lambda n: lambda ans: check_holds(n, ans))(n),
            lambda ans: repr([(v.holds, v.witness) for v in ans]),
            scale={"n": n},
        ))

    raw = ref.one_operation_algebras(sorted(rng.sample(pool, 2)))
    algebras = [algebra.FinitePartialAlgebra(c, (("+", 2),), {"+": t}) for c, t in raw]
    pairs = ref.weak_pairs(raw)

    def weak_scan():
        return [
            (i, j)
            for i, p in enumerate(algebras)
            for j, q in enumerate(algebras)
            if set(p.carrier) <= set(q.carrier) and algebra.is_weak_subalgebra(p, q).ok
        ]

    items.append(Item(
        "weak_pairs",
        weak_scan,
        lambda ans: None if (len(algebras) == 85 and len(ans) == 847 and ans == pairs)
        else f"{len(algebras)} algebras, {len(ans)} weak pairs",
    ))
    order = list(pairs)
    rng.shuffle(order)
    for i, j in order:
        items.append(Item(
            f"embedding.{i}.{j}",
            (lambda p, q: lambda: algebra.search_embedding(p, q))(algebras[i], algebras[j]),
            check_embedding_found(raw[i], raw[j]),
            lambda ans: repr(sorted(ans.items())) if ans is not None else "None",
        ))
    return items


# ------------------------------------------------------------------- cli

def cli_commands(seed: int):
    rng = random.Random(seed)
    var = rng.choice("abcdefghkmnpqrstuw") + rng.choice(("", "1", "2", "_a"))
    commands = [
        ("normalize", ["normalize", var]),
        ("json_normalize", ["--json", "normalize", var]),
        ("check", ["check", "problems/barbara.prob"]),
        ("json_check", ["--json", "check", "problems/barbara.prob"]),
        ("counterexample", ["counterexample", "cx"]),
    ]
    start = rng.randrange(len(commands))
    return var, commands[start:] + commands[:start]


_TIMING_LINE = re.compile(r'^(time: .*|\s*"timing_ms": .*)$\n?', re.M)


def strip_timing(out: str) -> str:
    return _TIMING_LINE.sub("", out)


def check_cli(name, var, ans) -> str | None:
    code, out = ans
    if code != 0:
        return f"exit code {code}"
    if name.startswith("json_"):
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if report.get("status") != "ok" or report.get("exit_code") != 0:
            return "report status is not ok"
        data = report["data"]
        if name == "json_normalize":
            return None if data.get("normal_form") == var else "wrong normal form"
        verdicts = data.get("verdicts", {})
        ok = (
            verdicts.get("oracle", {}).get("valid") is True
            and verdicts.get("certificate", {}).get("verified") is True
            and verdicts.get("semantic", {}).get("valid") is True
        )
        return None if ok else "Barbara is not valid under every mode"
    expected = {
        "normalize": [f"term: {var}", f"normal form: {var}"],
        "check": ["oracle: valid", "certificate: verified (n=1)", "semantic: valid (universe sizes 1..3)"],
        "counterexample": ["sigma1 check: accepted", "hailperin check: rejected at step 1"],
    }[name]
    lines = out.splitlines()
    missing = [e for e in expected if not any(line.startswith(e) for line in lines)]
    return f"missing {missing}" if missing else None


def spawn(argv) -> tuple[int, str]:
    """Run this interpreter directly (no launcher shim, no console
    script) on boolelab's sources; the child is waited for, or killed
    and waited for after 60 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout


def cli_items(seed: int):
    var, commands = cli_commands(seed)
    return [
        Item(
            name,
            (lambda argv: lambda: spawn(["-m", "boolelab", *argv]))(argv),
            (lambda name: lambda ans: check_cli(name, var, ans))(name),
            lambda ans: repr((ans[0], strip_timing(ans[1]))),
            {"argv": argv},
        )
        for name, argv in commands
    ]


def run_in_process(argv) -> tuple[int, str]:
    """One ``cli.run`` call in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


WORKLOADS = {
    "wide": wide_items,
    "sweep": sweep_items,
    "search": search_items,
    "cli": cli_items,
}
