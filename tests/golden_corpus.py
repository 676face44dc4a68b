"""The golden CLI corpus: the case files, the directory they run in and
the record they are compared as, plus a driver that runs every case
through an installed boolelab.

A case file ``tests/golden/<name>.json`` holds ``argv``, run from a
directory that holds ``problems/``, the small fixtures checked in under
``tests/golden/fixtures/`` and the large ones ``write_generated``
builds, and the expected ``exit_code``, ``stdout`` and ``stderr``, each
stream as its list of lines.  Stdout is compared with its ``time:``
lines and ``timing_ms`` values stripped, stderr byte for byte.

This module imports neither pytest nor boolelab.
``tests/test_golden.py`` runs the cases in-process and rewrites them.
Run as a script, under an interpreter where boolelab is installed::

    python tests/golden_corpus.py

it runs each case as ``python -X dev -W error -m boolelab <argv>``
under that interpreter, in a fresh work directory, with ``PYTHONPATH``
and every ``BOOLELAB_*`` variable removed, ``COLUMNS=120`` and a limit
of 10 s, and exits 1 if any case differs in its exit code, its stdout
or its stderr, or runs past its limit.
"""

import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
LIMIT = 10  # seconds per case in the driver
FIELDS = ("exit_code", "stdout", "stderr")
_TIMING = re.compile(r'^(time: .*| *"timing_ms": .*)\n', re.MULTILINE)


def case_environ(environ) -> None:
    """Make the mapping ``environ`` the environment a case runs in: no
    ``PYTHONPATH``, no ``BOOLELAB_*`` cap variable, and ``COLUMNS=120``,
    since argparse wraps usage and help text at the terminal width: at
    80 columns CPython 3.13 wraps a usage line otherwise than 3.10-3.12
    do, at 120 every version prints the same text."""
    for name in [n for n in environ if n == "PYTHONPATH" or n.startswith("BOOLELAB_")]:
        del environ[name]
    environ["COLUMNS"] = "120"


def _nest(depth: int, leaf: str = "x") -> str:
    return "x + (" * (depth - 1) + leaf + ")" * (depth - 1)


def write_generated(where: Path) -> None:
    """The fixtures too large to check in."""
    deep, half, hole = _nest(3000), _nest(2999), _nest(3000, "HOLE")
    # a trace that uses all nine rules on terms 3000 deep
    (where / "deep.prob").write_text(f"premiss: {deep} = {deep}\nconclude: x = x\nmode: sigma1\n")
    rules = ["Refl", "Sym 1", "Trans 1 2", "RingAxiomInstance", "IntegerSimplification 4"]
    steps = [(deep, deep, r) for r in rules] + [
        ("x", "x", "Refl"),
        (deep, deep, f"Congruence 6 {hole}"),
        (f"({half})*({half})", half, f"DeltaIdempotence {half}"),
        (deep, deep, "Premiss"),
        ("x", "x", "Refl"),
    ]
    lines = [f"{k}: {left} = {right} [{rule}]\n" for k, (left, right, rule) in enumerate(steps, 1)]
    (where / "deep.trace").write_text("".join(lines))
    # a rule argument of 4400 digits
    (where / "big.trace").write_text("1: x = x [Sym " + "9" * 4400 + "]\n")
    # 20 factors of 7 monomials: 2^8 monomial pairs at the fourth factor
    product = "*".join(["(a+b+c+d+e+f+1)"] * 20)
    (where / "ring20.trace").write_text(f"1: {product} = {product} [RingAxiomInstance]\n")


def make_workdir(where: Path) -> Path:
    """Fill ``where`` with every file a case names, under its case name."""
    shutil.copytree(ROOT / "problems", where / "problems")
    for fixture in (GOLDEN / "fixtures").iterdir():
        shutil.copy(fixture, where / fixture.name)
    write_generated(where)
    return where


def record(code: int, stdout: str, stderr: str) -> dict:
    """One run as a case file holds it: the exit code, and each stream
    split into lines, stdout with its timing stripped."""
    return {
        "exit_code": code,
        "stdout": _TIMING.sub("", stdout).split("\n"),
        "stderr": stderr.split("\n"),
    }


def expected(case: Path) -> tuple[list, dict]:
    """A case's argv and the record it expects."""
    want = json.loads(case.read_text())
    return want["argv"], {k: want[k] for k in FIELDS}


def run_installed(argv: list) -> dict | None:
    """The record of ``python -X dev -W error -m boolelab <argv>`` in a
    fresh work directory, or None past ``LIMIT`` seconds."""
    env = dict(os.environ)
    case_environ(env)
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "boolelab", *argv]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            done = subprocess.run(
                command,
                cwd=make_workdir(Path(tmp)),
                env=env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=LIMIT,
            )
        except subprocess.TimeoutExpired:
            return None
    return record(done.returncode, *(s.decode(errors="replace") for s in (done.stdout, done.stderr)))


def main() -> int:
    failed = 0
    for case in CASES:
        argv, want = expected(case)
        start = time.perf_counter()
        got = run_installed(argv)
        took = time.perf_counter() - start
        if got == want:
            print(f"ok    {took:5.2f} s  {case.stem}")
            continue
        failed += 1
        if got is None:
            print(f"FAIL  {took:5.2f} s  {case.stem}: no answer within {LIMIT} s")
            continue
        print(f"FAIL  {took:5.2f} s  {case.stem}: exit {got['exit_code']}, expected {want['exit_code']}")
        for stream in FIELDS[1:]:
            sys.stdout.writelines(
                line + "\n"
                for line in difflib.unified_diff(
                    want[stream], got[stream], f"expected {stream}", f"observed {stream}", lineterm=""
                )
            )
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
