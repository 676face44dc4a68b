"""The golden CLI corpus: each case in ``tests/golden/`` runs through
``cli.run`` in-process and must exit with the code, and print the
stdout and stderr, that its file holds, byte for byte once ``time:``
lines and ``timing_ms`` values are stripped.

A case file ``tests/golden/<name>.json`` holds ``argv``, run from a
directory that holds ``problems/``, the small fixtures checked in under
``tests/golden/fixtures/`` and the large ones ``write_generated``
builds, and the expected ``exit_code``, ``stdout`` and ``stderr``, each
stream as its list of lines.  ``PYTHONPATH=src python
tests/test_golden.py`` rewrites the expected part of every case from
its argv; a new case starts as a file holding only its argv.
"""

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from boolelab.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
# the usage text of a usage error wraps at the terminal width
ENV = {"COLUMNS": "80"}
CAP_VARIABLES = ("BOOLELAB_MAX_VARS", "BOOLELAB_MAX_UNIVERSE", "BOOLELAB_MAX_MODEL_SIZE")
_TIMING = re.compile(r'^(time: .*| *"timing_ms": .*)\n', re.MULTILINE)


def _nest(depth: int, leaf: str = "x") -> str:
    return "x + (" * (depth - 1) + leaf + ")" * (depth - 1)


def write_generated(where: Path) -> None:
    """The fixtures too large to check in, as the CI job writes them."""
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


def run_case(argv: list) -> dict:
    """The exit code, stdout and stderr of one in-process call, timing
    stripped and each stream split into lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {
        "exit_code": code,
        "stdout": _TIMING.sub("", out.getvalue()).split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return make_workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES, ids=lambda path: path.stem)
def test_cli_output_matches_the_golden_case(case, workdir, monkeypatch):
    want = json.loads(case.read_text())
    monkeypatch.chdir(workdir)
    for name in CAP_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in ENV.items():
        monkeypatch.setenv(name, value)
    assert run_case(want["argv"]) == {k: want[k] for k in ("exit_code", "stdout", "stderr")}


def test_the_corpus_is_not_empty():
    assert len(CASES) >= 40


if __name__ == "__main__":
    for name in CAP_VARIABLES:
        os.environ.pop(name, None)
    os.environ.update(ENV)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(make_workdir(Path(tmp)))
        for case in CASES:
            argv = json.loads(case.read_text())["argv"]
            case.write_text(json.dumps({"argv": argv, **run_case(argv)}, indent=1) + "\n")
            print(case.name)
