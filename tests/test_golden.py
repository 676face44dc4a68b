"""The golden CLI corpus in-process: each case in ``tests/golden/`` runs
through ``cli.run`` and must exit with the code, and print the stdout
and stderr, that its file holds.  The case format, the work directory
and the comparison are ``golden_corpus``'s, which also runs the cases
through an installed package.

``PYTHONPATH=src python tests/test_golden.py`` rewrites the expected
part of every case from its argv; a new case starts as a file holding
only its argv.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from boolelab.cli import run
from golden_corpus import CASES, case_environ, expected, make_workdir, record


def run_case(argv: list) -> dict:
    """The record of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return record(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return make_workdir(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES, ids=lambda path: path.stem)
def test_cli_output_matches_the_golden_case(case, workdir, monkeypatch):
    argv, want = expected(case)
    monkeypatch.chdir(workdir)
    with mock.patch.dict(os.environ):
        case_environ(os.environ)
        assert run_case(argv) == want


def test_the_corpus_is_not_empty():
    assert len(CASES) >= 40


if __name__ == "__main__":
    case_environ(os.environ)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(make_workdir(Path(tmp)))
        for case in CASES:
            argv = json.loads(case.read_text())["argv"]
            case.write_text(json.dumps({"argv": argv, **run_case(argv)}, indent=1) + "\n")
            print(case.name)
