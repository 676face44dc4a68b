"""Each answer check of the benchmark counts a wrong answer as failed.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a source checkout.  Every test takes a real answer
from boolelab, corrupts it one way, and confirms the run records it as
a failure; the untouched answer must pass.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from boolelab.algebra import SatisfactionVerdict  # noqa: E402
from boolelab.derivation import Certificate  # noqa: E402
from boolelab.errors import CapExceeded  # noqa: E402
from boolelab.models import EmbedSearchResult  # noqa: E402
from boolelab.polynomial import OracleVerdict  # noqa: E402

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def failures(item, *answers):
    run = bench.Run()
    for answer in answers:
        run.record(item, answer, None)
    return run.failed


def by_id(items):
    return {item.id: item for item in items}


def test_wide_checks_count_wrong_answers():
    items = by_id(wl.wide_items(SEED))
    chain, rev, broken = items["chain.m8"], items["reversed.m8"], items["broken.m8"]
    good = {name: items[name].run() for name in ("chain.m8", "reversed.m8", "broken.m8")}
    assert failures(chain, good["chain.m8"]) == 0
    assert failures(rev, good["reversed.m8"]) == 0
    assert failures(broken, good["broken.m8"]) == 0

    ans = good["chain.m8"]
    assert failures(chain, dict(ans, oracle=OracleVerdict(False, {}))) == 1
    cert = ans["cert"]
    tampered = Certificate(cert.n, (cert.cofactors[0] + 1,) + cert.cofactors[1:])
    # verify_certificate's own verdict is left as it was: the independent
    # vertex check must catch the tampered cofactor by itself
    assert failures(chain, dict(ans, cert=tampered)) == 1
    assert failures(chain, dict(ans, cert=None)) == 1

    ans = good["reversed.m8"]
    moved = dict(ans["oracle"].witness)
    first = sorted(moved)[0]
    moved[first] = 1 - moved[first]
    assert failures(rev, dict(ans, oracle=OracleVerdict(False, moved))) == 1
    assert failures(rev, dict(ans, oracle=OracleVerdict(True))) == 1
    assert failures(broken, dict(good["broken.m8"], cert=cert)) == 1

    dense = next(it for name, it in items.items() if name.startswith("dense") and name.endswith("m8"))
    ans = dense.run()
    assert failures(dense, ans) == 0
    flipped = OracleVerdict(not ans["oracle"].valid, None if not ans["oracle"].valid else {})
    assert failures(dense, dict(ans, oracle=flipped)) == 1


def test_sweep_checks_count_wrong_answers():
    items = wl.sweep_items(SEED)[:40]
    answers = [(item, item.run()) for item in items]
    assert all(failures(item, ans) == 0 for item, ans in answers)
    item, ans = next((i, a) for i, a in answers if a["cert"] is not None)
    assert failures(item, dict(ans, cert=None)) == 1  # oracle and certificate disagree
    wrong_semantic = dataclasses.replace(ans["semantic"], valid=False, witness_n=1, witness={})
    assert failures(item, dict(ans, semantic=wrong_semantic)) == 1
    verdicts = list(ans["interpret"])
    other = "interpretable" if verdicts[0].kind != "interpretable" else "never-interpretable"
    verdicts[0] = dataclasses.replace(verdicts[0], kind=other)
    assert failures(item, dict(ans, interpret=verdicts)) == 1
    item, ans = next((i, a) for i, a in answers if not a["semantic"].valid)
    assert failures(item, dict(ans, semantic=dataclasses.replace(ans["semantic"], witness_n=2))) == 1


def test_search_checks_count_wrong_answers():
    items = by_id(wl.search_items(SEED))
    comm = items["commutative.k2"]
    models = comm.run()
    assert failures(comm, models) == 0
    assert failures(comm, models[:-1]) == 1
    assert failures(comm, models + models[:1]) == 1
    assert failures(items["hailperin.k1"], None) == 0
    assert failures(items["hailperin.k1"], models[0]) == 1

    intro = items["embed.intro"]
    assert failures(intro, intro.run()) == 0
    assert failures(intro, EmbedSearchResult(4, models[0], {})) == 1
    assert failures(items["models.intro"], []) == 1

    holds = items["holds.n2"]
    verdicts = holds.run()
    assert failures(holds, verdicts) == 0
    assert failures(holds, [SatisfactionVerdict(False, {})] + verdicts[1:]) == 1
    assert failures(holds, verdicts[:-1]) == 1

    weak = items["weak_pairs"]
    pairs = weak.run()
    assert failures(weak, pairs) == 0
    assert failures(weak, pairs[:-1]) == 1

    emb = next(it for name, it in items.items() if name.startswith("embedding"))
    mapping = emb.run()
    assert failures(emb, mapping) == 0
    collapsed = {k: next(iter(mapping.values())) for k in mapping}
    assert failures(emb, collapsed if len(mapping) > 1 else None) == 1


def test_cli_checks_count_wrong_answers():
    var, _ = wl.cli_commands(SEED)
    items = by_id(wl.cli_items(SEED))
    text = f"term: {var}\nnormal form: {var}\ntime: 0.2 ms\n"
    normalize = items["normalize"]
    assert failures(normalize, (0, text)) == 0
    assert failures(normalize, (1, text)) == 1
    assert failures(normalize, (0, text.replace(f"normal form: {var}", "normal form: 0"))) == 1
    # later calls must repeat the first call's output, timing aside
    assert failures(normalize, (0, text), (0, text.replace("0.2 ms", "0.3 ms"))) == 0
    assert failures(normalize, (0, text), (0, text + "extra\n")) == 1
    assert failures(normalize, (1, text), (1, text)) == 2  # a repeated wrong answer counts each time

    report = (
        '{\n  "schema": "boolelab/1",\n  "command": "normalize",\n  "status": "ok",\n'
        f'  "exit_code": 0,\n  "data": {{"normal_form": "{var}"}},\n  "timing_ms": 0.1\n}}\n'
    )
    json_normalize = items["json_normalize"]
    assert failures(json_normalize, (0, report)) == 0
    assert failures(json_normalize, (0, report.replace('"ok"', '"error"'))) == 1
    assert failures(json_normalize, (0, report), (0, report.replace("0.1", "9.9"))) == 0


def test_exceptions_and_caps_count_as_failures():
    def capped():
        raise CapExceeded("too many variables")

    item = wl.Item("capped", capped, lambda ans: None)
    run = bench.Run()
    bench.run_pass([item], run)
    assert (run.attempted, run.failed) == (1, 1)
