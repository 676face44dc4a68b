"""The per-layer metrics of a traced run, from its spans and answers.

Every workload reports every metric below; a layer a workload does not
call reads 0.  Times and counts are per traced pass.  ``_s`` metrics of
a function are its inclusive busy time, summed over its calls, except
``derivation.certify_s``, which is certify's self time (the oracle and
``unexpand`` calls inside it are reported on their own).  Counts
computed from outside come from the first pass's answers: oracle
vertices for the benchmark's own oracle call on each problem (2^m if
valid, rank of the least witness + 1 if not), semantic assignments
enumerated up to the witness, cofactor monomials, models yielded.
Keys with a ``.m``/``.v``/``.n``/``.k`` suffix are growth-curve points:
the same quantity restricted to items of that scale.
"""

from __future__ import annotations

from collections import defaultdict

import reference as ref
from tracer import LAYERS, Tracer

CLI_COMMANDS = ("normalize", "json_normalize", "check", "json_check", "counterexample")

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.spans", "count"),
        ("polynomial.oracle_s", "s"),
        ("polynomial.oracle_calls", "count"),
        ("polynomial.oracle_vertices", "count"),
        ("polynomial.normalize_s", "s"),
        ("polynomial.normalize_calls", "count"),
        ("polynomial.interpretability_s", "s"),
        ("derivation.certify_s", "s"),
        ("derivation.unexpand_s", "s"),
        ("derivation.verify_s", "s"),
        ("derivation.certify_calls", "count"),
        ("derivation.cofactor_monomials", "count"),
        ("classes.semantic_s", "s"),
        ("classes.semantic_calls", "count"),
        ("classes.semantic_assignments", "count"),
        ("classes.build_pu_s", "s"),
        ("algebra.holds_s", "s"),
        ("algebra.holds_calls", "count"),
        ("algebra.eval_term_s", "s"),
        ("algebra.eval_term_calls", "count"),
        ("algebra.weak_sub_s", "s"),
        ("algebra.search_embedding_s", "s"),
        ("models.search_s", "s"),
        ("models.enumerate_s", "s"),
        ("models.models_yielded", "count"),
        ("models.embed_search_s", "s"),
        ("horn.parse_theory_s", "s"),
        ("terms.parse_s", "s"),
        ("terms.parse_calls", "count"),
        ("problems.parse_problem_s", "s"),
    ]
    + [(f"polynomial.oracle_s.m{m}", "s") for m in (8, 10, 12)]
    + [(f"derivation.certify_s.m{m}", "s") for m in (8, 10, 12)]
    + [(f"derivation.unexpand_s.m{m}", "s") for m in (8, 10, 12)]
    + [(f"classes.semantic_s.v{v}", "s") for v in (1, 2, 3, 4)]
    + [(f"algebra.holds_s.n{n}", "s") for n in (1, 2, 3, 4)]
    + [(f"models.search_s.k{k}", "s") for k in (1, 2, 3, 4)]
    + [(f"models.enumerate_s.k{k}", "s") for k in (2, 3)]
    + [
        ("cli.spawn_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.run_ms", "ms"),
        ("cli.json_overhead_ms", "ms"),
    ]
    + [(f"cli.{c}_p50_ms", "ms") for c in CLI_COMMANDS]
)


def span_metrics(tracer: Tracer, items, passes: int) -> dict:
    by_name = defaultdict(list)
    by_id = {}
    for span in tracer.spans:
        by_name[span[1]].append(span)
        by_id[span[0]] = span
    scale = {it.id: it.scale for it in items}

    def at(key, value):
        return lambda s: scale.get(s[7], {}).get(key) == value

    def inside(ancestor):
        def pred(s):
            parent = s[6]
            while parent is not None:
                p = by_id[parent]
                if p[1] == ancestor:
                    return True
                parent = p[6]
            return False
        return pred

    def busy(name, where=None):
        return sum(s[4] for s in by_name[name] if where is None or where(s)) / passes

    def own(name, where=None):
        return sum(s[4] - s[5] for s in by_name[name] if where is None or where(s)) / passes

    def calls(name):
        return len(by_name[name]) / passes

    self_s = defaultdict(float)
    for span in tracer.spans:
        self_s[span[1].split(".")[0]] += span[4] - span[5]
    for name, (seconds, _) in tracer.folded.items():
        self_s[name.split(".")[0]] += seconds
    eval_s, eval_calls = tracer.folded.get("algebra.eval_term", (0.0, 0))

    values = {f"{layer}.self_s": self_s[layer] / passes for layer in LAYERS}
    values.update({
        "trace.spans": len(tracer.spans) / passes,
        "polynomial.oracle_s": busy("polynomial.boole_oracle"),
        "polynomial.oracle_calls": calls("polynomial.boole_oracle"),
        "polynomial.normalize_s": busy("polynomial.normalize"),
        "polynomial.normalize_calls": calls("polynomial.normalize"),
        "polynomial.interpretability_s": busy("polynomial.interpretability"),
        "derivation.certify_s": own("derivation.certify_consequence"),
        "derivation.unexpand_s": busy("polynomial.unexpand", inside("derivation.certify_consequence")),
        "derivation.verify_s": busy("derivation.verify_certificate"),
        "derivation.certify_calls": calls("derivation.certify_consequence"),
        "classes.semantic_s": busy("classes.semantic_consequence"),
        "classes.semantic_calls": calls("classes.semantic_consequence"),
        "classes.build_pu_s": busy("classes.build_pu"),
        "algebra.holds_s": busy("algebra.holds"),
        "algebra.holds_calls": calls("algebra.holds"),
        "algebra.eval_term_s": eval_s / passes,
        "algebra.eval_term_calls": eval_calls / passes,
        "algebra.weak_sub_s": busy("algebra.is_weak_subalgebra"),
        "algebra.search_embedding_s": busy("algebra.search_embedding"),
        "models.search_s": busy("models.search_total_model"),
        "models.enumerate_s": busy("models.enumerate_total_models"),
        "models.embed_search_s": busy("models.embeds_into_mod_bounded"),
        "horn.parse_theory_s": busy("horn.parse_theory"),
        "terms.parse_s": busy("terms.parse"),
        "terms.parse_calls": calls("terms.parse"),
        "problems.parse_problem_s": busy("problems.parse_problem"),
    })
    for m in (8, 10, 12):
        values[f"polynomial.oracle_s.m{m}"] = busy("polynomial.boole_oracle", at("m", m))
        values[f"derivation.certify_s.m{m}"] = own("derivation.certify_consequence", at("m", m))
        values[f"derivation.unexpand_s.m{m}"] = busy(
            "polynomial.unexpand", lambda s, m=m: at("m", m)(s) and inside("derivation.certify_consequence")(s)
        )
    for v in (1, 2, 3, 4):
        values[f"classes.semantic_s.v{v}"] = busy("classes.semantic_consequence", at("v", v))
    for n in (1, 2, 3, 4):
        values[f"algebra.holds_s.n{n}"] = busy("algebra.holds", at("n", n))
    for k in (1, 2, 3, 4):
        values[f"models.search_s.k{k}"] = busy("models.search_total_model", at("k", k))
    for k in (2, 3):
        values[f"models.enumerate_s.k{k}"] = busy("models.enumerate_total_models", at("k", k))
    return values


def _subset_mask(name: str) -> int:
    body = name.strip("{}")
    return sum(1 << int(i) for i in body.split(",")) if body else 0


def answer_counts(items, answers) -> dict:
    """Work counts computed from outside, from one pass's answers."""
    counts = defaultdict(int)
    for item in items:
        answer = answers.get(item.id)
        if answer is None:
            continue
        if item.scale.get("yields"):
            counts["models.models_yielded"] += len(answer)
        if "premisses" not in item.scale:
            continue
        names = ref.ground_names(item.scale["premisses"], item.scale["conclusion"])
        oracle = answer["oracle"]
        counts["polynomial.oracle_vertices"] += (
            1 << len(names) if oracle.valid else ref.vertex_rank(names, oracle.witness) + 1
        )
        if answer["cert"] is not None:
            counts["derivation.cofactor_monomials"] += sum(
                len(c.coeffs) for c in answer["cert"].cofactors
            )
        semantic = answer.get("semantic")
        if semantic is not None:
            v = len(names)
            last = semantic.max_n if semantic.valid else semantic.witness_n - 1
            tried = sum((1 << n) ** v for n in range(1, last + 1))
            if not semantic.valid:
                rank = 0
                for name in names:
                    rank = rank * (1 << semantic.witness_n) + _subset_mask(semantic.witness[name])
                tried += rank + 1
            counts["classes.semantic_assignments"] += tried
    return counts
