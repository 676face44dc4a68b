"""Boole's partial algebra of classes, end to end.

Terms over {+, -, *, 0, 1}; multilinear normal forms and constituent
expansions; finite partial algebras with strict evaluation and
Horn satisfaction relative to definedness; the power-set class
algebras and their indicator-vector embedding; exhaustive total-model
and embedding search; and symbolic consequence with verifiable
cofactor certificates and two-mode derivation traces.
"""

from importlib import import_module

# Each exported name and the module that defines it.  Nothing is
# imported until a name is used: ``__getattr__`` loads the home module
# on first access and caches the name here, so a CLI call pays only for
# the modules its command runs.
_EXPORTS = {
    "algebra": (
        "FinitePartialAlgebra",
        "UNDEFINED",
        "check_embedding",
        "eval_term",
        "format_algebra",
        "holds",
        "holds_total",
        "is_weak_subalgebra",
        "parse_algebra",
        "presentation",
        "search_embedding",
    ),
    "classes": (
        "ClassAlgebra",
        "IntVector",
        "build_pu",
        "chi",
        "semantic_consequence",
        "verify_chi_embedding",
    ),
    "derivation": (
        "Certificate",
        "DerivationTrace",
        "HAILPERIN",
        "SIGMA1",
        "TraceStep",
        "certify_consequence",
        "check_trace",
        "format_trace",
        "parse_trace",
        "verify_certificate",
    ),
    "errors": ("CapExceeded",),
    "horn": (
        "Delta",
        "FALSUM",
        "HornSentence",
        "format_theory",
        "horn_sentence",
        "idempotence_guard",
        "identity",
        "parse_theory",
        "relativize",
    ),
    "models": (
        "EmbedSearchResult",
        "embeds_into_mod_bounded",
        "enumerate_total_models",
        "hailperin_laws",
        "search_total_model",
    ),
    "polynomial": (
        "ConstituentExpansion",
        "MultilinearPoly",
        "boole_oracle",
        "expand",
        "interpretability",
        "normalize",
        "unexpand",
    ),
    "terms": ("Add", "IntLit", "Mul", "ParseError", "Sub", "Term", "Var", "parse", "pretty"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load an exported name, or a module that defines some, on first use."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
