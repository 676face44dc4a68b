"""Independent answers for the benchmark's correctness checks.

Nothing here calls into boolelab's evaluators, normal forms or search:
terms are read through their node classes only, polynomials through
their coefficient dictionaries only.  Integer and class semantics are
re-implemented directly (class elements as bitmasks), so an expected
value never routes through the code being measured.
"""

from __future__ import annotations

import itertools

from boolelab.terms import Add, IntLit, Mul, Sub, Var


def term_vars(t, out=None) -> set:
    out = set() if out is None else out
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, (Add, Sub, Mul)):
        term_vars(t.left, out)
        term_vars(t.right, out)
    return out


def _py(t) -> str:
    if isinstance(t, Var):
        return "e[%r]" % t.name
    if isinstance(t, IntLit):
        return str(t.value)
    op = {Add: "+", Sub: "-", Mul: "*"}[type(t)]
    return f"({_py(t.left)} {op} {_py(t.right)})"


def int_function(t):
    """The term as a Python function of an environment dict, evaluated
    over the integers (total ring semantics)."""
    return eval("lambda e: " + _py(t))  # source built from Term nodes only


def difference_functions(equations):
    return [
        (lambda f, g: lambda e: f(e) - g(e))(int_function(l), int_function(r))
        for l, r in equations
    ]


def ground_names(premisses, conclusion) -> tuple:
    names: set = set()
    for l, r in [*premisses, conclusion]:
        term_vars(l, names)
        term_vars(r, names)
    return tuple(sorted(names))


def vertex_witness(premisses, conclusion):
    """The lexicographically least 0/1 vertex, as a name -> bit dict,
    that kills every premiss difference but not the conclusion
    difference; None when there is none."""
    names = ground_names(premisses, conclusion)
    gs = difference_functions(premisses)
    (f,) = difference_functions([conclusion])
    for bits in itertools.product((0, 1), repeat=len(names)):
        e = dict(zip(names, bits))
        if all(g(e) == 0 for g in gs) and f(e) != 0:
            return e
    return None


def interpretability_reference(t):
    """(verdict, bad vertices) of a term: the vertices, over its own
    symbols in order, where its value is not 0 or 1."""
    names = sorted(term_vars(t))
    f = int_function(t)
    bad = tuple(
        bits
        for bits in itertools.product((0, 1), repeat=len(names))
        if f(dict(zip(names, bits))) not in (0, 1)
    )
    if not bad:
        return "interpretable", bad
    if len(bad) == 1 << len(names):
        return "never-interpretable", bad
    return "conditionally-interpretable", bad


def support_size(equation, names) -> int:
    """Number of 0/1 vertices over ``names`` where lhs - rhs is nonzero."""
    (f,) = difference_functions([equation])
    return sum(
        1 for bits in itertools.product((0, 1), repeat=len(names)) if f(dict(zip(names, bits)))
    )


def vertex_rank(names, witness) -> int:
    rank = 0
    for name in names:
        rank = 2 * rank + witness[name]
    return rank


def _values_at_vertices(coeffs, index, m) -> list:
    """Values of a multilinear polynomial at all 2^m vertices, vertex
    bitmask i with bit (m-1-k) standing for variable k, by a zeta
    transform over the subset lattice."""
    table = [0] * (1 << m)
    for mono, c in coeffs.items():
        mask = 0
        for name in mono:
            mask |= 1 << index[name]
        table[mask] += c
    for bit in range(m):
        step = 1 << bit
        for mask in range(1 << m):
            if mask & step:
                table[mask] += table[mask ^ step]
    return table


def certificate_holds(premisses, conclusion, n, cofactors) -> bool:
    """n*f == sum_j c_j*g_j at every 0/1 vertex.  Multilinear
    polynomials that agree on every vertex are equal, so this is the
    certificate identity itself, checked without normalizing."""
    if n < 1 or len(cofactors) != len(premisses):
        return False
    names = ground_names(premisses, conclusion)
    for c in cofactors:
        for mono in c:
            if not set(mono) <= set(names):
                names = tuple(sorted(set(names) | set(mono)))
    m = len(names)
    index = {name: m - 1 - k for k, name in enumerate(names)}
    cof_values = [_values_at_vertices(c, index, m) for c in cofactors]
    gs = difference_functions(premisses)
    (f,) = difference_functions([conclusion])
    for mask, bits in enumerate(itertools.product((0, 1), repeat=m)):
        e = dict(zip(names, bits))
        rhs = sum(cv[mask] * g(e) for cv, g in zip(cof_values, gs))
        if n * f(e) != rhs:
            return False
    return True


# ------------------------------------------------------- class semantics


def subset_name(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def class_value(t, env, full):
    """Strict partial evaluation in the power-set algebra with the given
    full mask: union only of disjoint classes, difference only of a
    contained class; None for undefined."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, IntLit):
        return {0: 0, 1: full}.get(t.value)
    a = class_value(t.left, env, full)
    if a is None:
        return None
    b = class_value(t.right, env, full)
    if b is None:
        return None
    if isinstance(t, Mul):
        return a & b
    if isinstance(t, Add):
        return a | b if not a & b else None
    return a & ~b if not b & ~a else None


def _first_counter(names, antecedents, consequent, n):
    """Least assignment of masks (product order over ``names``) where
    every term is defined, every antecedent holds and the consequent
    (None = falsum) fails, or None."""
    full = (1 << n) - 1
    terms = [t for eq in antecedents for t in eq]
    if consequent is not None:
        terms += list(consequent)
    for masks in itertools.product(range(1 << n), repeat=len(names)):
        env = dict(zip(names, masks))
        values = []
        for t in terms:
            v = class_value(t, env, full)
            if v is None:
                break
            values.append(v)
        else:
            if all(values[2 * i] == values[2 * i + 1] for i in range(len(antecedents))):
                if consequent is None or values[-2] != values[-1]:
                    return env
    return None


def semantic_reference(premisses, conclusion, max_n):
    """(valid, witness_n, witness by subset name): the least
    counter-assignment in the smallest universe, as semantic_consequence
    defines it."""
    names = ground_names(premisses, conclusion)
    for n in range(1, max_n + 1):
        found = _first_counter(names, premisses, conclusion, n)
        if found is not None:
            return False, n, {k: subset_name(v) for k, v in found.items()}
    return True, None, None


def sentence_holds_on_classes(sentence, n) -> bool:
    consequent = None if not isinstance(sentence.consequent, tuple) else sentence.consequent
    return _first_counter(sentence.vars, sentence.antecedents, consequent, n) is None


# ------------------------------------------------------ partial algebras


def one_operation_algebras(elements):
    """Every partial binary operation '+' on every nonempty subset of the
    two given elements, as (carrier, table) pairs: 2 + 2 + 81 = 85."""
    out = []
    a, b = elements
    for carrier in ((a,), (b,), (a, b)):
        pairs = list(itertools.product(carrier, repeat=2))
        for values in itertools.product((None,) + carrier, repeat=len(pairs)):
            out.append((carrier, {p: v for p, v in zip(pairs, values) if v is not None}))
    return out


def weak_pairs(algebras):
    """Index pairs (i, j) with algebra i a weak subalgebra of algebra j."""
    return [
        (i, j)
        for i, (cp, tp) in enumerate(algebras)
        for j, (cq, tq) in enumerate(algebras)
        if set(cp) <= set(cq) and all(tq.get(k) == v for k, v in tp.items())
    ]


def is_embedding(p, q, mapping) -> bool:
    (cp, tp), (cq, tq) = p, q
    if mapping is None or set(mapping) != set(cp):
        return False
    image = [mapping[e] for e in cp]
    if len(set(image)) != len(image) or not set(image) <= set(cq):
        return False
    return all(
        tq.get((mapping[x], mapping[y])) == mapping[v] for (x, y), v in tp.items()
    )
