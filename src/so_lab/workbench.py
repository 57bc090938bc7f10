"""Built-in sentences and structure families, desk-scale inseparability
search over principal ultrafilters, and end-to-end demo scenarios with
structured reports.

The built-ins: "infinite" (an order without a top element, existentially
quantified), "at_least:n" (n pairwise distinct elements), "hamiltonian"
(a successor relation tied to an existential linear order so that it
traces one cycle through every vertex along edges), and "colorable:k"
(a proper k-coloring).  The Hamiltonicity and colorability sentences are
validated against direct backtracking oracles, which are the ground
truth for what the sentences are supposed to define.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import formulas as fm
from . import gen
from .errors import ValidationError
from .formula_space import (
    Fragment,
    boolean_closure,
    separating_combination,
    set_distance,
    vector_set,
)
from .structures import (
    EMPTY_SIGNATURE,
    GRAPH_SIGNATURE,
    FiniteStructure,
    Signature,
    _is_int,
    eval_so_full,
    find_isomorphism,
    models_up_to,
)
from .types_omitting import (
    TypeContext,
    check_omission_axiomatization,
    omits,
    omitted_by_all,
    property_A_check,
)
from .ultra import Ultrafilter, check_fubini, check_los


# ---------------------------------------------------------------------------
# Built-in formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedFormula:
    key: str
    formula: fm.Formula


_INFINITE_TEXT = (
    "EX2 R:2 ((ALL y ~R(y, y))"
    " & (ALL y ALL z ALL w ((R(y, z) & R(z, w)) -> R(y, w)))"
    " & (ALL y ALL z (R(y, z) | R(z, y) | y = z))"
    " & (ALL y EX z R(y, z)))"
)

_HAMILTONIAN_TEXT = (
    "EX2 S:2 EX2 L:2 ("
    "(ALL y EX z S(y, z))"
    " & (ALL y ALL z ALL w ((S(y, z) & S(y, w)) -> z = w))"
    " & (ALL y ALL z ALL w ((S(z, y) & S(w, y)) -> z = w))"
    " & (ALL y ALL z (S(y, z) -> edge(y, z)))"
    " & (ALL y ~L(y, y))"
    " & (ALL y ALL z ALL w ((L(y, z) & L(z, w)) -> L(y, w)))"
    " & (ALL y ALL z (y != z -> L(y, z) | L(z, y)))"
    " & (ALL y ALL z (S(y, z) ->"
    " (L(y, z) & ~(EX w (L(y, w) & L(w, z))))"
    " | (~(EX w L(y, w)) & ~(EX w L(w, z)))))"
    ")"
)


def _too_deep(label):
    # Refused as parse refuses text, since the evaluators recurse once or
    # more per level.
    return ValidationError(f"{label} is nested more than {fm.MAX_DEPTH} levels deep")


def _at_least(n: int) -> fm.Formula:
    if n < 1:
        raise ValidationError("at_least requires n >= 1")
    if n > fm.MAX_DEPTH:
        raise _too_deep(f"at_least:{n}")
    names = [f"x{i}" for i in range(n)]
    if n == 1:
        out = fm.Eq(names[0], names[0])
    else:
        # The n(n-1)/2 inequalities as one chain would nest past the
        # interpreter's recursion limit from n = 27 on.
        out = fm.balanced(fm.And, [
            fm.Not(fm.Eq(names[i], names[j]))
            for i in range(n) for j in range(i + 1, n)
        ])
    for name in reversed(names):
        out = fm.ExistsFO(name, out)
    if fm.scope(out).height > fm.MAX_DEPTH:
        raise _too_deep(f"at_least:{n}")
    return out


def _colorable(k: int) -> fm.Formula:
    if k < 1:
        raise ValidationError("colorable requires k >= 1")
    if k > fm.MAX_DEPTH:
        raise _too_deep(f"colorable:{k}")
    names = [f"C{i}" for i in range(k)]
    parts = [fm.ForallFO("x", fm.balanced(fm.Or, [fm.Atom(name, ("x",)) for name in names]))]
    for name in names:
        clash = fm.And(fm.Atom(name, ("x",)), fm.Atom(name, ("y",)))
        parts.append(
            fm.ForallFO("x", fm.ForallFO(
                "y", fm.Implies(fm.Atom("edge", ("x", "y")), fm.Not(clash))
            ))
        )
    out = fm.balanced(fm.And, parts)
    for name in reversed(names):
        out = fm.ExistsSO(name, 1, out)
    if fm.scope(out).height > fm.MAX_DEPTH:
        raise _too_deep(f"colorable:{k}")
    return out


def builtin(key: str) -> NamedFormula:
    """Look up a built-in sentence by its key; a count rides in the key
    ("at_least:3", "colorable:3")."""
    name, _, text = key.partition(":")
    if name in ("at_least", "colorable"):
        if not text:
            raise ValidationError(f"{name} requires a count, e.g. {name}:3")
        count = parse_int(f"the count of {key!r}", text)
    elif text:
        raise ValidationError(f"unknown builtin key {key!r}")
    if name == "infinite":
        return NamedFormula("infinite", fm.parse(_INFINITE_TEXT))
    if name == "at_least":
        return NamedFormula(f"at_least:{count}", _at_least(count))
    if name == "hamiltonian":
        return NamedFormula("hamiltonian", fm.parse(_HAMILTONIAN_TEXT))
    if name == "colorable":
        return NamedFormula(f"colorable:{count}", _colorable(count))
    raise ValidationError(f"unknown builtin key {key!r}")


# ---------------------------------------------------------------------------
# Graph families and oracles
# ---------------------------------------------------------------------------

def graph_structure(n: int, undirected_edges) -> FiniteStructure:
    """Symmetric irreflexive edge relation from undirected pairs."""
    edges = set()
    for u, v in undirected_edges:
        if u == v:
            raise ValidationError("graphs here are irreflexive")
        edges.add((u, v))
        edges.add((v, u))
    return FiniteStructure(GRAPH_SIGNATURE, n, {"edge": edges})


def cycle_graph(n: int) -> FiniteStructure:
    if n < 3:
        raise ValidationError("cycle_graph requires n >= 3")
    return graph_structure(n, [(i, (i + 1) % n) for i in range(n)])


def double_cycle(n: int) -> FiniteStructure:
    """Two disjoint n-cycles on 2n vertices."""
    if n < 3:
        raise ValidationError("double_cycle requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    return graph_structure(2 * n, edges)


def hamiltonian_oracle(A: FiniteStructure) -> bool:
    """Backtracking search for a cyclic arrangement of all vertices with
    every step (including the wrap-around) along an edge.  On one vertex
    this demands a loop; on two, the one edge in both orientations."""
    edges = A.rels["edge"]
    n = A.size
    if n == 1:
        return (0, 0) in edges
    adj = [sorted(v for u, v in edges if u == x and v != x) for x in range(n)]
    used = [False] * n
    used[0] = True

    def extend(v, depth):
        if depth == n:
            return (v, 0) in edges
        for w in adj[v]:
            if not used[w]:
                used[w] = True
                if extend(w, depth + 1):
                    return True
                used[w] = False
        return False

    return extend(0, 1)


def colorable_oracle(A: FiniteStructure, k: int) -> bool:
    edges = A.rels["edge"]
    if any(u == v for u, v in edges):
        return False
    n = A.size
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    color = [-1] * n

    def assign(v):
        if v == n:
            return True
        for c in range(k):
            if all(color[w] != c for w in adj[v]):
                color[v] = c
                if assign(v + 1):
                    return True
                color[v] = -1
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Inseparability search at principal scale
# ---------------------------------------------------------------------------

PRINCIPAL_SCALE_NOTE = (
    "principal-ultrafilter instance searched exhaustively; at this scale"
    " ultraproducts collapse to a factor and every relation is decomposable,"
    " so inseparability reduces to an isomorphism between members."
    " A refutation here does not refute the unrestricted notion."
)


@dataclass(frozen=True)
class InsepReport:
    witness: tuple[int, int, tuple[int, ...]] | None
    pairs_searched: int
    note: str

    def to_json_dict(self):
        return {
            "witness": (
                None if self.witness is None
                else {"k_index": self.witness[0], "l_index": self.witness[1],
                      "mapping": list(self.witness[2])}
            ),
            "pairs_searched": self.pairs_searched,
            "note": self.note,
        }


def principal_insep_search(Ks, Ls) -> InsepReport:
    """Search every pair for an isomorphism; a witness certifies the
    principal instance of inseparability, a miss certifies only the
    exhaustion of this restricted search space."""
    Ks = list(Ks)
    Ls = list(Ls)
    searched = 0
    for ki, A in enumerate(Ks):
        for li, B in enumerate(Ls):
            searched += 1
            mapping = find_isomorphism(A, B)
            if mapping is not None:
                return InsepReport((ki, li, mapping), searched, PRINCIPAL_SCALE_NOTE)
    return InsepReport(None, searched, PRINCIPAL_SCALE_NOTE)


# ---------------------------------------------------------------------------
# Deterministic check suites
# ---------------------------------------------------------------------------

_SUITE_SIG = Signature.of({"p": 1, "edge": 2})


def los_suite(trials: int = 1000, seed: int = 42) -> dict:
    """Randomised transfer check: truth in the Henkin model of the
    ultraproduct must match largeness of the factor truth set, on every
    trial.  A trial takes 1 to 4 factors of 1 to 3 elements and a
    sentence of quantifier depth at most 3, a fixed shape that the
    report echoes under "params"."""
    max_index, max_size, max_depth = 4, 3, 3
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        m = rng.randint(1, max_index)
        family = gen.random_family(rng, _SUITE_SIG, m, max_size)
        U = Ultrafilter(m, rng.randrange(m))
        f = gen.random_formula(rng, _SUITE_SIG, max_quant_depth=max_depth,
                               max_so=2, max_binary_so=1, so_probability=0.35)
        report = check_los(family, U, f)
        if not report.agree:
            failures.append({
                "trial": trial,
                "formula": fm.print_formula(f),
                "sizes": [A.size for A in family],
                "ultrafilter": U.literal(),
                "ultra_truth": report.ultra_truth,
                "large_set_truth": report.large_set_truth,
            })
    return {
        "check": "los",
        "trials": trials,
        "seed": seed,
        "params": {"max_index": max_index, "max_size": max_size, "max_depth": max_depth},
        "agreed": trials - len(failures),
        "failures": failures,
        "pass": not failures,
    }


def fubini_suite(trials: int = 50, seed: int = 43) -> dict:
    """Randomised iterated-product check: the one-step product over the
    product ultrafilter must be isomorphic to the column-then-row
    construction, witnessed explicitly.  A trial takes a grid of 1 to 3
    rows and 1 or 2 columns of structures of 1 to 3 elements, a fixed
    shape that the report echoes under "params"."""
    max_rows, max_cols, max_size = 3, 2, 3
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        rows = rng.randint(1, max_rows)
        cols = rng.randint(1, max_cols)
        grid = [
            [gen.random_structure(rng, _SUITE_SIG, rng.randint(1, max_size))
             for _ in range(cols)]
            for _ in range(rows)
        ]
        F = Ultrafilter(rows, rng.randrange(rows))
        G = Ultrafilter(cols, rng.randrange(cols))
        try:
            check_fubini(grid, F, G)
        except Exception as exc:  # missing witness is a defect
            failures.append({"trial": trial, "shape": [rows, cols], "error": str(exc)})
    return {
        "check": "fubini",
        "trials": trials,
        "seed": seed,
        "params": {"max_rows": max_rows, "max_cols": max_cols, "max_size": max_size},
        "witnessed": trials - len(failures),
        "failures": failures,
        "pass": not failures,
    }


def metric_suite(pairs: int = 100, seed: int = 44) -> dict:
    """Randomised separation check over Boolean-closed fragments: a
    separating combination exists exactly when the vector sets are
    disjoint, exactly when their distance is positive; found separators
    are verified by evaluation.  Structures have 1 to 3 elements, a
    fixed size that the report echoes under "params"."""
    max_size = 3
    rng = random.Random(seed)
    failures = []
    separable = 0
    for trial in range(pairs):
        base = []
        while len(base) < 2:
            f = gen.random_formula(rng, _SUITE_SIG, max_quant_depth=2,
                                   max_connectives=3, max_so=1,
                                   max_binary_so=0, so_probability=0.3)
            if f not in base:
                base.append(f)
        fragment = boolean_closure(Fragment(_SUITE_SIG, tuple(base)), 1)
        K = gen.random_family(rng, _SUITE_SIG, rng.randint(1, 3), max_size)
        L = gen.random_family(rng, _SUITE_SIG, rng.randint(1, 3), max_size)
        kv = vector_set(K, fragment)
        lv = vector_set(L, fragment)
        disjoint = not (kv.vectors & lv.vectors)
        distance = set_distance(kv, lv)
        separator = separating_combination(kv, lv, fragment)
        ok = (separator is not None) == disjoint == (distance > 0)
        if separator is not None:
            ok = ok and all(eval_so_full(A, separator) for A in K)
            ok = ok and not any(eval_so_full(B, separator) for B in L)
        if ok:
            separable += disjoint
        else:
            failures.append({
                "trial": trial,
                "fragment_size": len(fragment),
                "disjoint": disjoint,
                "distance": str(distance),
                "separator_found": separator is not None,
            })
    return {
        "check": "metric",
        "pairs": pairs,
        "seed": seed,
        "params": {"max_size": max_size, "fragment_bound": 12},
        "separable_pairs": separable,
        "failures": failures,
        "pass": not failures,
    }


_OMISSION_SIG = Signature.of({"u": 1, "edge": 2})


def _omission_context() -> TypeContext:
    return TypeContext(
        (1,),
        (
            fm.parse("EX x X0(x)"),
            fm.parse("ALL x (X0(x) -> u(x))"),
            fm.parse("EX x EX y (X0(x) & edge(x, y))"),
            fm.parse("ALL x ALL y ((X0(x) & X0(y)) -> x = y)"),
        ),
    )


def omission_suite(choices: int = 20, seed: int = 45) -> dict:
    """Pool-scale omission check: with the omission set of K as the
    axiom candidate, the axiomatization check passes exactly when the
    pool-closure property holds, and otherwise both name the same
    counterexample structures.  The pool holds every structure of 1 to
    3 elements up to isomorphism, a fixed size that the report echoes
    under "params"."""
    max_size = 3
    rng = random.Random(seed)
    pool = models_up_to(fm.parse("ALL x x = x"), _OMISSION_SIG, max_size)
    ctx = _omission_context()
    failures = []
    passed_property = 0
    for trial in range(choices):
        kind = rng.random()
        if kind < 0.4:
            count = rng.randint(1, len(pool) - 1)
            K = rng.sample(pool, count)
        elif kind < 0.7:
            sentence = gen.random_formula(rng, _OMISSION_SIG, max_quant_depth=2,
                                          max_connectives=3, max_so=0,
                                          so_probability=0.0)
            K = [A for A in pool if eval_so_full(A, sentence)]
            if not K or len(K) == len(pool):
                K = rng.sample(pool, rng.randint(1, len(pool) - 1))
        else:
            # Saturate a seed sample under realized-type containment: the
            # result is closed by construction, so the positive branch of
            # the comparison is exercised too.  A pool member realizes
            # only types the sample covers exactly when it omits every
            # pool-realized type the sample omits.
            uncovered = omitted_by_all(rng.sample(pool, rng.randint(1, 5)), pool, ctx)
            K = [A for A in pool if all(omits(A, p, ctx) for p in uncovered)]
        pa = property_A_check(K, pool, ctx)
        Pi = omitted_by_all(K, pool, ctx)
        rep = check_omission_axiomatization(K, Pi, pool, ctx)
        same_counterexamples = set(rep.unexplained) == set(pa.counterexamples)
        if rep.ok != pa.ok or not same_counterexamples:
            failures.append({
                "trial": trial,
                "k_size": len(K),
                "property_a": pa.ok,
                "axiomatization": rep.ok,
                "counterexamples_match": same_counterexamples,
            })
        passed_property += pa.ok
    return {
        "check": "omission",
        "choices": choices,
        "seed": seed,
        "params": {"max_size": max_size, "pool_size": len(pool),
                   "context": ctx.to_json_dict()},
        "property_a_passes": passed_property,
        "failures": failures,
        "pass": not failures,
    }


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------

def _check(name, expected, actual):
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual}


def parse_int(name, value, least=None):
    """value, an int or its decimal text, as an int; ValidationError when
    it is neither (a bool or a float is neither) or is below least.  The
    demos and the check command read every count (least 1) and seed
    through this."""
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if not _is_int(number):
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    if least is not None and number < least:
        raise ValidationError(f"{name} must be at least {least}, not {number}")
    return number


def _demo_np_example(params):
    nmax = params["n"]
    ham = builtin("hamiltonian").formula
    checks = []
    cycles = {}
    doubles = {}
    for n in range(2, nmax + 1):
        cycles[n] = cycle_graph(2 * n)
        truth = eval_so_full(cycles[n], ham)
        oracle = hamiltonian_oracle(cycles[n])
        checks.append(_check(f"C{2*n} hamiltonian", True, truth))
        checks.append(_check(f"C{2*n} oracle agreement", truth, oracle))
    for n in range(3, nmax + 1):
        doubles[n] = double_cycle(n)
        truth = eval_so_full(doubles[n], ham)
        oracle = hamiltonian_oracle(doubles[n])
        checks.append(_check(f"D{n} hamiltonian", False, truth))
        checks.append(_check(f"D{n} oracle agreement", truth, oracle))
    for n in range(3, nmax + 1):
        iso = find_isomorphism(cycle_graph(2 * n), double_cycle(n))
        checks.append(_check(f"C{2*n} vs D{n} isomorphism", None, iso))
    report = principal_insep_search(list(cycles.values()), list(doubles.values()))
    checks.append(_check("principal-scale inseparability witness", None, report.witness))
    return checks


def _demo_infinity(params):
    nmax = params["nmax"]
    rng = random.Random(params["seed"])
    psi = builtin("infinite").formula
    corpus = []
    for n in range(1, nmax + 1):
        corpus.append(("empty-signature", FiniteStructure(EMPTY_SIGNATURE, n)))
    for n in range(3, min(nmax, 6) + 1):
        corpus.append((f"C{n}", cycle_graph(n)))
    if nmax >= 6:
        corpus.append(("D3", double_cycle(3)))
    for _ in range(4):
        n = rng.randint(1, min(nmax, 4))
        corpus.append(("random-graph", gen.random_graph(rng, n)))
    for _ in range(4):
        n = rng.randint(1, min(nmax, 3))
        corpus.append(("random", gen.random_structure(rng, _SUITE_SIG, n)))
    checks = []
    for label, A in corpus:
        checks.append(_check(f"infinity false on {label} size {A.size}",
                             False, eval_so_full(A, psi)))
    return checks


def _demo_separation(params):
    ham = builtin("hamiltonian")
    fragment = Fragment(GRAPH_SIGNATURE, (ham.formula,))
    K = [cycle_graph(4), cycle_graph(6), cycle_graph(8)]
    L = [double_cycle(3), double_cycle(4)]
    kv = vector_set(K, fragment)
    lv = vector_set(L, fragment)
    separator = separating_combination(kv, lv, fragment)
    checks = [
        _check("separator found", True, separator is not None),
        _check("separator is the defining sentence", fm.print_formula(ham.formula),
               fm.print_formula(separator) if separator else None),
        _check("distance positive", True, set_distance(kv, lv) > 0),
        _check("separator true on all of K", True,
               all(eval_so_full(A, separator) for A in K) if separator else None),
        _check("separator false on all of L", True,
               not any(eval_so_full(B, separator) for B in L) if separator else None),
    ]
    return checks


def _demo_los_suite(params):
    suite = los_suite(params["trials"], params["seed"])
    return [_check("all transfer checks agree", True, suite["pass"]),
            _check("agreed", suite["trials"], suite["agreed"])]


def _demo_fubini_suite(params):
    suite = fubini_suite(params["trials"], params["seed"])
    return [_check("all grids witnessed", True, suite["pass"]),
            _check("witnessed", suite["trials"], suite["witnessed"])]


# Each demo with the defaults of the integer parameters it reads; all
# but seed are counts.  Every demo accepts seed, which the command line
# always passes.  `so-lab demo` offers the names in this order.
DEMOS = {
    "np_example": (_demo_np_example, {"n": 4}),
    "infinity": (_demo_infinity, {"nmax": 6, "seed": 42}),
    "los_suite": (_demo_los_suite, {"trials": 1000, "seed": 42}),
    "fubini_suite": (_demo_fubini_suite, {"trials": 50, "seed": 43}),
    "separation": (_demo_separation, {}),
}


def demo(name: str, params: dict | None = None) -> dict:
    """Run an end-to-end scenario; the report carries one entry per
    check plus the wall-clock runtime.  params maps parameters the demo
    reads to ints or their decimal text, and the report echoes each
    given key with its parsed int, keys sorted; any other key, a
    non-integer or a count below 1 raises ValidationError."""
    if name not in DEMOS:
        raise ValidationError(f"unknown demo {name!r}")
    run, defaults = DEMOS[name]
    given = {}
    for key, value in (params or {}).items():
        if key != "seed" and key not in defaults:
            raise ValidationError(f"demo {name!r} reads no parameter {key!r}")
        given[key] = parse_int(key, value, None if key == "seed" else 1)
    params = dict(sorted(given.items()))
    values = defaults | params
    start = time.monotonic()
    checks = run(values)
    runtime_ms = int((time.monotonic() - start) * 1000)
    return {
        "demo": name,
        "params": params,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "runtime_ms": runtime_ms,
    }
