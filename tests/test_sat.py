"""Differential tests of the SAT path of eval_so_full and its solver.

Closed sentences whose relation quantifiers form one homogeneous prefix
over a first-order matrix are decided by sat.eval_homogeneous.  The
reference below never touches sat.py: it loops over every assignment of
the relation variables with all_relations and evaluates the matrix with
eval_fo.  The solver alone is checked against truth tables on random
CNFs, and its counters bound its work on `infinite`.
"""
import hashlib
import itertools
import random

import pytest

from so_lab import formulas as fm
from so_lab import gen
from so_lab import sat
from so_lab.errors import ValidationError
from so_lab.structures import (
    EMPTY_SIGNATURE,
    Assignment,
    FiniteStructure,
    Signature,
    all_relations,
    eval_fo,
    eval_so_full,
    iter_structures,
)
from so_lab.workbench import builtin, cycle_graph, double_cycle

SIG = Signature.of({"p": 1, "edge": 2})
STRUCTURES = {n: list(iter_structures(SIG, n)) for n in (1, 2, 3)}
UP_TO_2 = STRUCTURES[1] + STRUCTURES[2]
UP_TO_3 = UP_TO_2 + STRUCTURES[3]


def reference(A, prefix, matrix, fo=None):
    names = [name for _, name, _ in prefix]
    spaces = [all_relations(A.size, arity) for _, _, arity in prefix]
    results = (eval_fo(A, matrix, Assignment(dict(fo or {}), dict(zip(names, combo))))
               for combo in itertools.product(*spaces))
    return any(results) if prefix[0][0] else all(results)


def sentence(prefix, matrix):
    for existential, name, arity in reversed(prefix):
        matrix = (fm.ExistsSO if existential else fm.ForallSO)(name, arity, matrix)
    return matrix


def _atom(rng, relvars, scope):
    roll = rng.random()
    if roll < 0.15:
        return fm.Eq(rng.choice(scope), rng.choice(scope))
    if roll < 0.45:
        name, arity = rng.choice((("p", 1), ("edge", 2)))
    else:
        name, arity = rng.choice(relvars)
    return fm.Atom(name, tuple(rng.choice(scope) for _ in range(arity)))


def _formula(rng, relvars, scope, depth):
    if depth == 0 or rng.random() < 0.2:
        return _atom(rng, relvars, scope)
    roll = rng.randrange(8)
    if roll < 2:
        # Mostly a fresh variable; now and then a shadowing one.
        fresh = [v for v in "xyzw" if v not in scope]
        var = rng.choice(fresh if fresh and rng.random() < 0.8 else "xyzw")
        quantifier = fm.ForallFO if roll == 0 else fm.ExistsFO
        return quantifier(var, _formula(rng, relvars, scope + [var], depth - 1))
    if roll == 2:
        return fm.Not(_formula(rng, relvars, scope, depth - 1))
    connective = (fm.And, fm.Or, fm.Implies, fm.Iff, fm.Iff)[roll - 3]
    return connective(_formula(rng, relvars, scope, depth - 1),
                      _formula(rng, relvars, scope, depth - 1))


def _has_every_feature(matrix, relvars):
    subs = [g for g, _, _ in fm.walk(matrix)]
    quantifiers = [g for g in subs if isinstance(g, (fm.ForallFO, fm.ExistsFO))]
    used = {g.rel for g in subs if isinstance(g, fm.Atom)}
    return (any(isinstance(g, fm.Iff) for g in subs)
            and any(isinstance(g, fm.Implies) for g in subs)
            and any(isinstance(g, fm.Eq) for g in subs)
            and used & {"p", "edge"}
            and all(name in used for name, _ in relvars)
            and any(isinstance(g.body, (fm.ForallFO, fm.ExistsFO)) or any(
                isinstance(h, (fm.ForallFO, fm.ExistsFO))
                for h, _, _ in fm.walk(g.body)) for g in quantifiers))


def random_matrix(seed, relvars):
    """A closed first-order matrix over {p, edge} and relvars with at
    least one <->, ->, =, structure atom and nested FO quantifier."""
    rng = random.Random(seed)
    while True:
        outer, inner = rng.sample((fm.ForallFO, fm.ExistsFO) * 2, 2)
        matrix = outer("x", inner("y", _formula(rng, relvars, ["x", "y"], 3)))
        if _has_every_feature(matrix, relvars):
            return matrix


def cases(relvars, seeds):
    out = []
    for seed in seeds:
        existential = seed % 2 == 0
        prefix = tuple((existential, name, arity) for name, arity in relvars)
        out.append((prefix, random_matrix(seed, relvars)))
    return out


UNARY = (cases([("X", 1)], range(0, 4))
         + cases([("X", 1), ("Z", 1)], range(4, 6)))
BINARY = cases([("Y", 2)], range(6, 10))
MIXED = cases([("X", 1), ("Y", 2)], range(10, 14))


def _check(prefix, matrix, structures):
    f = sentence(prefix, matrix)
    for A in structures:
        assert eval_so_full(A, f) == reference(A, prefix, matrix), (fm.print_formula(f), A)


@pytest.mark.parametrize("prefix, matrix", UNARY)
def test_unary_prefix_on_every_structure_up_to_3(prefix, matrix):
    _check(prefix, matrix, UP_TO_3)


@pytest.mark.parametrize("prefix, matrix", BINARY)
def test_binary_prefix(prefix, matrix):
    # A binary relation variable has 2^9 candidates on three elements,
    # too many for the reference on all 4,096 structures of size 3; a
    # seeded sample of them stands in.
    sample = random.Random(len(prefix)).sample(STRUCTURES[3], 60)
    _check(prefix, matrix, UP_TO_2 + sample)


@pytest.mark.parametrize("prefix, matrix", MIXED)
def test_mixed_arity_prefix(prefix, matrix):
    _check(prefix, matrix, UP_TO_2)


def test_cases_are_not_constant():
    """Each prefix kind meets both answers somewhere, so a mutant that
    fixes the answer of either branch cannot pass."""
    for existential in (True, False):
        answers = set()
        for prefix, matrix in UNARY:
            if prefix[0][0] == existential:
                answers.update(eval_so_full(A, sentence(prefix, matrix))
                               for A in UP_TO_2)
        assert answers == {True, False}


@pytest.mark.parametrize("text", [
    "EX2 X:1 (X(x) & ~X(y))",
    "ALL2 X:1 (X(x) -> (EX z (X(z) & edge(z, y))))",
    "EX2 Y:2 ALL z (Y(x, z) <-> (z = y | p(z)))",
])
def test_free_individual_variables_come_from_the_assignment(text):
    f = fm.parse(text)
    prefix, matrix = fm.so_prefix(f)
    for A in UP_TO_2:
        for x, y in itertools.product(range(A.size), repeat=2):
            fo = {"x": x, "y": y}
            assert eval_so_full(A, f, Assignment(fo, {})) == reference(A, prefix, matrix, fo)


@pytest.mark.parametrize("text", [
    "EX2 X:1 ALL x (X(x) -> q(x))",
    "ALL2 X:1 ALL x (X(x) | q(x, x))",
])
def test_unknown_symbol(text):
    with pytest.raises(ValidationError, match="unknown symbol"):
        eval_so_full(STRUCTURES[2][5], fm.parse(text))


@pytest.mark.parametrize("text", [
    "EX2 X:1 ALL x (X(x) -> X(y))",
    "ALL2 X:1 (p(y) | X(y))",
    "EX2 X:1 ALL x (x = y | X(x))",
])
def test_unassigned_free_variable(text):
    with pytest.raises(ValidationError, match="unassigned free variable"):
        eval_so_full(STRUCTURES[2][5], fm.parse(text))


def test_free_variable_outside_the_universe():
    f = fm.parse("EX2 X:1 (X(x) & ~X(y))")
    with pytest.raises(ValidationError, match="outside the universe"):
        eval_so_full(STRUCTURES[2][5], f, Assignment({"x": 0, "y": 2}, {}))
    # x indexes no tuple variable, and the matrix holds for every X.
    f = fm.parse("EX2 X:1 ALL y (X(y) | x = x)")
    with pytest.raises(ValidationError, match="'x' = 99 is outside the universe"):
        eval_so_full(STRUCTURES[2][5], f, Assignment({"x": 99}, {}))


# ---------------------------------------------------------------------------
# The clause-learning solver on its own
# ---------------------------------------------------------------------------

def truth_table(clauses, nvars):
    """Satisfiability by trying every assignment, as bit masks."""
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << nvars) - 1
    return any(all(m & pos or (full ^ m) & neg for pos, neg in masks)
               for m in range(1 << nvars))


def random_cnf(rng):
    """Up to ten variables and about 4.3 clauses per variable, mostly of
    three literals, near the threshold where learning has work to do;
    now and then a unit, a repeated literal, a tautology or the empty
    clause."""
    nvars = rng.randint(1, 10)
    clauses = []
    for _ in range(round(4.3 * nvars)):
        k = 1 if rng.random() < 0.02 else rng.choice((2, 3, 3, 3, 3, 4))
        variables = rng.sample(range(1, nvars + 1), min(k, nvars))
        clause = [rng.choice((1, -1)) * v for v in variables]
        roll = rng.random()
        if roll < 0.05:
            clause.insert(rng.randrange(len(clause) + 1), clause[0])
        elif roll < 0.1:
            clause.insert(rng.randrange(len(clause) + 1), -clause[0])
        clauses.append(clause)
    if rng.random() < 0.02:
        clauses.insert(rng.randrange(len(clauses) + 1), [])
    return clauses, nvars


def test_solver_agrees_with_the_truth_table():
    rng = random.Random(2011)
    answers = []
    for _ in range(600):
        clauses, nvars = random_cnf(rng)
        want = truth_table(clauses, nvars)
        got = sat._Solver([list(c) for c in clauses], nvars, nvars).solve()
        assert got == want, (clauses, nvars)
        answers.append(got)
    # Both answers are common, so a solver stuck on either one fails.
    assert 150 < sum(answers) < 450


def _infinite_clauses(n):
    f = builtin("infinite").formula
    prefix, matrix = fm.so_prefix(f)
    grounder = sat._grounder(matrix, prefix, n, False)
    run = grounder.ground(FiniteStructure(EMPTY_SIGNATURE, n, {}), {}, {})
    return run.clauses, run.nvars, grounder.nbase


# (clauses, variables, SHA-256 of repr(clauses)) of four groundings,
# plain and negated.  Clause order steers the solver's search, so a
# change to the grounder keeps these, or re-records them in the open.
PINNED_GROUNDINGS = {
    ("hamiltonian", "C5"): (
        (795, 100, "3a65a0beffcdd6d26875eb1299b925d93c1bcf8920a5e82b049f685a4abd24dc"),
        (1166, 550, "cc52aa16180df7bc7efc37a43acbd7ba2c8d1b35a936c5036a7bd2c7f8aa615c")),
    ("hamiltonian", "D3"): (
        (1362, 144, "daed17187134cbd39af3596173cd9acc3a435cf2c2478dd41962896faf660a0c"),
        (2005, 936, "ac39b14aa853045fbb7bb4e503e6539eaa73a55edd94572b38ef8e2190fee1ee")),
    ("colorable:3", "C5"): (
        (35, 15, "ebf797c3a76f369cd4f9e17a14a88dd3c3fa3f3bb59e27ef68f0df8d93c58456"),
        (76, 50, "63b557ad65139d1fe9d3adee108139404039c6ff2c18f65f40887b631b92ee2a")),
    ("infinite", "7 elements"): (
        (399, 49, "9968675fc10dee392334e6d2018cda102e43f656fcd53491d4ae1b26266d9e48"),
        (1163, 441, "35bd5553f46f18ad1b8ec33a874d6742bc8e37fcea541fab46bc53179a0eb7a5")),
}
PIN_STRUCTURES = {"C5": cycle_graph(5), "D3": double_cycle(3),
                  "7 elements": FiniteStructure(EMPTY_SIGNATURE, 7, {})}


@pytest.mark.parametrize("key, structure", sorted(PINNED_GROUNDINGS))
@pytest.mark.parametrize("negate", [False, True])
def test_grounding_is_pinned(key, structure, negate):
    prefix, matrix = fm.so_prefix(builtin(key).formula)
    A = PIN_STRUCTURES[structure]
    run = sat._grounder(matrix, prefix, A.size, negate).ground(A, {}, {})
    digest = hashlib.sha256(repr(run.clauses).encode()).hexdigest()
    assert (len(run.clauses), run.nvars, digest) == PINNED_GROUNDINGS[key, structure][negate]


def _tautology(clause):
    return any(-lit in clause for lit in clause)


def test_no_tautology_reaches_the_watch_or_implication_lists():
    clauses, nvars, nbase = _infinite_clauses(7)
    tautologies = sum(map(_tautology, clauses))
    assert tautologies > 0
    solver = sat._Solver([list(c) for c in clauses], nvars, nbase)
    assert solver.counters.dropped == tautologies
    for lit in range(-nvars, nvars + 1):
        # lit -> m stands for the clause (~lit | m).
        assert lit not in solver.implied[lit]
        for clause in solver.watches[lit]:
            assert lit in clause[:2]
            assert not _tautology(clause) and len(set(clause)) == len(clause)


# Conflicts of `infinite` on n elements, as counted when the solver was
# written; the bounds below allow 1.5 times these.
INFINITE_CONFLICTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 18, 6: 53, 7: 148, 8: 382,
                      9: 940, 10: 2215}


@pytest.mark.parametrize("n", sorted(INFINITE_CONFLICTS))
def test_infinite_is_false_on_every_finite_universe(n):
    # The grounding eval_so_full hands the solver: `infinite` is false
    # when it is unsatisfiable.
    solver = sat._Solver(*_infinite_clauses(n))
    assert solver.solve() is False
    counts = solver.counters
    assert 0 < counts.conflicts <= 1.5 * INFINITE_CONFLICTS[n]
    # Every conflict but the last, at level 0, teaches one clause.
    assert counts.learnt == counts.conflicts - 1


# ---------------------------------------------------------------------------
# Lex-leader constraints over interchangeable elements
# ---------------------------------------------------------------------------

# Conflicts and generators of `infinite` on n empty elements with its
# lex-leader constraints, as counted when they were written; the bounds
# below allow 1.5 times these conflicts.
INFINITE_CONFLICTS_LEX_LEADER = {
    1: 1, 2: 1, 3: 2, 4: 3, 5: 5, 6: 9, 7: 13, 8: 18, 9: 24, 10: 31, 11: 39, 12: 48,
    13: 58, 14: 69, 15: 81, 16: 94, 17: 108, 18: 123, 19: 139, 20: 156}


@pytest.mark.parametrize("n", sorted(INFINITE_CONFLICTS_LEX_LEADER))
def test_infinite_with_symmetry_breaking(n):
    prefix, matrix = fm.so_prefix(builtin("infinite").formula)
    A = FiniteStructure(EMPTY_SIGNATURE, n, {})
    solver = sat._grounder(matrix, prefix, n, False).solver(A, {}, {})
    assert solver.solve() is False
    counts = solver.counters
    # The matrix names no structure symbol: every element is
    # interchangeable with every other.
    assert counts.generators == n - 1
    assert 0 < counts.conflicts <= 1.5 * INFINITE_CONFLICTS_LEX_LEADER[n]


def test_symmetry_breaking_is_linear_in_the_occurring_variables():
    # 10^6 tuple variables, of which the 1,000 on the diagonal occur;
    # each of the 999 transpositions moves one pair of them.
    n = 1000
    prefix, matrix = fm.so_prefix(fm.parse("EX2 X:2 ALL x X(x, x)"))
    grounder = sat._grounder(matrix, prefix, n, False)
    A = FiniteStructure(EMPTY_SIGNATURE, n, {})
    run = grounder.ground(A, {}, {})
    assert len(run.clauses) == n
    assert grounder.break_symmetry(run, A, {}, {}) == n - 1
    assert n < len(run.clauses) <= n + 3 * (n - 1)


@pytest.mark.parametrize("text, A, asg", [
    # Elements named by a free individual variable stay fixed.
    *[("EX2 X:1 ALL y (X(y) <-> y = x)", FiniteStructure(EMPTY_SIGNATURE, 3, {}),
       Assignment({"x": x}, {})) for x in range(3)],
    # So do the relations of free relation variables ...
    ("EX2 X:1 ALL y (X(y) <-> P(y))", FiniteStructure(EMPTY_SIGNATURE, 3, {}),
     Assignment({}, {"P": frozenset({(0,)})})),
    # ... and of structure symbols.
    ("EX2 X:1 ALL y (X(y) <-> p(y))", FiniteStructure(Signature.of({"p": 1}), 3, {"p": [(0,)]}),
     None),
])
def test_symmetry_breaking_keeps_the_reduct_fixed(text, A, asg):
    # Each has exactly one witness X, which no transposition of the
    # universe may exclude.
    assert eval_so_full(A, fm.parse(text), asg) is True


def test_interchangeable_elements_exclude_shared_tuples():
    prefix, matrix = fm.so_prefix(builtin("colorable:3").formula)
    # On C4, swapping opposite vertices is an automorphism and no edge
    # holds both, so {0, 2} and {1, 3} are the classes.
    A = cycle_graph(4)
    grounder = sat._grounder(matrix, prefix, A.size, False)
    run = grounder.ground(A, {}, {})
    assert grounder.break_symmetry(run, A, {}, {}) == 2
    # Swapping the ends of an edge is an automorphism too, but the edge
    # holds both, so they stay apart.
    B = FiniteStructure(Signature.of({"edge": 2}), 2, {"edge": [(0, 1), (1, 0)]})
    grounder = sat._grounder(matrix, prefix, B.size, False)
    run = grounder.ground(B, {}, {})
    assert grounder.break_symmetry(run, B, {}, {}) == 0


def test_lex_leader_clauses_of_a_two_block_prefix_are_pinned():
    # X's tuple variables are 1..3 and Y's 4..12, so the chains compare
    # both blocks; 13 and 14 are the chains' equality variables.
    prefix, matrix = fm.so_prefix(fm.parse("EX2 X:1 EX2 Y:2 ALL x (X(x) | Y(x, x))"))
    A = FiniteStructure(EMPTY_SIGNATURE, 3, {})
    grounder = sat._grounder(matrix, prefix, A.size, False)
    run = grounder.ground(A, {}, {})
    assert run.clauses == [[1, 4], [2, 8], [3, 12]]
    assert grounder.break_symmetry(run, A, {}, {}) == 2
    assert run.clauses[3:] == [[-1, 2], [-1, -2, 13], [1, 2, 13], [-13, -4, 8],
                               [-2, 3], [-2, -3, 14], [2, 3, 14], [-14, -8, 12]]


def test_differential_cases_meet_symmetry_breaking():
    """The differential tests above reach the lex-leader constraints on
    many satisfiable groundings, where a constraint that cut off a whole
    orbit would turn the answer."""
    satisfiable = 0
    for prefix, matrix in UNARY:
        for A in UP_TO_3:
            grounder = sat._grounder(matrix, prefix, A.size, not prefix[0][0])
            solver = grounder.solver(A, {}, {})
            if solver is not None and solver.counters.generators:
                satisfiable += solver.solve()
    assert satisfiable > 1000


# ---------------------------------------------------------------------------
# Top-level conjuncts grounded once per grounder
# ---------------------------------------------------------------------------

def _ground(f, A, negate=False):
    """(clauses, nvars) of f's matrix grounded on A by the cached
    grounder, or None when it folds to false."""
    prefix, matrix = fm.so_prefix(f)
    run = sat._grounder(matrix, prefix, A.size, negate).ground(A, {}, {})
    return None if run is None else (run.clauses, run.nvars)


def _fresh(f, A, negate=False):
    sat._grounder.cache_clear()
    return _ground(f, A, negate)


@pytest.mark.parametrize("negate", [False, True])
def test_replay_after_another_graph_of_the_same_size(negate):
    # Every conjunct of hamiltonian but ALL y ALL z (S(y, z) -> edge(y, z))
    # is replayed on the second graph.
    f = builtin("hamiltonian").formula
    _fresh(f, cycle_graph(8), negate)
    assert _ground(f, double_cycle(4), negate) == _fresh(f, double_cycle(4), negate)


def test_a_conjunction_under_a_gate_is_grounded_on_every_call():
    # The root is one disjunction, so its & is compiled under a gate, and
    # the gates nested in that & define themselves in the run, not in
    # the & : replaying the & would drop their definitions.
    f = fm.parse("EX2 X:1 EX2 Y:2 (((ALL x ALL y (X(x) | (Y(x,y) & ~X(y))))"
                 " & (EX z ~X(z))) | (EX x p(x)))")
    A = FiniteStructure(Signature.of({"p": 1}), 2, {"p": []})
    first = _fresh(f, A)
    assert len(first[0]) == 14
    assert _ground(f, A) == first


def test_replayed_gates_are_renumbered():
    # The first conjunct reads p and makes one gate per element outside
    # p; the second, replayed, makes its gates after them.
    f = fm.parse("EX2 X:1 EX2 Y:2 ((ALL x (p(x) | (X(x) & Y(x,x))))"
                 " & (ALL x ALL y (X(x) | (Y(x,y) & ~X(y)))))")
    sig = Signature.of({"p": 1})
    A = FiniteStructure(sig, 3, {"p": [(0,), (1,)]})
    B = FiniteStructure(sig, 3, {"p": []})
    assert _fresh(f, A)[1] == 22
    replayed = _ground(f, B)
    assert replayed[1] == 24
    assert replayed == _fresh(f, B)


def test_a_replayed_conjunct_that_folds_to_false():
    # EX x p(x) comes first and folds to false on the empty p, so the
    # constant conjunct is first reached on the second structure.
    f = fm.parse("EX2 X:1 ((EX x p(x)) & (EX z ~(z = z)) & (ALL x (X(x) | p(x))))")
    sig = Signature.of({"p": 1})
    sat._grounder.cache_clear()
    for p in ([], [(0,)], [(0,), (1,)], []):
        A = FiniteStructure(sig, 2, {"p": p})
        assert _ground(f, A) is None
        assert eval_so_full(A, f) is False
        assert eval_so_full(A, fm.Not(f)) is True


def test_grounding_does_not_depend_on_earlier_calls():
    """Grounding B after A on one grounder gives the CNF of grounding B
    on a fresh one, over random matrices, both polarities and sizes 1-3.
    It fails if replayed gates are not renumbered, or if a conjunction
    under a gate is replayed too."""
    rng = random.Random(19)
    sig = Signature.of({"p": 1, "edge": 2, "X": 1, "Y": 2})
    prefix = ((True, "X", 1), (True, "Y", 2))
    replayed = 0
    for _ in range(300):
        # Two random conjuncts, so a replayed one often follows one whose
        # gates depend on the structure.
        matrix = fm.And(*(gen.random_formula(rng, sig, so_probability=0) for _ in range(2)))
        f = sentence(prefix, matrix)
        n = rng.randint(1, 3)
        negate = rng.random() < 0.5
        A, B = rng.choice(STRUCTURES[n]), rng.choice(STRUCTURES[n])
        _fresh(f, A, negate)
        assert _ground(f, B, negate) == _fresh(f, B, negate), fm.print_formula(f)
        replayed += any(not fm.scope(g).free_fo and fm.scope(g).symbols.keys() <= {"X", "Y"}
                        for g, _ in sat._Grounder._spine(matrix, negate, True))
    assert replayed > 50
