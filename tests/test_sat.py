"""Differential tests of the SAT path of eval_so_full and its solver.

Closed sentences whose relation quantifiers form one homogeneous prefix
over a first-order matrix are decided by sat.eval_homogeneous.  The
reference below never touches sat.py: it loops over every assignment of
the relation variables with all_relations and evaluates the matrix with
eval_fo.  The solver alone is checked against truth tables on random
CNFs, one call or a run of calls on one template, and its counters
bound its work on `infinite`.
"""
import hashlib
import itertools
import os
import random
import resource
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

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
from so_lab.workbench import builtin, cycle_graph, double_cycle, graph_structure, hamiltonian_oracle

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


def _atom(rng, relvars, scope, structure):
    roll = rng.random()
    if roll < 0.15:
        return fm.Eq(rng.choice(scope), rng.choice(scope))
    if roll < 0.45 and structure:
        name, arity = rng.choice((("p", 1), ("edge", 2)))
    else:
        name, arity = rng.choice(relvars)
    return fm.Atom(name, tuple(rng.choice(scope) for _ in range(arity)))


def _formula(rng, relvars, scope, depth, structure=True):
    """A random formula over relvars, = and, when structure, p and edge."""
    if depth == 0 or rng.random() < 0.2:
        return _atom(rng, relvars, scope, structure)
    roll = rng.randrange(8)
    if roll < 2:
        # Mostly a fresh variable; now and then a shadowing one.
        fresh = [v for v in "xyzw" if v not in scope]
        var = rng.choice(fresh if fresh and rng.random() < 0.8 else "xyzw")
        quantifier = fm.ForallFO if roll == 0 else fm.ExistsFO
        return quantifier(var, _formula(rng, relvars, scope + [var], depth - 1, structure))
    if roll == 2:
        return fm.Not(_formula(rng, relvars, scope, depth - 1, structure))
    connective = (fm.And, fm.Or, fm.Implies, fm.Iff, fm.Iff)[roll - 3]
    return connective(_formula(rng, relvars, scope, depth - 1, structure),
                      _formula(rng, relvars, scope, depth - 1, structure))


def _has_every_feature(matrix, relvars, structure):
    subs = list(fm.walk(matrix))
    quantifiers = [g for g in subs if isinstance(g, (fm.ForallFO, fm.ExistsFO))]
    used = {g.rel for g in subs if isinstance(g, fm.Atom)}
    return (any(isinstance(g, fm.Iff) for g in subs)
            and any(isinstance(g, fm.Implies) for g in subs)
            and any(isinstance(g, fm.Eq) for g in subs)
            and (not structure or used & {"p", "edge"})
            and all(name in used for name, _ in relvars)
            and any(isinstance(g.body, (fm.ForallFO, fm.ExistsFO)) or any(
                isinstance(h, (fm.ForallFO, fm.ExistsFO))
                for h in fm.walk(g.body)) for g in quantifiers))


def random_matrix(seed, relvars, structure):
    """A closed first-order matrix over relvars, and over {p, edge} when
    structure, with at least one <->, ->, =, nested FO quantifier and,
    when structure, structure atom."""
    rng = random.Random(seed)
    while True:
        outer, inner = rng.sample((fm.ForallFO, fm.ExistsFO) * 2, 2)
        matrix = outer("x", inner("y", _formula(rng, relvars, ["x", "y"], 3, structure)))
        if _has_every_feature(matrix, relvars, structure):
            return matrix


def cases(relvars, seeds, structure=True):
    out = []
    for seed in seeds:
        existential = seed % 2 == 0
        prefix = tuple((existential, name, arity) for name, arity in relvars)
        out.append((prefix, random_matrix(seed, relvars, structure)))
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
        got = sat._Solver(clauses, nvars).solve()
        assert got == want, (clauses, nvars)
        answers.append(got)
    # Both answers are common, so a solver stuck on either one fails.
    assert 150 < sum(answers) < 450


def random_call(rng, nvars):
    """Per-call clauses over variables 1..nvars: units, which the solver
    assumes, and clauses of two or three literals, now and then with a
    repeated literal or a tautology."""
    clauses = []
    for _ in range(rng.randint(0, 2 * nvars)):
        variables = rng.sample(range(1, nvars + 1), min(rng.choice((1, 2, 3, 3)), nvars))
        clause = [rng.choice((1, -1)) * v for v in variables]
        roll = rng.random()
        if roll < 0.05:
            clause.append(clause[0])
        elif roll < 0.1:
            clause.append(-clause[0])
        clauses.append(clause)
    return clauses


def test_incremental_solver_agrees_with_the_truth_table():
    """One solver per template answers a run of calls, keeping its
    level-0 facts and learnt clauses from one call to the next; each
    answer is that of the template and the call's clauses alone.  Half of
    each random CNF is the template, so calls bring variables the
    template lacks.  The last call of each run keeps nothing, so its
    clauses get no selector."""
    rng = random.Random(2026)
    answers = []
    for _ in range(200):
        template, nvars = random_cnf(rng)
        template = template[:len(template) // 2]
        solver = sat._Solver(template, nvars)
        for call in range(6):
            clauses = random_call(rng, nvars)
            want = truth_table(template + clauses, nvars)
            assert solver.solve(clauses, keep=call < 5) == want, (template, clauses, nvars)
            answers.append(want)
    assert 300 < sum(answers) < 900


def _infinite_clauses(n):
    """The grounding of `infinite` on n elements without its lex-leader
    constraints: the template of a grounder that breaks no symmetry, since
    no conjunct of `infinite` reads the structure."""
    prefix, matrix = fm.so_prefix(builtin("infinite").formula)
    with mock.patch.object(sat._Grounder, "break_symmetry", return_value=0):
        grounder = sat._Grounder(matrix, prefix, n, False)
    assert grounder.root is None
    return grounder.template, grounder.nbase


def _digest(clauses):
    return hashlib.sha256(repr(clauses).encode()).hexdigest()


def test_infinite_template_is_the_whole_grounding():
    # As recorded when each call grounded the whole matrix: (clauses,
    # variables, digest of the clauses as lists) on 7 elements.
    clauses, nbase = _infinite_clauses(7)
    assert (len(clauses), nbase, _digest([list(c) for c in clauses])) == (
        399, 49, "9968675fc10dee392334e6d2018cda102e43f656fcd53491d4ae1b26266d9e48")


EMPTY = _digest([])

# (clauses, variables, SHA-256 of repr(clauses)) of the template and of
# the per-call clauses of four groundings, plain and negated.  Clause
# order steers the solver's search, so a change to the grounder keeps
# these, or re-records them in the open.  Negated, `hamiltonian` and
# `colorable:3` are one disjunction that reads edge, so their template
# is empty; `infinite` reads no structure symbol, so its template holds
# everything, lex-leader clauses included.
PINNED_GROUNDINGS = {
    ("hamiltonian", "C5"): (
        ((780, 100, "ee0e4257d7635e79fa53780b945f35cabdd0eb84e03f29de88ad8caef642ca2a"),
         (15, 100, "0091220f1fab199a8bed32dc0072335c0ad434d99596a0c9f478afd0089b03bc")),
        ((0, 50, EMPTY),
         (1166, 550, "cc52aa16180df7bc7efc37a43acbd7ba2c8d1b35a936c5036a7bd2c7f8aa615c"))),
    ("hamiltonian", "D3"): (
        ((1338, 144, "fb852621014c85bf102c4b0ef79aa247d93546583dfff76b4e5e9e24211e97f4"),
         (24, 144, "92af7ac9e88ae0bebbdbbc53dcd542503b56a0b93e39f5eaafc60435bacb2e09")),
        ((0, 72, EMPTY),
         (2005, 936, "ac39b14aa853045fbb7bb4e503e6539eaa73a55edd94572b38ef8e2190fee1ee"))),
    ("colorable:3", "C5"): (
        ((5, 15, "0730e02c51b866fc29834219b9f749562393b787500d951618bfd8eee04c98bd"),
         (30, 15, "a208ae38829114cf596bbbd2e2d3489afa851e027efe6a6a38952a6bdabc150d")),
        ((0, 15, EMPTY),
         (76, 50, "63b557ad65139d1fe9d3adee108139404039c6ff2c18f65f40887b631b92ee2a"))),
    ("infinite", "7 elements"): (
        ((603, 115, "b1f7333eb842248cc0cab441b452e7addd1cb69107bc00906e676d3a28fdf0db"),
         (0, 115, EMPTY)),
        ((1367, 507, "8971531707aaa547610b668c31621740592217bae7c91a6fbdb31783a6202bbc"),
         (0, 507, EMPTY))),
}
PIN_STRUCTURES = {"C5": cycle_graph(5), "D3": double_cycle(3),
                  "7 elements": FiniteStructure(EMPTY_SIGNATURE, 7, {})}


@pytest.mark.parametrize("key, structure", sorted(PINNED_GROUNDINGS))
@pytest.mark.parametrize("negate", [False, True])
def test_grounding_is_pinned(key, structure, negate):
    prefix, matrix = fm.so_prefix(builtin(key).formula)
    A = PIN_STRUCTURES[structure]
    grounder = sat._Grounder(matrix, prefix, A.size, negate)
    run = grounder.ground(A, {}, {})
    got = ((len(grounder.template), grounder.base, _digest(grounder.template)),
           (len(run.clauses), run.nvars, _digest(run.clauses)))
    assert got == PINNED_GROUNDINGS[key, structure][negate]


def _tautology(clause):
    return any(-lit in clause for lit in clause)


def test_no_tautology_reaches_the_watch_or_implication_lists():
    clauses, nbase = _infinite_clauses(7)
    tautologies = sum(map(_tautology, clauses))
    assert tautologies > 0
    solver = sat._Solver(clauses, nbase)
    assert solver.dropped == tautologies
    for lit in range(-solver.cap, solver.cap + 1):
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
    # The grounding eval_so_full hands the solver, less its lex-leader
    # constraints: `infinite` is false when it is unsatisfiable.
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
    grounder = sat._Grounder(matrix, prefix, n, False)
    assert grounder.satisfiable(A, {}, {}) is False
    first = grounder.counters
    # The matrix names no structure symbol: every element is
    # interchangeable with every other.
    assert first.generators == n - 1
    assert 0 < first.conflicts <= 1.5 * INFINITE_CONFLICTS_LEX_LEADER[n]
    # The refutation reached level 0, so it holds for every later call.
    assert grounder.satisfiable(A, {}, {}) is False
    assert grounder.counters.conflicts <= first.conflicts


def test_symmetry_breaking_is_linear_in_the_occurring_variables():
    # 10^6 tuple variables, of which the 1,000 on the diagonal occur;
    # each of the 999 transpositions moves one pair of them.  No conjunct
    # reads the structure, so the constraints join the template.
    n = 1000
    prefix, matrix = fm.so_prefix(fm.parse("EX2 X:2 ALL x X(x, x)"))
    grounder = sat._Grounder(matrix, prefix, n, False)
    assert grounder.generators == n - 1
    assert n < len(grounder.template) <= n + 3 * (n - 1)
    assert grounder.satisfiable(FiniteStructure(EMPTY_SIGNATURE, n, {}), {}, {}) is True
    # The solver numbers the occurring variables only.
    assert grounder.solver.nvars == n


def test_solver_is_sized_by_the_occurring_variables():
    # 9,000,000 tuple variables, within the default budget, of which
    # 3,000 occur.  A separate process with capped memory and time, so
    # that a regression fails instead of exhausting the machine.
    script = ("import resource\n"
              "from so_lab import formulas\n"
              "from so_lab.structures import EMPTY_SIGNATURE, FiniteStructure, eval_so_full\n"
              "A = FiniteStructure(EMPTY_SIGNATURE, 3000, {})\n"
              "f = formulas.parse('EX2 X:2 ALL x X(x, x)')\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "answer = eval_so_full(A, f)\n"
              "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print(answer, (after - before) // 1024)\n")
    src = str(Path(sat.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr
    answer, growth_mb = done.stdout.split()
    assert answer == "True" and int(growth_mb) < 100


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


def test_lex_leader_clauses_of_a_two_block_prefix_are_pinned():
    # X's tuple variables are 1..3 and Y's 4..12, so the chains compare
    # both blocks; 13 and 14 are the chains' equality variables.  No
    # conjunct reads the structure, so the template holds them.
    prefix, matrix = fm.so_prefix(fm.parse("EX2 X:1 EX2 Y:2 ALL x (X(x) | Y(x, x))"))
    grounder = sat._Grounder(matrix, prefix, 3, False)
    assert grounder.generators == 2
    assert [list(c) for c in grounder.template] == [
        [1, 4], [2, 8], [3, 12],
        [-1, 2], [-1, -2, 13], [1, 2, 13], [-13, -4, 8],
        [-2, 3], [-2, -3, 14], [2, 3, 14], [-14, -8, 12]]


def orbit_cases(text):
    """(prefix, matrix) of the sentence and of its universal dual, whose
    grounding is the same.  Each sentence below has models on few
    orbits: X and Z split the universe, or Y is a permutation with no
    fixed point, so a lex-leader encoding that cuts off an orbit turns
    its answer."""
    prefix, matrix = fm.so_prefix(fm.parse(text))
    return [(prefix, matrix), (tuple((False, name, arity) for _, name, arity in prefix),
                               fm.Not(matrix))]


# (prefix, matrix, sizes) whose matrix reads no structure symbol, so its
# grounding is all template, lex-leader constraints included: unary
# prefixes up to 4 elements, the others up to 3.
TEMPLATE_CASES = (
    [(*case, (1, 2, 3, 4)) for case in cases([("X", 1)], range(100, 116), False)
     + cases([("X", 1), ("Z", 1)], range(116, 124), False)
     + orbit_cases("EX2 X:1 EX2 Z:1 ((ALL x (X(x) <-> ~Z(x))) & (EX x X(x)) & (EX x Z(x)))")]
    + [(*case, (1, 2, 3)) for case in cases([("Y", 2)], range(124, 136), False)
       + cases([("X", 1), ("Y", 2)], range(136, 140), False)
       + orbit_cases("EX2 Y:2 ((ALL x EX y (Y(x, y) & ~(x = y)))"
                     " & (ALL x ALL y ALL z ((Y(x, y) & Y(x, z)) -> y = z))"
                     " & (ALL x ALL y ALL z ((Y(y, x) & Y(z, x)) -> y = z)))")])


def test_template_lex_leader_constraints_keep_the_answer():
    """The lex-leader constraints of a template meet many satisfiable
    groundings, where one that cut off a whole orbit would turn the
    answer, and eval_so_full agrees with the reference on every case."""
    satisfiable = 0
    for prefix, matrix, sizes in TEMPLATE_CASES:
        existential = prefix[0][0]
        for n in sizes:
            A = FiniteStructure(EMPTY_SIGNATURE, n, {})
            want = reference(A, prefix, matrix)
            assert eval_so_full(A, sentence(prefix, matrix)) == want, fm.print_formula(matrix)
            grounder = sat._Grounder(matrix, prefix, n, not existential)
            assert grounder.root is None
            answer = grounder.satisfiable(A, {}, {})
            assert answer == (want == existential)
            satisfiable += answer and grounder.generators > 0
    # 100 of the 158 groundings when written.
    assert satisfiable > 75, satisfiable


# ---------------------------------------------------------------------------
# One template and one solver per grounder
# ---------------------------------------------------------------------------

def _ground(f, A, negate=False):
    """(clauses, nvars) of the per-call conjuncts of f's matrix on A by
    the cached grounder, or None when they fold to false."""
    prefix, matrix = fm.so_prefix(f)
    run = sat._grounder(matrix, prefix, A.size, negate).ground(A, {}, {})
    return None if run is None else (run.clauses, run.nvars)


def _fresh(f, A, negate=False):
    sat._grounder.cache_clear()
    return _ground(f, A, negate)


@pytest.mark.parametrize("negate", [False, True])
def test_replay_after_another_graph_of_the_same_size(negate):
    # Every conjunct of hamiltonian but ALL y ALL z (S(y, z) -> edge(y, z))
    # is in the template, grounded once; the second graph grounds that
    # conjunct alone and reuses the solver of the first.
    prefix, matrix = fm.so_prefix(builtin("hamiltonian").formula)
    grounder = sat._Grounder(matrix, prefix, 8, negate)
    template = list(grounder.template)
    assert grounder.satisfiable(cycle_graph(8), {}, {}) is True
    solver = grounder.solver
    D4 = double_cycle(4)
    fresh = sat._Grounder(matrix, prefix, 8, negate)
    run, want = grounder.ground(D4, {}, {}), fresh.ground(D4, {}, {})
    assert (run.clauses, run.nvars) == (want.clauses, want.nvars)
    assert grounder.satisfiable(D4, {}, {}) is fresh.satisfiable(D4, {}, {}) is negate
    assert grounder.template == template
    assert negate or grounder.solver is solver


def test_a_conjunction_under_a_gate_is_grounded_on_every_call():
    # The root is one disjunction that reads p, so all of it is grounded
    # per call; its & is compiled under a gate, and the gates nested in
    # that & define themselves in the run, not in the & .
    f = fm.parse("EX2 X:1 EX2 Y:2 (((ALL x ALL y (X(x) | (Y(x,y) & ~X(y))))"
                 " & (EX z ~X(z))) | (EX x p(x)))")
    A = FiniteStructure(Signature.of({"p": 1}), 2, {"p": []})
    first = _fresh(f, A)
    assert len(first[0]) == 14
    assert _ground(f, A) == first
    prefix, matrix = fm.so_prefix(f)
    assert sat._grounder(matrix, prefix, 2, False).template == []


def test_per_call_gates_are_numbered_after_the_template():
    # The second conjunct reads no structure symbol: the template holds
    # it and its 9 gates, numbered after the 12 tuple variables.  The
    # first reads p and makes one gate per element outside p, numbered
    # after the template's.
    f = fm.parse("EX2 X:1 EX2 Y:2 ((ALL x (p(x) | (X(x) & Y(x,x))))"
                 " & (ALL x ALL y (X(x) | (Y(x,y) & ~X(y)))))")
    prefix, matrix = fm.so_prefix(f)
    grounder = sat._Grounder(matrix, prefix, 3, False)
    assert grounder.base == 21
    sig = Signature.of({"p": 1})
    for p, nvars in (([(0,), (1,)], 22), ([], 24)):
        run = grounder.ground(FiniteStructure(sig, 3, {"p": p}), {}, {})
        assert run.nvars == nvars
        assert {abs(lit) for c in run.clauses for lit in c} - set(range(1, 13)) == set(
            range(22, nvars + 1))


def test_a_replayed_conjunct_that_folds_to_false():
    # EX z ~(z = z) reads no structure symbol and folds to false, so the
    # template is unsatisfiable for every structure, whatever EX x p(x)
    # folds to first.
    f = fm.parse("EX2 X:1 ((EX x p(x)) & (EX z ~(z = z)) & (ALL x (X(x) | p(x))))")
    prefix, matrix = fm.so_prefix(f)
    sig = Signature.of({"p": 1})
    sat._grounder.cache_clear()
    assert sat._grounder(matrix, prefix, 2, False).template is None
    for p in ([], [(0,)], [(0,), (1,)], []):
        A = FiniteStructure(sig, 2, {"p": p})
        assert eval_so_full(A, f) is False
        assert eval_so_full(A, fm.Not(f)) is True


def test_grounding_does_not_depend_on_earlier_calls():
    """Grounding and deciding B after A on one grounder gives the
    per-call CNF and the answer of a fresh grounder, over random
    matrices, both polarities and sizes 1-3."""
    rng = random.Random(19)
    sig = Signature.of({"p": 1, "edge": 2, "X": 1, "Y": 2})
    prefix = ((True, "X", 1), (True, "Y", 2))
    split = 0
    for _ in range(300):
        # Two random conjuncts, so the template often holds one of them.
        matrix = fm.And(*(gen.random_formula(rng, sig, so_probability=0) for _ in range(2)))
        n = rng.randint(1, 3)
        negate = rng.random() < 0.5
        A, B = rng.choice(STRUCTURES[n]), rng.choice(STRUCTURES[n])
        grounder = sat._Grounder(matrix, prefix, n, negate)
        fresh = sat._Grounder(matrix, prefix, n, negate)
        grounder.satisfiable(A, {}, {})
        run, want = grounder.ground(B, {}, {}), fresh.ground(B, {}, {})
        assert (run is None) == (want is None), fm.print_formula(matrix)
        assert run is None or (run.clauses, run.nvars) == (want.clauses, want.nvars)
        assert grounder.satisfiable(B, {}, {}) == fresh.satisfiable(B, {}, {})
        split += bool(grounder.root and grounder.template)
    # About one matrix in ten has clauses both in the template and per call.
    assert split > 20


def test_answers_do_not_depend_on_the_order_of_structures():
    """One grounder per case decides the structures of one size in a
    shuffled order, each structure twice, and answers each as a fresh
    grounder does.  Some calls fold a per-call conjunct to false.  Only a
    grounder without per-call conjuncts breaks symmetry."""
    rng = random.Random(21)
    folded = 0
    for prefix, matrix in UNARY + BINARY + MIXED:
        negate = not prefix[0][0]
        for n, structures in ((2, STRUCTURES[2]), (3, rng.sample(STRUCTURES[3], 40))):
            want = {id(A): sat._Grounder(matrix, prefix, n, negate).satisfiable(A, {}, {})
                    for A in structures}
            grounder = sat._Grounder(matrix, prefix, n, negate)
            for A in rng.sample(structures * 2, 2 * len(structures)):
                assert grounder.satisfiable(A, {}, {}) == want[id(A)], fm.print_formula(matrix)
                assert grounder.root is None or grounder.counters.generators == 0
                folded += grounder.ground(A, {}, {}) is None
    assert folded > 100


def test_branching_covers_the_tuple_variables_of_per_call_clauses():
    # Y occurs in the per-call conjunct only, and a cycle has such a Y
    # exactly when it is even.  Branching over the template's variables
    # alone would never decide Y and answer True on every cycle.
    f = fm.parse("EX2 X:1 EX2 Y:1 ((EX x X(x))"
                 " & (ALL x ALL y (edge(x, y) -> ~(Y(x) <-> Y(y)))))")
    prefix, matrix = fm.so_prefix(f)
    for n in (3, 4, 5, 6):
        grounder = sat._Grounder(matrix, prefix, n, False)
        for _ in range(2):
            assert grounder.satisfiable(cycle_graph(n), {}, {}) is (n % 2 == 0)
        assert eval_so_full(cycle_graph(n), f) is (n % 2 == 0)


def test_one_solver_serves_every_five_vertex_graph():
    """Over every labelled graph on 5 vertices, hamiltonian's grounder
    keeps the solver it built first: what the calls leave in it never
    outgrows the template."""
    prefix, matrix = fm.so_prefix(builtin("hamiltonian").formula)
    grounder = sat._Grounder(matrix, prefix, 5, False)
    pairs = list(itertools.combinations(range(5), 2))
    solver = None
    for mask in range(2 ** len(pairs)):
        G = graph_structure(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert grounder.satisfiable(G, {}, {}) is hamiltonian_oracle(G)
        solver = solver or grounder.solver
        assert grounder.solver is solver is not None


def test_held_literals_stay_within_twice_the_template():
    """Over every 7th labelled graph on 6 vertices, the solver a grounder
    keeps between calls holds at most as many literals beyond the
    template as the template has, and it is rebuilt at least once."""
    prefix, matrix = fm.so_prefix(builtin("hamiltonian").formula)
    grounder = sat._Grounder(matrix, prefix, 6, False)
    pairs = list(itertools.combinations(range(6), 2))
    rebuilds = 0
    for mask in range(0, 2 ** len(pairs), 7):
        G = graph_structure(6, [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert grounder.satisfiable(G, {}, {}) is hamiltonian_oracle(G)
        solver = grounder.solver
        if solver is None:
            rebuilds += 1
        else:
            assert solver.extra <= solver.size
    assert rebuilds > 0


def test_four_threads_share_one_grounder():
    prefix, matrix = fm.so_prefix(builtin("hamiltonian").formula)
    rng = random.Random(4)
    pairs = list(itertools.combinations(range(6), 2))
    graphs = [graph_structure(6, rng.sample(pairs, rng.randint(6, 9))) for _ in range(24)]
    want = [sat._Grounder(matrix, prefix, 6, False).satisfiable(G, {}, {}) for G in graphs]
    assert True in want and False in want
    shared = sat._Grounder(matrix, prefix, 6, False)
    results = [[] for _ in range(4)]
    errors = []

    def worker(out, seed):
        order = random.Random(seed).sample(range(len(graphs)), len(graphs))
        try:
            for _ in range(3):
                out.extend((i, shared.satisfiable(graphs[i], {}, {})) for i in order)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(out, seed))
                   for seed, out in enumerate(results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for out in results:
        assert len(out) == 3 * len(graphs)
        assert all(answer is want[i] for i, answer in out)
