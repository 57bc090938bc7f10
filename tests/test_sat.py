"""Differential test of the SAT path of eval_so_full.

Closed sentences whose relation quantifiers form one homogeneous prefix
over a first-order matrix are decided by sat.eval_homogeneous.  The
reference below never touches sat.py: it loops over every assignment of
the relation variables with all_relations and evaluates the matrix with
eval_fo.
"""
import itertools
import random

import pytest

from so_lab import formulas as fm
from so_lab.errors import ValidationError
from so_lab.structures import (
    Assignment,
    Signature,
    all_relations,
    eval_fo,
    eval_so_full,
    iter_structures,
)

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
