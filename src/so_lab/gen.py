"""Seeded random generators for formulas, structures, and families.

All functions consume an explicit random.Random so suites are
replayable from their seed alone.
"""
from __future__ import annotations

import random

from . import formulas as fm
from .structures import FiniteStructure, Signature, tuple_space


def random_structure(rng: random.Random, sig: Signature, size: int,
                     density: float = 0.5) -> FiniteStructure:
    rels = {}
    for name, arity in sig.relations:
        rels[name] = frozenset(
            t for t in tuple_space(size, arity) if rng.random() < density
        )
    return FiniteStructure(sig, size, rels)


def random_graph(rng: random.Random, n: int) -> FiniteStructure:
    """A graph on n vertices with each edge drawn with probability 1/2."""
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.add((u, v))
                edges.add((v, u))
    return FiniteStructure(Signature.of({"edge": 2}), n, {"edge": edges})


def random_family(rng: random.Random, sig: Signature, count: int,
                  max_size: int = 3) -> list[FiniteStructure]:
    return [
        random_structure(rng, sig, rng.randint(1, max_size))
        for _ in range(count)
    ]


def random_formula(rng: random.Random, sig: Signature, *,
                   max_quant_depth: int = 3,
                   max_connectives: int = 6,
                   max_so: int = 2,
                   max_binary_so: int = 1,
                   so_probability: float = 0.35,
                   allow_free: bool = False) -> fm.Formula:
    """A random formula with at most max_quant_depth nested quantifiers.

    Closed by construction unless allow_free is set; relation
    quantifiers are capped in number and in how many may be binary,
    which keeps brute-force evaluation affordable.
    """
    state = {
        "fo": 0,
        "so": 0,
        "conn": max_connectives,
        "so_left": max_so,
        "binary_so_left": max_binary_so,
    }

    def fresh_fo():
        state["fo"] += 1
        return f"x{state['fo'] - 1}"

    def fresh_so():
        state["so"] += 1
        return f"R{state['so'] - 1}"

    def atom(fo_vars, so_vars):
        candidates = list(sig.relations) + sorted(so_vars.items())
        if allow_free and not fo_vars:
            fo_vars = [fresh_fo()]
        if candidates and fo_vars and rng.random() < 0.85:
            name, arity = rng.choice(candidates)
            return fm.Atom(name, tuple(rng.choice(fo_vars) for _ in range(arity)))
        left, right = rng.choice(fo_vars), rng.choice(fo_vars)
        eq = fm.Eq(left, right)
        return fm.Not(eq) if rng.random() < 0.5 else eq

    def build(fo_vars, so_vars, depth):
        if not fo_vars and not allow_free:
            if depth == 0:
                raise ValueError("generator needs quantifier depth to close atoms")
            return quantifier(fo_vars, so_vars, depth, force_fo=True)
        roll = rng.random()
        if depth > 0 and roll < 0.45:
            return quantifier(fo_vars, so_vars, depth)
        if state["conn"] > 0 and roll < 0.85:
            state["conn"] -= 1
            kind = rng.choice(("not", "and", "or", "implies", "iff"))
            if kind == "not":
                return fm.Not(build(fo_vars, so_vars, depth))
            node = {"and": fm.And, "or": fm.Or,
                    "implies": fm.Implies, "iff": fm.Iff}[kind]
            return node(build(fo_vars, so_vars, depth), build(fo_vars, so_vars, depth))
        return atom(fo_vars, so_vars)

    def quantifier(fo_vars, so_vars, depth, force_fo=False):
        so_ok = state["so_left"] > 0 and not force_fo
        if so_ok and rng.random() < so_probability:
            state["so_left"] -= 1
            if state["binary_so_left"] > 0 and rng.random() < 0.4:
                state["binary_so_left"] -= 1
                arity = 2
            else:
                arity = 1
            name = fresh_so()
            body = build(fo_vars, {**so_vars, name: arity}, depth - 1)
            node = fm.ExistsSO if rng.random() < 0.5 else fm.ForallSO
            return node(name, arity, body)
        var = fresh_fo()
        body = build(fo_vars + [var], so_vars, depth - 1)
        node = fm.ExistsFO if rng.random() < 0.5 else fm.ForallFO
        return node(var, body)

    return build([], {}, max_quant_depth)


def formula_corpus(seed: int, count: int, sig: Signature, **shape) -> list[fm.Formula]:
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        f = random_formula(rng, sig, **shape)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out
