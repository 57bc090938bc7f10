"""Finite formula fragments viewed as coordinates of a Cantor-style
space: a structure's theory over an ordered fragment is a bit vector,
vectors carry the 2^-i ultrametric, and disjointness of the vector sets
of two structure classes is exactly single-formula separability by a
Boolean combination over the fragment.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import formulas as fm
from .errors import BudgetExceededError, ValidationError
from .structures import (
    DEFAULT_RELATION_BUDGET,
    FiniteStructure,
    Signature,
    _is_int,
    check_formula,
    eval_so_full,
)
from .ultra import DecomposableHenkinModel, henkin_eval

# The formulas a Boolean closure may hold, its fragment included.
CLOSURE_FORMULA_LIMIT = 4096


@dataclass(frozen=True)
class Fragment:
    """An ordered, duplicate-free list of closed formulas over one
    signature; list position is the coordinate index."""

    sig: Signature
    formulas: tuple[fm.Formula, ...]

    def __post_init__(self):
        seen = set()
        for f in self.formulas:
            check_formula(f, self.sig._arity)
            if f in seen:
                raise ValidationError(f"duplicate fragment formula: {f}")
            seen.add(f)

    def __len__(self):
        return len(self.formulas)

    def __iter__(self):
        return iter(self.formulas)

    @staticmethod
    def from_strings(strings, sig: Signature) -> "Fragment":
        return Fragment(sig, fm.parse_list(strings, "a fragment"))


@dataclass(frozen=True)
class TheoryVector:
    """Bit j decides the j-th formula of a fragment (types_omitting.TwoType)."""

    bits: tuple[int, ...]

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self):
        return len(self.bits)


def check_vector(v, m):
    """The theory-vector rule: v when it is a vector over a fragment of
    m formulas, a TheoryVector of length m, else a ValidationError."""
    if not isinstance(v, TheoryVector):
        raise ValidationError(f"{v!r} is not a TheoryVector")
    if len(v) != m:
        raise ValidationError(f"vectors over different fragments: {len(v)} bits, not {m}")
    return v


class VectorSet:
    """A set of theory vectors over one fragment, given as a mapping from
    each vector to one witness."""

    def __init__(self, witnesses):
        self.witnesses = dict(witnesses)
        self.vectors = frozenset(self.witnesses)


def theory_vector(obj, fragment: Fragment, *,
                  budget: int = DEFAULT_RELATION_BUDGET) -> TheoryVector:
    """Bit i holds the truth of the fragment's i-th formula: full
    semantics on plain structures, Henkin semantics on Henkin models."""
    if isinstance(obj, DecomposableHenkinModel):
        return TheoryVector(tuple(int(henkin_eval(obj, f, budget=budget)) for f in fragment))
    if isinstance(obj, FiniteStructure):
        return TheoryVector(
            tuple(int(eval_so_full(obj, f, budget=budget)) for f in fragment)
        )
    raise ValidationError(f"cannot take a theory vector of {type(obj).__name__}")


def vector_set(objects, fragment: Fragment, *,
               budget: int = DEFAULT_RELATION_BUDGET) -> VectorSet:
    witnesses = {}
    for obj in objects:
        v = theory_vector(obj, fragment, budget=budget)
        witnesses.setdefault(v, obj)
    return VectorSet(witnesses)


def ultrametric(x: TheoryVector, y: TheoryVector) -> Fraction:
    """d(x, y) = max{2^-i : x(i) != y(i)}, i.e. 2^-(least disagreement
    index), and 0 when the vectors are equal.  Exact rational output.
    Both must be vectors over one fragment (check_vector)."""
    m = len(x) if isinstance(x, TheoryVector) else None
    check_vector(x, m)
    check_vector(y, m)
    for i, (a, b) in enumerate(zip(x.bits, y.bits)):
        if a != b:
            return Fraction(1, 2 ** i)
    return Fraction(0)


def set_distance(S: VectorSet, T: VectorSet) -> Fraction:
    """Minimum pairwise ultrametric: zero exactly when the sets meet."""
    if not S.vectors or not T.vectors:
        raise ValidationError("set_distance is undefined for an empty vector set")
    return min(ultrametric(x, y) for x in S.vectors for y in T.vectors)


def _literal(formula, bit):
    return formula if bit else fm.Not(formula)


def find_separating_formula(K, L, fragment: Fragment, *,
                            budget: int = DEFAULT_RELATION_BUDGET):
    """A Boolean combination of fragment members true on every member of
    K and false on every member of L, or None when the two vector sets
    meet (in which case no such combination exists).

    The formula is the disjunction over K's vectors of the conjunction
    of matching literals, each a balanced tree (formulas.balanced); it
    is not minimised."""
    return separating_combination(vector_set(K, fragment, budget=budget),
                                  vector_set(L, fragment, budget=budget), fragment)


def separating_combination(kv: VectorSet, lv: VectorSet, fragment: Fragment):
    """find_separating_formula from the vector sets of K and L over
    fragment, for a caller that has them already."""
    if kv.vectors & lv.vectors:
        return None
    disjuncts = []
    for v in sorted(kv.vectors, key=lambda v: v.bits):
        parts = [_literal(f, bit) for f, bit in zip(fragment.formulas, v.bits)]
        disjuncts.append(fm.balanced(fm.And, parts))
    return fm.balanced(fm.Or, disjuncts)


def boolean_closure(fragment: Fragment, depth: int) -> Fragment:
    """Extend the fragment with negations and binary conjunctions and
    disjunctions of its members, iterated to the given nesting depth,
    deduplicated structurally, original order as a prefix.  A depth that
    is not an integer of at least 0 is a ValidationError, and a closure
    past CLOSURE_FORMULA_LIMIT formulas, a fixed limit apart from the
    relation budget, a BudgetExceededError."""
    if not (_is_int(depth) and depth >= 0):
        raise ValidationError(f"the depth must be an integer of at least 0, not {depth!r}")
    formulas = list(fragment.formulas)
    seen = set(formulas)

    def add(f):
        if f not in seen:
            if len(formulas) >= CLOSURE_FORMULA_LIMIT:
                raise BudgetExceededError(
                    f"Boolean closure exceeds {CLOSURE_FORMULA_LIMIT} formulas",
                    required=len(formulas) + 1, budget=CLOSURE_FORMULA_LIMIT,
                )
            seen.add(f)
            formulas.append(f)

    for _ in range(depth):
        level = list(formulas)
        for f in level:
            add(fm.Not(f))
        for f in level:
            for g in level:
                add(fm.And(f, g))
        for f in level:
            for g in level:
                add(fm.Or(f, g))
    return Fragment(fragment.sig, tuple(formulas))
