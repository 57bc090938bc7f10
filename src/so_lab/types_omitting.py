"""Complete types in designated free relation variables, realization
tables, omission checks, and finite-pool checkers for axiomatization by
type omission.

The full type space is never materialised: every computation is
relative to an explicit finite pool of candidate structures, and the
reports say so.  "Has isomorphic ultrapowers" is replaced by equality
of realized-type vectors, which is what the principal scale makes
checkable (ultrapowers collapse to their base there).

omits, omitted_by_all, check_omission_axiomatization and
property_A_check share one realization table per type context and
budget.  It keeps, for each structure asked about, the frozenset of its
realized types, built from one shared TwoType object per distinct type
so that set operations compare types by identity, and the union over
the last pool asked about.  The tables are held weakly keyed on the
context, which hashes its fields afresh: they last exactly as long as
the context object that first asked for them, and with it they release
every structure and type they hold.  realized_types caches nothing.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from . import formulas as fm
from .errors import ValidationError
from .formula_space import TheoryVector, check_vector
from .structures import (
    DEFAULT_RELATION_BUDGET,
    FiniteStructure,
    Signature,
    _is_int,
    all_relations,
    check_formula,
    compile_evaluator,
    relation_domain,
)

POOL_RELATIVE_NOTE = (
    "relative to the supplied pool: types realized only outside the pool are invisible;"
    " shared realized-type vectors stand in for isomorphic ultrapowers"
)


@dataclass(frozen=True)
class TypeContext:
    """Arities for the designated free relation variables X0..X{m-1} and
    an ordered fragment of closed formulas over the signature expanded
    by them."""

    arities: tuple[int, ...]
    fragment: tuple[fm.Formula, ...]

    def __post_init__(self):
        if not all(_is_int(k) and k >= 1 for k in self.arities):
            raise ValidationError("relation-variable arities must be integers of at least 1")
        for f in self.fragment:
            fm.check_height(f)
        if len(set(self.fragment)) != len(self.fragment):
            raise ValidationError("duplicate formula in type fragment")

    @property
    def relvar_names(self):
        return tuple(f"X{i}" for i in range(len(self.arities)))

    def check_against(self, sig: Signature):
        """No designated name may be a symbol of sig, since evaluation
        would let it shadow the structure's relation.  Each fragment
        formula then passes structures.check_formula over sig's arities
        and the declared ones."""
        declared = dict(zip(self.relvar_names, self.arities))
        for name in declared:
            if sig.arity(name) is not None:
                raise ValidationError(
                    f"designated relation variable {name!r} is also a symbol of the signature"
                )
        arities = {**sig._arity, **declared}
        for f in self.fragment:
            check_formula(f, arities)

    @staticmethod
    def from_json_dict(data) -> "TypeContext":
        """The context a decoded JSON object describes; raises
        ValidationError on any value of the wrong JSON type."""
        if not isinstance(data, dict) or not isinstance(data.get("arities"), list):
            raise ValidationError("a type context must be a JSON object with an 'arities' array")
        return TypeContext(tuple(data["arities"]),
                           fm.parse_list(data.get("fragment"), "'fragment'"))

    def to_json_dict(self):
        return {
            "arities": list(self.arities),
            "fragment": [fm.print_formula(f) for f in self.fragment],
        }


# A type is a complete bit vector over the context fragment, the same
# value as a theory vector.  Satisfiability is certified only by
# exhibiting a witness, never assumed.
TwoType = TheoryVector


def realized_types(A: FiniteStructure, ctx: TypeContext, *,
                   budget: int = DEFAULT_RELATION_BUDGET):
    """Every type realized on A by some choice of relations of the
    declared kinds, mapped to the first witnessing relation tuple in
    lexicographic enumeration order.  The designated variables are the
    outer variables of structures.relation_domain, which charges the
    budget."""
    ctx.check_against(A.sig)
    compiled = [compile_evaluator(f) for f in ctx.fragment]
    depth = max((d for _, _, d in compiled), default=0)
    so_domain = relation_domain(A.size, budget, depth, outer=ctx.arities)
    out: dict[TwoType, tuple] = {}
    for combo in itertools.product(*[all_relations(A.size, k) for k in ctx.arities]):
        so = dict(zip(ctx.relvar_names, combo))
        bits = tuple(int(evaluate(A, {}, so, so_domain)) for evaluate, _, _ in compiled)
        out.setdefault(TwoType(bits), combo)
    return out


class _Realizations:
    """The realization table of one type context under one budget.
    Realized sets are pure in (structure, context): structures hash by
    value, so equal structures share an entry.  The budget is part of the
    key because a set built under a larger budget must not be returned
    where a smaller one raises."""

    def __init__(self, ctx, budget):
        # A weak reference: the table is a value of _tables, which is
        # keyed weakly on the context and must not keep it alive.
        self.ctx = weakref.ref(ctx)
        self.budget = budget
        self.sets = {}        # structure -> frozenset of shared types
        self.types = {}       # type -> the one object standing for it
        self.pool = ()
        self.pool_union = frozenset()

    def of(self, A) -> frozenset:
        """The types A realizes."""
        realized = self.sets.get(A)
        if realized is None:
            shared = self.types.setdefault
            realized = self.sets[A] = frozenset(
                shared(p, p) for p in realized_types(A, self.ctx(), budget=self.budget))
        return realized

    def union(self, structures) -> set:
        """The types some member of structures realizes."""
        out = set()
        for A in structures:
            out.update(self.of(A))
        return out

    def over_pool(self, pool) -> frozenset:
        """union(pool), remembered for the last pool asked about."""
        pool = tuple(pool)
        if pool != self.pool:
            self.pool_union = frozenset(self.union(pool))
            self.pool = pool
        return self.pool_union


_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _table(ctx: TypeContext, budget: int) -> _Realizations:
    by_budget = _tables.get(ctx)
    if by_budget is None:
        by_budget = _tables[ctx] = {}
    table = by_budget.get(budget)
    if table is None:
        table = by_budget[budget] = _Realizations(ctx, budget)
    return table


def omits(A: FiniteStructure, p: TwoType, ctx: TypeContext, *,
          budget: int = DEFAULT_RELATION_BUDGET) -> bool:
    """True when no choice of relations on A realizes p.  A p that is not
    a vector over ctx's fragment (formula_space.check_vector) is a
    ValidationError."""
    check_vector(p, len(ctx.fragment))
    return p not in _table(ctx, budget).of(A)


def omitted_by_all(K, pool, ctx: TypeContext, *,
                   budget: int = DEFAULT_RELATION_BUDGET) -> frozenset:
    """The pool-realized types that every member of K omits: the
    computable fragment of the omission set of K."""
    table = _table(ctx, budget)
    return table.over_pool(pool) - table.union(K)


@dataclass(frozen=True)
class OmissionReport:
    ok: bool
    realized_in_k: tuple[TwoType, ...]
    not_pool_realized: tuple[TwoType, ...]
    unexplained: tuple[FiniteStructure, ...]
    note: str


def check_omission_axiomatization(K, Pi, pool, ctx: TypeContext, *,
                                  budget: int = DEFAULT_RELATION_BUDGET) -> OmissionReport:
    """Verify that Pi lies inside the pool-relative omission set of K and
    that every pool member outside K realizes some member of Pi; the
    report lists each violation.  A member of Pi that is not a vector
    over ctx's fragment (formula_space.check_vector) is a
    ValidationError."""
    Pi = {check_vector(p, len(ctx.fragment)) for p in Pi}
    omitted = omitted_by_all(K, pool, ctx, budget=budget)
    table = _table(ctx, budget)
    pool_realized = table.over_pool(pool)
    realized_in_k = tuple(
        sorted((p for p in Pi - omitted if p in pool_realized), key=lambda p: p.bits)
    )
    not_pool_realized = tuple(
        sorted((p for p in Pi - pool_realized), key=lambda p: p.bits)
    )
    k_set = set(K)
    unexplained = [B for B in pool if B not in k_set and Pi.isdisjoint(table.of(B))]
    ok = not realized_in_k and not not_pool_realized and not unexplained
    return OmissionReport(
        ok=ok,
        realized_in_k=realized_in_k,
        not_pool_realized=not_pool_realized,
        unexplained=tuple(unexplained),
        note=POOL_RELATIVE_NOTE,
    )


@dataclass(frozen=True)
class PropertyAReport:
    ok: bool
    counterexamples: tuple[FiniteStructure, ...]
    note: str


def property_A_check(K, pool, ctx: TypeContext, *,
                     budget: int = DEFAULT_RELATION_BUDGET) -> PropertyAReport:
    """Pool-scale closure test: every pool member all of whose realized
    types are realized somewhere in K must itself lie in K; the report
    lists the counterexamples."""
    k_set = set(K)
    table = _table(ctx, budget)
    k_realized = table.union(K)
    counterexamples = [A for A in pool if A not in k_set and table.of(A) <= k_realized]
    return PropertyAReport(
        ok=not counterexamples,
        counterexamples=tuple(counterexamples),
        note=POOL_RELATIVE_NOTE,
    )
