"""Ultrafilters on finite index sets and the constructions over them:
product ultrafilters, explicit ultraproduct quotients, decomposable
relations, Henkin models whose relation quantifiers range over the
decomposable relations, transfer and iterated-product checks, and
iterated ultrapower chains.

Index sets here are finite, so every ultrafilter is principal; the
representation still drives all constructions through the literal
large-set definitions so that the defining formulas are exercised
rather than shortcut; one loop, _box, tests every quotient relation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import formulas as fm
from .errors import ArityBoundError, BudgetExceededError, SoLabError, ValidationError
from .structures import (
    DEFAULT_PRODUCT_BUDGET,
    DEFAULT_RELATION_BUDGET,
    FiniteStructure,
    _is_int,
    all_relations,
    check_formula,
    compile_evaluator,
    eval_so_full,
    excess_relation_choices,
    relation_domain,
    tuple_index,
    tuple_space,
)

DEFAULT_LITERAL_BUDGET = 2 ** 10


@dataclass(frozen=True)
class Ultrafilter:
    """Ultrafilter on {0..size-1}, determined by its principal element:
    a subset is large exactly when it contains that element."""

    size: int
    principal: int

    def __post_init__(self):
        if not (_is_int(self.size) and _is_int(self.principal)):
            raise ValidationError(f"the index set size and the principal element must be"
                                  f" integers, not {self.size!r} and {self.principal!r}")
        if self.size < 1:
            raise ValidationError("index set must be nonempty")
        if not 0 <= self.principal < self.size:
            raise ValidationError("principal element outside the index set")

    def member(self, subset) -> bool:
        return self.principal in subset

    def literal(self) -> str:
        return f"principal:{self.principal}"

    @staticmethod
    def parse(text: str, size: int, cols: int | None = None) -> "Ultrafilter":
        """Parse "principal:i", or the product literal
        "principal:i x principal:j" given the column count of the
        row-major I x J flattening; only the product literal takes one."""
        text = text.strip()
        if " x " in text:
            left, right = (part.strip() for part in text.split(" x ", 1))
            if cols is None or cols < 1:
                raise ValidationError(
                    "a product ultrafilter literal needs the column count"
                    " of the family grid, at least 1"
                )
            if size % cols:
                raise ValidationError(
                    f"family of {size} members does not fill rows of {cols}"
                )
            return product_ultrafilter(
                Ultrafilter.parse(left, size // cols),
                Ultrafilter.parse(right, cols),
            )
        if cols is not None:
            raise ValidationError("a column count needs a product ultrafilter literal")
        index = text.removeprefix("principal:").strip()
        if index == text or not index.isdecimal():
            raise ValidationError(f"unsupported ultrafilter literal {text!r}")
        return Ultrafilter(size, int(index))


def product_ultrafilter(F: Ultrafilter, G: Ultrafilter) -> Ultrafilter:
    """The ultrafilter on I x J with X large iff the set of columns j
    whose row-section {i : (i,j) in X} is F-large is G-large.  Pairs are
    encoded row-major: (i, j) -> i*|J| + j."""
    return Ultrafilter(F.size * G.size, F.principal * G.size + G.principal)


def product_member_definitional(F: Ultrafilter, G: Ultrafilter, pairs) -> bool:
    """Membership by the defining double-large-set formula, evaluated
    literally; used to cross-check product_ultrafilter."""
    pairs = set(pairs)
    large_columns = {j for j in range(G.size)
                     if F.member({i for i in range(F.size) if (i, j) in pairs})}
    return G.member(large_columns)


# ---------------------------------------------------------------------------
# Ultraproducts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UltraproductResult:
    quotient: FiniteStructure
    class_representatives: tuple[tuple[int, ...], ...]
    family: tuple[FiniteStructure, ...]
    ultrafilter: Ultrafilter
    explicit: bool

    def value_at_principal(self, element: int) -> int:
        return self.class_representatives[element][self.ultrafilter.principal]


def _check_family(family, U):
    family = tuple(family)
    if len(family) != U.size:
        raise ValidationError(
            f"family has {len(family)} members but the ultrafilter index set has {U.size}"
        )
    sig = family[0].sig
    if any(A.sig != sig for A in family):
        raise ValidationError("family members must share one signature")
    return family


def ultraproduct(family, U: Ultrafilter, *,
                 product_budget: int = DEFAULT_PRODUCT_BUDGET) -> UltraproductResult:
    """Quotient of the full product by U-almost-everywhere equality, with
    relations induced componentwise.

    When both the full product and n^k, k the largest arity of the
    signature and at least 2, are within product_budget, the explicit
    path builds the product, quotients it through the literal large-set
    tests (n^k per k-ary relation) and confirms the result equal to the
    principal factor, as it must be: class q is represented by the first
    product point with q at the principal index, (0, ..., q, ..., 0).
    Otherwise the fast path returns that factor and those representatives.
    """
    family = _check_family(family, U)
    m = U.size
    n = family[U.principal].size
    sig = family[0].sig
    total = math.prod(A.size for A in family)
    k = max([2, *(arity for _, arity in sig.relations)])
    explicit = max(total, n ** k) <= product_budget
    if explicit:
        reps = []
        for point in itertools.product(*[range(A.size) for A in family]):
            for rep in reps:
                if U.member({i for i in range(m) if point[i] == rep[i]}):
                    break
            else:
                reps.append(point)
        reps.sort(key=lambda rep: (rep[U.principal], rep))
        rels = {name: _box(reps, U, arity, [A.rels[name] for A in family])
                for name, arity in sig.relations}
        quotient = FiniteStructure(sig, len(reps), rels)
        if quotient != family[U.principal]:
            raise SoLabError("quotient failed to match the principal factor; this is a defect")
    else:
        if n > product_budget:
            raise BudgetExceededError(
                f"the principal factor has {n} elements, exceeding the budget of"
                f" {product_budget}", required=n, budget=product_budget)
        # Class q is represented by q at the principal index, 0 elsewhere.
        before, after = (0,) * U.principal, (0,) * (m - U.principal - 1)
        reps = [before + (q,) + after for q in range(n)]
        quotient = family[U.principal]
    return UltraproductResult(quotient, tuple(reps), family, U, explicit)


def _box(reps, U, arity, factors) -> frozenset:
    """The arity-tuples of classes reps whose componentwise membership
    set {i : their i-th components form a tuple of factors[i]} is U-large."""
    return frozenset(
        combo for combo in itertools.product(range(len(reps)), repeat=arity)
        if U.member({i for i in range(U.size)
                     if tuple(reps[q][i] for q in combo) in factors[i]}))


# ---------------------------------------------------------------------------
# Decomposable relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    arity: int
    factors: tuple[frozenset, ...]


def is_decomposable(rel, result: UltraproductResult, arity: int | None = None):
    """A decomposition of rel (a relation on the quotient) into factor
    relations whose box recomposes to rel, or None when none exists.

    Under a principal ultrafilter every relation is decomposable: the
    factor at the principal index is the pullback of rel and the other
    factors are chosen empty (any choice is equivalent almost
    everywhere; empty is canonical).
    """
    rel = frozenset(tuple(t) for t in rel)
    if arity is None:
        if not rel:
            raise ValidationError("arity required for the empty relation")
        arity = len(next(iter(rel)))
    if any(len(t) != arity for t in rel):
        raise ValidationError("mixed tuple lengths in relation")
    U = result.ultrafilter
    pullback = frozenset(
        tuple(result.value_at_principal(x) for x in t) for t in rel
    )
    factors = tuple(
        pullback if i == U.principal else frozenset() for i in range(U.size)
    )
    dec = Decomposition(arity, factors)
    if recompose(dec, result) != rel:  # pragma: no cover - principal always succeeds
        return None
    return dec


def recompose(dec: Decomposition, result: UltraproductResult) -> frozenset:
    """The box of the factor relations: membership of a quotient tuple is
    the largeness of its componentwise membership set."""
    return _box(result.class_representatives, result.ultrafilter, dec.arity, dec.factors)


# ---------------------------------------------------------------------------
# Henkin models
# ---------------------------------------------------------------------------

class DecomposableHenkinModel:
    """An ultraproduct together with, per arity up to a bound, the set of
    relations decomposable with respect to its construction; relation
    quantifiers are evaluated over these sets only."""

    __slots__ = ("base", "upsilon", "arity_bound")

    def __init__(self, result: UltraproductResult, upsilon: dict, arity_bound: int):
        self.base = result.quotient
        self.upsilon = upsilon
        self.arity_bound = arity_bound

    def relations_of_arity(self, k: int):
        if k not in self.upsilon:
            raise ArityBoundError(
                f"arity {k} exceeds the materialised bound {self.arity_bound}"
            )
        return self.upsilon[k]


def _largeness_table(U: Ultrafilter) -> list[bool]:
    """U.member of every subset of the index set, by bitmask: entry S
    is the largeness of {i : bit i of S is set}."""
    return [U.member({i for i in range(U.size) if S >> i & 1}) for S in range(2 ** U.size)]


def _factor_masks(result: UltraproductResult, i: int, k: int) -> list[int]:
    """The quotient mask of every k-ary relation on factor i, in mask
    order: the set of quotient k-tuples whose i-th components form a
    tuple of that relation, as a bitmask over structures.tuple_space."""
    reps = result.class_representatives
    index = tuple_index(result.family[i].size, k)
    pre = [0] * len(index)
    for j, q in enumerate(tuple_space(len(reps), k)):
        pre[index[tuple(reps[x][i] for x in q)]] |= 1 << j
    masks = [0] * 2 ** len(pre)
    for r in range(1, len(masks)):
        low = r & -r
        masks[r] = masks[r ^ low] | pre[low.bit_length() - 1]
    return masks


def _box_masks(result: UltraproductResult, k: int, large):
    """The quotient mask of the box of every choice of one k-ary
    relation per factor, in the order of itertools.product over each
    factor's all_relations; large is _largeness_table of the
    ultrafilter.  recompose gives the same boxes one by one."""
    factors = [_factor_masks(result, i, k) for i in range(len(result.family))]
    last = factors.pop()
    top = 1 << len(factors)
    full = (1 << len(result.class_representatives) ** k) - 1
    for outer in itertools.product(*factors):
        # (S, cell): the nonempty set of tuples held by exactly the
        # factors in S so far; at most one cell per quotient tuple.
        cells = [(0, full)]
        for i, q in enumerate(outer):
            cells = [(S | b, d) for S, c in cells for b, p in ((0, ~q), (1 << i, q))
                     if (d := c & p)]
        out = held = 0
        for S, cell in cells:
            if large[S]:
                out |= cell
            if large[S | top]:
                held |= cell
        for mi in last:
            yield (out & ~mi) | (held & mi)


def henkin_model(family, U: Ultrafilter, arity_bound: int = 2, *,
                 budget: int = DEFAULT_RELATION_BUDGET) -> DecomposableHenkinModel:
    """Materialise the decomposable relations of the ultraproduct for
    every arity up to arity_bound.

    Both routes hold every k-ary relation on the n-element quotient, a
    set of up to n^k tuples, so each arity is charged 2^(n^k) * n^k
    against budget before either route builds anything.  When
    the factor choices are below DEFAULT_LITERAL_BUDGET, every box is
    enumerated: U.member is asked once per subset of the indices, each
    factor relation becomes a mask over the quotient's k-tuples, and a
    choice's box is the mask of the tuples whose componentwise
    membership set is large.  That is recompose's double-large-set test
    on whole masks, not the principal shortcut: it gives the right boxes
    for any notion of largeness.  The distinct masks, in mask order, are
    the universe.  Otherwise the principal shortcut applies (every
    relation is decomposable, so the set is the full powerset).  Both
    routes agree and the tests compare them.  An arity_bound that is not
    an integer, or is negative, is a ValidationError."""
    if not _is_int(arity_bound):
        raise ValidationError(f"the arity bound must be an integer, not {arity_bound!r}")
    if arity_bound < 0:
        raise ValidationError(f"the arity bound must be at least 0, not {arity_bound}")
    family = _check_family(family, U)
    n = family[U.principal].size  # the size of the quotient
    for k in range(1, arity_bound + 1):
        # The relations alone are compared first, by exponent, so a huge
        # quotient never builds an integer of n^k bits.
        tuples = n ** k
        over = excess_relation_choices(n, (k,), budget)
        if over or tuples * 2 ** tuples > budget:
            relations = over[0] if over else 2 ** tuples
            raise BudgetExceededError(
                f"the {k}-ary relations on the quotient, 2^({n}^{k}) sets of up to"
                f" {n}^{k} tuples, exceed the budget of {budget}",
                required=None if relations is None else relations * tuples, budget=budget)
    result = ultraproduct(family, U)
    upsilon = {}
    large = None
    for k in range(1, arity_bound + 1):
        # The 2^(|A1|^k + |A2|^k + ...) factor choices, by their exponent.
        if sum(A.size ** k for A in family) < DEFAULT_LITERAL_BUDGET.bit_length():
            if large is None:
                large = _largeness_table(U)
            relations = all_relations(n, k)
            upsilon[k] = tuple(relations[b] for b in sorted(set(_box_masks(result, k, large))))
        else:
            upsilon[k] = all_relations(n, k)
    return DecomposableHenkinModel(result, upsilon, arity_bound)


def full_henkin_model(A: FiniteStructure, arity_bound: int = 2) -> DecomposableHenkinModel:
    """The trivial-ultrapower Henkin model of A: its relation universe is
    the full powerset at every arity up to the bound."""
    return henkin_model([A], Ultrafilter(1, 0), arity_bound)


def check_henkin_formula(f, A: FiniteStructure, arity_bound: int) -> dict:
    """The free relation variables of f (the symbols A's signature
    lacks) and their arities, after checking f for a Henkin model over
    A's signature: the arity bound, on them and on f's relation
    quantifiers (else ArityBoundError), then structures.check_formula
    with them as so."""
    found = fm.scope(f)
    arities = A.sig._arity
    free = {name: k for name, k in found.symbols.items() if name not in arities}
    for arity in (*free.values(), *found.so_arities):
        if arity > arity_bound:
            raise ArityBoundError(
                f"quantifier arity {arity} exceeds the model bound {arity_bound}")
    check_formula(f, arities, free)
    return free


def henkin_eval(M: DecomposableHenkinModel, f, *,
                budget: int = DEFAULT_RELATION_BUDGET) -> bool:
    """Truth in a Henkin model: the first-order part is Tarski on the
    base and relation quantifiers range over the materialised relation
    universe only.  Free relation variables are closed universally: f
    is evaluated for each choice of their values from the relation
    universe, until one makes it false.  After check_henkin_formula the
    budget is charged as structures.relation_domain states, with these
    as its outer variables.
    """
    free = check_henkin_formula(f, M.base, M.arity_bound)
    evaluate, _, depth = compile_evaluator(f)
    outer = tuple(free.values())
    so_domain = relation_domain(M.base.size, budget, depth, M.relations_of_arity, outer)
    return all(evaluate(M.base, {}, dict(zip(free, values)), so_domain)
               for values in itertools.product(*map(M.relations_of_arity, outer)))


# ---------------------------------------------------------------------------
# Transfer and product checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LosReport:
    ultra_truth: bool
    large_set_truth: bool
    agree: bool
    true_indices: tuple[int, ...]


def check_los(family, U: Ultrafilter, f, *,
              budget: int = DEFAULT_RELATION_BUDGET) -> LosReport:
    """Compare truth of the closed sentence f in the Henkin model of the
    ultraproduct against largeness of its truth set across the factors,
    both evaluations under budget.  Disagreement is a defect, never a
    valid outcome.  f is checked, as a sentence, before the model is built,
    with relation universes up to the arities f quantifies (none if FO)."""
    family = _check_family(family, U)
    check_formula(f, family[0].sig._arity)
    bound = max(fm.scope(f).so_arities, default=0)
    M = henkin_model(family, U, bound, budget=budget)
    ultra_truth = henkin_eval(M, f, budget=budget)
    true_indices = tuple(
        i for i in range(U.size)
        if eval_so_full(family[i], f, budget=budget)
    )
    large = U.member(set(true_indices))
    return LosReport(ultra_truth, large, ultra_truth == large, true_indices)


@dataclass(frozen=True)
class FubiniReport:
    grid_shape: tuple[int, int]
    witness: tuple[int, ...]
    flat_size: int


def check_fubini(grid, F: Ultrafilter, G: Ultrafilter) -> FubiniReport:
    """Build the one-step product over the product ultrafilter and the
    iterated column-then-row construction, and exhibit an isomorphism
    between them.  Both are the principal factor, so they must be equal
    and the witness is the identity, the lexicographically least
    isomorphism."""
    grid = [list(row) for row in grid]
    if len(grid) != F.size or any(len(row) != G.size for row in grid):
        raise ValidationError("grid shape must be |I| x |J|")
    flat = [grid[i][j] for i in range(F.size) for j in range(G.size)]
    lhs = ultraproduct(flat, product_ultrafilter(F, G))
    inner = [ultraproduct([grid[i][j] for i in range(F.size)], F).quotient
             for j in range(G.size)]
    rhs = ultraproduct(inner, G)
    if lhs.quotient != rhs.quotient:
        raise SoLabError("no isomorphism between the two constructions; this is a defect")
    return FubiniReport((F.size, G.size), tuple(range(lhs.quotient.size)), len(flat))


# ---------------------------------------------------------------------------
# Ultrachains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ultrachain:
    base: FiniteStructure
    stages: tuple[tuple[Ultrafilter, FiniteStructure], ...]
    embeddings: tuple[tuple[int, ...], ...]

    @property
    def limit(self) -> FiniteStructure:
        return self.stages[-1][1] if self.stages else self.base

    def composed_embedding(self) -> tuple[int, ...]:
        out = tuple(range(self.base.size))
        for emb in self.embeddings:
            out = tuple(emb[x] for x in out)
        return out


def build_ultrachain(A0: FiniteStructure, filters) -> Ultrachain:
    """Iterated ultrapowers: stage k+1 is the ultrapower of stage k by
    filters[k]; each embedding sends an element to the class of its
    constant sequence."""
    stages = []
    embeddings = []
    current = A0
    for U in filters:
        result = ultraproduct([current] * U.size, U)
        emb = []
        for a in range(current.size):
            target = None
            for q, rep in enumerate(result.class_representatives):
                if U.member({i for i in range(U.size) if rep[i] == a}):
                    target = q
                    break
            if target is None:  # pragma: no cover
                raise SoLabError("constant sequence lost its class; this is a defect")
            emb.append(target)
        stages.append((U, result.quotient))
        embeddings.append(tuple(emb))
        current = result.quotient
    return Ultrachain(A0, tuple(stages), tuple(embeddings))
