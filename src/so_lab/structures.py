"""Finite relational structures and their evaluation machinery.

Structures live on universes {0..n-1} with relations stored as tuple
sets.  compile_evaluator turns a formula, once and for any structure,
into miniscoped Tarski-style closures that eval_fo, eval_so_full,
henkin_eval and realized_types share.  Like the SAT grounder's, they
run on a per-call frame: compiling resolves every variable and
relation name to a slot of it, the universe and the relation domain
first, then the free names, then one slot per binder.  Since a binder
owns its slot, its loop restores nothing, and calls share no state.
What it knows of the formula's scope it reads from formulas.scope.  The
closures trust their frame, as the grounder does: every entry first runs
check_formula, the one check of a formula (height, arity fault,
closedness, check_symbols), and eval_so_full beside it check_assignment,
the one check of an Assignment, before compiling or charging a budget.
check_relation is the one relation rule: FiniteStructure runs it on
every relation, check_assignment on every relation variable the formula
uses, and ultra on decomposed relations and their factors.  Under full
semantics relation quantifiers range over all relations of their arity:
by lexicographic enumeration within a budget on nested candidates or,
for a homogeneous prefix over a first-order matrix, by satisfiability
(see sat): a grounder compiled once per matrix, prefix and universe
size emits CNF with one Boolean per candidate tuple, and a
clause-learning (CDCL) solver decides it.

Everything here is immutable after construction and all operations are
pure functions.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

from . import formulas as fm, sat
from .errors import BudgetExceededError, ValidationError

DEFAULT_RELATION_BUDGET = 2 ** 24
# The n^2 element pairs an isomorphism search may weigh.  It also keeps
# n within the interpreter's recursion limit, as the search recurses once
# per element.
ISOMORPHISM_PAIR_LIMIT = 200_000


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def check_relation(members, k, size, label):
    """The relation rule: members, a collection of lists or tuples, as
    the frozenset of their tuples, and a ValidationError unless k is an
    integer of at least 1 and every member is k ints, not bools, in
    range(size).  label, such as "relation 'edge'", names the relation
    in the message.  No member is hashed before it passes."""
    if not (_is_int(k) and k >= 1):
        raise ValidationError(f"{label} has arity {k!r}, not an integer of at least 1")
    tuples = [tuple(t) if isinstance(t, (list, tuple)) else t for t in members]
    for t in tuples:
        if not (isinstance(t, tuple) and len(t) == k):
            raise ValidationError(f"{label} holds {t!r}, not a tuple of its arity {k} in length")
        for x in t:
            if not (isinstance(x, int) and type(x) is not bool and 0 <= x < size):
                raise ValidationError(f"{label} holds {t!r}, outside the universe range({size})")
    return frozenset(tuples)


@dataclass(frozen=True)
class Signature:
    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        arities = dict(self.relations)
        if len(arities) != len(self.relations):
            raise ValidationError("duplicate relation name in signature")
        for name, arity in self.relations:
            # The arity part of the relation rule, on the empty relation.
            check_relation((), arity, 0, f"relation {name!r}")
        # Not a field: equality, hashing and repr see relations only.
        object.__setattr__(self, "_arity", arities)

    @staticmethod
    def of(mapping) -> "Signature":
        return Signature(tuple(mapping.items()))

    def arity(self, name):
        return self._arity.get(name)

    @property
    def names(self):
        return tuple(name for name, _ in self.relations)

    def to_json_dict(self):
        return dict(self.relations)


EMPTY_SIGNATURE = Signature(())
GRAPH_SIGNATURE = Signature((("edge", 2),))


class FiniteStructure:
    """A structure on universe {0..size-1}; relations are frozensets of
    int tuples and every signature symbol is interpreted (possibly empty).
    """

    __slots__ = ("sig", "size", "rels", "_key", "_hash")

    def __init__(self, sig: Signature, size: int, relations=None):
        if not _is_int(size):
            raise ValidationError(f"the universe size must be an integer, not {size!r}")
        if size < 1:
            raise ValidationError("universe must be nonempty")
        relations = dict(relations or {})
        extra = set(relations) - set(sig.names)
        if extra:
            raise ValidationError(f"relations not in signature: {sorted(extra)}")
        rels = {}
        for name, arity in sig.relations:
            rels[name] = check_relation(relations.get(name, ()), arity, size, f"relation {name!r}")
        self.sig = sig
        self.size = size
        self.rels = rels
        key = (sig, size, tuple(rels[name] for name in sig.names))
        self._key = key
        self._hash = hash(key)

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild from the relations rather than restore the slots: the
        # hash of the key differs between processes.
        return FiniteStructure, (self.sig, self.size, self.rels)

    def __repr__(self):
        rels = {name: sorted(self.rels[name]) for name in self.sig.names}
        return f"FiniteStructure(size={self.size}, rels={rels})"

    def to_json_dict(self):
        return {
            "universe": self.size,
            "signature": self.sig.to_json_dict(),
            "relations": {name: sorted(list(t) for t in self.rels[name]) for name in self.sig.names},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data) -> "FiniteStructure":
        """The structure a decoded JSON object describes; raises
        ValidationError on any value of the wrong JSON type.  The universe
        size and the relations are checked by the constructor, the
        arities by Signature."""
        if not isinstance(data, dict):
            raise ValidationError(f"a structure must be a JSON object, not {type(data).__name__}")
        signature = data.get("signature")
        if not isinstance(signature, dict):
            raise ValidationError("'signature' must be an object mapping names to integer arities")
        relations = data.get("relations", {})
        if not isinstance(relations, dict) or not all(
                isinstance(tuples, list) for tuples in relations.values()):
            raise ValidationError("'relations' must be an object mapping names to lists of tuples")
        return FiniteStructure(Signature.of(signature), data.get("universe"), relations)

    @staticmethod
    def from_json(text) -> "FiniteStructure":
        return FiniteStructure.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Assignment:
    """Values for free variables: elements for individual variables and
    relations (tuple frozensets) for relation variables."""

    fo: dict
    so: dict


# ---------------------------------------------------------------------------
# Relation enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def tuple_space(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-tuples over {0..n-1} in lexicographic order."""
    return tuple(itertools.product(range(n), repeat=k))


@lru_cache(maxsize=None)
def tuple_index(n: int, k: int):
    return {t: i for i, t in enumerate(tuple_space(n, k))}


def relation_count(n: int, k: int) -> int:
    return 2 ** (n ** k)


def relation_from_mask(n: int, k: int, mask: int) -> frozenset:
    space = tuple_space(n, k)
    return frozenset(t for i, t in enumerate(space) if mask >> i & 1)


def relation_mask(n: int, k: int, rel) -> int:
    index = tuple_index(n, k)
    mask = 0
    for t in rel:
        mask |= 1 << index[t]
    return mask


_ALL_RELATIONS_CACHE_LIMIT = 2 ** 12


@lru_cache(maxsize=None)
def _all_relations_cached(n, k):
    return tuple(relation_from_mask(n, k, m) for m in range(relation_count(n, k)))


def all_relations(n: int, k: int):
    """All k-ary relations on {0..n-1} in mask (lexicographic) order."""
    return tuple(iter_relations(n, k))


def iter_relations(n: int, k: int):
    """all_relations, generated lazily when there are too many to cache."""
    count = relation_count(n, k)
    if count <= _ALL_RELATIONS_CACHE_LIMIT:
        return _all_relations_cached(n, k)
    return (relation_from_mask(n, k, m) for m in range(count))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def check_symbols(symbols, arities, so):
    """Raise ValidationError unless so or arities, a mapping of each
    symbol to its arity, covers each relation symbol of symbols, a
    mapping to the arity of its use, and arities at that arity; so
    shadows arities.  Run before any budget charge, so an ill-typed atom
    fails also in a branch never reached."""
    for name, k in symbols.items():
        if name not in so and arities.get(name) != k:
            if name not in arities:
                raise ValidationError(f"unknown symbol {name!r}")
            raise ValidationError(f"arity mismatch: {name!r} has arity {arities[name]},"
                                  f" applied to {k} arguments")


def check_formula(f, arities, so=(), *, closed=True):
    """fm.scope(f), after the one check of a formula every entry runs:
    fm.check_height, the arity fault, no free individual variable unless
    not closed, then check_symbols(symbols, arities, so)."""
    fm.check_height(f)
    found = fm.scope(f)
    if found.fault:
        raise ValidationError(found.fault)
    if closed and found.free_fo:
        raise ValidationError(
            f"formula has free first-order variables: {', '.join(found.free_fo)}")
    check_symbols(found.symbols, arities, so)
    return found


def check_assignment(found, size, fo, so):
    """Raise ValidationError unless so values each relation symbol of
    found, a formulas.scope, that it assigns with a set that passes
    check_relation at the arity of its use over range(size), and fo each
    free individual variable of found with an element of range(size).
    eval_so_full runs it on entry."""
    for name, rel in so.items():
        k = found.symbols.get(name)
        if k is None:
            continue
        if not isinstance(rel, (set, frozenset)):
            raise ValidationError(f"relation variable {name!r} must be a set of tuples,"
                                  f" not {type(rel).__name__}")
        check_relation(rel, k, size, f"relation variable {name!r}")
    for name in found.free_fo:
        value = fo.get(name)
        if value is None:
            raise ValidationError(f"unassigned free variable {name!r}")
        if not (_is_int(value) and 0 <= value < size):
            raise ValidationError(f"free variable {name!r} = {value!r} is outside the universe")


@lru_cache(maxsize=32)
def compile_evaluator(f):
    """Compile f once, for every structure, to (evaluate, homogeneous,
    depth): evaluate(A, fo, so, so_domain) is the truth of f on A with
    its free variables valued by fo and so, so_domain(name, arities)
    yielding what a relation quantifier ranges over (arities: those of
    the relation quantifiers around it, then its own); homogeneous is
    (prefix, matrix) when they form one homogeneous prefix over a
    first-order matrix, else None; depth is the deepest nesting of
    individual quantifiers.  The facts come from formulas.scope(f); every entry
    runs check_formula on f before it compiles, so f has no arity fault.

    The closures are miniscoped: under EX x, each conjunct of the
    body's & spine that does not mention x, has no relation quantifier
    and comes before every conjunct that has one is decided once, in
    front of the loop over x; under ALL x the parts of the body's |
    spine move out alike.  Both steps are sound because every universe
    is nonempty.  A relation quantifier is reached under the same
    conditions as in f as written, and the budget is charged from
    scope(f) of f as written, so every budget stop is unchanged.

    A relation quantifier whose atoms on its relation all have their
    arguments bound outside it (their slots are below its own, since
    slots are handed out in pre-order) reads the relation only at the m
    tuples ts those atoms name on entry.  Its loop keys each candidate
    by ts & rel, skips a key it has tried and stops once all 2^m keys
    are tried; with m = 0 it tries one candidate.  The body's truth
    depends only on the key, and a skipped candidate would run the body
    as the first one with its key did, so the answer is unchanged and
    so is the order in which the relation quantifiers inside are first
    entered.  so_domain is still asked once on entry, and the budget is
    charged at first entries, so every budget stop is unchanged too,
    under full semantics and over a Henkin universe alike.

    Each call runs the closures on a frame of its own, a list whose
    slots _closures fixed while compiling: 0 holds range(A.size), 1
    so_domain, then come the free individual variables in scope(f)
    order, the free relation symbols in scope(f) order (each from so,
    else from A), and last one slot per binder.  A binder owns its
    slot, so a loop writes it and restores nothing, and evaluation is
    reentrant and thread-safe.  evaluate trusts its arguments, as the
    SAT grounder does: fo values every free individual variable and A or
    so interprets every free relation symbol at its arity, which the
    public entries check first.
    """
    found = fm.scope(f)
    prefix, matrix = fm.so_prefix(f)
    kinds = {existential for existential, _, _ in prefix}
    one_block = len(kinds) == 1 and len(found.so_arities) == len(prefix)
    homogeneous = (prefix, matrix) if one_block else None
    symbols, free_fo = found.symbols, found.free_fo
    root, binders = _closures(f)
    blank = (None,) * binders

    def evaluate(A, fo, so, so_domain):
        rels = A.rels
        return root([range(A.size), so_domain, *[fo[name] for name in free_fo],
                     *[so[name] if name in so else rels[name] for name in symbols], *blank])

    return evaluate, homogeneous, found.depth


def _closures(f):
    """(root, binders) for f: root(frame) is its truth on a frame laid
    out as compile_evaluator states, and binders the number of binder
    slots after the free names.  Miniscoped as compile_evaluator states,
    connectives keep their left-to-right short-circuit order otherwise.

    Every name resolves to its slot here, through fo (individual
    variables) and so (relation symbols), the maps of the binders in
    scope over those of the free names.  The build returns a part
    (closure, free, has_so) for each subformula: free is a mask of the
    slots of its free individual variables, one bit per slot, and has_so
    tells whether it has a relation quantifier."""
    found = fm.scope(f)
    first = 2 + len(found.free_fo) + len(found.symbols)
    slots = itertools.count(first)
    reads = {}  # relation slot -> argument slots of each atom on it

    def join(parts, conjunction):
        """One part for the & (or |) of parts, in their order."""
        if len(parts) == 1:
            return parts[0]
        fns = []
        free = 0
        has_so = False
        for fn, part_free, part_so in parts:
            fns.append(fn)
            free |= part_free
            has_so = has_so or part_so
        if conjunction:

            def ev(frame):
                for p in fns:
                    if not p(frame):
                        return False
                return True
        else:

            def ev(frame):
                for p in fns:
                    if p(frame):
                        return True
                return False
        return ev, free, has_so

    def spine(g, conjunction, fo, so, outer):
        """Parts whose & (conjunction) or | is g: its connective spine
        flattened into one list, left to right, with each matching
        quantifier split."""
        node, quantifier = (fm.And, fm.ExistsFO) if conjunction else (fm.Or, fm.ForallFO)
        parts = []
        stack = [g]
        while stack:
            p = stack.pop()
            kind = type(p)
            if kind is node:
                stack.append(p.right)
                stack.append(p.left)
            elif kind is quantifier:
                parts += miniscoped(p, conjunction, fo, so, outer)
            else:
                parts.append(build(p, fo, so, outer))
        return parts

    def miniscoped(g, conjunction, fo, so, outer):
        """Parts whose & (EX) or | (ALL) is the quantifier g: those of its
        body that may go in front of the loop, then the loop."""
        slot = next(slots)
        bit = 1 << slot
        parts = spine(g.body, conjunction, {**fo, g.var: slot}, so, outer)
        pulled, rest = [], []
        for i, part in enumerate(parts):
            if part[2]:
                # Nothing moves ahead of a part with a relation quantifier.
                rest += parts[i:]
                break
            (rest if part[1] & bit else pulled).append(part)
        if not rest:
            return pulled
        body, free, has_so = join(rest, conjunction)
        if conjunction:

            def ev(frame):
                for e in frame[0]:
                    frame[slot] = e
                    if body(frame):
                        return True
                return False
        else:

            def ev(frame):
                for e in frame[0]:
                    frame[slot] = e
                    if not body(frame):
                        return False
                return True
        pulled.append((ev, free & ~bit, has_so))
        return pulled

    def build(g, fo, so, outer):
        kind = type(g)
        if kind is fm.Atom:
            r = so[g.rel]
            args = [fo[a] for a in g.args]
            reads.setdefault(r, []).append(args)
            free = 0
            for a in args:
                free |= 1 << a
            if len(args) == 1:
                a0, = args
                return lambda frame: (frame[a0],) in frame[r], free, False
            if len(args) == 2:
                a0, a1 = args
                return lambda frame: (frame[a0], frame[a1]) in frame[r], free, False
            return lambda frame: tuple([frame[a] for a in args]) in frame[r], free, False
        if kind is fm.Eq:
            left, right = fo[g.left], fo[g.right]
            return lambda frame: frame[left] == frame[right], 1 << left | 1 << right, False
        if kind is fm.Not:
            sub, free, has_so = build(g.sub, fo, so, outer)
            return lambda frame: not sub(frame), free, has_so
        if kind is fm.And or kind is fm.Or:
            conjunction = kind is fm.And
            return join(spine(g, conjunction, fo, so, outer), conjunction)
        if kind is fm.ExistsFO or kind is fm.ForallFO:
            conjunction = kind is fm.ExistsFO
            return join(miniscoped(g, conjunction, fo, so, outer), conjunction)
        if kind is fm.Implies or kind is fm.Iff:
            left, left_free, left_so = build(g.left, fo, so, outer)
            right, right_free, right_so = build(g.right, fo, so, outer)
            if kind is fm.Implies:
                fn = lambda frame: (not left(frame)) or right(frame)
            else:
                fn = lambda frame: left(frame) == right(frame)
            return fn, left_free | right_free, left_so or right_so
        if kind is fm.ExistsSO or kind is fm.ForallSO:
            name, arities, slot = g.relvar, outer + (g.arity,), next(slots)
            body, free, _ = build(g.body, fo, {**so, name: slot}, arities)
            atoms = reads.pop(slot, [])
            if all(a < slot for args in atoms for a in args):
                # The body is decided by ts & rel: one candidate per
                # restriction (see compile_evaluator).
                exists = kind is fm.ExistsSO

                def ev(frame):
                    ts = frozenset([tuple([frame[a] for a in args]) for args in atoms])
                    keys = 1 << len(ts)
                    seen = set()
                    for rel in frame[1](name, arities):
                        key = ts & rel
                        if key not in seen:
                            frame[slot] = rel
                            if body(frame) is exists:
                                return exists
                            seen.add(key)
                            if len(seen) == keys:
                                break
                    return not exists
            elif kind is fm.ExistsSO:

                def ev(frame):
                    for rel in frame[1](name, arities):
                        frame[slot] = rel
                        if body(frame):
                            return True
                    return False
            else:

                def ev(frame):
                    for rel in frame[1](name, arities):
                        frame[slot] = rel
                        if not body(frame):
                            return False
                    return True
            return ev, free, True
        raise TypeError(f"not a formula node: {g!r}")

    fo = {name: slot for slot, name in enumerate(found.free_fo, 2)}
    so = {name: slot for slot, name in enumerate(found.symbols, 2 + len(fo))}
    root = build(f, fo, so, ())[0]
    return root, next(slots) - first


# A budget error states the number of relation choices only while it
# has at most this many bits; larger ones are left as a power of two.
_EXACT_EXPONENT_LIMIT = 4096


def excess_relation_choices(n, arities, budget):
    """None when the 2^(n^k1 + n^k2 + ...) ways to choose one relation
    of each arity on n elements are within budget; otherwise (required,
    text) for the BudgetExceededError, required being that number (None
    past _EXACT_EXPONENT_LIMIT bits) and text its written form.  The
    exponent is compared with the bit length of the budget, so a huge
    universe never builds an integer of n^k bits."""
    exponent = sum(n ** k for k in arities)
    if budget >= 0 and exponent < budget.bit_length():
        return None
    text = "2^(" + " + ".join(f"{n}^{k}" for k in arities) + ")"
    if exponent > _EXACT_EXPONENT_LIMIT:
        return None, text
    required = 2 ** exponent
    return required, f"{text} = {required}"


def relation_domain(n, budget, depth, candidates=None, outer=()):
    """so_domain of an evaluation on n elements, under the one budget
    rule of every semantics; every evaluation entry calls it once.  It
    charges at once the n^depth assignments of depth nested individual
    quantifiers and the choices of the outer relation variables (their
    arities; the caller enumerates them), each capped on its own, and
    each relation quantifier's candidates(k) times those of the outer
    variables and the relation quantifiers around it, checked once per
    nesting when a quantifier is first entered.  candidates defaults to
    every k-ary relation in mask order (full semantics)."""
    if n ** depth > budget:
        raise BudgetExceededError(
            f"{depth} nested individual quantifiers need {n}^{depth} assignments,"
            f" exceeding the budget of {budget}", required=n ** depth, budget=budget)
    if candidates is None:
        candidates = partial(iter_relations, n)
        excess = partial(excess_relation_choices, n, budget=budget)
    else:

        def excess(arities):
            required = math.prod(len(candidates(k)) for k in arities)
            return None if required <= budget else (required, required)
    if outer and (over := excess(outer)):
        raise BudgetExceededError(
            f"the free relation variables need {over[1]} assignments,"
            f" exceeding the budget of {budget}", required=over[0], budget=budget)
    charged = set()

    def so_domain(name, arities):
        if arities not in charged:
            nesting = outer + arities
            if over := excess(nesting):
                nested = " with those of the quantifiers around it" if nesting[1:] else ""
                raise BudgetExceededError(
                    f"quantifier {name!r} needs {over[1]} candidate relations{nested},"
                    f" exceeding the budget of {budget}", required=over[0], budget=budget)
            charged.add(arities)
        return candidates(arities[-1])

    return so_domain


def eval_fo(A: FiniteStructure, f, asg: Assignment | None = None, *,
            budget: int = DEFAULT_RELATION_BUDGET) -> bool:
    """Tarski satisfaction: eval_so_full of a formula without relation
    quantifiers."""
    fm.check_height(f)
    if fm.scope(f).so_arities:
        raise ValidationError("eval_fo requires a formula without relation quantifiers")
    return eval_so_full(A, f, asg, budget=budget)


def eval_so_full(A: FiniteStructure, f, asg: Assignment | None = None, *,
                 budget: int = DEFAULT_RELATION_BUDGET) -> bool:
    """Truth under full semantics: relation quantifiers range over all
    relations of their arity on the universe.

    The inputs are checked first, on either route, so a faulty one is a
    ValidationError whatever the budget.  Every route then builds the
    relation domain, whose first charge is the n^depth assignments (see
    relation_domain).  The compiled closures decide a formula by
    enumeration, lexicographic in the relation mask and short-circuiting;
    a first-order one never asks the domain.  SAT decides a formula whose
    relation quantifiers form one homogeneous prefix over a first-order
    matrix instead, charged the n^k1 + n^k2 + ... tuple variables of the
    prefix: the compiled grounder of sat folds the structure's atoms to
    constants and emits a small CNF over one variable per candidate
    tuple, which a clause-learning solver decides.
    """
    fo = asg.fo if asg else {}
    so = asg.so if asg else {}
    found = check_formula(f, A.sig._arity, so, closed=False)
    check_assignment(found, A.size, fo, so)
    evaluate, homogeneous, depth = compile_evaluator(f)
    so_domain = relation_domain(A.size, budget, depth)
    if homogeneous is None:
        return evaluate(A, fo, so, so_domain)
    variables = sum(A.size ** k for _, _, k in homogeneous[0])
    if variables > budget:
        raise BudgetExceededError(
            f"grounding the prefix needs {variables} tuple variables,"
            f" exceeding the budget of {budget}", required=variables, budget=budget)
    return sat.eval_homogeneous(A, *homogeneous, fo, so)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def _element_profile(A):
    """Per-element invariant: occurrence counts per relation and position."""
    profiles = [[] for _ in range(A.size)]
    for name, arity in A.sig.relations:
        counts = [[0] * arity for _ in range(A.size)]
        for t in A.rels[name]:
            for pos, x in enumerate(t):
                counts[x][pos] += 1
        for e in range(A.size):
            profiles[e].extend(counts[e])
    return [tuple(p) for p in profiles]


def find_isomorphism(A: FiniteStructure, B: FiniteStructure):
    """The lexicographically least isomorphism A -> B as an image tuple,
    or None when the structures are not isomorphic.  The search weighs
    each element of A against each of B, so the n^2 pairs are charged
    against ISOMORPHISM_PAIR_LIMIT, a fixed limit apart from the relation
    budget, before any per-element work."""
    if A.sig != B.sig:
        raise ValidationError("signature mismatch")
    if A.size != B.size:
        return None
    if A.size ** 2 > ISOMORPHISM_PAIR_LIMIT:
        raise BudgetExceededError(
            f"an isomorphism search on {A.size} elements weighs {A.size}^2 pairs,"
            f" exceeding the budget of {ISOMORPHISM_PAIR_LIMIT}",
            required=A.size ** 2, budget=ISOMORPHISM_PAIR_LIMIT)
    pa = _element_profile(A)
    pb = _element_profile(B)
    if sorted(pa) != sorted(pb):
        return None
    n = A.size
    image = [-1] * n
    used = [False] * n
    # Each tuple of A filed under its largest element, so it is checked
    # once, when the last of its elements is mapped.  Equal profiles give
    # |R^A| = |R^B|, so a bijection mapping A's tuples into B's is onto.
    last = [[] for _ in range(n)]
    for name in A.sig.names:
        rb = B.rels[name]
        for t in A.rels[name]:
            last[max(t)].append((t, rb))

    def consistent(v):
        return all(tuple(image[x] for x in t) in rb for t, rb in last[v])

    def search(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or pa[v] != pb[w]:
                continue
            image[v] = w
            used[w] = True
            if consistent(v) and search(v + 1):
                return True
            used[w] = False
        return False

    return tuple(image) if search(0) else None


def is_isomorphism(A, B, image) -> bool:
    if A.sig != B.sig or A.size != B.size or sorted(image) != list(range(A.size)):
        return False
    for name in A.sig.names:
        mapped = frozenset(tuple(image[x] for x in t) for t in A.rels[name])
        if mapped != B.rels[name]:
            return False
    return True


def _charge_relabellings(n, budget):
    """Charge the n! permutations of n elements against budget; the
    product 2·3·…·n stops once past it, so a huge n is refused at once."""
    count = 1
    for m in range(2, n + 1):
        count *= m
        if count > budget:
            raise BudgetExceededError(f"relabelling {n} elements needs {n}! permutations,"
                                      f" exceeding the budget of {budget}", budget=budget)


def _heap_steps(n):
    """Heap's order of the n! permutations of n positions (Heap, Computer
    J. 1963) as the n! - 1 swaps between consecutive ones, each written
    as the index b(b-1)/2 + a of its pair a < b.  The swaps depend on
    positions only: those for n are the ones for n - 1, then n - 1 times
    a swap of position n - 1 with a (n even) or with 0 (n odd) followed
    by the ones for n - 1 again.  Uncached: a caller keeps the bytes for
    as long as its walk lasts."""
    if n < 2:
        return b""
    inner = _heap_steps(n - 1)
    last = (n - 1) * (n - 2) // 2
    return inner + b"".join(bytes([last + (a if n % 2 == 0 else 0)]) + inner
                            for a in range(n - 1))


@lru_cache(maxsize=None)
def _transposed_index(n, k):
    """For each pair a < b, numbered as in _heap_steps, the tuple_index of
    every k-tuple over n elements once the values a and b are exchanged."""
    index = tuple_index(n, k)
    tables = []
    for b in range(1, n):
        for a in range(b):
            swap = {a: b, b: a}
            tables.append([index[tuple([swap.get(x, x) for x in t])] for t in tuple_space(n, k)])
    return tables


def _relabellings(n, arities, masks, steps):
    """masks, the relation masks of a structure on n elements, under
    every permutation of its universe, the identity first.  Heap's order
    moves from one permutation p to the next by p∘(a b); their inverses,
    which run through every permutation once as well, move by (a b)∘p^-1,
    so each step exchanges the values a and b in the current relabelling
    and maps each set tuple index through one _transposed_index table.  A
    structure whose relations are each empty or full is fixed by every
    permutation and yields masks alone.  The caller charges the n!
    permutations first (_charge_relabellings) and passes _heap_steps(n)."""
    yield masks
    if all(mask == 0 or mask == (1 << n ** k) - 1 for k, mask in zip(arities, masks)):
        return
    rels = [[_transposed_index(n, k), [i for i in range(n ** k) if mask >> i & 1]]
            for k, mask in zip(arities, masks)]
    for step in steps:
        relabelled = []
        for rel in rels:
            rel[1] = indices = list(map(rel[0][step].__getitem__, rel[1]))
            relabelled.append(sum(map((1).__lshift__, indices)))
        yield tuple(relabelled)


def canonical_key(A: FiniteStructure):
    """(size, least masks of A's relabellings), equal iff isomorphic:
    the masks of the member of A's class that models_up_to keeps, the
    first met in mask order.  Charges n! to DEFAULT_RELATION_BUDGET and
    builds the n! - 1 Heap steps for this call alone."""
    n = A.size
    _charge_relabellings(n, DEFAULT_RELATION_BUDGET)
    arities = [k for _, k in A.sig.relations]
    masks = tuple(relation_mask(n, k, A.rels[name]) for name, k in A.sig.relations)
    return (n, min(_relabellings(n, arities, masks, _heap_steps(n))))


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def _mask_tuples(sig: Signature, n: int, budget: int):
    """The per-relation masks of every labelled structure of universe
    size n, lexicographic; the number of them is charged first."""
    excess = excess_relation_choices(n, [arity for _, arity in sig.relations], budget)
    if excess is not None:
        raise BudgetExceededError(
            f"enumerating size-{n} structures needs {excess[1]} candidates,"
            f" exceeding the budget of {budget}", required=excess[0], budget=budget)
    return itertools.product(*[range(relation_count(n, k)) for _, k in sig.relations])


def _from_masks(sig: Signature, n: int, masks) -> FiniteStructure:
    return FiniteStructure(sig, n, {name: relation_from_mask(n, k, mask)
                                    for (name, k), mask in zip(sig.relations, masks)})


def iter_structures(sig: Signature, n: int, *, budget: int = DEFAULT_RELATION_BUDGET):
    """All labeled structures of universe size n, lexicographic in the
    per-relation masks."""
    for masks in _mask_tuples(sig, n, budget):
        yield _from_masks(sig, n, masks)


def models_up_to(f, sig: Signature, nmax: int, *,
                 budget: int = DEFAULT_RELATION_BUDGET) -> list[FiniteStructure]:
    """All models of the closed formula f with universe size <= nmax, by
    size, then in mask order.  Each isomorphism class gives its least
    labelling, the member iter_structures meets first: a mask tuple is
    kept when no relabelling makes it smaller (Read's orderly test), and
    only a kept one becomes a structure.  The candidates, then the n!
    relabellings, of each size are charged against budget, and each
    size builds its Heap steps once for all its candidates.  An nmax
    that is not an integer is a ValidationError."""
    if not _is_int(nmax):
        raise ValidationError(f"the largest size must be an integer, not {nmax!r}")
    check_formula(f, sig._arity)
    arities = [k for _, k in sig.relations]
    out = []
    for n in range(1, nmax + 1):
        candidates = _mask_tuples(sig, n, budget)
        _charge_relabellings(n, budget)
        steps = _heap_steps(n)
        for masks in candidates:
            relabellings = _relabellings(n, arities, masks, steps)
            next(relabellings)
            if all(masks <= other for other in relabellings):
                A = _from_masks(sig, n, masks)
                if eval_so_full(A, f, budget=budget):
                    out.append(A)
    return out
