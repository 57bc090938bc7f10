"""Witness search for homogeneous relation-quantifier prefixes.

A closed sentence EX2 X1 .. EX2 Xm M with first-order matrix M holds on
a finite structure iff the propositional formula obtained by grounding
M over the universe (one Boolean per candidate tuple of each Xi) is
satisfiable.  Universal prefixes are decided through the dual: ALL2
X1 .. ALL2 Xm M holds iff the grounding of ~M is unsatisfiable.

The grounder is compiled once per (matrix, prefix, universe size,
polarity) into closures, in one pass over the matrix that pushes
negation inward as it goes, and kept in a bounded cache.  Each call
folds structure atoms and equalities to constants and emits CNF: every
top-level conjunct, ALL expansions included, becomes its own clause,
and a disjunction inside a conjunction is inlined as a clause.  Only a
conjunction inside a disjunction gets an auxiliary variable g, defined
in one direction only (g -> conjunct, after Plaisted and Greenbaum) and
shared per (subformula, values of its free variables).

The root's conjuncts that read no structure relation and no free
individual variable ground to the same clauses on every call: they form
the template, grounded when the grounder is compiled, with its gates
numbered from the first variable after the tuple variables.  Each call
grounds only the other conjuncts, numbering their gates after the
template's.  Structure atoms stay folded, so a call emits clauses only
for the tuples that matter.

A grounder with no per-call conjunct reads no structure relation and no
free individual value, so every permutation of the universe maps the
models of its grounding onto themselves.  Its template then also gets
lex-leader constraints (Crawford, Ginsberg, Luks and Roy, KR 1996) for
the adjacent transpositions (e e+1).  For each generator sigma the
constraint x <=lex sigma(x), false < true, runs over the tuple
variables that occur in the template, in index order, and compares only
the pairs (v, w = sigma(v)) with v < w, since a mirrored pair repeats
its comparison.  It is encoded in linear size with chain variables
(after Aloul, Markov and Sakallah): the first pair gives (~x_v | x_w),
the k-th gives (~e_k-1 | ~x_v | x_w), and e_k is defined in one
direction only, by (~e_k-1 | ~x_v | ~x_w | e_k) and
(~e_k-1 | x_v | x_w | e_k), so that the equality of pairs 1..k implies
it.  Chain variables are numbered after the gates.  A generator that
does not map the occurring variables onto themselves is skipped; since
the grounding is equivariant, none is.  The work is linear: the
occurring variables are bucketed by the elements their tuples hold, and
since an element lies in at most two generators, at most k * |O| pairs
come out over all generators (k the largest arity, O the occurring
variables), each adding at most three clauses.  The tuple space itself
is never walked.  A grounder with per-call conjuncts breaks no
symmetry: per-call lex-leader constraints over a structure's
interchangeable elements cost more time than they saved, mostly by
filling the solver past its rebuild bound.

A conflict-driven clause-learning solver (first-UIP learning,
non-chronological backjumping, two watched literals) branches over the
tuple variables only, in a fixed order, and counts its work.  Each
grounder keeps one solver, loaded once with the template (MiniSat's
incremental interface, Een and Sorensson, SAT 2003).  A call's unit
clauses become assumptions, and its longer clauses are added with a
fresh selector literal s, as (c | ~s).  The assumptions and s are
decided at level 1, and a conflict there answers "unsatisfiable" for
that call only.  Every learnt clause is implied by the template, or it
carries ~s, since s is a decision no resolution step removes; after the
call ~s is fixed at level 0, which satisfies for good the call's
clauses and what was learnt from them.  So level-0 facts and learnt
clauses carry over to later calls, and a conflict at level 0 refutes
the template for every structure.  The solver is dropped, to be rebuilt
from the template, once the literals it holds beyond the template's
outnumber the template's own; that bounds its memory by twice the
template.  A call that would take it past that bound is its last: the
call's clauses go in without a selector, and a conflict at level 0 then
refutes only that call.  A call with no clause at all, template
included, is satisfiable and builds no solver.  One lock per grounder
serialises its calls into the solver.

The grounder trusts its symbols, their arities and the values of the
free individual variables, which structures.eval_so_full has checked.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from functools import lru_cache

from . import formulas as fm
from .errors import SoLabError


def eval_homogeneous(A, prefix, matrix, fo_env, so_env) -> bool:
    """Truth on A of the homogeneous relation-quantifier prefix, a tuple
    of (existential, name, arity), over the first-order matrix."""
    existential = prefix[0][0]
    grounder = _grounder(matrix, prefix, A.size, not existential)
    satisfiable = grounder.satisfiable(A, fo_env, so_env)
    return satisfiable if existential else not satisfiable


@lru_cache(maxsize=32)
def _grounder(matrix, prefix, n, negate):
    return _Grounder(matrix, prefix, n, negate)


# ---------------------------------------------------------------------------
# Compiling the matrix to a grounder
# ---------------------------------------------------------------------------

class _Run:
    """Per-call state of a grounding: the clause sink, the number of
    variables so far and the auxiliary variables already defined."""

    __slots__ = ("clauses", "nvars", "gates")

    def __init__(self, nbase):
        self.clauses = []
        self.nvars = nbase
        self.gates = {}


class _Grounder:
    """The grounding of one matrix under one prefix, universe size and
    polarity, as closures over a per-call frame: slot 0 holds the _Run,
    the others the values of the individual variables and the relations
    of structure atoms.  Each compile step takes a subformula and neg
    (a negation is pending over it) and returns a part (closure, free
    slots, symbolic: whether a tuple variable occurs below)."""

    def __init__(self, matrix, prefix, n, negate):
        self.n = n
        self.tvars = {}
        blocks = []
        base = 0
        for _, name, arity in prefix:
            self.tvars[name] = base + 1
            blocks.append((base + 1, arity))
            base += n ** arity
        self.nbase = base
        # (first variable, arity) per relation variable, last first.
        self.blocks = blocks[::-1]
        # Per-call inputs from slot 1 on, first occurrence first: the free
        # individual variables, then the relations of structure atoms.
        found = fm.scope(matrix)
        self.free = {name: slot for slot, name in enumerate(found.free_fo, 1)}
        rels = [name for name in found.symbols if name not in self.tvars]
        self.rels = {name: slot for slot, name in enumerate(rels, 1 + len(self.free))}
        self.nslots = 1 + len(self.free) + len(self.rels)
        self._gate_ids = 0
        # The root's conjuncts that read no structure relation and no
        # free individual variable form the template; the others are
        # grounded per call.
        fixed, varying = [], []
        for g, neg in self._spine(matrix, negate, True):
            found = fm.scope(g)
            independent = not found.free_fo and found.symbols.keys() <= self.tvars.keys()
            (fixed if independent else varying).append(self._part(g, neg, True, {}))
        self.root = self._conjunction(varying)
        run = _Run(self.nbase)
        frame = [None] * self.nslots
        frame[0] = run
        fold = self._conjunction(fixed)
        # The template's clauses, or None when it is unsatisfiable: it
        # folds to false, or a call refuted it.
        self.template = None
        self.generators = 0
        if fold is None or fold(frame, run.clauses):
            # Without per-call conjuncts every permutation of the universe
            # is a symmetry of the grounding: the template breaks it.
            if not varying:
                self.generators = self.break_symmetry(run)
            # Tuples over ints made once keep the template small.
            same = {}
            self.template = [tuple([same.setdefault(lit, lit) for lit in c]) for c in run.clauses]
        # The template's variables; a call numbers its own after them.
        self.base = run.nvars
        self.solver = None
        self.counters = None
        self._lock = threading.Lock()

    @staticmethod
    def _conjunction(parts):
        """The closure of the conjunction of parts, or None for none."""
        if not parts:
            return None
        return (parts[0] if len(parts) == 1 else _Grounder._sequence(parts, True))[0]

    @staticmethod
    def _spine(g, neg, conjunctive):
        """(subformula, neg) parts, left to right, whose & (conjunctive)
        or | is g under neg, through ~ and ->.  A <-> in a & spine adds
        (~l | r) and (l | ~r), or (l | r) and (~l | ~r) when negated."""
        parts = []
        stack = [(g, neg)]
        while stack:
            g, neg = stack.pop()
            kind = type(g)
            if kind is fm.Not:
                stack.append((g.sub, not neg))
            elif kind is fm.Iff and conjunctive:
                left = g.left if neg else fm.Not(g.left)
                parts.append((fm.Or(left, g.right), False))
                parts.append((fm.Or(fm.Not(left), fm.Not(g.right)), False))
            elif (kind is fm.And or kind is fm.Or) and ((kind is fm.And) != neg) == conjunctive:
                stack += ((g.right, neg), (g.left, neg))
            elif kind is fm.Implies and neg == conjunctive:
                stack += ((g.right, neg), (g.left, not neg))
            else:
                parts.append((g, neg))
        return parts

    @staticmethod
    def _sequence(parts, conjunctive):
        # Constant parts first, so a folded conjunct or disjunct cuts the
        # expansion short before any literal is built.
        parts.sort(key=lambda part: part[2])
        fns, frees, symbolic = zip(*parts)
        if conjunctive:

            def fn(frame, out):
                for part in fns:
                    if not part(frame, out):
                        return False
                return True
        else:

            def fn(frame, lits):
                for part in fns:
                    if part(frame, lits):
                        return True
                return False
        return fn, frozenset().union(*frees), any(symbolic)

    def _compile(self, g, neg, conjunctive, scope):
        """The part for g under neg.  Conjunctive: fn(frame, clauses) ->
        False when g folds to false, else True after appending the clauses
        g is the conjunction of.  Else fn(frame, lits) -> True when g folds
        to true, else False after appending the literals of g's clause."""
        if type(g) is fm.Atom or type(g) is fm.Eq:
            return self._part(g, neg, conjunctive, scope)
        parts = self._spine(g, neg, conjunctive)
        if len(parts) > 1:
            return self._sequence([self._part(*part, conjunctive, scope) for part in parts],
                                  conjunctive)
        return self._part(*parts[0], conjunctive, scope)

    def _part(self, g, neg, conjunctive, scope):
        """_compile for g that its spine does not split."""
        kind = type(g)
        quantifier = kind is fm.ExistsFO or kind is fm.ForallFO
        if quantifier and ((kind is fm.ForallFO) != neg) == conjunctive:
            return self._loop(g, neg, conjunctive, scope)
        if conjunctive:
            disj, free, symbolic = self._compile(g, neg, False, scope)

            def conj(frame, out):
                lits = []
                if disj(frame, lits):
                    return True
                if not lits:
                    return False
                out.append(lits)
                return True
            return conj, free, symbolic
        if kind is fm.Atom or kind is fm.Eq:
            args = g.args if kind is fm.Atom else (g.left, g.right)
            slots = tuple(scope[a] if a in scope else self.free[a] for a in args)
            positive = not neg
            symbolic = kind is fm.Atom and g.rel in self.tvars
            if kind is fm.Eq:
                a, b = slots

                def disj(frame, lits):
                    return (frame[a] == frame[b]) == positive
            elif symbolic:
                disj = self._tvar(self.tvars[g.rel], slots, positive)
            else:
                disj = self._rel(self.rels[g.rel], slots, positive)
            return disj, frozenset(slots), symbolic
        if not quantifier and kind not in (fm.And, fm.Or, fm.Implies, fm.Iff):
            raise SoLabError(f"matrix is not first-order: {g!r}")
        return self._gate(g, neg, scope)

    def _loop(self, g, neg, conjunctive, scope):
        """ALL (conjunctive) or EX x over the universe, x in a new slot."""
        slot = self.nslots
        self.nslots += 1
        body, free, symbolic = self._compile(g.body, neg, conjunctive, {**scope, g.var: slot})
        universe = range(self.n)
        if conjunctive:

            def fn(frame, out):
                for e in universe:
                    frame[slot] = e
                    if not body(frame, out):
                        return False
                return True
        else:

            def fn(frame, lits):
                for e in universe:
                    frame[slot] = e
                    if body(frame, lits):
                        return True
                return False
        return fn, free - {slot}, symbolic

    def _tvar(self, first, slots, positive):
        sign = 1 if positive else -1
        n = self.n
        if len(slots) == 2:
            a, b = slots

            def disj(frame, lits):
                lits.append(sign * (first + frame[a] * n + frame[b]))
                return False
        else:

            def disj(frame, lits):
                index = 0
                for s in slots:
                    index = index * n + frame[s]
                lits.append(sign * (first + index))
                return False
        return disj

    @staticmethod
    def _rel(r, slots, positive):
        if len(slots) == 2:
            a, b = slots

            def disj(frame, lits):
                return ((frame[a], frame[b]) in frame[r]) == positive
        else:

            def disj(frame, lits):
                return (tuple(frame[s] for s in slots) in frame[r]) == positive
        return disj

    def _gate(self, g, neg, scope):
        """A conjunction inside a disjunction: its literals are those of
        its only clause, or one auxiliary variable g with the clauses
        (~g | c) for each of its clauses c."""
        conj, free, symbolic = self._compile(g, neg, True, scope)
        self._gate_ids += 1
        gid = self._gate_ids
        key_slots = tuple(sorted(free))

        def disj(frame, lits):
            run = frame[0]
            key = (gid, *[frame[s] for s in key_slots])
            got = run.gates.get(key)
            if got is None:
                clauses = []
                if not conj(frame, clauses):
                    got = False
                elif not clauses:
                    got = True
                elif len(clauses) == 1:
                    got = clauses[0]
                else:
                    run.nvars += 1
                    g = run.nvars
                    for clause in clauses:
                        clause.append(-g)
                    run.clauses.extend(clauses)
                    got = (g,)
                run.gates[key] = got
            if got is True:
                return True
            if got is not False:
                lits.extend(got)
            return False
        return disj, free, symbolic

    def ground(self, A, fo_env, so_env):
        """The _Run holding the clauses of the per-call conjuncts on A,
        their variables numbered after the template's, or None when they
        fold to false."""
        run = _Run(self.base)
        if self.root is None:
            return run
        frame = [None] * self.nslots
        for name, slot in self.free.items():
            frame[slot] = fo_env[name]
        for name, slot in self.rels.items():
            frame[slot] = so_env[name] if name in so_env else A.rels[name]
        frame[0] = run
        return run if self.root(frame, run.clauses) else None

    def break_symmetry(self, run):
        """Append to run, the template's, the lex-leader constraint
        x <=lex sigma(x) for each adjacent transposition sigma = (e e+1)
        of the universe, over the tuple variables that occur in run, and
        return how many constraints were appended."""
        n = self.n
        nbase = self.nbase
        present = {v for c in run.clauses for lit in c if (v := abs(lit)) <= nbase}
        # The occurring tuple variables, decoded, and bucketed by the
        # elements their tuples hold.
        buckets = [[] for _ in range(n)]
        tuples = {}
        for v in sorted(present):
            for first, arity in self.blocks:
                if v >= first:
                    break
            index = v - first
            t = [0] * arity
            for i in range(arity - 1, -1, -1):
                index, t[i] = divmod(index, n)
            tuples[v] = first, t
            for e in set(t):
                buckets[e].append(v)
        clauses = run.clauses
        emitted = 0
        for a in range(n - 1):
            b = a + 1
            # The pairs (v, sigma(v)) with v < sigma(v), in index order;
            # the mirrored pairs repeat their comparison.
            pairs = []
            for v in sorted(set(buckets[a]).union(buckets[b])):
                first, t = tuples[v]
                index = 0
                for x in t:
                    index = index * n + (b if x == a else a if x == b else x)
                w = first + index
                if w not in present:
                    # sigma does not map the occurring variables onto
                    # themselves, so its constraint could cut off a
                    # model: skip it.
                    break
                if v < w:
                    pairs.append((v, w))
            else:
                emitted += 1
                # guard is empty for the first pair, then ~e for the
                # chain variable e implied by the equality of every
                # earlier pair.
                guard = []
                for k, (v, w) in enumerate(pairs, 1):
                    clauses.append([*guard, -v, w])
                    if k < len(pairs):
                        run.nvars += 1
                        eq = run.nvars
                        clauses.append([*guard, -v, -w, eq])
                        clauses.append([*guard, v, w, eq])
                        guard = [-eq]
        return emitted

    def satisfiable(self, A, fo_env, so_env) -> bool:
        """Whether the template, lex-leader constraints included, and the
        per-call clauses on A are satisfiable, decided by the grounder's
        one solver; counters then holds the call's work."""
        self.counters = Counters()
        template = self.template
        if template is None:
            return False
        run = self.ground(A, fo_env, so_env)
        if run is None:
            return False
        if not (template or run.clauses):
            # No clause at all, so no tuple variable occurs either.
            return True
        with self._lock:
            solver = self.solver
            if solver is None:
                solver = self.solver = _Solver(template, self.nbase)
            # A call that would leave the solver holding twice the
            # template's literals or more is its last.
            keep = solver.extra + sum(map(len, run.clauses)) < solver.size
            answer = solver.solve(run.clauses, keep)
            self.counters = solver.counters
            self.counters.generators = self.generators
            if not keep or solver.extra > solver.size:
                # Rebuilt from the template on the next call.
                self.solver = None
            elif solver.unsat:
                self.template = self.solver = None
        return answer


# ---------------------------------------------------------------------------
# Clause learning
# ---------------------------------------------------------------------------

class Counters:
    """The work of one call of a solver: the lex-leader constraints in
    the grounder's template (none when it grounds conjuncts per call),
    decisions, assignments made by propagation, conflicts, learnt clauses
    and input clauses dropped as tautologies (the template's among them on
    the first call after loading).  The counts depend only on the
    clauses, their order and the earlier calls to the same solver, so
    tests can bound them."""

    __slots__ = ("generators", "decisions", "propagations", "conflicts", "learnt", "dropped")

    def __init__(self):
        self.generators = self.decisions = self.propagations = self.conflicts = 0
        self.learnt = self.dropped = 0


def _clean(clause):
    """The clause without repeated literals, or None when it contains a
    literal and its negation."""
    lits = dict.fromkeys(clause)
    if any(-lit in lits for lit in lits):
        return None
    return list(lits)


class _Solver:
    """Satisfiability of a template CNF together with per-call clauses,
    by conflict-driven clause learning: first-UIP learnt clauses and
    non-chronological backjumping (GRASP), branching over the tuple
    variables 1..nbase only, in a static order, positive literal first:
    the template's, in index order, then those of the call's longer
    clauses that the template lacks, in index order.

    The solver numbers the variables that occur densely, in index order,
    so its arrays grow with the CNF and not with the n^k tuple space,
    and the template's tuple variables come first.  A per-call clause
    that brings a new variable extends the numbering.
    Loading drops every tautology and repeated literal.  A binary clause
    (a | b) becomes the two implications ~a -> b and ~b -> a in implied;
    a longer clause is watched by the literals at its positions 0 and 1
    (Chaff).  Literals are nonzero ints, -v the negation of v, and lists
    indexed by literal have 2 * cap + 1 entries, a negative literal
    indexing from the end; growing cap inserts entries in the middle.

    solve(clauses) may be called again and again (MiniSat's incremental
    interface, Een and Sorensson, SAT 2003).  The call's unit clauses are
    assumptions, decided together at level 1; a conflict at level 1
    answers False.  Its longer clauses get a fresh selector literal s:
    each is added as (c | ~s), minus the literals false at level 0, and s
    is assumed with the units.  When the call returns the solver
    backtracks to level 0 and fixes ~s there, which satisfies those
    clauses for good; level-0 facts and learnt clauses stay.  A conflict
    at level 0 makes the template unsatisfiable for good.  A call made
    with keep false is the solver's last: its longer clauses are added
    as they are, and unsat then speaks for that call only.

    Branching over the tuple variables only stays complete.  In negation
    normal form every auxiliary variable g occurs positively only where
    its conjunction is used, and negatively only in its own clauses
    (~g | c).  Each learnt clause is implied by the template, or it
    carries ~s of the call that learnt it, since s is a decision that no
    resolution step removes; that ~s holds at level 0 once s retires, so
    a retired clause never propagates again and a per-call auxiliary
    variable may be reused by a later call.  Two-watched-literal
    propagation reaches the same unit fixpoint as propagation that counts
    the false literals of every clause; a clause is added only at level 0
    with no literal false there, so its watches are sound.  Once every
    tuple variable that occurs in the template or in the call's clauses
    is fixed, each subformula is true or false; a false conjunction has a
    clause c whose literals are all false, by induction on depth, so
    propagation forces its g false.  A chain variable e_k of a lex-leader
    constraint occurs positively only in its own two defining clauses, as
    a gate does, and with every tuple variable fixed propagation forces
    e_k true wherever pairs 1..k are equal.  If no conflict remains,
    setting every undecided g to the truth of its conjunction and every
    undecided e_k to false satisfies every active clause, so the answer
    is "satisfiable".

    The lex-leader constraints keep the answer.  They occur only in a
    template that reads no structure relation and no free individual
    value.  A transposition sigma of the universe that maps the set O of
    occurring tuple variables onto itself then maps the models of the
    grounding, restricted to O, onto themselves, because the matrix's
    truth does not depend on the variables outside O.  So the lex-least
    model of each orbit, restricted to O, satisfies x <=lex sigma(x) for
    every generator, and setting each e_k to the equality of pairs 1..k
    extends it to a model of every constraint.

    size is the number of literals in the template; extra counts those
    held beyond it, in per-call and learnt clauses, retired or not, so a
    caller can drop the solver once they outgrow the template.  Each
    call replaces counters."""

    def __init__(self, clauses, nbase):
        self.nbase = nbase
        names = sorted({v for c in clauses for v in map(abs, c)})
        # Grounder literal -> dense literal, each int made once.
        dense = self.dense = {}
        for d, v in enumerate(names, 1):
            dense[v] = d
            dense[-v] = -d
        self.nvars = len(names)
        # Room for a call's selector and a few new variables.
        self.cap = self.nvars + 8
        size = 2 * self.cap + 1
        self.value = [0] * size
        self.level = [0] * size
        self.reason = [None] * size
        self.implied = [[] for _ in range(size)]
        self.watches = [[] for _ in range(size)]
        self.trail = []
        self.head = 0
        # Level-0 units not yet on the trail: the template's, each retired
        # selector's negation, and in a last call the clauses that level
        # 0 cut to one literal.
        self.units = []
        self.unsat = False
        self.dropped = 0
        self.size = sum(map(len, clauses))
        self.extra = 0
        self._attach([[dense[lit] for lit in c] for c in clauses])
        # The template's tuple variables are 1..ntuple; those only in
        # unit clauses are fixed at level 0 before the first decision.
        # Tuple variables folded away during grounding do not occur.
        self.ntuple = bisect_right(names, nbase)
        self.order = range(1, self.ntuple + 1)

    def _grow(self, cap):
        at = self.cap + 1
        pad = 2 * (cap - self.cap)
        self.value[at:at] = [0] * pad
        self.level[at:at] = [0] * pad
        self.reason[at:at] = [None] * pad
        self.implied[at:at] = [[] for _ in range(pad)]
        self.watches[at:at] = [[] for _ in range(pad)]
        self.cap = cap

    def _attach(self, clauses):
        """Link each clause of dense literals into implied or watches, and
        queue its unit clauses as level-0 units."""
        implied = self.implied
        watches = self.watches
        units = self.units
        longs = []
        # Binary and ternary clauses, nearly all of the input, are
        # checked inline; only the rest, and any clause that repeats a
        # literal, pay for _clean.
        for c in clauses:
            k = len(c)
            if k == 2:
                a, b = c
                if a != b and a != -b:
                    implied[-a].append(b)
                    implied[-b].append(a)
                    continue
            elif k == 3:
                a, b, d = c
                if (a != b and a != d and b != d
                        and a != -b and a != -d and b != -d):
                    longs.append(c)
                    continue
            elif k == 1:
                units.append(c[0])
                continue
            elif not k:
                self.unsat = True
                continue
            c = _clean(c)
            if c is None:
                self.dropped += 1
            elif len(c) == 1:
                units.append(c[0])
            elif len(c) == 2:
                a, b = c
                implied[-a].append(b)
                implied[-b].append(a)
            else:
                longs.append(c)
        for c in longs:
            watches[c[0]].append(c)
            watches[c[1]].append(c)

    def _add(self, clauses, keep):
        """Number and add the call's clauses, at level 0: (assumptions,
        selector, branching order), or None when a longer clause is false
        at level 0.  Without keep the longer clauses get no selector."""
        dense = self.dense
        # The variables new to the solver, numbered in index order, with
        # room for a selector.
        new = sorted({abs(lit) for c in clauses for lit in c if lit not in dense})
        need = self.nvars + len(new) + 1
        if need > self.cap:
            self._grow(max(need, self.cap + self.cap // 2))
        for v in new:
            self.nvars += 1
            dense[v] = self.nvars
            dense[-v] = -self.nvars
        value = self.value
        fixed = bool(self.trail)
        assume = []
        guarded = []
        longs = []
        selector = 0
        for c in clauses:
            lits = [dense[lit] for lit in c]
            if len(lits) == 1:
                assume.append(lits[0])
                continue
            longs.append(c)
            if fixed:
                # Drop the literals false at level 0, and the clause when
                # one is true there.
                kept = [d for d in lits if not value[d]]
                if len(kept) < len(lits):
                    if any(value[d] > 0 for d in lits):
                        continue
                    if not kept:
                        return None
                    lits = kept
            if keep:
                if not selector:
                    self.nvars += 1
                    selector = self.nvars
                lits.append(-selector)
            guarded.append(lits)
        if selector:
            assume.insert(0, selector)
        if guarded:
            self._attach(guarded)
            self.extra += sum(map(len, guarded))
        order = self.order
        if longs:
            # Then the tuple variables the template lacks, of the call's
            # longer clauses.
            nbase = self.nbase
            ntuple = self.ntuple
            extras = sorted({v for c in longs for v in map(abs, c)
                             if v <= nbase and dense[v] > ntuple})
            if extras:
                order = [*order, *[dense[v] for v in extras]]
        return assume, selector, order

    def solve(self, clauses=(), keep=True) -> bool:
        """Whether the template and the call's clauses, in the grounder's
        numbering, are satisfiable.  Without keep the call is the
        solver's last, and its clauses are added for good."""
        counts = self.counters = Counters()
        if self.unsat:
            return False
        value = self.value
        level = self.level
        reason = self.reason
        trail = self.trail
        # value[lit] is 1 when lit is true, -1 when false, 0 when
        # unassigned; level and reason are indexed by the true literal.
        # A reason is None for a decision, an assumption or a level-0
        # unit, the other (false) literal of a binary clause, or a longer
        # clause whose first literal is the one it forced.
        # Per decision level from 1 on: the trail length before the
        # decision and the decision's index in order.  Level 1 holds the
        # assumptions, when there are any.
        trail_lim = []
        branch_at = []
        decisions = propagations = conflicts = learnt = held = 0
        selector = 0
        head = self.head
        start = 0
        dl = 0
        try:
            added = self._add(clauses, keep)
            if added is None:
                conflicts += 1
                return False
            assume, selector, order = added
            for lit in self.units:
                if value[lit] < 0:
                    conflicts += 1
                    self.unsat = True
                    return False
                if not value[lit]:
                    value[lit] = 1
                    value[-lit] = -1
                    level[lit] = 0
                    reason[lit] = None
                    trail.append(lit)
                    propagations += 1
            self.units = []
            top = 1 if assume else 0
            # The arrays may have grown.
            implied = self.implied
            watches = self.watches
            while True:
                conflict = None
                while head < len(trail):
                    lit = trail[head]
                    head += 1
                    false = -lit
                    for b in implied[lit]:
                        vb = value[b]
                        if not vb:
                            value[b] = 1
                            value[-b] = -1
                            level[b] = dl
                            reason[b] = false
                            trail.append(b)
                            propagations += 1
                        elif vb < 0:
                            conflict = (b, false)
                            break
                    if conflict is not None:
                        break
                    watching = watches[false]
                    if not watching:
                        continue
                    # Each clause watching the now false literal moves to
                    # a literal that is not false, or stays (kept) and
                    # forces its other watch or is the conflict.
                    kept = []
                    watches[false] = kept
                    moved = 0
                    for c in watching:
                        if c[0] == false:
                            c[0] = c[1]
                            c[1] = false
                        first = c[0]
                        vf = value[first]
                        if vf > 0:
                            kept.append(c)
                            continue
                        for k in range(2, len(c)):
                            other = c[k]
                            if value[other] >= 0:
                                c[1] = other
                                c[k] = false
                                watches[other].append(c)
                                moved += 1
                                break
                        else:
                            kept.append(c)
                            if vf:
                                conflict = c
                                # The clauses not visited yet stay too.
                                kept.extend(watching[len(kept) + moved:])
                                break
                            value[first] = 1
                            value[-first] = -1
                            level[first] = dl
                            reason[first] = c
                            trail.append(first)
                            propagations += 1
                    if conflict is not None:
                        break

                if conflict is None:
                    if dl < top:
                        # (Re)enter level 1 with every assumption.
                        dl = 1
                        trail_lim.append(len(trail))
                        branch_at.append(start)
                        for lit in assume:
                            vl = value[lit]
                            if vl < 0:
                                conflicts += 1
                                return False
                            if not vl:
                                value[lit] = 1
                                value[-lit] = -1
                                level[lit] = 1
                                reason[lit] = None
                                trail.append(lit)
                        continue
                    while start < len(order) and value[order[start]]:
                        start += 1
                    if start == len(order):
                        return True
                    var = order[start]
                    decisions += 1
                    dl += 1
                    trail_lim.append(len(trail))
                    branch_at.append(start)
                    value[var] = 1
                    value[-var] = -1
                    level[var] = dl
                    reason[var] = None
                    trail.append(var)
                    continue

                conflicts += 1
                if dl <= top:
                    if not dl:
                        self.unsat = True
                    return False
                # First UIP: resolve the conflict clause with the reasons
                # of its literals of the current level, latest first,
                # until one such literal is left.  seen holds the true
                # literals met so far; rest collects the learnt clause's
                # literals of lower levels (level 0 ones are dropped).
                seen = set()
                rest = []
                pending = 0
                i = len(trail)
                lits = conflict
                while True:
                    for q in lits:
                        t = -q
                        if t not in seen:
                            lv = level[t]
                            if lv == dl:
                                seen.add(t)
                                pending += 1
                            elif lv:
                                seen.add(t)
                                rest.append(q)
                    i -= 1
                    while trail[i] not in seen:
                        i -= 1
                    t = trail[i]
                    pending -= 1
                    if not pending:
                        break
                    why = reason[t]
                    lits = (why,) if type(why) is int else why[1:]
                uip = -t
                learnt += 1
                # Backjump to the highest level among the other literals,
                # where the learnt clause forces uip; that literal is
                # watched next to uip.
                back = 0
                if rest:
                    held += len(rest) + 1
                    high = 0
                    for j, q in enumerate(rest):
                        lv = level[-q]
                        if lv > back:
                            back = lv
                            high = j
                    rest[0], rest[high] = rest[high], rest[0]
                mark = trail_lim[back]
                for lit in trail[mark:]:
                    value[lit] = value[-lit] = 0
                del trail[mark:]
                del trail_lim[back:]
                start = branch_at[back]
                del branch_at[back:]
                dl = back
                head = mark
                if not rest:
                    why = None
                elif len(rest) == 1:
                    why = rest[0]
                    implied[-uip].append(why)
                    implied[-why].append(uip)
                else:
                    why = [uip, *rest]
                    watches[uip].append(why)
                    watches[rest[0]].append(why)
                value[uip] = 1
                value[-uip] = -1
                level[uip] = dl
                reason[uip] = why
                trail.append(uip)
                propagations += 1
        finally:
            if not self.unsat:
                # Back to level 0, where the retired selector is fixed.
                if trail_lim:
                    mark = trail_lim[0]
                    for lit in trail[mark:]:
                        value[lit] = value[-lit] = 0
                    del trail[mark:]
                self.head = min(head, len(trail))
                if selector:
                    self.units.append(-selector)
            self.extra += held
            counts.dropped = self.dropped
            self.dropped = 0
            counts.decisions = decisions
            counts.propagations = propagations
            counts.conflicts = conflicts
            counts.learnt = learnt
