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

A top-level conjunct of the matrix that reads no structure relation and
no free individual variable grounds to the same clauses on every call,
so it is grounded once, the first time a call reaches it, and later
calls replay its clauses in the same place.  Only the root's conjuncts
qualify: the root's sink is the run's own clause list, so a conjunct's
clauses and the definitions of the gates nested under it land there
together, in order, and what it added is one slice.  A conjunction
compiled inside a gate sends its nested gate definitions to the run
while its own clauses go to the gate, so no slice holds them all.  The
gates of a replayed conjunct are read by no other part, since a gate's
key starts with its own id; when an earlier conjunct made a different
number of gates, the replayed auxiliary variables (those above the
tuple variables) are renumbered by the difference.  So the CNF is the
same, clause for clause, as a fresh grounding.

Symmetry breaking then adds lex-leader constraints (Crawford, Ginsberg,
Luks and Roy, KR 1996) for transpositions of interchangeable elements.
The reduct is A cut down to the matrix's structure symbols and its
assigned free relation variables, and every value of a free individual
variable stays fixed.  Element e's key is the set of (symbol, t with e
replaced by a marker) over the reduct's tuples t that hold e; two
elements have equal keys exactly when swapping them is an automorphism
of the reduct and no tuple holds both.  So elements in no tuple share
the empty key, and a matrix that names no structure symbol gets the
full symmetric group.  The generators are the adjacent transpositions
of each class, in element order.  For each generator sigma the
constraint x <=lex sigma(x), false < true, runs over the tuple
variables that occur in the CNF, in index order, and compares only the
pairs (v, w = sigma(v)) with v < w, since a mirrored pair repeats its
comparison.  It is encoded in linear size with chain variables (after
Aloul, Markov and Sakallah): the first pair gives (~x_v | x_w), the
k-th gives (~e_k-1 | ~x_v | x_w), and e_k is defined in one direction
only, by (~e_k-1 | ~x_v | ~x_w | e_k) and (~e_k-1 | x_v | x_w | e_k),
so that the equality of pairs 1..k implies it.  Chain variables are
numbered after the gates.  A generator that does not map the occurring
variables onto themselves is skipped; since the grounding is
equivariant, none is.  The work is linear: the key pass reads each
tuple of the reduct once, the occurring variables are bucketed by the
elements their tuples hold, and since an element lies in at most two
generators, at most k * |O| pairs come out over all generators (k the
largest arity, O the occurring variables), each adding at most three
clauses.  The tuple space itself is never walked.

A conflict-driven clause-learning solver (first-UIP learning,
non-chronological backjumping, two watched literals) branches over the
tuple variables only, in a fixed order, and counts its work.

The grounder trusts its symbols, their arities and the values of the
free individual variables, which structures.eval_so_full has checked.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain

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
        parts = [self._top(*part) for part in self._spine(matrix, negate, True)]
        self.root = (parts[0] if len(parts) == 1 else self._sequence(parts, True))[0]

    def _top(self, g, neg):
        """The part for a top-level conjunct of the matrix.  When it reads
        no structure relation and no free individual variable, its first
        call records whether it folded to false, run.nvars on entry, the
        gates it added and its clauses, and later calls replay them."""
        part = self._compile(g, neg, True, {})
        found = fm.scope(g)
        if found.free_fo or not found.symbols.keys() <= self.tvars.keys():
            return part
        conj, free, symbolic = part
        nbase = self.nbase
        stored = None

        def replay(frame, out):
            nonlocal stored
            run = frame[0]
            if stored is None:
                start = len(out)
                base = run.nvars
                holds = conj(frame, out)
                # Tuples over ints shared per conjunct keep the store small.
                same = {}
                clauses = tuple(tuple(same.setdefault(lit, lit) for lit in c)
                                for c in out[start:]) if holds else ()
                stored = holds, base, run.nvars - base, clauses
                return holds
            holds, base, added, clauses = stored
            if not holds:
                return False
            shift = run.nvars - base
            if shift:
                out.extend([[lit + shift if lit > nbase else lit - shift if lit < -nbase else lit
                             for lit in c] for c in clauses])
            else:
                out.extend(map(list, clauses))
            run.nvars += added
            return True
        return replay, free, symbolic

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
        parts = self._spine(g, neg, conjunctive)
        if len(parts) > 1:
            return self._sequence([self._compile(*part, conjunctive, scope) for part in parts],
                                  conjunctive)
        g, neg = parts[0]
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
        """The _Run holding the clauses of the grounding on A, or None
        when the matrix folds to false."""
        frame = [None] * self.nslots
        for name, slot in self.free.items():
            frame[slot] = fo_env[name]
        for name, slot in self.rels.items():
            frame[slot] = so_env[name] if name in so_env else A.rels[name]
        run = _Run(self.nbase)
        frame[0] = run
        return run if self.root(frame, run.clauses) else None

    def break_symmetry(self, run, A, fo_env, so_env):
        """Append to run the lex-leader constraint x <=lex sigma(x) for
        each adjacent transposition sigma of a class of interchangeable
        elements, and return how many constraints were appended."""
        n = self.n
        if n == 1:
            return 0
        # Element e's key: (symbol, tuple with e replaced by -1) for each
        # tuple of the reduct that holds e.
        keys = [[] for _ in range(n)]
        for name in self.rels:
            for t in so_env[name] if name in so_env else A.rels[name]:
                for e in set(t):
                    masked = list(t)
                    for i, x in enumerate(t):
                        if x == e:
                            masked[i] = -1
                    keys[e].append((name, *masked))
        fixed = {fo_env[name] for name in self.free}
        classes = {}
        for e in range(n):
            if e not in fixed:
                classes.setdefault(frozenset(keys[e]), []).append(e)
        generators = [(c[i - 1], c[i]) for c in classes.values() for i in range(1, len(c))]
        if not generators:
            return 0
        # The occurring tuple variables, decoded, and bucketed by the
        # moved elements their tuples hold.
        nbase = self.nbase
        present = {v if v > 0 else -v for v in set(chain.from_iterable(run.clauses))}
        moved = {e for pair in generators for e in pair}
        buckets = {e: [] for e in moved}
        tuples = {}
        for v in sorted(present):
            if v > nbase:
                break
            for first, arity in self.blocks:
                if v >= first:
                    break
            index = v - first
            t = [0] * arity
            for i in range(arity - 1, -1, -1):
                index, t[i] = divmod(index, n)
            tuples[v] = first, t
            for e in moved.intersection(t):
                buckets[e].append(v)
        clauses = run.clauses
        emitted = 0
        for a, b in generators:
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

    def solver(self, A, fo_env, so_env):
        """The _Solver of the grounding on A with its lex-leader
        constraints, or None when the matrix folds to false."""
        run = self.ground(A, fo_env, so_env)
        if run is None:
            return None
        generators = self.break_symmetry(run, A, fo_env, so_env)
        solver = _Solver(run.clauses, run.nvars, self.nbase)
        solver.counters.generators = generators
        return solver

    def satisfiable(self, A, fo_env, so_env) -> bool:
        solver = self.solver(A, fo_env, so_env)
        return solver is not None and solver.solve()


# ---------------------------------------------------------------------------
# Clause learning
# ---------------------------------------------------------------------------

class Counters:
    """The work of one solver: lex-leader generators emitted, decisions,
    assignments made by propagation, conflicts, learnt clauses and input
    clauses dropped as tautologies.  The counts depend only on the
    clauses and their order, so tests can bound them."""

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
    """Satisfiability of clauses over variables 1..nvars by conflict-driven
    clause learning: first-UIP learnt clauses and non-chronological
    backjumping (GRASP), branching over the tuple variables 1..nbase only,
    in index order, positive literal first.

    Loading drops every tautology and repeated literal.  A binary clause
    (a | b) becomes the two implications ~a -> b and ~b -> a in implied;
    a longer clause is watched by the literals at its positions 0 and 1
    (Chaff).  Literals are nonzero ints, -v the negation of v, and lists
    indexed by literal have 2 * nvars + 1 entries, a negative literal
    indexing from the end.

    Branching over the tuple variables only stays complete.  In negation
    normal form every auxiliary variable g occurs positively only where
    its conjunction is used, and negatively only in its own clauses
    (~g | c).  Learnt clauses are implied by the input clauses, so adding
    them changes no model, and two-watched-literal propagation reaches
    the same unit fixpoint as propagation that counts the false literals
    of every clause.  Once every tuple variable is fixed, each
    subformula is true or false; a false conjunction has a clause c
    whose literals are all false, by induction on depth, so propagation
    forces its g false.  A chain variable e_k of a lex-leader constraint
    occurs positively only in its own two defining clauses, as a gate
    does, and with every tuple variable fixed propagation forces e_k
    true wherever pairs 1..k are equal.  If no conflict remains, setting
    every undecided g to the truth of its conjunction and every
    undecided e_k to false satisfies every input clause, so the answer
    is "satisfiable".

    The lex-leader constraints keep the answer.  A transposition sigma
    of interchangeable elements that maps the set O of occurring tuple
    variables onto itself maps the models of the grounding, restricted
    to O, onto themselves, because the matrix's truth on A does not
    depend on the variables outside O and sigma fixes the reduct and the
    free variables' values.  So the lex-least model of each orbit,
    restricted to O, satisfies x <=lex sigma(x) for every generator,
    and setting each e_k to the equality of pairs 1..k extends it to a
    model of every constraint.

    The solver keeps the clause lists it is given and reorders their
    literals as its watches move, which is why a replayed conjunct hands
    out fresh copies of its clauses.  solve() adds the learnt clauses to
    the loaded lists and sets the counters, so each _Solver is solved
    once."""

    def __init__(self, clauses, nvars, nbase):
        self.nvars = nvars
        size = 2 * nvars + 1
        implied = [[] for _ in range(size)]
        watches = [[] for _ in range(size)]
        units = []
        longs = []
        dropped = 0
        self.empty = False
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
                self.empty = True
                continue
            c = _clean(c)
            if c is None:
                dropped += 1
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
        self.implied = implied
        self.watches = watches
        self.units = units
        self.counters = Counters()
        self.counters.dropped = dropped
        # Tuple variables folded away during grounding are irrelevant to
        # the answer, and those only in unit clauses are fixed at level
        # 0; branching over them would only pad the search.
        present = set(chain.from_iterable(longs))
        self.order = [v for v in range(1, nbase + 1)
                      if v in present or -v in present or implied[v] or implied[-v]]

    def solve(self) -> bool:
        counts = self.counters
        if self.empty:
            return False
        implied = self.implied
        watches = self.watches
        order = self.order
        size = 2 * self.nvars + 1
        # value[lit] is 1 when lit is true, -1 when false, 0 when
        # unassigned; level and reason are indexed by the true literal.
        # A reason is None for a decision or a level-0 unit, the other
        # (false) literal of a binary clause, or a longer clause whose
        # first literal is the one it forced.
        value = [0] * size
        level = [0] * size
        reason = [None] * size
        trail = []
        # Per decision level from 1 on: the trail length before the
        # decision and the decision's index in order.
        trail_lim = []
        branch_at = []
        decisions = propagations = conflicts = learnt = 0
        head = 0
        start = 0
        dl = 0
        try:
            for lit in self.units:
                if value[lit] < 0:
                    conflicts += 1
                    return False
                if not value[lit]:
                    value[lit] = 1
                    value[-lit] = -1
                    trail.append(lit)
                    propagations += 1
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
                if not dl:
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
                    top = 0
                    for j, q in enumerate(rest):
                        lv = level[-q]
                        if lv > back:
                            back = lv
                            top = j
                    rest[0], rest[top] = rest[top], rest[0]
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
            counts.decisions = decisions
            counts.propagations = propagations
            counts.conflicts = conflicts
            counts.learnt = learnt
