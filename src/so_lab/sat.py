"""Witness search for homogeneous relation-quantifier prefixes.

A closed sentence EX2 X1 .. EX2 Xm M with first-order matrix M holds on
a finite structure iff the propositional formula obtained by grounding
M over the universe (one Boolean per candidate tuple of each Xi) is
satisfiable.  Universal prefixes are decided through the dual: ALL2
X1 .. ALL2 Xm M holds iff the grounding of ~M is unsatisfiable.

The grounder is compiled once per (matrix, prefix, universe size,
polarity) into closures, as structures.compile_evaluator compiles each
formula once, and kept in a bounded cache.  Each call folds structure
atoms and equalities to constants and emits CNF directly from the
negation normal form of the matrix: every top-level conjunct, ALL
expansions included, becomes its own clause, and a disjunction nested
inside a conjunction is inlined as a clause.  Only a conjunction nested
inside a disjunction gets an auxiliary variable g, defined in one
direction only (g -> conjunct, after Plaisted and Greenbaum) and shared
per (subformula, values of its free variables).  A small DPLL with
counter-based unit propagation branches over the tuple variables only.

The grounder trusts its symbols and arities, which structures.eval_so_full
has checked; only the free individual variables are checked here, eagerly.
"""
from __future__ import annotations

from functools import lru_cache

from . import formulas as fm
from .errors import SoLabError, ValidationError


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

class _Node:
    """A negation-normal-form node.  kind is "and", "or" (args: the
    children, nested nodes of the same kind merged in), "all", "ex"
    (args: the variable's slot and the body), "tvar" (args: the first
    tuple variable of the relation variable and the argument slots),
    "rel" (args: the relation's slot and the argument slots) or "eq"
    (args: the two slots).  free holds the slots of the free variables;
    symbolic is true when a tuple variable occurs below."""

    __slots__ = ("kind", "args", "positive", "free", "symbolic")

    def __init__(self, kind, args, positive, free, symbolic):
        self.kind = kind
        self.args = args
        self.positive = positive
        self.free = free
        self.symbolic = symbolic


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
    polarity, as closures over a per-call frame.  Slot 0 of the frame
    holds the _Run; the other slots hold the values of the individual
    variables and the relations that structure atoms refer to."""

    def __init__(self, matrix, prefix, n, negate):
        self.n = n
        self.tvars = {}
        base = 0
        for _, name, arity in prefix:
            self.tvars[name] = base + 1
            base += n ** arity
        self.nbase = base
        # Per-call inputs from slot 1 on, first occurrence first: the free
        # individual variables, then the relations of structure atoms.
        # Slots of free variables that index tuple variables are
        # range-checked.
        found = fm.scope(matrix)
        self.free = {name: slot for slot, name in enumerate(found.free_fo, 1)}
        rels = [name for name in found.symbols if name not in self.tvars]
        self.rels = {name: slot for slot, name in enumerate(rels, 1 + len(self.free))}
        self.nslots = 1 + len(self.free) + len(self.rels)
        self.indexing = set()
        self._gate_ids = 0
        self.root = self._conj(self._nnf(matrix, negate, {}))

    # -- negation normal form ------------------------------------------

    def _var(self, name, scope):
        slot = scope.get(name)
        return self.free[name] if slot is None else slot

    def _nnf(self, g, neg, scope):
        if isinstance(g, fm.Atom):
            if g.rel in self.tvars:
                first = self.tvars[g.rel]
                slots = tuple(self._var(a, scope) for a in g.args)
                self.indexing.update(s for s in slots if s in self.free.values())
                return _Node("tvar", (first, slots), not neg, frozenset(slots), True)
            slots = tuple(self._var(a, scope) for a in g.args)
            return _Node("rel", (self.rels[g.rel], slots), not neg, frozenset(slots), False)
        if isinstance(g, fm.Eq):
            slots = (self._var(g.left, scope), self._var(g.right, scope))
            return _Node("eq", slots, not neg, frozenset(slots), False)
        if isinstance(g, fm.Not):
            return self._nnf(g.sub, not neg, scope)
        if isinstance(g, (fm.And, fm.Or)):
            conjunctive = isinstance(g, fm.And) != neg
            return self._join(conjunctive, [self._nnf(g.left, neg, scope),
                                            self._nnf(g.right, neg, scope)])
        if isinstance(g, fm.Implies):
            return self._join(neg, [self._nnf(g.left, not neg, scope),
                                    self._nnf(g.right, neg, scope)])
        if isinstance(g, fm.Iff):
            # (l <-> r) is (~l | r) & (l | ~r); its negation is
            # (l | r) & (~l | ~r).  Both are conjunctions of clauses.
            lp = self._nnf(g.left, False, scope)
            ln = self._nnf(g.left, True, scope)
            rp = self._nnf(g.right, False, scope)
            rn = self._nnf(g.right, True, scope)
            if neg:
                pairs = ((lp, rp), (ln, rn))
            else:
                pairs = ((ln, rp), (lp, rn))
            return self._join(True, [self._join(False, list(p)) for p in pairs])
        if isinstance(g, (fm.ExistsFO, fm.ForallFO)):
            slot = self.nslots
            self.nslots += 1
            body = self._nnf(g.body, neg, {**scope, g.var: slot})
            kind = "ex" if isinstance(g, fm.ExistsFO) != neg else "all"
            return _Node(kind, (slot, body), True, body.free - {slot}, body.symbolic)
        raise SoLabError(f"matrix is not first-order: {g!r}")

    @staticmethod
    def _join(conjunctive, children):
        kind = "and" if conjunctive else "or"
        flat = []
        for c in children:
            flat.extend(c.args if c.kind == kind else (c,))
        # Constant children first, so a folded conjunct or disjunct cuts
        # the expansion short before any literal is built.
        flat.sort(key=lambda c: c.symbolic)
        return _Node(kind, tuple(flat), True,
                     frozenset().union(*(c.free for c in flat)),
                     any(c.symbolic for c in flat))

    # -- closures --------------------------------------------------------

    def _conj(self, node):
        """fn(frame, clauses) -> False when node folds to false, else
        True after appending the clauses node is the conjunction of."""
        kind = node.kind
        if kind == "and":
            parts = [self._conj(c) for c in node.args]

            def conj(frame, out):
                for part in parts:
                    if not part(frame, out):
                        return False
                return True
        elif kind == "all":
            slot, body = node.args[0], self._conj(node.args[1])
            universe = range(self.n)

            def conj(frame, out):
                for e in universe:
                    frame[slot] = e
                    if not body(frame, out):
                        return False
                return True
        else:
            disj = self._disj(node)

            def conj(frame, out):
                lits = []
                if disj(frame, lits):
                    return True
                if not lits:
                    return False
                out.append(lits)
                return True
        return conj

    def _disj(self, node):
        """fn(frame, lits) -> True when node folds to true, else False
        after appending the literals node is the disjunction of."""
        kind = node.kind
        if kind == "or":
            parts = [self._disj(c) for c in node.args]

            def disj(frame, lits):
                for part in parts:
                    if part(frame, lits):
                        return True
                return False
        elif kind == "ex":
            slot, body = node.args[0], self._disj(node.args[1])
            universe = range(self.n)

            def disj(frame, lits):
                for e in universe:
                    frame[slot] = e
                    if body(frame, lits):
                        return True
                return False
        elif kind == "tvar":
            disj = self._tvar(node)
        elif kind == "rel":
            disj = self._rel(node)
        elif kind == "eq":
            a, b = node.args
            positive = node.positive

            def disj(frame, lits):
                return (frame[a] == frame[b]) == positive
        else:
            disj = self._gate(node)
        return disj

    def _tvar(self, node):
        first, slots = node.args
        sign = 1 if node.positive else -1
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
    def _rel(node):
        r, slots = node.args
        positive = node.positive
        if len(slots) == 2:
            a, b = slots

            def disj(frame, lits):
                return ((frame[a], frame[b]) in frame[r]) == positive
        else:

            def disj(frame, lits):
                return (tuple(frame[s] for s in slots) in frame[r]) == positive
        return disj

    def _gate(self, node):
        """A conjunction inside a disjunction: its literals are those of
        its only clause, or one auxiliary variable g with the clauses
        (~g | c) for each of its clauses c."""
        conj = self._conj(node)
        self._gate_ids += 1
        gid = self._gate_ids
        key_slots = tuple(sorted(node.free))

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
        return disj

    # -- grounding and solving -------------------------------------------

    def satisfiable(self, A, fo_env, so_env) -> bool:
        frame = [None] * self.nslots
        for name, slot in self.free.items():
            value = fo_env.get(name)
            if value is None:
                raise ValidationError(f"unassigned free variable {name!r}")
            if slot in self.indexing and not (
                    isinstance(value, int) and 0 <= value < self.n):
                raise ValidationError(
                    f"free variable {name!r} = {value!r} is outside the universe")
            frame[slot] = value
        for name, slot in self.rels.items():
            frame[slot] = so_env[name] if name in so_env else A.rels[name]
        run = _Run(self.nbase)
        frame[0] = run
        if not self.root(frame, run.clauses):
            return False
        if not run.clauses:
            return True
        return _dpll(run.clauses, run.nvars, self.nbase)


# ---------------------------------------------------------------------------
# DPLL
# ---------------------------------------------------------------------------

def _dpll(clauses, nvars, nbase):
    """Satisfiability of the clauses over variables 1..nvars, branching
    over the tuple variables 1..nbase only.

    That stays complete.  In negation normal form every auxiliary
    variable g occurs positively only where its conjunction is used, and
    negatively only in its own clauses (~g | c).  Once every tuple
    variable is fixed, each subformula is true or false; a false
    conjunction has a clause c whose literals are all false, by
    induction on depth, so unit propagation forces its g false.  If no
    conflict remains, setting every undecided g to the truth of its
    conjunction satisfies all clauses, so the answer is "satisfiable"."""
    # occ[lit] lists the clauses containing lit; a negative literal
    # indexes from the end of the list.
    occ = [[] for _ in range(2 * nvars + 1)]
    for ci, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(ci)
    npos = [len(c) for c in clauses]
    nsat = [0] * len(clauses)
    # value[lit] is 1 when lit is true, -1 when false, 0 when unassigned.
    value = [0] * (2 * nvars + 1)
    trail = []

    def set_literal(lit, units):
        if value[lit]:
            return value[lit] > 0
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)
        ok = True
        for ci in occ[lit]:
            nsat[ci] += 1
        # Finish every counter update before reporting a conflict, or a
        # later undo would restore counts that were never decremented.
        for ci in occ[-lit]:
            left = npos[ci] - 1
            npos[ci] = left
            if left < 2 and not nsat[ci]:
                if not left:
                    ok = False
                else:
                    for l in clauses[ci]:
                        if not value[l]:
                            units.append(l)
                            break
        return ok

    def propagate(units):
        while units:
            if not set_literal(units.pop(), units):
                return False
        return True

    def undo(mark):
        while len(trail) > mark:
            lit = trail.pop()
            value[lit] = value[-lit] = 0
            for ci in occ[lit]:
                nsat[ci] -= 1
            for ci in occ[-lit]:
                npos[ci] += 1

    units = [c[0] for c in clauses if len(c) == 1]
    if not propagate(units):
        return False

    # Tuple variables folded away during grounding are irrelevant to the
    # answer; branching over them would only pad the search.
    branch_order = [v for v in range(1, nbase + 1) if occ[v] or occ[-v]]

    # Depth-first search, positive literal first, over an explicit stack
    # of (branch index, variable, trail mark, negative tried): one entry
    # per decision, so a deep search cannot exhaust Python's own stack.
    decisions = []
    start = 0
    while True:
        var = 0
        for i in range(start, len(branch_order)):
            if not value[branch_order[i]]:
                var = branch_order[i]
                break
        if var == 0:
            return True
        decisions.append((i, var, len(trail), False))
        ok = propagate([var])
        while not ok:
            if not decisions:
                return False
            i, var, mark, negative_tried = decisions.pop()
            undo(mark)
            if not negative_tried:
                decisions.append((i, var, mark, True))
                ok = propagate([-var])
        start = i + 1
