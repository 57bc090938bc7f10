"""Computations made apart from so_lab, against which the benchmark
checks every answer, and the seeded generators that build its inputs.

Nothing here imports so_lab.  Formulas are plain nested tuples and are
handed to the program as concrete syntax, so a change to the program's
generators, parser or evaluators cannot change a workload or its
expected answers.

Formula tuples:
    ("atom", rel, (var, ...))   ("eq", var, var)      ("not", f)
    ("and" | "or" | "imp" | "iff", f, g)
    ("ex" | "all", var, f)      ("ex2" | "all2", relvar, arity, f)

A structure is (size, {relation name: frozenset of int tuples}).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def hamiltonian(n, edges) -> bool:
    """Held-Karp over vertex bitmasks: is there a cycle through every
    vertex along directed edges?  On one vertex it needs a loop, on two
    the edge in both directions (the program's sentence agrees)."""
    edges = set(edges)
    if n == 1:
        return (0, 0) in edges
    succ = [[w for w in range(n) if w != v and (v, w) in edges] for v in range(n)]
    full = (1 << n) - 1
    # reach[mask] = bitmask of end vertices v such that a path from 0
    # visits exactly the vertices of mask and ends at v.
    reach = [0] * (1 << n)
    reach[1] = 1
    for mask in range(1, full + 1):
        ends = reach[mask]
        if not ends or not mask & 1:
            continue
        for v in range(n):
            if ends >> v & 1:
                for w in succ[v]:
                    if not mask >> w & 1:
                        reach[mask | 1 << w] |= 1 << w
    return any(reach[full] >> v & 1 and (v, 0) in edges for v in range(1, n))


def colorable(n, edges, k) -> bool:
    """Backtracking k-colouring, largest-degree vertex first."""
    if any(u == v for u, v in edges):
        return False
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    color = {}

    def place(i):
        if i == n:
            return True
        v = order[i]
        taken = {color[w] for w in adj[v] if w in color}
        for c in range(k):
            if c not in taken:
                color[v] = c
                if place(i + 1):
                    return True
                del color[v]
        return False

    return place(0)


def symmetric(pairs):
    return frozenset(pairs) | frozenset((v, u) for u, v in pairs)


def random_graph_edges(rng, n, m):
    """m undirected edges on n vertices, chosen uniformly."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def random_hamiltonian_edges(rng, n, m):
    """A random Hamiltonian cycle plus m - n further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cycle]
    return sorted(cycle | set(rng.sample(rest, m - n)))


# ---------------------------------------------------------------------------
# Formulas: generation, printing, naive evaluation
# ---------------------------------------------------------------------------

_BINARY_OPS = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def to_text(f) -> str:
    """Concrete syntax, fully parenthesised so it parses back to the
    same tree."""
    op = f[0]
    if op == "atom":
        return f"{f[1]}({', '.join(f[2])})"
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "not":
        return f"~({to_text(f[1])})"
    if op in _BINARY_OPS:
        return f"({to_text(f[1])}) {_BINARY_OPS[op]} ({to_text(f[2])})"
    if op in ("ex", "all"):
        return f"{'EX' if op == 'ex' else 'ALL'} {f[1]} ({to_text(f[2])})"
    if op in ("ex2", "all2"):
        return f"{'EX2' if op == 'ex2' else 'ALL2'} {f[1]}:{f[2]} ({to_text(f[3])})"
    raise ValueError(f"not a formula tuple: {f!r}")


def random_formula(rng, sig, *, depth=3, connectives=5, so=0, binary_so=0):
    """A closed formula over sig (a tuple of (name, arity)) with at most
    `depth` nested quantifiers, of which exactly `so` are relation
    quantifiers and exactly `binary_so` of those binary; the rest are
    unary.  The relation quantifiers sit along one branch, under
    connectives and first-order quantifiers at random."""
    if so >= depth or binary_so > so:
        raise ValueError("quantifier counts exceed depth")
    state = {"conn": connectives, "fo": 0, "so": 0}
    # Arities of the relation quantifiers still to place, in order.
    pending = [2] * binary_so + [1] * (so - binary_so)
    rng.shuffle(pending)

    def atom(fo, rels):
        candidates = list(sig) + sorted(rels.items())
        if rng.random() < 0.85:
            name, arity = rng.choice(candidates)
            return ("atom", name, tuple(rng.choice(fo) for _ in range(arity)))
        return ("eq", rng.choice(fo), rng.choice(fo))

    def quantifier(fo, rels, left, carry):
        # A first-order quantifier needs a slot beyond those the pending
        # relation quantifiers take; without any bound variable one
        # such slot is always left (so < depth).
        if carry and (left == len(carry) or rng.random() < 0.5):
            name = f"R{state['so']}"
            state["so"] += 1
            body = build(fo, {**rels, name: carry[0]}, left - 1, carry[1:])
            return ("ex2" if rng.random() < 0.5 else "all2", name, carry[0], body)
        var = f"x{state['fo']}"
        state["fo"] += 1
        body = build(fo + [var], rels, left - 1, carry)
        return ("ex" if rng.random() < 0.5 else "all", var, body)

    def build(fo, rels, left, carry):
        # carry: the relation quantifiers this branch still has to place.
        if not fo or (carry and left == len(carry)):
            return quantifier(fo, rels, left, carry)
        roll = rng.random()
        if left > 0 and (roll < 0.45 or (carry and state["conn"] == 0)):
            return quantifier(fo, rels, left, carry)
        if state["conn"] > 0 and roll < 0.85:
            state["conn"] -= 1
            op = rng.choice(("not", "and", "or", "imp", "iff"))
            if op == "not":
                return ("not", build(fo, rels, left, carry))
            if rng.random() < 0.5:
                return (op, build(fo, rels, left, carry), build(fo, rels, left, ()))
            return (op, build(fo, rels, left, ()), build(fo, rels, left, carry))
        if carry:
            return quantifier(fo, rels, left, carry)
        return atom(fo, rels)

    return build([], {}, depth, tuple(pending))


def is_homogeneous_prefix(f) -> bool:
    """A leading run of relation quantifiers of one kind over a matrix
    with no relation quantifier: the shape the program decides by SAT."""
    kinds = set()
    while f[0] in ("ex2", "all2"):
        kinds.add(f[0])
        f = f[3]
    return len(kinds) == 1 and not contains_so(f)


def contains_so(f) -> bool:
    op = f[0]
    if op in ("ex2", "all2"):
        return True
    if op == "not":
        return contains_so(f[1])
    if op in _BINARY_OPS:
        return contains_so(f[1]) or contains_so(f[2])
    if op in ("ex", "all"):
        return contains_so(f[2])
    return False


def relations(n, k):
    """Every k-ary relation on {0..n-1}, as frozensets."""
    space = list(itertools.product(range(n), repeat=k))
    for mask in range(1 << len(space)):
        yield frozenset(t for i, t in enumerate(space) if mask >> i & 1)


def holds(f, size, rels, fo=None, so=None) -> bool:
    """Tarski truth with relation quantifiers over every relation."""
    fo = dict(fo or {})
    so = dict(so or {})

    def ev(g):
        op = g[0]
        if op == "atom":
            point = tuple(fo[a] for a in g[2])
            rel = so[g[1]] if g[1] in so else rels[g[1]]
            return point in rel
        if op == "eq":
            return fo[g[1]] == fo[g[2]]
        if op == "not":
            return not ev(g[1])
        if op == "and":
            return ev(g[1]) and ev(g[2])
        if op == "or":
            return ev(g[1]) or ev(g[2])
        if op == "imp":
            return (not ev(g[1])) or ev(g[2])
        if op == "iff":
            return ev(g[1]) == ev(g[2])
        if op in ("ex", "all"):
            saved = fo.get(g[1])
            want = op == "ex"
            result = not want
            for e in range(size):
                fo[g[1]] = e
                if ev(g[2]) == want:
                    result = want
                    break
            _restore(fo, g[1], saved)
            return result
        if op in ("ex2", "all2"):
            saved = so.get(g[1])
            want = op == "ex2"
            result = not want
            for rel in relations(size, g[2]):
                so[g[1]] = rel
                if ev(g[3]) == want:
                    result = want
                    break
            _restore(so, g[1], saved)
            return result
        raise ValueError(f"not a formula tuple: {g!r}")

    return ev(f)


def _restore(env, name, saved):
    if saved is None:
        env.pop(name, None)
    else:
        env[name] = saved


_PROGRAM_NODES = {
    "Atom": lambda g, c: ("atom", g.rel, tuple(g.args)),
    "Eq": lambda g, c: ("eq", g.left, g.right),
    "Not": lambda g, c: ("not", c(g.sub)),
    "And": lambda g, c: ("and", c(g.left), c(g.right)),
    "Or": lambda g, c: ("or", c(g.left), c(g.right)),
    "Implies": lambda g, c: ("imp", c(g.left), c(g.right)),
    "Iff": lambda g, c: ("iff", c(g.left), c(g.right)),
    "ExistsFO": lambda g, c: ("ex", g.var, c(g.body)),
    "ForallFO": lambda g, c: ("all", g.var, c(g.body)),
    "ExistsSO": lambda g, c: ("ex2", g.relvar, g.arity, c(g.body)),
    "ForallSO": lambda g, c: ("all2", g.relvar, g.arity, c(g.body)),
}


def from_program(g):
    """Copy a formula built by the program (a separator, a Boolean
    closure member) into tuples, by node class name."""
    return _PROGRAM_NODES[type(g).__name__](g, from_program)


def random_structure(rng, sig, size, density=0.5):
    return (size, {
        name: frozenset(t for t in itertools.product(range(size), repeat=k)
                        if rng.random() < density)
        for name, k in sig
    })


# ---------------------------------------------------------------------------
# Formula space
# ---------------------------------------------------------------------------

def theory_bits(fragment, structure):
    size, rels = structure
    return tuple(int(holds(f, size, rels)) for f in fragment)


def ultrametric(x, y) -> Fraction:
    for i, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return Fraction(1, 2 ** i)
    return Fraction(0)


def set_distance(xs, ys) -> Fraction:
    return min(ultrametric(x, y) for x in xs for y in ys)


# ---------------------------------------------------------------------------
# Isomorphism classes
# ---------------------------------------------------------------------------

def _cycles(perm, n, k) -> int:
    """Number of cycles of perm acting on k-tuples over {0..n-1}."""
    seen = set()
    count = 0
    for t in itertools.product(range(n), repeat=k):
        if t in seen:
            continue
        count += 1
        while t not in seen:
            seen.add(t)
            t = tuple(perm[x] for x in t)
    return count


def burnside_classes(sig, n) -> int:
    """Isomorphism classes of sig-structures on n elements: the mean
    number of structures fixed by a permutation (Burnside's lemma)."""
    total = 0
    for perm in itertools.permutations(range(n)):
        fixed = 1
        for _, k in sig:
            fixed *= 2 ** _cycles(perm, n, k)
        total += fixed
    return total // math.factorial(n)


def labeled_structures(sig, n):
    spaces = [list(itertools.product(range(n), repeat=k)) for _, k in sig]
    for masks in itertools.product(*[range(1 << len(s)) for s in spaces]):
        yield (n, {name: frozenset(t for i, t in enumerate(space) if mask >> i & 1)
                   for (name, _), space, mask in zip(sig, spaces, masks)})


def canonical_form(sig, structure):
    """The least relabelled encoding: equal exactly for isomorphic
    structures."""
    n, rels = structure
    return (n, min(
        tuple(tuple(sorted(tuple(perm[x] for x in t) for t in rels[name]))
              for name, _ in sig)
        for perm in itertools.permutations(range(n))
    ))


def plain_key(structure):
    """A hashable copy of a structure's labelled relations."""
    n, rels = structure
    return (n, tuple(sorted((name, tuple(sorted(rel))) for name, rel in rels.items())))


def is_isomorphism(A, B, image) -> bool:
    """Does the element map image carry A's relations exactly onto B's?"""
    (n, ra), (m, rb) = A, B
    if n != m or sorted(image) != list(range(n)) or set(ra) != set(rb):
        return False
    return all(frozenset(tuple(image[x] for x in t) for t in ra[name]) == rb[name]
               for name in ra)
