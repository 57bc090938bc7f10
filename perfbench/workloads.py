"""The four workloads, one per hot layer of so_lab.

Each workload has four steps:

- `inputs(seed, tiny)` builds plain data (no so_lab objects) from the
  seed with the generators in oracles.py, plus the expected answers
  that can be computed before the pass.
- `setup(so, data)` is the program-side preparation, timed as set-up:
  structures, parsed formulas, Henkin models, the type pool.
- `operations(so, data, prog)` lists the verdicts of one pass as
  (label, thunk) pairs; each thunk is one timed verdict.
- `answer(data, label, raw)` turns a verdict's result into plain data
  after the pass; `extras(so, data, prog)` gathers, after the pass,
  any further program output the check needs; and
  `check(data, answers, extras)` compares the answers of one pass with
  computations made apart from the program.
"""
from __future__ import annotations

import itertools
import random

import oracles as orc


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _plain(A):
    """A program structure as the benchmark's plain (size, relations)."""
    return (A.size, {name: frozenset(A.rels[name]) for name in A.sig.names})


class Workload:
    """Defaults: a verdict's result is already plain data, and the check
    needs nothing beyond the answers."""

    def answer(self, data, label, raw):
        return raw

    def extras(self, so, data, prog):
        return None


# ---------------------------------------------------------------------------
# fagin: second-order sentences decided by SAT on 7- and 8-vertex graphs
# ---------------------------------------------------------------------------

class Fagin(Workload):
    """`hamiltonian`, `colorable:3` and `infinite` on random graphs.  The
    graph slots fix vertex count, edge count and the Hamiltonicity
    answer, so every seed gets the same mix of hard and easy cases."""

    name = "fagin"
    EDGE_COUNTS = {5: (6, 7), 6: (7, 8), 7: (9, 10, 11, 12), 8: (10, 11, 12, 13)}
    INFINITE_SLOTS = (0, 1, 2, 3, 4, 6, 8, 10)

    def inputs(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        sizes = (5, 6) if tiny else (7, 8)
        graphs = []
        for i in range(8 if tiny else 64):
            # Each run of four slots: (n1, yes), (n2, yes), (n1, no), (n2, no).
            n = sizes[i % 2]
            counts = self.EDGE_COUNTS[n]
            graphs.append((n, self._graph(rng, n, counts[(i // 4) % len(counts)],
                                          want=(i // 2) % 2 == 0)))
        ops = []
        for i in range(len(graphs)):
            ops.append(("hamiltonian", i))
            if i % 4 in (0, 3):
                ops.append(("colorable:3", i))
            if i in self.INFINITE_SLOTS:
                ops.append(("infinite", i))
        expected = []
        for label, i in ops:
            n, edges = graphs[i]
            arcs = orc.symmetric(edges)
            if label == "hamiltonian":
                expected.append(orc.hamiltonian(n, arcs))
            elif label == "colorable:3":
                expected.append(orc.colorable(n, arcs, 3))
            else:
                expected.append(False)
        return {"graphs": graphs, "ops": ops, "expected": expected}

    @staticmethod
    def _graph(rng, n, m, want):
        if want:
            return orc.random_hamiltonian_edges(rng, n, m)
        for _ in range(10_000):
            edges = orc.random_graph_edges(rng, n, m)
            if not orc.hamiltonian(n, orc.symmetric(edges)):
                return edges
        raise RuntimeError(f"no non-Hamiltonian graph with {n} vertices and {m} edges")

    def setup(self, so, data):
        builtin = so.workbench.builtin
        sentences = {key: builtin(key).formula
                     for key in ("hamiltonian", "colorable:3", "infinite")}
        graphs = [so.workbench.graph_structure(n, edges) for n, edges in data["graphs"]]
        return sentences, graphs

    def operations(self, so, data, prog):
        sentences, graphs = prog
        evaluate = so.structures.eval_so_full
        return [(label, (lambda A=graphs[i], f=sentences[label]: evaluate(A, f)))
                for label, i in data["ops"]]

    def check(self, data, answers, extras):
        errors = []
        for (label, i), want, got in zip(data["ops"], data["expected"], answers):
            if got is not None and got is not want:
                errors.append(f"{label} on graph {i} {data['graphs'][i]}: got {got}, want {want}")
        return errors


# ---------------------------------------------------------------------------
# transfer: Łoś trials and Fubini grids over principal ultrafilters
# ---------------------------------------------------------------------------

SUITE_SIG = (("p", 1), ("edge", 2))


class Transfer(Workload):
    """`check_los` on families of 1-4 factors of size <= 3 and sentences
    with one or two relation quantifiers (at most one binary), and every
    eleventh verdict a `check_fubini` grid.  The factor sizes, which set
    the cost of the literal box enumeration, and the number and arity of
    the relation quantifiers cycle with the trial number, so every seed
    gets the same mix of costs."""

    name = "transfer"
    # Factor sizes for each factor count: every multiset of sizes 1..3.
    SHAPES = {m: tuple(itertools.combinations_with_replacement((1, 2, 3), m))
              for m in (1, 2, 3, 4)}

    def inputs(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        ops = []
        for i in range(12 if tiny else 660):
            if i % 11 == 10:
                rows, cols = 1 + i % 3, 1 + (i // 3) % 2
                grid = [[orc.random_structure(rng, SUITE_SIG, rng.randint(1, 3))
                         for _ in range(cols)] for _ in range(rows)]
                ops.append(("fubini", (grid, rng.randrange(rows), rng.randrange(cols))))
                continue
            m = 1 + i % 4
            shapes = self.SHAPES[m]
            sizes = shapes[(i // 4) % len(shapes)]
            # The principal factor's size sets the quotient size, so it
            # cycles too; the factors are then put in a random order.
            order = list(range(m))
            rng.shuffle(order)
            family = [orc.random_structure(rng, SUITE_SIG, sizes[k]) for k in order]
            principal = order.index((i // 16) % m)
            so_count = 1 + (i // 4) % 2
            binary = 1 if i % 3 == 0 else 0
            f = orc.random_formula(rng, SUITE_SIG, depth=3, connectives=5,
                                   so=so_count, binary_so=binary)
            ops.append(("los", (family, principal, f)))
        return {"ops": ops}

    def setup(self, so, data):
        st, ultra, fm = so.structures, so.ultra, so.formulas
        sig = st.Signature.of(dict(SUITE_SIG))

        def build(structure):
            return st.FiniteStructure(sig, structure[0], structure[1])

        prog = []
        for label, item in data["ops"]:
            if label == "los":
                family, principal, f = item
                prog.append(([build(A) for A in family],
                             ultra.Ultrafilter(len(family), principal),
                             fm.parse(orc.to_text(f))))
            else:
                grid, fp, gp = item
                prog.append(([[build(A) for A in row] for row in grid],
                             ultra.Ultrafilter(len(grid), fp),
                             ultra.Ultrafilter(len(grid[0]), gp)))
        return prog

    def operations(self, so, data, prog):
        check_los, check_fubini = so.ultra.check_los, so.ultra.check_fubini
        ops = []
        for (label, _), args in zip(data["ops"], prog):
            call = check_los if label == "los" else check_fubini
            ops.append((label, (lambda call=call, args=args: call(*args))))
        return ops

    def answer(self, data, label, raw):
        if label == "los":
            return (raw.ultra_truth, raw.large_set_truth, raw.agree, tuple(raw.true_indices))
        return (tuple(raw.witness), tuple(raw.grid_shape))

    def extras(self, so, data, prog):
        """Both quotients of each Fubini grid, rebuilt by the program, so
        that its witness can be applied to them."""
        ultra = so.ultra
        quotients = {}
        for k, ((label, _), args) in enumerate(zip(data["ops"], prog)):
            if label != "fubini":
                continue
            grid, F, G = args
            flat = [A for row in grid for A in row]
            lhs = ultra.ultraproduct(flat, ultra.product_ultrafilter(F, G)).quotient
            inner = [ultra.ultraproduct([row[j] for row in grid], F).quotient
                     for j in range(G.size)]
            rhs = ultra.ultraproduct(inner, G).quotient
            quotients[k] = (_plain(lhs), _plain(rhs))
        return quotients

    def check(self, data, answers, quotients):
        errors = []
        for k, ((label, item), got) in enumerate(zip(data["ops"], answers)):
            if got is None:
                continue
            if label == "los":
                family, principal, f = item
                truths = [orc.holds(f, n, rels) for n, rels in family]
                indices = tuple(i for i, t in enumerate(truths) if t)
                want = (truths[principal], truths[principal], True, indices)
                if got != want:
                    errors.append(f"los trial {k} {orc.to_text(f)}: got {got}, want {want}")
                continue
            grid, fp, gp = item
            witness, shape = got
            lhs, rhs = quotients[k]
            principal = orc.canonical_form(SUITE_SIG, grid[fp][gp])
            if (shape != (len(grid), len(grid[0]))
                    or not orc.is_isomorphism(lhs, rhs, witness)
                    or orc.canonical_form(SUITE_SIG, lhs) != principal):
                errors.append(f"fubini grid {k}: witness {witness} fails")
        return errors


# ---------------------------------------------------------------------------
# semantics: enumeration-path evaluation, separation, cardinality, probes
# ---------------------------------------------------------------------------

PQ_SIG = (("p", 1), ("q", 1))

# Conjunctions of homogeneous blocks.  Each block alone is decided
# quickly by SAT and its truth is plain from the witness given, but the
# whole sentence is not one homogeneous prefix, so eval_so_full
# enumerates and stops at its per-quantifier budget.  Each entry: the
# sentence, the length of the cycle graph it is asked on, and a witness
# for each existential block.
def _all3(body):
    return ("all", "x", ("all", "y", ("all", "z", body)))


_Y = ("atom", "Y", ("x", "y", "z"))
PROBES = (
    (("and", ("ex2", "X", 1, ("all", "x", ("atom", "X", ("x",)))),
      ("ex2", "Y", 3, _all3(("not", _Y)))),
     4, {"X": "all", "Y": "empty"}),
    (("and", ("all2", "X", 1, ("ex", "x", ("or", ("atom", "X", ("x",)),
                                             ("not", ("atom", "X", ("x",)))))),
      ("ex2", "Y", 3, _all3(("imp", _Y, ("atom", "edge", ("x", "y")))))),
     4, {"Y": "empty"}),
    (("and", ("ex2", "X", 2, ("all", "x", ("all", "y", ("iff", ("atom", "X", ("x", "y")),
                                                         ("atom", "edge", ("y", "x")))))),
      ("ex2", "Y", 3, _all3(("imp", _Y, ("eq", "x", "y"))))),
     5, {"X": "edge", "Y": "empty"}),
    (("and", ("ex2", "X", 1, ("ex", "x", ("atom", "X", ("x",)))),
      ("ex2", "Y", 3, ("ex", "x", ("atom", "Y", ("x", "x", "x"))))),
     5, {"X": "all", "Y": "diagonal"}),
)


def cycle_edges(n):
    return orc.symmetric([(i, (i + 1) % n) for i in range(n)])


def probe_truth(k):
    """The probe's truth, block by block: an existential block holds when
    its witness satisfies the body, any other block is evaluated in
    full (they are unary and small)."""
    f, n, witnesses = PROBES[k]
    rels = {"edge": cycle_edges(n)}
    named = {"all": frozenset((x,) for x in range(n)), "empty": frozenset(),
             "edge": rels["edge"], "diagonal": frozenset((x, x, x) for x in range(n))}

    def block(g):
        if g[0] == "ex2" and g[1] in witnesses:
            return orc.holds(g[3], n, rels, so={g[1]: named[witnesses[g[1]]]})
        return orc.holds(g, n, rels)

    return block(f[1]) and block(f[2])


def _rr(v):
    return ("atom", "R", (v, v))


def _p(v):
    return ("atom", "p", (v,))


def _s(v):
    return ("atom", "S", (v,))


# Sentences with a binary relation quantifier, the same for every seed:
# their cost on size-3 structures ranges over two orders of magnitude
# with their shape, so seeded ones would make the pass time depend on
# the seed.
BINARY_CORPUS = (
    ("ex", "x", ("all2", "R", 2, ("or", _rr("x"), ("not", _rr("x"))))),
    ("all", "x", ("ex2", "R", 2, ("and", _rr("x"), ("all", "y", (
        "imp", _rr("y"), ("or", _p("y"), ("eq", "x", "y"))))))),
    ("ex2", "S", 1, ("all2", "R", 2, ("imp", ("all", "x", ("imp", _rr("x"), _s("x"))), (
        "ex", "y", ("or", _s("y"), ("not", _p("y"))))))),
    ("all", "x", ("ex2", "R", 2, ("and", _rr("x"), ("all", "y", (
        "imp", _rr("y"), _p("y")))))),
)


class Semantics(Workload):
    """Henkin against full semantics over every structure of size <= 3
    with two unary relations, for a seeded corpus of sentences with one
    or two unary relation quantifiers and a fixed block with a binary
    one; separation pairs over Boolean-closed fragments; `at_least:n` on
    sizes n-1 and n for n <= 7; and the budget probes, which fail today.
    No corpus sentence is a homogeneous prefix, so eval_so_full
    enumerates."""

    name = "semantics"

    def inputs(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        structures = [A for n in ((1, 2) if tiny else (1, 2, 3))
                      for A in orc.labeled_structures(PQ_SIG, n)]
        corpus = []
        while len(corpus) < (2 if tiny else 180):
            f = orc.random_formula(rng, PQ_SIG, depth=3, connectives=5,
                                   so=1 + len(corpus) % 2)
            if not orc.is_homogeneous_prefix(f) and f not in corpus:
                corpus.append(f)
        corpus += BINARY_CORPUS[:1 if tiny else None]
        pairs = []
        for _ in range(2 if tiny else 48):
            base = []
            while len(base) < 2:
                f = orc.random_formula(rng, SUITE_SIG, depth=2, connectives=3,
                                       so=rng.randint(0, 1))
                if f not in base:
                    base.append(f)
            K = [orc.random_structure(rng, SUITE_SIG, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
            L = [orc.random_structure(rng, SUITE_SIG, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
            pairs.append((base, K, L))
        sample = rng.sample([(fi, si) for fi in range(len(corpus))
                             for si in range(len(structures))],
                            20 if tiny else 200)
        ops = [("henkin_full", (fi, si)) for fi in range(len(corpus))
               for si in range(len(structures))]
        ops += [("separation", k) for k in range(len(pairs))]
        ops += [("cardinality", (n, size)) for n in range(1, 5 if tiny else 8)
                for size in (n - 1, n) if size >= 1]
        ops += [("probe", k) for k in range(len(PROBES))]
        return {"structures": structures, "corpus": corpus, "pairs": pairs,
                "sample": sample, "ops": ops}

    def setup(self, so, data):
        st, fm, ultra, fs = so.structures, so.formulas, so.ultra, so.formula_space
        pq = st.Signature.of(dict(PQ_SIG))
        suite = st.Signature.of(dict(SUITE_SIG))
        structures = [st.FiniteStructure(pq, n, rels) for n, rels in data["structures"]]
        models = [ultra.full_henkin_model(A, 2) for A in structures]
        corpus = [fm.parse(orc.to_text(f)) for f in data["corpus"]]
        pairs = []
        for base, K, L in data["pairs"]:
            fragment = fs.Fragment(suite, tuple(fm.parse(orc.to_text(f)) for f in base))
            pairs.append((fragment,
                          [st.FiniteStructure(suite, n, rels) for n, rels in K],
                          [st.FiniteStructure(suite, n, rels) for n, rels in L]))
        empty = st.Signature(())
        cardinality = {n: so.workbench.builtin(f"at_least:{n}").formula
                       for n in range(1, 8)}
        blank = {size: st.FiniteStructure(empty, size) for size in range(1, 8)}
        probes = [(fm.parse(orc.to_text(f)), so.workbench.cycle_graph(n))
                  for f, n, _ in PROBES]
        return structures, models, corpus, pairs, cardinality, blank, probes

    def operations(self, so, data, prog):
        structures, models, corpus, pairs, cardinality, blank, probes = prog
        evaluate, henkin_eval = so.structures.eval_so_full, so.ultra.henkin_eval
        fs = so.formula_space

        def separate(fragment, K, L):
            closed = fs.boolean_closure(fragment, 1)
            kv, lv = fs.vector_set(K, closed), fs.vector_set(L, closed)
            return (closed, kv, lv, fs.set_distance(kv, lv),
                    fs.find_separating_formula(K, L, closed))

        ops = []
        for label, item in data["ops"]:
            if label == "henkin_full":
                fi, si = item
                thunk = (lambda M=models[si], A=structures[si], f=corpus[fi]:
                         (henkin_eval(M, f), evaluate(A, f)))
            elif label == "separation":
                thunk = lambda args=pairs[item]: separate(*args)
            elif label == "cardinality":
                n, size = item
                thunk = lambda A=blank[size], f=cardinality[n]: evaluate(A, f)
            else:
                thunk = lambda args=probes[item]: evaluate(args[1], args[0])
            ops.append((label, thunk))
        return ops

    def answer(self, data, label, raw):
        if label != "separation":
            return raw
        closed, kv, lv, distance, separator = raw
        return ([orc.from_program(f) for f in closed.formulas],
                frozenset(v.bits for v in kv.vectors),
                frozenset(v.bits for v in lv.vectors),
                distance,
                None if separator is None else orc.from_program(separator))

    def check(self, data, answers, extras):
        errors = []
        sample = set(data["sample"])
        for (label, item), got in zip(data["ops"], answers):
            if got is None:
                continue
            if label == "henkin_full":
                fi, si = item
                henkin, full = got
                if henkin != full:
                    errors.append(f"henkin {henkin} != full {full}: formula {fi}, structure {si}")
                if item in sample:
                    n, rels = data["structures"][si]
                    want = orc.holds(data["corpus"][fi], n, rels)
                    if full != want:
                        errors.append(f"formula {fi} on structure {si}: got {full}, want {want}")
            elif label == "separation":
                errors += self._check_separation(data["pairs"][item], got, item)
            elif label == "cardinality":
                n, size = item
                if got != (size >= n):
                    errors.append(f"at_least:{n} on {size} elements: got {got}")
            elif got != probe_truth(item):
                errors.append(f"probe {item} {orc.to_text(PROBES[item][0])}: got {got}")
        return errors

    @staticmethod
    def _check_separation(pair, got, k):
        base, K, L = pair
        fragment, kv, lv, distance, separator = got
        if fragment[:2] != base:
            return [f"separation pair {k}: closure does not start with its base"]
        mine_k = frozenset(orc.theory_bits(fragment, A) for A in K)
        mine_l = frozenset(orc.theory_bits(fragment, B) for B in L)
        disjoint = not (mine_k & mine_l)
        errors = []
        if (kv, lv) != (mine_k, mine_l):
            errors.append(f"separation pair {k}: vector sets differ")
        if distance != orc.set_distance(mine_k, mine_l):
            errors.append(f"separation pair {k}: distance {distance}")
        if (separator is not None) != disjoint or disjoint != (distance > 0):
            errors.append(f"separation pair {k}: separator/disjoint/distance disagree")
        if separator is not None and not (
                all(orc.holds(separator, n, rels) for n, rels in K)
                and not any(orc.holds(separator, n, rels) for n, rels in L)):
            errors.append(f"separation pair {k}: separator fails on K or L")
        return errors


# ---------------------------------------------------------------------------
# pool: omission axiomatization against the pool-closure property
# ---------------------------------------------------------------------------

POOL_SIG = (("u", 1), ("edge", 2))
CONTEXT = (
    ("ex", "x", ("atom", "X0", ("x",))),
    ("all", "x", ("imp", ("atom", "X0", ("x",)), ("atom", "u", ("x",)))),
    ("ex", "x", ("ex", "y", ("and", ("atom", "X0", ("x",)), ("atom", "edge", ("x", "y"))))),
    ("all", "x", ("all", "y", ("imp", ("and", ("atom", "X0", ("x",)), ("atom", "X0", ("y",))),
                               ("eq", "x", "y")))),
)


class Pool(Workload):
    """Seeded choices of K from the 792 isomorphism classes of structures
    of size <= 3 with one unary and one binary relation: in turn a random
    subset, a class closed under realized-type containment, and such a
    class less a few members."""

    name = "pool"

    def inputs(self, seed, tiny=False):
        rng = _rng(self.name, seed)
        nmax = 2 if tiny else 3
        classes = {}       # canonical form -> class id, in enumeration order
        class_of = {}      # plain labelled key -> class id
        members = []
        for n in range(1, nmax + 1):
            for A in orc.labeled_structures(POOL_SIG, n):
                form = orc.canonical_form(POOL_SIG, A)
                if form not in classes:
                    classes[form] = len(members)
                    members.append(A)
                class_of[orc.plain_key(A)] = classes[form]
        realized = []
        for n, rels in members:
            types = set()
            for X in orc.relations(n, 1):
                types.add(tuple(int(orc.holds(f, n, rels, so={"X0": X})) for f in CONTEXT))
            realized.append(frozenset(types))
        choices = []
        everything = range(len(members))
        for i in range(6 if tiny else 100):
            if i % 3 == 0:
                K = rng.sample(everything, rng.randint(1, len(members) - 1))
            else:
                covered = set().union(*(realized[c] for c in
                                        rng.sample(everything, rng.randint(1, 5))))
                K = [c for c in everything if realized[c] <= covered]
                if i % 3 == 2 and len(K) > 1:
                    # A closed class less a few members: those few are
                    # the counterexamples.
                    for c in rng.sample(K, min(3, len(K) - 1)):
                        K.remove(c)
            choices.append(sorted(K))
        burnside = sum(orc.burnside_classes(POOL_SIG, n) for n in range(1, nmax + 1))
        return {"nmax": nmax, "class_of": class_of, "realized": realized,
                "choices": choices, "burnside": burnside,
                "ops": [("choice", i) for i in range(len(choices))]}

    def setup(self, so, data):
        st, fm, to = so.structures, so.formulas, so.types_omitting
        sig = st.Signature.of(dict(POOL_SIG))
        ctx = to.TypeContext((1,), tuple(fm.parse(orc.to_text(f)) for f in CONTEXT))
        pool = st.models_up_to(fm.parse("ALL x x = x"), sig, data["nmax"])
        return ctx, pool

    def operations(self, so, data, prog):
        ctx, pool = prog
        to = so.types_omitting
        by_class = {data["class_of"].get(orc.plain_key(_plain(A))): A for A in pool}
        ops = []
        for K_ids in data["choices"]:
            K = [by_class[c] for c in K_ids if c in by_class]

            def both(K=K):
                property_a = to.property_A_check(K, pool, ctx)
                omitted = to.omitted_by_all(K, pool, ctx)
                return property_a, to.check_omission_axiomatization(K, omitted, pool, ctx)

            ops.append(("choice", both))
        return ops

    def answer(self, data, label, raw):
        property_a, report = raw

        def ids(structures):
            return tuple(sorted(data["class_of"].get(orc.plain_key(_plain(A)), -1)
                                for A in structures))

        return (property_a.ok, ids(property_a.counterexamples),
                report.ok, ids(report.unexplained),
                len(report.realized_in_k), len(report.not_pool_realized))

    def extras(self, so, data, prog):
        return [_plain(A) for A in prog[1]]

    def check(self, data, answers, pool):
        errors = []
        ids = [data["class_of"].get(orc.plain_key(A), -1) for A in pool]
        if len(pool) != data["burnside"] or sorted(ids) != list(range(data["burnside"])):
            errors.append(f"pool has {len(pool)} structures in {len(set(ids))} classes,"
                          f" Burnside counts {data['burnside']}")
        realized = data["realized"]
        for i, (K, got) in enumerate(zip(data["choices"], answers)):
            if got is None:
                continue
            inside = set(K)
            covered = set().union(*(realized[c] for c in K))
            counter = tuple(c for c in range(len(realized))
                            if c not in inside and realized[c] <= covered)
            want = (not counter, counter, not counter, counter, 0, 0)
            if got != want:
                errors.append(f"choice {i} (|K| = {len(K)}): got ok={got[0]}/{got[2]}"
                              f" with {len(got[1])}/{len(got[3])} counterexamples,"
                              f" want {len(counter)}")
        return errors


WORKLOADS = {w.name: w for w in (Fagin(), Transfer(), Semantics(), Pool())}
