import gc
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import so_lab
from so_lab import formulas as fm
from so_lab import gen
from so_lab.errors import BudgetExceededError, ValidationError
from so_lab.structures import (
    EMPTY_SIGNATURE,
    GRAPH_SIGNATURE,
    Assignment,
    FiniteStructure,
    Signature,
    canonical_key,
    eval_fo,
    eval_so_full,
    find_isomorphism,
    is_isomorphism,
    iter_structures,
    models_up_to,
    relation_mask,
    tuple_space,
)
from so_lab.structures import _heap_steps
from so_lab.workbench import builtin, cycle_graph, double_cycle

MIXED = Signature.of({"p": 1, "edge": 2})


def edge_pair(n=2, edges=((0, 1),)):
    return FiniteStructure(GRAPH_SIGNATURE, n, {"edge": edges})


class TestFiniteStructure:
    def test_tuple_length_checked(self):
        with pytest.raises(ValidationError, match="length"):
            FiniteStructure(GRAPH_SIGNATURE, 2, {"edge": [(0, 1, 1)]})

    def test_range_checked(self):
        with pytest.raises(ValidationError, match="range"):
            FiniteStructure(GRAPH_SIGNATURE, 2, {"edge": [(0, 2)]})

    def test_boolean_element_rejected(self):
        # True == 1, so a structure holding it would equal one holding 1
        # and yet serialize differently.
        with pytest.raises(ValidationError, match="range"):
            FiniteStructure(GRAPH_SIGNATURE, 2, {"edge": [(0, True)]})
        with pytest.raises(ValidationError, match="range"):
            FiniteStructure.from_json('{"universe": 2, "signature": {"p": 1},'
                                      ' "relations": {"p": [[true]]}}')
        # Sizes and arities are integers too: True would equal the size-1
        # structure yet print "universe": true, and 2.0 would fail later.
        for size in (True, 2.0, "2"):
            with pytest.raises(ValidationError, match="must be an integer"):
                FiniteStructure(EMPTY_SIGNATURE, size)
        for arity in (True, 2.0):
            with pytest.raises(ValidationError, match="not an integer of at least 1"):
                Signature.of({"p": arity})

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValidationError, match="not in signature"):
            FiniteStructure(GRAPH_SIGNATURE, 2, {"blue": [(0,)]})

    def test_member_neither_a_list_nor_a_tuple(self):
        with pytest.raises(ValidationError, match="relation 'p' holds 5, not a tuple"):
            FiniteStructure(Signature.of({"p": 1}), 2, {"p": [5]})
        with pytest.raises(ValidationError, match="relation 'p' holds 5, not a tuple"):
            FiniteStructure.from_json('{"universe": 2, "signature": {"p": 1},'
                                      ' "relations": {"p": [5]}}')

    def test_unhashable_element_refused_before_hashing(self):
        with pytest.raises(ValidationError, match=r"relation 'edge' holds \(0, \[1\]\)"):
            FiniteStructure(GRAPH_SIGNATURE, 2, {"edge": [[0, [1]]]})

    def test_missing_relation_means_empty(self):
        A = FiniteStructure(GRAPH_SIGNATURE, 2)
        assert A.rels["edge"] == frozenset()

    def test_empty_universe_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            FiniteStructure(GRAPH_SIGNATURE, 0)

    def test_value_equality_and_hash(self):
        A = edge_pair()
        B = FiniteStructure(GRAPH_SIGNATURE, 2, {"edge": {(0, 1)}})
        assert A == B and hash(A) == hash(B)
        assert A != edge_pair(edges=((1, 0),))

    def test_json_round_trip(self):
        A = cycle_graph(4)
        again = FiniteStructure.from_json(A.to_json())
        assert again == A
        data = json.loads(A.to_json())
        assert data["universe"] == 4 and data["signature"] == {"edge": 2}


class TestEvalFo:
    def test_exists_edge(self):
        assert eval_fo(edge_pair(), fm.parse("EX x EX y edge(x,y)")) is True

    def test_reflexivity_fails(self):
        assert eval_fo(edge_pair(), fm.parse("ALL x edge(x,x)")) is False

    def test_at_least_two_on_singleton(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 1)
        assert eval_fo(A, builtin("at_least:2").formula) is False

    def test_rejects_so_quantifier(self):
        with pytest.raises(ValidationError):
            eval_fo(edge_pair(), fm.parse("EX2 R:1 EX x R(x)"))

    def test_unassigned_free_variable(self):
        with pytest.raises(ValidationError, match="unassigned"):
            eval_fo(edge_pair(), fm.parse("edge(x,y)"))

    def test_assignment_supplies_values(self):
        asg = Assignment({"x": 0, "y": 1}, {})
        assert eval_fo(edge_pair(), fm.parse("edge(x,y)"), asg) is True


class TestEvalSoFull:
    def test_infinity_false_on_small_structures(self):
        psi = builtin("infinite").formula
        for n in range(1, 5):
            assert eval_so_full(FiniteStructure(EMPTY_SIGNATURE, n), psi) is False

    def test_hamiltonian_on_c4_and_d3(self):
        ham = builtin("hamiltonian").formula
        assert eval_so_full(cycle_graph(4), ham) is True
        assert eval_so_full(double_cycle(3), ham) is False

    def test_budget_error_reports_quantifier(self):
        f = fm.parse("EX2 R:2 ALL2 S:1 (EX x (R(x,x) | S(x)))")  # mixed prefix
        A = FiniteStructure(EMPTY_SIGNATURE, 3)
        with pytest.raises(BudgetExceededError) as err:
            eval_so_full(A, f, budget=100)
        assert err.value.required == 2 ** 9 and "R" in str(err.value)

    def test_sat_path_is_charged_its_tuple_variables(self):
        f = fm.parse("EX2 X:2 ALL x X(x, x)")
        A = FiniteStructure(EMPTY_SIGNATURE, 4)
        assert eval_so_full(A, f, budget=16) is True
        with pytest.raises(BudgetExceededError, match="16 tuple variables") as err:
            eval_so_full(A, f, budget=15)
        assert err.value.required == 16

    def test_agrees_with_eval_fo_on_delta0(self):
        rng = random.Random(3)
        for _ in range(200):
            f = gen.random_formula(rng, MIXED, max_quant_depth=3,
                                   max_so=0, so_probability=0.0)
            A = gen.random_structure(rng, MIXED, rng.randint(1, 3))
            assert eval_fo(A, f) == eval_so_full(A, f)

    def test_isomorphism_invariance(self):
        rng = random.Random(4)
        for _ in range(40):
            A = gen.random_structure(rng, MIXED, rng.randint(1, 3))
            perm = list(range(A.size))
            rng.shuffle(perm)
            B = FiniteStructure(MIXED, A.size, {
                name: {tuple(perm[x] for x in t) for t in A.rels[name]}
                for name in MIXED.names
            })
            f = gen.random_formula(rng, MIXED, max_quant_depth=3,
                                   max_so=1, max_binary_so=1)
            assert eval_so_full(A, f) == eval_so_full(B, f)

    def test_at_least_matches_cardinality(self):
        for n in range(1, 6):
            f = builtin(f"at_least:{n}").formula
            for size in range(1, 6):
                A = FiniteStructure(EMPTY_SIGNATURE, size)
                assert eval_so_full(A, f) == (size >= n)


class TestFindIsomorphism:
    def test_rotated_cycle(self):
        C4 = cycle_graph(4)
        rot = FiniteStructure(GRAPH_SIGNATURE, 4, {
            "edge": {((u + 1) % 4, (v + 1) % 4) for u, v in C4.rels["edge"]}
        })
        mapping = find_isomorphism(C4, rot)
        assert mapping is not None and is_isomorphism(C4, rot, mapping)

    def test_witness_is_lexicographically_least(self):
        A = edge_pair(2, [])
        mapping = find_isomorphism(A, A)
        assert mapping == (0, 1)
        # Against the least of all permutations, on seeded pairs that are
        # often isomorphic: B is a relabelling of A, sometimes with an
        # edge added or removed.
        rng = random.Random(21)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            A = gen.random_structure(rng, MIXED, n, density=rng.choice((0.3, 0.5)))
            perm = rng.sample(range(n), n)
            rels = {name: {tuple(perm[x] for x in t) for t in A.rels[name]}
                    for name in A.sig.names}
            roll = rng.random()
            if roll < 0.15:
                rels["edge"].add((rng.randrange(n), rng.randrange(n)))
            elif roll < 0.3 and rels["edge"]:
                rels["edge"].remove(min(rels["edge"]))
            B = FiniteStructure(MIXED, n, rels)
            least = next((image for image in itertools.permutations(range(n))
                          if is_isomorphism(A, B, image)), None)
            assert find_isomorphism(A, B) == least
            found += least is not None
        assert found > 200

    def test_c6_vs_two_triangles(self):
        assert find_isomorphism(cycle_graph(6), double_cycle(3)) is None

    def test_different_sizes(self):
        assert find_isomorphism(cycle_graph(4), cycle_graph(5)) is None

    def test_signature_mismatch(self):
        with pytest.raises(ValidationError, match="signature"):
            find_isomorphism(cycle_graph(3), FiniteStructure(MIXED, 3))

    def test_search_budget(self):
        # n^2 pairs are charged against a fixed 200,000 before any
        # per-element work; unequal sizes are answered without a search.
        A = FiniteStructure(EMPTY_SIGNATURE, 448)
        with pytest.raises(BudgetExceededError) as err:
            find_isomorphism(A, A)
        assert err.value.required == 200704
        A = FiniteStructure(EMPTY_SIGNATURE, 447)
        assert find_isomorphism(A, A) == tuple(range(447))
        huge = FiniteStructure(EMPTY_SIGNATURE, 10 ** 8)
        assert find_isomorphism(A, huge) is None
        with pytest.raises(BudgetExceededError):
            find_isomorphism(huge, huge)

    def test_symmetry(self):
        rng = random.Random(8)
        for _ in range(60):
            A = gen.random_structure(rng, MIXED, rng.randint(1, 4))
            B = gen.random_structure(rng, MIXED, A.size)
            ab = find_isomorphism(A, B)
            ba = find_isomorphism(B, A)
            assert (ab is None) == (ba is None)
            if ab is not None:
                assert is_isomorphism(A, B, ab) and is_isomorphism(B, A, ba)

    def test_canonical_key_matches_isomorphism(self):
        rng = random.Random(9)
        for _ in range(40):
            A = gen.random_structure(rng, MIXED, rng.randint(1, 3))
            B = gen.random_structure(rng, MIXED, rng.randint(1, 3))
            same = canonical_key(A) == canonical_key(B)
            assert same == (find_isomorphism(A, B) is not None
                            if A.size == B.size else False)


class TestModelsUpTo:
    @pytest.mark.parametrize("nmax", [True, 1.5, "2"])
    def test_size_not_an_integer(self, nmax):
        with pytest.raises(ValidationError, match="must be an integer"):
            models_up_to(fm.parse("ALL x x = x"), EMPTY_SIGNATURE, nmax)

    def test_cardinality_formula_over_empty_signature(self):
        out = models_up_to(builtin("at_least:3").formula, EMPTY_SIGNATURE, 4)
        assert [A.size for A in out] == [3, 4]

    def test_reflexive_models(self):
        f = fm.parse("ALL x edge(x,x)")
        out = models_up_to(f, GRAPH_SIGNATURE, 2)
        assert all((x, x) in A.rels["edge"] for A in out for x in range(A.size))
        # Oracle: direct enumeration with first-order evaluation, then
        # one representative per isomorphism class.
        expected = set()
        for n in (1, 2):
            for A in iter_structures(GRAPH_SIGNATURE, n):
                if eval_fo(A, f):
                    expected.add(canonical_key(A))
        assert {canonical_key(A) for A in out} == expected
        assert len(out) == len(expected)

    def test_unsatisfiable(self):
        assert models_up_to(fm.parse("EX x x != x"), EMPTY_SIGNATURE, 3) == []

    def test_deterministic_order(self):
        f = fm.parse("EX x EX y edge(x,y)")
        assert models_up_to(f, GRAPH_SIGNATURE, 2) == models_up_to(f, GRAPH_SIGNATURE, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            models_up_to(fm.parse("ALL x edge(x,x)"), GRAPH_SIGNATURE, 3, budget=100)

    def test_huge_universe_stops_before_counting(self):
        # 2^(10^10) candidate structures: the exponent is compared with
        # the budget, so no such number is built.  A separate process
        # with capped memory and time, so that a regression fails
        # instead of exhausting the machine.
        script = ("from so_lab.structures import GRAPH_SIGNATURE, iter_structures\n"
                  "next(iter_structures(GRAPH_SIGNATURE, 10 ** 5))\n")
        src = str(Path(so_lab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=20, preexec_fn=cap_memory)
        assert time.perf_counter() - start < 5
        assert "BudgetExceededError" in done.stderr and "2^(100000^2)" in done.stderr

    def test_relabellings_are_charged_against_the_budget(self):
        # 11! relabellings exceed the budget of 2^24 and 10! do not; the
        # product stops once past the budget, so a huge universe is
        # refused as fast as a small one.
        for n in (12, 10 ** 6):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError, match=f"{n}! permutations"):
                canonical_key(FiniteStructure(EMPTY_SIGNATURE, n))
            assert time.perf_counter() - start < 1
        # Every permutation fixes a structure whose relations are each
        # empty or full, so its key is found without walking the 10!.
        start = time.perf_counter()
        assert canonical_key(FiniteStructure(EMPTY_SIGNATURE, 10)) == (10, ())
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        full = FiniteStructure(GRAPH_SIGNATURE, 10, {"edge": tuple_space(10, 2)})
        assert canonical_key(full) == (10, (2 ** 100 - 1,))
        assert time.perf_counter() - start < 1
        f = fm.parse("ALL x x = x")
        assert len(models_up_to(f, EMPTY_SIGNATURE, 3, budget=10)) == 3
        with pytest.raises(BudgetExceededError, match="4! permutations"):
            models_up_to(f, EMPTY_SIGNATURE, 4, budget=10)


def _least_relabelling(A):
    """canonical_key by brute force: the least masks of A's relabellings
    over itertools.permutations, apart from the walk the library uses."""
    n = A.size
    return (n, min(tuple(relation_mask(n, k, {tuple(perm[x] for x in t) for t in A.rels[name]})
                         for name, k in A.sig.relations)
                   for perm in itertools.permutations(range(n))))


def _models_by_seen_set(f, sig, nmax):
    """models_up_to as a seen set of brute-force keys: the first
    structure of each class in iter_structures' order that is a model."""
    out = []
    for n in range(1, nmax + 1):
        seen = set()
        for A in iter_structures(sig, n):
            key = _least_relabelling(A)
            if key in seen:
                continue
            seen.add(key)
            if eval_so_full(A, f):
                out.append(A)
    return out


@pytest.mark.parametrize("text, sig, nmax", [
    ("ALL x x = x", GRAPH_SIGNATURE, 3),
    ("ALL x x = x", MIXED, 3),
    ("ALL x x = x", EMPTY_SIGNATURE, 6),
    ("ALL x ~edge(x,x)", GRAPH_SIGNATURE, 3),
    # Ternary tuples go through their own transposition tables.
    ("ALL x x = x", Signature.of({"t": 3}), 2),
    # Ties in the first relation's mask leave the second to decide.
    ("ALL x x = x", Signature.of({"u": 1, "v": 1}), 4),
])
def test_models_up_to_matches_the_seen_set(text, sig, nmax):
    f = fm.parse(text)
    assert models_up_to(f, sig, nmax) == _models_by_seen_set(f, sig, nmax)


@pytest.mark.parametrize("sig, nmax", [
    (MIXED, 3),
    (Signature.of({"t": 3}), 2),
    (Signature.of({"u": 1, "v": 1}), 4),
])
def test_canonical_key_is_the_least_relabelling(sig, nmax):
    for n in range(1, nmax + 1):
        for A in iter_structures(sig, n):
            assert canonical_key(A) == _least_relabelling(A)


@pytest.mark.parametrize("n", range(1, 7))
def test_heap_steps_reach_every_permutation_once(n):
    pairs = [(a, b) for b in range(n) for a in range(b)]
    perm = list(range(n))
    reached = [tuple(perm)]
    for step in _heap_steps(n):
        a, b = pairs[step]
        perm = [b if x == a else a if x == b else x for x in perm]
        reached.append(tuple(perm))
    assert len(reached) == math.factorial(n)
    assert sorted(reached) == list(itertools.permutations(range(n)))


def test_canonical_key_keeps_no_swap_string():
    # The walk of the 9! relabellings takes 362,879 Heap steps; none of
    # them may outlive the call.  Tracing slows the walk about twentyfold.
    cycle = FiniteStructure(GRAPH_SIGNATURE, 9, {"edge": [(i, (i + 1) % 9) for i in range(9)]})
    gc.collect()
    tracemalloc.start()
    try:
        canonical_key(cycle)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 100_000


@pytest.mark.parametrize("text, nmax, counts", [
    # OEIS A000595: binary relations (digraphs with loops) on n nodes.
    ("ALL x x = x", 3, [2, 10, 104]),
    # OEIS A000273: digraphs without loops on n nodes.
    ("ALL x ~edge(x,x)", 4, [1, 3, 16, 218]),
    # A000595 again, to the 65,536 labelled relations of size 4.
    ("ALL x x = x", 4, [2, 10, 104, 3044]),
])
def test_models_up_to_counts_the_published_classes(text, nmax, counts):
    sizes = [A.size for A in models_up_to(fm.parse(text), GRAPH_SIGNATURE, nmax)]
    assert [sizes.count(n) for n in range(1, nmax + 1)] == counts
