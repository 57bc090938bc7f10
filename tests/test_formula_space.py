import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hyp

from so_lab import formulas as fm
from so_lab import gen
from so_lab.errors import BudgetExceededError, ValidationError
from so_lab.formula_space import (
    Fragment,
    TheoryVector,
    boolean_closure,
    find_separating_formula,
    set_distance,
    theory_vector,
    ultrametric,
    vector_set,
)
from so_lab.structures import (
    EMPTY_SIGNATURE,
    GRAPH_SIGNATURE,
    FiniteStructure,
    Signature,
    eval_so_full,
    find_isomorphism,
)
from so_lab.ultra import full_henkin_model
from so_lab.workbench import builtin, cycle_graph, graph_structure

SIG = Signature.of({"p": 1, "edge": 2})


def at_least_fragment(*counts):
    return Fragment(EMPTY_SIGNATURE,
                    tuple(builtin(f"at_least:{n}").formula for n in counts))


class TestFragment:
    def test_duplicates_rejected(self):
        f = fm.parse("EX x x = x")
        with pytest.raises(ValidationError, match="duplicate"):
            Fragment(EMPTY_SIGNATURE, (f, f))

    def test_open_formula_rejected(self):
        with pytest.raises(ValidationError):
            Fragment(GRAPH_SIGNATURE, (fm.parse("edge(x,y)"),))

    def test_string_round_trip(self):
        frag = at_least_fragment(2, 3)
        again = Fragment.from_strings([fm.print_formula(f) for f in frag], EMPTY_SIGNATURE)
        assert again == frag

    def test_hand_built_tree_too_deep(self):
        # Refused before the duplicate check hashes it.
        f = fm.ExistsFO("x", fm.Atom("p", ("x",)))
        for _ in range(3000):
            f = fm.Not(f)
        with pytest.raises(ValidationError, match="nested more than 100 levels deep"):
            Fragment(Signature.of({"p": 1}), (f,))


class TestTheoryVector:
    def test_cardinality_fragment(self):
        frag = at_least_fragment(2, 3)
        v = theory_vector(FiniteStructure(EMPTY_SIGNATURE, 2), frag)
        assert v.bits == (1, 0)

    def test_infinity_always_zero(self):
        frag = Fragment(EMPTY_SIGNATURE, (builtin("infinite").formula,))
        for n in (1, 3, 5):
            v = theory_vector(FiniteStructure(EMPTY_SIGNATURE, n), frag)
            assert v.bits == (0,)

    def test_henkin_models_read_the_budget(self):
        frag = Fragment(SIG, (fm.parse("EX2 R:1 EX x R(x)"),))
        M = full_henkin_model(FiniteStructure(SIG, 2), 1)
        assert vector_set([M], frag, budget=4).vectors == {TheoryVector((1,))}
        with pytest.raises(BudgetExceededError) as err:
            vector_set([M], frag, budget=1)
        assert err.value.required == 2

    def test_full_henkin_model_matches_base(self):
        rng = random.Random(0)
        formulas = tuple(gen.formula_corpus(21, 6, SIG, max_quant_depth=2,
                                            max_so=1, max_binary_so=1))
        frag = Fragment(SIG, formulas)
        for _ in range(10):
            A = gen.random_structure(rng, SIG, rng.randint(1, 3))
            M = full_henkin_model(A, 2)
            assert theory_vector(M, frag) == theory_vector(A, frag)

    def test_isomorphism_invariance(self):
        rng = random.Random(1)
        frag = Fragment(SIG, tuple(gen.formula_corpus(22, 5, SIG, max_quant_depth=2,
                                                      max_so=1, max_binary_so=0)))
        for _ in range(20):
            A = gen.random_structure(rng, SIG, rng.randint(1, 3))
            perm = list(range(A.size))
            rng.shuffle(perm)
            B = FiniteStructure(SIG, A.size, {
                name: {tuple(perm[x] for x in t) for t in A.rels[name]}
                for name in SIG.names
            })
            assert find_isomorphism(A, B) is not None
            assert theory_vector(A, frag) == theory_vector(B, frag)


class TestUltrametric:
    def test_equal_vectors(self):
        assert ultrametric(TheoryVector((1, 0)), TheoryVector((1, 0))) == 0

    def test_first_disagreement_at_three(self):
        x = TheoryVector((1, 0, 1, 0, 1))
        y = TheoryVector((1, 0, 1, 1, 0))
        assert ultrametric(x, y) == Fraction(1, 8)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ultrametric(TheoryVector((1,)), TheoryVector((1, 0)))

    @pytest.mark.parametrize("x, y", [((1,), TheoryVector((1,))), (TheoryVector((1,)), (1,)),
                                      (1, TheoryVector((1,)))], ids=["x-tuple", "y-tuple", "x-int"])
    def test_not_a_theory_vector(self, x, y):
        with pytest.raises(ValidationError, match="not a TheoryVector"):
            ultrametric(x, y)

    @settings(max_examples=300, deadline=None)
    @given(hyp.lists(hyp.tuples(hyp.integers(0, 1), hyp.integers(0, 1),
                                hyp.integers(0, 1)),
                     min_size=5, max_size=5))
    def test_strong_triangle(self, rows):
        vectors = [TheoryVector(bits) for bits in rows]
        for x in vectors:
            for y in vectors:
                for z in vectors:
                    assert ultrametric(x, z) <= max(ultrametric(x, y),
                                                    ultrametric(y, z))


class TestSetDistance:
    def test_shared_singleton(self):
        frag = at_least_fragment(2)
        S = vector_set([FiniteStructure(EMPTY_SIGNATURE, 2)], frag)
        assert set_distance(S, S) == 0

    def test_disjoint_singletons_differ_at_zero(self):
        frag = at_least_fragment(2)
        S = vector_set([FiniteStructure(EMPTY_SIGNATURE, 1)], frag)
        T = vector_set([FiniteStructure(EMPTY_SIGNATURE, 2)], frag)
        assert set_distance(S, T) == 1

    def test_small_vs_large_structures(self):
        # Expected value computed by enumerating the vectors of every
        # structure size up to 4 and minimising pairwise distances.
        frag = at_least_fragment(2, 3, 4)
        small = [FiniteStructure(EMPTY_SIGNATURE, n) for n in (1, 2)]
        large = [FiniteStructure(EMPTY_SIGNATURE, n) for n in (3, 4)]
        S = vector_set(small, frag)
        T = vector_set(large, frag)
        expected = min(
            ultrametric(theory_vector(a, frag), theory_vector(b, frag))
            for a in small for b in large
        )
        assert set_distance(S, T) == expected == Fraction(1, 2)

    def test_empty_set_is_an_error(self):
        frag = at_least_fragment(2)
        S = vector_set([FiniteStructure(EMPTY_SIGNATURE, 1)], frag)
        with pytest.raises(ValidationError, match="empty"):
            set_distance(S, vector_set([], frag))

    def test_sets_over_different_fragments(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 2)
        S = vector_set([A], at_least_fragment(2))
        T = vector_set([A], at_least_fragment(2, 3))
        with pytest.raises(ValidationError, match="vectors over different fragments"):
            set_distance(S, T)

    def test_positive_iff_disjoint(self):
        rng = random.Random(2)
        frag = Fragment(SIG, tuple(gen.formula_corpus(23, 4, SIG, max_quant_depth=2,
                                                      max_so=1, max_binary_so=0)))
        for _ in range(40):
            K = gen.random_family(rng, SIG, rng.randint(1, 3), 3)
            L = gen.random_family(rng, SIG, rng.randint(1, 3), 3)
            kv, lv = vector_set(K, frag), vector_set(L, frag)
            assert (set_distance(kv, lv) > 0) == (not (kv.vectors & lv.vectors))


class TestFindSeparatingFormula:
    def test_cardinality_split(self):
        frag = at_least_fragment(2, 3)
        K = [FiniteStructure(EMPTY_SIGNATURE, 3)]
        L = [FiniteStructure(EMPTY_SIGNATURE, 2)]
        sep = find_separating_formula(K, L, frag)
        assert sep is not None
        assert all(eval_so_full(A, sep) for A in K)
        assert not any(eval_so_full(B, sep) for B in L)

    def test_identical_classes(self):
        frag = at_least_fragment(2)
        K = [FiniteStructure(EMPTY_SIGNATURE, 2)]
        assert find_separating_formula(K, K, frag) is None

    def test_hamiltonicity_separates_cycles_from_double_edges(self):
        ham = builtin("hamiltonian").formula
        frag = Fragment(GRAPH_SIGNATURE, (ham,))
        # Two disjoint 2-cycles: below the builder's domain, constructed
        # directly from its edge pairs.
        d2 = graph_structure(4, [(0, 1), (2, 3)])
        sep = find_separating_formula([cycle_graph(4)], [d2], frag)
        assert sep == ham

    def test_separator_iff_disjoint_vectors(self):
        rng = random.Random(3)
        frag = Fragment(SIG, tuple(gen.formula_corpus(24, 4, SIG, max_quant_depth=2,
                                                      max_so=1, max_binary_so=0)))
        for _ in range(40):
            K = gen.random_family(rng, SIG, rng.randint(1, 3), 3)
            L = gen.random_family(rng, SIG, rng.randint(1, 3), 3)
            kv, lv = vector_set(K, frag), vector_set(L, frag)
            sep = find_separating_formula(K, L, frag)
            assert (sep is not None) == (not (kv.vectors & lv.vectors))
            if sep is not None:
                assert all(eval_so_full(A, sep) for A in K)
                assert not any(eval_so_full(B, sep) for B in L)


class TestBooleanClosure:
    def test_depth_zero(self):
        frag = at_least_fragment(2, 3)
        assert boolean_closure(frag, 0) == frag

    @pytest.mark.parametrize("depth", [-1, 1.5, True])
    def test_depth_not_an_integer_of_at_least_zero(self, depth):
        with pytest.raises(ValidationError, match="integer of at least 0"):
            boolean_closure(at_least_fragment(2), depth)

    def test_single_formula_depth_one(self):
        g0 = fm.parse("EX x x = x")
        closed = boolean_closure(Fragment(EMPTY_SIGNATURE, (g0,)), 1)
        assert closed.formulas == (g0, fm.Not(g0), fm.And(g0, g0), fm.Or(g0, g0))

    def test_original_order_is_prefix(self):
        frag = at_least_fragment(2, 3)
        closed = boolean_closure(frag, 1)
        assert closed.formulas[:2] == frag.formulas
        assert len(closed.formulas) == 12

    def test_recompute_is_identical(self):
        rng = random.Random(4)
        for _ in range(10):
            base = tuple(gen.formula_corpus(rng.randrange(10 ** 6), 2, SIG,
                                            max_quant_depth=2, max_so=0,
                                            so_probability=0.0))
            frag = Fragment(SIG, base)
            assert boolean_closure(frag, 1) == boolean_closure(frag, 1)

    def test_budget(self):
        # 1,179 formulas at depth 2; depth 3 passes the fixed 4,096.
        frag = at_least_fragment(2, 3, 4)
        assert len(boolean_closure(frag, 2)) == 1179
        with pytest.raises(BudgetExceededError) as err:
            boolean_closure(frag, 3)
        assert err.value.required == 4097
