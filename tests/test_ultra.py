import itertools
import random
import time

import pytest

from so_lab import formulas as fm
from so_lab import gen, ultra
from so_lab.errors import ArityBoundError, BudgetExceededError, ValidationError
from so_lab.formula_space import Fragment, theory_vector
from so_lab.structures import (
    EMPTY_SIGNATURE,
    FiniteStructure,
    Signature,
    all_relations,
    eval_so_full,
    find_isomorphism,
    relation_mask,
)
from so_lab.ultra import (
    DecomposableHenkinModel,
    Decomposition,
    Ultrafilter,
    UltraproductResult,
    build_ultrachain,
    check_fubini,
    check_los,
    full_henkin_model,
    henkin_eval,
    henkin_model,
    is_decomposable,
    product_member_definitional,
    product_ultrafilter,
    recompose,
    ultraproduct,
)
from so_lab.workbench import builtin

SIG = Signature.of({"p": 1, "edge": 2})


class Largeness:
    """An index-set stand-in whose member is any predicate, not only a
    principal one: the box of a decomposition is its literal largeness
    test, whatever the notion of largeness."""

    def __init__(self, size, member):
        self.size = size
        self.member = member


def majority(size):
    return Largeness(size, lambda subset: 2 * len(subset) > size)


def every_point(family, U):
    """An UltraproductResult over U whose classes are all the points of
    the product, one each, so that no index decides a box alone."""
    reps = tuple(itertools.product(*[range(A.size) for A in family]))
    return UltraproductResult(FiniteStructure(family[0].sig, len(reps)), reps,
                              tuple(family), U, True)


def assert_boxes_match_recompose(result, k):
    """Every factor choice's box mask equals recompose's box."""
    n = len(result.class_representatives)
    family = result.family
    large = ultra._largeness_table(result.ultrafilter)
    masks = list(ultra._box_masks(result, k, large))
    choices = itertools.product(*[all_relations(A.size, k) for A in family])
    assert masks == [relation_mask(n, k, recompose(Decomposition(k, combo), result))
                     for combo in choices]


def principal_pair():
    """The ultraproduct of two 2-element structures under principal:0."""
    return ultraproduct([FiniteStructure(SIG, 2)] * 2, Ultrafilter(2, 0))


def subsets(universe):
    for mask in range(2 ** len(universe)):
        yield {universe[i] for i in range(len(universe)) if mask >> i & 1}


class TestUltrafilter:
    def test_membership_is_principality(self):
        U = Ultrafilter(5, 2)
        assert U.member({2, 4}) and not U.member({0, 1, 3, 4})

    def test_axioms_exhaustively(self):
        # Complement dichotomy and single-step upward closure over every
        # subset, for every index set size up to 12.
        for m in range(1, 13):
            U = Ultrafilter(m, m // 2)
            for mask in range(2 ** m):
                members = {i for i in range(m) if mask >> i & 1}
                complement = set(range(m)) - members
                assert U.member(members) != U.member(complement)
                if U.member(members):
                    for extra in range(m):
                        assert U.member(members | {extra})

    def test_intersection_closure_small(self):
        for m in range(1, 7):
            U = Ultrafilter(m, m - 1)
            universe = list(range(m))
            big = [s for s in subsets(universe) if U.member(s)]
            for X in big:
                for Y in big:
                    assert U.member(X & Y)

    def test_literal_round_trip(self):
        U = Ultrafilter(4, 3)
        assert Ultrafilter.parse(U.literal(), 4) == U

    def test_bad_principal(self):
        with pytest.raises(ValidationError):
            Ultrafilter(3, 3)
        # True == 1 and 1.0 == 1, yet their literals would print them.
        for size, principal in ((True, False), (2, 1.0), (2.0, 0)):
            with pytest.raises(ValidationError, match="must be integers"):
                Ultrafilter(size, principal)


class TestProductUltrafilter:
    def test_principal_pairing(self):
        P = product_ultrafilter(Ultrafilter(2, 0), Ultrafilter(3, 1))
        assert P.size == 6 and P.principal == 0 * 3 + 1

    def test_single_pair_membership(self):
        F, G = Ultrafilter(2, 0), Ultrafilter(2, 1)
        X = {(0, 1)}
        assert product_member_definitional(F, G, X) is True
        P = product_ultrafilter(F, G)
        assert P.member({i * 2 + j for i, j in X})

    def test_exhaustive_agreement_3x3(self):
        F, G = Ultrafilter(3, 1), Ultrafilter(3, 2)
        P = product_ultrafilter(F, G)
        pairs = [(i, j) for i in range(3) for j in range(3)]
        for X in subsets(pairs):
            encoded = {i * 3 + j for i, j in X}
            assert P.member(encoded) == product_member_definitional(F, G, X)

    def test_exhaustive_agreement_all_small_sizes(self):
        for isize in (1, 2, 3):
            for jsize in (1, 2, 3):
                pairs = [(i, j) for i in range(isize) for j in range(jsize)]
                for fi in range(isize):
                    for gj in range(jsize):
                        F, G = Ultrafilter(isize, fi), Ultrafilter(jsize, gj)
                        P = product_ultrafilter(F, G)
                        for X in subsets(pairs):
                            encoded = {i * jsize + j for i, j in X}
                            assert P.member(encoded) == \
                                product_member_definitional(F, G, X)

    def test_product_literal_parse(self):
        P = Ultrafilter.parse("principal:1 x principal:2", 6, cols=3)
        assert P == product_ultrafilter(Ultrafilter(2, 1), Ultrafilter(3, 2))
        with pytest.raises(ValidationError, match="column count"):
            Ultrafilter.parse("principal:0 x principal:0", 6)
        with pytest.raises(ValidationError, match="rows"):
            Ultrafilter.parse("principal:0 x principal:0", 7, cols=3)
        # Only a product literal takes a column count.
        with pytest.raises(ValidationError, match="product ultrafilter literal"):
            Ultrafilter.parse("principal:1", 4, cols=2)


class TestUltraproduct:
    def test_principal_quotient_is_that_factor(self):
        rng = random.Random(0)
        A1 = gen.random_structure(rng, SIG, 2)
        A2 = gen.random_structure(rng, SIG, 3)
        result = ultraproduct([A1, A2], Ultrafilter(2, 1))
        assert result.quotient == A2

    def test_quotient_size(self):
        rng = random.Random(1)
        for _ in range(20):
            m = rng.randint(1, 3)
            family = gen.random_family(rng, SIG, m, 3)
            U = Ultrafilter(m, rng.randrange(m))
            result = ultraproduct(family, U)
            assert result.quotient.size == family[U.principal].size

    def test_explicit_matches_fast_path(self, monkeypatch):
        rng = random.Random(2)
        checked = 0
        while checked < 30:
            m = rng.randint(1, 3)
            family = gen.random_family(rng, SIG, m, 3)
            U = Ultrafilter(m, rng.randrange(m))
            n = family[U.principal].size
            if n == 1:
                continue
            explicit = ultraproduct(family, U)
            # A limit of n elements is below the n^2 the explicit path
            # charges at least, so the fast path answers.
            monkeypatch.setattr(ultra, "ULTRAPRODUCT_LIMIT", n)
            fast = ultraproduct(family, U)
            monkeypatch.undo()
            assert explicit.explicit and not fast.explicit
            assert explicit.quotient == fast.quotient
            assert explicit.class_representatives == fast.class_representatives
            checked += 1

    def test_family_size_mismatch(self):
        with pytest.raises(ValidationError, match="index set"):
            ultraproduct([FiniteStructure(SIG, 1)], Ultrafilter(2, 0))

    def test_explicit_budget(self, monkeypatch):
        # 3^4 = 81 tuples in the full product, and 3^2, the least n^k charged.
        family = [FiniteStructure(EMPTY_SIGNATURE, 3)] * 4
        monkeypatch.setattr(ultra, "ULTRAPRODUCT_LIMIT", 81)
        assert ultraproduct(family, Ultrafilter(4, 0)).explicit is True
        # Past the limit the route falls back to the fast path.
        monkeypatch.setattr(ultra, "ULTRAPRODUCT_LIMIT", 80)
        assert ultraproduct(family, Ultrafilter(4, 0)).explicit is False

    def test_automatic_route_within_the_isomorphism_budget(self, monkeypatch):
        # 500 elements: 500 tuples, but 500^2, the least n^k charged.
        A = FiniteStructure(EMPTY_SIGNATURE, 500)
        assert ultraproduct([A], Ultrafilter(1, 0)).explicit is False
        monkeypatch.setattr(ultra, "ULTRAPRODUCT_LIMIT", 500 ** 2)
        assert ultraproduct([A], Ultrafilter(1, 0)).explicit
        monkeypatch.undo()
        # 22 elements: 22 points, but 22^4 = 234,256 large-set tests for
        # the 4-ary relation, past the limit of 200,000.
        B = FiniteStructure(Signature.of({"r": 4}), 22, {"r": [(0, 1, 2, 3)]})
        start = time.perf_counter()
        result = ultraproduct([B], Ultrafilter(1, 0))
        assert result.explicit is False and result.quotient == B
        assert time.perf_counter() - start < 1

    def test_fast_path_budget(self, monkeypatch):
        # One class representative per element of the principal factor.
        monkeypatch.setattr(ultra, "ULTRAPRODUCT_LIMIT", 10)
        with pytest.raises(BudgetExceededError) as err:
            ultraproduct([FiniteStructure(EMPTY_SIGNATURE, 100)], Ultrafilter(1, 0))
        assert err.value.required == 100


class TestDecomposable:
    def test_pullback_factor_at_principal(self):
        rng = random.Random(3)
        family = gen.random_family(rng, SIG, 3, 3)
        U = Ultrafilter(3, 1)
        result = ultraproduct(family, U)
        rel = frozenset({(0,), (result.quotient.size - 1,)})
        dec = is_decomposable(rel, result, arity=1)
        assert dec is not None
        assert dec.factors[U.principal] == rel  # identity pullback here
        assert all(not dec.factors[i] for i in range(3) if i != U.principal)

    def test_round_trip_all_unary_relations(self):
        rng = random.Random(4)
        for size in (1, 2, 3):
            family = [gen.random_structure(rng, SIG, size),
                      gen.random_structure(rng, SIG, size)]
            result = ultraproduct(family, Ultrafilter(2, 0))
            for rel in all_relations(result.quotient.size, 1):
                dec = is_decomposable(rel, result, arity=1)
                assert dec is not None and recompose(dec, result) == rel

    def test_empty_relation(self):
        rng = random.Random(5)
        result = ultraproduct(gen.random_family(rng, SIG, 2, 2), Ultrafilter(2, 0))
        dec = is_decomposable(frozenset(), result, arity=2)
        assert dec is not None and all(not f for f in dec.factors)

    def test_recompose_by_hand(self):
        # Principal index 1: the box is the quotient tuples whose second
        # component lies in the second factor.
        A2, A3 = FiniteStructure(SIG, 2), FiniteStructure(SIG, 3)
        result = ultraproduct([A2, A3], Ultrafilter(2, 1))
        dec = Decomposition(1, (frozenset({(0,)}), frozenset({(2,)})))
        assert recompose(dec, result) == {(2,)}
        # Majority over three indices: only the second representative is
        # held by at least two factors.
        family = [FiniteStructure(SIG, 2)] * 3
        reps = ((0, 0, 0), (1, 1, 0), (0, 1, 1))
        result = UltraproductResult(FiniteStructure(SIG, 3), reps,
                                    tuple(family), majority(3), True)
        dec = Decomposition(1, (frozenset({(1,)}), frozenset({(1,)}), frozenset({(0,)})))
        assert recompose(dec, result) == {(1,)}
        dec = Decomposition(2, (frozenset({(1, 1), (0, 1)}), frozenset({(0, 1), (1, 0)}),
                                frozenset({(0, 1), (1, 1)})))
        assert recompose(dec, result) == {(0, 1), (0, 2)}

    def test_empty_relation_requires_arity(self):
        rng = random.Random(6)
        result = ultraproduct(gen.random_family(rng, SIG, 2, 2), Ultrafilter(2, 0))
        with pytest.raises(ValidationError):
            is_decomposable(frozenset(), result)

    # Every relation is decomposable under a principal ultrafilter, so a
    # member outside the quotient must be refused, not answered None.
    @pytest.mark.parametrize("rel", [{(-1,)}, {(5,)}, {("a",)}, {(True,)}, [5]],
                             ids=["negative", "past-the-end", "text", "bool", "no-tuple"])
    def test_relation_outside_the_quotient(self, rel):
        result = principal_pair()
        with pytest.raises(ValidationError, match="the relation holds"):
            is_decomposable(rel, result)

    def test_arity_taken_from_the_first_member(self):
        result = principal_pair()
        dec = is_decomposable({(1,)}, result)
        assert dec.arity == 1 and dec.factors == (frozenset({(1,)}), frozenset())

    @pytest.mark.parametrize("arity", [0, -1, 1.5, True])
    def test_arity_not_an_integer_of_at_least_one(self, arity):
        result = principal_pair()
        with pytest.raises(ValidationError, match="not an integer of at least 1"):
            is_decomposable(frozenset(), result, arity=arity)

    @pytest.mark.parametrize("count", [1, 3])
    def test_recompose_needs_one_factor_per_member(self, count):
        result = principal_pair()
        with pytest.raises(ValidationError, match=f"one factor per family member, not {count}"):
            recompose(Decomposition(1, (frozenset({(0,)}),) * count), result)

    def test_recompose_factor_outside_its_member(self):
        # The second factor is not read under principal:0, yet (7,) is no
        # relation on its 2-element member.
        result = principal_pair()
        with pytest.raises(ValidationError, match=r"factor 1 holds \(7,\), outside"):
            recompose(Decomposition(1, (frozenset({(0,)}), frozenset({(7,)}))), result)


class TestBoxMasks:
    """The box mask of each factor choice against recompose, choice by
    choice: under a principal ultrafilter the set of boxes is the full
    powerset whatever the boxes are, so only this catches a wrong box."""

    def test_principal_families(self):
        rng = random.Random(18)
        checked = 0
        while checked < 40:
            m = rng.randint(1, 3)
            family = gen.random_family(rng, SIG, m, 3)
            k = rng.choice((1, 2))
            if sum(A.size ** k for A in family) > 9:
                continue
            # Principal at every index, so that reversed index bits fail.
            for principal in range(m):
                assert_boxes_match_recompose(ultraproduct(family, Ultrafilter(m, principal)), k)
            checked += 1

    def test_majority(self):
        rng = random.Random(19)
        for sizes, k in (((2, 2, 2), 1), ((1, 2, 2), 1), ((2, 1, 1), 2), ((1, 2, 1, 2, 1), 1)):
            family = [gen.random_structure(rng, SIG, size) for size in sizes]
            assert_boxes_match_recompose(every_point(family, majority(len(family))), k)

    def test_arbitrary_largeness(self):
        # A seeded truth table over the subsets of the indices, neither
        # monotone nor symmetric.
        rng = random.Random(20)
        for sizes, k in (((2, 2, 2), 1), ((2, 1, 3), 1), ((1, 2, 1), 2), ((2, 2), 2)):
            family = [gen.random_structure(rng, SIG, size) for size in sizes]
            table = {frozenset(s): rng.random() < 0.5 for s in subsets(list(range(len(sizes))))}
            U = Largeness(len(sizes), lambda subset, table=table: table[frozenset(subset)])
            assert_boxes_match_recompose(every_point(family, U), k)


class TestHenkinModel:
    def test_full_powerset_base_two(self):
        A = FiniteStructure(SIG, 2)
        M = henkin_model([A], Ultrafilter(1, 0), 1)
        assert len(M.relations_of_arity(1)) == 4

    def test_upsilon_is_full_powerset_in_principal_cases(self):
        rng = random.Random(7)
        for _ in range(10):
            m = rng.randint(1, 3)
            family = gen.random_family(rng, SIG, m, 2)
            U = Ultrafilter(m, rng.randrange(m))
            M = henkin_model(family, U, 2)
            n = M.base.size
            for k in (1, 2):
                assert set(M.relations_of_arity(k)) == set(all_relations(n, k))

    def test_literal_box_enumeration_matches_shortcut(self, monkeypatch):
        # Deduplicated boxes over every factor choice vs the powerset.
        rng = random.Random(8)
        family = [gen.random_structure(rng, SIG, 2),
                  gen.random_structure(rng, SIG, 3)]
        U = Ultrafilter(2, 0)
        calls = []
        box_masks = ultra._box_masks
        monkeypatch.setattr(ultra, "_box_masks", lambda *args: calls.append(args[1])
                            or box_masks(*args))
        # 2^(2 + 3) factor choices are within LITERAL_ROUTE_CHOICES.
        literal = henkin_model(family, U, 1)
        assert calls == [1]
        assert literal.relations_of_arity(1) == all_relations(2, 1)
        assert len(literal.relations_of_arity(1)) == 4

    def test_budget_charged_per_arity_before_building(self, monkeypatch):
        A = FiniteStructure(SIG, 3)
        # Charged before the quotient is even built.
        monkeypatch.setattr(ultra, "ultraproduct", None)
        # 2^9 binary relations of up to 9 tuples each.
        with pytest.raises(BudgetExceededError) as err:
            henkin_model([A], Ultrafilter(1, 0), 2, budget=2 ** 9 * 9 - 1)
        assert err.value.required == 2 ** 9 * 9
        monkeypatch.undo()
        M = henkin_model([A], Ultrafilter(1, 0), 2, budget=2 ** 9 * 9)
        assert len(M.relations_of_arity(2)) == 2 ** 9

    def test_upsilon_deterministic_order(self):
        A = FiniteStructure(SIG, 2)
        M = full_henkin_model(A, 2)
        rels = M.relations_of_arity(2)
        masks = [relation_mask(2, 2, r) for r in rels]
        assert masks == sorted(masks)


class TestHenkinEval:
    def test_full_upsilon_equals_full_semantics(self):
        rng = random.Random(9)
        for _ in range(60):
            A = gen.random_structure(rng, SIG, rng.randint(1, 3))
            M = full_henkin_model(A, 2)
            f = gen.random_formula(rng, SIG, max_quant_depth=3,
                                   max_so=2, max_binary_so=1)
            assert henkin_eval(M, f) == eval_so_full(A, f)

    def test_empty_witness_universe(self):
        A = FiniteStructure(SIG, 2)
        result = ultraproduct([A], Ultrafilter(1, 0))
        M = DecomposableHenkinModel(result, {1: (frozenset(),)}, 1)
        assert henkin_eval(M, fm.parse("EX2 R:1 EX x R(x)")) is False

    def test_tautology_for_any_relation_universe(self):
        rng = random.Random(10)
        taut = fm.parse("ALL2 R:1 ((EX x R(x)) | (ALL x ~R(x)))")
        for _ in range(10):
            A = gen.random_structure(rng, SIG, rng.randint(1, 3))
            result = ultraproduct([A], Ultrafilter(1, 0))
            pool = list(all_relations(A.size, 1))
            chosen = tuple(rng.sample(pool, rng.randint(1, len(pool))))
            M = DecomposableHenkinModel(result, {1: chosen}, 1)
            assert henkin_eval(M, taut) is True

    def test_free_relation_variable_universally_closed(self):
        A = FiniteStructure(SIG, 2)
        M = full_henkin_model(A, 1)
        # Free X: true iff every unary relation on A is nonempty somewhere.
        assert henkin_eval(M, fm.parse("EX x X(x)")) is False
        assert henkin_eval(M, fm.parse("(EX x X(x)) | (ALL x ~X(x))")) is True

    def test_arity_bound_error(self):
        A = FiniteStructure(SIG, 2)
        M = full_henkin_model(A, 1)
        with pytest.raises(ArityBoundError):
            henkin_eval(M, fm.parse("EX2 R:2 EX x R(x,x)"))

    def test_negative_arity_bound(self):
        A = FiniteStructure(SIG, 2, {"p": [(0,)]})
        for build in (lambda: henkin_model([A], Ultrafilter(1, 0), -1),
                      lambda: full_henkin_model(A, -3)):
            with pytest.raises(ValidationError, match="at least 0, not -"):
                build()
        # Bound 0 still answers first-order sentences.
        assert henkin_eval(full_henkin_model(A, 0), fm.parse("EX x p(x)")) is True

    def test_non_integer_arity_bound(self):
        A = FiniteStructure(SIG, 2, {"p": [(0,)]})
        for bound in (True, 1.5, "1"):
            with pytest.raises(ValidationError, match="must be an integer"):
                henkin_model([A], Ultrafilter(1, 0), bound)

    def test_work_budget(self):
        A = FiniteStructure(SIG, 3)
        M = full_henkin_model(A, 2)
        f = fm.parse("EX2 R:2 EX2 S:2 (EX x (R(x,x) & S(x,x)))")
        with pytest.raises(BudgetExceededError):
            henkin_eval(M, f, budget=1000)

    def test_monotone_in_upsilon_for_homogeneous_prefixes(self):
        # Growing the relation universe can only turn an existential
        # prefix true and a universal prefix false.
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            A = gen.random_structure(rng, SIG, rng.randint(1, 3))
            pool = list(all_relations(A.size, 1))
            small = rng.sample(pool, rng.randint(1, len(pool)))
            large = small + [r for r in pool if r not in small]
            result = ultraproduct([A], Ultrafilter(1, 0))
            M_small = DecomposableHenkinModel(result, {1: tuple(small)}, 1)
            M_large = DecomposableHenkinModel(result, {1: tuple(large)}, 1)
            ext = Signature.of({**dict(SIG.relations), "R0": 1, "R1": 1})
            matrix = gen.random_formula(rng, ext, max_quant_depth=2,
                                        max_connectives=3, max_so=0,
                                        so_probability=0.0)
            exists = rng.random() < 0.5
            f = matrix
            for name in ("R1", "R0"):
                f = (fm.ExistsSO if exists else fm.ForallSO)(name, 1, f)
            before = henkin_eval(M_small, f)
            after = henkin_eval(M_large, f)
            if exists:
                assert before <= after
            else:
                assert after <= before
            checked += 1


class TestCheckLos:
    def test_first_order_principal(self):
        rng = random.Random(12)
        family = gen.random_family(rng, SIG, 3, 3)
        U = Ultrafilter(3, 2)
        f = fm.parse("EX x EX y edge(x,y)")
        report = check_los(family, U, f)
        expected = eval_so_full(family[2], f)
        assert report.ultra_truth == expected == report.large_set_truth
        assert report.agree

    def test_first_order_sentence_builds_no_relation_universe(self, monkeypatch):
        family = [FiniteStructure(SIG, 2, {"p": [(0,)]}), FiniteStructure(SIG, 3),
                  FiniteStructure(SIG, 2, {"p": [(1,)], "edge": [(1, 0)]})]
        f = fm.parse("EX x (p(x) & (ALL y ~edge(y, x)))")

        def no_boxes(*args):
            raise AssertionError("a relation universe was materialised")

        monkeypatch.setattr(ultra, "_box_masks", no_boxes)
        assert check_los(family, Ultrafilter(3, 0), f) == ultra.LosReport(
            True, True, True, (0, 2))
        assert check_los(family, Ultrafilter(3, 1), f) == ultra.LosReport(
            False, False, True, (0, 2))

    def test_infinity_formula_both_false(self):
        rng = random.Random(13)
        family = gen.random_family(rng, SIG, 4, 3)
        report = check_los(family, Ultrafilter(4, 1), builtin("infinite").formula)
        assert report.ultra_truth is False and report.large_set_truth is False
        assert report.agree

    def test_randomised_agreement(self):
        rng = random.Random(14)
        for _ in range(150):
            m = rng.randint(1, 4)
            family = gen.random_family(rng, SIG, m, 3)
            U = Ultrafilter(m, rng.randrange(m))
            f = gen.random_formula(rng, SIG, max_quant_depth=3,
                                   max_so=2, max_binary_so=1)
            assert check_los(family, U, f).agree


    def test_one_budget_for_both_sides(self, monkeypatch):
        family = gen.random_family(random.Random(15), SIG, 2, 3)
        f = fm.parse("EX2 R:1 ALL x (R(x) | ~p(x))")
        budgets = []
        for name in ("henkin_model", "henkin_eval", "eval_so_full"):
            def counted(*args, real=getattr(ultra, name), name=name, **kwargs):
                budgets.append((name, kwargs["budget"]))
                return real(*args, **kwargs)
            monkeypatch.setattr(ultra, name, counted)
        assert check_los(family, Ultrafilter(2, 0), f, budget=12345).agree
        assert set(budgets) == {("henkin_model", 12345), ("henkin_eval", 12345),
                                ("eval_so_full", 12345)}
        with pytest.raises(BudgetExceededError):
            check_los(family, Ultrafilter(2, 0), f, budget=1)
        with pytest.raises(TypeError):
            check_los(family, Ultrafilter(2, 0), f, relation_budget=12345)


class TestCheckFubini:
    def test_singleton_grid_identity(self):
        A = FiniteStructure(SIG, 3, {"p": [(0,)]})
        report = check_fubini([[A]], Ultrafilter(1, 0), Ultrafilter(1, 0))
        assert report.witness == (0, 1, 2)

    def test_principal_collapse_2x2(self):
        # Four pairwise distinguishable structures; both constructions
        # land on the principal cell.
        cells = [[FiniteStructure(SIG, 2, {"p": [(i,)], "edge": [(j, j)]})
                  for j in range(2)] for i in range(2)]
        F, G = Ultrafilter(2, 1), Ultrafilter(2, 0)
        report = check_fubini(cells, F, G)
        assert report.witness is not None
        flat_product = ultraproduct(
            [cells[i][j] for i in range(2) for j in range(2)],
            product_ultrafilter(F, G))
        assert flat_product.quotient == cells[1][0]

    def test_random_grids(self):
        rng = random.Random(15)
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 2)
            grid = [[gen.random_structure(rng, SIG, rng.randint(1, 3))
                     for _ in range(cols)] for _ in range(rows)]
            F = Ultrafilter(rows, rng.randrange(rows))
            G = Ultrafilter(cols, rng.randrange(cols))
            # Both constructions are the principal cell, and the witness
            # is its lexicographically least automorphism, the identity.
            principal = grid[F.principal][G.principal]
            assert check_fubini(grid, F, G).witness == find_isomorphism(principal, principal)

    def test_large_principal_factor_answers(self):
        # An isomorphism search would charge 500^2 pairs, past the
        # product budget; the two constructions are compared as equal.
        A = FiniteStructure(SIG, 500, {"p": [(0,)], "edge": [(1, 2)]})
        start = time.perf_counter()
        report = check_fubini([[A]], Ultrafilter(1, 0), Ultrafilter(1, 0))
        assert report.witness == tuple(range(500))
        assert time.perf_counter() - start < 5

    def test_bad_shape(self):
        with pytest.raises(ValidationError, match="shape"):
            check_fubini([[FiniteStructure(SIG, 1)]], Ultrafilter(2, 0),
                         Ultrafilter(1, 0))


class TestUltrachain:
    def test_empty_chain(self):
        A0 = FiniteStructure(SIG, 2, {"p": [(0,)]})
        chain = build_ultrachain(A0, [])
        assert chain.limit == A0 and chain.composed_embedding() == (0, 1)

    def test_principal_chain_collapses(self):
        rng = random.Random(16)
        A0 = gen.random_structure(rng, SIG, 3)
        filters = [Ultrafilter(2, 1), Ultrafilter(3, 0), Ultrafilter(2, 0)]
        chain = build_ultrachain(A0, filters)
        assert len(chain.stages) == 3
        for _, stage in chain.stages:
            assert find_isomorphism(stage, A0) is not None
        assert chain.limit == A0
        assert chain.composed_embedding() == tuple(range(A0.size))

    def test_limit_agreement_on_sentence_corpus(self):
        # Truth transfers from the base to the Henkin view of the limit.
        rng = random.Random(17)
        A0 = gen.random_structure(rng, SIG, 3)
        chain = build_ultrachain(A0, [Ultrafilter(2, 0), Ultrafilter(2, 1)])
        M = full_henkin_model(chain.limit, 2)
        for _ in range(20):
            f = gen.random_formula(rng, SIG, max_quant_depth=3,
                                   max_so=2, max_binary_so=1)
            assert henkin_eval(M, f) == eval_so_full(A0, f)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Signature((("p", 1), ("p", 1))),
     ValidationError, "duplicate relation name in signature"),
    (lambda: Ultrafilter(0, 0), ValidationError, "index set must be nonempty"),
    (lambda: theory_vector(object(), Fragment(SIG, ())),
     ValidationError, "cannot take a theory vector of object"),
    (lambda: full_henkin_model(FiniteStructure(SIG, 1), 1).relations_of_arity(2),
     ArityBoundError, "arity 2 exceeds the materialised bound 1"),
], ids=["duplicate-symbol", "empty-index-set", "theory-vector-of-object", "past-arity-bound"])
def test_input_faults(make, error, message):
    with pytest.raises(error, match=message):
        make()
