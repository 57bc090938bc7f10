import gc
import random
import weakref

import pytest

from so_lab import formulas as fm
from so_lab import gen
from so_lab import types_omitting
from so_lab.errors import BudgetExceededError, ValidationError
from so_lab.structures import (
    DEFAULT_RELATION_BUDGET,
    EMPTY_SIGNATURE,
    FiniteStructure,
    Signature,
    models_up_to,
    relation_count,
)
from so_lab.types_omitting import (
    TwoType,
    TypeContext,
    check_omission_axiomatization,
    omits,
    omitted_by_all,
    property_A_check,
    realized_types,
)
from so_lab.workbench import cycle_graph

POOL_SIG = Signature.of({"u": 1, "edge": 2})
GRAPH = Signature.of({"edge": 2})


def unary_ctx(*formulas):
    return TypeContext((1,), tuple(fm.parse(s) for s in formulas))


SIMPLE = unary_ctx("EX x X0(x)")
TWO_ELT = unary_ctx("EX x EX y (x != y & X0(x) & X0(y))")


def small_pool(nmax=2):
    return models_up_to(fm.parse("ALL x x = x"), POOL_SIG, nmax)


class TestTypeContext:
    def test_json_round_trip(self):
        ctx = TypeContext((1, 2), (fm.parse("EX x X0(x)"),
                                   fm.parse("EX x X1(x,x)")))
        assert TypeContext.from_json_dict(ctx.to_json_dict()) == ctx

    def test_cached_hash_is_the_structural_hash(self):
        ctx = TypeContext((1, 2), (fm.parse("EX x X0(x)"), fm.parse("EX x X1(x,x)")))
        for _ in range(2):
            assert hash(ctx) == hash((ctx.arities, ctx.fragment))
        copy = TypeContext.from_json_dict(ctx.to_json_dict())
        assert copy == ctx and len({copy, ctx}) == 1

    def test_undeclared_relation_variable(self):
        ctx = unary_ctx("EX x X1(x)")
        with pytest.raises(ValidationError, match="unknown symbol 'X1'"):
            ctx.check_against(EMPTY_SIGNATURE)

    def test_arity_clash(self):
        ctx = TypeContext((2,), (fm.parse("EX x X0(x)"),))
        with pytest.raises(ValidationError, match="arity"):
            ctx.check_against(EMPTY_SIGNATURE)

    def test_open_formula_rejected(self):
        ctx = unary_ctx("X0(x)")
        with pytest.raises(ValidationError, match="free first-order"):
            ctx.check_against(EMPTY_SIGNATURE)

    def test_designated_name_that_is_a_signature_symbol(self):
        # A binary X0 would shadow the structure's unary X0 in evaluation,
        # and the only realized type would silently be (0,).
        A = FiniteStructure(Signature.of({"X0": 1}), 2, {"X0": {(0,)}})
        ctx = TypeContext((2,), (fm.parse("EX x X0(x)"),))
        with pytest.raises(ValidationError, match="'X0' is also a symbol"):
            ctx.check_against(A.sig)
        with pytest.raises(ValidationError, match="'X0' is also a symbol"):
            realized_types(A, ctx)

    def test_hand_built_tree_too_deep(self):
        # Refused before the duplicate check hashes it.
        f = fm.ExistsFO("x", fm.Atom("X0", ("x",)))
        for _ in range(3000):
            f = fm.Not(f)
        with pytest.raises(ValidationError, match="nested more than 100 levels deep"):
            TypeContext((1,), (f,))


class TestRealizedTypes:
    def test_singleton_universe_two_types(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 1)
        table = realized_types(A, SIMPLE)
        assert {p.bits for p in table} == {(0,), (1,)}
        # Witnesses: the empty relation realizes 0, the full one realizes 1.
        assert table[TwoType((0,))] == (frozenset(),)
        assert table[TwoType((1,))] == (frozenset({(0,)}),)

    def test_counting_bounds(self):
        rng = random.Random(0)
        ctx = unary_ctx("EX x X0(x)", "ALL x X0(x)")
        for _ in range(10):
            A = gen.random_structure(rng, POOL_SIG, rng.randint(1, 3))
            table = realized_types(A, ctx)
            assert len(table) <= relation_count(A.size, 1)
            assert len(table) <= 2 ** len(ctx.fragment)

    def test_isomorphism_invariance(self):
        C4 = cycle_graph(4)
        rotated = FiniteStructure(GRAPH, 4, {
            "edge": {((u + 1) % 4, (v + 1) % 4) for u, v in C4.rels["edge"]}
        })
        ctx = unary_ctx("EX x X0(x)", "EX x EX y (X0(x) & X0(y) & edge(x,y))")
        assert set(realized_types(C4, ctx)) == set(realized_types(rotated, ctx))

    def test_budget(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 3)
        with pytest.raises(BudgetExceededError):
            realized_types(A, SIMPLE, budget=4)

    def test_designated_variables_are_outer_quantifiers(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 3)
        ctx = unary_ctx("EX2 Y:2 EX x (X0(x) & Y(x, x))")
        assert set(realized_types(A, ctx, budget=2 ** 12)) == {TwoType((0,)), TwoType((1,))}
        with pytest.raises(BudgetExceededError) as err:
            realized_types(A, ctx, budget=2 ** 12 - 1)
        assert err.value.required == 2 ** 12 and "'Y'" in str(err.value)


class TestOmits:
    def test_realized_type_not_omitted(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 2)
        for p in realized_types(A, SIMPLE):
            assert omits(A, p, SIMPLE) is False

    def test_two_distinct_members_omitted_on_singleton(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 1)
        assert omits(A, TwoType((1,)), TWO_ELT) is True

    def test_complement_of_realization(self):
        rng = random.Random(1)
        ctx = unary_ctx("EX x X0(x)", "ALL x X0(x)")
        for _ in range(100):
            A = gen.random_structure(rng, POOL_SIG, rng.randint(1, 3))
            p = TwoType((rng.randint(0, 1), rng.randint(0, 1)))
            assert omits(A, p, ctx) == (p not in realized_types(A, ctx))

    def test_type_must_be_a_vector_over_the_fragment(self):
        # A realizes (1,): a plain tuple equal to it is not its type.
        A = FiniteStructure(Signature.of({"p": 1}), 2, {"p": [(0,)]})
        assert TwoType((1,)) in realized_types(A, SIMPLE)
        with pytest.raises(ValidationError, match="not a TheoryVector"):
            omits(A, (1,), SIMPLE)
        with pytest.raises(ValidationError, match="different fragments: 2 bits, not 1"):
            omits(A, TwoType((1, 0)), SIMPLE)


class TestOmittedByAll:
    def test_k_equals_pool_is_empty(self):
        pool = small_pool()
        assert omitted_by_all(pool, pool, SIMPLE) == frozenset()

    def test_cached_table_does_not_bypass_a_smaller_budget(self):
        C4 = cycle_graph(4)
        omitted_by_all([C4], [C4], SIMPLE)
        with pytest.raises(BudgetExceededError):
            omitted_by_all([C4], [C4], SIMPLE, budget=4)

    def test_singletons_omit_two_element_type(self):
        pool = [FiniteStructure(EMPTY_SIGNATURE, 1),
                FiniteStructure(EMPTY_SIGNATURE, 2)]
        K = [pool[0]]
        out = omitted_by_all(K, pool, TWO_ELT)
        assert TwoType((1,)) in out

    def test_set_algebra_oracle(self):
        rng = random.Random(2)
        pool = small_pool()
        ctx = unary_ctx("EX x X0(x)", "EX x (X0(x) & u(x))")
        for _ in range(20):
            K = rng.sample(pool, rng.randint(1, len(pool)))
            expected = set()
            for P in pool:
                expected.update(realized_types(P, ctx))
            for A in K:
                expected -= set(realized_types(A, ctx))
            assert omitted_by_all(K, pool, ctx) == expected

    def test_antitone_in_k_monotone_in_pool(self):
        rng = random.Random(3)
        pool = small_pool()
        ctx = unary_ctx("EX x X0(x)", "ALL x (X0(x) -> u(x))")
        for _ in range(20):
            small_k = rng.sample(pool, rng.randint(1, len(pool) - 1))
            extra = rng.choice([A for A in pool if A not in small_k])
            big_k = small_k + [extra]
            assert omitted_by_all(big_k, pool, ctx) <= omitted_by_all(small_k, pool, ctx)
            sub_pool = rng.sample(pool, rng.randint(1, len(pool)))
            assert (omitted_by_all(small_k, sub_pool, ctx)
                    <= omitted_by_all(small_k, pool, ctx))


class TestOmissionAxiomatization:
    def test_omission_set_passes_when_counterexample_free(self):
        pool = small_pool()
        # Axiomatizable choice: the structures where u is empty.
        K = [A for A in pool if not A.rels["u"]]
        ctx = unary_ctx("EX x (X0(x) & u(x))")
        Pi = omitted_by_all(K, pool, ctx)
        report = check_omission_axiomatization(K, Pi, pool, ctx)
        pa = property_A_check(K, pool, ctx)
        assert report.ok == pa.ok
        assert set(report.unexplained) == set(pa.counterexamples)

    def test_type_realized_in_k_is_flagged(self):
        pool = small_pool()
        K = pool[:2]
        realized = set(realized_types(K[0], SIMPLE))
        report = check_omission_axiomatization(K, realized, pool, SIMPLE)
        assert not report.ok and report.realized_in_k

    def test_empty_pi_with_leftover_pool(self):
        pool = small_pool()
        K = pool[:1]
        report = check_omission_axiomatization(K, frozenset(), pool, SIMPLE)
        assert not report.ok
        assert set(report.unexplained) == set(pool) - {pool[0]}

    def test_type_outside_pool_is_flagged(self):
        pool = [FiniteStructure(EMPTY_SIGNATURE, 1)]
        ghost = TwoType((1,))
        report = check_omission_axiomatization(pool, {ghost}, pool, TWO_ELT)
        assert not report.ok and ghost in report.not_pool_realized

    def test_report_names_relativization(self):
        pool = small_pool()
        report = check_omission_axiomatization(pool, frozenset(), pool, SIMPLE)
        assert "pool" in report.note

    @pytest.mark.parametrize("p, message", [((1,), "not a TheoryVector"),
                                            ([1], "not a TheoryVector"),
                                            (TwoType((1, 0)), "2 bits, not 1")],
                             ids=["tuple", "list", "two-bits"])
    def test_member_of_pi_must_be_a_vector_over_the_fragment(self, p, message):
        pool = [FiniteStructure(Signature.of({"p": 1}), 2, {"p": [(0,)]})]
        with pytest.raises(ValidationError, match=message):
            check_omission_axiomatization(pool, [p], pool, SIMPLE)


class TestPropertyA:
    def test_k_equals_pool_passes(self):
        pool = small_pool()
        assert property_A_check(pool, pool, SIMPLE).ok

    def test_size_split(self):
        pool = [FiniteStructure(EMPTY_SIGNATURE, n) for n in (1, 2, 3)]
        K = pool[1:]
        # A fragment that ignores the relation variable: the singleton's
        # realized vector {(0,)} is shared with nothing in K, so K passes.
        ctx = TypeContext((1,), (fm.parse("EX x EX y x != y"),))
        assert property_A_check(K, pool, ctx).ok
        # Under a fragment where the singleton's realized vectors all
        # recur inside K, the singleton becomes the counterexample.
        report = property_A_check(K, pool, TWO_ELT)
        assert not report.ok and report.counterexamples == (pool[0],)

    def test_equal_copy_in_k_is_covered(self):
        A = FiniteStructure(EMPTY_SIGNATURE, 2)
        B = FiniteStructure(EMPTY_SIGNATURE, 2)
        assert property_A_check([A], [A, B], SIMPLE).ok  # equal as set members

    def test_isomorphic_but_unequal_copy_reported(self):
        A = FiniteStructure(POOL_SIG, 2, {"u": [(0,)]})
        B = FiniteStructure(POOL_SIG, 2, {"u": [(1,)]})  # isomorphic, not equal
        ctx = unary_ctx("EX x (X0(x) & u(x))")
        report = property_A_check([A], [A, B], ctx)
        assert not report.ok and report.counterexamples == (B,)


class TestRealizationTable:
    def test_one_shared_object_per_type(self):
        pool = small_pool()
        ctx = unary_ctx("EX x X0(x)", "ALL x (X0(x) -> u(x))")
        property_A_check(pool[:4], pool, ctx)
        table = types_omitting._table(ctx, DEFAULT_RELATION_BUDGET)
        shared = {}
        for A in pool:
            for p in table.of(A):
                assert shared.setdefault(p, p) is p
        assert omitted_by_all([], pool, ctx) == frozenset(shared)

    def test_pool_union_is_built_once_per_pool(self):
        pool = small_pool()
        ctx = unary_ctx("EX x (X0(x) & u(x))")
        table = types_omitting._table(ctx, DEFAULT_RELATION_BUDGET)
        union = table.over_pool(pool)
        omitted_by_all(pool[:2], pool, ctx)
        check_omission_axiomatization(pool[:3], frozenset(), list(pool), ctx)
        assert table.over_pool(tuple(pool)) is union
        assert table.over_pool(pool[:1]) == set(realized_types(pool[0], ctx))

    def test_freed_with_the_context_and_pool(self):
        ctx = unary_ctx("EX x (X0(x) & u(x))", "ALL x X0(x)")
        pool = small_pool()
        omitted = omitted_by_all(pool[:1], pool, ctx)
        assert omitted
        refs = [weakref.ref(ctx), weakref.ref(next(iter(omitted)))]
        del ctx, pool, omitted
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
