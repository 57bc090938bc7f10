"""The compiled evaluator behind eval_fo, eval_so_full, henkin_eval and
realized_types: scope of relation names, reentrancy, compiling once per
formula, the nested budget of full semantics, free individual variables
and miniscoping."""
import random
import sys
import threading
import time
import weakref

import pytest

from so_lab import formulas as fm
from so_lab import gen, structures
from so_lab.errors import BudgetExceededError, ValidationError
from so_lab.formula_space import Fragment
from so_lab.structures import (
    EMPTY_SIGNATURE,
    GRAPH_SIGNATURE,
    Assignment,
    FiniteStructure,
    Signature,
    eval_fo,
    eval_so_full,
    models_up_to,
)
from so_lab.types_omitting import TypeContext, realized_types
from so_lab import ultra
from so_lab.ultra import Ultrafilter, check_los, full_henkin_model, henkin_eval
from so_lab.workbench import builtin, cycle_graph, double_cycle

C4 = cycle_graph(4)
LOOP = frozenset({(0, 0)})
PI2_PROBE = "ALL2 X:2 EX2 Y:2 ALL x ALL y (Y(x,y) <-> X(y,x))"

# Sentences decided by enumeration (mixed prefixes or relation
# quantifiers under connectives), so evaluation runs the closures.
SENTENCES = [
    "ALL2 X:1 EX2 Y:1 ALL x (Y(x) <-> ~X(x))",
    "EX2 X:1 ALL2 Y:1 ((EX x (X(x) & Y(x))) | (ALL x ~Y(x)) | (EX x ~X(x)))",
    "(EX2 R:1 ALL x EX y (R(y) & edge(x, y))) & (ALL2 S:1 EX x (S(x) | ~S(x)))",
    "ALL2 X:1 ((ALL x (X(x) -> (EX y (edge(x, y) & X(y))))) -> (ALL x X(x)) | (ALL x ~X(x)))",
]
GRAPHS = [cycle_graph(3), C4, double_cycle(3), FiniteStructure(GRAPH_SIGNATURE, 3)]


class TestScope:
    def test_relation_binder_named_like_a_signature_symbol(self):
        f = fm.parse("(EX2 edge:2 ALL x ALL y ~edge(x, y)) & (EX x EX y edge(x, y))")
        assert eval_so_full(C4, f) is True

    def test_binder_shadowing_ends_with_its_scope(self):
        f = fm.parse("(ALL2 edge:1 EX x (~edge(x) | edge(x))) & edge(u, v)")
        assert eval_so_full(C4, f, Assignment({"u": 0, "v": 1}, {})) is True
        assert eval_so_full(C4, f, Assignment({"u": 0, "v": 2}, {})) is False

    def test_assigned_relation_variable_shadows_the_signature_in_eval_fo(self):
        f = fm.parse("edge(x, x)")
        fo = {"x": 0}
        assert eval_fo(C4, f, Assignment(fo, {})) is False
        assert eval_fo(C4, f, Assignment(fo, {"edge": LOOP})) is True

    @pytest.mark.parametrize("text", [
        "EX2 X:1 (X(x) & edge(x, x))",                        # SAT path
        "(EX2 X:1 X(x)) & (ALL2 Y:1 (edge(x, x) | Y(x)))",  # enumeration
        "(EX2 X:1 X(x)) & edge(x, x)",                         # enumeration
    ])
    def test_assigned_relation_variable_shadows_the_signature_in_eval_so_full(self, text):
        f = fm.parse(text)
        fo = {"x": 0}
        assert eval_so_full(C4, f, Assignment(fo, {})) is False
        assert eval_so_full(C4, f, Assignment(fo, {"edge": LOOP})) is True

    def test_unknown_symbol_in_a_branch_never_reached(self):
        f = fm.parse("(EX x x = x) | (EX x foo(x))")
        for evaluate in (eval_fo, eval_so_full):
            with pytest.raises(ValidationError, match="unknown symbol 'foo'"):
                evaluate(C4, f)

    def test_unknown_symbol_under_a_relation_quantifier(self):
        f = fm.parse("(ALL x x = x) | (EX2 X:1 EX x (X(x) & foo(x)))")
        with pytest.raises(ValidationError, match="unknown symbol 'foo'"):
            eval_so_full(C4, f)

    def test_unassigned_variable_after_an_error_leaves_no_trace(self):
        f = fm.parse("edge(x, y)")
        with pytest.raises(ValidationError, match="unassigned free variable 'y'"):
            eval_fo(C4, f, Assignment({"x": 0}, {}))
        assert eval_fo(C4, f, Assignment({"x": 0, "y": 1}, {})) is True
        with pytest.raises(ValidationError, match="unassigned"):
            eval_fo(C4, f, Assignment({"x": 0}, {}))


UNARY_P = FiniteStructure(Signature.of({"p": 1}), 3, {"p": [(0,)]})
MISMATCH = "arity mismatch: 'p' has arity 1, applied to 2 arguments"
# X is bound at arity 2 and applied to one argument; parse rejects the
# text of this formula, so it is built by hand.
BOUND_MISMATCH = fm.ExistsSO("X", 2, fm.ExistsFO("x", fm.Atom("X", ("x",))))


class TestIllTypedAtoms:
    """An atom applied at an arity other than its symbol's is a usage
    error on every path, never an answer."""

    def test_eval_fo(self):
        with pytest.raises(ValidationError, match=MISMATCH):
            eval_fo(UNARY_P, fm.parse("~(EX x EX y p(x, y))"))

    def test_enumeration_path(self):
        f = fm.parse("~(EX x EX y p(x, y)) | (EX2 X:1 ALL2 Y:1 EX x (X(x) | Y(x)))")
        assert structures.compile_evaluator(f)[1] is None
        with pytest.raises(ValidationError, match=MISMATCH):
            eval_so_full(UNARY_P, f)
        with pytest.raises(ValidationError, match="declared with arity 2"):
            eval_so_full(UNARY_P, fm.Not(BOUND_MISMATCH))

    def test_sat_path(self):
        f = fm.parse("EX2 X:1 ALL x ALL y (X(x) -> p(x, y))")
        with pytest.raises(ValidationError, match=MISMATCH):
            eval_so_full(UNARY_P, f)
        with pytest.raises(ValidationError, match="declared with arity 2"):
            eval_so_full(UNARY_P, BOUND_MISMATCH)

    def test_henkin_eval(self):
        M = full_henkin_model(UNARY_P, 2)
        with pytest.raises(ValidationError, match=MISMATCH):
            henkin_eval(M, fm.parse("~(EX x EX y p(x, y))"))
        with pytest.raises(ValidationError, match="declared with arity 2"):
            henkin_eval(M, fm.Not(BOUND_MISMATCH))

    def test_well_typed_use_still_answers(self):
        f = fm.parse("~(EX x EX y (p(x) & p(y) & x != y))")
        assert eval_fo(UNARY_P, f) is True and eval_so_full(UNARY_P, f) is True


def _negations(count):
    """ALL x ~...~p(x) with count negations: count + 2 levels deep."""
    f = fm.Atom("p", ("x",))
    for _ in range(count):
        f = fm.Not(f)
    return fm.ForallFO("x", f)


class TestDepthLimit:
    """A tree built through the library rather than parse meets parse's
    depth limit on every entry point, before it is hashed or recursed
    over."""

    ENTRY_POINTS = {
        "eval_fo": lambda f: eval_fo(UNARY_P, f),
        "eval_so_full": lambda f: eval_so_full(UNARY_P, f),
        "henkin_eval": lambda f: henkin_eval(full_henkin_model(UNARY_P, 1), f),
        "prenex_so": fm.prenex_so,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_deeper_than_parse_accepts(self, entry):
        call = self.ENTRY_POINTS[entry]
        at_limit = _negations(fm.MAX_DEPTH - 2)
        assert fm.scope(at_limit).height == fm.MAX_DEPTH
        call(at_limit)
        with pytest.raises(ValidationError,
                           match=f"formula is nested more than {fm.MAX_DEPTH} levels deep"):
            call(_negations(3000))


class _ReentrantModel:
    """A Henkin model that evaluates the same sentence on another model
    each time a relation quantifier asks for its relation universe."""

    def __init__(self, M, inner, f, seen):
        self.base, self.arity_bound, self._M = M.base, M.arity_bound, M
        self._inner, self._f, self._seen = inner, f, seen

    def relations_of_arity(self, k):
        self._seen.append(henkin_eval(self._inner, self._f))
        return self._M.relations_of_arity(k)


class TestReentrancy:
    @pytest.mark.parametrize("text", SENTENCES)
    def test_evaluation_inside_its_own_relation_domain(self, text):
        f = fm.parse(text)
        models = [full_henkin_model(A, 1) for A in GRAPHS]
        answers = [henkin_eval(M, f) for M in models]
        for M, answer in zip(models, answers):
            for inner, inner_answer in zip(models, answers):
                seen = []
                assert henkin_eval(_ReentrantModel(M, inner, f, seen), f) is answer
                # Evaluation asks for the relation universe when it charges
                # a quantifier and each time it enters one.
                assert seen and set(seen) == {inner_answer}

    def test_four_threads_agree_with_one(self):
        formulas = [fm.parse(text) for text in SENTENCES]
        formulas.append(builtin("at_least:4").formula)
        jobs = [(f, A) for f in formulas for A in GRAPHS]
        expected = [eval_so_full(A, f) for f, A in jobs]
        results = [[] for _ in range(4)]
        errors = []

        def worker(out):
            try:
                for _ in range(20):
                    out.append([eval_so_full(A, f) for f, A in jobs])
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert all(rounds == [expected] * 20 for rounds in results)


class TestCompiledOnce:
    def test_second_structure_builds_no_closures(self, monkeypatch):
        f, g = fm.parse(SENTENCES[0]), fm.parse("EX x EX y edge(x, y)")
        expected = [eval_so_full(A, f) for A in GRAPHS] + [eval_fo(A, g) for A in GRAPHS]
        structures.compile_evaluator.cache_clear()
        built = []
        closures = structures._closures
        monkeypatch.setattr(structures, "_closures", lambda h: built.append(h) or closures(h))
        answers = [eval_so_full(A, f) for A in GRAPHS] + [eval_fo(A, g) for A in GRAPHS]
        assert answers == expected and built == [f, g]
        assert [henkin_eval(full_henkin_model(A, 1), f) for A in GRAPHS] == expected[:4]
        assert built == [f, g]

    def test_scope_is_computed_once(self, monkeypatch):
        passes = []
        scope_pass = fm._scope_pass
        monkeypatch.setattr(fm, "_scope_pass", lambda g: passes.append(g) or scope_pass(g))
        structures.compile_evaluator.cache_clear()
        f = fm.parse("ALL2 X:1 EX2 Y:1 ALL x (Y(x) <-> ~X(x) | edge(x, x))")
        assert eval_so_full(C4, f) is True
        assert henkin_eval(full_henkin_model(C4, 1), f) is True
        assert passes == [f] and passes[0] is f

    def test_facts(self):
        evaluate, homogeneous, depth = structures.compile_evaluator(
            fm.parse("EX2 X:1 EX2 Y:2 ALL x (X(x) | (EX y Y(x, y)))"))
        assert depth == 2
        assert homogeneous[0] == ((True, "X", 1), (True, "Y", 2))
        _, homogeneous, depth = structures.compile_evaluator(
            fm.parse("(EX x EX x p(x)) & (EX2 X:1 X(y))"))
        assert homogeneous is None and depth == 2
        assert structures.compile_evaluator(fm.parse("p(x)"))[1:] == (None, 0)

    def test_cache_keeps_no_argument_alive(self):
        class Relation(frozenset):
            pass

        f = fm.parse("EX2 X:1 ALL2 Y:1 EX x (X(x) | Y(x) | Z(x, x))")
        evaluate = structures.compile_evaluator(f)[0]
        domain = structures.relation_domain(C4.size, 2 ** 24, 1)
        relation = Relation(LOOP)
        refs = [weakref.ref(domain), weakref.ref(relation)]
        assert evaluate(C4, {"u": 1}, {"Z": relation}, domain) is True
        del domain, relation
        assert [ref() for ref in refs] == [None, None]


class TestNestedBudget:
    def test_pi2_probe_stops_at_once(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            eval_so_full(C4, fm.parse(PI2_PROBE))
        assert time.perf_counter() - start < 1
        assert err.value.required == 2 ** 32 and "'Y'" in str(err.value)

    def test_nested_candidates_within_the_budget(self):
        f = fm.parse("ALL2 X:1 EX2 Y:1 ALL x (Y(x) <-> ~X(x))")
        assert eval_so_full(C4, f, budget=2 ** 8) is True
        with pytest.raises(BudgetExceededError) as err:
            eval_so_full(C4, f, budget=2 ** 8 - 1)
        assert err.value.required == 2 ** 8 and "'Y'" in str(err.value)

    def test_first_quantifier_over_the_budget_is_named(self):
        f = fm.parse("EX2 R:2 ALL2 S:1 (EX x (R(x,x) | S(x)))")
        with pytest.raises(BudgetExceededError) as err:
            eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 3), f, budget=2 ** 9)
        assert err.value.required == 2 ** 12 and "'S'" in str(err.value)

    def test_nested_individual_quantifiers(self):
        huge = FiniteStructure(EMPTY_SIGNATURE, 10 ** 9)
        with pytest.raises(BudgetExceededError) as err:
            eval_so_full(huge, fm.parse("ALL x x = x"))
        assert err.value.required == 10 ** 9
        f = fm.parse("ALL x ALL y (x = y | x != y)")
        assert eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 4), f, budget=16) is True
        with pytest.raises(BudgetExceededError, match="4\\^2"):
            eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 4), f, budget=15)

    def test_relation_choices_compare_exponents_first(self):
        assert structures.excess_relation_choices(4, (2,), 2 ** 16) is None
        assert structures.excess_relation_choices(4, (2,), 2 ** 16 - 1) == (
            2 ** 16, "2^(4^2) = 65536")
        assert structures.excess_relation_choices(3, (1, 2), -1) == (
            2 ** 12, "2^(3^1 + 3^2) = 4096")
        # 2^(10^12) is never built: the count is left as a power of two.
        start = time.perf_counter()
        assert structures.excess_relation_choices(10 ** 6, (2,), 2 ** 24) == (
            None, "2^(1000000^2)")
        assert time.perf_counter() - start < 1


class TestOneBudgetRule:
    """Full semantics, Henkin semantics and type realization charge the
    budget through one relation domain."""

    @staticmethod
    def _stops(A, M, f):
        """The budget stops both semantics meet on f, asserting equal
        outcomes: each budget below is one less than, or equal to, a
        charge the evaluation meets, until it answers."""
        budget = stops = 0
        while True:
            outcomes = []
            for evaluate in (lambda: henkin_eval(M, f, budget=budget),
                             lambda: eval_so_full(A, f, budget=budget)):
                try:
                    outcomes.append(evaluate())
                except BudgetExceededError as err:
                    outcomes.append(("stop", err.required))
            assert outcomes[0] == outcomes[1], (fm.print_formula(f), A, budget)
            if not isinstance(outcomes[0], tuple):
                return stops
            stops += 1
            required = outcomes[0][1]
            assert required > budget
            budget = required - 1 if budget < required - 1 else required

    def test_henkin_and_full_stop_alike(self):
        # On the trivial ultrapower the relation universe is every
        # relation, so both semantics charge the same numbers.
        rng = random.Random(7)
        sig = Signature.of({"p": 1, "edge": 2})
        structures_ = [gen.random_structure(rng, sig, 1 + i % 3) for i in range(12)]
        models = [full_henkin_model(A, 2) for A in structures_]
        checked = stops = 0
        while checked < 200:
            f = gen.random_formula(rng, sig, max_quant_depth=3, max_so=2,
                                   max_binary_so=1, so_probability=0.5)
            if not fm.scope(f).so_arities or structures.compile_evaluator(f)[1] is not None:
                continue
            i = rng.randrange(len(structures_))
            stops += self._stops(structures_[i], models[i], f)
            checked += 1
        assert stops >= 2 * checked
        # Both charge a first-order sentence's n^depth assignments
        # through the one relation domain too.
        for _ in range(100):
            f = gen.random_formula(rng, sig, max_quant_depth=3, max_so=0, so_probability=0.0)
            assert not fm.scope(f).so_arities
            i = rng.randrange(len(structures_))
            assert self._stops(structures_[i], models[i], f) >= 1

    def test_free_relation_variables_are_outer_quantifiers(self):
        M = full_henkin_model(FiniteStructure(EMPTY_SIGNATURE, 3), 2)
        f = fm.parse("EX2 Y:2 EX x (X(x) | Y(x, x))")
        assert henkin_eval(M, f, budget=2 ** 12) is True
        with pytest.raises(BudgetExceededError) as err:
            henkin_eval(M, f, budget=2 ** 12 - 1)
        assert err.value.required == 2 ** 12 and "'Y'" in str(err.value)
        with pytest.raises(BudgetExceededError) as err:
            henkin_eval(M, f, budget=7)
        assert err.value.required == 8 and "free relation variables" in str(err.value)

    def test_each_nesting_is_charged_once(self, monkeypatch):
        charged = []
        excess = structures.excess_relation_choices
        monkeypatch.setattr(structures, "excess_relation_choices",
                            lambda n, arities, budget: charged.append(arities)
                            or excess(n, arities, budget))
        f = fm.parse("ALL2 X:1 EX2 Y:1 ALL x (Y(x) <-> ~X(x))")
        assert eval_so_full(C4, f) is True
        # Y is entered once for each of the 16 values of X.
        assert charged == [(1,), (1, 1)]

    def test_second_henkin_evaluation_walks_no_formula(self, monkeypatch):
        f = fm.parse("EX2 Y:1 ALL x EX y (edge(x, y) & (Y(y) | Z(x)))")
        assert henkin_eval(full_henkin_model(C4, 1), f) is True
        for name in ("walk", "free_relation_variables"):
            monkeypatch.setattr(fm, name, lambda *args, name=name: pytest.fail(name))
        assert henkin_eval(full_henkin_model(GRAPHS[0], 1), f) is True
        assert henkin_eval(full_henkin_model(GRAPHS[3], 1), f) is False


class TestFreeVariables:
    """A free individual variable without a value in the universe is a
    usage error on the enumeration path, as on the SAT path, whether or
    not evaluation reads it."""

    @pytest.mark.parametrize("evaluate", [eval_fo, eval_so_full])
    def test_value_outside_the_universe(self, evaluate):
        with pytest.raises(ValidationError, match="'x' = 99 is outside the universe"):
            evaluate(C4, fm.parse("edge(x, y)"), Assignment({"x": 99, "y": 0}, {}))

    @pytest.mark.parametrize("evaluate", [eval_fo, eval_so_full])
    def test_unassigned_variable_never_reached(self, evaluate):
        # EX x edge(x, x) is false on C4, so q0 = z is never evaluated.
        f = fm.parse("(EX x edge(x, x)) & q0 = z")
        with pytest.raises(ValidationError, match="unassigned free variable 'q0'"):
            evaluate(C4, f)

    @pytest.mark.parametrize("evaluate", [eval_fo, eval_so_full])
    def test_unassigned_variable_read_only_through_equality(self, evaluate):
        with pytest.raises(ValidationError, match="unassigned free variable 'x'"):
            evaluate(C4, fm.parse("EX y y = x"))

    @pytest.mark.parametrize("evaluate", [eval_fo, eval_so_full])
    def test_free_variable_and_binder_named_alike(self, evaluate):
        # The free x and the bound x hold separate values.
        A = FiniteStructure(Signature.of({"p": 1}), 2, {"p": [(0,)]})
        f = fm.parse("p(x) & (EX x ~p(x))")
        assert evaluate(A, f, Assignment({"x": 0}, {})) is True
        assert evaluate(A, f, Assignment({"x": 1}, {})) is False


class TestAssignedRelations:
    """A relation assigned to a symbol the formula uses must be a set of
    tuples of the arity of that use over the universe, on every path."""

    def test_tuple_of_another_arity(self):
        asg = Assignment({}, {"X": frozenset({(0,)})})
        with pytest.raises(ValidationError, match="not a tuple of its arity 2"):
            eval_so_full(C4, fm.parse("EX x EX y X(x, y)"), asg)

    def test_tuple_outside_the_universe(self):
        asg = Assignment({}, {"X": frozenset({(7, 9)})})
        with pytest.raises(ValidationError, match="outside the universe"):
            eval_so_full(C4, fm.parse("EX x EX y X(x, y)"), asg)

    def test_sat_path(self):
        f = fm.parse("EX2 Y:1 ALL x (Y(x) <-> X(x, x))")
        assert structures.compile_evaluator(f)[1] is not None
        with pytest.raises(ValidationError, match="not a tuple of its arity 2"):
            eval_so_full(C4, f, Assignment({}, {"X": frozenset({(0,)})}))

    def test_not_a_set(self):
        with pytest.raises(ValidationError, match="must be a set of tuples, not int"):
            eval_fo(C4, fm.parse("EX x X(x)"), Assignment({}, {"X": 5}))

    def test_unused_assignments_are_not_checked(self):
        asg = Assignment({}, {"X": frozenset({(1,)}), "Y": 5})
        assert eval_fo(C4, fm.parse("EX x X(x)"), asg) is True


class TestInputsBeforeBudget:
    """Every entry checks its inputs before its first budget charge or
    model build: under budget=1, which any charge on C4 exceeds, a
    faulty input is still a ValidationError, on every route."""

    FAULTS = [
        ("foo(x)", {}, {}, "unknown symbol 'foo'"),
        ("edge(x)", {}, {}, "arity mismatch: 'edge' has arity 2, applied to 1 arguments"),
        ("edge(x, q)", {}, {}, "unassigned free variable 'q'"),
        ("edge(x, q)", {"q": 9}, {}, "'q' = 9 is outside the universe"),
        ("X(x, x)", {}, {"X": frozenset({(0,)})}, "not a tuple of its arity 2"),
        # True == 1, yet no element of the universe.
        ("edge(x, q)", {"q": True}, {}, "'q' = True is outside the universe"),
        ("X(x, x)", {}, {"X": frozenset({(0, True)})}, r"holds \(0, True\), outside the universe"),
    ]
    # Each shape's text around the faulty atom, its entry and whether
    # SAT decides it.
    SHAPES = {
        "eval_fo": ("EX x {}", eval_fo, False),
        "sat": ("EX2 Z:1 ALL x (Z(x) | {})", eval_so_full, True),
        "enumeration": ("(EX2 Z:1 ALL x Z(x)) | (EX x {})", eval_so_full, False),
    }
    HENKIN_FAULTS = [
        ("edge(x)", "arity mismatch: 'edge' has arity 2, applied to 1 arguments"),
        ("edge(x, q)", "free first-order variables: q"),
    ]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_shape_is_charged(self, shape):
        text, evaluate, sat_route = self.SHAPES[shape]
        f = fm.parse(text.format("x = x"))
        assert (structures.compile_evaluator(f)[1] is not None) is sat_route
        with pytest.raises(BudgetExceededError):
            evaluate(C4, f, budget=1)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("atom, fo, so, message", FAULTS)
    def test_evaluation(self, shape, atom, fo, so, message):
        text, evaluate, sat_route = self.SHAPES[shape]
        f = fm.parse(text.format(atom))
        assert (structures.compile_evaluator(f)[1] is not None) is sat_route
        with pytest.raises(ValidationError, match=message):
            evaluate(C4, f, Assignment(fo, so), budget=1)

    @pytest.mark.parametrize("atom, message", HENKIN_FAULTS)
    def test_henkin_eval(self, atom, message):
        M = full_henkin_model(C4, 1)
        with pytest.raises(ValidationError, match=message):
            henkin_eval(M, fm.parse(f"EX2 Z:1 ALL x (Z(x) | {atom})"), budget=1)

    @pytest.mark.parametrize("atom, message",
                             HENKIN_FAULTS + [("foo(x)", "unknown symbol 'foo'")])
    def test_check_los(self, monkeypatch, atom, message):
        monkeypatch.setattr(ultra, "henkin_model", lambda *args, **kwargs: pytest.fail("built"))
        f = fm.parse(f"EX2 Z:1 ALL x (Z(x) | {atom})")
        with pytest.raises(ValidationError, match=message):
            check_los([C4], Ultrafilter(1, 0), f, budget=1)


P_STRUCTURE = FiniteStructure(Signature.of({"p": 1}), 2, {"p": [(0,)]})
# Each entry that takes a formula, run on it over P_STRUCTURE.
FORMULA_ENTRIES = {
    "Fragment": lambda f: Fragment(P_STRUCTURE.sig, (f,)),
    "models_up_to": lambda f: models_up_to(f, P_STRUCTURE.sig, 1),
    "check_against": lambda f: TypeContext((1,), (f,)).check_against(P_STRUCTURE.sig),
    "realized_types": lambda f: realized_types(P_STRUCTURE, TypeContext((1,), (f,))),
    "henkin_eval": lambda f: henkin_eval(full_henkin_model(P_STRUCTURE, 2), f),
    "check_los": lambda f: check_los([P_STRUCTURE], Ultrafilter(1, 0), f),
    "eval_so_full": lambda f: eval_so_full(P_STRUCTURE, f),
}
# fault: (formula, message, entries that raise it).  henkin_eval reads
# a name outside the signature as a free relation variable, and
# eval_so_full takes an assignment of the free individual variables.
FORMULA_FAULTS = {
    "unknown": (fm.parse("EX x foo(x)"), "unknown symbol 'foo'",
                set(FORMULA_ENTRIES) - {"henkin_eval"}),
    "arity": (fm.parse("EX x EX y p(x, y)"),
              "arity mismatch: 'p' has arity 1, applied to 2 arguments", set(FORMULA_ENTRIES)),
    "free": (fm.parse("p(x)"), "formula has free first-order variables: x",
             set(FORMULA_ENTRIES) - {"eval_so_full"}),
    # Built by hand: parse refuses it.
    "binder": (fm.ExistsFO("x", fm.ExistsFO("y", fm.ExistsSO("X", 1, fm.Atom("X", ("x", "y"))))),
               "relation variable 'X' declared with arity 1 but applied to 2 arguments",
               set(FORMULA_ENTRIES)),
    "node": (fm.ExistsFO("x", "p(x)"), "not a formula node: 'p(x)'", set(FORMULA_ENTRIES)),
}


class TestOneFormulaCheck:
    """Every entry runs structures.check_formula, so one faulty formula
    gets one message, word for word, from each."""

    @pytest.mark.parametrize("fault, entry", [
        (fault, entry) for fault, (_, _, entries) in FORMULA_FAULTS.items()
        for entry in sorted(entries)])
    def test_one_message(self, fault, entry):
        f, message, _ = FORMULA_FAULTS[fault]
        with pytest.raises(ValidationError) as raised:
            FORMULA_ENTRIES[entry](f)
        assert str(raised.value) == message

    def test_henkin_eval_reads_an_unknown_name_as_a_free_relation_variable(self):
        # EX x foo(x) fails for the empty foo.
        assert FORMULA_ENTRIES["henkin_eval"](fm.parse("EX x foo(x)")) is False


# ---------------------------------------------------------------------------
# Miniscoping: a differential test against a reference evaluator
# ---------------------------------------------------------------------------

MINI_SIG = Signature.of({"p": 1, "edge": 2})
# u is never bound, so it is free wherever it occurs; x, y and z are
# free where no quantifier binds them.
NAMES = ("x", "y", "z", "u")
SO_VARS = (("X", 1), ("Y", 2))


def _chain(rng, node, parts):
    """parts joined by node in order, nested at random."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randrange(1, len(parts))
    return node(_chain(rng, node, parts[:cut]), _chain(rng, node, parts[cut:]))


def _leaf(rng, so_bound):
    roll = rng.random()
    if roll < 0.2:
        return fm.Eq(rng.choice(NAMES), rng.choice(NAMES))
    symbols = [("p", 1), ("edge", 2)] + [(name, k) for name, k in SO_VARS if name in so_bound]
    name, k = rng.choice(symbols)
    return fm.Atom(name, tuple(rng.choice(NAMES) for _ in range(k)))


def _formula(rng, depth, so_bound=frozenset()):
    """A formula over MINI_SIG shaped to exercise miniscoping: quantifiers
    over & and | spines whose parts often omit the bound variable, with
    relation quantifiers before and after them and -> among them."""
    if depth == 0 or rng.random() < 0.1:
        return _leaf(rng, so_bound)
    roll = rng.random()
    if roll < 0.5:
        var = rng.choice(NAMES[:3])
        conjunction = rng.random() < 0.5
        parts = [_formula(rng, depth - 1, so_bound) for _ in range(rng.randint(1, 4))]
        free = [name for name, _ in SO_VARS if name not in so_bound]
        if free and rng.random() < 0.5:
            name = rng.choice(free)
            k = dict(SO_VARS)[name]
            node = rng.choice((fm.ExistsSO, fm.ForallSO))
            inner = _formula(rng, depth - 1, so_bound | {name})
            parts.insert(rng.randrange(len(parts) + 1), node(name, k, inner))
        # Mostly the spine that matches the quantifier, which may pull.
        if rng.random() < 0.8:
            node = fm.And if conjunction else fm.Or
        else:
            node = fm.Or if conjunction else fm.And
        quantifier = fm.ExistsFO if conjunction else fm.ForallFO
        return quantifier(var, _chain(rng, node, parts))
    if roll < 0.6:
        return fm.Not(_formula(rng, depth - 1, so_bound))
    if roll < 0.8:
        node = rng.choice((fm.Implies, fm.Iff, fm.And, fm.Or))
        return node(_formula(rng, depth - 1, so_bound), _formula(rng, depth - 1, so_bound))
    free = [name for name, _ in SO_VARS if name not in so_bound]
    if not free:
        return _formula(rng, depth - 1, so_bound)
    name = rng.choice(free)
    node = rng.choice((fm.ExistsSO, fm.ForallSO))
    return node(name, dict(SO_VARS)[name], _formula(rng, depth - 1, so_bound | {name}))


def _reference(f, n, rels, fo, entered, outer=(), domain=structures.iter_relations):
    """Truth of f written as is, short-circuiting left to right, with
    relation quantifiers over every candidate domain(n, k) yields, by
    default every relation in mask order; appends (name, arities) to
    entered each time one is entered, as the compiled evaluator asks
    its so_domain."""
    kind = type(f)
    if kind is fm.Atom:
        return tuple(fo[a] for a in f.args) in rels[f.rel]
    if kind is fm.Eq:
        return fo[f.left] == fo[f.right]
    if kind is fm.Not:
        return not _reference(f.sub, n, rels, fo, entered, outer, domain)
    if kind in (fm.And, fm.Or, fm.Implies, fm.Iff):
        left = _reference(f.left, n, rels, fo, entered, outer, domain)
        if kind is fm.And and not left or kind is fm.Or and left:
            return left
        if kind is fm.Implies and not left:
            return True
        right = _reference(f.right, n, rels, fo, entered, outer, domain)
        return left == right if kind is fm.Iff else right
    if kind in (fm.ExistsFO, fm.ForallFO):
        values = (_reference(f.body, n, rels, {**fo, f.var: e}, entered, outer, domain)
                  for e in range(n))
        return any(values) if kind is fm.ExistsFO else all(values)
    arities = outer + (f.arity,)
    entered.append((f.relvar, arities))
    values = (_reference(f.body, n, {**rels, f.relvar: R}, fo, entered, arities, domain)
              for R in domain(n, f.arity))
    return any(values) if kind is fm.ExistsSO else all(values)


def _entered_alike(asked, entered):
    """asked is a subsequence of entered, and both first enter the same
    (name, arities) in the same order: the compiled evaluator skips a
    candidate whose restriction it has tried, and with it the quantifiers
    inside, but first enters each where the reference does, which is
    what relation_domain charges."""
    rest = iter(entered)
    return all(item in rest for item in asked) and list(dict.fromkeys(asked)) == list(
        dict.fromkeys(entered))


def _pullable(f):
    """How many quantifiers of f have a part of their spine that
    miniscoping moves out, and how many of those also have a part with
    a relation quantifier after it."""
    pulled = before_so = 0
    for g in fm.walk(f):
        if type(g) not in (fm.ExistsFO, fm.ForallFO):
            continue
        node = fm.And if type(g) is fm.ExistsFO else fm.Or
        parts, stack = [], [g.body]
        while stack:
            h = stack.pop()
            if type(h) is node:
                stack += [h.right, h.left]
            else:
                parts.append(h)
        has_so = [bool(fm.scope(h).so_arities) for h in parts]
        first_so = has_so.index(True) if True in has_so else len(parts)
        if any(g.var not in fm.scope(h).free_fo for h in parts[:first_so]):
            pulled += 1
            before_so += first_so < len(parts)
    return pulled, before_so


class TestMiniscoping:
    def test_differential_against_the_reference(self):
        rng = random.Random(11)
        structures_ = [gen.random_structure(rng, MINI_SIG, 1 + i % 3) for i in range(9)]
        models = [full_henkin_model(A, 2) for A in structures_]
        pulled = before_so = implications = with_free = enumerated = 0
        for _ in range(1000):
            f = _formula(rng, 3)
            i = rng.randrange(len(structures_))
            if 2 in fm.scope(f).so_arities and structures_[i].size == 3:
                i -= 1  # a binary relation quantifier on 2 elements at most
            A, M = structures_[i], models[i]
            fo = {name: rng.randrange(A.size) for name in NAMES}
            found = fm.scope(f)
            counts = _pullable(f)
            pulled += counts[0]
            before_so += counts[1]
            implications += any(type(g) is fm.Implies for g in fm.walk(f))
            with_free += bool(found.free_fo)
            enumerated += bool(found.so_arities) and structures.compile_evaluator(f)[1] is None
            entered = []
            expected = _reference(f, A.size, A.rels, fo, entered)
            assert eval_so_full(A, f, Assignment(fo, {})) is expected, fm.print_formula(f)
            asked = []

            def so_domain(name, arities):
                asked.append((name, arities))
                return structures.iter_relations(A.size, arities[-1])

            evaluate = structures.compile_evaluator(f)[0]
            assert evaluate(A, fo, {}, so_domain) is expected
            assert _entered_alike(asked, entered), fm.print_formula(f)
            sentence = fm.universal_closure(f)
            assert henkin_eval(M, sentence) is _reference(sentence, A.size, A.rels, {}, [])
        assert pulled > 1000 and before_so > 400 and implications > 200
        assert with_free > 900 and enumerated > 600

    def test_cardinality_walks_no_full_product(self):
        start = time.perf_counter()
        assert eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 7), builtin("at_least:8").formula) is False
        assert time.perf_counter() - start < 1


def _drawn(f, A, fo, domain=structures.iter_relations):
    """(answer, candidates drawn, entered) of the compiled f on A under
    fo, its relation quantifiers ranging over domain(n, k), next to
    _reference's answer and entries over the same domain."""
    drawn, asked = [0], []

    def so_domain(name, arities):
        asked.append((name, arities))
        for rel in domain(A.size, arities[-1]):
            drawn[0] += 1
            yield rel

    answer = structures.compile_evaluator(f)[0](A, fo, {}, so_domain)
    entered = []
    assert answer is _reference(f, A.size, A.rels, fo, entered, domain=domain), fm.print_formula(f)
    assert _entered_alike(asked, entered), fm.print_formula(f)
    return answer, drawn[0]


P_ON_3 = FiniteStructure(Signature.of({"p": 1}), 3, {"p": {(1,)}})


class TestOneCandidatePerRestriction:
    """A relation quantifier whose atoms on its relation all have their
    arguments bound outside it tries one candidate per restriction to
    the tuples those atoms name, and stops once it has met them all."""

    def test_tautology_at_a_fixed_tuple_draws_one_per_restriction(self):
        f = fm.parse("ALL2 R:2 (R(x, x) | ~R(x, x))")
        assert _drawn(f, P_ON_3, {"x": 0}) == (True, 2)  # of 2^9 = 512

    def test_body_without_the_relation_draws_one(self):
        assert _drawn(fm.parse("EX2 R:2 p(x)"), P_ON_3, {"x": 0}) == (False, 1)
        assert _drawn(fm.parse("ALL2 R:2 p(x)"), P_ON_3, {"x": 1}) == (True, 1)

    def test_atom_on_an_inner_variable_draws_every_candidate(self):
        assert _drawn(fm.parse("ALL2 R:1 ALL y (R(y) | ~R(y))"), P_ON_3, {}) == (True, 8)
        assert _drawn(fm.parse("EX2 R:1 ALL y R(y)"), P_ON_3, {}) == (True, 8)

    def test_several_tuples_are_met_in_domain_order(self):
        # R(0) & ~R(1) first holds at mask 0b001, the 2nd candidate; the
        # four restrictions to {0, 1} are all met by the 4th.
        f = fm.parse("EX2 R:1 (R(x) & ~R(y))")
        assert _drawn(f, P_ON_3, {"x": 0, "y": 1}) == (True, 2)
        assert _drawn(f, P_ON_3, {"x": 0, "y": 0}) == (False, 2)
        f = fm.parse("EX2 R:1 (R(x) & R(y) & ~p(x))")
        # False: the four restrictions to {1, 2} are all met by 0b110, the 7th.
        assert _drawn(f, P_ON_3, {"x": 1, "y": 2}) == (False, 7)
        assert _drawn(f, P_ON_3, {"x": 0, "y": 2}) == (True, 6)

    def test_inner_binder_rebinding_the_relation(self):
        # Each R has a slot of its own, so an atom on the inner R is not
        # an atom on the outer one, whose loop it does not read.
        for text, answer in [("EX2 R:1 (R(x) & (EX2 R:1 ~R(x)))", True),
                             ("ALL2 R:1 (R(x) | (EX2 R:1 R(x)))", True),
                             ("EX2 R:1 EX2 R:1 (R(x) & ~R(y))", True),
                             ("ALL2 R:1 ~(EX2 R:1 ALL y R(y))", False)]:
            for x in range(3):
                assert _drawn(fm.parse(text), P_ON_3, {"x": x, "y": (x + 1) % 3})[0] is answer

    def test_inner_binder_rebinding_an_argument(self):
        f = fm.parse("EX2 R:1 (R(x) & (ALL x ~R(x)))")
        assert _drawn(f, P_ON_3, {"x": 0}) == (False, 8)
        f = fm.parse("ALL2 R:1 (R(x) | (EX x (~R(x) & p(x))))")
        assert _drawn(f, P_ON_3, {"x": 1}) == (True, 8)
        assert _drawn(f, P_ON_3, {"x": 0}) == (False, 3)

    def test_domain_lacking_restrictions(self):
        # No candidate holds 0 without 1, so no restriction {0} is met
        # and every candidate is drawn.
        lacking = [frozenset(), frozenset({(0,), (1,)}), frozenset({(1,)}),
                   frozenset({(0,), (1,), (2,)})]
        f = fm.parse("EX2 R:1 (R(x) & ~R(y))")
        fo = {"x": 0, "y": 1}
        assert _drawn(f, P_ON_3, fo, lambda n, k: lacking) == (False, 4)
        assert _drawn(f, P_ON_3, fo, lambda n, k: lacking + [frozenset({(0,)})]) == (True, 5)
        g = fm.parse("ALL2 R:1 (R(y) | ~R(x))")
        assert _drawn(g, P_ON_3, fo, lambda n, k: lacking) == (True, 4)

    def test_differential_over_restricted_domains(self):
        # Seeded formulas as in TestMiniscoping, each relation quantifier
        # over a random half of the relations of its arity, in mask order.
        rng = random.Random(25)
        structures_ = [gen.random_structure(rng, MINI_SIG, 1 + i % 3) for i in range(9)]
        for _ in range(300):
            f = _formula(rng, 3)
            i = rng.randrange(len(structures_))
            if 2 in fm.scope(f).so_arities and structures_[i].size == 3:
                i -= 1
            A = structures_[i]
            kept = {k: [rel for rel in structures.iter_relations(A.size, k) if rng.random() < 0.5]
                    for k in (1, 2)}
            fo = {name: rng.randrange(A.size) for name in NAMES}
            _drawn(f, A, fo, lambda n, k: kept[k])
