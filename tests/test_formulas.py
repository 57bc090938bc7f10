import random

import pytest
from hypothesis import given, settings, strategies as hyp

from so_lab import formulas as fm
from so_lab import gen
from so_lab.errors import ParseError, ValidationError
from so_lab.structures import Signature, eval_so_full, iter_structures
from so_lab.workbench import builtin

GRAPH = Signature.of({"edge": 2})
MIXED = Signature.of({"p": 1, "edge": 2})


class TestParse:
    def test_nested_fo_quantifiers(self):
        f = fm.parse("EX x EX y edge(x,y)")
        assert f == fm.ExistsFO("x", fm.ExistsFO("y", fm.Atom("edge", ("x", "y"))))

    def test_so_binder_with_arity(self):
        f = fm.parse("EX2 R:2 (ALL x EX y R(x,y))")
        assert isinstance(f, fm.ExistsSO)
        assert f.relvar == "R" and f.arity == 2
        assert f.body == fm.ForallFO("x", fm.ExistsFO("y", fm.Atom("R", ("x", "y"))))

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as err:
            fm.parse("EX x R(x,x")
        assert err.value.line == 1 and err.value.col is not None

    def test_inconsistent_arity_same_scope(self):
        with pytest.raises(ParseError, match="applied with both"):
            fm.parse("p(x) & p(x,y)")

    def test_binder_arity_respected(self):
        with pytest.raises(ParseError, match="declared with arity"):
            fm.parse("EX2 R:2 R(x)")

    def test_inequality_sugar(self):
        assert fm.parse("x != y") == fm.Not(fm.Eq("x", "y"))

    def test_keywords_reserved(self):
        with pytest.raises(ParseError):
            fm.parse("EX ALL p(x)")

    def test_quantifier_needs_parens_inside_connective(self):
        with pytest.raises(ParseError):
            fm.parse("p(x) | ALL y p(y)")

    @pytest.mark.parametrize("text", [
        "(" * 101 + "p(x)" + ")" * 101,
        "ALL x " * 101 + "p(x)",
        " & ".join(["p(x)"] * 102),
    ])
    def test_depth_limit(self, text):
        with pytest.raises(ParseError, match="nested more than"):
            fm.parse(text)

    def test_depth_at_the_limit_parses(self):
        f = fm.parse("~" * (fm.MAX_DEPTH - 1) + "p(x)")
        assert fm.parse(fm.print_formula(f)) == f


class TestPrintParseRoundTrip:
    def test_seeded_corpus(self):
        # AST-level identity over a large generated corpus.
        rng = random.Random(20240817)
        for _ in range(10_000):
            f = gen.random_formula(rng, MIXED, max_quant_depth=3,
                                   max_connectives=5, allow_free=True)
            assert fm.parse(fm.print_formula(f)) == f

    def test_inequality_round_trip(self):
        f = fm.Not(fm.Not(fm.Eq("x", "y")))
        assert fm.parse(fm.print_formula(f)) == f

    def test_associativity_round_trips(self):
        a, b, c = (fm.Atom("p", (v,)) for v in "xyz")
        for f in [
            fm.Implies(fm.Implies(a, b), c),
            fm.Implies(a, fm.Implies(b, c)),
            fm.Iff(fm.Iff(a, b), c),
            fm.Iff(a, fm.Iff(b, c)),
            fm.And(a, fm.And(b, c)),
            fm.Or(fm.Or(a, b), c),
            fm.And(fm.ExistsFO("x", a), b),
        ]:
            assert fm.parse(fm.print_formula(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(hyp.integers(min_value=0, max_value=2 ** 63 - 1))
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        f = gen.random_formula(rng, MIXED, max_quant_depth=3, allow_free=True)
        assert fm.parse(fm.print_formula(f)) == f


class TestClassify:
    def test_infinity_formula_is_sigma1(self):
        assert str(fm.classify(builtin("infinite").formula)) == "Sigma(1)"

    def test_negation_pushed_inside_is_pi1(self):
        f = fm.parse("ALL2 R:2 ~((ALL y ~R(y,y)) & (ALL y EX z R(y,z)))")
        assert str(fm.classify(f)) == "Pi(1)"

    def test_two_alternating_blocks_starting_universal(self):
        f = fm.parse("ALL2 R:1 EX2 S:1 (EX x (R(x) & S(x)))")
        assert str(fm.classify(f)) == "Pi(2)"

    def test_homogeneous_block_counts_once(self):
        f = fm.parse("EX2 R:1 EX2 S:1 ALL2 T:1 (EX x R(x))")
        assert str(fm.classify(f)) == "Sigma(2)"

    def test_delta0(self):
        assert fm.classify(fm.parse("EX x edge(x,x)")) is fm.DELTA0

    def test_boolean_combination_is_nonprenex(self):
        f = fm.parse("(EX2 R:1 EX x R(x)) & (EX2 S:1 EX x S(x))")
        assert fm.classify(f) is fm.NONPRENEX
        assert fm.classify(fm.parse("~(EX2 R:1 EX x R(x))")) is fm.NONPRENEX

    def test_dualizing_prefix_swaps_sigma_and_pi(self):
        rng = random.Random(7)
        swapped = {"Sigma": "Pi", "Pi": "Sigma"}
        count = 0
        while count < 50:
            f = fm.prenex_so(gen.random_formula(rng, MIXED, max_quant_depth=3))
            label = fm.classify(f)
            if label.kind not in swapped:
                continue
            dual = fm.classify(fm.dualize_prefix(f))
            assert dual.kind == swapped[label.kind] and dual.n == label.n
            count += 1


class TestUniversalClosure:
    def test_closed_formula_unchanged(self):
        f = fm.parse("ALL x edge(x,x)")
        assert fm.universal_closure(f) == f

    def test_binds_in_first_occurrence_order(self):
        f = fm.parse("edge(x,y)")
        assert fm.universal_closure(f) == fm.parse("ALL x ALL y edge(x,y)")

    def test_agrees_with_all_assignments(self):
        # Oracle: exhaustive assignment enumeration on structures of size <= 3.
        rng = random.Random(99)
        from so_lab.structures import Assignment
        from itertools import product

        checked = 0
        while checked < 40:
            f = gen.random_formula(rng, MIXED, max_quant_depth=2,
                                   max_connectives=3, max_so=1,
                                   max_binary_so=0, allow_free=True)
            free = fm.free_fo_variables(f)
            if not free:
                continue
            A = gen.random_structure(rng, MIXED, rng.randint(1, 3))
            closed = eval_so_full(A, fm.universal_closure(f))
            every = all(
                eval_so_full(A, f, Assignment(dict(zip(free, point)), {}))
                for point in product(range(A.size), repeat=len(free))
            )
            assert closed == every
            checked += 1


class TestPrenex:
    def test_already_prenex_is_fixed_point(self):
        f = fm.parse("EX2 R:2 ALL x EX y R(x,y)")
        assert fm.prenex_so(f) == f

    def test_existentials_commute(self):
        f = fm.parse("EX x EX2 R:1 R(x)")
        g = fm.prenex_so(f)
        prefix, matrix = fm.so_prefix(g)
        assert [(kind, arity) for kind, _, arity in prefix] == [(True, 1)]
        assert isinstance(matrix, fm.ExistsFO)

    def test_arity_raising_shape(self):
        # ALL x EX2 R:1 R(x)  ->  EX2 R:2 ALL x R(x,x) up to renaming.
        g = fm.prenex_so(fm.parse("ALL x EX2 R:1 (R(x))"))
        prefix, matrix = fm.so_prefix(g)
        (kind, name, arity), = prefix
        assert kind is True and arity == 2
        assert isinstance(matrix, fm.ForallFO)
        assert matrix.body == fm.Atom(name, (matrix.var, matrix.var))

    def test_arity_raising_equivalent_on_small_structures(self):
        # Brute-force equivalence oracle over every structure of size <= 2.
        sig = Signature.of({"p": 1})
        f = fm.parse("ALL x EX2 R:1 (R(x))")
        g = fm.prenex_so(f)
        for n in (1, 2):
            for A in iter_structures(sig, n):
                assert eval_so_full(A, f) == eval_so_full(A, g)

    def test_prenex_never_nonprenex(self):
        rng = random.Random(5)
        for _ in range(200):
            f = gen.random_formula(rng, MIXED, max_quant_depth=3)
            assert fm.classify(fm.prenex_so(f)) is not fm.NONPRENEX

    def test_prenex_preserves_truth_on_small_structures(self):
        sig = Signature.of({"p": 1, "q": 1})
        rng = random.Random(11)
        structures = [A for n in (1, 2) for A in iter_structures(sig, n)]
        checked = 0
        while checked < 60:
            f = gen.random_formula(rng, sig, max_quant_depth=3,
                                   max_connectives=3, max_so=2, max_binary_so=1)
            g = fm.prenex_so(f)
            for A in structures:
                assert eval_so_full(A, f) == eval_so_full(A, g), fm.print_formula(f)
            checked += 1


class TestValidate:
    def test_free_variables_reported(self):
        report = fm.validate(fm.parse("edge(x,y)"), GRAPH)
        assert report.ok and report.free_variables == ("x", "y")

    def test_arity_mismatch(self):
        report = fm.validate(fm.parse("edge(x)"), GRAPH)
        assert not report.ok and any("arity mismatch" in e for e in report.errors)

    def test_binder_shadows_signature(self):
        report = fm.validate(fm.parse("EX2 edge:1 edge(x)"), GRAPH)
        assert report.ok and report.shadowed == ("edge",)

    def test_unknown_symbol(self):
        report = fm.validate(fm.parse("blue(x)"), GRAPH)
        assert not report.ok and any("unknown symbol" in e for e in report.errors)

    def test_free_relation_variables_mode(self):
        report = fm.validate(fm.parse("ALL x X0(x)"), GRAPH, allow_free_relvars=True)
        assert report.ok and report.free_relation_variables == (("X0", 1),)

    def test_validate_closed_rejects_free(self):
        with pytest.raises(ValidationError, match="free first-order"):
            fm.validate_closed(fm.parse("edge(x,y)"), GRAPH)
