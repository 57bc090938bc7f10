import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as hyp

from so_lab import formulas as fm
from so_lab import gen
from so_lab.errors import ParseError, ValidationError
from so_lab.structures import Signature, check_formula, eval_so_full, iter_structures
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

    @pytest.mark.parametrize("text, line, col", [
        ("EX x\n  (p(x) &)", 2, 10),
        ("EX x\n\n   p(x) @", 3, 9),
    ])
    def test_position_after_a_newline(self, text, line, col):
        with pytest.raises(ParseError) as err:
            fm.parse(text)
        assert (err.value.line, err.value.col) == (line, col)

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

    @pytest.mark.parametrize("shape", [
        lambda levels: "(" * levels + "p(x)" + ")" * levels,
        lambda levels: "ALL x " * (levels - 1) + "p(x)",
        lambda levels: "~" * (levels - 1) + "p(x)",
        lambda levels: " & ".join(["p(x)"] * levels),
    ], ids=["parentheses", "quantifiers", "negations", "chain"])
    def test_depth_limit_deep_in_the_stack(self, shape):
        # The parser's own frames per level must leave room for a caller
        # 400 frames deep under the default recursion limit.
        def deep(frames, text):
            return deep(frames - 1, text) if frames else fm.parse(text)

        assert isinstance(deep(400, shape(fm.MAX_DEPTH)), fm.Formula)
        with pytest.raises(ParseError, match="nested more than"):
            deep(400, shape(fm.MAX_DEPTH + 1))

    def test_depth_counts_nesting_not_siblings(self):
        # 60 siblings, each nested six levels deep: the parser's count
        # of open levels must drop back after each one.
        f = fm.parse(" & ".join(["((ALL x ALL y ~~p(x)))"] * 60))
        assert fm.scope(f).height == 59 + 5

    @pytest.mark.parametrize("text, expected", [
        ("a(x) -> b(x) -> c(x)", "a(x) -> (b(x) -> c(x))"),
        ("a(x) <-> b(x) <-> c(x)", "(a(x) <-> b(x)) <-> c(x)"),
        ("a(x) | b(x) & c(x) -> d(x) <-> e(x)", "((a(x) | (b(x) & c(x))) -> d(x)) <-> e(x)"),
        ("a(x) & b(x) | c(x) & d(x) | e(x)", "((a(x) & b(x)) | (c(x) & d(x))) | e(x)"),
        ("a(x) -> b(x) | c(x) -> d(x)", "a(x) -> ((b(x) | c(x)) -> d(x))"),
        ("ALL x a(x) & ~~b(x) -> (EX2 X:1 X(x))", "ALL x ((a(x) & ~(~b(x))) -> (EX2 X:1 X(x)))"),
    ])
    def test_precedence_and_grouping(self, text, expected):
        assert fm.parse(text) == fm.parse(expected)

    def test_depth_at_the_limit_parses(self):
        f = fm.parse("~" * (fm.MAX_DEPTH - 1) + "p(x)")
        assert fm.parse(fm.print_formula(f)) == f

    def test_hand_built_tree_too_deep_to_print(self):
        # print_formula recurses once per level; a tree built through the
        # library is refused as parse refuses text.
        f = fm.ExistsFO("x", fm.Atom("p", ("x",)))
        for _ in range(3000):
            f = fm.Not(f)
        with pytest.raises(ValidationError, match="nested more than 100 levels deep"):
            fm.print_formula(f)


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
            free = fm.scope(f).free_fo
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

    @staticmethod
    def assert_prenex(g):
        """g is prenex, round-trips through text, and keeps no -> or <->
        around a relation quantifier."""
        assert fm.classify(g) is not fm.NONPRENEX
        assert fm.parse(fm.print_formula(g)) == g
        assert not any(isinstance(h, (fm.Implies, fm.Iff)) and fm.contains_so(h)
                       for h in fm.walk(g))

    def test_prenex_never_nonprenex(self):
        rng = random.Random(5)
        for _ in range(200):
            f = gen.random_formula(rng, MIXED, max_quant_depth=3)
            self.assert_prenex(fm.prenex_so(f))

    def test_prenex_preserves_truth_on_small_structures(self):
        sig = Signature.of({"p": 1, "q": 1})
        rng = random.Random(11)
        structures = [A for n in (1, 2) for A in iter_structures(sig, n)]
        checked = 0
        while checked < 60:
            f = gen.random_formula(rng, sig, max_quant_depth=3,
                                   max_connectives=3, max_so=2, max_binary_so=1)
            g = fm.prenex_so(f)
            self.assert_prenex(g)
            for A in structures:
                assert eval_so_full(A, f) == eval_so_full(A, g), fm.print_formula(f)
            checked += 1

    @staticmethod
    def nested_iff(operand, levels):
        text = operand
        for _ in range(levels):
            text = f"{operand} <-> ({text})"
        return fm.parse(text)

    @pytest.mark.parametrize("operand, levels, answers", [
        # Kept as written: 90 levels of <-> under ALL x.
        ("X(x)", 90, True),
        # Expanded: each level doubles the relation quantifiers, 3070 in all.
        ("(EX2 X:1 X(x))", 10, False),
    ])
    def test_nested_iff(self, operand, levels, answers):
        f = self.nested_iff(operand, levels)
        if not answers:
            with pytest.raises(ValidationError, match="3070 relation quantifiers"):
                fm.prenex_so(f)
            return
        g = fm.prenex_so(f)
        self.assert_prenex(g)
        assert g == fm.ForallFO("v0", self.nested_iff("X(v0)", levels))


def test_validate_closed_rejects_free():
    with pytest.raises(ValidationError, match="free first-order"):
        check_formula(fm.parse("edge(x,y)"), dict(GRAPH.relations))


class TestTraversal:
    def test_walk_is_pre_order(self):
        f = fm.parse("~p(x) -> (q(x) <-> x = y)")
        assert [fm.print_formula(g) for g in fm.walk(f)] == [
            "~p(x) -> (q(x) <-> x = y)", "~p(x)", "p(x)", "q(x) <-> x = y", "q(x)", "x = y"]

    def test_walk_needs_no_recursion(self):
        f = fm.Atom("p", ("x",))
        for _ in range(5000):
            f = fm.Not(f)
        assert sum(1 for _ in fm.walk(f)) == 5001
        assert fm.scope(f).free_fo == ("x",)


class TestScope:
    def test_facts(self):
        f = fm.parse("(EX2 X:2 ALL x (X(x, y) | p(x))) & (ALL z EX x edge(z, w))"
                     " | (ALL2 Y:1 Y(v))")
        found = fm.scope(f)
        assert found.free_fo == ("y", "w", "v")
        assert found.symbols == {"p": 1, "edge": 2} and found.clashes == ()
        assert found.so_arities == (2, 1) and found.depth == 2
        assert found.height == 6 and found.fault is None

    def test_faults_in_pre_order(self):
        clash = fm.And(fm.Atom("p", ("x",)), fm.Or(fm.Atom("p", ("x", "y")), fm.Atom("p", ())))
        found = fm.scope(clash)
        assert found.clashes == (("p", 1, 2), ("p", 1, 0))
        assert found.fault == "symbol 'p' applied with both 1 and 2 arguments"
        bound = fm.ExistsSO("X", 2, fm.And(fm.Atom("X", ("x",)), fm.Atom("q", ("x", "x"))))
        assert fm.scope(bound).fault == (
            "relation variable 'X' declared with arity 2 but applied to 1 arguments")
        assert fm.scope(fm.ForallSO("X", 0, fm.Atom("X", ()))).fault == (
            "binder 'X' declares arity 0 < 1")

    def test_cached_on_the_node_and_not_pickled(self):
        f = fm.parse("EX2 X:1 ALL x X(x)")
        assert fm.scope(f) is fm.scope(f)
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and not hasattr(copy, "_scope")
        assert fm.scope(copy) == fm.scope(f)


class TestHash:
    NODES = (fm.Atom, fm.Eq, fm.Not, fm.And, fm.Or, fm.Implies, fm.Iff,
             fm.ExistsFO, fm.ForallFO, fm.ExistsSO, fm.ForallSO)

    def test_cached_hash_is_the_structural_hash(self):
        rng = random.Random(17)
        sig = Signature.of({"p": 1, "edge": 2})
        for _ in range(100):
            f = gen.random_formula(rng, sig, allow_free=True)
            copy = fm.parse(fm.print_formula(f))
            assert copy == f and copy is not f
            for _ in range(2):
                assert hash(f) == hash(copy)
            for g in fm.walk(f):
                # What the generated dataclass hash computes from the fields.
                assert hash(g) == hash(tuple(getattr(g, name) for name in g.__match_args__))

    def test_fields_are_unchanged(self):
        for node in self.NODES:
            assert tuple(field.name for field in dataclasses.fields(node)) == node.__match_args__
            assert "_hash" not in node.__match_args__
        f = fm.parse("EX x p(x)")
        hash(f)
        assert f == fm.ExistsFO("x", fm.Atom("p", ("x",)))
        assert repr(f) == "ExistsFO(var='x', body=Atom(rel='p', args=('x',)))"


def _perturb(f, rng):
    """Rename some binders so that they shadow an outer binder or a
    signature symbol, and drop some relation binders, leaving their
    variables free.  Occurrences keep their names, so renaming a binder
    also frees the variable it used to bind."""
    if isinstance(f, fm.Not):
        return fm.Not(_perturb(f.sub, rng))
    if isinstance(f, (fm.And, fm.Or, fm.Implies, fm.Iff)):
        return type(f)(_perturb(f.left, rng), _perturb(f.right, rng))
    if isinstance(f, (fm.ExistsFO, fm.ForallFO)):
        var = "x0" if rng.random() < 0.3 else f.var
        return type(f)(var, _perturb(f.body, rng))
    if isinstance(f, (fm.ExistsSO, fm.ForallSO)):
        roll = rng.random()
        body = _perturb(f.body, rng)
        if roll < 0.2:
            return body
        if roll < 0.45:
            return type(f)(rng.choice(("p", "edge", "R0")), f.arity, body)
        return type(f)(f.relvar, f.arity, body)
    return f


def _pinned_outputs(f):
    try:
        free_rel = fm.free_relation_variables(f, MIXED)
    except ValidationError as exc:
        free_rel = f"error: {exc}"
    return [fm.print_formula(f), fm.print_formula(fm.prenex_so(f)),
            repr(fm.scope(f).free_fo), repr(free_rel),
            repr(sorted(fm.all_names(f))), repr(fm.scope(f).so_arities)]


class TestPinnedOutputs:
    """The syntactic operations on a fixed corpus give exactly the
    outputs recorded before they were rebuilt on walk.  Fresh names
    follow traversal order, so a change of order shows here.  The
    prenex_so lines of the formulas with -> or <-> were recorded again
    when it stopped expanding those away from relation quantifiers;
    every other line is unchanged."""

    CORPUS_SHA256 = "c3c2649241a56653d8d529dbc51902671d0aeb841de15a5b0c1739f33253e1ec"

    @staticmethod
    def corpus():
        rng = random.Random(4)
        out = []
        for i in range(300):
            f = gen.random_formula(rng, MIXED, max_quant_depth=4, so_probability=0.5,
                                   allow_free=i % 3 == 0)
            out.append(_perturb(f, rng))
        return out

    def test_corpus_covers_the_hard_cases(self):
        corpus = self.corpus()
        assert sum(fm.contains_so(f) for f in corpus) > 150
        assert sum(bool(fm.scope(f).free_fo) for f in corpus) > 100
        # A relation binder named by a signature symbol shadows it.
        assert sum(any(isinstance(g, (fm.ExistsSO, fm.ForallSO))
                       and MIXED.arity(g.relvar) is not None for g in fm.walk(f))
                   for f in corpus) > 50
        assert sum(any(MIXED.arity(name) is None for name in fm.scope(f).symbols)
                   for f in corpus) > 50

    def test_outputs_are_unchanged(self):
        lines = [line for f in self.corpus() for line in _pinned_outputs(f)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.CORPUS_SHA256

    @pytest.mark.parametrize("text, expected", [
        # Binders are renamed in pre-order: x -> v0, X -> V0.
        ("ALL x EX2 X:1 X(x)", "EX2 V0:2 ALL v0 V0(v0, v0)"),
        # Left conjunct before right: X, x take V0, v0; Y, y take V1, v1.
        ("(EX2 X:1 EX x X(x)) & (ALL2 Y:1 ALL y Y(y))",
         "EX2 V0:1 ALL2 V1:1 (EX v0 V0(v0)) & (ALL v1 V1(v1))"),
        # Names already used (v0, V0) are skipped; the universal closure
        # binds v0 and y first, in first-occurrence order.
        ("p(v0) & (EX2 V0:1 V0(y))", "EX2 V1:3 ALL v1 ALL v2 p(v1) & V1(v1, v2, v2)"),
    ])
    def test_fresh_name_order(self, text, expected):
        assert fm.print_formula(fm.prenex_so(fm.parse(text))) == expected
