import random

import pytest

from so_lab import formula_space, gen
from so_lab import formulas as fm
from so_lab.errors import ValidationError
from so_lab.structures import (
    EMPTY_SIGNATURE,
    GRAPH_SIGNATURE,
    FiniteStructure,
    eval_so_full,
    find_isomorphism,
    is_isomorphism,
)
from so_lab.workbench import (
    builtin,
    colorable_oracle,
    cycle_graph,
    demo,
    double_cycle,
    fubini_suite,
    graph_structure,
    hamiltonian_oracle,
    los_suite,
    metric_suite,
    omission_suite,
    principal_insep_search,
)


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(2 ** len(pairs)):
        yield graph_structure(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


class TestBuiltins:
    def test_infinite_shape(self):
        named = builtin("infinite")
        assert str(fm.classify(named.formula)) == "Sigma(1)"
        prefix, matrix = fm.so_prefix(named.formula)
        assert prefix == ((True, "R", 2),)
        # Four conjuncts: irreflexive, transitive, total, no top element.
        assert len(list(fm.walk(matrix))) > 4

    def test_at_least_truth(self):
        for n in range(1, 9):
            f = builtin(f"at_least:{n}").formula
            for size in (1, 2, 5, 8):
                A = FiniteStructure(EMPTY_SIGNATURE, size)
                assert eval_so_full(A, f) == (size >= n)

    def test_at_least_parameter_forms(self):
        # The count rides in the key only; the keyword form is gone.
        named = builtin("at_least:3")
        assert named.key == "at_least:3"
        assert eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 3), named.formula)
        assert not eval_so_full(FiniteStructure(EMPTY_SIGNATURE, 2), named.formula)
        with pytest.raises(TypeError):
            builtin("at_least", n=3)
        for key in ("at_least:x", "hamiltonian:3", "infinite:1"):
            with pytest.raises(ValidationError):
                builtin(key)

    def test_at_least_nests_no_deeper_than_parse_accepts(self):
        assert fm.scope(builtin("at_least:86").formula).height == fm.MAX_DEPTH
        with pytest.raises(ValidationError, match="nested more than"):
            builtin("at_least:87")

    def test_colorable_nests_no_deeper_than_parse_accepts(self):
        assert fm.scope(builtin("colorable:85").formula).height == fm.MAX_DEPTH
        with pytest.raises(ValidationError, match="nested more than"):
            builtin("colorable:86")

    def test_hamiltonian_examples(self):
        ham = builtin("hamiltonian").formula
        assert str(fm.classify(ham)) == "Sigma(1)"
        assert eval_so_full(cycle_graph(4), ham) is True
        d2 = graph_structure(4, [(0, 1), (2, 3)])
        assert eval_so_full(d2, ham) is False

    def test_colorable_matches_oracle(self):
        rng = random.Random(0)
        f2 = builtin("colorable:2").formula
        f3 = builtin("colorable:3").formula
        for _ in range(25):
            G = gen.random_graph(rng, rng.randint(1, 4))
            assert eval_so_full(G, f2) == colorable_oracle(G, 2)
            assert eval_so_full(G, f3) == colorable_oracle(G, 3)
        assert eval_so_full(cycle_graph(5), f2) is False
        assert eval_so_full(cycle_graph(5), f3) is True

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            builtin("unknown")
        with pytest.raises(ValidationError):
            builtin("at_least")


class TestGraphFamilies:
    def test_cycle_graph_edge_count(self):
        C4 = cycle_graph(4)
        assert C4.size == 4 and len(C4.rels["edge"]) == 8

    def test_double_cycle_components(self):
        D3 = double_cycle(3)
        assert D3.size == 6
        assert not any(u < 3 <= v or v < 3 <= u for u, v in D3.rels["edge"])

    def test_too_small(self):
        with pytest.raises(ValidationError):
            cycle_graph(2)
        with pytest.raises(ValidationError):
            double_cycle(2)

    def test_loops_rejected(self):
        with pytest.raises(ValidationError):
            graph_structure(2, [(0, 0)])

    def test_equal_degree_sequences_but_no_isomorphism(self):
        C6, D3 = cycle_graph(6), double_cycle(3)
        def degrees(G):
            return sorted(sum(1 for u, v in G.rels["edge"] if u == x)
                          for x in range(G.size))
        assert degrees(C6) == degrees(D3)
        assert find_isomorphism(C6, D3) is None


class TestHamiltonianOracle:
    def test_small_conventions(self):
        assert hamiltonian_oracle(graph_structure(1, [])) is False
        assert hamiltonian_oracle(graph_structure(2, [(0, 1)])) is True
        assert hamiltonian_oracle(graph_structure(3, [(0, 1), (1, 2)])) is False
        assert hamiltonian_oracle(cycle_graph(3)) is True

    def test_sentence_agrees_on_all_graphs_up_to_four(self):
        ham = builtin("hamiltonian").formula
        for n in range(1, 5):
            for G in all_graphs(n):
                assert eval_so_full(G, ham) == hamiltonian_oracle(G)


class TestInsepSearch:
    def test_relabelled_cycle_witness(self):
        C4 = cycle_graph(4)
        relabel = FiniteStructure(GRAPH_SIGNATURE, 4, {
            "edge": {((u + 2) % 4, (v + 2) % 4) for u, v in C4.rels["edge"]}
        })
        report = principal_insep_search([C4], [relabel])
        assert report.witness is not None
        ki, li, mapping = report.witness
        assert (ki, li) == (0, 0) and is_isomorphism(C4, relabel, mapping)

    def test_cycles_vs_double_cycles_refuted(self):
        Ks = [cycle_graph(2 * n) for n in (2, 3)]
        Ls = [double_cycle(n) for n in (2, 3) if n >= 3]
        Ls.insert(0, graph_structure(4, [(0, 1), (2, 3)]))
        report = principal_insep_search(Ks, Ls)
        assert report.witness is None
        assert report.pairs_searched == len(Ks) * len(Ls)
        assert "principal" in report.note

    def test_empty_side_refutes(self):
        report = principal_insep_search([], [cycle_graph(3)])
        assert report.witness is None and report.pairs_searched == 0

    def test_witness_symmetry(self):
        rng = random.Random(1)
        for _ in range(20):
            Ks = [gen.random_graph(rng, rng.randint(2, 4)) for _ in range(2)]
            Ls = [gen.random_graph(rng, rng.randint(2, 4)) for _ in range(2)]
            forward = principal_insep_search(Ks, Ls)
            backward = principal_insep_search(Ls, Ks)
            assert (forward.witness is None) == (backward.witness is None)


class TestSuites:
    def test_los_suite_small(self):
        report = los_suite(60, 17)
        assert report["pass"] and report["agreed"] == 60

    def test_fubini_suite_small(self):
        report = fubini_suite(15, 18)
        assert report["pass"] and report["witnessed"] == 15

    def test_metric_suite_small(self):
        report = metric_suite(15, 19)
        assert report["pass"]

    def test_omission_suite_small(self):
        report = omission_suite(3, 20, max_size=2)
        assert report["pass"]

    @pytest.mark.parametrize("run, pairs", [
        (metric_suite, 4872),
        (lambda: demo("separation"), 5),
    ], ids=["metric_suite", "demo_separation"])
    def test_separation_evaluates_each_pair_once(self, monkeypatch, run, pairs):
        # Each (structure, fragment formula) pair of K and L is evaluated
        # once, for its vector set, and not again to find the separator.
        calls = []
        counted = formula_space.eval_so_full

        def eval_so_full(*args, **kwargs):
            calls.append(args[:2])
            return counted(*args, **kwargs)

        monkeypatch.setattr(formula_space, "eval_so_full", eval_so_full)
        assert run()["pass"]
        assert len(calls) == pairs

    def test_suites_are_deterministic(self):
        assert los_suite(25, 5) == los_suite(25, 5)
        assert metric_suite(10, 6) == metric_suite(10, 6)


class TestDemos:
    def test_np_example(self):
        report = demo("np_example", {"n": 3})
        assert report["pass"] and report["demo"] == "np_example"
        assert {"name", "expected", "actual", "pass"} <= set(report["checks"][0])
        assert "runtime_ms" in report

    def test_infinity(self):
        assert demo("infinity", {"nmax": 5})["pass"]

    def test_separation(self):
        report = demo("separation")
        assert report["pass"]

    def test_suite_demos(self):
        assert demo("los_suite", {"trials": 25})["pass"]
        assert demo("fubini_suite", {"trials": 10})["pass"]

    def test_unknown_demo(self):
        with pytest.raises(ValidationError):
            demo("nope")
