"""Tests of the benchmark's own oracles and generators, on small cases
whose answers are known, and a smoke run of every workload.

    python3 -m pytest perfbench
"""
import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles as orc
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def brute_hamiltonian(n, arcs):
    return any(all((p[i], p[(i + 1) % n]) in arcs for i in range(n))
               for p in itertools.permutations(range(n)) if p[0] == 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_cycles_are_hamiltonian(n):
    assert orc.hamiltonian(2 * n, orc.symmetric(cycle(2 * n)))


@pytest.mark.parametrize("n", [3, 4])
def test_double_cycles_are_not_hamiltonian(n):
    assert not orc.hamiltonian(2 * n, orc.symmetric(cycle(n) + cycle(n, offset=n)))


def test_small_cases_of_hamiltonicity():
    assert orc.hamiltonian(1, {(0, 0)})
    assert not orc.hamiltonian(1, set())
    assert orc.hamiltonian(2, orc.symmetric([(0, 1)]))
    path = orc.symmetric([(0, 1), (1, 2), (2, 3)])
    assert not orc.hamiltonian(4, path)


def test_held_karp_matches_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(3, 6)
        arcs = orc.symmetric(orc.random_graph_edges(rng, n, rng.randint(0, n * (n - 1) // 2)))
        assert orc.hamiltonian(n, arcs) == brute_hamiltonian(n, arcs)


def test_colouring():
    k4 = orc.symmetric([(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert not orc.colorable(4, k4, 3)
    assert orc.colorable(4, k4, 4)
    assert orc.colorable(3, orc.symmetric(cycle(3)), 3)
    assert not orc.colorable(5, orc.symmetric(cycle(5)), 2)
    assert orc.colorable(6, orc.symmetric(cycle(6)), 2)
    assert not orc.colorable(2, {(0, 0)}, 3)


def test_burnside_counts():
    binary = (("edge", 2),)
    assert [orc.burnside_classes(binary, n) for n in (1, 2, 3)] == [2, 10, 104]
    pool = workloads.POOL_SIG
    assert sum(orc.burnside_classes(pool, n) for n in (1, 2, 3)) == 792


def test_canonical_forms_count_the_classes():
    sig = (("u", 1), ("edge", 2))
    for n in (1, 2):
        forms = {orc.canonical_form(sig, A) for A in orc.labeled_structures(sig, n)}
        assert len(forms) == orc.burnside_classes(sig, n)


def test_naive_evaluator_on_known_sentences():
    x, y = ("atom", "R", ("x",)), ("atom", "R", ("y",))
    some = ("ex2", "R", 1, ("all", "x", x))
    none = ("all2", "R", 1, ("ex", "x", x))
    two = ("ex", "x", ("ex", "y", ("not", ("eq", "x", "y"))))
    split = ("ex2", "R", 1, ("ex", "x", ("ex", "y", ("and", x, ("not", y)))))
    for n in (1, 2, 3):
        assert orc.holds(some, n, {})
        assert not orc.holds(none, n, {})
        assert orc.holds(two, n, {}) == (n >= 2)
        assert orc.holds(split, n, {}) == (n >= 2)


def test_generated_formulas_have_the_asked_quantifiers():
    rng = random.Random(3)

    def relation_quantifiers(f):
        op = f[0]
        if op in ("ex2", "all2"):
            return [f[2]] + relation_quantifiers(f[3])
        if op == "not":
            return relation_quantifiers(f[1])
        if op in ("and", "or", "imp", "iff"):
            return relation_quantifiers(f[1]) + relation_quantifiers(f[2])
        if op in ("ex", "all"):
            return relation_quantifiers(f[2])
        return []

    for so in (0, 1, 2):
        for binary in range(so + 1):
            for _ in range(50):
                f = orc.random_formula(rng, workloads.SUITE_SIG, depth=3, so=so,
                                       binary_so=binary)
                arities = relation_quantifiers(f)
                assert len(arities) == so and arities.count(2) == binary


def test_program_parses_the_printed_formulas_back():
    from so_lab import formulas as fm

    rng = random.Random(9)
    for i in range(200):
        so = i % 3
        binary = 1 if so and i % 2 else 0
        f = orc.random_formula(rng, workloads.PQ_SIG, depth=3, so=so, binary_so=binary)
        assert orc.from_program(fm.parse(orc.to_text(f))) == f


@pytest.mark.parametrize("k", range(len(workloads.PROBES)))
def test_probes_are_true_by_their_witnesses(k):
    assert workloads.probe_truth(k) is True


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.inputs(3, tiny=True) == w.inputs(3, tiny=True)
    assert w.inputs(3, tiny=True) != w.inputs(4, tiny=True)


def test_smoke_mode_runs_every_workload():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count('"correct": true') == len(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fagin",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
