"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its headline numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
import time

from so_lab import cli
from so_lab import gen
from so_lab.structures import (
    EMPTY_SIGNATURE,
    FiniteStructure,
    Signature,
    eval_so_full,
    iter_structures,
)
from so_lab.ultra import (
    Ultrafilter,
    full_henkin_model,
    henkin_eval,
    product_member_definitional,
    product_ultrafilter,
)
from so_lab.workbench import (
    builtin,
    cycle_graph,
    double_cycle,
    fubini_suite,
    graph_structure,
    hamiltonian_oracle,
    los_suite,
    metric_suite,
    omission_suite,
)


def report(n, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} ({name}): {status} — {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_1_los_transfer():
    start = time.monotonic()
    suite = los_suite(trials=1000, seed=42)
    elapsed = time.monotonic() - start
    assert suite["params"] == {"max_index": 4, "max_size": 3, "max_depth": 3}
    ok = suite["pass"] and suite["agreed"] == 1000 and elapsed < 120
    report(1, "Los transfer", ok,
           f"{suite['agreed']}/1000 trials agreed in {elapsed:.1f}s (< 120s)")


def test_criterion_2_fubini():
    start = time.monotonic()
    suite = fubini_suite(trials=50, seed=43)
    elapsed = time.monotonic() - start
    assert suite["params"] == {"max_rows": 3, "max_cols": 2, "max_size": 3}
    ok = suite["pass"] and suite["witnessed"] == 50 and elapsed < 60
    report(2, "iterated-product isomorphism", ok,
           f"{suite['witnessed']}/50 grids witnessed in {elapsed:.1f}s (< 60s)")


def test_criterion_3_product_ultrafilter_definition():
    mismatches = 0
    total = 0
    pairs = [(i, j) for i in range(3) for j in range(3)]
    for fi in range(3):
        for gj in range(3):
            F, G = Ultrafilter(3, fi), Ultrafilter(3, gj)
            P = product_ultrafilter(F, G)
            for mask in range(2 ** 9):
                X = {pairs[b] for b in range(9) if mask >> b & 1}
                derived = P.member({i * 3 + j for i, j in X})
                defined = product_member_definitional(F, G, X)
                mismatches += derived != defined
                total += 1
    report(3, "product ultrafilter definition", mismatches == 0,
           f"{total} subset checks over all 3x3 principal pairs,"
           f" {mismatches} mismatches")


def test_criterion_4_henkin_equals_full():
    sig = Signature.of({"p": 1, "q": 1})
    corpus = gen.formula_corpus(1234, 200, sig, max_quant_depth=3,
                                max_so=2, max_binary_so=1)
    structures = [A for n in (1, 2, 3) for A in iter_structures(sig, n)]
    models = {A: full_henkin_model(A, 2) for A in structures}
    mismatches = 0
    for f in corpus:
        for A in structures:
            mismatches += henkin_eval(models[A], f) != eval_so_full(A, f)
    report(4, "Henkin equals full semantics", mismatches == 0,
           f"200 formulas x {len(structures)} structures (every structure of"
           f" size <= 3 over two unary predicates), {mismatches} mismatches")


def test_criterion_5_fagin_hamiltonian():
    ham = builtin("hamiltonian").formula
    mismatches = 0
    labeled = 0
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(2 ** len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            G = graph_structure(n, edges)  # both arc orientations present
            mismatches += eval_so_full(G, ham) != hamiltonian_oracle(G)
            labeled += 1
    # One representative per isomorphism class up to 7 vertices; the 1044
    # classes on exactly 7 vertices are the large tier.
    from networkx.generators.atlas import graph_atlas_g

    seven = 0
    classes = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0:
            continue
        S = graph_structure(n, G.edges())
        mismatches += eval_so_full(S, ham) != hamiltonian_oracle(S)
        classes += 1
        seven += n == 7
    family_ok = True
    for n in (2, 3, 4):
        family_ok &= eval_so_full(cycle_graph(2 * n), ham) is True
    for n in (3, 4):
        family_ok &= eval_so_full(double_cycle(n), ham) is False
    ok = mismatches == 0 and family_ok and seven == 1044
    report(5, "Fagin correspondence instance", ok,
           f"oracle agreement on all {labeled} labeled graphs with <= 5"
           f" vertices and all {classes} isomorphism classes with <= 7"
           f" ({seven} on exactly 7), {mismatches} mismatches;"
           f" even cycles in, double cycles out")


def test_criterion_6_infinity_and_cardinality():
    psi = builtin("infinite").formula
    rng = random.Random(4242)
    corpus = [FiniteStructure(EMPTY_SIGNATURE, n) for n in range(1, 7)]
    corpus += [cycle_graph(n) for n in range(3, 7)]
    corpus += [double_cycle(3)]
    corpus += [gen.random_graph(rng, rng.randint(1, 6)) for _ in range(6)]
    mixed = Signature.of({"p": 1, "edge": 2})
    corpus += [gen.random_structure(rng, mixed, rng.randint(1, 6)) for _ in range(6)]
    triple = Signature.of({"a": 1, "b": 2, "c": 1})
    corpus += [gen.random_structure(rng, triple, rng.randint(1, 5)) for _ in range(4)]
    psi_ok = not any(eval_so_full(A, psi) for A in corpus)

    card_ok = True
    for n in range(1, 9):
        f = builtin(f"at_least:{n}").formula
        for size in range(1, 9):
            A = FiniteStructure(EMPTY_SIGNATURE, size)
            card_ok &= eval_so_full(A, f) == (size >= n)
    report(6, "infinity and cardinality sentences", psi_ok and card_ok,
           f"infinity sentence false on {len(corpus)} structures over 4"
           f" signatures (sizes <= 6); at_least:n matches size >= n"
           f" on the full n,size <= 8 grid")


def test_criterion_7_separation():
    suite = metric_suite(pairs=100, seed=44)
    assert suite["params"] == {"max_size": 3, "fragment_bound": 12}
    ok = suite["pass"]
    report(7, "separation vs vector-set distance", ok,
           f"100 seeded class pairs over Boolean-closed fragments of <= 12"
           f" sentences; {suite['separable_pairs']} separable;"
           f" separator exists iff vector sets disjoint iff distance > 0")


def test_criterion_8_omitting_types():
    suite = omission_suite(choices=20, seed=45)
    assert suite["params"]["max_size"] == 3
    ok = suite["pass"]
    report(8, "axiomatization by type omission", ok,
           f"pool of {suite['params']['pool_size']} structures (all up to"
           f" size 3 over one unary and one binary relation), 20 seeded"
           f" choices of K; axiomatization check and pool-closure check"
           f" agree, with matching counterexamples"
           f" ({suite['property_a_passes']} choices satisfied closure)")


def test_criterion_9_determinism(capsys):
    library_ok = (
        los_suite(40, 7) == los_suite(40, 7)
        and fubini_suite(15, 7) == fubini_suite(15, 7)
        and metric_suite(15, 7) == metric_suite(15, 7)
        and omission_suite(3, 7) == omission_suite(3, 7)
    )
    outputs = []
    for _ in range(2):
        code = cli.main(["check", "los", "--trials", "25", "--seed", "13",
                         "--format", "json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    cli_ok = outputs[0] == outputs[1] and json.loads(outputs[0])["pass"]
    with capsys.disabled():
        report(9, "seeded determinism", library_ok and cli_ok,
               "library suite reports and check-subcommand JSON are"
               " byte-identical across reruns with equal seeds")
