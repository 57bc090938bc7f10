import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hyp

import so_lab
from so_lab import cli, formula_space, formulas as fm, workbench
from so_lab.workbench import cycle_graph, double_cycle


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(cycle_graph(4).to_json())
    return str(path)


@pytest.fixture
def families(tmp_path):
    kdir = tmp_path / "k"
    ldir = tmp_path / "l"
    kdir.mkdir()
    ldir.mkdir()
    for i, g in enumerate([cycle_graph(4), cycle_graph(6), cycle_graph(8)]):
        (kdir / f"c{i}.json").write_text(g.to_json())
    for i, g in enumerate([double_cycle(3), double_cycle(4)]):
        (ldir / f"d{i}.json").write_text(g.to_json())
    return str(kdir), str(ldir)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(cwd, *argv):
    """so-lab in a separate process with 1 GB of address space and 20 s,
    so that a regression fails instead of exhausting the machine."""
    src = str(Path(so_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "so_lab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=20, preexec_fn=cap_memory)


class TestBasicCommands:
    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--formula", "EX2 R:2 ALL x EX y R(x,y)")
        assert code == 0 and out.strip() == "Sigma(1)"

    def test_eval_builtin_on_structure(self, capsys, c4_file):
        code, out, _ = run(capsys, "eval", "--structure", c4_file,
                           "--builtin", "hamiltonian", "--semantics", "full")
        assert code == 0 and out.strip() == "true"

    def test_parse_reports_free_variables(self, capsys):
        code, out, _ = run(capsys, "parse", "--formula", "edge(x,y)", "--format", "json")
        assert code == 0
        assert json.loads(out)["free_variables"] == ["x", "y"]

    def test_prenex(self, capsys):
        code, out, _ = run(capsys, "prenex", "--formula", "ALL x EX2 R:1 (R(x))",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "Sigma(1)"

    @pytest.mark.parametrize("operand, levels, expected", [
        ("X(x)", 90, 0),
        ("(EX2 X:1 X(x))", 10, 2),
    ])
    def test_prenex_of_nested_iff(self, capsys, operand, levels, expected):
        # Kept as written, 90 levels answer at once; expanded around
        # relation quantifiers, 10 levels would need 3070 of them.
        text = operand
        for _ in range(levels):
            text = f"{operand} <-> ({text})"
        start = time.perf_counter()
        code, _, err = run(capsys, "prenex", "--formula", text)
        assert code == expected, err
        assert time.perf_counter() - start < 1
        if expected == 2:
            assert "3070 relation quantifiers" in err

    def test_many_colours(self, capsys, c4_file):
        # colorable:120 would nest deeper than parse accepts.
        code, out, _ = run(capsys, "eval", "--structure", c4_file, "--builtin", "colorable:80")
        assert code == 0 and out.strip() == "true"
        code, _, err = run(capsys, "eval", "--structure", c4_file, "--builtin", "colorable:120")
        assert code == 2 and "nested more than 100 levels" in err

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "--formula", "EX x R(x,x")
        assert code == 2 and "error" in err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_budget_exhaustion_exit_code(self, capsys, c4_file):
        code, _, err = run(capsys, "eval", "--structure", c4_file,
                           "--formula", "EX2 R:2 ALL2 S:2 (EX x R(x,x))",
                           "--budget", "8")
        assert code == 3 and "budget" in err

    def test_nested_relation_quantifiers_share_the_budget(self, capsys, c4_file):
        code, _, err = run(capsys, "eval", "--structure", c4_file, "--formula",
                           "ALL2 X:2 EX2 Y:2 ALL x ALL y (Y(x,y) <-> X(y,x))")
        assert code == 3 and "'Y'" in err and "4^2 + 4^2" in err

    def test_many_pairwise_distinct_elements(self, capsys, tmp_path):
        # at_least:40 has 780 inequalities; as one chain they nested too
        # deep to hash.
        for size, expected in ((3, 3), (1, 0)):
            path = tmp_path / f"blank{size}.json"
            path.write_text(json.dumps({"universe": size, "signature": {}}))
            code, out, err = run(capsys, "eval", "--structure", str(path),
                                 "--builtin", "at_least:40")
            assert code == expected, err
        assert out.strip() == "false"
        code, _, err = run(capsys, "eval", "--structure", str(path), "--builtin", "at_least:87")
        assert code == 2 and "nested more than 100 levels" in err


class TestMalformedInput:
    """Malformed input is a usage error (exit 2), never a traceback."""

    def test_universe_of_wrong_type(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"universe": "3", "signature": {"edge": 2},
                                    "relations": {"edge": []}}))
        code, _, err = run(capsys, "eval", "--structure", str(path),
                           "--builtin", "hamiltonian")
        assert code == 2 and "universe" in err

    def test_family_entry_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, "ultraproduct", "--family", str(path),
                           "--ultrafilter", "principal:0")
        assert code == 2 and "object" in err

    def test_tuple_element_not_a_number(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"universe": 2, "signature": {"p": 1},
                                    "relations": {"p": [[{}]]}}))
        code, _, err = run(capsys, "eval", "--structure", str(path),
                           "--formula", "ALL x x = x")
        assert code == 2 and "range" in err

    def test_tuple_element_a_boolean(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"universe": 2, "signature": {"p": 1},
                                    "relations": {"p": [[True]]}}))
        code, out, err = run(capsys, "eval", "--structure", str(path),
                             "--formula", "EX x p(x)")
        assert code == 2 and not out and "range" in err

    def test_ill_typed_atom(self, capsys, tmp_path):
        path = tmp_path / "unary.json"
        path.write_text(json.dumps({"universe": 3, "signature": {"p": 1},
                                    "relations": {"p": [[0]]}}))
        for semantics in ("fo", "full"):
            code, out, err = run(capsys, "eval", "--structure", str(path), "--semantics",
                                 semantics, "--formula", "~(EX x EX y p(x, y))")
            assert code == 2 and not out
            assert "arity mismatch: 'p' has arity 1, applied to 2 arguments" in err

    def test_universe_beyond_the_budget(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"universe": 2 ** 63, "signature": {}}))
        code, _, err = run(capsys, "eval", "--structure", str(path),
                           "--formula", "ALL x x = x")
        assert code == 3 and "individual quantifiers" in err

    @pytest.mark.parametrize("command, extra", [
        ("eval", ["--formula", "(EX2 X:2 EX a X(a, a)) | (EX2 Y:1 EX a Y(a))"]),
        ("types", ["--context", "ctx.json"]),
    ])
    def test_relation_quantifier_on_a_huge_universe(self, tmp_path, command, extra):
        # 2^(n^2) relations on a million elements: the budget stops the
        # command before that number is built.
        (tmp_path / "huge.json").write_text(json.dumps({"universe": 10 ** 6, "signature": {}}))
        (tmp_path / "ctx.json").write_text(json.dumps(
            {"arities": [2], "fragment": ["EX x X0(x, x)"]}))
        done = run_capped(tmp_path, command, "--structure", "huge.json", *extra)
        assert done.returncode == 3 and "2^(1000000^2)" in done.stderr

    def test_first_order_semantics_on_a_huge_universe(self, tmp_path):
        # 10^12 assignments of two nested quantifiers: --semantics fo is
        # charged like full semantics and stops at once.
        (tmp_path / "huge.json").write_text(json.dumps({"universe": 10 ** 6, "signature": {}}))
        started = time.perf_counter()
        done = run_capped(tmp_path, "eval", "--semantics", "fo", "--structure", "huge.json",
                          "--formula", "ALL x ALL y (x = y | ~(x = y))")
        assert done.returncode == 3 and "1000000^2 assignments" in done.stderr
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("universe, formula, message", [
        # Each pair: the fault beside a relation quantifier (enumeration)
        # and inside a homogeneous prefix (SAT), both over the budget.
        (4, "(EX2 Y:3 ALL x ALL y ALL z ~Y(x,y,z)) & q = r", "unassigned free variable 'q'"),
        (4, "EX2 Y:3 ALL x ALL y ALL z (~Y(x,y,z) | q = r)", "unassigned free variable 'q'"),
        (5000, "EX2 X:2 ALL x (X(x, x) | foo(x))", "unknown symbol 'foo'"),
        (5000, "(EX2 X:2 ALL x X(x, x)) | (ALL x foo(x))", "unknown symbol 'foo'"),
        # The command cannot value a and b.
        (10 ** 6, "(EX2 X:2 X(a, b)) | (EX2 Y:1 Y(a))", "unassigned free variable 'a'"),
    ])
    def test_input_fault_before_the_budget_on_either_route(self, tmp_path, universe,
                                                           formula, message):
        (tmp_path / "a.json").write_text(json.dumps({"universe": universe, "signature": {}}))
        done = run_capped(tmp_path, "eval", "--structure", "a.json", "--formula", formula)
        assert done.returncode == 2 and message in done.stderr

    @pytest.mark.parametrize("formula, message", [
        ("p(x, y)", "free first-order variables: x, y"),
        ("foo(x)", "free first-order variables: x"),
        ("EX x EX y p(x, y)", "arity mismatch: 'p' has arity 1, applied to 2 arguments"),
    ])
    def test_henkin_formula_checked_before_the_model(self, capsys, tmp_path, formula, message):
        # The 2-ary relations on 5 elements are over the budget, so
        # building the model first would exit 3.
        path = tmp_path / "fam.json"
        path.write_text(json.dumps([{"universe": 5, "signature": {"p": 1},
                                     "relations": {"p": [[0]]}}]))
        code, out, err = run(capsys, "henkin-eval", "--family", str(path),
                             "--ultrafilter", "principal:0", "--formula", formula)
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize("key", ["colorable:x", "at_least:abc", "colorable:3:4"])
    def test_builtin_count_not_an_integer(self, capsys, c4_file, key):
        code, out, err = run(capsys, "eval", "--structure", c4_file, "--builtin", key)
        assert code == 2 and not out and "must be an integer" in err

    def test_sat_prefix_on_a_huge_universe(self, tmp_path):
        # 3,000,000 assignments of one individual quantifier are within
        # the budget, the 9 * 10^12 tuple variables SAT would ground are
        # not.
        (tmp_path / "huge.json").write_text(json.dumps({"universe": 3 * 10 ** 6, "signature": {}}))
        done = run_capped(tmp_path, "eval", "--structure", "huge.json",
                          "--formula", "EX2 X:2 ALL x X(x, x)")
        assert done.returncode == 3 and "tuple variables" in done.stderr

    @pytest.mark.parametrize("universe, argv", [
        # 2^(5^2) binary relations on the quotient, at the default arity bound.
        (5, ["henkin-eval", "--family", "fam.json", "--ultrafilter", "principal:0",
             "--formula", "EX x x = x"]),
        # (10^8)^2 element pairs for the isomorphism search.
        (10 ** 8, ["insep", "--k", "fam.json", "--l", "fam.json"]),
        # 2^23 unary relations of up to 23 tuples each: the relations
        # alone are within the budget of 2^24, the tuples are not.
        (23, ["henkin-eval", "--family", "fam.json", "--ultrafilter", "principal:0",
              "--arity-bound", "1", "--formula", "EX x x = x"]),
    ])
    def test_family_beyond_the_budget(self, tmp_path, universe, argv):
        (tmp_path / "fam.json").write_text(json.dumps([{"universe": universe, "signature": {}}]))
        done = run_capped(tmp_path, *argv)
        assert done.returncode == 3 and "budget" in done.stderr

    @pytest.mark.parametrize("document", [{"arities": 5, "fragment": []}, [1]])
    def test_context_of_wrong_type(self, capsys, c4_file, tmp_path, document):
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "types", "--structure", c4_file, "--context", str(path))
        assert code == 2 and "error" in err

    def test_context_shadowing_a_signature_symbol(self, capsys, tmp_path):
        structure = tmp_path / "a.json"
        structure.write_text(json.dumps({
            "universe": 2, "signature": {"X0": 1}, "relations": {"X0": [[0]]}}))
        context = tmp_path / "ctx.json"
        context.write_text(json.dumps({"arities": [2], "fragment": ["EX x X0(x)"]}))
        code, out, err = run(capsys, "types", "--structure", str(structure),
                             "--context", str(context))
        assert code == 2 and out == "" and "'X0' is also a symbol" in err

    def test_fragment_entry_not_a_string(self, capsys, families, tmp_path):
        kdir, ldir = families
        path = tmp_path / "frag.json"
        path.write_text("[3]")
        code, _, err = run(capsys, "separate", "--k", kdir, "--l", ldir,
                           "--fragment", str(path))
        assert code == 2 and "formula strings" in err

    @pytest.mark.parametrize("literal, cols", [
        ("principal:abc", None),
        ("principal:0 x principal:0", "0"),
        ("principal:0", "2"),
    ])
    def test_malformed_ultrafilter(self, capsys, families, literal, cols):
        kdir, _ = families
        argv = ["ultraproduct", "--family", kdir, "--ultrafilter", literal]
        code, _, err = run(capsys, *argv, *(["--cols", cols] if cols else []))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("command", ["eval", "henkin-eval"])
    def test_formula_and_builtin_together(self, capsys, c4_file, families, command):
        # Neither may win silently: at_least:2 holds on C4, and the
        # formula holds nowhere.
        inputs = {"eval": ["--structure", c4_file],
                  "henkin-eval": ["--family", families[0], "--ultrafilter", "principal:0"]}
        code, out, err = run(capsys, command, *inputs[command],
                             "--builtin", "at_least:2", "--formula", "EX x ~(x = x)")
        assert code == 2 and not out and "not allowed with" in err

    def test_deeply_nested_formula(self, capsys):
        code, _, err = run(capsys, "parse", "--formula", "~" * 5000 + "p(x)")
        assert code == 2 and "nested" in err


P_STRUCTURE = {"universe": 2, "signature": {"p": 1}, "relations": {"p": [[0]]}}


@pytest.fixture
def p_inputs(tmp_path):
    """A {p:1} structure file and a family file holding it, and a writer
    of the fragment file and type-context file of one formula."""
    (tmp_path / "p.json").write_text(json.dumps(P_STRUCTURE))
    (tmp_path / "fam.json").write_text(json.dumps([P_STRUCTURE]))

    def commands(formula):
        (tmp_path / "frag.json").write_text(json.dumps([formula]))
        (tmp_path / "ctx.json").write_text(json.dumps({"arities": [1], "fragment": [formula]}))
        fam = str(tmp_path / "fam.json")
        return {
            "separate": ["separate", "--k", fam, "--l", fam,
                         "--fragment", str(tmp_path / "frag.json")],
            "types": ["types", "--structure", str(tmp_path / "p.json"),
                      "--context", str(tmp_path / "ctx.json")],
            "henkin-eval": ["henkin-eval", "--family", fam, "--ultrafilter", "principal:0",
                            "--formula", formula],
        }

    return commands


class TestInputFiles:
    """Every JSON input goes through one reader: a file that does not
    decode is a usage error naming the file."""

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        (b"{", "Expecting property name"),
    ], ids=["not-utf8", "too-deep", "not-json"])
    @pytest.mark.parametrize("reader", [
        "structure", "family", "family-directory", "fragment", "context"])
    def test_undecodable_file(self, capsys, tmp_path, p_inputs, reader, content, message):
        (tmp_path / "dir").mkdir()
        bad = tmp_path / "dir" / "bad.json"
        bad.write_bytes(content)
        commands = p_inputs("EX x p(x)")
        argv = {
            "structure": ["eval", "--structure", str(bad), "--formula", "EX x p(x)"],
            "family": ["ultraproduct", "--family", str(bad), "--ultrafilter", "principal:0"],
            "family-directory": ["ultraproduct", "--family", str(tmp_path / "dir"),
                                 "--ultrafilter", "principal:0"],
            "fragment": [*commands["separate"][:-1], str(bad)],
            "context": [*commands["types"][:-1], str(bad)],
        }[reader]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "bad.json does not decode as JSON: " in err and message in err

    def test_negative_arity_bound(self, capsys, p_inputs):
        argv = p_inputs("EX x p(x)")["henkin-eval"]
        code, out, err = run(capsys, *argv, "--arity-bound", "-3")
        assert code == 2 and not out and "--arity-bound: must be at least 0, not -3" in err
        assert run(capsys, *argv, "--arity-bound", "0")[:2] == (0, "true\n")


class TestOneFormulaCheck:
    """A faulty formula gets the same message on every command."""

    @pytest.mark.parametrize("formula, commands, message", [
        ("p(x)", ("separate", "types", "henkin-eval"),
         "formula has free first-order variables: x"),
        ("EX x foo(x)", ("separate", "types"), "unknown symbol 'foo'"),
    ])
    def test_one_message(self, capsys, p_inputs, formula, commands, message):
        argvs = p_inputs(formula)
        for command in commands:
            assert run(capsys, *argvs[command]) == (2, "", f"error: {message}\n")

    def test_henkin_eval_reads_an_unknown_name_as_a_free_relation_variable(
            self, capsys, p_inputs):
        # EX x foo(x) fails for the empty foo.
        assert run(capsys, *p_inputs("EX x foo(x)")["henkin-eval"]) == (0, "false\n", "")


class TestUltraCommands:
    def test_ultraproduct(self, capsys, families):
        kdir, _ = families
        code, out, _ = run(capsys, "ultraproduct", "--family", kdir,
                           "--ultrafilter", "principal:1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["quotient"]["universe"] == 6

    def test_henkin_eval(self, capsys, families):
        kdir, _ = families
        code, out, _ = run(capsys, "henkin-eval", "--family", kdir,
                           "--ultrafilter", "principal:0",
                           "--formula", "ALL2 R:1 ((EX x R(x)) | (ALL x ~R(x)))")
        assert code == 0 and out.strip() == "true"

    def test_check_los(self, capsys):
        code, out, _ = run(capsys, "check", "los", "--trials", "25", "--seed", "7")
        assert code == 0 and "pass" in out

    def test_check_fubini_json(self, capsys):
        code, out, _ = run(capsys, "check", "fubini", "--trials", "10",
                           "--seed", "7", "--format", "json")
        assert code == 0 and json.loads(out)["pass"] is True


@pytest.fixture
def fault_inputs(tmp_path):
    """A family directory of mixed signatures, one with no structure
    file, and a C4 structure file."""
    (tmp_path / "mixed").mkdir()
    (tmp_path / "empty").mkdir()
    for name in ("p", "q"):
        (tmp_path / "mixed" / f"{name}.json").write_text(json.dumps(
            {"universe": 1, "signature": {name: 1}, "relations": {name: []}}))
    (tmp_path / "c4.json").write_text(cycle_graph(4).to_json())
    return tmp_path


@pytest.mark.parametrize("argv, code, message", [
    (["ultraproduct", "--family", "{}/mixed", "--ultrafilter", "principal:0"], 2,
     "error: family members must share one signature"),
    (["parse", "--formula", "EX2 X:0 X(x)"], 2, "arities must be at least 1"),
    (["parse", "--formula", "EX x P = x"], 2, "equality compares variables, found 'P'"),
    (["eval", "--structure", "{}/c4.json"], 2, "error: provide --formula or --builtin"),
    (["ultraproduct", "--family", "{}/empty", "--ultrafilter", "principal:0"], 2,
     "error: no *.json structure files in"),
    (["insep", "--k", "{}/mixed", "--l", "{}/mixed"], 0, "witness: K[0] ~ L[0] via [0]"),
], ids=["mixed-family", "arity-0", "equality-on-a-relation", "no-formula",
        "empty-family", "insep-witness"])
def test_input_faults_and_text_witness(capsys, fault_inputs, argv, code, message):
    got, out, err = run(capsys, *(arg.format(fault_inputs) for arg in argv))
    assert got == code and message in (out if code == 0 else err)


class TestSpaceCommands:
    def test_separate_disjoint(self, capsys, families, tmp_path):
        kdir, ldir = families
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps(["EX x EX y edge(x, y)"]))
        code, out, _ = run(capsys, "separate", "--k", kdir, "--l", kdir,
                           "--fragment", str(frag))
        assert code == 1  # identical classes cannot be separated

    def test_separate_compares_signatures(self, capsys, tmp_path):
        # With an empty fragment every vector is empty, so the sets would
        # meet; the classes are refused first, as insep refuses them.
        for side, name in (("k", "p"), ("l", "q")):
            (tmp_path / side).mkdir()
            (tmp_path / side / "a.json").write_text(json.dumps(
                {"universe": 1, "signature": {name: 1}, "relations": {name: []}}))
        (tmp_path / "frag.json").write_text("[]")
        dirs = ["--k", str(tmp_path / "k"), "--l", str(tmp_path / "l")]
        for argv in (["separate", *dirs, "--fragment", str(tmp_path / "frag.json")],
                     ["insep", *dirs]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "signature mismatch" in err

    def test_separate_names_each_witness_by_its_first_file(self, capsys, tmp_path):
        # a.json and b.json hold one structure, which z.json holds too:
        # each witness is named by the first file of its side holding it.
        def unary(size, members):
            return json.dumps({"universe": size, "signature": {"p": 1},
                               "relations": {"p": [[x] for x in members]}})

        for side, files in {"k": {"b": unary(2, [0]), "a": unary(2, [0]), "c": unary(1, [])},
                            "l": {"z": unary(2, [0]), "y": unary(1, [0])}}.items():
            (tmp_path / side).mkdir()
            for name, text in files.items():
                (tmp_path / side / f"{name}.json").write_text(text)
        (tmp_path / "frag.json").write_text(json.dumps(["EX x p(x)", "ALL x p(x)"]))
        code, out, _ = run(capsys, "separate", "--k", str(tmp_path / "k"),
                           "--l", str(tmp_path / "l"), "--fragment", str(tmp_path / "frag.json"))
        assert code == 1 and out.splitlines()[:3] == [
            "K vectors: 00 (c.json), 10 (a.json)",
            "L vectors: 10 (z.json), 11 (y.json)",
            "distance: 0"]

    def test_separate_evaluates_each_pair_once(self, capsys, tmp_path, monkeypatch):
        def graph(n, edges):
            both = sorted({(a, b) for a, b in edges} | {(b, a) for a, b in edges})
            return json.dumps({"universe": n, "signature": {"edge": 2},
                               "relations": {"edge": [list(t) for t in both]}})

        def cycle(n):
            return graph(n, [(i, (i + 1) % n) for i in range(n)])

        for family, files in {"k": {"c4": cycle(4), "c6": cycle(6), "point": graph(1, [])},
                              "l": {"c3": cycle(3), "c5": cycle(5)}}.items():
            (tmp_path / family).mkdir()
            for name, text in files.items():
                (tmp_path / family / f"{name}.json").write_text(text)
        (tmp_path / "frag.json").write_text(json.dumps([
            "ALL x EX y edge(x, y)",
            "EX2 R:1 ALL x ALL y (edge(x, y) -> (R(x) <-> ~R(y)))",
            "EX x EX y EX z (edge(x, y) & edge(y, z) & edge(z, x))"]))
        calls = []
        counted = formula_space.eval_so_full

        def eval_so_full(*args, **kwargs):
            calls.append(args[:2])
            return counted(*args, **kwargs)

        monkeypatch.setattr(formula_space, "eval_so_full", eval_so_full)
        argv = ["separate", "--k", str(tmp_path / "k"), "--l", str(tmp_path / "l"),
                "--fragment", str(tmp_path / "frag.json")]
        code, text, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == len(set(calls)) == 5 * 3
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        # Each conjunction of literals is a balanced tree: a & (b & c).
        separator = (
            "~(ALL x EX y edge(x, y)) & ((EX2 R:1 ALL x ALL y edge(x, y) -> (R(x) <-> ~R(y)))"
            " & ~(EX x EX y EX z edge(x, y) & edge(y, z) & edge(z, x)))"
            " | (ALL x EX y edge(x, y)) & ((EX2 R:1 ALL x ALL y edge(x, y) -> (R(x) <-> ~R(y)))"
            " & ~(EX x EX y EX z edge(x, y) & edge(y, z) & edge(z, x)))")
        assert text == (
            "K vectors: 010 (point.json), 110 (c4.json)\n"
            "L vectors: 100 (c5.json), 101 (c3.json)\n"
            "distance: 1/2\n"
            f"separator: {separator}\n")
        assert out == json.dumps({
            "command": "separate",
            "k_vectors": [{"bits": "010", "witness": "point.json"},
                          {"bits": "110", "witness": "c4.json"}],
            "l_vectors": [{"bits": "100", "witness": "c5.json"},
                          {"bits": "101", "witness": "c3.json"}],
            "distance": "1/2",
            "separator": separator,
        }, indent=2) + "\n"

    def test_separator_of_a_long_fragment_parses_back(self, capsys, tmp_path):
        # Joined as one chain, the 1,200 literals nest too deep to print.
        for family, text in (("k", '{"universe": 1, "signature": {"p": 1},'
                                    ' "relations": {"p": [[0]]}}'),
                             ("l", '{"universe": 2, "signature": {"p": 1}}')):
            (tmp_path / family).mkdir()
            (tmp_path / family / "a.json").write_text(text)
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps([f"EX x{i} p(x{i})" for i in range(1200)]))
        code, out, err = run(capsys, "separate", "--k", str(tmp_path / "k"),
                             "--l", str(tmp_path / "l"), "--fragment", str(frag),
                             "--format", "json")
        assert code == 0, err
        separator = json.loads(out)["separator"]
        f = fm.parse(separator)
        assert fm.print_formula(f) == separator
        code, out, err = run(capsys, "parse", "--formula", separator)
        assert code == 0, err

    def test_types(self, capsys, c4_file, tmp_path):
        ctx = tmp_path / "ctx.json"
        ctx.write_text(json.dumps({"arities": [1], "fragment": ["EX x X0(x)"]}))
        code, out, _ = run(capsys, "types", "--structure", c4_file,
                           "--context", str(ctx), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert sorted(e["type"] for e in report["realized"]) == ["0", "1"]

    def test_insep_refutation(self, capsys, families):
        kdir, ldir = families
        code, out, _ = run(capsys, "insep", "--k", kdir, "--l", ldir)
        assert code == 0 and "refutation" in out

    def test_demo(self, capsys):
        code, out, _ = run(capsys, "demo", "np_example", "--param", "n=3")
        assert code == 0 and "demo np_example: pass" in out

    def test_demo_choices_are_the_workbench_demos(self, capsys):
        names = ("np_example", "infinity", "los_suite", "fubini_suite", "separation")
        assert tuple(workbench.DEMOS) == names
        code, out, _ = run(capsys, "demo", "--help")
        assert code == 0 and "{" + ",".join(names) + "}" in out

    def test_demo_echoes_parsed_parameters(self, capsys):
        reports = []
        for argv in (["--trials", "3"], ["--param", "trials=3"]):
            code, out, _ = run(capsys, "demo", "los_suite", *argv, "--format", "json")
            assert code == 0
            report = json.loads(out)
            del report["runtime_ms"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["params"] == {"seed": 42, "trials": 3}

    @pytest.mark.parametrize("argv, message", [
        (["demo", "np_example", "--param", "n=abc"], "n must be an integer, not 'abc'"),
        (["demo", "infinity", "--param", "seed=x"], "seed must be an integer, not 'x'"),
    ])
    def test_demo_parameter_not_an_integer(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize("argv, message", [
        (["demo", "infinity", "--param", "nmax=0"], "nmax must be at least 1, not 0"),
        (["check", "los", "--trials", "-5"], "--trials must be at least 1, not -5"),
        (["check", "metric", "--trials", "0"], "--trials must be at least 1, not 0"),
        (["demo", "los_suite", "--trials", "0"], "trials must be at least 1, not 0"),
        # argparse reads --budget before any file is opened.
        (["eval", "--structure", "a.json", "--formula", "x = x", "--budget", "0"],
         "--budget: must be at least 1, not 0"),
        (["henkin-eval", "--family", "f", "--ultrafilter", "principal:0", "--formula", "x = x",
          "--budget", "-1"], "--budget: must be at least 1, not -1"),
        (["separate", "--k", "k", "--l", "l", "--fragment", "f.json", "--budget", "0"],
         "--budget: must be at least 1, not 0"),
        (["types", "--structure", "a.json", "--context", "c.json", "--budget", "-1"],
         "--budget: must be at least 1, not -1"),
    ])
    def test_count_below_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and message in err

    @pytest.mark.parametrize("argv", [
        ["demo", "np_example", "--param", "nmax=3"],
        ["demo", "separation", "--trials", "3"],
    ])
    def test_demo_parameter_it_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "reads no parameter" in err


class TestDeterminism:
    def test_check_reports_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "check", "los", "--trials", "20",
                               "--seed", "11", "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_metric_check_deterministic(self, capsys):
        a = run(capsys, "check", "metric", "--trials", "10", "--seed", "3",
                "--format", "json")
        b = run(capsys, "check", "metric", "--trials", "10", "--seed", "3",
                "--format", "json")
        assert a == b


class TestFlags:
    """Each command takes --seed and --budget only where it reads them."""

    def test_unread_flags_are_usage_errors(self, capsys):
        assert cli.main(["parse", "--formula", "ALL x x = x", "--seed", "5"]) == 2
        assert cli.main(["parse", "--formula", "ALL x x = x", "--budget", "3"]) == 2
        assert cli.main(["check", "los", "--budget", "3"]) == 2

    def test_henkin_eval_reads_budget(self, capsys, families):
        kdir, _ = families
        code, _, err = run(capsys, "henkin-eval", "--family", kdir,
                           "--ultrafilter", "principal:0",
                           "--formula", "ALL2 R:1 ((EX x R(x)) | (ALL x ~R(x)))",
                           "--budget", "1")
        assert code == 3 and "budget" in err


class TestDeepSearch:
    def test_many_decisions_do_not_overflow_the_stack(self, capsys, tmp_path):
        # Propagation fixes none of the 1,200 tuple variables, so the SAT
        # search makes one decision per element.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"universe": 1200, "signature": {"p": 1},
                                    "relations": {"p": [[0]]}}))
        code, out, _ = run(capsys, "eval", "--structure", str(path),
                           "--formula", "EX2 X:1 ALL x (X(x) -> X(x))")
        assert code == 0 and out.strip() == "true"

    def test_infinite_on_fifteen_elements(self, tmp_path):
        # Without lex-leader constraints the search relabels the universe
        # and grows about 2.3 times per element: it ran for minutes here.
        (tmp_path / "fifteen.json").write_text(json.dumps({"universe": 15, "signature": {}}))
        started = time.perf_counter()
        done = run_capped(tmp_path, "eval", "--builtin", "infinite",
                          "--structure", "fifteen.json")
        assert done.returncode == 0 and done.stdout.strip() == "false"
        assert time.perf_counter() - started < 10


_JSON = hyp.recursive(
    hyp.none() | hyp.booleans() | hyp.integers() | hyp.floats() | hyp.text(),
    lambda inner: (hyp.lists(inner, max_size=4)
                   | hyp.dictionaries(hyp.text(max_size=4), inner, max_size=4)),
    max_leaves=16)
_NAMES = hyp.sampled_from(["p", "edge", "universe"])
_TOKENS = hyp.lists(hyp.sampled_from([
    "EX", "ALL", "EX2", "ALL2", "x", "y", "X:1", "R:2", ":", "(", ")", ",", "&", "|",
    "~", "->", "<->", "=", "!=", "p(x)", "X(x)", "R(x, y)", "edge(y, x)"]), max_size=30).map(" ".join)
# Objects with a structure file's keys, so that fuzzing reaches the
# checks behind the first type error as well.
_STRUCTURE_LIKE = hyp.fixed_dictionaries({}, optional={
    "universe": hyp.integers(-1, 4) | hyp.integers() | _JSON,
    "signature": (hyp.dictionaries(_NAMES, hyp.integers(-1, 3), max_size=3)
                  | hyp.dictionaries(_NAMES, _JSON, max_size=3) | _JSON),
    "relations": hyp.dictionaries(_NAMES, hyp.lists(hyp.lists(
        hyp.integers(-1, 3) | _JSON, max_size=3), max_size=4), max_size=3) | _JSON,
})


# Documents shaped like type contexts and fragments, for the same reason.
_FORMULAS = hyp.lists(_TOKENS | hyp.sampled_from([
    "EX x X0(x)", "ALL x (X0(x) -> p(x))", "EX2 Y:2 EX x (X0(x) & Y(x, x))"]) | _JSON,
    max_size=3)
_CONTEXT_LIKE = hyp.fixed_dictionaries({}, optional={
    "arities": hyp.lists(hyp.integers(-1, 2) | _JSON, max_size=2) | _JSON,
    "fragment": _FORMULAS | _JSON,
})


class TestExitCodeContract:
    """Commands other than check end in 0, 2 or 3 on any input."""

    @staticmethod
    def _write(tmp_path_factory, name, document):
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_text(json.dumps(document))
        return str(path)

    @settings(max_examples=200, deadline=None)
    @given(command=hyp.sampled_from(["parse", "classify", "prenex"]),
           text=hyp.text() | _TOKENS)
    def test_formula_text(self, command, text):
        assert cli.main([command, "--formula", text]) in (0, 2, 3)

    @settings(max_examples=500, deadline=None)
    @given(document=_JSON | _STRUCTURE_LIKE)
    def test_structure_document(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("fuzz") / "structure.json"
        path.write_text(json.dumps(document))
        code = cli.main(["eval", "--structure", str(path), "--formula", "ALL x x = x"])
        assert code in (0, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(document=_JSON | _CONTEXT_LIKE)
    def test_context_document(self, tmp_path_factory, document):
        structure = self._write(tmp_path_factory, "p.json", {
            "universe": 2, "signature": {"p": 1}, "relations": {"p": [[0]]}})
        context = self._write(tmp_path_factory, "context.json", document)
        code = cli.main(["types", "--structure", structure, "--context", context,
                         "--budget", "4096"])
        assert code in (0, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(document=_JSON | _FORMULAS)
    def test_fragment_document(self, tmp_path_factory, document):
        family = self._write(tmp_path_factory, "family.json", [
            {"universe": n, "signature": {"p": 1}, "relations": {"p": [[0]]}} for n in (1, 2)])
        fragment = self._write(tmp_path_factory, "fragment.json", document)
        code = cli.main(["separate", "--k", family, "--l", family, "--fragment", fragment,
                         "--budget", "4096"])
        assert code in (0, 1, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(command=hyp.sampled_from(["ultraproduct", "separate", "henkin-eval", "insep"]),
           document=_JSON | hyp.lists(_STRUCTURE_LIKE, max_size=3))
    def test_family_document(self, tmp_path_factory, command, document):
        family = self._write(tmp_path_factory, "family.json", document)
        if command == "ultraproduct":
            argv = ["ultraproduct", "--family", family, "--ultrafilter", "principal:0"]
        elif command == "henkin-eval":
            argv = ["henkin-eval", "--family", family, "--ultrafilter", "principal:0",
                    "--formula", "EX2 X:1 EX x X(x)", "--budget", "4096"]
        elif command == "insep":
            argv = ["insep", "--k", family, "--l", family]
        else:
            fragment = self._write(tmp_path_factory, "fragment.json", ["EX x p(x)"])
            argv = ["separate", "--k", family, "--l", family, "--fragment", fragment]
        # separate exits 1 when no formula separates the two families.
        assert cli.main(argv) in ((0, 1, 2, 3) if command == "separate" else (0, 2, 3))
