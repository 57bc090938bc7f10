"""Hashes and reports do not depend on the interpreter's hash seed.

String hashes differ between processes unless PYTHONHASHSEED fixes
them, so every cached hash must be computed in the process that uses
it, and no set order may reach a report.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import so_lab
from so_lab.workbench import cycle_graph

SRC = str(Path(so_lab.__file__).resolve().parents[1])


def python(seed, *argv):
    env = {**os.environ, "PYTHONHASHSEED": str(seed),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


BUILD = """
import pickle, sys
from so_lab import formulas as fm
from so_lab.structures import FiniteStructure, Signature
from so_lab.types_omitting import TypeContext

sig = Signature.of({"u": 1, "edge": 2})
objects = [
    FiniteStructure(sig, 3, {"u": [(0,)], "edge": [(0, 1), (1, 2)]}),
    fm.parse("EX2 X:1 ALL x (X(x) -> (EX y (edge(x, y) & ~u(y))))"),
    TypeContext((1, 2), (fm.parse("EX x X0(x)"), fm.parse("ALL x EX y X1(x, y)"))),
]
for obj in objects:
    hash(obj)  # fill every hash cache before pickling
"""

DUMP = BUILD + """
with open(sys.argv[1], "wb") as out:
    pickle.dump(objects, out)
"""

LOAD = BUILD + """
with open(sys.argv[1], "rb") as src:
    loaded = pickle.load(src)
for old, new in zip(loaded, objects):
    print(type(old).__name__, old == new, hash(old) == hash(new), len({old, new}))
"""


def test_unpickled_objects_hash_like_fresh_ones_under_another_seed(tmp_path):
    path = str(tmp_path / "objects.pickle")
    python(1, "-c", DUMP, path)
    lines = python(2, "-c", LOAD, path).decode().splitlines()
    assert lines == ["FiniteStructure True True 1",
                     "ExistsSO True True 1",
                     "TypeContext True True 1"]


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    structure = tmp_path / "c5.json"
    structure.write_text(cycle_graph(5).to_json())
    context = tmp_path / "ctx.json"
    context.write_text(json.dumps({"arities": [1, 1], "fragment": [
        "EX x X0(x)", "EX x (X0(x) & X1(x))", "ALL x ALL y ((X0(x) & edge(x, y)) -> X1(y))"]}))
    commands = [
        ["check", "omission", "--format", "json"],
        ["types", "--structure", str(structure), "--context", str(context), "--format", "json"],
    ]
    for argv in commands:
        outputs = {python(seed, "-m", "so_lab.cli", *argv) for seed in (0, 1)}
        assert len(outputs) == 1, argv
