#!/usr/bin/env bash
# Checks of the so-lab command line: exit codes, outputs and time limits
# on inputs that have broken it before.  It writes its input files to
# the current directory.
#
#   bash tools/console-checks.sh                  # the installed so-lab
#   SO_LAB="python -m so_lab.cli" bash tools/console-checks.sh
#
# SO_LAB is split into words, so it may hold an interpreter and module.
set -eo pipefail
SO_LAB=${SO_LAB:-so-lab}
out="$($SO_LAB classify --formula "EX2 R:2 ALL x EX y R(x,y)")"
echo "$out"
test "$out" = "Sigma(1)"
echo '{"universe": 15, "signature": {}}' > fifteen.json
out="$(timeout 20 $SO_LAB eval --builtin infinite --structure fifteen.json)"
echo "$out"
test "$out" = "false"
# 9,000,000 tuple variables, of which the 3,000 on the diagonal
# occur: the solver is sized by those.
echo '{"universe": 3000, "signature": {}}' > three-thousand.json
out="$(timeout 60 $SO_LAB eval --structure three-thousand.json --formula "EX2 X:2 ALL x X(x, x)")"
echo "$out"
test "$out" = "true"
# K_{7,8} is not Hamiltonian, and its vertices form two classes
# of twins: a symmetric, pigeonhole-like input for the solver.
python -c 'import json; e = [[u, v] for u in range(7) for v in range(7, 15)]; print(json.dumps({"universe": 15, "signature": {"edge": 2}, "relations": {"edge": e + [[v, u] for u, v in e]}}))' > k78.json
out="$(timeout 30 $SO_LAB eval --builtin hamiltonian --structure k78.json)"
echo "$out"
test "$out" = "false"
iff="X(x)"
for _ in $(seq 30); do iff="X(x) <-> ($iff)"; done
timeout 10 $SO_LAB prenex --formula "$iff"
mkdir -p sep-k sep-l
echo '{"universe": 1, "signature": {"p": 1}, "relations": {"p": [[0]]}}' > sep-k/a.json
echo '{"universe": 2, "signature": {"p": 1}}' > sep-l/b.json
python -c 'import json; print(json.dumps([f"EX x{i} p(x{i})" for i in range(1200)]))' > frag.json
timeout 60 $SO_LAB separate --k sep-k --l sep-l --fragment frag.json --format json > sep.json
sep="$(python -c 'import json; print(json.load(open("sep.json"))["separator"])')"
$SO_LAB parse --formula "$sep" > /dev/null
$SO_LAB demo infinity --param nmax=2 --format json > demo.json
python -c 'import json; n = json.load(open("demo.json"))["params"]["nmax"]; assert n == 2 and type(n) is int, n'
# C6/D3 and C8/D4 share a size, so the second graph of each pair
# is decided by the solver the first one loaded the template into.
$SO_LAB demo np_example --param n=4 --format json > np.json
python -c 'import json; checks = json.load(open("np.json"))["checks"]; assert checks and all(c["pass"] is True for c in checks), checks'
code=0
$SO_LAB demo np_example --param n=abc || code=$?
test "$code" = 2
code=0
$SO_LAB check los --trials 0 || code=$?
test "$code" = 2
echo '{"universe": 1000000, "signature": {}}' > million.json
code=0
timeout 10 $SO_LAB eval --semantics fo --structure million.json --formula "ALL x ALL y (x = y | ~(x = y))" || code=$?
test "$code" = 3
echo '{"universe": 4, "signature": {}}' > four.json
# Every atom on R and on S reads a tuple bound outside them, so
# each tries one candidate per restriction, not 2^16 and 2^4.
out="$(timeout 10 $SO_LAB eval --structure four.json --formula "ALL x ALL y ALL2 R:2 ALL2 S:1 ((R(x,y) & S(x)) | ~(R(x,y) & S(x)))")"
echo "$out"
test "$out" = "true"
code=0
$SO_LAB eval --structure four.json --formula "(EX2 Y:3 ALL x ALL y ALL z ~Y(x,y,z)) & q = r" || code=$?
test "$code" = 2
code=0
$SO_LAB eval --structure four.json --formula "EX2 Y:3 ALL x ALL y ALL z (~Y(x,y,z) | q = r)" || code=$?
test "$code" = 2
code=0
$SO_LAB eval --builtin colorable:x --structure four.json || code=$?
test "$code" = 2
code=0
$SO_LAB eval --builtin infinite --structure four.json --budget 0 || code=$?
test "$code" = 2
# true == 1 in Python, but a structure holding it would print
# another JSON than the equal one holding 1.
echo '{"universe": 2, "signature": {"p": 1}, "relations": {"p": [[true]]}}' > bool.json
code=0
$SO_LAB eval --structure bool.json --formula "EX x p(x)" || code=$?
test "$code" = 2
printf '\xff\xfe{}' > not-utf8.json
code=0
$SO_LAB eval --structure not-utf8.json --formula "EX x x = x" || code=$?
test "$code" = 2
echo '[{"universe": 1, "signature": {"p": 1}}]' > unary.json
code=0
$SO_LAB henkin-eval --family unary.json --ultrafilter principal:0 --arity-bound -1 --formula "EX x p(x)" || code=$?
test "$code" = 2
echo '{"arities": [1], "fragment": ["EX x foo(x)"]}' > foo-context.json
code=0
$SO_LAB types --structure four.json --context foo-context.json 2> types.err || code=$?
cat types.err
test "$code" = 2
grep -q "unknown symbol" types.err
# A 4-ary relation on 100 elements: the explicit quotient would
# make 100^4 large-set tests, past the product budget.
python -c 'import json; print(json.dumps([{"universe": 100, "signature": {"r": 4}, "relations": {"r": [[0, 1, 2, 3]]}}]))' > quaternary.json
timeout 10 $SO_LAB ultraproduct --family quaternary.json --ultrafilter principal:0 --format json > ultra.json
python -c 'import json; assert json.load(open("ultra.json"))["explicit"] is False'
echo '[{"universe": 2, "signature": {"p": 1}, "relations": {"p": [[0]]}}]' > insep-k.json
echo '[{"universe": 2, "signature": {"p": 1}, "relations": {"p": [[1]]}}]' > insep-l.json
$SO_LAB insep --k insep-k.json --l insep-l.json --format json > insep.json
python -c 'import json; w = json.load(open("insep.json"))["witness"]; assert w == {"k_index": 0, "l_index": 0, "mapping": [1, 0]}, w'
echo '{"arities": [1], "fragment": ["EX x X0(x)"]}' > context.json
$SO_LAB types --structure four.json --context context.json --format json > types.json
python -c 'import json; r = json.load(open("types.json"))["realized"]; assert [e["type"] for e in r] == ["0", "1"], r'
